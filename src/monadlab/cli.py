"""Batch command-line surface.

Exit codes follow a CI-friendly contract: 0 for success (verification
passed, terms equal), 1 for a semantic failure (verification failed, terms
differ), 2 for usage or resource errors (bad arguments, parse errors,
search ceilings, an unwritable ``--out``, a reader that closed stdout).
The MONADLAB_CEILING environment variable overrides the default ceiling of
``algebras`` and ``verify``; all output is deterministic given the flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .algebra import (
    DEFAULT_SEARCH_CEILING,
    SearchCeilingExceeded,
    algebra_to_dict,
    enumerate_algebras,
)
from .equational import (
    FreeClasses,
    TermError,
    format_term,
    free_classes,
    max_var,
    normalize,
    parse_term,
    terms_equal,
)
from .finset import FinSetError
from .monadicity import empty_state_diagnostic, verify_monadicity
from .statemonad import StateMonadCtx

PASS, FAIL, USAGE = 0, 1, 2


def _ceiling(args: argparse.Namespace) -> int:
    """``--ceiling``, else MONADLAB_CEILING, else the default."""
    ceiling = args.ceiling
    if ceiling is None:
        env = os.environ.get("MONADLAB_CEILING", str(DEFAULT_SEARCH_CEILING))
        try:
            ceiling = int(env)
        except ValueError as exc:
            raise FinSetError(f"MONADLAB_CEILING must be an integer, got {env!r}") from exc
    if ceiling <= 0:
        raise FinSetError(f"ceiling must be positive, got {ceiling}")
    return ceiling


def _write(path: str, text: str) -> None:
    """Write ``--out``; an unwritable path is a resource error (exit 2)."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FinSetError(f"cannot write {path}: {exc.strerror or exc}") from exc


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: nothing it reads varies between
    calls (``prog`` is fixed), and ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="monadlab",
        description="classify state-monad algebras on finite sets, verify the "
        "comparison with function spaces, and work with lookup/update terms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--s", type=int, required=True, help="number of states")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("algebras", help="enumerate algebra structures on a carrier")
    common(p)
    p.add_argument("--ceiling", type=int, default=None, help="search ceiling")
    p.add_argument(
        "--method", choices=("brute", "constrained", "transport"), default="constrained"
    )
    p.add_argument("--x", type=int, required=True, help="carrier size")
    p.add_argument("--out", type=str, default=None,
                   help="also write the structures as newline-delimited JSON")

    p = sub.add_parser("verify", help="run the full verification pipeline")
    common(p)
    p.add_argument("--ceiling", type=int, default=None, help="search ceiling")
    p.add_argument("--seed", type=int, default=0,
                   help="ignored: verify samples nothing (accepted for existing callers)")
    p.add_argument("--max-x", type=int, required=True, help="largest carrier")
    p.add_argument("--diagnose-empty", action="store_true",
                   help="with --s 0, demonstrate why the equivalence fails")
    p.add_argument("--out", type=str, default=None, help="also write the JSON report")

    p = sub.add_parser("equal", help="decide equality of two terms")
    common(p)
    p.add_argument("--vars", type=int, default=None,
                   help="number of variables (default: inferred)")
    p.add_argument("terms", nargs=2, metavar="TERM")

    p = sub.add_parser("rewrite", help="normalize a term")
    common(p)
    p.add_argument("term", metavar="TERM")

    p = sub.add_parser("free", help="count denotation classes of terms")
    common(p)
    p.add_argument("--vars", type=int, required=True, help="number of variables")
    p.add_argument("--depth", type=int, default=4, help="construction depth")
    return parser


def _states(args: argparse.Namespace) -> int:
    """``--s``, refused when negative."""
    if args.s < 0:
        raise FinSetError(f"state count must be non-negative, got {args.s}")
    return args.s


def _cmd_algebras(args) -> int:
    ceiling = _ceiling(args)
    s = _states(args)
    ctx = StateMonadCtx(s)
    algebras = enumerate_algebras(ctx, args.x, method=args.method, ceiling=ceiling)
    records = [algebra_to_dict(a) for a in algebras]
    lines = [json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n" for rec in records]
    if args.format == "json":
        print("".join(lines), end="")
    else:
        plural = "" if len(algebras) == 1 else "s"
        print(
            f"{len(algebras)} algebra{plural} on a {args.x}-element carrier "
            f"with {s} states ({args.method})"
        )
        for rec in records:
            print(f"  h = {rec['h']}")
    if args.out:
        _write(args.out, "".join(lines))
    return PASS


def _cmd_verify(args) -> int:
    ceiling = _ceiling(args)
    s = _states(args)
    if s == 0:
        if args.diagnose_empty:
            diag = empty_state_diagnostic(args.max_x)
            if args.format == "json":
                print(json.dumps(diag, sort_keys=True, indent=2))
            else:
                print("empty state object: demonstrating the failure")
                for x, c in diag["algebra_counts"].items():
                    print(f"  carrier {x}: {c} algebra(s)")
                print(f"  {diag['message']}")
            if args.out:
                _write(args.out, json.dumps(diag, sort_keys=True, indent=2) + "\n")
            return PASS
        print(
            "refusing to verify with 0 states: the comparison with function "
            "spaces requires a nonempty state object (rerun with "
            "--diagnose-empty to see the failure)",
            file=sys.stderr,
        )
        return USAGE
    if args.diagnose_empty:
        raise FinSetError(f"--diagnose-empty applies only with --s 0, got --s {s}")
    report = verify_monadicity(s, args.max_x, ceiling=ceiling)
    print(report.to_json() if args.format == "json" else report.to_text())
    if args.out:
        _write(args.out, report.to_json() + "\n")
    return PASS if report.passed else FAIL


def _cmd_equal(args) -> int:
    s = _states(args)
    t1 = parse_term(args.terms[0], s)
    t2 = parse_term(args.terms[1], s)
    nvars = args.vars
    if nvars is None:
        nvars = max(max_var(t1), max_var(t2)) + 1
    ctx = StateMonadCtx(s)
    equal = terms_equal(t1, t2, ctx, nvars)
    if args.format == "json":
        print(json.dumps({"equal": equal, "nvars": nvars}, sort_keys=True))
    else:
        print("equal" if equal else "different")
    return PASS if equal else FAIL


def _cmd_rewrite(args) -> int:
    s = _states(args)
    term = parse_term(args.term, s)
    normal = normalize(term, s)
    if args.format == "json":
        print(json.dumps({"input": format_term(term), "normal": format_term(normal)},
                         sort_keys=True))
    else:
        print(format_term(normal))
    return PASS


def _cmd_free(args) -> int:
    s = _states(args)
    if args.vars < 0:
        raise FinSetError(f"vars must be non-negative, got {args.vars}")
    ctx = StateMonadCtx(s)
    result: FreeClasses = free_classes(ctx, args.vars, args.depth)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "classes": result.count,
                    "saturated": result.saturated,
                    "representatives": {
                        str(code): format_term(t)
                        for code, t in result.representatives.items()
                    },
                },
                sort_keys=True,
            )
        )
    else:
        plural = "" if result.count == 1 else "es"
        print(f"{result.count} class{plural}")
        for code, t in result.representatives.items():
            print(f"  {code}: {format_term(t)}")
    return PASS


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "algebras": _cmd_algebras,
        "verify": _cmd_verify,
        "equal": _cmd_equal,
        "rewrite": _cmd_rewrite,
        "free": _cmd_free,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (``monadlab verify ... | head -1``): point
        # it at devnull, so the flush at exit finds nothing to fail on
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return USAGE
    except TermError as exc:
        print(f"term error: {exc}", file=sys.stderr)
        return USAGE
    except SearchCeilingExceeded as exc:
        print(f"search ceiling exceeded: {exc}", file=sys.stderr)
        return USAGE
    except FinSetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
