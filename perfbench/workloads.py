"""The four workloads: seeded inputs, the ops that make up one job, and the
checks each op's output must pass.

A job is a fixed list of ops.  Every op calls ``monadlab`` through module
attributes, so the traced run can swap in its wrappers.  Inputs are built
once per run from the seed and are not timed; each repeat of the job gets
fresh ``StateMonadCtx`` objects, so no repeat reuses another's caches.

Why these workloads:

``laws``      the finset codecs and the monad law scans, the only place
              where those kernels are the work;
``classify``  the classifier as a search (``algebras`` CLI) and as a
              rejecting validator (``check_algebra`` on known non-algebras);
``verify``    the README's end-to-end ``verify`` command, mostly accepting
              validation plus the comparison suite;
``terms``     the equational layer, many small queries and no table scans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

import oracles

DEEP_EVERY = 200
"""One ``terms`` query in this many nests past the default recursion limit."""


@dataclass
class Op:
    key: str
    run: Callable[[dict], object]
    check: Callable[[object], str | None]
    count: Callable[[object], dict] | None = None
    cli: bool = False
    deep: bool = False


@dataclass
class Job:
    ops: list[Op]
    fresh_env: Callable[[], dict]
    info: dict = field(default_factory=dict)

    def summarize(self, counters: dict) -> dict:
        """Turn summed per-op counts into the workload's coverage counters."""
        out = dict(counters)
        pairs = out.pop("equational.provable_pairs", 0)
        agree = out.pop("equational.nf_agree_pairs", 0)
        size_in = out.pop("equational.size_in", 0)
        size_nf = out.pop("equational.size_nf", 0)
        if pairs:
            out["equational.nf_agreement"] = agree / pairs
        if size_in:
            out["equational.nf_size_ratio"] = size_nf / size_in
        return out


def _ctxs(lib, sizes):
    return lambda: {s: lib.statemonad.StateMonadCtx(s) for s in sizes}


def _cli_run(lib, argv):
    def run(env):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = lib.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
        return rc, out.getvalue(), err.getvalue()

    return run


def stdout_digest(output) -> str:
    return hashlib.sha256(output[1].encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# laws


#: Criterion 02's pairs without (2,3), whose 107M-point scan runs the same
#: bulk kernel as (2,2).  Value: the weakest coverage mode accepted today.
LAW_PAIRS = {(s, x): "full" for s in (1, 2, 3) for x in (0, 1, 2)}
LAW_PAIRS[(1, 3)] = "full"
LAW_PAIRS[(3, 1)] = "reduced"
LAW_PAIRS[(3, 2)] = "sampled"
#: ``mult_agreement`` at (3,2) is 272M points; the bulk kernel it runs is
#: already timed at (2,2) and (3,1).
NO_MULT_AGREEMENT = {(3, 2)}


def _adjunction_op(lib, s, x, y) -> Op:
    def run(env):
        fs = lib.finset
        state, carrier, target = fs.FinSet(s), fs.FinSet(x), fs.FinSet(y)
        codec = fs.ProductCodec(state, carrier)
        exp = fs.ExpCodec(target, state)
        ev = fs.evaluation(target, state)
        checks = bad = 0
        transposes = []
        for f in fs.hom(codec.obj, target):
            transposed = fs.curry(f, codec)
            transposes.append((f.table, transposed.table))
            bad += fs.uncurry(transposed, exp).table != f.table
            counit = fs.compose(ev, fs.product_map(fs.identity(state), transposed))
            bad += counit.table != f.table
            checks += 2
        for g in fs.hom(carrier, exp.obj):
            bad += fs.curry(fs.uncurry(g, exp), codec).table != g.table
            checks += 1
        return checks, bad, transposes

    def check(out):
        checks, bad, transposes = out
        if bad:
            return f"adjunction ({s},{x},{y}): {bad} identities failed"
        if checks != oracles.adjunction_checks(s, x, y) or len(transposes) != y ** (s * x):
            return f"adjunction ({s},{x},{y}): {checks} checks over {len(transposes)} maps"
        for f_table, got in transposes:
            reason = oracles.check_curry(f_table, got, s, x, y)
            if reason:
                return reason
        return None

    return Op(f"adjunction s={s} x={x} y={y}", run, check,
              count=lambda out: {"finset.adjunction_checks": out[0]})


def _law_counts(out) -> dict:
    return {
        f"statemonad.points.{out.mode}": out.checked,
        "statemonad.sampled_checks": int(out.mode == "sampled"),
    }


def _law_ops(lib, s, x, seed) -> list[Op]:
    mode = LAW_PAIRS[(s, x)]
    ctx = lib.statemonad.StateMonadCtx

    def unit_check(out):
        return None if out is None else f"unit law ({s},{x}) fails at {out}"

    ops = [
        Op(f"unit_law s={s} x={x}", lambda env: ctx(s).unit_law_witness(x), unit_check),
        Op(
            f"associativity s={s} x={x}",
            lambda env: ctx(s).associativity_check(x, seed=seed),
            lambda out: oracles.check_law("associativity", out, s, x, mode),
            count=_law_counts,
        ),
    ]
    if (s, x) not in NO_MULT_AGREEMENT:
        ops.append(Op(
            f"mult_agreement s={s} x={x}",
            lambda env: ctx(s).mult_agreement(x),
            lambda out: oracles.check_law("mult_agreement", out, s, x, "full"),
            count=_law_counts,
        ))
    return ops


def laws(lib, seed: int) -> Job:
    rng = random.Random(seed)
    triples = list(product(range(4), repeat=3))
    rng.shuffle(triples)
    ops = [_adjunction_op(lib, *t) for t in triples]
    law_ops = [op for s, x in sorted(LAW_PAIRS) for op in _law_ops(lib, s, x, seed)]
    rng.shuffle(law_ops)
    return Job(ops + law_ops, lambda: {})


# ---------------------------------------------------------------------------
# classify


CLASSIFY_CARRIERS = [(2, 0), (2, 1), (2, 2), (2, 3), (2, 5), (3, 0), (3, 1)]
#: 40 carrier-9 candidates put the 99th percentile of op latency in the
#: middle of their group, not at its edge.
RANDOM_CANDIDATES = {4: 2000, 9: 40}
MUTANTS_PER_ALGEBRA = 20


def _candidate_op(lib, n, table, key) -> Op:
    s = 2
    structure = lib.finset.Morphism(
        lib.finset.FinSet(oracles.t_size(s, n)), lib.finset.FinSet(n), tuple(table)
    )

    def count(out):
        return {"algebra.validate.sampled": int(getattr(out, "checked", None) == "sampled")}

    return Op(
        key,
        lambda env: lib.algebra.check_algebra(env[s], n, structure),
        lambda out: oracles.check_violation(s, n, table, out),
        count=count,
    )


def _unit_law_table(rng, s, n):
    table = [rng.randrange(n) for _ in range(oracles.t_size(s, n))]
    for v in range(n):
        table[oracles.unit_code(s, n, v)] = v
    return table


def classify(lib, seed: int) -> Job:
    rng = random.Random(seed)
    ops = []
    for s, x in CLASSIFY_CARRIERS:
        k = oracles.integer_root(x, s)
        known = oracles.function_space_algebras(s, k) if k is not None and x < 4 else None
        argv = ["algebras", "--s", str(s), "--x", str(x), "--format", "json"]

        def check(out, s=s, x=x, known=known):
            rc, stdout, _ = out
            if rc != 0:
                return f"algebras ({s},{x}) exit {rc}"
            return oracles.check_algebra_lines(stdout, s, x, known)

        ops.append(Op(
            " ".join(argv), _cli_run(lib, argv), check, cli=True,
            count=lambda out: {
                "algebra.structures": len(out[1].splitlines()),
                "cli.stdout_bytes": len(out[1].encode()),
            },
        ))

    candidates = []
    for n, how_many in RANDOM_CANDIDATES.items():
        made = 0
        while made < how_many:
            table = _unit_law_table(rng, 2, n)
            if oracles.algebra_witness(2, n, table, rng) is not None:
                candidates.append(_candidate_op(lib, n, table, f"random x={n} #{made}"))
                made += 1

    twelve = sorted(oracles.function_space_algebras(2, 2))
    distance = min(
        sum(a != b for a, b in zip(p, q)) for i, p in enumerate(twelve) for q in twelve[i + 1:]
    )
    for i, alg in enumerate(twelve):
        for j in range(MUTANTS_PER_ALGEBRA):
            mutant = list(alg)
            cell = rng.randrange(len(mutant))
            mutant[cell] = (mutant[cell] + rng.randrange(1, 4)) % 4
            # One cell from an algebra and at least 39 from every other one,
            # so never an algebra; the oracle finds the broken law itself.
            if oracles.algebra_witness(2, 4, mutant, rng) is None:
                raise RuntimeError(f"mutant {i}.{j} is an algebra")
            candidates.append(_candidate_op(lib, 4, mutant, f"mutant {i}.{j}"))
    rng.shuffle(candidates)
    info = {"carrier4_min_distance": distance, "candidates": len(candidates)}
    return Job(ops + candidates, _ctxs(lib, (2,)), info)


# ---------------------------------------------------------------------------
# verify


VERIFY_RUNS = [(2, 4), (1, 6), (3, 1)]


def verify(lib, seed: int) -> Job:
    ops = []
    for s, max_x in VERIFY_RUNS:
        argv = ["verify", "--s", str(s), "--max-x", str(max_x),
                "--format", "json", "--seed", str(seed)]

        def check(out, s=s, max_x=max_x):
            rc, stdout, _ = out
            if rc != 0:
                return f"verify ({s},{max_x}) exit {rc}"
            return oracles.check_verify_report(json.loads(stdout), s, max_x)

        def count(out):
            report = json.loads(out[1])
            carriers = report["carriers"].values()
            return {
                "monadicity.checks": sum(t["checked"] for t in report["checks"].values()),
                "algebra.structures": sum(c["count"] or 0 for c in carriers),
                "algebra.guarded": sum(bool(c["guarded"]) for c in carriers),
                "cli.stdout_bytes": len(out[1].encode()),
            }

        ops.append(Op(" ".join(argv), _cli_run(lib, argv), check, count=count, cli=True))
    return Job(ops, lambda: {})


# ---------------------------------------------------------------------------
# terms


TERM_QUERIES = 12_000
FREE_EVERY = 400
#: (states, variables, depth), taken in turn so every seed does the same
#: closure work; (3, 1) at depth 3 alone would cost as much as 700 queries.
FREE_CASES = [(2, 1, 2), (2, 1, 3), (2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 3, 3), (3, 1, 2)]


#: Largest random term, in constructors.  Without a cap a few terms of
#: hundreds of nodes make a seed's work and memory depend on luck.
MAX_TERM_SIZE = 64


def query_term(rng, s, nvars):
    """A random term of depth 4 to 7 and at most ``MAX_TERM_SIZE`` nodes."""
    while True:
        t = random_term(rng, s, nvars, rng.randrange(4, 8))
        if oracles.term_size(t) <= MAX_TERM_SIZE:
            return t


def random_term(rng, s, nvars, depth):
    if depth <= 0 or rng.random() < 0.3:
        return ("x", rng.randrange(nvars))
    if rng.random() < 0.5:
        return ("u", rng.randrange(s), random_term(rng, s, nvars, depth - 1))
    return ("l", tuple(random_term(rng, s, nvars, depth - 1) for _ in range(s)))


def _rewrites(t, rng, s, nvars):
    """Every one-step rewrite at the root of ``t`` by one of the four
    equations, in either direction:

    1. ``u_a(u_b(t)) = u_b(t)``
    2. ``u_a(l(t_0..t_n)) = u_a(t_a)``
    3. ``l(u_0(t), .., u_n(t)) = t``
    4. ``l(l(t_00..), .., l(..t_nn)) = l(t_00, .., t_nn)``
    """
    filler = lambda: random_term(rng, s, nvars, 1)  # noqa: E731
    out = [("l", tuple(("u", i, t) for i in range(s)))]  # 3, backward
    if t[0] == "u":
        out.append(("u", rng.randrange(s), t))  # 1, backward
        a, body = t[1], t[2]
        out.append(("u", a, ("l", tuple(body if i == a else filler() for i in range(s)))))
        if body[0] == "u":
            out.append(body)  # 1
        if body[0] == "l":
            out.append(("u", a, body[1][a]))  # 2
    if t[0] == "l":
        brs = t[1]
        if all(b[0] == "u" and b[1] == i and b[2] == brs[0][2] for i, b in enumerate(brs)):
            out.append(brs[0][2])  # 3
        if all(b[0] == "l" for b in brs):
            out.append(("l", tuple(b[1][i] for i, b in enumerate(brs))))  # 4
        out.append(("l", tuple(
            ("l", tuple(brs[i] if j == i else filler() for j in range(s))) for i in range(s)
        )))  # 4, backward
    return out


def provably_equal(t, rng, s, nvars):
    """``t`` with one equation applied at a random position."""
    paths = [()]
    stack = [((), t)]
    while stack:
        path, node = stack.pop()
        children = [node[2]] if node[0] == "u" else list(node[1]) if node[0] == "l" else []
        for i, c in enumerate(children):
            paths.append(path + (i,))
            stack.append((path + (i,), c))
    path = rng.choice(paths)

    def rebuild(node, path):
        if not path:
            return rng.choice(_rewrites(node, rng, s, nvars))
        i = path[0]
        if node[0] == "u":
            return ("u", node[1], rebuild(node[2], path[1:]))
        brs = list(node[1])
        brs[i] = rebuild(brs[i], path[1:])
        return ("l", tuple(brs))

    return rebuild(t, path)


def deep_term(rng, s, nvars, depth):
    """A chain ``depth`` constructors deep, built without recursion."""
    t = ("x", rng.randrange(nvars))
    for _ in range(depth):
        if rng.random() < 0.5:
            t = ("u", rng.randrange(s), t)
        else:
            at = rng.randrange(s)
            t = ("l", tuple(t if i == at else ("x", rng.randrange(nvars)) for i in range(s)))
    return t


def _nf_check(original, nf, lib, s):
    return oracles.check_normal_form(original, oracles.from_library(nf, lib.equational), s)


def _pair_op(lib, a, b, s, nvars, key, deep, provable) -> Op:
    la, lb = oracles.to_library(a, lib.equational), oracles.to_library(b, lib.equational)
    eq = lib.equational

    if provable:
        def run(env):
            return (eq.terms_equal(la, lb, env[s], nvars),
                    eq.normalize(la, s), eq.normalize(lb, s))

        def check(out):
            if out[0] is not True:
                return f"{key}: provably equal terms reported different"
            return _nf_check(a, out[1], lib, s) or _nf_check(b, out[2], lib, s)

        def count(out):
            if deep:
                return {}
            na = oracles.from_library(out[1], eq)
            nb = oracles.from_library(out[2], eq)
            return {
                "equational.provable_pairs": 1,
                "equational.nf_agree_pairs": int(na == nb),
                "equational.size_in": oracles.term_size(a) + oracles.term_size(b),
                "equational.size_nf": oracles.term_size(na) + oracles.term_size(nb),
            }

        return Op(key, run, check, count=count, deep=deep)

    return Op(
        key,
        lambda env: eq.terms_equal(la, lb, env[s], nvars),
        lambda out: oracles.check_equal(out, a, b, s),
        deep=deep,
    )


def _parse_op(lib, t, s, key, deep) -> Op:
    text = oracles.term_text(t)
    eq = lib.equational

    def run(env):
        parsed = eq.parse_term(text, s)
        return parsed, eq.normalize(parsed, s)

    def check(out):
        if not oracles.same_term(oracles.from_library(out[0], eq), t):
            return f"{key}: parse_term misread {text[:40]}"
        return _nf_check(t, out[1], lib, s)

    def count(out):
        if deep:
            return {}
        nf = oracles.from_library(out[1], eq)
        return {"equational.size_in": oracles.term_size(t),
                "equational.size_nf": oracles.term_size(nf)}

    return Op(key, run, check, count=count, deep=deep)


def _free_op(lib, s, nvars, depth, key) -> Op:
    return Op(
        key,
        lambda env: lib.equational.free_classes(env[s], nvars, depth),
        lambda out: oracles.check_free_classes(out, s, nvars),
    )


def terms(lib, seed: int) -> Job:
    rng = random.Random(seed)
    ops = []
    for i in range(TERM_QUERIES):
        key = f"query {i}"
        if i % FREE_EVERY == FREE_EVERY // 2:
            s, nvars, depth = FREE_CASES[(i // FREE_EVERY) % len(FREE_CASES)]
            ops.append(_free_op(lib, s, nvars, depth, f"{key} free_classes"))
            continue
        s = rng.choice((2, 3))
        nvars = rng.choice((1, 2, 3))
        deep = i % DEEP_EVERY == DEEP_EVERY - 1
        if deep:
            a = deep_term(rng, s, nvars, rng.randrange(1100, 1400))
        else:
            a = query_term(rng, s, nvars)
        kind = rng.random()
        if kind < 0.4:
            # Equation 3 backwards at the root keeps a deep term's chain intact.
            b = ("l", tuple(("u", j, a) for j in range(s))) if deep else provably_equal(a, rng, s, nvars)
            if oracles.meaning(a, s) != oracles.meaning(b, s):
                raise RuntimeError(f"{key}: rewrite changed the denotation")
            ops.append(_pair_op(lib, a, b, s, nvars, f"{key} provable", deep, True))
        elif kind < 0.7:
            b = query_term(rng, s, nvars)
            ops.append(_pair_op(lib, a, b, s, nvars, f"{key} independent", deep, False))
        else:
            ops.append(_parse_op(lib, a, s, f"{key} parse", deep))
    return Job(ops, _ctxs(lib, (2, 3)))


WORKLOADS = {"laws": laws, "classify": classify, "verify": verify, "terms": terms}
