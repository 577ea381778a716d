"""Known answers for the benchmark, computed without the code under test.

Everything here follows from the paper's theorem or from the documented
integer encodings, never from calling ``monadlab``:

* pairs ``(s, v)`` in ``S x X`` are coded ``s * |X| + v``;
* a function ``f: S -> B`` is coded ``sum(f(s) * |B| ** s)``;
* so ``TX = (S x X)^S`` has ``(|S| * |X|) ** |S|`` codes, and ``TTX``, ``TTTX``
  follow by the same rule.

Each ``check_*`` function returns ``None`` when an output is right and a
one-line reason when it is wrong.  The negative controls in
:func:`negative_controls` feed each of them a known-wrong answer, so a check
that can no longer fail shows up as a broken control.
"""

from __future__ import annotations

import json
import random
from itertools import permutations
from math import factorial
from types import SimpleNamespace

# ---------------------------------------------------------------------------
# sizes, counts and modes


def t_size(s: int, n: int) -> int:
    """``|T(N)|`` for a carrier of ``n`` elements and ``s`` states."""
    return (s * n) ** s


def integer_root(x: int, s: int) -> int | None:
    """The ``k`` with ``k ** s == x``, or None (exact, integers only)."""
    k = 0
    while k**s < x:
        k += 1
    return k if k**s == x else None


def algebra_count(s: int, x: int) -> int:
    """Algebras on an ``x``-element carrier: ``x!/k!`` when ``x = k^s``, else 0.

    Every algebra is a relabeling of the function space ``Y^S`` with
    ``|Y| = k``; the relabelings that fix the structure are exactly the
    permutations of ``Y``.
    """
    k = integer_root(x, s)
    return 0 if k is None else factorial(x) // factorial(k)


def free_class_count(s: int, nvars: int) -> int:
    """Classes of the free model on ``nvars`` variables: ``(|S| * v) ^ |S|``.

    By the global-state normal form every element of ``T(V)`` is definable.
    """
    return (s * nvars) ** s


#: Coverage modes from strongest to weakest.
MODE_RANK = {"full": 0, "reduced": 1, "sampled": 2}


def law_domain(law: str, mode: str, s: int, x: int) -> int | None:
    """Points a law check must report in ``mode``, or None when not fixed."""
    tx = t_size(s, x)
    ttx = (s * tx) ** s
    if law == "mult_agreement":
        return ttx if mode == "full" else None
    if mode == "full":
        return (s * ttx) ** s
    if mode == "reduced":
        return s * ttx
    return None


def check_law(law: str, result, s: int, x: int, expected_mode: str) -> str | None:
    """A ``LawCheck`` must hold, in a mode no weaker than expected, covering
    the whole domain when it claims a full or reduced scan."""
    if not result.ok:
        return f"{law} ({s},{x}) failed at {result.witness}"
    if result.mode not in MODE_RANK:
        return f"{law} ({s},{x}) unknown mode {result.mode!r}"
    if MODE_RANK[result.mode] > MODE_RANK[expected_mode]:
        return f"{law} ({s},{x}) mode {result.mode} weaker than {expected_mode}"
    domain = law_domain(law, result.mode, s, x)
    if domain is not None and result.checked != domain:
        return f"{law} ({s},{x}) {result.mode} checked {result.checked}, domain {domain}"
    if domain is None and result.checked <= 0:
        return f"{law} ({s},{x}) {result.mode} checked nothing"
    return None


# ---------------------------------------------------------------------------
# finset: the transpose, by the encoding


def curry_table(f_table, s: int, x: int, y: int) -> tuple[int, ...]:
    """``curry(f)(v)`` codes ``s -> f(s * |X| + v)`` in base ``|Y|``."""
    return tuple(
        sum(f_table[si * x + v] * y**si for si in range(s)) for v in range(x)
    )


def check_curry(f_table, got, s: int, x: int, y: int) -> str | None:
    if tuple(got) != curry_table(f_table, s, x, y):
        return f"curry ({s},{x},{y}) of {tuple(f_table)} gave {tuple(got)}"
    return None


def adjunction_checks(s: int, x: int, y: int) -> int:
    """Checks criterion 01 makes on one hom-set triple: two per map
    ``S x X -> Y`` and one per map ``X -> Y^S``."""
    return 2 * y ** (s * x) + (y**s) ** x


# ---------------------------------------------------------------------------
# the monad and its algebras, pointwise


def unit_code(s: int, n: int, v: int) -> int:
    """``unit(v)`` is ``state -> (state, v)``."""
    base = s * n
    return sum((si * n + v) * base**si for si in range(s))


def assoc_sides(s: int, n: int, h, w: int) -> tuple[int, int]:
    """``h(T(h)(w))`` and ``h(mult(w))`` at one ``w`` in ``TTX``.

    ``w`` sends a state to a pair ``(s1, t)``; ``T(h)`` replaces ``t`` by
    ``h(t)``, and ``mult`` runs ``t`` from ``s1``.
    """
    base = s * n
    tx = base**s
    outer = s * tx
    th = mu = 0
    for si in range(s):
        s1, t = divmod((w // outer**si) % outer, tx)
        th += (s1 * n + h[t]) * base**si
        mu += ((t // base**s1) % base) * base**si
    return h[th], h[mu]


def algebra_witness(s: int, n: int, h, rng: random.Random, probes: int = 256):
    """A law the table ``h`` breaks, as ``("unit", v)`` or
    ``("associativity", w)``; None when ``h`` is an algebra.

    Probes random points first, then scans the whole domain.
    """
    for v in range(n):
        if h[unit_code(s, n, v)] != v:
            return ("unit", v)
    ttx = (s * t_size(s, n)) ** s
    for _ in range(probes):
        w = rng.randrange(ttx)
        lhs, rhs = assoc_sides(s, n, h, w)
        if lhs != rhs:
            return ("associativity", w)
    for w in range(ttx):
        lhs, rhs = assoc_sides(s, n, h, w)
        if lhs != rhs:
            return ("associativity", w)
    return None


def check_violation(s: int, n: int, h, result) -> str | None:
    """``check_algebra`` on a known non-algebra must return a violation whose
    witness really breaks the law it names."""
    law = getattr(result, "law", None)
    if law is None:
        return f"non-algebra accepted at carrier {n}"
    w = result.witness
    if law == "unit":
        if not (0 <= w < n) or h[unit_code(s, n, w)] == w:
            return f"unit witness {w} does not break the unit law"
        got = (result.lhs, result.rhs)
        if got != (h[unit_code(s, n, w)], w):
            return f"unit witness {w} reports sides {got}"
        return None
    if law == "associativity":
        if not 0 <= w < (s * t_size(s, n)) ** s:
            return f"associativity witness {w} outside TTX"
        lhs, rhs = assoc_sides(s, n, h, w)
        if lhs == rhs:
            return f"associativity witness {w} does not break the law"
        if {result.lhs, result.rhs} != {lhs, rhs}:
            return f"associativity witness {w} reports sides {result.lhs},{result.rhs}"
        return None
    return f"unknown law {law!r}"


def function_space_algebras(s: int, k: int) -> set[tuple[int, ...]]:
    """Every structure table on ``x = k^s`` elements, by transporting the
    function space ``Y^S`` (``|Y| = k``) along every relabeling.

    On ``Y^S`` the structure runs ``t`` at a state to get ``(s1, f)`` and
    returns ``f(s1)`` there.
    """
    n = k**s
    base = s * n
    own = []
    for t in range(base**s):
        code = 0
        for si in range(s):
            s1, f = divmod((t // base**si) % base, n)
            code += ((f // k**s1) % k) * k**si
        own.append(code)
    tables = set()
    for perm in permutations(range(n)):
        inv = [0] * n
        for a, b in enumerate(perm):
            inv[b] = a
        table = []
        for t in range(base**s):
            moved = 0
            for si in range(s):
                s1, v = divmod((t // base**si) % base, n)
                moved += (s1 * n + perm[v]) * base**si
            table.append(inv[own[moved]])
        tables.add(tuple(table))
    return tables


def check_algebra_lines(stdout: str, s: int, x: int, known) -> str | None:
    """``algebras --format json`` must print ``x!/k!`` distinct, sorted
    records whose tables keep the unit law; ``known``, when given, is the
    exact set of tables."""
    lines = stdout.splitlines()
    expected = algebra_count(s, x)
    if len(lines) != expected:
        return f"algebras ({s},{x}): {len(lines)} structures, expected {expected}"
    tables = []
    for line in lines:
        rec = json.loads(line)
        h = rec.get("h")
        if rec.get("s_size") != s or rec.get("x_size") != x or h is None:
            return f"algebras ({s},{x}): malformed record"
        if len(h) != t_size(s, x) or any(h[unit_code(s, x, v)] != v for v in range(x)):
            return f"algebras ({s},{x}): record breaks the unit law"
        tables.append(tuple(h))
    if tables != sorted(set(tables)):
        return f"algebras ({s},{x}): records not distinct and sorted"
    if known is not None and set(tables) != known:
        return f"algebras ({s},{x}): tables differ from the function-space relabelings"
    return None


def check_verify_report(report: dict, s: int, max_x: int) -> str | None:
    """``verify`` must pass, with every carrier count from the theorem and no
    failed or guarded check."""
    if report.get("passed") is not True:
        return f"verify ({s},{max_x}) did not pass"
    carriers = report.get("carriers", {})
    for x in range(max_x + 1):
        info = carriers.get(str(x))
        if info is None or info.get("guarded"):
            return f"verify ({s},{max_x}) carrier {x} missing or guarded"
        if info.get("count") != algebra_count(s, x):
            return (
                f"verify ({s},{max_x}) carrier {x}: {info.get('count')} "
                f"algebras, expected {algebra_count(s, x)}"
            )
    for name, tally in report.get("checks", {}).items():
        if tally.get("failed") != 0 or tally.get("checked", 0) <= 0:
            return f"verify ({s},{max_x}) check {name}: {tally}"
    return None


# ---------------------------------------------------------------------------
# terms: a state-passing interpreter with no recursion
#
# Terms are tuples: ("x", i), ("u", state, body), ("l", branches).


def run_term(term, state: int) -> tuple[int, int]:
    """Run a term from a start state to its final ``(state, variable)``."""
    node = term
    while node[0] != "x":
        if node[0] == "u":
            state, node = node[1], node[2]
        else:
            node = node[1][state]
    return (state, node[1])


def meaning(term, s: int) -> tuple[tuple[int, int], ...]:
    """The element of ``T(V)`` a term denotes, as one pair per start state."""
    return tuple(run_term(term, st) for st in range(s))


def term_size(term) -> int:
    size = 0
    stack = [term]
    while stack:
        node = stack.pop()
        size += 1
        if node[0] == "u":
            stack.append(node[2])
        elif node[0] == "l":
            stack.extend(node[1])
    return size


def same_term(a, b) -> bool:
    """Structural equality that does not recurse, so deep terms compare."""
    stack = [(a, b)]
    while stack:
        p, q = stack.pop()
        if p is q:
            continue
        if p[0] != q[0] or (p[0] != "l" and p[1] != q[1]):
            return False
        if p[0] == "u":
            stack.append((p[2], q[2]))
        elif p[0] == "l":
            if len(p[1]) != len(q[1]):
                return False
            stack.extend(zip(p[1], q[1]))
    return True


def term_text(term) -> str:
    """Concrete syntax ``x0``, ``u1(t)``, ``l(t0,t1)``, built without recursion."""
    out = []
    stack = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif node[0] == "x":
            out.append(f"x{node[1]}")
        elif node[0] == "u":
            out.append(f"u{node[1]}(")
            stack.extend((")", node[2]))
        else:
            out.append("l(")
            stack.append(")")
            for i in range(len(node[1]) - 1, -1, -1):
                stack.append(node[1][i])
                if i:
                    stack.append(",")
    return "".join(out)


def from_library(term, lib) -> tuple:
    """Read a ``monadlab`` term back into tuples, without recursion."""
    Var, Update = lib.Var, lib.Update
    done: dict[int, tuple] = {}
    stack = [(term, False)]
    while stack:
        node, ready = stack.pop()
        if isinstance(node, Var):
            done[id(node)] = ("x", node.index)
        elif not ready:
            stack.append((node, True))
            children = (node.body,) if isinstance(node, Update) else node.branches
            stack.extend((c, False) for c in children)
        elif isinstance(node, Update):
            done[id(node)] = ("u", node.state, done[id(node.body)])
        else:
            done[id(node)] = ("l", tuple(done[id(b)] for b in node.branches))
    return done[id(term)]


def to_library(term, lib):
    """Build the ``monadlab`` term for a tuple term, without recursion."""
    done: dict[int, object] = {}
    stack = [(term, False)]
    while stack:
        node, ready = stack.pop()
        if node[0] == "x":
            done[id(node)] = lib.Var(node[1])
        elif not ready:
            stack.append((node, True))
            children = (node[2],) if node[0] == "u" else node[1]
            stack.extend((c, False) for c in children)
        elif node[0] == "u":
            done[id(node)] = lib.Update(node[1], done[id(node[2])])
        else:
            done[id(node)] = lib.Lookup(tuple(done[id(b)] for b in node[1]))
    return done[id(term)]


def check_normal_form(original, normal, s: int) -> str | None:
    """A normal form must denote what the original term denotes."""
    if meaning(normal, s) != meaning(original, s):
        return "normal form changes the denotation"
    return None


def check_equal(verdict, a, b, s: int) -> str | None:
    expected = meaning(a, s) == meaning(b, s)
    if verdict is not expected:
        return f"terms_equal said {verdict}, denotations say {expected}"
    return None


def check_free_classes(result, s: int, nvars: int) -> str | None:
    expected = free_class_count(s, nvars)
    if result.count != expected:
        return f"free_classes ({s},{nvars}): {result.count} classes, expected {expected}"
    return None


# ---------------------------------------------------------------------------
# repeatability


def check_repeat(what: str, values: list) -> str | None:
    """Outputs of one op, or coverage counters, must repeat exactly."""
    if any(v != values[0] for v in values[1:]):
        return f"{what} drifted between repeats of the same input"
    return None


# ---------------------------------------------------------------------------
# negative controls


def negative_controls() -> dict[str, str | None]:
    """Feed every check a known-wrong answer; each must return a reason.

    Returns control name -> the reason the check gave (None when the check
    wrongly accepted the answer).
    """
    out: dict[str, str | None] = {}
    twelve = sorted(function_space_algebras(2, 2))
    lines = "\n".join(
        json.dumps({"h": list(t), "s_size": 2, "x_size": 4}) for t in twelve
    )
    out["algebra_count_11"] = check_algebra_lines(
        "\n".join(lines.splitlines()[:11]), 2, 4, set(twelve)
    )
    out["algebra_count_nonzero_at_5"] = check_algebra_lines(lines.splitlines()[0], 2, 5, None)
    mutant = list(twelve[0])
    cell = next(t for t in range(64) if t not in {unit_code(2, 4, v) for v in range(4)})
    mutant[cell] = (mutant[cell] + 1) % 4
    out["mutant_accepted"] = check_violation(2, 4, mutant, SimpleNamespace(checked="full"))
    out["mutant_bogus_witness"] = check_violation(
        2, 4, twelve[0], SimpleNamespace(law="associativity", witness=0, lhs=0, rhs=1)
    )
    report = {
        "passed": True,
        "carriers": {str(x): {"count": algebra_count(2, x), "guarded": None} for x in range(5)},
        "checks": {"base_recovery": {"checked": 5, "failed": 0}},
    }
    report["carriers"]["4"]["count"] = 11
    out["verify_count_11"] = check_verify_report(report, 2, 4)
    term = ("l", (("x", 0), ("u", 0, ("x", 1))))
    corrupted = ("l", (("x", 1), ("u", 0, ("x", 0))))
    out["normal_form_corrupted"] = check_normal_form(term, corrupted, 2)
    out["equal_wrong_verdict"] = check_equal(True, term, corrupted, 2)
    out["free_classes_wrong"] = check_free_classes(SimpleNamespace(count=5), 2, 1)
    out["law_mode_weaker"] = check_law(
        "associativity", SimpleNamespace(ok=True, mode="sampled", checked=20000), 2, 2, "full"
    )
    out["law_points_short"] = check_law(
        "associativity", SimpleNamespace(ok=True, mode="full", checked=4194303), 2, 2, "full"
    )
    out["curry_table_wrong"] = check_curry((0, 1, 1, 0), (1, 2), 2, 2, 2)
    out["stdout_digest_drift"] = check_repeat("stdout", ["ab12", "ab12", "cd34"])
    out["counter_drift"] = check_repeat("counters", [{"points": 7}, {"points": 6}])
    return out
