"""Terms over the lookup/update signature and the equational theory of state.

The signature has one lookup symbol ``l`` whose arity is the number of
states (it reads the state and branches) and one unary update symbol ``u_s``
per state ``s`` (it overwrites the state and continues).  The theory is
generated by four equations, oriented left to right as rewrite rules:

1. ``u_s(u_t(x))            ->  u_t(x)``       (a later write wins)
2. ``u_s(l(a_0,...,a_n))    ->  u_s(a_s)``     (reading after a write is known)
3. ``l(u_0(x),...,u_n(x))   ->  x``            (writing back what was read)
4. ``l(l(a_00,..),..)       ->  l(a_00,a_11,..)``  (two reads agree)

Rewriting is a best-effort normalizer; equality of terms is decided
denotationally in the free model, where a term over ``n`` variables denotes
a function from states to (state, variable) pairs.  The module also carries
algebras for this signature in finite sets, the canonical structure on
function spaces ``B^S``, and the translation to and from monad algebras.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from ._bulk import first_mismatch
from .algebra import (
    AlgebraViolation,
    SearchCeilingExceeded,
    TAlgebra,
    check_algebra,
)
from .finset import ExpCodec, FinSet, FinSetError, Morphism, compose
from .statemonad import StateMonadCtx


class TermError(ValueError):
    """A malformed term: syntax error, bad arity, or unbound variable.

    ``position`` is the character offset for parse errors, None otherwise.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class RewriteLimitExceeded(RuntimeError):
    """The rewrite step ceiling was hit; normalization was abandoned."""


class Term:
    """Base class for terms; see :class:`Var`, :class:`Update`, :class:`Lookup`."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise TermError(f"variable index must be non-negative, got {self.index}")


@dataclass(frozen=True)
class Update(Term):
    state: int
    body: Term

    def __post_init__(self) -> None:
        if self.state < 0:
            raise TermError(f"update subscript must be non-negative, got {self.state}")


@dataclass(frozen=True)
class Lookup(Term):
    branches: tuple[Term, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "branches", tuple(self.branches))


def term_size(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    if isinstance(t, Update):
        return 1 + term_size(t.body)
    return 1 + sum(term_size(b) for b in t.branches)  # type: ignore[union-attr]


def max_var(t: Term) -> int:
    """Largest variable index in the term, or -1 when there is none."""
    if isinstance(t, Var):
        return t.index
    if isinstance(t, Update):
        return max_var(t.body)
    return max((max_var(b) for b in t.branches), default=-1)  # type: ignore[union-attr]


# ---------------------------------------------------------------------------
# concrete syntax


def format_term(t: Term) -> str:
    if isinstance(t, Var):
        return f"x{t.index}"
    if isinstance(t, Update):
        return f"u{t.state}({format_term(t.body)})"
    if isinstance(t, Lookup):
        return f"l({','.join(format_term(b) for b in t.branches)})"
    raise TermError(f"not a term: {t!r}")


def parse_term(text: str, s_size: int) -> Term:
    """Parse ``x<k>``, ``u<s>(t)``, and ``l(t0,...,tn)`` with insignificant
    whitespace.  Lookup arity must equal ``s_size`` and update subscripts
    must name existing states; errors carry the offending position."""
    pos = 0
    n = len(text)

    def skip() -> None:
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def expect(ch: str) -> None:
        nonlocal pos
        skip()
        if pos >= n or text[pos] != ch:
            found = text[pos] if pos < n else "end of input"
            raise TermError(f"expected {ch!r}, found {found!r}", pos)
        pos += 1

    def number() -> int:
        nonlocal pos
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise TermError("expected a number", start)
        return int(text[start:pos])

    def term() -> Term:
        nonlocal pos
        skip()
        if pos >= n:
            raise TermError("unexpected end of input", pos)
        c = text[pos]
        if c == "x":
            pos += 1
            return Var(number())
        if c == "u":
            pos += 1
            at = pos
            s = number()
            if s >= s_size:
                raise TermError(f"unknown update subscript {s} with {s_size} states", at)
            expect("(")
            body = term()
            expect(")")
            return Update(s, body)
        if c == "l":
            at = pos
            pos += 1
            expect("(")
            branches = []
            skip()
            if pos < n and text[pos] == ")" and s_size == 0:
                pos += 1
                return Lookup(())
            branches.append(term())
            while True:
                skip()
                if pos < n and text[pos] == ",":
                    pos += 1
                    branches.append(term())
                else:
                    break
            expect(")")
            if len(branches) != s_size:
                raise TermError(
                    f"lookup takes {s_size} branches, got {len(branches)}", at
                )
            return Lookup(tuple(branches))
        raise TermError(f"expected a term, found {c!r}", pos)

    result = term()
    skip()
    if pos != n:
        raise TermError(f"trailing input {text[pos:]!r}", pos)
    return result


# ---------------------------------------------------------------------------
# rewriting


def _root_step(t: Term, s_size: int) -> Term | None:
    """One reduction at the root, first applicable rule in the listed order."""
    if isinstance(t, Update):
        body = t.body
        if isinstance(body, Update):
            return body
        if isinstance(body, Lookup):
            return Update(t.state, body.branches[t.state])
        return None
    if isinstance(t, Lookup) and t.branches:
        br = t.branches
        if all(isinstance(b, Update) and b.state == i for i, b in enumerate(br)):
            first = br[0].body  # type: ignore[union-attr]
            if all(b.body == first for b in br):  # type: ignore[union-attr]
                return first
        if all(isinstance(b, Lookup) for b in br):
            return Lookup(tuple(b.branches[i] for i, b in enumerate(br)))  # type: ignore[union-attr]
    return None


def normalize(t: Term, s_size: int, max_steps: int = 100_000) -> Term:
    """Innermost, leftmost normalization; raises past ``max_steps`` rewrites.

    The four rules strictly decrease a term measure, so the ceiling is a
    safety net rather than an expected outcome.
    """
    steps = 0

    def norm(u: Term) -> Term:
        nonlocal steps
        if isinstance(u, Update):
            u = Update(u.state, norm(u.body))
        elif isinstance(u, Lookup):
            u = Lookup(tuple(norm(b) for b in u.branches))
        while True:
            reduct = _root_step(u, s_size)
            if reduct is None:
                return u
            steps += 1
            if steps > max_steps:
                raise RewriteLimitExceeded(
                    f"gave up after {max_steps} rewrite steps"
                )
            u = reduct

    return norm(t)


# ---------------------------------------------------------------------------
# free-model denotation


def denote(t: Term, ctx: StateMonadCtx, nvars: int) -> int:
    """Interpret the term in the free model on ``nvars`` variables.

    The result is a code in ``T(V)``: a function sending each starting state
    to the final (state, variable) pair.  Variables read and restore the
    state; updates overwrite it; lookup branches on it.
    """
    v = FinSet(nvars)
    s = ctx.state.size
    base = s * nvars
    pows = [base**i for i in range(s)]
    memo: dict[Term, int] = {}

    def den(u: Term) -> int:
        cached = memo.get(u)
        if cached is not None:
            return cached
        if isinstance(u, Var):
            if u.index >= nvars:
                raise TermError(f"unbound variable x{u.index} with nvars={nvars}")
            code = ctx.unit_at(v, u.index)
        elif isinstance(u, Update):
            if u.state >= s:
                raise TermError(f"unknown update subscript {u.state} with {s} states")
            inner = den(u.body)
            value = (inner // pows[u.state]) % base
            code = sum(value * p for p in pows)
        elif isinstance(u, Lookup):
            if len(u.branches) != s:
                raise TermError(
                    f"lookup takes {s} branches, got {len(u.branches)}"
                )
            code = 0
            for i, b in enumerate(u.branches):
                code += ((den(b) // pows[i]) % base) * pows[i]
        else:
            raise TermError(f"not a term: {u!r}")
        memo[u] = code
        return code

    return den(t)


def terms_equal(t1: Term, t2: Term, ctx: StateMonadCtx, nvars: int) -> bool:
    """Denotational equality in the free model; sound and complete for the
    four-equation theory."""
    return denote(t1, ctx, nvars) == denote(t2, ctx, nvars)


def random_term(rng: random.Random, s_size: int, nvars: int, max_depth: int) -> Term:
    """A reproducible random term, for round-trip and soundness tests."""
    if nvars < 1:
        raise TermError("need at least one variable to build terms")
    if max_depth <= 0 or rng.random() < 0.3:
        return Var(rng.randrange(nvars))
    if s_size >= 1 and rng.random() < 0.5:
        return Update(rng.randrange(s_size), random_term(rng, s_size, nvars, max_depth - 1))
    return Lookup(
        tuple(random_term(rng, s_size, nvars, max_depth - 1) for _ in range(s_size))
    )


# ---------------------------------------------------------------------------
# algebras for the signature


@dataclass(eq=False)
class StateAlgebra:
    """A finite-set algebra for the lookup/update signature.

    ``lookup`` has type ``A^S -> A`` and each ``updates[s]`` has type
    ``A -> A``; the four equations are what :func:`state_algebra_violation`
    checks.
    """

    ctx: StateMonadCtx
    carrier: FinSet
    lookup: Morphism
    updates: tuple[Morphism, ...]

    def exp_codec(self) -> ExpCodec:
        return ExpCodec(self.carrier, self.ctx.state)


#: Product bound for the nested-lookup equation check.
DEFAULT_EQ4_LIMIT = 50_000_000


def state_algebra_violation(
    sa: StateAlgebra, eq4_limit: int = DEFAULT_EQ4_LIMIT
) -> tuple[str, tuple] | None:
    """First violated equation with a witness assignment, or None.

    Equations 1 to 3 are checked by direct enumeration of their variable
    assignments.  Equation 4 quantifies over a square matrix of carrier
    elements, which explodes; it is checked exactly by enumerating, per
    state, the reachable (outer value, diagonal value) pairs and scanning
    their product, which covers the same assignments.
    """
    ctx = sa.ctx
    s = ctx.state.size
    a_n = sa.carrier.size
    if len(sa.updates) != s:
        raise FinSetError(f"expected {s} update maps, got {len(sa.updates)}")
    look = sa.lookup.table
    ups = [u.table for u in sa.updates]
    exp = sa.exp_codec()
    if sa.lookup.dom != exp.obj or sa.lookup.cod != sa.carrier:
        raise FinSetError("lookup map has the wrong type")
    for s1 in range(s):
        if sa.updates[s1].dom != sa.carrier or sa.updates[s1].cod != sa.carrier:
            raise FinSetError("update map has the wrong type")

    for s1 in range(s):
        for s2 in range(s):
            for a in range(a_n):
                inner = ups[s2][a]
                if ups[s1][inner] != inner:
                    return ("update_after_update", (s1, s2, a))
    pows = [a_n**i for i in range(s)]
    for s1 in range(s):
        for g in range(exp.obj.size):
            branch = (g // pows[s1]) % a_n if a_n else 0
            if ups[s1][look[g]] != ups[s1][branch]:
                return ("update_after_lookup", (s1, g))
    for a in range(a_n):
        g = sum(ups[s1][a] * pows[s1] for s1 in range(s))
        if look[g] != a:
            return ("lookup_of_updates", (a,))

    # nested lookup: per state, reachable (lookup value, diagonal entry) pairs
    lefts: list[list[int]] = []
    rights: list[list[int]] = []
    total = 1
    for s1 in range(s):
        pairs = set()
        for r in range(exp.obj.size):
            pairs.add((look[r], (r // pows[s1]) % a_n))
        ordered = sorted(pairs)
        lefts.append([p for p, _ in ordered])
        rights.append([q for _, q in ordered])
        total *= len(ordered)
    if total > eq4_limit:
        raise SearchCeilingExceeded(
            f"nested-lookup check needs {total} combinations, limit is {eq4_limit}"
        )
    combo = _nested_lookup_witness(look, lefts, rights, a_n)
    return None if combo is None else ("lookup_of_lookups", (combo,))


def _nested_lookup_witness(look, lefts, rights, a_n: int) -> tuple[int, ...] | None:
    """First index combination, in ``itertools.product`` order, where
    ``look`` differs on the codes of the chosen lefts and of the chosen
    rights (coordinate ``s`` is the digit of weight ``a_n ** s``)."""
    s = len(lefts)
    # coordinate 0 is the most significant digit of the scanned code, so the
    # least failing code is the first failing combination
    pows = [a_n**i for i in reversed(range(s))]
    w = first_mismatch((lefts[::-1], pows, (look,)), (rights[::-1], pows, (look,)))
    if w is None:
        return None
    combo = [0] * s
    for s1 in reversed(range(s)):
        w, combo[s1] = divmod(w, len(lefts[s1]))
    return tuple(combo)


def canonical_algebra(ctx: StateMonadCtx, b: FinSet | int) -> StateAlgebra:
    """The lookup/update structure on the function space ``B^S``.

    Lookup takes a state-indexed family of functions to its diagonal;
    update at ``s`` takes a function to the constant function on its value
    at ``s``.  The four equations are verified at construction.
    """
    b = b if isinstance(b, FinSet) else FinSet(b)
    s = ctx.state.size
    bn = b.size
    carrier = ExpCodec(b, ctx.state).obj
    a_n = carrier.size
    bpows = [bn**i for i in range(s)]
    apows = [a_n**i for i in range(s)]
    ones = sum(bpows) if s else 0

    dom = ExpCodec(carrier, ctx.state).obj
    lookup_table = []
    for g in range(dom.size):
        code = 0
        for s1 in range(s):
            a = (g // apows[s1]) % a_n
            code += ((a // bpows[s1]) % bn) * bpows[s1]
        lookup_table.append(code)
    lookup = Morphism(dom, carrier, tuple(lookup_table))

    updates = []
    for s1 in range(s):
        table = tuple(((a // bpows[s1]) % bn) * ones for a in range(a_n))
        updates.append(Morphism(carrier, carrier, table))

    sa = StateAlgebra(ctx, carrier, lookup, tuple(updates))
    violation = state_algebra_violation(sa)
    if violation is not None:
        raise AssertionError(f"canonical structure failed validation: {violation}")
    return sa


def to_state_algebra(alg: TAlgebra) -> StateAlgebra:
    """Convert a monad algebra to a lookup/update algebra on the same carrier.

    Lookup folds the graph of a function; update at ``s`` folds the
    computation that jumps to state ``s`` and returns the argument.
    """
    ctx = alg.ctx
    x = alg.carrier
    s = ctx.state.size
    xn = x.size
    h = alg.structure.table
    lookup = compose(alg.structure, ctx.graph_map(x))
    pair_sx = s * xn
    ones = sum(pair_sx**i for i in range(s)) if s else 0
    updates = []
    for s1 in range(s):
        table = tuple(h[(s1 * xn + v) * ones] for v in range(xn))
        updates.append(Morphism(x, x, table))
    sa = StateAlgebra(ctx, x, lookup, tuple(updates))
    violation = state_algebra_violation(sa)
    if violation is not None:
        raise AssertionError(f"translated algebra failed validation: {violation}")
    return sa


def to_t_algebra(sa: StateAlgebra) -> TAlgebra:
    """Convert a lookup/update algebra back to a monad algebra.

    A computation ``s -> (state, value)`` is folded by updating each branch
    to its output state and looking the family up.
    """
    ctx = sa.ctx
    a = sa.carrier
    s = ctx.state.size
    a_n = a.size
    ups = [u.table for u in sa.updates]
    look = sa.lookup.table
    tx = ctx.t_obj(a)
    outer = s * a_n
    apows = [a_n**i for i in range(s)]
    table = []
    for w in range(tx.size):
        g = 0
        rest = w
        for s1 in range(s):
            rest, digit = divmod(rest, outer)
            c, v = divmod(digit, a_n)
            g += ups[c][v] * apows[s1]
        table.append(look[g])
    structure = Morphism(tx, a, tuple(table))
    result = check_algebra(ctx, a, structure)
    if isinstance(result, AlgebraViolation):
        raise AssertionError(f"translated structure failed the algebra laws: {result}")
    return result


# ---------------------------------------------------------------------------
# free-model classes


@dataclass
class FreeClasses:
    """Denotation classes of terms up to a construction depth."""

    count: int
    representatives: dict[int, Term]
    saturated: bool


def free_classes(
    ctx: StateMonadCtx,
    nvars: int,
    depth: int,
    combo_limit: int = 10**6,
) -> FreeClasses:
    """Bucket all terms up to the given depth by free-model denotation.

    Works on denotation classes rather than raw terms: the denotation is
    compositional, so closing the class set under the two constructors
    reaches exactly the classes of depth-bounded terms while keeping at most
    ``(|S| * nvars) ** |S|`` buckets alive.  Representatives are minimal by
    term size, then lexicographically.
    """
    if depth < 1:
        raise FinSetError(f"depth must be at least 1, got {depth}")
    s = ctx.state.size
    v = FinSet(nvars)
    base = s * nvars
    pows = [base**i for i in range(s)]

    def key(t: Term) -> tuple[int, str]:
        return (term_size(t), format_term(t))

    reps: dict[int, Term] = {}
    for i in range(nvars):
        code = ctx.unit_at(v, i)
        t = Var(i)
        if code not in reps or key(t) < key(reps[code]):
            reps[code] = t

    saturated = False
    for _ in range(depth):
        if len(reps) ** max(s, 1) > combo_limit:
            raise SearchCeilingExceeded(
                f"lookup closure over {len(reps)} classes exceeds {combo_limit}"
            )
        new: dict[int, Term] = {}

        def offer(code: int, t: Term) -> None:
            best = reps.get(code) or new.get(code)
            if best is None or key(t) < key(best):
                new[code] = t

        items = sorted(reps.items(), key=lambda kv: key(kv[1]))
        for code, t in items:
            for s1 in range(s):
                value = (code // pows[s1]) % base
                offer(sum(value * p for p in pows), Update(s1, t))
        for combo in product(items, repeat=s):
            code = 0
            for i, (c, _) in enumerate(combo):
                code += ((c // pows[i]) % base) * pows[i]
            offer(code, Lookup(tuple(t for _, t in combo)))
        fresh = set(new) - set(reps)
        improved = any(
            code in reps and key(t) < key(reps[code]) for code, t in new.items()
        )
        for code, t in new.items():
            if code not in reps or key(t) < key(reps[code]):
                reps[code] = t
        if not fresh and not improved:
            saturated = True
            break
    return FreeClasses(count=len(reps), representatives=dict(sorted(reps.items())), saturated=saturated)
