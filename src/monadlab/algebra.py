"""Algebras for the state monad: law checking, morphisms, and classification.

An algebra is a carrier X with a structure map ``h: TX -> X`` satisfying the
unit law (``h`` retracts the unit) and the associativity law (``h . T(h) =
h . mult``).  The classifier enumerates every structure map on a given
carrier by three independent routes:

``brute``
    walk every table ``TX -> X`` and keep the ones passing the laws;
``constrained``
    fix the table on the unit image, then depth-first search with eager
    propagation of associativity instances, pruning every branch whose
    algebras all have a carrier relabeling that is smaller on the update
    cells, and close the algebras found over their relabeling orbits
    (complete: returns exactly the brute-force set whenever brute force is
    feasible);
``transport``
    conjugate the function-space structure along every bijection from the
    carrier to a function space of matching size (an oracle independent of
    any search).

Search work is bounded by an explicit ceiling; exceeding it raises
:class:`SearchCeilingExceeded`, never a silent truncation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import factorial

from ._bulk import Side, first_mismatch, value_at
from .finset import FinSet, FinSetError, Morphism, evaluation, exp_map
from .statemonad import StateMonadCtx

DEFAULT_SEARCH_CEILING = 10**7

#: Associativity domains up to this size are checked exhaustively.
DEFAULT_ASSOC_LIMIT = 20_000_000


class SearchCeilingExceeded(RuntimeError):
    """The configured search ceiling would be exceeded; nothing was computed."""


@dataclass(eq=False)
class TAlgebra:
    """A validated algebra: carrier X plus structure map ``TX -> X``.

    ``checked`` records how associativity was verified: ``"full"`` for an
    exhaustive scan, ``"sampled"`` when the instance space was too large and
    a seeded sample was used instead.
    """

    ctx: StateMonadCtx
    carrier: FinSet
    structure: Morphism
    checked: str = "full"

    def key(self) -> tuple:
        return (self.ctx.state.size, self.carrier.size, self.structure.table)

    def __repr__(self) -> str:
        return (
            f"TAlgebra(s={self.ctx.state.size}, x={self.carrier.size}, "
            f"h={list(self.structure.table) if len(self.structure.table) <= 32 else '...'})"
        )


@dataclass(frozen=True)
class AlgebraViolation:
    """A failed algebra law, with a witness element.

    For the unit law the witness is a carrier element; for associativity it
    is a code in TTX where the two evaluation orders disagree.
    """

    law: str
    witness: int
    lhs: int
    rhs: int

    def __str__(self) -> str:
        return f"{self.law} law fails at {self.witness}: {self.lhs} != {self.rhs}"


@dataclass(eq=False)
class AlgebraMorphism:
    source: TAlgebra
    target: TAlgebra
    map: Morphism


def check_algebra(
    ctx: StateMonadCtx,
    carrier: FinSet | int,
    structure: Morphism,
    *,
    assoc_limit: int = DEFAULT_ASSOC_LIMIT,
    samples: int = 4096,
    seed: int = 0,
) -> TAlgebra | AlgebraViolation:
    """Validate a structure map, returning the algebra or the first broken law.

    The unit law is always checked exhaustively.  Associativity is checked
    exhaustively while the instance space TTX fits under ``assoc_limit`` and
    on a seeded random sample beyond that (recorded on the result).
    """
    carrier = carrier if isinstance(carrier, FinSet) else FinSet(carrier)
    tx = ctx.t_obj(carrier)
    if structure.dom != tx or structure.cod != carrier:
        raise FinSetError(
            f"structure map must be {tx.size} -> {carrier.size}, "
            f"got {structure.dom.size} -> {structure.cod.size}"
        )
    h = structure.table
    for v in range(carrier.size):
        image = h[ctx.unit_at(carrier, v)]
        if image != v:
            return AlgebraViolation("unit", v, image, v)

    s = ctx.state.size
    ttx_size = (s * tx.size) ** s if s else 1
    left, right = _assoc_sides(ctx, carrier, h)
    if ttx_size <= assoc_limit:
        w = first_mismatch(left, right)
        checked = "full"
    else:
        rng = random.Random(seed)
        points = (rng.randrange(ttx_size) for _ in range(samples))
        w = first_mismatch(left, right, points)
        checked = "sampled"
    if w is not None:
        return AlgebraViolation(
            "associativity", w, value_at(left, w), value_at(right, w)
        )
    return TAlgebra(ctx, carrier, structure, checked=checked)


def _assoc_sides(ctx: StateMonadCtx, x: FinSet, h) -> tuple[Side, Side]:
    """``h . T(h)`` and ``h . mult`` on TTX, as digit sums read through h."""
    s = ctx.state.size
    weights = ctx.digit_weights(s * x.size)
    return (
        ([ctx.t_digits(h, x.size)] * s, weights, (h,)),
        ([ctx.mult_digits(x)] * s, weights, (h,)),
    )


def morphism_witness(u: Morphism, source: TAlgebra, target: TAlgebra) -> int | None:
    """First TX code where ``u . h != h' . T(u)``, or None when none exists."""
    ctx = source.ctx
    s = ctx.state.size
    xn, x2n = source.carrier.size, target.carrier.size
    # FinSets are equal iff their sizes are: sizes are compared directly,
    # since verification calls this once per map of a hom-set
    if s != target.ctx.state.size:
        raise FinSetError("algebra morphism requires a common state object")
    if u.dom.size != xn or u.cod.size != x2n:
        raise FinSetError(f"map must be {xn} -> {x2n}, got {u.dom.size} -> {u.cod.size}")
    radix = s * xn
    return first_mismatch(
        (
            [range(radix)] * s,
            ctx.digit_weights(radix),
            (source.structure.table, u.table),
        ),
        (
            [ctx.t_digits(u.table, x2n)] * s,
            ctx.digit_weights(s * x2n),
            (target.structure.table,),
        ),
    )


def check_morphism(u: Morphism, source: TAlgebra, target: TAlgebra) -> bool:
    return morphism_witness(u, source, target) is None


def algebra_morphism(u: Morphism, source: TAlgebra, target: TAlgebra) -> AlgebraMorphism:
    w = morphism_witness(u, source, target)
    if w is not None:
        raise FinSetError(f"not an algebra morphism: square fails at TX code {w}")
    return AlgebraMorphism(source, target, u)


def free_algebra(ctx: StateMonadCtx, x: FinSet | int) -> TAlgebra:
    """The free algebra on X: carrier TX with the multiplication as structure."""
    x = x if isinstance(x, FinSet) else FinSet(x)
    result = check_algebra(ctx, ctx.t_obj(x), ctx.mult(x))
    if isinstance(result, AlgebraViolation):
        raise AssertionError(f"free algebra failed validation: {result}")
    return result


# ---------------------------------------------------------------------------
# classification


def enumerate_algebras(
    ctx: StateMonadCtx,
    carrier: FinSet | int,
    method: str = "constrained",
    ceiling: int = DEFAULT_SEARCH_CEILING,
) -> list[TAlgebra]:
    """All algebra structures on the carrier, canonically sorted by table.

    Refuses an empty state object: with no states the monad degenerates and
    the classification below (function spaces over S) is meaningless.
    """
    if ctx.state.size == 0:
        raise FinSetError(
            "classification requires a nonempty state object; "
            "see the empty-state diagnostic for what happens without one"
        )
    if ceiling <= 0:
        raise FinSetError(f"ceiling must be positive, got {ceiling}")
    carrier = carrier if isinstance(carrier, FinSet) else FinSet(carrier)
    # every method builds at least one |TX|-entry table, so |TX| =
    # (|S|*|X|)**|S| is compared first, without the power when surely past
    s, base = ctx.state.size, ctx.state.size * carrier.size
    if base >= 2 and (s >= ceiling.bit_length() or base**s > ceiling):
        raise SearchCeilingExceeded(
            f"|TX| = {base}**{s} entries exceeds the ceiling {ceiling}"
        )
    if method == "brute":
        tables = _enumerate_brute(ctx, carrier, ceiling)
    elif method == "constrained":
        tables = _enumerate_constrained(ctx, carrier, ceiling)
    elif method == "transport":
        tables = _enumerate_transport(ctx, carrier, ceiling)
    else:
        raise FinSetError(f"unknown method {method!r}")
    tx = ctx.t_obj(carrier)
    out = []
    validate = len(tables) * max((ctx.state.size * tx.size) ** ctx.state.size, 1) <= 10**7
    for table in sorted(tables):
        structure = Morphism(tx, carrier, table)
        if validate:
            alg = check_algebra(ctx, carrier, structure)
            if isinstance(alg, AlgebraViolation):
                raise AssertionError(f"enumeration produced a non-algebra: {alg}")
        else:
            alg = TAlgebra(ctx, carrier, structure, checked="search")
        out.append(alg)
    return out


def _enumerate_brute(ctx, x: FinSet, ceiling) -> list[tuple[int, ...]]:
    xn = x.size
    m = ctx.t_obj(x).size
    # xn**m > ceiling, without building the power when it is surely past it
    if xn >= 2 and (m >= ceiling.bit_length() or xn**m > ceiling):
        raise SearchCeilingExceeded(
            f"brute force needs {xn}**{m} candidates, ceiling is {ceiling}"
        )
    if xn == 0:
        return [()] if m == 0 else []
    template: list[int | None] = [None] * m
    for v in range(xn):
        template[ctx.unit_at(x, v)] = v
    free = [t for t in range(m) if template[t] is None]
    found = []
    for combo in product(range(xn), repeat=len(free)):
        h = template[:]
        for t, v in zip(free, combo):
            h[t] = v
        if first_mismatch(*_assoc_sides(ctx, x, h)) is None:
            found.append(tuple(h))
    return found


class _ConstrainedSearch:
    """Backtracking enumeration with eager propagation and symmetry breaking.

    The unit law pins the table on the unit image.  Every associativity
    instance, once its premise cells are valued, reduces to an equality
    between two table cells; these are maintained in a union-find with
    per-class values and a trail for rollback.  Instances are generated
    incrementally as cells become valued, so each is processed exactly once
    per search node.

    Relabeling the carrier by a permutation p sends a structure map h to
    ``p . h . T(p^-1)``, which is again an algebra (transport of structure:
    unit and multiplication are natural).  On the update cells
    ``u_c(v) = h(s -> (c, v))``, which the search values first, it acts by
    conjugation ``u_c -> p . u_c . p^-1``.  Let U be those cells in priority
    order.  A node is pruned when, for some transposition t, the first
    position where ``U`` and ``t.U`` are both known and differ has
    ``t.U < U``, comparing only up to the first unknown value.  Values are
    never changed below a node, so every algebra under a pruned node has a
    relabeling with a lex-smaller U.  The algebras whose U is lex-least in
    their orbit are never pruned, since no relabeling makes their U smaller.
    So the search meets every orbit, and closing what it finds under the
    adjacent transpositions, which generate all relabelings, returns every
    algebra.  Nothing here assumes which carriers admit algebras, and no
    step enumerates the ``|X|!`` permutations.
    """

    def __init__(self, ctx: StateMonadCtx, x: FinSet, ceiling: int):
        self.ctx = ctx
        self.x = x
        self.ceiling = ceiling
        self.s = s = ctx.state.size
        self.xn = xn = x.size
        self.m = m = ctx.t_obj(x).size
        # counted before any table is built, so a huge carrier fails fast
        instance_count = m**s * s**s
        if instance_count > ceiling:
            raise SearchCeilingExceeded(
                f"constrained search needs {instance_count} associativity "
                f"instances, ceiling is {ceiling}"
            )
        pair_sx = s * xn
        self.pows = pows = [pair_sx**i for i in range(s)]
        ccombos = list(product(range(s), repeat=s))
        # an instance at state combination ``combo`` equates the cell whose
        # digit i is ``(combo[i], value of premise i)`` with the cell whose
        # digit i is digit ``combo[i]`` of premise i.  lhs_base holds the
        # first sum's part fixed by ``combo``; rhs_digits[i][t][c] is digit
        # c of cell t weighted for position i
        self.lhs_base = [
            sum(c * xn * p for c, p in zip(combo, pows)) for combo in ccombos
        ]
        self.rhs_digits = [
            [
                tuple((t // pair_sx**c) % pair_sx * p for c in range(s))
                for t in range(m)
            ]
            for p in pows
        ]
        # the update cells U, and for each transposition t of the carrier
        # where ``(t.U)[j]`` reads U: ``(t.U)[(c, v)] = t(U[(c, t(v))])``
        self.update_cells = [
            (c * xn + v) * sum(pows) for c in range(s) for v in range(xn)
        ]
        self.transpositions = []
        for a, b in combinations(range(xn), 2):
            swap = list(range(xn))
            swap[a], swap[b] = b, a
            source = [c * xn + swap[v] for c in range(s) for v in range(xn)]
            self.transpositions.append((swap, source))
        self.parent = list(range(m))
        self.members: list[list[int]] = [[t] for t in range(m)]
        self.value: list[int | None] = [None] * m
        self.valued: list[int] = []
        self.processed = 0
        self.trail: list[tuple] = []
        # work counts value assignments tried, propagation instances
        # processed and |TX| per table the orbit closure builds; the
        # ceiling bounds their sum
        self.work = 0
        self.solutions: list[tuple[int, ...]] = []

    def _charge(self, units: int) -> None:
        self.work += units
        if self.work > self.ceiling:
            raise SearchCeilingExceeded(
                f"constrained search exceeded {self.ceiling} "
                f"assignment/propagation/closure steps"
            )

    # union-find with rollback (no path compression, union by size)

    def _find(self, c: int) -> int:
        parent = self.parent
        while parent[c] != c:
            c = parent[c]
        return c

    def _assign(self, cell: int, v: int) -> bool:
        r = self._find(cell)
        val = self.value[r]
        if val is not None:
            return val == v
        self.trail.append(("val", r, len(self.valued)))
        self.value[r] = v
        self.valued.extend(self.members[r])
        return True

    def _union(self, a: int, b: int) -> bool:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return True
        va, vb = self.value[ra], self.value[rb]
        if va is not None and vb is not None and va != vb:
            return False
        if len(self.members[ra]) < len(self.members[rb]):
            ra, rb = rb, ra
            va, vb = vb, va
        newly = None
        if va is None and vb is not None:
            newly = list(self.members[ra])
        elif vb is None and va is not None:
            newly = list(self.members[rb])
        self.trail.append(
            ("uni", rb, ra, len(self.members[ra]), va, len(self.valued))
        )
        self.parent[rb] = ra
        self.members[ra].extend(self.members[rb])
        if va is None and vb is not None:
            self.value[ra] = vb
        if newly:
            self.valued.extend(newly)
        return True

    def _rollback(self, mark: int) -> None:
        while len(self.trail) > mark:
            entry = self.trail.pop()
            if entry[0] == "val":
                _, r, vlen = entry
                self.value[r] = None
                del self.valued[vlen:]
            else:
                _, rb, ra, mlen, old_value, vlen = entry
                self.parent[rb] = rb
                del self.members[ra][mlen:]
                self.value[ra] = old_value
                del self.valued[vlen:]
        self.processed = len(self.valued)

    # propagation

    def _propagate(self) -> bool:
        s, pows, parent, value = self.s, self.pows, self.parent, self.value
        valued, lhs_base, rhs_digits = self.valued, self.lhs_base, self.rhs_digits
        per_tuple = len(lhs_base)
        while self.processed < len(valued):
            cell = valued[self.processed]
            prev = valued[: self.processed]
            self.processed += 1
            for mask in range(1, 1 << s):
                options = [
                    (cell,) if (mask >> i) & 1 else prev for i in range(s)
                ]
                if not prev and mask != (1 << s) - 1:
                    continue
                for tup in product(*options):
                    self._charge(per_tuple)
                    lhs_values = 0
                    rows = []
                    for i in range(s):
                        r = t = tup[i]
                        while parent[r] != r:
                            r = parent[r]
                        lhs_values += value[r] * pows[i]
                        rows.append(rhs_digits[i][t])
                    for base, rhs in zip(lhs_base, map(sum, product(*rows))):
                        lhs = base + lhs_values
                        while parent[lhs] != lhs:
                            lhs = parent[lhs]
                        while parent[rhs] != rhs:
                            rhs = parent[rhs]
                        # equal roots, or equal values, are already one fact
                        if lhs != rhs:
                            v = value[lhs]
                            if v is None or v != value[rhs]:
                                if not self._union(lhs, rhs):
                                    return False
        return True

    def run(self) -> list[tuple[int, ...]]:
        if self.xn == 0:
            return [()] if self.m == 0 else []
        for v in range(self.xn):
            if not self._assign(self.ctx.unit_at(self.x, v), v):
                return []
        if not self._propagate():
            return []
        order = self._priority_order()
        self._dfs(order)
        return self._orbit_closure(self.solutions)

    def _priority_order(self) -> list[int]:
        first = set(self.update_cells)
        return self.update_cells + [t for t in range(self.m) if t not in first]

    def _relabeling_smaller(self) -> bool:
        """Whether some transposition makes the known prefix of U smaller."""
        value, find = self.value, self._find
        u = [value[find(t)] for t in self.update_cells]
        for swap, source in self.transpositions:
            for j, have in enumerate(u):
                moved = u[source[j]]
                if have is None or moved is None:
                    break
                moved = swap[moved]
                if moved != have:
                    if moved < have:
                        return True
                    break
        return False

    def _dfs(self, order: list[int]) -> None:
        if self._relabeling_smaller():
            return
        cell = next(
            (t for t in order if self.value[self._find(t)] is None), None
        )
        if cell is None:
            h = tuple(self.value[self._find(t)] for t in range(self.m))
            self.solutions.append(h)
            return
        for v in range(self.xn):
            self._charge(1)
            mark = len(self.trail)
            if self._assign(cell, v) and self._propagate():
                self._dfs(order)
            self._rollback(mark)

    def _orbit_closure(self, tables: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """Close the tables under ``h -> t . h . T(t)`` for the adjacent
        transpositions t of the carrier, which generate every relabeling."""
        found = set(tables)
        if not found:
            return []
        ctx, s, xn, m = self.ctx, self.s, self.xn, self.m
        moves = []
        for i in range(xn - 1):
            swap = list(range(xn))
            swap[i], swap[i + 1] = i + 1, i
            digits = ctx.t_digits(swap, xn)
            t_swap = [0]
            for w in ctx.digit_weights(s * xn):
                t_swap = [
                    low + digits[d] * w for d in range(s * xn) for low in t_swap
                ]
            self._charge(m)
            moves.append((swap, t_swap))
        frontier = list(found)
        while frontier:
            h = frontier.pop()
            for swap, t_swap in moves:
                self._charge(m)
                image = tuple([swap[h[t]] for t in t_swap])
                if image not in found:
                    found.add(image)
                    frontier.append(image)
        return list(found)


def _enumerate_constrained(ctx, x: FinSet, ceiling) -> list[tuple[int, ...]]:
    return _ConstrainedSearch(ctx, x, ceiling).run()


def _integer_root(n: int, k: int) -> int | None:
    """The exact k-th root of n, or None when n is not a perfect k-th power.

    Integer Newton iteration from above, so exact for every size of n.
    """
    if n < 2:
        return n
    r = 1 << -(-n.bit_length() // k)
    while True:
        q = ((k - 1) * r + n // r ** (k - 1)) // k
        if q >= r:
            break
        r = q
    return r if r**k == n else None


def _enumerate_transport(ctx, x: FinSet, ceiling) -> list[tuple[int, ...]]:
    s = ctx.state.size
    n = x.size
    k = _integer_root(n, s)
    if k is None:
        return []
    m = ctx.t_obj(x).size
    # the running product of n! stops once it passes the ceiling, so a huge
    # carrier is refused without computing its factorial
    bijections = 1
    for i in range(2, n + 1):
        bijections *= i
        if bijections > ceiling:
            break
    if bijections * max(m, 1) > ceiling:
        raise SearchCeilingExceeded(
            f"transport needs {n}! bijections over {m}-entry tables, "
            f"ceiling is {ceiling}"
        )
    y = FinSet(k)
    eps_s = exp_map(evaluation(y, ctx.state), ctx.state).table
    found = set()
    for perm in permutations(range(n)):
        b = Morphism(x, x, perm)
        tb = ctx.t_map(b).table
        inv = [0] * n
        for i, v in enumerate(perm):
            inv[v] = i
        found.add(tuple(inv[eps_s[tb[t]]] for t in range(m)))
    return sorted(found)


# ---------------------------------------------------------------------------
# isomorphism classes


def canonical_structure(alg: TAlgebra, perm_ceiling: int = 10**5) -> tuple[int, ...]:
    """Least structure table over all relabelings of the carrier."""
    n = alg.carrier.size
    if factorial(n) > perm_ceiling:
        raise SearchCeilingExceeded(
            f"canonical form over {factorial(n)} relabelings exceeds {perm_ceiling}"
        )
    ctx = alg.ctx
    h = alg.structure.table
    best = None
    for perm in permutations(range(n)):
        p = Morphism(alg.carrier, alg.carrier, perm)
        inv = [0] * n
        for i, v in enumerate(perm):
            inv[v] = i
        t_inv = ctx.t_map(Morphism(alg.carrier, alg.carrier, tuple(inv))).table
        cand = tuple(perm[h[t_inv[w]]] for w in range(len(h)))
        if best is None or cand < best:
            best = cand
    assert best is not None
    return best


def iso_classes(algebras: list[TAlgebra]) -> list[list[TAlgebra]]:
    """Group algebras on a common carrier by relabeling equivalence."""
    buckets: dict[tuple, list[TAlgebra]] = {}
    for alg in algebras:
        buckets.setdefault(canonical_structure(alg), []).append(alg)
    return [buckets[k] for k in sorted(buckets)]


# ---------------------------------------------------------------------------
# serialization


def algebra_to_dict(alg: TAlgebra) -> dict:
    return {
        "s_size": alg.ctx.state.size,
        "x_size": alg.carrier.size,
        "h": list(alg.structure.table),
    }


def algebra_from_dict(d: dict) -> TAlgebra:
    try:
        s_size, x_size, h = d["s_size"], d["x_size"], d["h"]
    except (KeyError, TypeError) as exc:
        raise FinSetError(f"malformed algebra record: {d!r}") from exc
    ctx = StateMonadCtx(s_size)
    carrier = FinSet(x_size)
    structure = Morphism(ctx.t_obj(carrier), carrier, tuple(h))
    result = check_algebra(ctx, carrier, structure)
    if isinstance(result, AlgebraViolation):
        raise FinSetError(f"record does not satisfy the algebra laws: {result}")
    return result


def algebra_dumps(alg: TAlgebra) -> str:
    return json.dumps(algebra_to_dict(alg), sort_keys=True, separators=(",", ":"))
