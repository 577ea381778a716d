"""Algebras for the state monad: law checking, morphisms, and classification.

An algebra is a carrier X with a structure map ``h: TX -> X`` satisfying the
unit law (``h`` retracts the unit) and the associativity law (``h . T(h) =
h . mult``).  The classifier enumerates every structure map on a given
carrier by three independent routes:

``brute``
    walk every table ``TX -> X`` and keep the ones passing the laws;
``constrained``
    depth-first search over the update cells ``u_c(v) = h(s -> (c, v))``
    alone: propagate ``u_c . u_d = u_d``, reject update vectors that repeat
    or leave some family without a lookup, fold each survivor into its
    table, prune every branch whose algebras all have a carrier relabeling
    that is smaller on the update cells, and close the algebras found over
    their relabeling orbits (complete: returns exactly the brute-force set
    whenever brute force is feasible);
``transport``
    conjugate the function-space structure along every bijection from the
    carrier to a function space of matching size (an oracle independent of
    any search).

Every table returned passes :func:`check_algebra`, which decides the laws
exactly by the lookup/update presentation of T at every size.  Search work
is bounded by an explicit ceiling; exceeding it raises
:class:`SearchCeilingExceeded`, never a silent truncation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations, product
from operator import mul
from typing import Callable, Sequence

from ._bulk import Side, first_mismatch, side_values, table_mismatch, value_at
from .finset import FinSet, FinSetError, Morphism, evaluation, exp_map, int_entries
from .statemonad import DEFAULT_SEARCH_CEILING, CellLayout, StateMonadCtx, int_text, past_ceiling


class SearchCeilingExceeded(RuntimeError):
    """The configured search ceiling would be exceeded; nothing was computed."""


@dataclass(eq=False)
class TAlgebra:
    """An algebra: carrier X with the updates U and the lookup l that present
    its structure map ``h: TX -> X`` (:func:`_presentation_violation`).

    ``updates[c * |X| + v] = u_c(v)`` and ``lookup[g] = l(g)`` on the codes g
    of ``X^S``.  ``structure`` is h, their fold (:func:`fold_table`), built
    on its first read (printing, JSON, :func:`canonical_structure`, a failure
    witness) and then kept; :func:`check_algebra` seeds it with the table it
    was given.  ``checked`` is ``"presentation"`` once the laws are decided,
    by :func:`check_algebra` or by equations 1 to 3 on U and l, else
    ``"none"``.  It is granted only after construction, so
    ``dataclasses.replace`` carries over neither it nor a built h.
    """

    ctx: StateMonadCtx
    carrier: FinSet
    updates: tuple[int, ...]
    lookup: tuple[int, ...]
    checked: str = "none"

    def __post_init__(self) -> None:
        self.checked = "none"

    @cached_property
    def structure(self) -> Morphism:
        table = fold_table(self.ctx, self.carrier.size, self.updates, self.lookup)
        return Morphism(self.ctx.t_obj(self.carrier), self.carrier, table)

    def __repr__(self) -> str:
        small = self.ctx.t_obj(self.carrier).size <= 32
        return (
            f"TAlgebra(s={self.ctx.state.size}, x={self.carrier.size}, "
            f"h={list(self.structure.table) if small else '...'})"
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
    ctx: StateMonadCtx, carrier: FinSet | int, structure: Morphism
) -> TAlgebra | AlgebraViolation:
    """Validate a structure map, returning the algebra or the first broken law.

    Each stage runs, and builds its table, only once the cheaper ones before
    it pass: the unit law, ``|X|`` steps (the unit codes ``first + v·ones``,
    every digit of ``ones`` 1, are one strided slice of h; its witness is
    the least failing v); equation 1 on the updates U, ``|S|^2·|X|``; the
    lookup l and equations 2 and 3, ``(|S|+1)·|X|^|S|``; the fold, ``|TX|``,
    which compares the fold of U and l with h as it stands, reading each
    cell of h once (``_bulk.table_mismatch``).  The last three decide
    associativity (:func:`_presentation_violation`), at the first failing
    instance, which need not be the least TTX code.  The algebra returned
    carries the U and l read here, and h as its ``structure``.

    Where the cells lie depends only on ``(|S|, |X|)``.  Every stage reads
    it from one :class:`CellLayout` (X and TX, ``ones``, ``first``, the
    update-cell slice, the digit weights, the unit images ``0..|X|-1``),
    which the context builds on its first call for the carrier size and
    keeps, so a search or suite that checks many tables on one carrier
    derives it once.  Only the unit images have |X| entries, and they are
    made once h has passed the size check, so a carrier that no table fits
    allocates nothing of its size.
    """
    carrier = carrier if isinstance(carrier, FinSet) else FinSet(carrier)
    cells = ctx.cell_layout(carrier.size)
    if structure.dom is not cells.tx or structure.cod is not carrier:
        raise FinSetError(
            f"structure map must be {int_text(cells.tx.size)} -> {int_text(carrier.size)}, "
            f"got {structure.dom.size} -> {structure.cod.size}"
        )
    h, xn, ones, first = structure.table, carrier.size, cells.ones, cells.first
    units = h[first:first + ones * xn:ones] if ones else h[:1] * xn  # no states: one code
    if units != cells.ids:
        v = next(v for v, image in enumerate(units) if image != v)
        return AlgebraViolation("unit", v, units[v], v)
    found = _presentation_violation(ctx, cells, h)
    if isinstance(found, AlgebraViolation):
        return found
    alg = TAlgebra(ctx, carrier, *found)
    alg.structure = structure  # seeds the cached fold
    alg.checked = "presentation"
    return alg


def _assoc_sides(ctx: StateMonadCtx, x: FinSet, h) -> tuple[Side, Side]:
    """``h . T(h)`` and ``h . mult`` on TTX, as digit sums read through h:
    the associativity law by definition, which brute force scans."""
    s = ctx.state.size
    weights = ctx.digit_weights(s * x.size)
    return (
        ([ctx.t_digits(h, x.size)] * s, weights, (h,)),
        ([ctx.mult_digits(x)] * s, weights, (h,)),
    )


def _update_violation(xn: int, ups) -> tuple[str, tuple, int, int] | None:
    """The first failing instance of equation 1 of :mod:`equational` for
    updates ``ups[c][a] = u_c(a)`` on xn elements, as ``(equation, instance,
    lhs, rhs)``: ``update_after_update`` at ``(c, d, a)``."""
    s = len(ups)
    for c in range(s):
        for d in range(s):
            for a in range(xn):
                inner = ups[d][a]
                if ups[c][inner] != inner:
                    return ("update_after_update", (c, d, a), ups[c][inner], inner)
    return None


def _lookup_violation(xn: int, ups, look) -> tuple[str, tuple, int, int] | None:
    """As :func:`_update_violation`, for equations 2 and 3 and a lookup on the
    codes of ``X^S``: ``update_after_lookup`` at ``(c, g)``, then
    ``lookup_of_updates`` at ``(a,)``."""
    s = len(ups)
    pows = [xn**i for i in range(s)]
    for c in range(s):
        for g in range(len(look)):
            branch = g // pows[c] % xn
            if ups[c][look[g]] != ups[c][branch]:
                return ("update_after_lookup", (c, g), ups[c][look[g]], ups[c][branch])
    for a in range(xn):
        g = sum(ups[c][a] * pows[c] for c in range(s))
        if look[g] != a:
            return ("lookup_of_updates", (a,), look[g], a)
    return None


def update_codes(ctx: StateMonadCtx, xn: int) -> range:
    """The TX codes of the constant computations ``s -> (c, v)`` on xn
    elements, in c-major order: entry ``c * xn + v`` is the cell where a
    structure map holds ``u_c(v)`` (:class:`CellLayout`)."""
    cut = ctx.cell_layout(xn).update_cells
    return range(cut.start, cut.stop, cut.step)


def read_presentation(ctx: StateMonadCtx, xn: int, h) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The updates and lookup a structure table h on xn elements interprets:
    ``updates[c * xn + v] = u_c(v) = h(s -> (c, v))`` and
    ``lookup[g] = l(g) = h(s -> (s, g_s))`` on the codes g of ``X^S``."""
    cells = ctx.cell_layout(xn)
    return h[cells.update_cells], _read_lookup(ctx, cells, h)


def _read_lookup(ctx: StateMonadCtx, cells: CellLayout, h) -> tuple[int, ...]:
    xn = cells.carrier.size
    graphs = [range(c * xn, (c + 1) * xn) for c in range(ctx.state.size)]
    return tuple(side_values((graphs, cells.weights, (h,))))


def _presentation_violation(ctx, cells: CellLayout, h) -> AlgebraViolation | tuple[tuple, tuple]:
    """Decide the algebra laws for h exactly, without scanning TTX: an
    associativity violation, or h's updates and lookup when h is an algebra.

    Plotkin and Power (FoSSaCS 2002) present ``T = (S x -)^S`` by lookup
    and updates subject to equations 1 to 3 (:func:`_update_violation`,
    :func:`_lookup_violation`).  The fourth equation of :mod:`equational`,
    ``l(l(a_00,..),..) = l(a_00,a_11,..)``, follows from 2 and 3.  By
    equation 3 an element is fixed by its updates: if ``u_s(x) = u_s(y)``
    for every state s, then ``x = l(u_0(x),...,u_n(x)) = l(u_0(y),...,u_n(y))
    = y``.  By equation 2, applied twice on the left and once on the right,
    both sides of equation 4 go to ``u_s(a_ss)`` under every ``u_s``.  So the
    T-algebras are exactly the models ``(X, l, U)`` of equations 1 to 3, each
    with its fold (:func:`fold_table`) as structure map.  Hence h is an
    algebra iff the U and l read off it (:func:`read_presentation`) satisfy
    equations 1 to 3 and h is their fold: if h is an algebra, each equation
    instance and each point of the fold is its associativity law at one TTX
    code, codes 1 to 4 of :class:`_ConstrainedSearch`; conversely, a model's
    fold is an algebra, unit law included (equation 3 is the fold at the
    unit).  A failure is reported at that TTX code, where ``h . T(h)`` gives
    the left-hand side and ``h . mult`` the right-hand side, given the unit
    law that :func:`check_algebra` checks first.
    """
    s, xn, ones, weights = ctx.state.size, cells.carrier.size, cells.ones, cells.weights
    updates = h[cells.update_cells]
    ups = [updates[c * xn:(c + 1) * xn] for c in range(s)]
    found = _update_violation(xn, ups)
    if found is None:  # l is built only once equation 1 holds
        look = _read_lookup(ctx, cells, h)
        found = _lookup_violation(xn, ups, look)
    if found is None:
        fold = fold_side(ctx, xn, updates, look)
        w = table_mismatch(h, fold)
        if w is None:
            return updates, look
        lhs, rhs = value_at(fold, w), h[w]
        inner = [(c, w // weight % (s * xn) * ones) for c, weight in enumerate(weights)]
    else:
        equation, instance, lhs, rhs = found
        if equation == "update_after_update":
            inner = [(instance[0], (instance[1] * xn + instance[2]) * ones)] * s
        elif equation == "update_after_lookup":
            inner = [(instance[0], ctx.graph_at(cells.carrier, instance[1]))] * s
        else:
            inner = [(c, (c * xn + instance[0]) * ones) for c in range(s)]
    m = len(h)
    witness = sum((c * m + t) * wt for (c, t), wt in zip(inner, cells.ttx_weights))
    return AlgebraViolation("associativity", witness, lhs, rhs)


def morphism_witness(u: Morphism, source: TAlgebra, target: TAlgebra) -> int | None:
    """The TX code of the first update cell where ``u . h != h' . T(u)``, or
    None when u is an algebra morphism.

    Source and target must be algebras (:func:`check_algebra`): on other
    tables the test below can pass a map that breaks the square.  Each
    algebra is the fold of its updates U and lookup l
    (:func:`_presentation_violation`), so u is a morphism iff it preserves
    both.  Update preservation, ``u . u_c = u'_c . u`` for every state c,
    is the square at the constant computations ``s -> (c, v)``, and lookup
    preservation follows from it.  For g in ``X^S``, equation 2 in the
    source and then in the target gives

        ``u'_c(u(l(g))) = u(u_c(l(g))) = u(u_c(g_c)) = u'_c(u(g_c))
        = u'_c(l'(u . g))``

    for every c, and by equation 3 an element of the target is fixed by its
    update vector ``(u'_c(a))_c``, so ``u(l(g)) = l'(u . g)``.  Then at
    every ``w = s -> (c_s, v_s)``, ``u(h(w)) = u(l(s -> u_{c_s}(v_s))) =
    l'(s -> u'_{c_s}(u(v_s))) = h'(T(u)(w))``.  So the square costs
    ``|S|·|X|`` comparisons instead of ``|TX|``.  The cells are taken in
    c-major order; the witness is the code of ``s -> (c, v)`` at the first
    failing cell, where the square fails, but it need not be the least
    failing TX code.
    """
    ctx = source.ctx
    s = ctx.state.size
    xn, x2n = source.carrier.size, target.carrier.size
    # FinSets are equal iff their sizes are: sizes are compared directly
    if s != target.ctx.state.size:
        raise FinSetError("algebra morphism requires a common state object")
    if u.dom.size != xn or u.cod.size != x2n:
        raise FinSetError(f"map must be {xn} -> {x2n}, got {u.dom.size} -> {u.cod.size}")
    ut, ups2 = u.table, target.updates
    for j, a in enumerate(source.updates):
        if ut[a] != ups2[j // xn * x2n + ut[j % xn]]:
            return j * ctx.cell_layout(xn).ones
    return None


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
    # (|S|*|X|)**|S| is compared first
    s, base = ctx.state.size, ctx.state.size * carrier.size
    if past_ceiling(base, s, ceiling):
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
    algebras = []
    for table in sorted(tables):
        result = check_algebra(ctx, carrier, Morphism(tx, carrier, table))
        if isinstance(result, AlgebraViolation):
            raise AssertionError(f"enumeration produced a non-algebra: {result}")
        algebras.append(result)
    return algebras


def _enumerate_brute(ctx, x: FinSet, ceiling) -> list[tuple[int, ...]]:
    xn = x.size
    m = ctx.t_obj(x).size
    if past_ceiling(xn, m, ceiling):
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


def fold_side(
    ctx: StateMonadCtx, xn: int, updates: Sequence[int], lookup: Sequence[int]
) -> Side:
    """The fold of a lookup/update pair on xn elements, as a side over the TX
    codes (:mod:`._bulk`): :func:`_bulk.value_at` reads h at one code, and
    :func:`fold_table` tabulates it.

    ``updates[c * xn + v]`` is ``u_c(v)`` and ``lookup`` is indexed by the
    codes of ``X^S``.  A computation ``s -> (c_s, v_s)`` folds to
    ``l(s -> u_{c_s}(v_s))``; its digit ``c_s * xn + v_s`` indexes
    ``updates`` directly.
    """
    return [updates] * ctx.state.size, ctx.digit_weights(xn), (lookup,)


def fold_table(
    ctx: StateMonadCtx, xn: int, updates: Sequence[int], lookup: Sequence[int]
) -> list[int]:
    """The structure table ``TX -> X`` of a lookup/update pair on xn elements
    (:func:`fold_side`)."""
    return side_values(fold_side(ctx, xn, updates, lookup))


class _ConstrainedSearch:
    """Depth-first search over the update cells, folding each survivor.

    An algebra h on X has updates ``u_c(v) = h(s -> (c, v))`` and a lookup
    ``l(g) = h(s -> (s, g_s))``, the operations that
    :func:`read_presentation` reads off it.  On each TTX code
    below, ``h . T(h)`` gives the left-hand side and ``h . mult`` the
    right-hand side, so the associativity law makes them equal:

    1. ``s -> (c, (s' -> (d, a)))`` flattens to ``s -> (d, a)``:
       ``u_c(u_d(a)) = u_d(a)``;
    2. ``s -> (c, (s' -> (s', g_s')))`` flattens to ``s -> (c, g_c)``:
       ``u_c(l(g)) = u_c(g_c)``;
    3. ``s -> (s, (s' -> (s, a)))`` flattens to the unit at a, which h
       sends to a by the unit law: ``l(s -> u_s(a)) = a``;
    4. ``s -> (s, (s' -> (c_s, v_s)))`` flattens to ``w = s -> (c_s, v_s)``:
       ``h(w) = l(s -> u_{c_s}(v_s))``, so h is the fold of (l, U).

    So the update cells U of every algebra pass three tests, and they are
    all this search makes:

    - equation 1, propagated as plain assignments: ``u_d(a) = b`` forces
      ``u_c(b) = b`` for every c;
    - by equation 3, ``a -> (u_c(a))_c`` is injective; this is tested as
      soon as two update vectors are known;
    - by equation 2, ``l(g)`` is an a with ``u_s(a) = u_s(g_s)`` for every
      s, and by injectivity the only one.

    Each leaf builds l by the last test, rejecting U when some g has no
    such a, and folds h.  :func:`enumerate_algebras` validates every table
    it returns with :func:`check_algebra`.

    Relabeling the carrier by a permutation p sends a structure map h to
    ``p . h . T(p^-1)``, which is again an algebra (transport of structure:
    unit and multiplication are natural).  On U it acts by conjugation
    ``u_c -> p . u_c . p^-1``.  Take U in c-major order.  A node is pruned
    when, for some transposition t, the first position where ``U`` and
    ``t.U`` are both known and differ has ``t.U < U``, comparing only up to
    the first unknown value.  Values are never changed below a node, so
    every algebra under a pruned node has a relabeling with a lex-smaller U.
    The algebras whose U is lex-least in their orbit are never pruned, since
    no relabeling makes their U smaller.  So the search meets every orbit,
    and closing what it finds under the adjacent transpositions, which
    generate all relabelings, returns every algebra.  Nothing here assumes
    which carriers admit algebras, and no step enumerates the ``|X|!``
    permutations.

    Work counts each value tried, each cell forced, each position the
    relabeling test compares, each entry of the transposition tables, each
    lookup entry, and ``|TX|`` for each folded leaf and for each table the
    orbit closure builds.  The ceiling bounds their sum, so it bounds the
    time and memory of the search with no count checked in advance.
    """

    def __init__(self, ctx: StateMonadCtx, x: FinSet, ceiling: int):
        self.ctx = ctx
        self.ceiling = ceiling
        self.s = s = ctx.state.size
        self.xn = xn = x.size
        self.m = ctx.t_obj(x).size
        self.work = 0
        self.solutions: list[tuple[int, ...]] = []
        # U[c * xn + v] = u_c(v), None while unknown; assigned lists the
        # cells set, for rollback, and owner maps each complete update vector
        # to its element
        self.u: list[int | None] = [None] * (s * xn)
        self.assigned: list[int] = []
        self.owner: dict[tuple, int] = {}
        # for each transposition t of the carrier, where ``(t.U)[j]`` reads
        # U: ``(t.U)[(c, v)] = t(U[(c, t(v))])``
        self._charge(xn * (xn - 1) // 2 * (s + 1) * xn)
        self.transpositions = []
        for a, b in combinations(range(xn), 2):
            swap = list(range(xn))
            swap[a], swap[b] = b, a
            source = [c * xn + swap[v] for c in range(s) for v in range(xn)]
            self.transpositions.append((swap, source))

    def _charge(self, units: int) -> None:
        self.work += units
        if self.work > self.ceiling:
            raise SearchCeilingExceeded(
                f"constrained search exceeded {self.ceiling} "
                f"assignment/relabeling/lookup/fold steps"
            )

    def run(self) -> list[tuple[int, ...]]:
        if self.xn == 0:
            return [()] if self.m == 0 else []
        self._dfs()
        return _orbit_closure(self.ctx, self.xn, self.solutions, self._charge)

    def _set(self, j: int, b: int) -> bool:
        """Value cell j as b and force equation 1, ``u_c(b) = b`` for every c.

        False on a conflict, or when a completed update vector is another
        element's: injectivity is tested as soon as both vectors are known.
        """
        u, assigned, xn = self.u, self.assigned, self.xn
        u[j] = b
        assigned.append(j)
        for k in range(b, len(u), xn):
            if u[k] is None:
                self._charge(1)
                u[k] = b
                assigned.append(k)
            elif u[k] != b:
                return False
        # only the vectors of j's element and of b can have been completed
        for a in (j % xn, b):
            vector = tuple(u[a::xn])
            if None not in vector and self.owner.setdefault(vector, a) != a:
                return False
        return True

    def _unset(self, mark: int) -> None:
        """Roll back every cell set since ``len(assigned)`` was ``mark``."""
        u, owner, xn = self.u, self.owner, self.xn
        for k in self.assigned[mark:]:
            vector = tuple(u[k % xn::xn])
            if owner.get(vector) == k % xn:
                del owner[vector]
            u[k] = None
        del self.assigned[mark:]

    def _relabeling_smaller(self) -> bool:
        """Whether some transposition makes the known prefix of U smaller."""
        u, compared = self.u, 0
        for swap, source in self.transpositions:
            for j, have in enumerate(u):
                moved = u[source[j]]
                if have is None or moved is None:
                    break
                moved = swap[moved]
                if moved != have:
                    if moved < have:
                        self._charge(compared + j + 1)
                        return True
                    break
            compared += j + 1
        self._charge(compared)
        return False

    def _dfs(self) -> None:
        if self._relabeling_smaller():
            return
        u = self.u
        if None not in u:
            self._leaf()
            return
        j = u.index(None)
        for b in range(self.xn):
            self._charge(1)
            mark = len(self.assigned)
            if self._set(j, b):
                self._dfs()
            self._unset(mark)

    def _leaf(self) -> None:
        """Build l from a complete U, or reject U, and keep the fold."""
        s, xn, u = self.s, self.xn, self.u
        weights = self.ctx.digit_weights(xn)
        # each element's update vector, as a code in X^S (no two are equal)
        vectors = {sum(map(mul, u[a::xn], weights)): a for a in range(xn)}
        self._charge(xn**s)
        columns = [u[c * xn:(c + 1) * xn] for c in range(s)]
        lookup = [vectors.get(g) for g in side_values((columns, weights, ()))]
        if None in lookup:
            return
        self._charge(self.m)
        self.solutions.append(tuple(fold_table(self.ctx, xn, u, lookup)))


def _orbit_closure(ctx, xn: int, tables, charge: Callable[[int], None]) -> list:
    """Close the tables under ``h -> t . h . T(t)`` for the adjacent
    transpositions t of the carrier, which generate every relabeling;
    ``charge(|TX|)`` is called before each table is built."""
    found = set(tables)
    if not found:
        return []
    s = ctx.state.size
    m = ctx.t_obj(xn).size
    moves = []
    for i in range(xn - 1):
        swap = list(range(xn))
        swap[i], swap[i + 1] = i + 1, i
        charge(m)
        t_swap = side_values(([ctx.t_digits(swap, xn)] * s, ctx.digit_weights(s * xn), ()))
        moves.append((swap, t_swap))
    frontier = list(found)
    while frontier:
        h = frontier.pop()
        for swap, t_swap in moves:
            charge(m)
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


def canonical_structure(alg: TAlgebra) -> tuple[int, ...]:
    """Least structure table over all relabelings of the carrier: the least
    table of its orbit closure, whose ``|orbit| · |X| · |TX|`` steps are
    charged against ``DEFAULT_SEARCH_CEILING``."""
    work = 0

    def charge(units: int) -> None:
        nonlocal work
        work += units
        if work > DEFAULT_SEARCH_CEILING:
            raise SearchCeilingExceeded(
                f"canonical form exceeded {DEFAULT_SEARCH_CEILING} relabeling steps"
            )

    return min(_orbit_closure(alg.ctx, alg.carrier.size, [alg.structure.table], charge))


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
    h = int_entries(h, "h")
    # |TX| = (|S|*|X|)**|S| is compared with len(h) before TX is built
    if past_ceiling(s_size * x_size, s_size, len(h)):
        raise FinSetError(
            f"h has {len(h)} entries, fewer than |TX| = {s_size * x_size}**{s_size}"
        )
    structure = Morphism(ctx.t_obj(carrier), carrier, h)
    result = check_algebra(ctx, carrier, structure)
    if isinstance(result, AlgebraViolation):
        raise FinSetError(f"record does not satisfy the algebra laws: {result}")
    return result


def algebra_dumps(alg: TAlgebra) -> str:
    return json.dumps(algebra_to_dict(alg), sort_keys=True, separators=(",", ":"))
