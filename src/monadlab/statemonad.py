"""The state monad ``T = (S x -)^S`` over finite sets, for a fixed state object.

A :class:`StateMonadCtx` fixes the state object S and exposes the monad
data (object/arrow action, unit, multiplication) together with the
auxiliary natural maps the rest of the package needs: the graph map
``Z^S -> TZ``, evaluation at a given state ``Z^S -> Z``, and the
constant-function embedding ``Z -> Z^S``.

Tables are built eagerly for objects of manageable size; the ``*_at``
methods evaluate the same maps at a single point without materializing any
table, which is what the unit law and the structural identities use on large
objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import count
from operator import eq, mul
from typing import Sequence

from ._bulk import first_difference, first_mismatch, value_at
from .finset import (
    ExpCodec,
    FinSet,
    FinSetError,
    Morphism,
    ProductCodec,
    _lazy,
    compose,
    curry,
    evaluation,
    exp_map,
    identity,
    pairing,
    product_map,
)

#: Largest domain an exhaustive law scan will walk (chunked).
DEFAULT_SCAN_LIMIT = 300_000_000

#: Default bound on search work (``algebra``, ``monadicity``), and the bound
#: on the ``|S| * |TX|``-entry tables of the monad law checks.
DEFAULT_SEARCH_CEILING = 10**7


def past_ceiling(base: int, exponent: int, ceiling: int) -> bool:
    """Whether ``base ** exponent > ceiling``, without building the power
    when it is surely past: a base of 2 or more to an exponent of at least
    the ceiling's bit length."""
    return base >= 2 and (exponent >= ceiling.bit_length() or base**exponent > ceiling)


def int_text(n: int) -> str:
    """n in decimal, or its bit length once it may have more digits than
    ``str`` converts (640 at the least setting of Python's limit)."""
    return str(n) if n.bit_length() < 2000 else f"<{n.bit_length()}-bit int>"


@dataclass(frozen=True, init=False)
class LawCheck:
    """Outcome of one law check.

    ``mode`` records how the domain was covered, always exactly:
    ``"full"`` is an exhaustive scan, ``"reduced"`` is decided on a provably
    equivalent identity.  ``checked`` is the size of the domain covered.
    ``witness`` is a counterexample point when ``ok`` is false.
    """

    law: str
    mode: str
    checked: int
    ok: bool
    witness: int | None = None

    def __init__(self, law: str, mode: str, checked: int, ok: bool, witness: int | None = None):
        self.__dict__.update(law=law, mode=mode, checked=checked, ok=ok, witness=witness)


@dataclass(frozen=True)
class CellLayout:
    """What the structure tables ``TX -> X`` on one carrier size share:
    the interned X and TX; the digit weights of codes in ``(S x X)^S`` and
    ``(S x TX)^S`` (the last encode TTX witnesses); ``ones``,
    the TX code with every digit 1, whose multiples are the update cells
    ``s -> (c, v)`` in c-major order (0 with no states, where there is
    none), and ``update_cells``, the slice of a table that reads them;
    ``first``, the unit code of 0, so the unit at v is ``first + v·ones``;
    and ``ttx_ones``, the TTX code with every digit 1, whose multiples are
    the TTX codes with all digits equal."""

    carrier: FinSet
    tx: FinSet
    ones: int
    update_cells: slice
    first: int
    weights: tuple[int, ...]
    ttx_weights: tuple[int, ...]
    ttx_ones: int

    @_lazy
    def ids(self) -> tuple[int, ...]:
        """``(0, ..., |X| - 1)``, what an algebra holds at its unit codes.
        Made on first use, which in ``check_algebra`` follows the size
        check, so never for a carrier that no table fits."""
        return tuple(range(self.carrier.size))


class StateMonadCtx:
    """The monad ``TX = (S x X)^S`` with a fixed finite state object S.
    Contexts are value objects: two of equal state size behave alike."""

    def __init__(self, state: FinSet | int):
        self.state = state if isinstance(state, FinSet) else FinSet(state)
        self._cache: dict = {}

    def __repr__(self) -> str:
        return f"StateMonadCtx(state={self.state.size})"

    # -- encodings ---------------------------------------------------------

    def pair_codec(self, x: FinSet | int) -> ProductCodec:
        x = x if isinstance(x, FinSet) else FinSet(x)
        return ProductCodec(self.state, x)

    def pair_obj(self, x: FinSet | int) -> FinSet:
        x = x if isinstance(x, FinSet) else FinSet(x)
        return FinSet(self.state.size * x.size)

    def t_codec(self, x: FinSet | int) -> ExpCodec:
        return ExpCodec(self.pair_obj(x), self.state)

    def t_obj(self, x: FinSet | int) -> FinSet:
        """The carrier of ``TX``, of size ``(|S| * |X|) ** |S|``."""
        key = ("t_obj", x.size if isinstance(x, FinSet) else x)
        if key not in self._cache:
            self._cache[key] = self.t_codec(x).obj
        return self._cache[key]

    # -- functor and monad structure ----------------------------------------

    def t_map(self, f: Morphism) -> Morphism:
        """``T(f) = (S x f)^S``."""
        return exp_map(product_map(identity(self.state), f), self.state)

    def unit(self, x: FinSet | int) -> Morphism:
        """``X -> TX`` sending ``x`` to the state-passing constant ``s -> (s, x)``."""
        x = x if isinstance(x, FinSet) else FinSet(x)
        key = ("unit", x.size)
        if key not in self._cache:
            table = [self.unit_at(x, v) for v in range(x.size)]
            self._cache[key] = Morphism(x, self.t_obj(x), table)
        return self._cache[key]

    def unit_at(self, x: FinSet, v: int) -> int:
        n = x.size
        base = self.state.size * n
        code = 0
        p = 1
        for s in range(self.state.size):
            code += (s * n + v) * p
            p *= base
        return code

    def mult(self, x: FinSet | int) -> Morphism:
        """``TTX -> TX`` as the exponentiated evaluation of ``S x X``."""
        x = x if isinstance(x, FinSet) else FinSet(x)
        key = ("mult", x.size)
        if key not in self._cache:
            ev = evaluation(self.pair_obj(x), self.state)
            self._cache[key] = exp_map(ev, self.state)
        return self._cache[key]

    def mult_pointwise(self, x: FinSet | int) -> Morphism:
        """``TTX -> TX`` by the explicit formula: run the outer computation,
        then the inner one from the state it produced.

        Independent of :meth:`mult`; the two are compared table-for-table as
        a codec cross-check.
        """
        x = x if isinstance(x, FinSet) else FinSet(x)
        ttx = self.t_obj(self.t_obj(x))
        table = tuple(self.mult_at(x, w) for w in range(ttx.size))
        return Morphism(ttx, self.t_obj(x), table)

    def mult_at(self, x: FinSet, w: int) -> int:
        """Evaluate the multiplication at a single ``TTX`` code (bigint safe)."""
        tx = self.t_obj(x).size
        pair_sx = self.state.size * x.size
        outer_base = self.state.size * tx
        code = 0
        p = 1
        for s in range(self.state.size):
            a = w % outer_base
            w //= outer_base
            c, t = divmod(a, tx)
            code += ((t // pair_sx**c) % pair_sx) * p
            p *= pair_sx
        return code

    def mult_digits(self, x: FinSet | int) -> tuple[int, ...]:
        """Per-digit code table of :meth:`mult_at`.

        A ``TTX`` code's digit ``(c, t)`` in ``S x TX`` contributes digit
        ``c`` of ``t``; the multiplication sums these with weights
        ``(|S| * |X|) ** i``.
        """
        x = x if isinstance(x, FinSet) else FinSet(x)
        key = ("mult_digits", x.size)
        if key not in self._cache:
            pair_sx = self.state.size * x.size
            tx = self.t_obj(x).size
            self._cache[key] = tuple(
                (t // pair_sx**c) % pair_sx
                for c in range(self.state.size)
                for t in range(tx)
            )
        return self._cache[key]

    def digit_weights(self, base: int) -> tuple[int, ...]:
        """Weights ``base ** i`` of the |S| digits of a code in ``B^S``,
        for a ``base``-element set B."""
        key = ("weights", base)
        if key not in self._cache:
            self._cache[key] = tuple(base**i for i in range(self.state.size))
        return self._cache[key]

    def cell_layout(self, xn: int) -> CellLayout:
        """The :class:`CellLayout` of xn-element carriers, built once."""
        cells = self._cache.get(key := ("cells", xn))
        if cells is None:
            s, tx = self.state.size, self.t_obj(xn)
            weights, ttx_weights = self.digit_weights(s * xn), self.digit_weights(s * tx.size)
            ones, first = sum(weights), xn * sum(map(mul, range(s), weights))  # s -> (s, 0)
            cells = self._cache[key] = CellLayout(
                FinSet(xn), tx, ones, slice(0, ones * s * xn, ones or 1), first,
                weights, ttx_weights, sum(ttx_weights),
            )
        return cells

    def t_digits(self, table: Sequence[int], cod: int) -> list[int]:
        """Per-digit code table of ``T(f)`` for ``f`` with the given table
        into a ``cod``-element set: the digit ``(c, v)`` goes to ``(c, f(v))``."""
        # list and map, not a comprehension: brute force rebuilds this for
        # every table it checks
        s = self.state.size
        out = list(table) if s else []
        for c in range(1, s):
            out.extend(map((c * cod).__add__, table))
        return out

    # -- auxiliary natural maps ----------------------------------------------

    def graph_map(self, z: FinSet | int) -> Morphism:
        """``Z^S -> TZ`` pairing every state with the function's value there.

        This is the transpose of the pairing of the projection with
        evaluation; pointwise it sends ``g`` to ``s -> (s, g(s))``.
        """
        z = z if isinstance(z, FinSet) else FinSet(z)
        key = ("graph", z.size)
        if key not in self._cache:
            codec = ProductCodec(self.state, ExpCodec(z, self.state).obj)
            arrow = pairing(codec.proj_left(), evaluation(z, self.state))
            self._cache[key] = curry(arrow, codec)
        return self._cache[key]

    def graph_at(self, z: FinSet, g: int) -> int:
        n = z.size
        base = self.state.size * n
        code = 0
        p = 1
        for s in range(self.state.size):
            g, d = divmod(g, n)
            code += (s * n + d) * p
            p *= base
        return code

    def const_map(self, z: FinSet | int) -> Morphism:
        """``Z -> Z^S`` sending each element to the constant function on it.

        The transpose of the right projection ``S x Z -> Z``.
        """
        z = z if isinstance(z, FinSet) else FinSet(z)
        key = ("const", z.size)
        if key not in self._cache:
            codec = self.pair_codec(z)
            self._cache[key] = curry(codec.proj_right(), codec)
        return self._cache[key]

    def restrict_to_chosen(self, z: FinSet | int, s0: int) -> Morphism:
        """``Z^S -> Z^1`` precomposing with the state ``s0``."""
        if not 0 <= s0 < self.state.size:
            raise FinSetError(f"s0={s0} is not an element of a {self.state.size}-state object")
        z = z if isinstance(z, FinSet) else FinSet(z)
        key = ("restrict", z.size, s0)
        if key not in self._cache:
            # digit s0 of the codes 0 .. |Z|^|S| - 1: each value |Z|^s0 times
            # in a row, the run of all values once per setting of higher digits
            n = self.state.size
            run = [v for v in range(z.size) for _ in range(z.size**s0)]
            table = run * z.size ** (n - 1 - s0)
            self._cache[key] = Morphism(FinSet(z.size**n), ExpCodec(z, FinSet(1)).obj, table)
        return self._cache[key]

    def chosen_eval(self, z: FinSet | int, s0: int) -> Morphism:
        """``Z^S -> Z`` evaluating a function at the state ``s0``.  It is
        :meth:`restrict_to_chosen`, since ``Z^1`` is Z: FinSets are interned
        by size."""
        return self.restrict_to_chosen(z, s0)

    def diagonal(self) -> Morphism:
        """``S -> S x S`` duplicating the state."""
        n = self.state.size
        return Morphism(self.state, FinSet(n * n), tuple(s * n + s for s in range(n)))

    # -- structural identities -------------------------------------------------

    def pairing_via_diagonal_identity(self, x: FinSet | int) -> bool:
        """The pairing of the state projection with the constant embedding of
        ``S x X`` equals routing through the diagonal.

        Both sides are maps ``S x X -> S x TX``; their tables are compared.
        """
        x = x if isinstance(x, FinSet) else FinSet(x)
        z = self.pair_obj(x)
        codec = self.pair_codec(x)
        lhs = pairing(codec.proj_left(), self.const_map(z))
        rhs = compose(
            product_map(identity(self.state), self.const_map(z)),
            product_map(self.diagonal(), identity(x)),
        )
        return lhs.table == rhs.table

    def graph_flatten_identity(self, x: FinSet | int) -> bool:
        """Embedding as constants, taking the graph, and flattening is the unit.

        Pointwise over X: ``mult . graph(TX) . transpose(const(S x X))``
        agrees with :meth:`unit`.  Evaluated lazily, so it works even when
        ``T(TX)`` is far too large to tabulate.
        """
        x = x if isinstance(x, FinSet) else FinSet(x)
        tx = self.t_obj(x)
        const = self.const_map(self.pair_obj(x))
        n = x.size
        weights = self.digit_weights(tx.size)
        for v in range(n):
            # digit s is const(s, v), at entry s * n + v
            transposed = sum(map(mul, const.table[v::n], weights))
            flattened = self.mult_at(x, self.graph_at(tx, transposed))
            if flattened != self.unit_at(x, v):
                return False
        return True

    # -- law checks --------------------------------------------------------------

    def _law_tx(self, x: FinSet) -> FinSet:
        """TX, once the law checks' tables of ``|S| * |TX|`` entries are
        known to be within :data:`DEFAULT_SEARCH_CEILING`; refuses past it."""
        s = self.state.size
        if s and past_ceiling(s * x.size, s, DEFAULT_SEARCH_CEILING // s):
            raise FinSetError(
                f"S x TX has {int_text(s)}*{int_text(s * x.size)}**{int_text(s)} elements, "
                f"above the table bound {DEFAULT_SEARCH_CEILING}"
            )
        return self.t_obj(x)

    def unit_law_witness(self, x: FinSet | int) -> int | None:
        """First element violating ``mult . unit(TX) = id = mult . T(unit)``
        for :meth:`mult`, which :meth:`mult_agreement` ties to :meth:`mult_at`.
        Refuses past the table bound of :meth:`_law_tx`.

        ``mult`` sends TTX digits ``w_i`` to ``sum(ev[w_i] * (|S| * |X|) ** i)``
        and t's digit i is ``mult_digits[i * |TX| + t]``.  Where :meth:`unit_at`
        gives t the digits ``i * |TX| + t``, the first law fails at t iff the
        tables differ at such an index, so its least t is the least first
        difference of their rows of ``|TX|``; elsewhere ``mult`` is evaluated.  The
        second fails at t iff a digit ``p = (c, v)`` of t has
        ``ev[c * |TX| + unit(v)] != p`` (``T(unit)`` sends it to
        ``c * |TX| + unit(v)``), and its least t is the least such p.
        """
        x = x if isinstance(x, FinSet) else FinSet(x)
        tx = self._law_tx(x)
        s, m, xn = self.state.size, tx.size, x.size
        ev, digits = evaluation(self.pair_obj(x), self.state).table, self.mult_digits(x)
        unit, cells = partial(self.unit_at, tx), self.cell_layout(m)
        if all(map(eq, map(unit, range(m)), count(cells.first, cells.ones))):
            # a row of |TX| per state; with |TX| = 0 there are none
            rows = [first_difference(ev[i:i + m], digits[i:i + m]) for i in range(0, s * m, m or 1)]
            bad = min((d for d in rows if d is not None), default=None)
        else:
            mult = ([ev] * s, self.digit_weights(s * xn), ())
            bad = next((t for t in range(m) if value_at(mult, unit(t)) != t), None)
        pairs = (p for p in range(s * xn) if ev[p // xn * m + self.unit_at(x, p % xn)] != p)
        return bad if bad is not None else next(pairs, None)

    def _mult_witness(self, x: FinSet) -> int | None:
        """The least ``TTX`` code where the two multiplications differ, or
        None, read off their per-digit tables.

        Both :meth:`mult` and :meth:`mult_at` send a ``TTX`` code with digits
        ``d_i`` in ``S x TX`` to ``sum(table[d_i] * (|S| * |X|) ** i)``: the
        first with ``table`` the evaluation of ``S x X``, the second with
        :meth:`mult_digits`, ``|S| * |TX|`` entries each.  Every table value
        is below ``|S| * |X|``, so both sums are numerals, and two numerals
        are equal iff their digits are.  So a code fails iff one of its
        digits is an index where the tables differ, and the least failing
        code is the least such index d: digit 0 is d and every other digit
        is 0.
        """
        ev = evaluation(self.pair_obj(x), self.state).table
        return first_difference(ev, self.mult_digits(x))

    def mult_agreement(self, x: FinSet | int) -> LawCheck:
        """Compare the two multiplication implementations over all of TTX,
        decided on their per-digit tables by :meth:`_mult_witness`.  Refuses
        past the table bound of :meth:`_law_tx`."""
        x = x if isinstance(x, FinSet) else FinSet(x)
        ttx = self.t_obj(self._law_tx(x)).size
        witness = self._mult_witness(x)
        return LawCheck("mult_agreement", "full", ttx, witness is None, witness)

    def associativity_check(self, x: FinSet | int, seed: int = 0) -> LawCheck:
        """Check ``mult . T(mult) = mult . mult_T`` on ``TTTX``, exactly.

        Refuses past the table bound of :meth:`_law_tx`.  Scans ``TTTX`` in
        full when it is within :data:`DEFAULT_SCAN_LIMIT`.  Past it, decides
        the equivalent transposed identity on ``S x TTX`` by
        :meth:`_mult_witness` (the exponential functor is faithful for
        nonempty S, since it preserves constants).  Nothing is sampled:
        ``seed`` is accepted for existing callers and has no effect.
        """
        x = x if isinstance(x, FinSet) else FinSet(x)
        s = self.state.size
        tx = self._law_tx(x)
        ttx = self.t_obj(tx)
        tttx_size = (s * ttx.size) ** s if s else 1

        if s == 0:
            return LawCheck("associativity", "full", 1, True)

        if tttx_size <= DEFAULT_SCAN_LIMIT:
            mult = self.mult(x).table
            weights = self.digit_weights(s * tx.size)
            witness = first_mismatch(
                ([self.t_digits(mult, tx.size)] * s, weights, (mult,)),
                ([self.mult_digits(tx)] * s, weights, (mult,)),
            )
            return LawCheck("associativity", "full", tttx_size, witness is None, witness)

        # Both flattening orders arise as ``(-)^S`` of maps
        # ``S x TTX -> S x X``; for nonempty S it suffices to compare
        # those, i.e. "evaluate twice" against "flatten, then evaluate"
        # at every digit of every TTX code, which is the comparison of
        # the two multiplications.
        witness = self._mult_witness(x)
        return LawCheck("associativity", "reduced", s * ttx.size, witness is None, witness)
