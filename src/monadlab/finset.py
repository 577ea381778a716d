"""Finite sets with fixed integer encodings, and the maps between them.

Everything here is skeletal: a finite set is identified by its size and its
elements are the integers ``0 .. size-1``.  Products and exponentials carry
one fixed encoding each (pair code ``s * |X| + x`` with the left factor as
the major digit, function code little-endian mixed radix), so every
construction in the package reduces to plain integer tables.  Values are
immutable and every operation is a pure function of its inputs.  Tables are
checked once, where they enter: by the ``Morphism`` constructor (see there).
"""

from __future__ import annotations

import json
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import product as _iproduct
from typing import Iterator, Sequence

from ._bulk import digit_codes


class FinSetError(ValueError):
    """Raised when a table, codec, or composition precondition is violated."""


class FinSet:
    """A finite set with elements ``0 .. size-1``; the empty set is legal.

    There is one instance per size, validated once, which pickling and
    copying return too, so two FinSets are equal iff their sizes are.
    """

    __slots__ = ("size",)
    size: int

    def __new__(cls, size: int) -> "FinSet":
        if type(size) is not int:
            if not isinstance(size, int) or isinstance(size, bool):
                raise FinSetError(f"size must be an int, got {size!r}")
            size = int(size)
        got = _FINSETS.get(size)
        if got is None:
            if size < 0:
                raise FinSetError(f"size must be non-negative, got {size}")
            got = _FINSETS[size] = object.__new__(cls)
            object.__setattr__(got, "size", size)
        return got

    def __hash__(self) -> int:
        return hash((self.size,))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return FinSet, (self.size,)

    def elements(self) -> range:
        return range(self.size)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.size))

    def __repr__(self) -> str:
        return f"FinSet({self.size})"


_FINSETS: dict[int, FinSet] = {}


def _as_finset(x: FinSet | int) -> FinSet:
    return x if isinstance(x, FinSet) else FinSet(x)


def _finset(n: int) -> FinSet:
    """``FinSet(n)`` for a size computed here: the interned one if it exists."""
    got = _FINSETS.get(n)
    return FinSet(n) if got is None else got


class Morphism:
    """A total map between finite sets, stored as a dense lookup table.

    ``table[i]`` is the image of element ``i``.  A morphism out of the empty
    set exists for every codomain; a morphism from a nonempty set into the
    empty set does not, and construction rejects it.

    This constructor checks every table handed in.  This module's own
    constructions build with ``_made``, unchecked, as each result is a tuple
    of ``dom.size`` entries below ``cod.size`` by construction: ``identity``,
    ``compose`` and ``hom`` take entries from ``range(|cod|)`` or another
    table into ``cod``; ``pairing``, ``product_map``, ``curry`` and
    ``exp_map`` encode digits below their radices; ``uncurry`` (and so
    ``evaluation``) takes ``v // p % |cod|``; ``factorize`` numbers its image.

    Instances are frozen, so filling a slot means calling the slot's own
    setter, which costs a method-wrapper call per slot.  ``_made`` instead
    assigns the slots of ``_Unfrozen``, a twin with the same slots and no
    ``__setattr__``, and then sets its ``__class__`` to ``Morphism``: the
    result is a frozen ``Morphism`` like any other, built in about half the
    time.  The adjunction sweeps build hundreds of thousands of them.
    """

    __slots__ = ("dom", "cod", "table")
    dom: FinSet
    cod: FinSet
    table: tuple[int, ...]

    def __init__(self, dom: FinSet, cod: FinSet, table: Sequence[int]) -> None:
        table = tuple(table)
        n = cod.size
        if len(table) != dom.size:
            raise FinSetError(f"table length {len(table)} != domain size {dom.size}")
        if table and not n:
            raise FinSetError("no map from a nonempty set into the empty set")
        if table and (min(table) < 0 or max(table) >= n):
            for i, v in enumerate(table):
                if not 0 <= v < n:
                    raise FinSetError(f"table entry {v} at {i} not in 0..{n - 1}")
        _set_dom(self, dom)
        _set_cod(self, cod)
        _set_table(self, table)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.dom, self.cod, self.table) == (other.dom, other.cod, other.table)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, self.table))

    __setattr__ = FinSet.__setattr__
    __delattr__ = FinSet.__delattr__

    def __reduce__(self):
        return Morphism, (self.dom, self.cod, self.table)

    def __call__(self, x: int) -> int:
        return self.table[x]

    def then(self, other: "Morphism") -> "Morphism":
        """Diagrammatic composition: ``f.then(g)`` is ``g`` after ``f``."""
        return compose(other, self)

    def __repr__(self) -> str:
        if self.dom.size <= 16:
            return f"Morphism({self.dom.size}->{self.cod.size}, {list(self.table)})"
        return f"Morphism({self.dom.size}->{self.cod.size}, <{self.dom.size} entries>)"


# the slots' own setters: assignment through an instance raises
_set_dom = Morphism.dom.__set__
_set_cod = Morphism.cod.__set__
_set_table = Morphism.table.__set__


class _Unfrozen:
    """``Morphism``'s slots without its frozen ``__setattr__`` (see Morphism)."""

    __slots__ = Morphism.__slots__


def _made(dom: FinSet, cod: FinSet, table: tuple[int, ...]) -> Morphism:
    """A morphism whose table is in range by construction (see Morphism)."""
    f = _Unfrozen()
    f.dom = dom
    f.cod = cod
    f.table = table
    f.__class__ = Morphism
    return f


def identity(x: FinSet | int) -> Morphism:
    x = _as_finset(x)
    return _made(x, x, tuple(range(x.size)))


def compose(g: Morphism, f: Morphism) -> Morphism:
    """Classical composition ``g after f``."""
    if f.cod is not g.dom:
        raise FinSetError(
            f"cannot compose: codomain {f.cod.size} != domain {g.dom.size}"
        )
    return _made(f.dom, g.cod, tuple(map(g.table.__getitem__, f.table)))


def hom(dom: FinSet | int, cod: FinSet | int) -> Iterator[Morphism]:
    """All morphisms from dom to cod, in lexicographic table order."""
    dom, cod = _as_finset(dom), _as_finset(cod)
    for table in _iproduct(range(cod.size), repeat=dom.size):
        yield _made(dom, cod, table)


def hom_size(dom: FinSet | int, cod: FinSet | int) -> int:
    dom, cod = _as_finset(dom), _as_finset(cod)
    return cod.size ** dom.size


@dataclass(frozen=True)
class ProductCodec:
    """Encoding of the binary product ``left x right``.

    The left factor is the major digit: ``encode(a, b) = a * |right| + b``.
    """

    left: FinSet
    right: FinSet

    @cached_property
    def obj(self) -> FinSet:
        return FinSet(self.left.size * self.right.size)

    def encode(self, a: int, b: int) -> int:
        return a * self.right.size + b

    def decode(self, c: int) -> tuple[int, int]:
        return divmod(c, self.right.size)

    def proj_left(self) -> Morphism:
        n = self.right.size
        return Morphism(self.obj, self.left, tuple(c // n for c in range(self.obj.size)))

    def proj_right(self) -> Morphism:
        n = self.right.size
        return Morphism(self.obj, self.right, tuple(c % n for c in range(self.obj.size)))


@dataclass(frozen=True)
class ExpCodec:
    """Encoding of the exponential ``base ^ exponent``.

    A function ``f: exponent -> base`` is the mixed-radix integer
    ``sum(f(s) * |base| ** s)``, position ``s = 0`` least significant.
    ``base ^ exponent`` has ``|base| ** |exponent|`` elements, which is 1
    when the exponent is empty.
    """

    base: FinSet
    exponent: FinSet

    @cached_property
    def obj(self) -> FinSet:
        return FinSet(self.base.size ** self.exponent.size)

    @cached_property
    def _pows(self) -> tuple[int, ...]:
        b = self.base.size
        return tuple(b**s for s in range(self.exponent.size))

    def encode(self, values: Sequence[int]) -> int:
        if len(values) != self.exponent.size:
            raise FinSetError(
                f"expected {self.exponent.size} values, got {len(values)}"
            )
        b = self.base.size
        code = 0
        for s, v in enumerate(values):
            if not 0 <= v < b:
                raise FinSetError(f"value {v} at position {s} not in 0..{b - 1}")
            code += v * self._pows[s]
        return code

    def decode(self, code: int) -> tuple[int, ...]:
        b = self.base.size
        out = []
        for _ in range(self.exponent.size):
            code, d = divmod(code, b)
            out.append(d)
        return tuple(out)

    def digit(self, code: int, pos: int) -> int:
        return (code // self._pows[pos]) % self.base.size


def pairing(f: Morphism, g: Morphism) -> Morphism:
    """The map ``z -> (f(z), g(z))`` into the product of the codomains."""
    if f.dom is not g.dom:
        raise FinSetError("pairing requires a common domain")
    n = g.cod.size
    table = tuple([a * n + b for a, b in zip(f.table, g.table)])
    return _made(f.dom, _finset(f.cod.size * n), table)


def product_map(f: Morphism, g: Morphism) -> Morphism:
    """The map ``f x g`` acting coordinatewise on pair codes."""
    gt, m = g.table, g.cod.size
    table = tuple([a * m + b for a in f.table for b in gt])
    return _made(_finset(f.dom.size * len(gt)), _finset(f.cod.size * m), table)


def curry(f: Morphism, codec: ProductCodec) -> Morphism:
    """Transpose ``f: S x X -> Y`` to ``X -> Y^S`` along the given pair codec.

    ``curry(f)(x)`` encodes the function ``s -> f(encode(s, x))``.
    """
    if codec.obj is not f.dom:
        raise FinSetError(
            f"codec object size {codec.obj.size} != morphism domain {f.dom.size}"
        )
    s_size = codec.left.size
    x_size = codec.right.size
    y = f.cod.size
    ft = f.table
    # Horner's rule over the rows: row s is ``f(s, v)`` for every v, digit s
    # of every code, so start from the top row and fold the lower ones in
    codes = ft[len(ft) - x_size:] if s_size else (0,) * x_size
    for s in range(s_size - 2, -1, -1):
        row = s * x_size
        codes = [c * y + d for c, d in zip(codes, ft[row:row + x_size])]
    return _made(codec.right, _finset(y**s_size), tuple(codes))


def uncurry(g: Morphism, codec: ExpCodec) -> Morphism:
    """Transpose ``g: X -> Y^S`` back to ``S x X -> Y``; inverse of curry."""
    if codec.obj is not g.cod:
        raise FinSetError(
            f"codec object size {codec.obj.size} != morphism codomain {g.cod.size}"
        )
    y = codec.base.size
    gt = g.table
    table = tuple([v // p % y for p in codec._pows for v in gt])
    return _made(_finset(len(table)), codec.base, table)


def evaluation(x: FinSet | int, s: FinSet | int) -> Morphism:
    """The evaluation map ``S x X^S -> X`` sending ``(s, f)`` to ``f(s)``,
    the transpose ``uncurry(identity(X^S))``."""
    codec = ExpCodec(_as_finset(x), _as_finset(s))
    return uncurry(identity(codec.obj), codec)


def exp_map(f: Morphism, s: FinSet | int) -> Morphism:
    """The action of ``(-)^S`` on ``f: Y -> Z``, postcomposing pointwise."""
    n = _as_finset(s).size
    z = f.cod.size
    table = digit_codes([f.table] * n, [z**i for i in range(n)])
    return _made(_finset(f.dom.size**n), _finset(z**n), table)


@dataclass(frozen=True)
class Factorization:
    """A surjection-followed-by-injection splitting of a morphism.

    ``mono . epi == source``; image elements are ordered by least preimage
    index in the source table, which makes the factorization deterministic.
    """

    source: Morphism
    epi: Morphism
    mono: Morphism
    image: FinSet


def factorize(f: Morphism) -> Factorization:
    """Split ``f`` through its image.

    The image object collects the distinct table values of ``f`` in order of
    first occurrence; ``epi`` is surjective, ``mono`` is injective.  In
    finite sets every surjection is a regular (even split) epimorphism, so
    this is the regular epi-mono factorization.
    """
    seen: dict[int, int] = {}
    epi_table = []
    mono_table = []
    for v in f.table:
        j = seen.get(v)
        if j is None:
            j = len(mono_table)
            seen[v] = j
            mono_table.append(v)
        epi_table.append(j)
    image = _finset(len(mono_table))
    return Factorization(
        source=f,
        epi=_made(f.dom, image, tuple(epi_table)),
        mono=_made(image, f.cod, tuple(mono_table)),
        image=image,
    )


@dataclass(frozen=True)
class MorphismClass:
    """Injectivity/surjectivity flags of a morphism.

    In finite sets every epimorphism is regular and split, so ``split_epi``
    always coincides with ``epi``; the flag is kept separate because the two
    notions differ in other settings.
    """

    mono: bool
    epi: bool
    split_epi: bool
    iso: bool


def classify(f: Morphism) -> MorphismClass:
    values = set(f.table)
    mono = len(values) == f.dom.size
    epi = len(values) == f.cod.size
    return MorphismClass(mono=mono, epi=epi, split_epi=epi, iso=mono and epi)


def morphism_to_dict(f: Morphism) -> dict:
    return {"dom": f.dom.size, "cod": f.cod.size, "table": list(f.table)}


def morphism_from_dict(d: dict) -> Morphism:
    try:
        dom, cod, table = d["dom"], d["cod"], d["table"]
    except (KeyError, TypeError) as exc:
        raise FinSetError(f"malformed morphism record: {d!r}") from exc
    return Morphism(FinSet(dom), FinSet(cod), int_entries(table, "table"))


def int_entries(values: object, field: str) -> tuple[int, ...]:
    """A decoded record's table as a tuple of plain ints.  A bool, float or
    string entry raises FinSetError: ``Morphism`` checks entries only by
    value, so the JSON loaders check their types here."""
    if not isinstance(values, (list, tuple)):
        raise FinSetError(f"{field} must be a list of ints, got {values!r}")
    for i, v in enumerate(values):
        if type(v) is not int:
            raise FinSetError(f"{field} entries must be ints, got {v!r} at index {i}")
    return tuple(values)


def morphism_dumps(f: Morphism) -> str:
    return json.dumps(morphism_to_dict(f), sort_keys=True, separators=(",", ":"))


def morphism_loads(text: str) -> Morphism:
    return morphism_from_dict(json.loads(text))
