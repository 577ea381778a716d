"""Finite sets with fixed integer encodings, and the maps between them.

Everything here is skeletal: a finite set is identified by its size and its
elements are the integers ``0 .. size-1``.  Products and exponentials carry
one fixed encoding each (pair code ``s * |X| + x`` with the left factor as
the major digit, function code little-endian mixed radix), so every
construction in the package reduces to plain integer tables.  All values are
immutable after construction and every operation is a pure function of its
inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import product as _iproduct
from typing import Iterator, Sequence

from ._bulk import digit_codes


class FinSetError(ValueError):
    """Raised when a table, codec, or composition precondition is violated."""


@dataclass(frozen=True)
class FinSet:
    """A finite set with elements ``0 .. size-1``.

    Two FinSets are equal iff their sizes are equal; the empty set (size 0)
    is a legal object.
    """

    size: int

    def __post_init__(self) -> None:
        if not isinstance(self.size, int) or isinstance(self.size, bool):
            raise FinSetError(f"size must be an int, got {self.size!r}")
        if self.size < 0:
            raise FinSetError(f"size must be non-negative, got {self.size}")

    def elements(self) -> range:
        return range(self.size)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.size))

    def __repr__(self) -> str:
        return f"FinSet({self.size})"


def _as_finset(x: FinSet | int) -> FinSet:
    return x if isinstance(x, FinSet) else FinSet(x)


@dataclass(frozen=True)
class Morphism:
    """A total map between finite sets, stored as a dense lookup table.

    ``table[i]`` is the image of element ``i``.  A morphism out of the empty
    set exists for every codomain; a morphism from a nonempty set into the
    empty set does not, and construction rejects it.
    """

    dom: FinSet
    cod: FinSet
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", tuple(self.table))
        if len(self.table) != self.dom.size:
            raise FinSetError(
                f"table length {len(self.table)} != domain size {self.dom.size}"
            )
        if self.dom.size > 0 and self.cod.size == 0:
            raise FinSetError("no map from a nonempty set into the empty set")
        n = self.cod.size
        for i, v in enumerate(self.table):
            if not 0 <= v < n:
                raise FinSetError(f"table entry {v} at {i} not in 0..{n - 1}")

    def __call__(self, x: int) -> int:
        return self.table[x]

    def then(self, other: "Morphism") -> "Morphism":
        """Diagrammatic composition: ``f.then(g)`` is ``g`` after ``f``."""
        return compose(other, self)

    def __repr__(self) -> str:
        if self.dom.size <= 16:
            return f"Morphism({self.dom.size}->{self.cod.size}, {list(self.table)})"
        return f"Morphism({self.dom.size}->{self.cod.size}, <{self.dom.size} entries>)"


def identity(x: FinSet | int) -> Morphism:
    x = _as_finset(x)
    return Morphism(x, x, tuple(range(x.size)))


def compose(g: Morphism, f: Morphism) -> Morphism:
    """Classical composition ``g after f``."""
    if f.cod != g.dom:
        raise FinSetError(
            f"cannot compose: codomain {f.cod.size} != domain {g.dom.size}"
        )
    gt = g.table
    return Morphism(f.dom, g.cod, tuple(gt[v] for v in f.table))


def hom(dom: FinSet | int, cod: FinSet | int) -> Iterator[Morphism]:
    """All morphisms from dom to cod, in lexicographic table order."""
    dom, cod = _as_finset(dom), _as_finset(cod)
    if dom.size > 0 and cod.size == 0:
        return
    for table in _iproduct(range(cod.size), repeat=dom.size):
        yield Morphism(dom, cod, table)


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

    @property
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

    @property
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
    if f.dom != g.dom:
        raise FinSetError("pairing requires a common domain")
    codec = ProductCodec(f.cod, g.cod)
    n = g.cod.size
    return Morphism(
        f.dom, codec.obj, tuple(a * n + b for a, b in zip(f.table, g.table))
    )


def product_map(f: Morphism, g: Morphism) -> Morphism:
    """The map ``f x g`` acting coordinatewise on pair codes."""
    dc = ProductCodec(f.dom, g.dom)
    cc = ProductCodec(f.cod, g.cod)
    ft, gt = f.table, g.table
    n, m = g.dom.size, g.cod.size
    table = tuple(ft[c // n] * m + gt[c % n] for c in range(dc.obj.size))
    return Morphism(dc.obj, cc.obj, table)


def curry(f: Morphism, codec: ProductCodec) -> Morphism:
    """Transpose ``f: S x X -> Y`` to ``X -> Y^S`` along the given pair codec.

    ``curry(f)(x)`` encodes the function ``s -> f(encode(s, x))``.
    """
    if codec.obj != f.dom:
        raise FinSetError(
            f"codec object size {codec.obj.size} != morphism domain {f.dom.size}"
        )
    s_size = codec.left.size
    x_size = codec.right.size
    y = f.cod.size
    ft = f.table
    table = []
    for x in range(x_size):
        code = 0
        p = 1
        for s in range(s_size):
            code += ft[s * x_size + x] * p
            p *= y
        table.append(code)
    return Morphism(codec.right, ExpCodec(f.cod, codec.left).obj, tuple(table))


def uncurry(g: Morphism, codec: ExpCodec) -> Morphism:
    """Transpose ``g: X -> Y^S`` back to ``S x X -> Y``; inverse of curry."""
    if codec.obj != g.cod:
        raise FinSetError(
            f"codec object size {codec.obj.size} != morphism codomain {g.cod.size}"
        )
    s_size = codec.exponent.size
    x_size = g.dom.size
    y = codec.base.size
    gt = g.table
    table = []
    for s in range(s_size):
        p = y**s
        for x in range(x_size):
            table.append((gt[x] // p) % y)
    dom = ProductCodec(codec.exponent, g.dom).obj
    return Morphism(dom, codec.base, tuple(table))


def evaluation(x: FinSet | int, s: FinSet | int) -> Morphism:
    """The evaluation map ``S x X^S -> X`` sending ``(s, f)`` to ``f(s)``.

    Equals ``uncurry(identity(X^S))``.
    """
    x, s = _as_finset(x), _as_finset(s)
    exp = ExpCodec(x, s)
    n = exp.obj.size
    xs = x.size
    table = []
    for si in range(s.size):
        p = xs**si
        for f in range(n):
            table.append((f // p) % xs)
    dom = ProductCodec(s, exp.obj).obj
    return Morphism(dom, x, tuple(table))


def exp_map(f: Morphism, s: FinSet | int) -> Morphism:
    """The action of ``(-)^S`` on ``f: Y -> Z``, postcomposing pointwise."""
    n = _as_finset(s).size
    z = f.cod.size
    table = digit_codes([f.table] * n, [z**i for i in range(n)])
    return Morphism(FinSet(f.dom.size**n), FinSet(z**n), table)


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
    image = FinSet(len(mono_table))
    return Factorization(
        source=f,
        epi=Morphism(f.dom, image, tuple(epi_table)),
        mono=Morphism(image, f.cod, tuple(mono_table)),
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
    return Morphism(FinSet(dom), FinSet(cod), tuple(table))


def morphism_dumps(f: Morphism) -> str:
    return json.dumps(morphism_to_dict(f), sort_keys=True, separators=(",", ":"))


def morphism_loads(text: str) -> Morphism:
    return morphism_from_dict(json.loads(text))
