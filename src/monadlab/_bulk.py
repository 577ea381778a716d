"""The one kernel behind every digit-sum code table and identity scan.

The monad ``T = (S x -)^S`` acts digit by digit on the little-endian
mixed-radix codes of :mod:`finset`.  ``exp_map``, ``T(f)`` and both
multiplications send a code with digits ``d_0, d_1, ...`` to
``sum(digits[i][d_i] * weights[i])`` for per-digit code tables.  So each
side of every identity the package scans is such a digit sum read through
zero or more lookup tables: a *side* is the triple ``(digits, weights,
lookups)``, a plain tuple because tiny scans are dominated by per-call
costs.  The codes of a side range over the radices ``len(digits[i])``.
:func:`first_mismatch` returns the least code where two sides differ, and
:func:`side_values` tabulates a side.  Every code table the package builds
from columns is one: ``finset.exp_map`` (:func:`digit_codes`),
``algebra.fold_table``, the lookups of ``algebra.read_presentation``, of
the constrained search's leaves and of ``monadicity.function_algebra``, and
the relabelings ``T(t)`` of the search's orbit closure.

The scan evaluates the first points, and all of a tiny domain, on Python
ints, so a quick rejection pays for no arrays.  Past that it broadcasts the
low digits into an int64 block and walks the domain in order, in chunks
that grow to at most ``_MAX_CHUNK`` points.  numpy is imported only there,
so importing the package does not load it.  :func:`table_mismatch` runs the
same scan with a plain table, read as it stands, as one side.

``_INT_POINTS`` is the one switch between ints and arrays.  It bounds the
domains scanned whole on ints and the first chunk of a larger scan; chunks
that start below it run on ints (the int prefix, whose last chunk can be
about seven times larger); and :func:`digit_codes` tabulates past it with
arrays.  It was set to 128 by timing candidate values in one process,
alternated at every repetition: best of 15 per table, or of 6 to 60 per
call (Python 3.11.7, numpy 2.4.6, 2 vCPUs of a shared Xeon host):

    _INT_POINTS      (2,4) mutant µs    associativity_check ms    brute s
                      mean     p90        (2,1)       (2,2)       (2,2)
    32, h as a side   29.0     43.0       0.222       53.2        0.254
    32                23.0     33.0       0.220       52.5        0.272
    64                17.7     23.3       0.221       49.1        0.281
    128               17.8     23.7       0.212       47.2        0.265
    256               17.9     23.8       0.284       48.2        0.248
    512               18.0     24.0       0.281       49.8        0.244

The mutants are 240 one-cell mutants of the (2,4) algebras, rejected by
``check_algebra`` at its fold test, whose 64-code domain runs whole on ints
from 64 on.  ``associativity_check`` at (2,1) scans 16,384 codes, and from
256 on its int prefix ends in a chunk of about 1,800 points that arrays
evaluate faster.  The brute-force search (``algebras --s 2 --x 2 --method
brute``) moves within its noise.  The first row is the fold test before
:func:`table_mismatch`, which evaluated h as a digit sum read through h.

``_MAX_CHUNK`` bounds the chunks of the array scan.  Each chunk allocates a
few int64 temporaries of its size, so at ``1 << 20`` points each is 8 MB,
more than a core's 2 MiB L2 cache, and the scan is both slower and larger.
It was set to ``1 << 16`` (512 KB temporaries), the least total time over
the timed rows below, by timing each candidate in one process per
workload, alternated at every repetition (median of 21, or of 9 for the
two slowest columns), and reading each one's peak resident memory in a
fresh process (Python 3.11.7, numpy 2.4.6, 2 vCPUs of a shared Xeon host,
2 MiB L2 per core):

    _MAX_CHUNK   associativity_check    verify --s S --max-x X   carrier 9   peak MB
                 (2,2) ms   (2,3) ms     (2,8) ms    (3,4) ms     ms          (2,2)   (2,3)   (2,8)
    1 << 14        19.9       353          78.0        617         0.19        30.0    30.5    34.1
    1 << 15        18.3       297          75.6        632         0.19        30.5    30.9    34.7
    1 << 16        19.2       301          73.9        588         0.19        31.2    31.7    36.1
    1 << 17        22.6       357          77.1        647         0.20        33.5    33.3    38.3
    1 << 18        23.4       396          78.6        598         0.19        37.5    37.3    42.2
    1 << 19        27.6       388          80.2        648         0.19        43.6    43.2    47.2
    1 << 20        35.4       390          85.5        647         0.19        61.5    56.2    53.5

``associativity_check`` at (2,2) scans 4.2M codes and at (2,3) 107M.  The
``verify`` columns were timed when ``verify`` still checked its hom-sets in
blocks of maps under the same cap, 12 of them past ``1 << 14`` entries at
(2,8); it now walks no map.  At (3,4) it scanned 12 chunks past ``1 << 14``
to validate K(4), under a peak of 155 MB that building K(4)'s 7M-entry
table set at every candidate; K(4) is now validated on its updates and
lookup, and that table is not built.  The carrier-9 column is 40 random tables on nine
elements that ``check_algebra`` rejects, whose 324-code domains no
candidate reaches.  ``1 << 15`` and ``1 << 16`` tie within the host's
noise: head to head, ``1 << 15`` led by up to 5% at (2,3) and (2,8),
``1 << 16`` by 4-8% at (3,4), and (2,2) was even.  The traced peak of the
(2,2) scan is 1.7 MB, where ``1 << 20`` reached 25.3 MB.
"""

from __future__ import annotations

from math import prod
from typing import Sequence

#: ``(digits, weights, lookups)``: one side of an identity, see above.
Side = tuple[Sequence[Sequence[int]], Sequence[int], Sequence[Sequence[int]]]

#: The int/array threshold, in points: domains of at most this many codes
#: run whole on Python ints, a larger scan's first chunk fits within it and
#: its chunks that start below it run on ints, and :func:`digit_codes`
#: uses arrays past it.  Measured; see the module docstring.
_INT_POINTS = 128

#: Largest chunk, in points, of the array scan.  Measured; see the module
#: docstring.
_MAX_CHUNK = 1 << 16

_INT64_MAX = (1 << 63) - 1


def value_at(side: Side, w: int) -> int:
    """The side's value at code ``w`` (bigint safe)."""
    digits, weights, lookups = side
    code = 0
    for table, weight in zip(digits, weights):
        w, d = divmod(w, len(table))
        code += table[d] * weight
    for look in lookups:
        code = look[code]
    return code


def side_values(side: Side) -> list[int]:
    """The side's value at every code, in code order, as Python ints.

    The lowest digit's pass also applies the first lookup: on a tiny domain
    each pass over the codes is a fair share of the whole scan.
    """
    digits, weights, lookups = side
    codes = [0]
    for i in reversed(range(len(digits))):
        table, weight = digits[i], weights[i]
        if i == 0 and lookups:
            look, lookups = lookups[0], lookups[1:]
            codes = [look[c + v * weight] for c in codes for v in table]
        else:
            codes = [c + v * weight for c in codes for v in table]
    for look in lookups:
        codes = [look[c] for c in codes]
    return codes


def digit_codes(digits: Sequence[Sequence[int]], weights: Sequence[int]) -> tuple[int, ...]:
    """``sum(digits[i][d_i] * weights[i])`` for every code, in code order."""
    side = (digits, weights, ())
    if prod(map(len, digits)) > _INT_POINTS and _fits_int64(digits, weights):
        return tuple(_Arrays(side).block(len(digits)).tolist())
    return tuple(side_values(side))


def first_mismatch(left: Side, right: Side) -> int | None:
    """The least code where the two sides differ, or None.  Each side must
    read its digit sums through a lookup, so that they index lists and, like
    the lookups' entries, fit the array scan's int64."""
    return _scan(left, right, False)


def table_mismatch(table: Sequence[int], side: Side) -> int | None:
    """As :func:`first_mismatch`, with ``table[w]`` the left side's value at code w."""
    return _scan(table, side, True)


def _scan(left, right: Side, plain: bool) -> int | None:
    """The scan of :func:`first_mismatch`; left is a plain table if ``plain``."""
    if not (right[2] and (plain or left[2])):
        raise ValueError("first_mismatch needs a lookup on each side")
    if prod(map(len, right[0])) <= _INT_POINTS:
        lv, rv = list(left) if plain else side_values(left), side_values(right)
        return None if lv == rv else _first_difference(lv, rv)
    arrays = None
    for start, j, lo, hi, high in _chunks([len(t) for t in right[0]]):
        if start < _INT_POINTS:
            rv = _int_chunk(right, j, lo, hi, high)
            lv = list(left[start:start + len(rv)]) if plain else _int_chunk(left, j, lo, hi, high)
            if lv != rv:
                return start + _first_difference(lv, rv)
            continue
        if arrays is None:
            from numpy import fromiter, int64  # a plain table is converted chunk by chunk
            arrays = _Arrays(right), None if plain else _Arrays(left)
        rv = arrays[0].chunk(j, lo, hi, high)
        end = start + rv.size
        lv = fromiter(left[start:end], int64) if plain else arrays[1].chunk(j, lo, hi, high)
        bad = (rv != lv).nonzero()[0]
        if bad.size:
            return start + int(bad[0])
        lv = None  # keep only rv alive between chunks: measured fastest
    return None


def _first_difference(lv: list[int], rv: list[int]) -> int:
    i = 0
    while lv[i] == rv[i]:
        i += 1
    return i


def _chunks(radices: list[int]):
    """Cover the codes in increasing order by chunks ``(start, j, lo, hi,
    high)``: digit ``j`` in ``[lo, hi)``, every lower digit, and the higher
    digits ``high``.

    The first chunk is one row of the largest block of low digits within
    ``_INT_POINTS`` points, which must be smaller than the domain.  Each
    later one is whole rows of the block, about seven times the points
    already covered, up to ``_MAX_CHUNK``.
    """
    k = len(radices)
    j, size = 0, 1
    while size * radices[j] <= _INT_POINTS:
        size *= radices[j]
        j += 1
    yield 0, j, 0, 1, (0,) * (k - j - 1)
    start = size
    while j < k:
        n = radices[j]
        zeros = (0,) * (k - j - 1)
        lo = 1
        while lo < n:
            target = min(7 * start, _MAX_CHUNK)
            hi = min(n, lo + max(1, target // size))
            yield start, j, lo, hi, zeros
            start += (hi - lo) * size
            lo = hi
        if size * n > _MAX_CHUNK:
            break
        size *= n
        j += 1
    else:
        return
    # digit j's rows of the block no longer fit one chunk: sweep them under
    # every nonzero setting of the digits above j
    rows = max(1, _MAX_CHUNK // size)
    above = radices[j + 1 :]
    for h in range(1, prod(above)):
        high = []
        for n in above:
            h, d = divmod(h, n)
            high.append(d)
        for lo in range(0, radices[j], rows):
            hi = min(radices[j], lo + rows)
            yield start, j, lo, hi, tuple(high)
            start += (hi - lo) * size


def _high_offset(side: Side, j: int, high: tuple[int, ...]) -> int:
    """The digit sum of the digits above ``j``, set to ``high``."""
    digits, weights, _ = side
    off = 0
    for i, d in enumerate(high, j + 1):
        off += digits[i][d] * weights[i]
    return off


def _int_chunk(side: Side, j: int, lo: int, hi: int, high: tuple[int, ...]) -> list[int]:
    """The side's values on a chunk of :func:`_chunks`, as Python ints."""
    digits, weights, lookups = side
    off = _high_offset(side, j, high)
    table, weight = digits[j], weights[j]
    codes = [table[d] * weight + off for d in range(lo, hi)]
    for i in reversed(range(j)):
        weight = weights[i]
        codes = [c + v * weight for c in codes for v in digits[i]]
    for look in lookups:
        codes = [look[c] for c in codes]
    return codes


def _fits_int64(digits: Sequence[Sequence[int]], weights: Sequence[int]) -> bool:
    """Whether every digit sum fits an int64."""
    return sum(max(t) * w for t, w in zip(digits, weights) if len(t)) <= _INT64_MAX


class _Arrays:
    """int64 copies of one side's tables, and its blocks of low digits."""

    def __init__(self, side: Side):
        import numpy as np

        digits, weights, lookups = side
        self.side = side
        self.tables = [np.asarray(t, dtype=np.int64) * w for t, w in zip(digits, weights)]
        self.lookups = [np.asarray(t, dtype=np.int64) for t in lookups]
        self.blocks = {0: np.zeros(1, dtype=np.int64)}

    def block(self, j: int):
        """Digit sums over the digits below ``j``, for every setting of them."""
        if j not in self.blocks:
            low = self.block(j - 1)
            self.blocks[j] = (self.tables[j - 1][:, None] + low[None, :]).ravel()
        return self.blocks[j]

    def chunk(self, j: int, lo: int, hi: int, high: tuple[int, ...]):
        """The side's values on a chunk of :func:`_chunks`."""
        rows = self.tables[j][lo:hi] + _high_offset(self.side, j, high)
        codes = (rows[:, None] + self.block(j)[None, :]).ravel()
        for look in self.lookups:
            codes = look[codes]
        return codes
