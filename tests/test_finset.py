import copy
import functools
import importlib
import inspect
import json
import os
import pickle
import pkgutil
import random
import subprocess
import sys
import threading
from dataclasses import FrozenInstanceError, fields, replace
from itertools import product as iproduct
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import monadlab
from monadlab import _bulk
from monadlab._bulk import first_mismatch, side_values, value_at
from monadlab.finset import (
    ExpCodec,
    FinSet,
    FinSetError,
    Morphism,
    ProductCodec,
    _lazy,
    classify,
    compose,
    curry,
    evaluation,
    exp_map,
    factorize,
    hom,
    hom_size,
    identity,
    morphism_dumps,
    morphism_from_dict,
    morphism_loads,
    pairing,
    product_map,
    uncurry,
)
from monadlab.statemonad import LawCheck


@st.composite
def morphisms(draw, max_size=5):
    dom = draw(st.integers(min_value=0, max_value=max_size))
    if dom == 0:
        cod = draw(st.integers(min_value=0, max_value=max_size))
        return Morphism(FinSet(0), FinSet(cod), ())
    cod = draw(st.integers(min_value=1, max_value=max_size))
    table = tuple(
        draw(st.integers(min_value=0, max_value=cod - 1)) for _ in range(dom)
    )
    return Morphism(FinSet(dom), FinSet(cod), table)


@st.composite
def sides(draw):
    """A side ``(digits, weights, lookups)``: up to 3 columns of up to 3
    entries each (an empty one among them at times) and up to 2 lookups,
    each defined on every value the step before it can take."""
    small = st.integers(min_value=0, max_value=4)
    digits = draw(st.lists(st.lists(small, max_size=3), max_size=3))
    weights = [draw(st.integers(min_value=1, max_value=9)) for _ in digits]
    top = sum(max(col, default=0) * w for col, w in zip(digits, weights))
    lookups = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        lookups.append(draw(st.lists(small, min_size=top + 1, max_size=top + 1)))
        top = max(lookups[-1])
    return digits, weights, lookups


class TestSideValues:
    @given(sides())
    @example(([[0, 1], [0, 1, 2]], [1, 2], [[5, 4, 3, 2, 1, 0]]))
    @example(([[0, 1], [], [2]], [1, 2, 6], [[0] * 14]))
    def test_tabulates_value_at_in_code_order(self, side):
        codes = range(prod(map(len, side[0])))
        assert side_values(side) == [value_at(side, w) for w in codes]

    def test_first_mismatch_needs_a_lookup_on_each_side(self):
        side = ([range(40)], [1], [list(range(40))])
        assert first_mismatch(side, side) is None
        with pytest.raises(ValueError, match="lookup on each side"):
            first_mismatch(side, (side[0], side[1], []))


def _split(n):
    """Radices with product n: two digits when n has a proper divisor."""
    d = next((d for d in range(2, n) if n % d == 0), None)
    return [d, n // d] if d else [n]


def _scan_case(radices, seed=0):
    """A side on the radices, reading its digit sums through a lookup."""
    rng = random.Random(seed)
    weights = [prod(radices[:i]) for i in range(len(radices))]
    digits = [[rng.randrange(r) for _ in range(r)] for r in radices]
    return digits, weights, [[rng.randrange(5) for _ in range(max(1, prod(radices)))]]


class TestTableMismatch:
    """``table_mismatch`` and ``first_mismatch`` return the least failing
    code on both sides of every boundary ``_bulk._INT_POINTS`` sets: the
    whole-domain int path, the int prefix of the chunked scan, the first
    array chunk, and the last code."""

    DOMAINS = (
        ("empty", [3, 0]),
        ("one code", []),
        ("one digit", [7]),
        ("int points - 1", _split(_bulk._INT_POINTS - 1)),
        ("int points", _split(_bulk._INT_POINTS)),
        ("int points + 1", _split(_bulk._INT_POINTS + 1)),
        ("thousands", [16, 12, 20]),
    )

    @staticmethod
    def _places(radices):
        n = prod(radices)
        first_array = None
        if n > _bulk._INT_POINTS:
            starts = [start for start, *_ in _bulk._chunks(radices)]
            first_array = next((s for s in starts if s >= _bulk._INT_POINTS), None)
        last_int = n - 1 if first_array is None else first_array - 1
        return sorted({w for w in (0, last_int, first_array, n - 1) if w is not None and 0 <= w < n})

    @pytest.mark.parametrize("name,radices", DOMAINS, ids=[d[0] for d in DOMAINS])
    def test_agree_with_brute_reference(self, name, radices):
        side = _scan_case(radices)
        values = side_values(side)
        assert values == [value_at(side, w) for w in range(prod(radices))]
        places = self._places(radices)
        if name == "thousands":
            # an int prefix, then arrays
            assert len(places) == 4 and places[1] + 1 == places[2] < places[3]
        for place in [None, *places]:
            table = list(values)
            if place is not None:
                table[place] += 1
            reference = next((w for w, (a, b) in enumerate(zip(table, values)) if a != b), None)
            assert reference == place
            as_side = ([range(r) for r in radices], side[1], (tuple(table),))
            assert _bulk.table_mismatch(tuple(table), side) == place
            assert _bulk.table_mismatch(table, side) == place
            assert first_mismatch(as_side, side) == place

    def test_arrays_only_past_the_int_prefix(self, monkeypatch):
        radices = [16, 12, 20]
        side = _scan_case(radices)
        values = side_values(side)
        as_side = lambda table: ([range(r) for r in radices], side[1], (table,))  # noqa: E731
        _, j, lo, hi, _ = next(_bulk._chunks(radices))
        first_row = (hi - lo) * prod(radices[:j])

        def no_arrays(side):
            raise AssertionError("arrays built")

        monkeypatch.setattr(_bulk, "_Arrays", no_arrays)
        table = list(values)
        table[first_row - 1] += 1
        assert _bulk.table_mismatch(table, side) == first_row - 1
        assert first_mismatch(as_side(table), side) == first_row - 1
        with pytest.raises(AssertionError, match="arrays built"):
            _bulk.table_mismatch(values, side)
        with pytest.raises(AssertionError, match="arrays built"):
            first_mismatch(as_side(values), side)

    @given(sides(), st.data())
    def test_agrees_with_value_at(self, side, data):
        if not side[2]:
            return
        values = side_values(side)
        table = list(values)
        if table:
            place = data.draw(st.integers(min_value=0, max_value=len(table) - 1))
            table[place] += 1
        reference = next((w for w, (a, b) in enumerate(zip(table, values)) if a != b), None)
        assert _bulk.table_mismatch(table, side) == reference


class TestChunks:
    """``_bulk._chunks`` walks the codes in order, each exactly once, in
    chunks of at most ``_MAX_CHUNK`` points unless one row of its block is
    larger, at the real cap and at small ones."""

    RADICES = {
        # the int prefix, then chunks that grow by digit 1 and 2
        "growth": [16, 12, 20],
        # digit 2's rows, twice the real cap, outgrow one chunk: swept under
        # each value of digit 3
        "digits above": [64, 64, _bulk._MAX_CHUNK // 2048, 3],
        # the block of digits 0 and 1 is one chunk at the real cap
        "block at the cap": [256, _bulk._MAX_CHUNK // 256, 3],
        # the first block, 128 points, is past a cap of 100
        "block past a small cap": [128, 3, 3],
        # digits 0 and 1 have one value: the first block is one code
        "one-code block": [1, 1, 300],
    }

    @staticmethod
    def _walk(radices):
        weights = [prod(radices[:i]) for i in range(len(radices))]
        end, sizes = 0, []
        for start, j, lo, hi, high in _bulk._chunks(radices):
            # the chunk starts where the last one ended, at its own first code
            first = lo * weights[j] + sum(d * w for d, w in zip(high, weights[j + 1:]))
            assert start == end == first
            assert 0 <= lo < hi <= radices[j] and len(high) == len(radices) - j - 1
            sizes.append(((hi - lo) * weights[j], weights[j], any(high)))
            end += sizes[-1][0]
        assert end == prod(radices)
        return sizes

    @pytest.mark.parametrize("cap", [None, 100, 1000])
    @pytest.mark.parametrize("name", list(RADICES))
    def test_contiguous_bounded_and_covering(self, monkeypatch, name, cap):
        if cap is not None:
            monkeypatch.setattr(_bulk, "_MAX_CHUNK", cap)
        sizes = self._walk(self.RADICES[name])
        # past the cap only as one row of a block that is itself past it
        assert all(points <= _bulk._MAX_CHUNK or points == row for points, row, _ in sizes)
        if name == "digits above":
            assert any(high for *_, high in sizes)
        if cap is None and name == "block at the cap":
            assert [points for points, *_ in sizes[-2:]] == [_bulk._MAX_CHUNK] * 2
        if cap == 100 and name == "block past a small cap":
            assert {points for points, *_ in sizes} == {128}


class TestFinSet:
    def test_negative_size_rejected(self):
        with pytest.raises(FinSetError):
            FinSet(-1)

    def test_empty_set_is_legal(self):
        assert FinSet(0).size == 0
        assert list(FinSet(0)) == []

    def test_skeletal_equality(self):
        assert FinSet(3) == FinSet(3)
        assert FinSet(3) != FinSet(4)


class TestMorphism:
    def test_table_length_checked(self):
        with pytest.raises(FinSetError):
            Morphism(FinSet(2), FinSet(2), (0,))

    def test_entries_bounded(self):
        with pytest.raises(FinSetError):
            Morphism(FinSet(2), FinSet(2), (0, 2))

    def test_empty_domain_into_anything(self):
        assert Morphism(FinSet(0), FinSet(0), ()).table == ()
        assert Morphism(FinSet(0), FinSet(5), ()).table == ()

    def test_nonempty_into_empty_rejected(self):
        with pytest.raises(FinSetError):
            Morphism(FinSet(1), FinSet(0), (0,))

    def test_call(self):
        f = Morphism(FinSet(3), FinSet(2), (1, 0, 1))
        assert [f(i) for i in range(3)] == [1, 0, 1]


class TestValueContract:
    """FinSet and Morphism keep the equality, hash, immutability and
    messages of frozen dataclasses over their fields."""

    def test_finset_equality_and_hash(self):
        assert FinSet(3) == FinSet(3) and FinSet(3) != FinSet(4)
        assert FinSet(3) is FinSet(3)
        assert hash(FinSet(3)) == hash((3,))
        assert FinSet(3).__eq__(3) is NotImplemented and FinSet(3) != 3
        assert {FinSet(2): "a", FinSet(2): "b"} == {FinSet(2): "b"}

    def test_morphism_equality_and_hash(self):
        f = Morphism(FinSet(2), FinSet(3), [0, 2])
        g = Morphism(FinSet(2), FinSet(3), (0, 2))
        assert f == g and f.table == (0, 2)
        assert hash(f) == hash(g) == hash((FinSet(2), FinSet(3), (0, 2)))
        assert f != Morphism(FinSet(2), FinSet(3), (0, 1))
        assert f != Morphism(FinSet(2), FinSet(4), (0, 2))
        assert f.__eq__((FinSet(2), FinSet(3), (0, 2))) is NotImplemented
        assert len({f, g, identity(2)}) == 2

    def test_assignment_raises(self):
        f = identity(2)
        for obj, attr in [(FinSet(2), "size"), (f, "table"), (f, "dom"), (f, "extra")]:
            with pytest.raises(FrozenInstanceError):
                setattr(obj, attr, 1)
            with pytest.raises(FrozenInstanceError):
                delattr(obj, attr)
        assert FinSet(2).size == 2 and f.table == (0, 1)

    def test_pickle_and_copy(self):
        f = Morphism(FinSet(3), FinSet(2), (1, 0, 1))
        assert pickle.loads(pickle.dumps(f)) == f
        assert pickle.loads(pickle.dumps(FinSet(5))) is FinSet(5)
        assert copy.deepcopy(f) == f and copy.copy(FinSet(1)) is FinSet(1)

    @pytest.mark.parametrize("size,message", [
        (True, "size must be an int, got True"),
        (1.0, "size must be an int, got 1.0"),
        ("2", "size must be an int, got '2'"),
        (-1, "size must be non-negative, got -1"),
    ])
    def test_finset_messages(self, size, message):
        with pytest.raises(FinSetError) as err:
            FinSet(size)
        assert str(err.value) == message

    @pytest.mark.parametrize("dom,cod,table,message", [
        (2, 2, (0,), "table length 1 != domain size 2"),
        (1, 0, (0,), "no map from a nonempty set into the empty set"),
        (4, 3, (0, 5, -1, 7), "table entry 5 at 1 not in 0..2"),
        (3, 3, (0, 2, -1), "table entry -1 at 2 not in 0..2"),
        (3, 3, (0, 1, 3), "table entry 3 at 2 not in 0..2"),
    ])
    def test_morphism_messages(self, dom, cod, table, message):
        with pytest.raises(FinSetError) as err:
            Morphism(FinSet(dom), FinSet(cod), table)
        assert str(err.value) == message


def _curry_loops(ft, s_size, x_size, y):
    table = []
    for x in range(x_size):
        code = 0
        p = 1
        for s in range(s_size):
            code += ft[s * x_size + x] * p
            p *= y
        table.append(code)
    return tuple(table)


def _uncurry_loops(gt, s_size, x_size, y):
    table = []
    for s in range(s_size):
        p = y**s
        for x in range(x_size):
            table.append((gt[x] // p) % y)
    return tuple(table)


def _evaluation_loops(xs, s_size):
    n = xs**s_size
    table = []
    for si in range(s_size):
        p = xs**si
        for f in range(n):
            table.append((f // p) % xs)
    return tuple(table)


def _product_map_loops(ft, gt, n, m):
    return tuple(ft[c // n] * m + gt[c % n] for c in range(len(ft) * n))


class TestTablesAgainstLoops:
    """The comprehension-built tables equal the digit-by-digit loops on
    every hom-set with sizes <= 3."""

    @pytest.mark.parametrize("s,x,y", list(iproduct(range(4), repeat=3)))
    def test_curry_and_uncurry(self, s, x, y):
        codec = ProductCodec(FinSet(s), FinSet(x))
        exp = ExpCodec(FinSet(y), FinSet(s))
        for f in hom(codec.obj, y):
            got = curry(f, codec)
            assert got.table == _curry_loops(f.table, s, x, y)
            assert (got.dom, got.cod) == (FinSet(x), FinSet(y**s))
        for g in hom(x, exp.obj):
            got = uncurry(g, exp)
            assert got.table == _uncurry_loops(g.table, s, x, y)
            assert (got.dom, got.cod) == (FinSet(s * x), FinSet(y))

    def test_evaluation(self):
        for xs, s in iproduct(range(4), repeat=2):
            ev = evaluation(xs, s)
            assert ev.table == _evaluation_loops(xs, s)
            assert (ev.dom, ev.cod) == (FinSet(s * xs**s), FinSet(xs))

    def test_product_map(self):
        sizes = list(iproduct(range(4), repeat=2))
        maps = [f for a, b in sizes for f in hom(a, b)]
        for f in maps:
            for g in maps:
                got = product_map(f, g)
                n, m = g.dom.size, g.cod.size
                assert got.table == _product_map_loops(f.table, g.table, n, m)
                assert got.dom == FinSet(f.dom.size * n)
                assert got.cod == FinSet(f.cod.size * m)


#: morphisms whose pickle and deepcopy round trips ``_rechecked`` has made
_ROUND_TRIPPED: set[Morphism] = set()


def _rechecked(f):
    """``f``, after asserting that the validating constructor accepts its
    table and rebuilds an equal morphism, and that ``f`` cannot be told
    apart from that rebuilt one: a frozen, slotted ``Morphism`` that hashes
    alike and survives pickle and deepcopy with interned FinSets."""
    assert type(f.table) is tuple
    checked = Morphism(f.dom, f.cod, f.table)
    assert checked == f and hash(checked) == hash(f)
    assert type(f) is Morphism and not hasattr(f, "__dict__")
    # try/except, not pytest.raises: this runs over 150,000 times a session
    try:
        f.table = checked.table
        raise AssertionError("a field was assigned")
    except FrozenInstanceError:
        pass
    try:
        del f.dom
        raise AssertionError("a field was deleted")
    except FrozenInstanceError:
        pass
    # a slotted Morphism copies as a function of its three slots, so one
    # round trip per value covers every equal result
    if f not in _ROUND_TRIPPED:
        for copied in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert type(copied) is Morphism and copied == f
            assert copied.dom is f.dom and copied.cod is f.cod
        _ROUND_TRIPPED.add(f)
    return f


_SMALL_MAPS = [f for a, b in iproduct(range(4), repeat=2) for f in hom(a, b)]


class TestUncheckedConstructions:
    """The constructions that skip the constructor's check build tables it
    accepts, on every hom-set with sizes <= 3, the empty set included in
    every position."""

    @pytest.mark.parametrize("s,x,y", list(iproduct(range(4), repeat=3)))
    def test_adjunction(self, s, x, y):
        state = FinSet(s)
        codec = ProductCodec(state, FinSet(x))
        exp = ExpCodec(FinSet(y), state)
        ev = _rechecked(evaluation(y, s))
        id_s = _rechecked(identity(s))
        for f in hom(codec.obj, y):
            curried = _rechecked(curry(_rechecked(f), codec))
            assert _rechecked(uncurry(curried, exp)) == f
            counit = compose(ev, _rechecked(product_map(id_s, curried)))
            assert _rechecked(counit) == f
        for g in hom(x, exp.obj):
            assert _rechecked(curry(_rechecked(uncurry(g, exp)), codec)) == g

    def test_compose_pairing_product_map(self):
        for f in _SMALL_MAPS:
            _rechecked(f)
            for g in _SMALL_MAPS:
                _rechecked(product_map(f, g))
                if f.cod is g.dom:
                    _rechecked(compose(g, f))
                if f.dom is g.dom:
                    _rechecked(pairing(f, g))

    def test_exp_map_and_factorize(self):
        for f in _SMALL_MAPS:
            fact = factorize(f)
            _rechecked(fact.epi)
            _rechecked(fact.mono)
            for s in range(4):
                _rechecked(exp_map(f, s))

    def test_finsets_stay_interned(self):
        for n in range(4):
            assert copy.deepcopy(FinSet(n)) is FinSet(n)
        f = pickle.loads(pickle.dumps(Morphism(FinSet(3), FinSet(2), (1, 0, 1))))
        assert f.dom is FinSet(3) and f.cod is FinSet(2)
        assert copy.deepcopy(f).cod is FinSet(2)


class TestCompose:
    def test_identity_both_sides(self):
        f = Morphism(FinSet(2), FinSet(3), (2, 0))
        assert compose(identity(3), f).table == f.table
        assert compose(f, identity(2)).table == f.table

    def test_pointwise(self):
        f = Morphism(FinSet(2), FinSet(2), (1, 0))
        g = Morphism(FinSet(2), FinSet(2), (1, 1))
        assert compose(g, f).table == (1, 1)

    def test_mismatch_rejected(self):
        f = Morphism(FinSet(2), FinSet(3), (0, 1))
        g = Morphism(FinSet(2), FinSet(2), (0, 1))
        with pytest.raises(FinSetError):
            compose(g, f)

    @given(morphisms(), st.data())
    def test_then_matches_compose(self, f, data):
        g_table = tuple(
            data.draw(st.integers(0, 3)) for _ in range(f.cod.size)
        )
        g = Morphism(f.cod, FinSet(4), g_table)
        assert f.then(g).table == compose(g, f).table


class TestProductCodec:
    @given(st.integers(0, 4), st.integers(0, 4))
    def test_roundtrip(self, a, b):
        codec = ProductCodec(FinSet(max(a, 1)), FinSet(max(b, 1)))
        for code in range(codec.obj.size):
            x, y = codec.decode(code)
            assert codec.encode(x, y) == code

    def test_projections(self):
        codec = ProductCodec(FinSet(2), FinSet(3))
        p, q = codec.proj_left(), codec.proj_right()
        for a in range(2):
            for b in range(3):
                c = codec.encode(a, b)
                assert p(c) == a and q(c) == b

    def test_pairing_universal_property(self):
        z = FinSet(4)
        f = Morphism(z, FinSet(2), (0, 1, 1, 0))
        g = Morphism(z, FinSet(3), (2, 0, 1, 1))
        codec = ProductCodec(f.cod, g.cod)
        paired = pairing(f, g)
        assert compose(codec.proj_left(), paired).table == f.table
        assert compose(codec.proj_right(), paired).table == g.table


class TestExpCodec:
    def test_sizes(self):
        assert ExpCodec(FinSet(3), FinSet(2)).obj.size == 9
        assert ExpCodec(FinSet(5), FinSet(0)).obj.size == 1
        assert ExpCodec(FinSet(0), FinSet(0)).obj.size == 1
        assert ExpCodec(FinSet(0), FinSet(2)).obj.size == 0

    @given(st.integers(1, 4), st.integers(0, 3))
    def test_roundtrip(self, base, exponent):
        codec = ExpCodec(FinSet(base), FinSet(exponent))
        for code in range(codec.obj.size):
            assert codec.encode(codec.decode(code)) == code

    def test_digit_matches_decode(self):
        codec = ExpCodec(FinSet(3), FinSet(3))
        for code in range(codec.obj.size):
            digits = codec.decode(code)
            assert all(codec.digit(code, s) == digits[s] for s in range(3))


class TestProductMap:
    def test_identity(self):
        assert (
            product_map(identity(2), identity(3)).table == identity(6).table
        )

    def test_example(self):
        f = Morphism(FinSet(1), FinSet(1), (0,))
        g = Morphism(FinSet(2), FinSet(2), (1, 0))
        assert product_map(f, g).table == (1, 0)

    def test_functorial(self):
        fs = list(hom(2, 2))
        gs = list(hom(3, 3))
        for f1 in fs[:3]:
            for g1 in gs[:3]:
                for f2 in fs[:3]:
                    for g2 in gs[:3]:
                        lhs = product_map(compose(f2, f1), compose(g2, g1))
                        rhs = compose(product_map(f2, g2), product_map(f1, g1))
                        assert lhs.table == rhs.table


class TestCurryUncurry:
    @pytest.mark.parametrize("s,x,y", [(0, 2, 2), (1, 2, 3), (2, 2, 2), (2, 0, 3)])
    def test_mutual_inverse_exhaustive(self, s, x, y):
        codec = ProductCodec(FinSet(s), FinSet(x))
        exp = ExpCodec(FinSet(y), FinSet(s))
        for f in hom(codec.obj, FinSet(y)):
            assert uncurry(curry(f, codec), exp).table == f.table
        for g in hom(FinSet(x), exp.obj):
            assert curry(uncurry(g, exp), codec).table == g.table

    def test_counit_law(self):
        s, x, y = FinSet(2), FinSet(2), FinSet(3)
        codec = ProductCodec(s, x)
        ev = evaluation(y, s)
        for f in hom(codec.obj, y):
            recovered = compose(ev, product_map(identity(s), curry(f, codec)))
            assert recovered.table == f.table

    def test_curry_of_evaluation_is_identity(self):
        for ys, ss in [(2, 2), (3, 2), (2, 3), (1, 1)]:
            y, s = FinSet(ys), FinSet(ss)
            exp = ExpCodec(y, s)
            codec = ProductCodec(s, exp.obj)
            assert curry(evaluation(y, s), codec).table == identity(exp.obj).table

    def test_uncurry_identity_is_evaluation(self):
        # evaluation reads the digits itself, so it is compared with the
        # transpose it stands for at every size, empty ones included
        for ys, ss in iproduct(range(5), range(4)):
            y, s = FinSet(ys), FinSet(ss)
            exp = ExpCodec(y, s)
            ev = evaluation(ys, ss)
            assert ev == uncurry(identity(exp.obj), exp), (ys, ss)
            assert ev.dom is FinSet(ss * ys**ss) and ev.cod is y
            assert Morphism(ev.dom, ev.cod, ev.table) == ev

    def test_singleton_exponent_curry_of_projection(self):
        s, x = FinSet(1), FinSet(3)
        codec = ProductCodec(s, x)
        curried = curry(codec.proj_right(), codec)
        assert curried.table == identity(x).table

    def test_codec_mismatch_rejected(self):
        f = Morphism(FinSet(4), FinSet(2), (0, 1, 0, 1))
        with pytest.raises(FinSetError):
            curry(f, ProductCodec(FinSet(3), FinSet(2)))
        g = Morphism(FinSet(2), FinSet(4), (0, 3))
        with pytest.raises(FinSetError):
            uncurry(g, ExpCodec(FinSet(3), FinSet(2)))

    def test_empty_exponent(self):
        # S empty: Y^S is a point, uncurry lands on the empty product
        codec = ProductCodec(FinSet(0), FinSet(3))
        exp = ExpCodec(FinSet(2), FinSet(0))
        g = Morphism(FinSet(3), exp.obj, (0, 0, 0))
        u = uncurry(g, exp)
        assert u.dom.size == 0 and u.table == ()


class TestEvaluation:
    def test_singleton_state_is_codec_bijection(self):
        ev = evaluation(FinSet(2), FinSet(1))
        assert ev.table == (0, 1)

    def test_constant_function(self):
        y, s = FinSet(2), FinSet(2)
        exp = ExpCodec(y, s)
        const_one = exp.encode([1, 1])
        ev = evaluation(y, s)
        codec = ProductCodec(s, exp.obj)
        assert ev(codec.encode(0, const_one)) == 1
        assert ev(codec.encode(1, const_one)) == 1


class TestExpMap:
    def test_identity(self):
        assert exp_map(identity(3), FinSet(2)).table == identity(9).table

    def test_swap_example(self):
        f = Morphism(FinSet(2), FinSet(2), (1, 0))
        assert exp_map(f, FinSet(2)).table == (3, 2, 1, 0)

    def test_functorial_on_composites(self):
        s = FinSet(2)
        for f in hom(2, 3):
            for g in hom(3, 2):
                lhs = exp_map(compose(g, f), s)
                rhs = compose(exp_map(g, s), exp_map(f, s))
                assert lhs.table == rhs.table

    def test_array_branch_matches_compose(self):
        # 20**4 = 160,000 functions, enough for exp_map to build its table
        # with arrays.  The reference decodes every function at once through
        # evaluation, postcomposes with compose, and re-encodes with curry.
        s = FinSet(4)
        f = Morphism(FinSet(20), FinSet(7), tuple((3 * i + 1) % 7 for i in range(20)))
        ev = evaluation(f.dom, s)
        reference = curry(compose(f, ev), ProductCodec(s, ExpCodec(f.dom, s).obj))
        assert exp_map(f, s).table == reference.table

    def test_codes_past_int64(self):
        # 33**3 codes, past the 32 that always run on Python ints; the
        # codes reach 2**66, so the table is built on Python ints
        s = FinSet(3)
        f = Morphism(FinSet(33), FinSet(2**22), tuple(2**22 - 1 - 7 * i for i in range(33)))
        dom, cod = ExpCodec(f.dom, s), ExpCodec(f.cod, s)
        table = exp_map(f, s).table
        assert max(table) > 2**63
        for code, image in enumerate(table):
            assert image == cod.encode([f.table[d] for d in dom.decode(code)])

    def test_import_does_not_load_numpy(self):
        import monadlab

        src = Path(monadlab.__file__).resolve().parents[1]
        probe = "import sys, monadlab; sys.exit(3 if 'numpy' in sys.modules else 0)"
        env = {**os.environ, "PYTHONPATH": str(src)}
        assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


class TestFactorize:
    def test_injective_source(self):
        f = Morphism(FinSet(2), FinSet(4), (3, 1))
        fact = factorize(f)
        assert classify(fact.epi).iso
        assert fact.mono.table == f.table

    def test_surjective_source(self):
        f = Morphism(FinSet(3), FinSet(2), (0, 1, 0))
        fact = factorize(f)
        assert fact.mono.table == identity(2).table

    def test_least_preimage_ordering(self):
        fact = factorize(Morphism(FinSet(3), FinSet(3), (2, 2, 0)))
        assert fact.image.size == 2
        assert fact.epi.table == (0, 0, 1)
        assert fact.mono.table == (2, 0)

    def test_invariants_exhaustive_small(self):
        for dn in range(5):
            for cn in range(5):
                for f in hom(dn, cn):
                    fact = factorize(f)
                    assert compose(fact.mono, fact.epi).table == f.table
                    assert classify(fact.epi).epi
                    assert classify(fact.mono).mono
                    assert fact.image.size == len(set(f.table))


class TestClassify:
    def test_identity_flags(self):
        c = classify(identity(3))
        assert c.mono and c.epi and c.split_epi and c.iso

    def test_empty_domain_mono(self):
        c = classify(Morphism(FinSet(0), FinSet(2), ()))
        assert c.mono and not c.epi

    def test_constant_surjection(self):
        c = classify(Morphism(FinSet(2), FinSet(1), (0, 0)))
        assert c.epi and c.split_epi and not c.mono


class TestHom:
    def test_sizes(self):
        assert len(list(hom(2, 3))) == hom_size(2, 3) == 9
        assert len(list(hom(0, 0))) == 1
        assert len(list(hom(2, 0))) == 0


class TestSerialization:
    @given(morphisms())
    def test_roundtrip(self, f):
        assert morphism_loads(morphism_dumps(f)).table == f.table

    def test_schema(self):
        f = Morphism(FinSet(2), FinSet(3), (2, 0))
        assert json.loads(morphism_dumps(f)) == {"dom": 2, "cod": 3, "table": [2, 0]}

    def test_malformed_record(self):
        with pytest.raises(FinSetError):
            morphism_from_dict({"dom": 2})

    @pytest.mark.parametrize("table,message", [
        ("[0,0.5]", "table entries must be ints, got 0.5 at index 1"),
        ('["a"]', "table entries must be ints, got 'a' at index 0"),
        ("[0,true]", "table entries must be ints, got True at index 1"),
        ("1", "table must be a list of ints, got 1"),
    ])
    def test_non_int_entries_rejected(self, table, message):
        with pytest.raises(FinSetError) as err:
            morphism_loads(f'{{"dom":2,"cod":2,"table":{table}}}')
        assert str(err.value) == message


class TestLazyAttributes:
    """``finset._lazy``: a first read computes the value and keeps it in the
    instance's ``__dict__``; there is no lock, and no class of the package
    holds a ``functools.cached_property``, which takes one."""

    class Box:
        calls: list = []

        def __init__(self, n):
            self.n = n

        @_lazy
        def square(self):
            """n squared."""
            self.calls.append(self.n)
            return self.n * self.n

    def test_computes_once_per_instance(self):
        box = self.Box
        box.calls = []
        a, b = box(3), box(4)
        assert (a.square, a.square, b.square, b.square, a.square) == (9, 9, 16, 16, 9)
        assert box.calls == [3, 4]
        assert vars(a)["square"] == 9 and vars(b)["square"] == 16
        assert isinstance(box.square, _lazy) and box.square.__doc__ == "n squared."

    def test_assignment_seeds_the_value(self):
        box = self.Box
        box.calls = []
        a = box(3)
        a.square = 10
        assert a.square == 10 and box.calls == []
        del a.square  # back to the descriptor: computed on the next read
        assert a.square == 9 and box.calls == [3]

    def test_codecs_keep_their_values(self):
        for codec in (ProductCodec(FinSet(2), FinSet(3)), ExpCodec(FinSet(3), FinSet(2))):
            assert "obj" not in vars(codec)
            assert codec.obj is vars(codec)["obj"] is codec.obj
        exp = ExpCodec(FinSet(3), FinSet(4))
        assert exp._pows == (1, 3, 9, 27) and vars(exp)["_pows"] is exp._pows

    def test_racing_first_reads_agree(self):
        # 8 threads read the lazy attributes of fresh codecs at once, from
        # one barrier, switching as often as the interpreter allows: every
        # thread sees the same values
        threads_n, rounds = 8, 50
        barrier = threading.Barrier(threads_n, timeout=30)
        seen = [[] for _ in range(threads_n)]
        codecs = [
            (ProductCodec(FinSet(r + 1), FinSet(3)), ExpCodec(FinSet(r % 5 + 2), FinSet(r % 4 + 1)))
            for r in range(rounds)
        ]

        def read(i):
            for pair, exp in codecs:
                barrier.wait()
                seen[i].append((pair.obj, exp.obj, exp._pows))

        threads = [threading.Thread(target=read, args=(i,)) for i in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        expected = [
            (FinSet((r + 1) * 3), FinSet((r % 5 + 2) ** (r % 4 + 1)),
             tuple((r % 5 + 2) ** k for k in range(r % 4 + 1)))
            for r in range(rounds)
        ]
        assert all(got == expected for got in seen)

    def test_no_cached_property_in_the_package(self):
        # functools.cached_property locks on every first read before Python
        # 3.12; every lazy attribute of the package is a _lazy
        lazy = []
        for info in pkgutil.iter_modules(monadlab.__path__):
            module = importlib.import_module(f"monadlab.{info.name}")
            for cls in vars(module).values():
                if inspect.isclass(cls) and cls.__module__ == module.__name__:
                    for name, attr in vars(cls).items():
                        assert not isinstance(attr, functools.cached_property), (cls, name)
                        if isinstance(attr, _lazy):
                            lazy.append(f"{cls.__name__}.{name}")
        assert sorted(lazy) == [
            "BaseData.fold", "BaseData.mono_s", "CellLayout.ids", "ExpCodec._pows",
            "ExpCodec.obj", "ProductCodec.obj", "TAlgebra.structure",
        ]


#: (record, its field values, a field, another value for it)
RECORDS = [
    (ProductCodec, (FinSet(2), FinSet(3)), "left", FinSet(4)),
    (ExpCodec, (FinSet(3), FinSet(2)), "exponent", FinSet(0)),
    (LawCheck, ("associativity", "reduced", 48, False, 7), "ok", True),
]


class TestRecords:
    """The codecs and ``LawCheck`` fill their ``__dict__`` in one step, and
    stay frozen dataclasses: fields, ``==``, ``hash``, ``repr``,
    ``replace`` and pickling as a generated ``__init__`` would give."""

    @pytest.mark.parametrize("cls, values, name, other", RECORDS)
    def test_frozen(self, cls, values, name, other):
        record = cls(*values)
        for attr in (name, "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(record, attr, other)
            with pytest.raises(FrozenInstanceError):
                delattr(record, attr)
        assert record == cls(*values)

    @pytest.mark.parametrize("cls, values, name, other", RECORDS)
    def test_value_behaviour(self, cls, values, name, other):
        names = [f.name for f in fields(cls)]
        record, twin = cls(*values), cls(**dict(zip(names, values)))
        assert len(names) == len(values) and vars(record) == dict(zip(names, values))
        assert record == twin and record is not twin and hash(record) == hash(values)
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
        assert repr(record) == f"{cls.__name__}({shown})"
        changed = replace(record, **{name: other})
        assert type(changed) is cls and getattr(changed, name) == other and changed != record
        assert replace(record) == record
        assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)
        if cls is not LawCheck:  # a kept lazy value is no field
            record.obj
            assert record == twin and hash(record) == hash(twin) and repr(record) == repr(twin)

    def test_law_check_default_witness(self):
        check = LawCheck("mult_agreement", "full", 8, True)
        assert check.witness is None and check == LawCheck("mult_agreement", "full", 8, True, None)
        assert repr(check) == (
            "LawCheck(law='mult_agreement', mode='full', checked=8, ok=True, witness=None)"
        )
        assert replace(check, ok=False, witness=3).witness == 3
