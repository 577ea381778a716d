import copy
import dataclasses
import hashlib
import json
import pickle
import random
import time
from itertools import combinations, permutations, product
from math import factorial

import pytest

from monadlab._bulk import _INT_POINTS, _chunks, first_mismatch, value_at
import monadlab.algebra
from monadlab.algebra import (
    AlgebraViolation,
    _ConstrainedSearch,
    _assoc_sides,
    _integer_root,
    _lookup_violation,
    _update_violation,
    SearchCeilingExceeded,
    TAlgebra,
    algebra_dumps,
    algebra_from_dict,
    algebra_morphism,
    algebra_to_dict,
    canonical_structure,
    check_algebra,
    check_morphism,
    enumerate_algebras,
    fold_table,
    free_algebra,
    iso_classes,
    morphism_witness,
    read_presentation,
    update_codes,
)
from monadlab.finset import (
    ExpCodec, FinSet, FinSetError, Morphism, compose, exp_map, hom, identity,
)
from monadlab.monadicity import function_algebra
from monadlab.statemonad import StateMonadCtx


class TestCheckAlgebra:
    def test_free_algebra_validates(self):
        for s in (1, 2):
            ctx = StateMonadCtx(s)
            for xn in range(3):
                alg = free_algebra(ctx, FinSet(xn))
                assert isinstance(alg, TAlgebra)
                assert alg.carrier == ctx.t_obj(FinSet(xn))

    def test_function_algebras_validate(self, ctx2):
        for yn in range(4):
            assert isinstance(function_algebra(ctx2, yn), TAlgebra)

    def test_structure_is_the_table_given(self, ctx2, monkeypatch):
        # check_algebra seeds the lazy structure with h, so it is never
        # folded; a replaced algebra folds its own
        h = function_algebra(ctx2, 2).structure
        alg = check_algebra(ctx2, FinSet(4), Morphism(h.dom, h.cod, h.table))
        fresh = dataclasses.replace(alg)

        def fold_table(*args):
            raise AssertionError("h folded again")

        monkeypatch.setattr(monadlab.algebra, "fold_table", fold_table)
        assert alg.structure is vars(alg)["structure"] and alg.structure == h
        assert "structure" not in vars(fresh)
        monkeypatch.undo()
        assert fresh.structure == h and fresh.structure is not alg.structure

    def test_constant_structure_fails_unit(self, ctx2):
        x = FinSet(2)
        h = Morphism(ctx2.t_obj(x), x, (0,) * 16)
        result = check_algebra(ctx2, x, h)
        assert isinstance(result, AlgebraViolation)
        assert result.law == "unit" and result.witness == 1

    def test_corrupted_structure_fails(self, ctx2, twelve):
        good = twelve[0]
        table = list(good.structure.table)
        table[7] = (table[7] + 1) % 4
        result = check_algebra(
            ctx2, good.carrier, Morphism(good.structure.dom, good.carrier, table)
        )
        assert isinstance(result, AlgebraViolation)

    def test_type_mismatch_rejected(self, ctx2):
        with pytest.raises(FinSetError):
            check_algebra(ctx2, FinSet(2), identity(2))

    def test_empty_state_unit_forces_singleton(self):
        ctx = StateMonadCtx(0)
        ok = check_algebra(ctx, FinSet(1), Morphism(FinSet(1), FinSet(1), (0,)))
        assert isinstance(ok, TAlgebra)
        bad = check_algebra(ctx, FinSet(2), Morphism(FinSet(1), FinSet(2), (0,)))
        assert isinstance(bad, AlgebraViolation) and bad.law == "unit"


def _assoc_reference(ctx, x, h):
    """First TTX code where ``h . T(h)`` and ``h . mult`` differ, point by point."""
    s, xn = ctx.state.size, x.size
    tx = ctx.t_obj(x).size
    for w in range((s * tx) ** s):
        code, rest, p = 0, w, 1
        for _ in range(s):
            c, t = divmod(rest % (s * tx), tx)
            rest //= s * tx
            code += (c * xn + h[t]) * p
            p *= s * xn
        lhs, rhs = h[code], h[ctx.mult_at(x, w)]
        if lhs != rhs:
            return w, lhs, rhs
    return None


def _breaks_law(ctx, x, h, violation):
    """Whether the associativity witness breaks the law, with the sides reported."""
    left, right = _assoc_sides(ctx, x, h)
    w = violation.witness
    return value_at(left, w) == violation.lhs != violation.rhs == value_at(right, w)


def _square_reference(u, source, target):
    """First TX code where ``u . h`` and ``h' . T(u)`` differ, scanning all
    of TX: a code with digits ``(c_i, a_i)`` goes to ``u(h(code))`` on one
    side and to h' at the digits ``(c_i, u(a_i))`` on the other."""
    ctx = source.ctx
    s, xn, x2n = ctx.state.size, source.carrier.size, target.carrier.size
    return first_mismatch(
        ([range(s * xn)] * s, ctx.digit_weights(s * xn), (source.structure.table, u.table)),
        ([ctx.t_digits(u.table, x2n)] * s, ctx.digit_weights(s * x2n), (target.structure.table,)),
    )


def _relabeled(alg, perm):
    """The algebra relabeled along the permutation p of its carrier with
    table perm, ``p . h . T(p^-1)``: again an algebra, and a different one
    unless p is an automorphism."""
    x = alg.carrier
    inverse = [0] * x.size
    for i, v in enumerate(perm):
        inverse[v] = i
    ctx = alg.ctx
    relabeled = compose(Morphism(x, x, perm), alg.structure)
    result = check_algebra(ctx, x, compose(relabeled, ctx.t_map(Morphism(x, x, inverse))))
    assert isinstance(result, TAlgebra)
    return result


def _relabelings(alg):
    """The algebra and its relabelings along every transposition."""
    out = [alg]
    for a, b in combinations(range(alg.carrier.size), 2):
        swap = list(range(alg.carrier.size))
        swap[a], swap[b] = b, a
        out.append(_relabeled(alg, swap))
    return out


class TestWitnessOrder:
    """Witnesses past the Python-int prefix and the first array chunk of
    the scan are still the least failing codes."""

    def test_check_algebra_least_witness(self, ctx2):
        # TTX has 5000**2 codes; the kernel checks codes below 512 on Python
        # ints and 512..4095 in its first array chunk.  A one-cell mutant
        # fails in the first row of 5000 codes, so K(3), whose rows have 648,
        # no longer reaches past both.  check_algebra reports the first
        # failing presentation instance instead, which must break the law too
        k = function_algebra(ctx2, 5)
        h = list(k.structure.table)
        h[2000] = (h[2000] + 5) % 25
        left, right = _assoc_sides(ctx2, k.carrier, h)
        w, lhs, rhs = _assoc_reference(ctx2, k.carrier, h)
        starts = [chunk[0] for chunk in _chunks([5000, 5000])]
        assert starts[4:6] == [512, 4096] and starts[4] >= _INT_POINTS > starts[3]
        assert w >= 4096
        assert first_mismatch(left, right) == w
        assert (value_at(left, w), value_at(right, w)) == (lhs, rhs)
        result = check_algebra(ctx2, k.carrier, Morphism(k.structure.dom, k.carrier, tuple(h)))
        assert isinstance(result, AlgebraViolation) and result.law == "associativity"
        assert _breaks_law(ctx2, k.carrier, h, result)

    def test_morphism_witness_least_witness(self, ctx2):
        # between algebras the witness is the least failing update cell
        # (TestUpdateSquare); the scan of all of TX can fail first at a
        # smaller code that is no update cell
        k = function_algebra(ctx2, 4)
        u = exp_map(Morphism(FinSet(4), FinSet(4), (1, 3, 0, 2)), ctx2.state)
        assert morphism_witness(u, k, k) is None
        cells = set(update_codes(ctx2, 16))
        earlier = 0
        for target in _relabelings(k)[1:]:
            w, least = morphism_witness(u, k, target), _square_reference(u, k, target)
            assert (w is None) == (least is None)
            if w is not None:
                assert w in cells and least <= w
                earlier += least not in cells
        assert earlier


class TestPresentationCertificate:
    """check_algebra decides the laws by the lookup/update presentation at
    every size; it must agree with the full scan of TTX, and its witnesses
    must break the law."""

    def test_one_cell_mutant_rejected_at_three_states(self, ctx3):
        # TTX of K(2) has about 7 * 10^13 codes; this cell is neither an
        # update cell nor a graph, so only the fold comparison sees it
        k = function_algebra(ctx3, 2)
        h = list(k.structure.table)
        assert h[13144] == 4
        h[13144] = 3
        result = check_algebra(ctx3, k.carrier, Morphism(k.structure.dom, k.carrier, tuple(h)))
        assert isinstance(result, AlgebraViolation) and result.law == "associativity"
        assert _breaks_law(ctx3, k.carrier, h, result)
        with pytest.raises(FinSetError):
            algebra_from_dict({"s_size": 3, "x_size": 8, "h": h})

    def test_agrees_with_full_scan(self):
        # every algebra on these carriers, 30 one-cell mutants of each, and
        # 100 random tables keeping the unit law per carrier, each against
        # the unit law plus the kernel's scan of all of TTX
        rng = random.Random(2002)
        accepted = rejected = 0
        for s, sizes in ((1, (1, 2, 3)), (2, (1, 2, 3, 4)), (3, (1,))):
            ctx = StateMonadCtx(s)
            for xn in sizes:
                x = FinSet(xn)
                m = ctx.t_obj(x).size
                candidates = []
                for alg in enumerate_algebras(ctx, x):
                    h = alg.structure.table
                    candidates.append(h)
                    for _ in range(30 if xn > 1 else 0):
                        mutant = list(h)
                        cell = rng.randrange(m)
                        mutant[cell] = (mutant[cell] + rng.randrange(1, xn)) % xn
                        candidates.append(tuple(mutant))
                for _ in range(100):
                    table = [rng.randrange(xn) for _ in range(m)]
                    for v in range(xn):
                        table[ctx.unit_at(x, v)] = v
                    candidates.append(tuple(table))
                for h in candidates:
                    result = check_algebra(ctx, x, Morphism(ctx.t_obj(x), x, h))
                    assert isinstance(result, TAlgebra) == _full_scan_accepts(ctx, x, h), (
                        s, xn, h
                    )
                    if isinstance(result, TAlgebra):
                        assert result.checked == "presentation"
                        accepted += 1
                    elif result.law == "associativity":
                        assert _breaks_law(ctx, x, h, result), (s, xn, h)
                        rejected += 1
        assert accepted > 500 and rejected > 600

    def test_agrees_with_full_scan_at_the_empty_edges(self):
        # no states (the certificate has no digits) and an empty carrier
        # (it has no elements): every table of hom(TX, X)
        accepted = []
        for s, xn in [(0, xn) for xn in range(4)] + [(s, 0) for s in range(1, 4)]:
            ctx = StateMonadCtx(s)
            x = FinSet(xn)
            for structure in hom(ctx.t_obj(x), x):
                result = check_algebra(ctx, x, structure)
                assert isinstance(result, TAlgebra) == _full_scan_accepts(
                    ctx, x, structure.table
                ), (s, xn, structure.table)
                if isinstance(result, TAlgebra):
                    accepted.append((s, xn))
        assert accepted == [(0, 1), (1, 0), (2, 0), (3, 0)]


def _full_scan_accepts(ctx, x, h):
    """The algebra laws by definition: the unit law at every element, then
    the kernel's scan of all of TTX."""
    if any(h[ctx.unit_at(x, v)] != v for v in range(x.size)):
        return False
    return first_mismatch(*_assoc_sides(ctx, x, h)) is None


@pytest.mark.parametrize("s", range(4))
@pytest.mark.parametrize("broken", [0, 1, 2, 3])
def test_unit_law_read_as_one_slice(s, broken):
    """check_algebra reads the unit law as one strided slice of h, with the
    witness and left-hand side of a loop over ``unit_at``: the least element
    where it fails.  With no states every unit code is 0, where a slice
    would have step 0, so only a one-element carrier keeps the law."""
    ctx = StateMonadCtx(s)
    rng = random.Random(10 * s + broken)
    failed = 0
    for xn in range(1, 4):
        x = FinSet(xn)
        tx = ctx.t_obj(x)
        for _ in range(10):
            h = [rng.randrange(xn) for _ in range(tx.size)]
            for v in range(xn):
                h[ctx.unit_at(x, v)] = v
            if xn > 1:
                for v in rng.sample(range(xn), min(broken, xn)):
                    h[ctx.unit_at(x, v)] = (v + rng.randrange(1, xn)) % xn
            images = [h[ctx.unit_at(x, v)] for v in range(xn)]
            least = next((v for v in range(xn) if images[v] != v), None)
            result = check_algebra(ctx, x, Morphism(tx, x, h))
            if least is None:
                assert not isinstance(result, AlgebraViolation) or result.law != "unit"
            else:
                failed += 1
                assert isinstance(result, AlgebraViolation) and result.law == "unit"
                assert (result.witness, result.lhs, result.rhs) == (least, images[least], least)
    assert (failed > 0) == (broken > 0 or s == 0)


def _first_failing_stage(ctx, xn, h):
    """The first stage of the presentation read off h that fails, without
    check_algebra: an equation's name, ``"fold"``, or None for an algebra."""
    updates, look = read_presentation(ctx, xn, h)
    ups = [updates[c * xn:(c + 1) * xn] for c in range(ctx.state.size)]
    found = _update_violation(xn, ups) or _lookup_violation(xn, ups, look)
    if found is not None:
        return found[0]
    return "fold" if fold_table(ctx, xn, updates, look) != list(h) else None


def test_lookup_built_only_after_equation_1(ctx2, monkeypatch):
    """check_algebra builds the lookup, its one ``side_values`` call, only
    for a table whose updates pass equation 1, and then once."""
    k = function_algebra(ctx2, 2)
    x = k.carrier
    units = {ctx2.unit_at(x, v) for v in range(4)}
    cases = {}
    for t in range(k.structure.dom.size):
        for shift in (1, 2, 3):
            h = list(k.structure.table)
            h[t] = (h[t] + shift) % 4
            if t not in units:
                cases.setdefault(_first_failing_stage(ctx2, 4, h), h)
    # with every update 0, equations 1 and 2 hold and equation 3 fails:
    # l(s -> u_s(a)) = l(s -> 0) = h(unit(0)) = 0 for every a
    h = list(k.structure.table)
    for t in update_codes(ctx2, 4):
        h[t] = 0
    assert _first_failing_stage(ctx2, 4, h) == "lookup_of_updates"
    cases["lookup_of_updates"] = h
    cases.pop(None, None)
    assert set(cases) == {"update_after_update", "update_after_lookup", "lookup_of_updates", "fold"}

    built = []
    side_values = monadlab.algebra.side_values
    monkeypatch.setattr(
        monadlab.algebra, "side_values", lambda side: built.append(side) or side_values(side)
    )
    for stage, h in cases.items():
        built.clear()
        result = check_algebra(ctx2, x, Morphism(k.structure.dom, x, h))
        assert isinstance(result, AlgebraViolation) and result.law == "associativity"
        assert _breaks_law(ctx2, x, h, result), stage
        assert len(built) == (stage != "update_after_update"), stage


PRESENTATION_CASES = (
    [("enumerated", s, xn) for s, top in ((1, 4), (2, 4), (3, 1)) for xn in range(top + 1)]
    + [("function", s, y) for s in (1, 2, 3) for y in range(4)]
    + [("unvalidated", 2, 4), ("replaced", 2, 4)]
)


@pytest.mark.parametrize("kind,s,n", PRESENTATION_CASES)
def test_carried_presentation(kind, s, n):
    """An algebra's structure table is the fold of its ``updates`` and
    ``lookup``, however the algebra was made; on an algebra, read_presentation
    reads them back off it."""
    ctx = StateMonadCtx(s)
    if kind == "enumerated":
        algebras = enumerate_algebras(ctx, n)
    elif kind == "function":
        algebras = [function_algebra(ctx, n)]
    else:
        good = enumerate_algebras(ctx, n, method="transport")[0]
        before = good.structure.table
        # u_0(1), an update cell, which is no unit cell with two states
        updates = list(good.updates)
        updates[1] = (updates[1] + 1) % n
        updates = tuple(updates)
        if kind == "unvalidated":
            alg = TAlgebra(ctx, good.carrier, updates, good.lookup, checked="none")
        else:
            alg = dataclasses.replace(good, updates=updates)
        assert alg.checked == "none" and good.checked == "presentation"
        # h is refolded from the new updates, never carried over
        assert alg.structure.table == tuple(fold_table(ctx, n, updates, good.lookup))
        assert alg.structure.table[update_codes(ctx, n)[1]] == updates[1]
        assert alg.structure.table != before and good.structure.table == before
        assert isinstance(check_algebra(ctx, n, alg.structure), AlgebraViolation)
        return
    for alg in algebras:
        xn = alg.carrier.size
        assert alg.structure.table == tuple(fold_table(ctx, xn, alg.updates, alg.lookup))
        assert (alg.updates, alg.lookup) == read_presentation(ctx, xn, alg.structure.table)
        assert type(alg.updates) is tuple and type(alg.lookup) is tuple


def _unit_law_table(rng, ctx, xn):
    x = FinSet(xn)
    h = [rng.randrange(xn) for _ in range(ctx.t_obj(x).size)]
    for v in range(xn):
        h[ctx.unit_at(x, v)] = v
    return h


def _layout_cases():
    """``(s, xn, h)``: seeded unit-law tables at (2,4) and (2,9), every
    one-cell mutant of the twelve (2,4) algebras, the algebras plus random
    and unit-law tables at (1,3), (3,1) and (3,2), and every table with no
    states on carriers 0..3.  Every stage of check_algebra fails on some."""
    rng = random.Random(2021)
    cases = []
    for s, xn, count in ((2, 4, 300), (2, 9, 60)):
        ctx = StateMonadCtx(s)
        cases += [(s, xn, _unit_law_table(rng, ctx, xn)) for _ in range(count)]
    for alg in enumerate_algebras(StateMonadCtx(2), 4, method="transport"):
        for cell, shift in product(range(alg.structure.dom.size), (1, 2, 3)):
            h = list(alg.structure.table)
            h[cell] = (h[cell] + shift) % 4
            cases.append((2, 4, h))
    for s, xn in ((1, 3), (3, 1), (3, 2)):
        ctx = StateMonadCtx(s)
        m = ctx.t_obj(xn).size
        cases += [(s, xn, list(a.structure.table)) for a in enumerate_algebras(ctx, xn)]
        cases += [(s, xn, [rng.randrange(xn) for _ in range(m)]) for _ in range(50)]
        cases += [(s, xn, _unit_law_table(rng, ctx, xn)) for _ in range(50)]
    for xn in range(4):
        cases += [(0, xn, [v]) for v in range(xn)]
    return cases


def _verdict(ctx, xn, h):
    result = check_algebra(ctx, xn, Morphism(ctx.t_obj(xn), FinSet(xn), h))
    if isinstance(result, AlgebraViolation):
        return (result.law, result.witness, result.lhs, result.rhs)
    return ("algebra", result.updates, result.lookup)


def _square_cases():
    """``(u, source, target)``: every map between four of the twelve (2,4)
    algebras, both ways between (2,1) and (2,4), between the one-state
    algebras on 3 elements, and 300 seeded maps of K(2) at three states."""
    ctx1, ctx2 = StateMonadCtx(1), StateMonadCtx(2)
    twelve = enumerate_algebras(ctx2, 4, method="transport")
    one = enumerate_algebras(ctx2, 1)[0]
    ones3 = enumerate_algebras(ctx1, 3)
    k2 = function_algebra(StateMonadCtx(3), 2)
    pairs = [(a, b) for a in twelve[:4] for b in twelve[:4]]
    pairs += [(one, twelve[5]), (twelve[5], one)] + [(a, b) for a in ones3 for b in ones3]
    pairs.append((k2, k2))
    rng = random.Random(7)
    for source, target in pairs:
        xn, x2n = source.carrier.size, target.carrier.size
        maps = product(range(x2n), repeat=xn)
        if x2n**xn > 300:
            maps = [tuple(rng.randrange(x2n) for _ in range(xn)) for _ in range(300)]
        for table in maps:
            yield Morphism(source.carrier, target.carrier, table), source, target


def _digest(lines):
    return len(lines), hashlib.sha256("\n".join(map(repr, lines)).encode()).hexdigest()


class TestCellLayout:
    """check_algebra and its readers take the cells' places from one
    :class:`CellLayout` per context and carrier size; every verdict and
    witness stays what it was when each stage derived them inline.  The
    digests were recorded with that code."""

    def test_verdicts_unchanged(self):
        ctxs = {}
        verdicts = [_verdict(ctxs.setdefault(s, StateMonadCtx(s)), xn, h)
                    for s, xn, h in _layout_cases()]
        assert {v[0] for v in verdicts} == {"unit", "associativity", "algebra"}
        assert _digest(verdicts) == (
            2972, "d1907ae00cb5ac4adc49625d02ccfd15cdfaba0f3359c9b69b02966d20ac1518"
        )

    def test_morphism_witnesses_unchanged(self):
        witnesses = [morphism_witness(u, a, b) for u, a, b in _square_cases()]
        assert None in witnesses and len(set(witnesses)) > 2
        assert _digest(witnesses) == (
            4428, "40e2f543c599e886f082999e341dabdc38872c8eaab51731bd44a961ca5c8604"
        )

    def test_one_context_across_carriers(self):
        """One context checking carriers 2, 4, 9, 4 in turn, so its layouts
        are made and then reused, gives what fresh contexts give."""
        rng = random.Random(44)
        shared = StateMonadCtx(2)
        k3 = function_algebra(StateMonadCtx(2), 3).structure.table
        for xn in (2, 4, 9, 4):
            tables = [_unit_law_table(rng, shared, xn) for _ in range(30)]
            if xn == 9:
                tables += [k3]
                for cell in rng.sample(range(len(k3)), 30):
                    tables.append(list(k3))
                    tables[-1][cell] = (k3[cell] + 1) % 9
            elif xn == 4:
                tables += [a.structure.table for a in enumerate_algebras(StateMonadCtx(2), 4)]
            for h in tables:
                assert _verdict(shared, xn, h) == _verdict(StateMonadCtx(2), xn, h)
        assert shared.cell_layout(4) is shared.cell_layout(4)

    @pytest.mark.parametrize("s", range(4))
    def test_fields(self, s):
        ctx = StateMonadCtx(s)
        for xn in range(4):
            cells, x = ctx.cell_layout(xn), FinSet(xn)
            assert cells.carrier is x and cells.tx is ctx.t_obj(x)
            assert cells.ones == sum((s * xn) ** i for i in range(s))
            assert [cells.first + v * cells.ones for v in range(xn)] == list(ctx.unit(x).table)
            codes = [t for t in range(cells.tx.size) if len(set(ExpCodec(
                ctx.pair_obj(x), ctx.state).decode(t))) == 1] if s else []
            assert list(range(cells.tx.size))[cells.update_cells] == codes
            assert cells.ttx_weights == tuple((s * cells.tx.size) ** i for i in range(s))
            assert cells.ttx_ones == sum((s * cells.tx.size) ** i for i in range(s))
            assert cells.ids == tuple(range(xn)) and cells.ids is cells.ids

    def test_bad_inputs_still_raise(self):
        ctx2 = StateMonadCtx(2)
        h = Morphism(ctx2.t_obj(2), FinSet(2), [0] * 16)
        for carrier, message in ((True, "size must be an int, got True"),
                                 (-1, "size must be non-negative, got -1")):
            with pytest.raises(FinSetError, match=message):
                check_algebra(ctx2, carrier, h)
        # refused before any layout was looked up
        assert not [key for key in ctx2._cache if key[0] == "cells"]
        with pytest.raises(FinSetError, match=r"^structure map must be 16 -> 2, got 2 -> 2$"):
            check_algebra(ctx2, 2, identity(2))
        with pytest.raises(FinSetError, match=r"^structure map must be 64 -> 4, got 16 -> 2$"):
            check_algebra(ctx2, FinSet(4), h)
        # a carrier no table could fit: its layout holds nothing of its size
        huge = 10**15
        with pytest.raises(FinSetError, match=f"must be {(2 * huge) ** 2} -> {huge}, got 16 -> 2"):
            check_algebra(ctx2, huge, h)
        assert "ids" not in vars(ctx2.cell_layout(huge))
        # past what str() of an int converts, the sizes are given in bits
        with pytest.raises(FinSetError, match=r"^structure map must be <33222-bit int> -> "
                                              r"<16610-bit int>, got 16 -> 2$"):
            check_algebra(ctx2, FinSet(10**5000), h)


def _reference_violation(ctx, xn, h):
    """``(exit, (law, witness, lhs, rhs))`` for the first stage of
    check_algebra that fails on h, or None for an algebra, recomputed here
    stage by stage.  The TTX witness is summed digit by digit: its digits
    ``(c, t)`` in ``S x TX``, each weighted ``(|S|·|TX|)^i``."""
    s, x = ctx.state.size, FinSet(xn)
    m = ctx.t_obj(x).size
    units = [h[ctx.unit_at(x, v)] for v in range(xn)]
    v = next((v for v in range(xn) if units[v] != v), None)
    if v is not None:
        return "unit", ("unit", v, units[v], v)
    ones = sum((s * xn) ** i for i in range(s))
    updates, look = read_presentation(ctx, xn, h)
    ups = [updates[c * xn:(c + 1) * xn] for c in range(s)]
    found = _update_violation(xn, ups) or _lookup_violation(xn, ups, look)
    if found is None:
        fold = fold_table(ctx, xn, updates, look)
        w = next((t for t in range(m) if fold[t] != h[t]), None)
        if w is None:
            return None
        found = ("fold", (w,), fold[w], h[w])
        digits = [(c, w // (s * xn) ** c % (s * xn) * ones) for c in range(s)]
    elif found[0] == "update_after_update":
        c, d, a = found[1]
        digits = [(c, (d * xn + a) * ones)] * s
    elif found[0] == "update_after_lookup":
        c, g = found[1]
        graph = sum((i * xn + g // xn**i % xn) * (s * xn) ** i for i in range(s))
        digits = [(c, graph)] * s
    else:
        digits = [(c, (c * xn + found[1][0]) * ones) for c in range(s)]
    witness = sum((c * m + t) * (s * m) ** i for i, (c, t) in enumerate(digits))
    return found[0], ("associativity", witness, found[2], found[3])


EXITS = ("unit", "update_after_update", "update_after_lookup", "lookup_of_updates", "fold")


@pytest.fixture(scope="module")
def rejections():
    """``{exit: [(ctx, xn, h, (law, witness, lhs, rhs))]}`` over (1,1..4),
    (2,1..4) and (3,1..2): 40 seeded unit-law tables per carrier, and every
    one-cell mutant of every enumerated algebra."""
    rng = random.Random(29)
    found = {}
    for s, top in ((1, 4), (2, 4), (3, 2)):
        ctx = StateMonadCtx(s)
        for xn in range(1, top + 1):
            tables = [_unit_law_table(rng, ctx, xn) for _ in range(40)]
            for alg in enumerate_algebras(ctx, xn):
                for cell, shift in product(range(alg.structure.dom.size), range(1, xn)):
                    tables.append(list(alg.structure.table))
                    tables[-1][cell] = (tables[-1][cell] + shift) % xn
            for h in tables:
                reference = _reference_violation(ctx, xn, h)
                if reference is not None:
                    found.setdefault(reference[0], []).append((ctx, xn, h, reference[1]))
    return found


class TestViolations:
    """check_algebra builds each violation unchecked, and the TTX witnesses
    of equations 1 and 2 in closed form; what it returns must be the record
    the public constructor builds, at the code the digit-by-digit sum gives."""

    def test_witnesses_pinned(self, rejections):
        assert set(rejections) == set(EXITS)
        # both forms of the witness, at two and three states
        assert {ctx.state.size for exit in EXITS[1:] for ctx, *_ in rejections[exit]} == {2, 3}
        for exit, cases in rejections.items():
            for ctx, xn, h, expected in cases:
                got = check_algebra(ctx, xn, Morphism(ctx.t_obj(xn), FinSet(xn), h))
                assert (got.law, got.witness, got.lhs, got.rhs) == expected, (exit, h)

    @pytest.mark.parametrize("exit", EXITS)
    def test_built_record_is_the_public_one(self, rejections, exit):
        ctx, xn, h, expected = rejections[exit][-1]
        got = check_algebra(ctx, xn, Morphism(ctx.t_obj(xn), FinSet(xn), h))
        public = AlgebraViolation(*expected)
        assert type(got) is AlgebraViolation and got == public and hash(got) == hash(public)
        assert repr(got) == repr(public) and str(got) == str(public)
        assert not hasattr(got, "__dict__")
        for name in ("law", "witness", "lhs", "rhs"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(got, name, 0)
        for twin in (pickle.loads(pickle.dumps(got)), copy.deepcopy(got), copy.copy(got)):
            assert type(twin) is AlgebraViolation and twin == public and repr(twin) == repr(public)

    def test_keeps_slots(self):
        # a violation holds four slots and no __dict__, and its unchecked
        # builder's twin has the same slots
        assert AlgebraViolation.__slots__ == ("law", "witness", "lhs", "rhs")
        assert monadlab.algebra._UnfrozenViolation.__slots__ == AlgebraViolation.__slots__
        assert not hasattr(AlgebraViolation("unit", 0, 1, 0), "__dict__")


class TestIntegerRoot:
    def test_exact_beyond_float_precision(self):
        assert _integer_root((2**60 + 12345) ** 2, 2) == 2**60 + 12345
        assert _integer_root((2**60 + 12345) ** 2 + 1, 2) is None

    def test_beyond_float_range(self):
        assert _integer_root(10**400, 2) == 10**200
        assert _integer_root(10**400 - 1, 2) is None

    def test_small_powers(self):
        roots = {n: _integer_root(n, 3) for n in range(30)}
        assert {n: r for n, r in roots.items() if r is not None} == {0: 0, 1: 1, 8: 2, 27: 3}


class TestUpdateSquare:
    """morphism_witness decides the square by the update cells alone.  On
    algebras, relabeled so that some maps fail, it must agree with the scan
    of all of TX: the failing update cells are read off the scan, and the
    witness is the first of them."""

    def _agree(self, sources, targets, maps):
        ctx = sources[0].ctx
        cells = update_codes(ctx, sources[0].carrier.size)
        failed = 0
        for u in maps:
            tu = ctx.t_map(u)
            for source in sources:
                lhs = compose(u, source.structure).table
                for target in targets:
                    rhs = compose(target.structure, tu).table
                    bad = [t for t in cells if lhs[t] != rhs[t]]
                    w = morphism_witness(u, source, target)
                    assert w == (bad[0] if bad else None)
                    assert (w is None) == (lhs == rhs)
                    failed += w is not None
        return failed

    @pytest.mark.parametrize("s,y", [(1, 3), (2, 3), (3, 2)])
    def test_exponentiated_maps_into_relabelings(self, s, y):
        ctx = StateMonadCtx(s)
        k = function_algebra(ctx, y)
        maps = [exp_map(v, ctx.state) for v in hom(y, y)]
        failed = self._agree([k], _relabelings(k), maps)
        # with one state every algebra is the identity on its carrier
        assert failed if s > 1 else not failed

    def test_every_map_between_relabelings(self, ctx2):
        # a map off a morphism at one element that no update reaches fails
        # at that element's cells alone, here also at the last element
        k = function_algebra(ctx2, 2)
        algebras = _relabelings(k)
        assert self._agree(algebras, algebras, list(hom(4, 4)))


class TestMorphisms:
    def test_identity_is_morphism(self, twelve):
        for alg in twelve:
            assert check_morphism(identity(alg.carrier), alg, alg)

    def test_composition_closed(self, ctx2, twelve):
        a, b = twelve[0], twelve[1]
        maps_ab = [
            u for u in hom(a.carrier, b.carrier) if check_morphism(u, a, b)
        ]
        maps_ba = [
            u for u in hom(b.carrier, a.carrier) if check_morphism(u, b, a)
        ]
        for u in maps_ab[:5]:
            for v in maps_ba[:5]:
                composite = u.then(v)
                assert check_morphism(composite, a, a)

    def test_hom_count_between_function_algebras(self, ctx2):
        # maps K(2) -> K(3) correspond exactly to maps 2 -> 3
        a = function_algebra(ctx2, 2)
        b = function_algebra(ctx2, 3)
        count = sum(
            1 for u in hom(a.carrier, b.carrier) if check_morphism(u, a, b)
        )
        assert count == 9

    def test_witness_reported(self, ctx2, twelve):
        a = twelve[0]
        bad = next(
            u
            for u in hom(a.carrier, a.carrier)
            if not check_morphism(u, a, a)
        )
        assert morphism_witness(bad, a, a) is not None
        with pytest.raises(FinSetError):
            algebra_morphism(bad, a, a)

    def test_validated_constructor(self, twelve):
        a = twelve[0]
        am = algebra_morphism(identity(a.carrier), a, a)
        assert am.map.table == identity(a.carrier).table

    def test_type_mismatch(self, ctx2, twelve):
        with pytest.raises(FinSetError):
            morphism_witness(identity(3), twelve[0], twelve[0])


class TestFreeAlgebra:
    def test_small_carriers(self, ctx1, ctx2):
        assert free_algebra(ctx1, FinSet(2)).carrier.size == 2
        assert free_algebra(ctx2, FinSet(1)).carrier.size == 4

    def test_free_on_point_appears_in_classification(self, ctx2, twelve):
        alg = free_algebra(ctx2, FinSet(1))
        assert alg.structure.table in [a.structure.table for a in twelve]

    def test_mult_is_morphism_from_double_free(self, ctx2):
        x = FinSet(1)
        free1 = free_algebra(ctx2, x)
        free2 = free_algebra(ctx2, ctx2.t_obj(x))
        assert check_morphism(ctx2.mult(x), free2, free1)


class TestEnumerate:
    def test_singleton_state_unique(self, ctx1):
        for xn in range(5):
            assert len(enumerate_algebras(ctx1, xn, method="brute")) == 1
            assert len(enumerate_algebras(ctx1, xn, method="constrained")) == 1

    def test_no_structures_on_two_with_two_states(self, ctx2):
        assert enumerate_algebras(ctx2, 2, method="brute") == []
        assert enumerate_algebras(ctx2, 2, method="constrained") == []

    def test_twelve_on_four_with_two_states(self, ctx2, twelve):
        cons = enumerate_algebras(ctx2, 4, method="constrained")
        assert len(twelve) == len(cons) == 12
        assert [a.structure.table for a in twelve] == [
            a.structure.table for a in cons
        ]

    def test_brute_equals_constrained_where_feasible(self):
        cases = [(1, 0), (1, 3), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1)]
        for s, xn in cases:
            ctx = StateMonadCtx(s)
            brute = enumerate_algebras(ctx, xn, method="brute")
            cons = enumerate_algebras(ctx, xn, method="constrained")
            assert [a.structure.table for a in brute] == [
                a.structure.table for a in cons
            ]

    @pytest.mark.parametrize(
        "s,xn",
        [(1, xn) for xn in range(7)] + [(2, xn) for xn in range(5)] + [(3, 0), (3, 1)],
    )
    def test_constrained_equals_transport(self, s, xn):
        # the symmetry-pruned search, closed over orbits, against the oracle
        # that conjugates function-space structures and searches nothing
        ctx = StateMonadCtx(s)
        cons = enumerate_algebras(ctx, xn, method="constrained")
        trans = enumerate_algebras(ctx, xn, method="transport")
        assert [a.structure.table for a in cons] == [
            a.structure.table for a in trans
        ]

    @pytest.mark.parametrize("xn", [6, 7, 8])
    def test_non_squares_refuted_under_default_ceiling(self, ctx2, xn):
        assert enumerate_algebras(ctx2, xn, method="constrained") == []

    @pytest.mark.parametrize("xn", [2, 3, 4, 5])
    def test_non_cubes_refuted_under_default_ceiling(self, ctx3, xn):
        assert enumerate_algebras(ctx3, xn, method="constrained") == []

    def test_pruned_search_keeps_the_orbit_leader(self, ctx2, twelve):
        # the 12 algebras on 4 elements form one orbit; the search itself
        # keeps only the one whose update cells are lex-least
        search = _ConstrainedSearch(ctx2, FinSet(4), 10**7)
        assert len(search.run()) == 12
        leader = min(
            (a.structure.table for a in twelve),
            key=lambda h: [h[t] for t in update_codes(ctx2, 4)],
        )
        assert search.solutions == [leader]

    def test_constrained_work_counted_by_hand(self, ctx3):
        # one carrier element: no transposition to compare or close over.
        # One value tried (u_0(0) = 0), two cells forced (u_1(0), u_2(0)),
        # one lookup entry, and the 27-entry fold of the only leaf
        search = _ConstrainedSearch(ctx3, FinSet(1), 10**7)
        assert len(search.run()) == 1
        assert search.work == 1 + 2 + 1 + 27

    def test_relabeling_test_stops_at_the_first_unknown(self, ctx2):
        # U = (u_0(0), u_0(1), u_1(0), u_1(1)); the one transposition t
        # reads (t.U)[(c, v)] = t(U[(c, t(v))])
        search = _ConstrainedSearch(ctx2, FinSet(2), 10**7)
        # position 0 compares t(U[1]) = t(1) = 0 with 1: smaller, so prune
        search.u = [1, 1, None, None]
        assert search._relabeling_smaller()
        # position 0 reads the unknown U[1], so the comparison stops there,
        # though position 2 would compare t(U[3]) = 0 with 1
        search.u = [0, None, 1, 1]
        assert not search._relabeling_smaller()

    def test_transport_on_non_power_is_empty(self, ctx2):
        assert enumerate_algebras(ctx2, 3, method="transport") == []

    def test_empty_carrier(self, ctx2):
        algebras = enumerate_algebras(ctx2, 0)
        assert len(algebras) == 1 and algebras[0].structure.table == ()

    def test_results_sorted(self, twelve):
        tables = [a.structure.table for a in twelve]
        assert tables == sorted(tables)

    def test_refuses_empty_state(self):
        with pytest.raises(FinSetError):
            enumerate_algebras(StateMonadCtx(0), 2)

    def test_unknown_method(self, ctx2):
        with pytest.raises(FinSetError):
            enumerate_algebras(ctx2, 2, method="magic")

    def test_brute_ceiling(self, ctx2):
        with pytest.raises(SearchCeilingExceeded):
            enumerate_algebras(ctx2, 4, method="brute")

    def test_constrained_guard_at_three_states(self, ctx3):
        # (3,2) completes empty; one unit below the work it needs raises
        needed = _ConstrainedSearch(ctx3, FinSet(2), 10**7)
        assert needed.run() == []
        with pytest.raises(SearchCeilingExceeded):
            _ConstrainedSearch(ctx3, FinSet(2), needed.work - 1).run()

    def test_constrained_work_guard(self, ctx2):
        # (2,5) needs about 1,900 work
        with pytest.raises(SearchCeilingExceeded):
            enumerate_algebras(ctx2, 5, method="constrained", ceiling=1_000)

    def test_transport_ceiling(self, ctx3):
        with pytest.raises(SearchCeilingExceeded):
            enumerate_algebras(ctx3, 8, method="transport")

    def test_bad_ceiling(self, ctx2):
        with pytest.raises(FinSetError):
            enumerate_algebras(ctx2, 2, ceiling=0)


class TestCardinalityClassification:
    def test_two_states_existence_pattern(self, ctx2, twelve):
        # structures exist exactly on perfect-square carriers
        counts = {
            xn: len(enumerate_algebras(ctx2, xn)) for xn in range(5)
        }
        assert counts == {0: 1, 1: 1, 2: 0, 3: 0, 4: 12}

    def test_two_states_larger_square_has_structure(self, ctx2):
        # carrier 9 = 3^2: the function algebra on 3 is a witness
        alg = function_algebra(ctx2, 3)
        assert alg.carrier.size == 9

    def test_three_states_cube_has_structure(self, ctx3):
        alg = function_algebra(ctx3, 2)
        assert alg.carrier.size == 8
        assert alg.checked == "presentation"

    def test_count_matches_relabeling_conjecture(self, twelve):
        assert len(twelve) == factorial(4) // factorial(2)


class TestIsoClasses:
    def test_twelve_form_one_class(self, twelve):
        assert len(iso_classes(twelve)) == 1

    def test_canonical_form_is_invariant(self, twelve):
        forms = {canonical_structure(a) for a in twelve}
        assert len(forms) == 1

    def test_canonical_form_is_least_over_all_relabelings(self, ctx2, twelve):
        x = twelve[0].carrier
        for alg in twelve:
            h = alg.structure.table
            least = None
            for perm in permutations(range(x.size)):
                inv = [0] * x.size
                for i, v in enumerate(perm):
                    inv[v] = i
                t_inv = ctx2.t_map(Morphism(x, x, tuple(inv))).table
                relabeled = tuple(perm[h[t_inv[w]]] for w in range(len(h)))
                least = relabeled if least is None else min(least, relabeled)
            assert canonical_structure(alg) == least

    def test_canonical_form_of_a_large_singleton_orbit(self, ctx1):
        # one state, 9 elements: the only algebra is its own orbit, though
        # the carrier has 9! relabelings
        k = function_algebra(ctx1, 9)
        assert canonical_structure(k) == k.structure.table


class TestSerialization:
    def test_roundtrip(self, twelve):
        alg = twelve[0]
        record = json.loads(algebra_dumps(alg))
        assert record["s_size"] == 2 and record["x_size"] == 4
        back = algebra_from_dict(record)
        assert back.structure.table == alg.structure.table

    def test_invalid_record_rejected(self):
        with pytest.raises(FinSetError):
            algebra_from_dict({"s_size": 2, "x_size": 2, "h": [0] * 16})

    @pytest.mark.parametrize("s_size", [3000, 10**6])
    def test_huge_state_object_refused_at_once(self, s_size):
        # |TX| = (2 * s_size)**s_size is compared with len(h) before TX is
        # built; at 3,000 states building it raised a plain ValueError
        start = time.perf_counter()
        with pytest.raises(FinSetError, match="h has 1 entries"):
            algebra_from_dict({"s_size": s_size, "x_size": 2, "h": [0]})
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("entry,message", [
        (0.0, "h entries must be ints, got 0.0 at index 5"),
        ("0", "h entries must be ints, got '0' at index 5"),
        (False, "h entries must be ints, got False at index 5"),
    ])
    def test_non_int_entries_rejected(self, twelve, entry, message):
        record = algebra_to_dict(twelve[0])
        record["h"][5] = entry
        with pytest.raises(FinSetError) as err:
            algebra_from_dict(record)
        assert str(err.value) == message
