import random
from dataclasses import replace
from itertools import product

import pytest

from monadlab import _bulk, algebra, monadicity
from monadlab._bulk import value_at
from monadlab.algebra import (
    TAlgebra,
    check_algebra,
    check_morphism,
    enumerate_algebras,
    fold_side,
    morphism_witness,
    read_presentation,
)
from monadlab.finset import (
    ExpCodec,
    FinSet,
    FinSetError,
    Morphism,
    classify,
    compose,
    curry,
    evaluation,
    exp_map,
    hom,
    identity,
    product_map,
)
from monadlab.monadicity import (
    CheckTally,
    base_iso,
    base_map,
    check_suite,
    compare_inverse,
    compare_is_algebra_map,
    compare_retraction,
    compare_section,
    empty_state_diagnostic,
    epi_section,
    extract_base,
    function_algebra,
    function_algebra_map,
    verify_monadicity,
)
from monadlab.statemonad import StateMonadCtx
from test_algebra import _relabeled, _relabelings, _square_reference


class TestFunctionAlgebra:
    def test_carrier_sizes(self, ctx2):
        assert function_algebra(ctx2, 2).carrier.size == 4
        assert function_algebra(ctx2, 0).carrier.size == 0
        assert function_algebra(ctx2, 1).carrier.size == 1

    def test_structure_among_classification(self, ctx2, twelve):
        ka = function_algebra(ctx2, 2)
        assert ka.structure.table in [a.structure.table for a in twelve]

    def test_singleton_state(self, ctx1):
        ka = function_algebra(ctx1, 3)
        assert ka.carrier.size == 3
        assert ka.structure.table == identity(3).table

    def test_empty_base(self, ctx2):
        ka = function_algebra(ctx2, 0)
        assert ka.structure.table == ()

    @pytest.mark.parametrize(
        "s,y", [(1, y) for y in range(7)] + [(2, y) for y in range(5)] + [(3, y) for y in range(4)]
    )
    def test_fold_is_the_exponentiated_evaluation(self, s, y):
        # the closed form against the exponentiated evaluation, the
        # function algebra's structure map by definition
        ctx = StateMonadCtx(s)
        ka = function_algebra(ctx, y)
        reference = exp_map(evaluation(FinSet(y), ctx.state), ctx.state)
        assert ka.checked == "presentation"
        assert ka.structure.table == reference.table
        checked = check_algebra(ctx, ka.carrier, reference)
        assert isinstance(checked, TAlgebra)
        assert (checked.updates, checked.lookup) == (ka.updates, ka.lookup)

    def test_check_suite_builds_no_structure(self):
        ka = function_algebra(StateMonadCtx(3), 4)
        assert all(check_suite(ka).values())
        assert "structure" not in vars(ka)

    def test_repr_builds_no_large_structure(self, ctx1, ctx2):
        big = function_algebra(ctx2, 2)  # |TX| = 64
        assert repr(big) == "TAlgebra(s=2, x=4, h=...)"
        assert "structure" not in vars(big)
        small = function_algebra(ctx1, 3)  # |TX| = 3
        assert repr(small) == "TAlgebra(s=1, x=3, h=[0, 1, 2])"

    def test_map_functorial(self, ctx2):
        for f in hom(2, 3):
            for g in hom(3, 2):
                kf = function_algebra_map(ctx2, f)
                kg = function_algebra_map(ctx2, g)
                kgf = function_algebra_map(ctx2, compose(g, f))
                assert kgf.map.table == compose(kg.map, kf.map).table
        y = FinSet(3)
        assert (
            function_algebra_map(ctx2, identity(y)).map.table
            == identity(ExpCodec(y, ctx2.state).obj).table
        )

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_every_exponentiated_map_is_algebra_morphism(self, s):
        ctx = StateMonadCtx(s)
        for yn in range(4):
            src = function_algebra(ctx, yn)
            for zn in range(4):
                dst = function_algebra(ctx, zn)
                for v in hom(yn, zn):
                    assert check_morphism(exp_map(v, ctx.state), src, dst)


class TestExtractBase:
    def test_bases_of_the_twelve(self, twelve):
        for alg in twelve:
            data = extract_base(alg)
            assert data.base.size == 2
            assert compose(data.mono, data.epi).table == data.reach.table
            assert classify(data.epi).epi and classify(data.mono).mono

    def test_singleton_state_base_is_carrier(self, ctx1):
        for alg in enumerate_algebras(ctx1, 3):
            data = extract_base(alg)
            assert data.base.size == 3

    def test_function_algebra_base_recovers(self, ctx2):
        for yn in range(4):
            data = extract_base(function_algebra(ctx2, yn))
            assert data.base.size == yn

    def test_transpose_triangle(self, ctx2, twelve):
        for alg in twelve:
            data = extract_base(alg)
            lhs = compose(exp_map(data.mono, ctx2.state), data.compare)
            rhs = curry(data.reach, ctx2.pair_codec(alg.carrier))
            assert lhs.table == rhs.table


class TestCompareInverse:
    def test_two_sided_inverse_on_the_twelve(self, twelve):
        for alg in twelve:
            data = extract_base(alg)
            inv = compare_inverse(data)
            assert compose(inv, data.compare).table == identity(alg.carrier).table
            dom = inv.dom
            assert compose(data.compare, inv).table == identity(dom).table

    def test_singleton_state(self, ctx1):
        for alg in enumerate_algebras(ctx1, 4):
            data = extract_base(alg)
            inv = compare_inverse(data)
            assert compose(inv, data.compare).table == identity(alg.carrier).table

    @pytest.mark.parametrize("y", [1, 2])
    def test_two_sided_inverse_at_three_states(self, ctx3, y):
        data = extract_base(function_algebra(ctx3, y))
        inv = compare_inverse(data)
        assert compose(inv, data.compare).table == identity(data.algebra.carrier).table
        assert compose(data.compare, inv).table == identity(inv.dom).table

    def test_agreement_with_retraction_and_section(self, twelve):
        for alg in twelve:
            data = extract_base(alg)
            inv = compare_inverse(data)
            assert compare_retraction(data).table == inv.table
            for s0 in (0, 1):
                assert compare_section(data, s0).table == inv.table


class TestRetractionAndSection:
    def test_fold_reads_match_the_composites(self, ctx2, twelve):
        # both read h at |Y^S| codes from the fold; the reference composes
        # with the whole structure table
        algebras = list(twelve) + [function_algebra(ctx2, y) for y in range(4)]
        for alg in algebras:
            data = extract_base(alg)
            mono_s = exp_map(data.mono, ctx2.state)
            graph = compose(ctx2.graph_map(alg.carrier), mono_s)
            assert compare_retraction(data) == compose(alg.structure, graph)
            for s0 in (0, 1):
                sigma_s = exp_map(epi_section(data, s0), ctx2.state)
                assert compare_section(data, s0) == compose(alg.structure, sigma_s)

    def test_retraction_identity(self, twelve):
        for alg in twelve:
            data = extract_base(alg)
            retr = compare_retraction(data)
            assert compose(retr, data.compare).table == identity(alg.carrier).table

    def test_section_identities_for_every_chosen_state(self, twelve):
        for alg in twelve:
            data = extract_base(alg)
            exp_obj = ExpCodec(data.base, alg.ctx.state).obj
            for s0 in (0, 1):
                sigma = epi_section(data, s0)
                assert compose(data.epi, sigma).table == identity(data.base).table
                big = compare_section(data, s0)
                assert compose(data.compare, big).table == identity(exp_obj).table

    def test_section_requires_chosen_state(self):
        # an empty-state context has no chosen state and hence no section
        ctx0 = StateMonadCtx(0)
        alg = check_algebra(ctx0, FinSet(1), Morphism(FinSet(1), FinSet(1), (0,)))
        data0 = extract_base(alg)
        with pytest.raises(FinSetError):
            epi_section(data0, 0)

    @pytest.mark.parametrize("s,x", [(1, 3), (2, 4), (2, 1), (3, 1)])
    def test_section_is_the_categorical_composite(self, s, x):
        algebras = enumerate_algebras(StateMonadCtx(s), FinSet(x))
        assert algebras
        for alg in algebras:
            _assert_section_composites(extract_base(alg))

    def test_section_composite_on_function_algebras(self):
        ctx = StateMonadCtx(3)
        for y in (2, 3):
            _assert_section_composites(extract_base(function_algebra(ctx, y)))

    def test_section_reads_no_chosen_eval_on_the_pair_object(self):
        # on K(4) at |S| = 3, S x X has 192 elements: chosen_eval there
        # would be a 192**3-entry table for each chosen state
        ctx = StateMonadCtx(3)
        assert all(check_suite(function_algebra(ctx, 4)).values())
        built = {key[:2] for key in ctx._cache}
        assert not built & {("chosen_eval", 192), ("restrict", 192)}


def _assert_section_composites(data):
    """``epi_section`` at every chosen state equals the composite that
    evaluates the unit at that state, and other states are refused."""
    ctx, x = data.algebra.ctx, data.algebra.carrier
    embed = compose(ctx.unit(x), data.mono)
    for s0 in range(ctx.state.size):
        assert epi_section(data, s0) == compose(ctx.chosen_eval(ctx.pair_obj(x), s0), embed)
    for bad in (-1, ctx.state.size):
        with pytest.raises(FinSetError):
            epi_section(data, bad)


class TestCompareIsAlgebraMap:
    def test_holds_on_the_twelve(self, twelve):
        for alg in twelve:
            assert compare_is_algebra_map(extract_base(alg))

    def test_holds_at_singleton_state(self, ctx1):
        for alg in enumerate_algebras(ctx1, 3):
            assert compare_is_algebra_map(extract_base(alg))

    @pytest.mark.parametrize("s,x", [(2, 4), (3, 1)] + [(1, x) for x in range(7)])
    def test_matches_the_square_on_the_function_algebra(self, s, x):
        # the reference builds K(Y)'s whole structure and reads the square
        # off its update cells; compare is also changed in each entry
        ctx = StateMonadCtx(s)
        for alg in enumerate_algebras(ctx, x):
            data = extract_base(alg)
            target = function_algebra(ctx, data.base)
            assert compare_is_algebra_map(data)
            assert morphism_witness(data.compare, alg, target) is None
            for changed in _one_entry_changes(data.compare):
                expected = morphism_witness(changed, alg, target) is None
                assert compare_is_algebra_map(replace(data, compare=changed)) == expected

    def test_changed_compare_detected(self, twelve):
        # at two states any one entry changed breaks the square
        for alg in twelve:
            data = extract_base(alg)
            for changed in _one_entry_changes(data.compare):
                assert not compare_is_algebra_map(replace(data, compare=changed))

    def test_corrupted_structure_detected(self, ctx2, twelve):
        # corrupt one entry away from the unit image; the comparison square
        # must break even though the data still typechecks
        alg = twelve[0]
        table = list(alg.structure.table)
        unit_cells = {alg.ctx.unit_at(alg.carrier, v) for v in range(4)}
        cell = next(t for t in range(len(table)) if t not in unit_cells)
        table[cell] = (table[cell] + 1) % 4
        bad = TAlgebra(
            alg.ctx,
            alg.carrier,
            *read_presentation(alg.ctx, 4, tuple(table)),
            checked="none",
        )
        assert bad.updates != alg.updates  # the cell is an update cell
        data = extract_base(bad)
        assert not (
            compare_is_algebra_map(data)
            and compose(compare_inverse(data), data.compare).table
            == identity(alg.carrier).table
        )


def _one_entry_changes(m):
    """The maps that differ from m in exactly one entry."""
    for v, old in enumerate(m.table):
        for b in range(m.cod.size):
            if b != old:
                yield Morphism(m.dom, m.cod, m.table[:v] + (b,) + m.table[v + 1:])


class TestBaseMap:
    def test_identity(self, twelve):
        data = extract_base(twelve[0])
        lu = base_map(identity(twelve[0].carrier), data, data)
        assert lu.table == identity(data.base).table

    def test_commutes_with_surjections(self, ctx2):
        d2 = extract_base(function_algebra(ctx2, 2))
        d3 = extract_base(function_algebra(ctx2, 3))
        for v in hom(2, 3):
            u = exp_map(v, ctx2.state)
            lu = base_map(u, d2, d3)
            lhs = compose(lu, d2.epi)
            rhs = compose(d3.epi, product_map(identity(ctx2.state), u))
            assert lhs.table == rhs.table

    def test_functorial_on_exponentiated_maps(self, ctx2):
        data = {
            yn: extract_base(function_algebra(ctx2, yn))
            for yn in range(4)
        }
        for f in hom(2, 3):
            for g in hom(3, 2):
                uf = exp_map(f, ctx2.state)
                ug = exp_map(g, ctx2.state)
                lhs = base_map(compose(ug, uf), data[2], data[2])
                rhs = compose(
                    base_map(ug, data[3], data[2]), base_map(uf, data[2], data[3])
                )
                assert lhs.table == rhs.table

    def test_fiber_collision_detected(self, ctx2, twelve):
        # a map that is not an algebra morphism hits a fiber collision
        a = twelve[0]
        data = extract_base(a)
        bad = next(
            u for u in hom(a.carrier, a.carrier) if not check_morphism(u, a, a)
        )
        with pytest.raises(FinSetError):
            base_map(bad, data, data)


class TestBaseIso:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_iso_and_equations(self, s):
        ctx = StateMonadCtx(s)
        for yn in range(4):
            y = FinSet(yn)
            data = extract_base(function_algebra(ctx, y))
            xi = base_iso(ctx, y, data)
            assert classify(xi).iso
            assert data.base.size == yn
            assert compose(xi, data.epi).table == evaluation(y, ctx.state).table
            assert compose(ctx.const_map(y), xi).table == data.mono.table

    def test_mono_image_is_constant_codes(self, ctx2):
        for yn in range(4):
            y = FinSet(yn)
            data = extract_base(function_algebra(ctx2, y))
            assert set(data.mono.table) == set(ctx2.const_map(y).table)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_naturality(self, s):
        ctx = StateMonadCtx(s)
        datas = {
            yn: extract_base(function_algebra(ctx, yn))
            for yn in range(4)
        }
        isos = {yn: base_iso(ctx, FinSet(yn), datas[yn]) for yn in range(4)}
        for y1 in range(4):
            for y2 in range(4):
                for v in hom(y1, y2):
                    lv = base_map(exp_map(v, ctx.state), datas[y1], datas[y2])
                    lhs = compose(isos[y2], lv)
                    rhs = compose(v, isos[y1])
                    assert lhs.table == rhs.table

    def test_requires_nonempty_state(self):
        ctx0 = StateMonadCtx(0)
        data = extract_base(function_algebra(ctx0, 2))
        with pytest.raises(FinSetError, match="needs a nonempty state object"):
            base_iso(ctx0, 2, data)


class TestCheckSuite:
    def test_all_green_on_the_twelve(self, twelve):
        for alg in twelve:
            suite = check_suite(alg)
            assert all(suite.values()), suite

    def test_all_green_on_function_algebras(self, ctx2, ctx3):
        for ctx in (ctx2, ctx3):
            for yn in range(3):
                suite = check_suite(function_algebra(ctx, yn))
                assert all(suite.values()), (ctx.state.size, yn, suite)


class TestSharedComparisonData:
    """check_suite reads mono^S and the fold of U and l from BaseData, built
    once per instance; the comparison maps must equal the tables built from
    a fresh exp_map and fold_side."""

    def test_matches_fresh_tables(self, ctx2, twelve):
        algebras = list(twelve) + [function_algebra(ctx2, y) for y in range(4)]
        for alg in algebras:
            data = extract_base(alg)
            x, state = alg.carrier, ctx2.state
            mono_s = exp_map(data.mono, state)
            fold = fold_side(ctx2, x.size, alg.updates, alg.lookup)
            for _ in range(2):  # the second round reads the kept data
                assert compare_inverse(data).table == tuple(alg.lookup[g] for g in mono_s.table)
                assert compare_retraction(data).table == tuple(
                    value_at(fold, ctx2.graph_at(x, g)) for g in mono_s.table
                )
                for s0 in (0, 1):
                    sigma_s = exp_map(epi_section(data, s0), state)
                    assert compare_section(data, s0).table == tuple(
                        value_at(fold, w) for w in sigma_s.table
                    )
            assert data.mono_s == mono_s
            assert data.fold == fold

    def test_replace_keeps_no_stale_data(self, twelve):
        # the twelve share one base size, so replace can swap the algebra
        # under the same epi and mono; the fold must be the new algebra's
        data = extract_base(twelve[0])
        # reading both builds and keeps data's mono^S and fold
        assert compare_retraction(data).table == compare_inverse(data).table
        for other in twelve[1:]:
            swapped = replace(data, algebra=other)
            assert swapped.fold == fold_side(
                other.ctx, other.carrier.size, other.updates, other.lookup
            )
            assert compare_inverse(swapped).table == tuple(
                other.lookup[g] for g in data.mono_s.table
            )

    def test_replace_recomputes_lazy_data(self, ctx2, twelve):
        # replace starts a fresh instance, which builds mono^S and the fold
        # of its own fields on first read
        data, other = extract_base(twelve[0]), extract_base(twelve[-1])
        assert data.mono != other.mono
        data.mono_s, data.fold  # read both, so data keeps them
        swapped = replace(data, algebra=other.algebra, mono=other.mono)
        assert "mono_s" not in vars(swapped) and "fold" not in vars(swapped)
        assert swapped.mono_s == exp_map(other.mono, ctx2.state) != data.mono_s
        assert swapped.fold == other.fold != data.fold

    def test_verify_builds_each_base_and_section_once(self, monkeypatch):
        # one extract_base per suite (the function side runs its suite on
        # the base it extracted) and one epi section per state and suite
        calls = {"extract_base": 0, "epi_section": 0, "compare_section": 0}
        for name in calls:
            def counted(*args, name=name, fn=getattr(monadicity, name)):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(monadicity, name, counted)
        report = verify_monadicity(2, 4)
        assert report.checks == PASSING_2_4
        suites = report.checks["base_power"].checked
        assert suites == 19
        assert calls == {"extract_base": suites, "epi_section": 2 * suites, "compare_section": 0}

    def test_perturbed_mono_s_fails_transpose_triangle(self, ctx2, twelve, monkeypatch):
        # compare_inverse and compare_retraction read the same kept mono^S, so
        # retraction_matches_inverse cannot see it wrong; the transpose
        # triangle compares it with the curried reach and must fail on every
        # changed entry (compare is onto, so every entry is read)
        algebras = [twelve[0], twelve[-1], function_algebra(ctx2, 2), function_algebra(ctx2, 3)]
        for alg in algebras:
            n = len(extract_base(alg).mono_s.table)
            for i in range(n):
                def broken(a, i=i):
                    data = extract_base(a)
                    data.mono_s = _perturbed(data.mono_s, i)
                    return data

                monkeypatch.setattr(monadicity, "extract_base", broken)
                suite = check_suite(alg)
                assert suite["transpose_triangle"] is False, (alg, i)
                assert suite["retraction_matches_inverse"] is True


class TestVerify:
    def test_two_states(self):
        report = verify_monadicity(2, 4)
        assert report.passed
        assert report.carriers[2]["count"] == 0
        assert report.carriers[3]["count"] == 0
        assert report.carriers[4]["count"] == 12
        assert report.carriers[1]["count"] == 1

    def test_one_state(self):
        report = verify_monadicity(1, 4)
        assert report.passed
        assert all(
            report.carriers[x]["count"] == 1 for x in range(5)
        )

    def test_refuses_empty_state(self):
        with pytest.raises(FinSetError):
            verify_monadicity(0, 2)

    def test_report_serialization_is_stable(self):
        a = verify_monadicity(2, 2).to_json()
        b = verify_monadicity(2, 2).to_json()
        assert a == b
        text = verify_monadicity(2, 2).to_text()
        assert text.endswith("PASSED")

    def test_guarded_carrier_reported(self):
        # carriers up to 8 need at most 102,374 work, and carrier 9's orbit
        # closure of 60,480 tables about 157M: a ceiling wide enough for
        # all but 9
        report = verify_monadicity(2, 9, ceiling=5_000_000)
        assert report.carriers[9]["guarded"] is not None
        assert report.carriers[4]["count"] == 12
        assert report.passed

    def test_function_algebra_past_the_ceiling_skipped(self):
        # |T(Y^S)| = (3 * 3**3)**3 = 531,441 on Y = 3, and 13,824 on Y = 2
        report = verify_monadicity(3, 3, ceiling=20_000)
        skipped = [n for n in report.notes if "skipped" in n]
        assert skipped == [
            "function algebra on 3 skipped: |T(Y^S)| = 81**3 entries "
            "exceeds the ceiling 20000"
        ]


#: The nine checks of check_suite.
SUITE_CHECKS = (
    "base_power", "compare_bijection", "compare_algebra_map", "retraction_identity",
    "retraction_matches_inverse", "transpose_triangle", "epi_section_identity",
    "section_identity", "section_matches_inverse",
)

#: The tally of a passing verify_monadicity(2, 4), by check name.
PASSING_2_4 = {
    **{name: CheckTally(19, 0, None) for name in SUITE_CHECKS},
    **{name: CheckTally(25, 0, None) for name in (
        "function_algebra_map_valid", "roundtrip_iso_natural", "base_map_functorial"
    )},
    **{name: CheckTally(5, 0, None) for name in (
        "unit_graph_identity", "pairing_decomposition", "structure_count_conjecture",
        "function_algebra_valid", "base_recovery", "roundtrip_iso", "constant_image",
    )},
}

#: h of the least algebra on four elements at |S| = 2, as verify's failure
#: witness prints it.
LEAST_H_4 = (
    "[0, 0, 2, 2, 0, 2, 0, 2, 0, 0, 2, 2, 0, 2, 0, 2, "
    "1, 1, 3, 3, 1, 3, 1, 3, 1, 1, 3, 3, 1, 3, 1, 3, "
    "0, 0, 2, 2, 0, 2, 0, 2, 1, 1, 3, 3, 1, 3, 1, 3, "
    "0, 0, 2, 2, 0, 2, 0, 2, 1, 1, 3, 3, 1, 3, 1, 3]"
)


class TestFailureWitnesses:
    """verify builds a witness only for a failed check: the witnesses of a
    failing run are those the eager formatting gave, and a passing run
    reads no h."""

    def test_passing_tallies(self):
        assert verify_monadicity(2, 4).checks == PASSING_2_4

    @pytest.mark.parametrize("check", SUITE_CHECKS)
    def test_suite_check_failing_on_every_four_element_carrier(self, check, monkeypatch):
        # the twelve algebras on 4 and K(2) fail; the witness is the least
        # algebra's h, and a failed deciding check fails the 9 of the 25
        # hom-sets between K(0..4) that touch K(2).  Both sides run the
        # suite through _suite, K(y) on the base verify already extracted
        suite = monadicity._suite

        def mutant(data):
            out = suite(data)
            out[check] &= data.algebra.carrier.size != 4
            return out

        monkeypatch.setattr(monadicity, "_suite", mutant)
        report = verify_monadicity(2, 4)
        expected = dict(PASSING_2_4)
        expected[check] = CheckTally(19, 13, f"x=4, h={LEAST_H_4}")
        if check in ("compare_bijection", "compare_algebra_map"):
            for name in HOM_TALLIES:
                expected[name] = CheckTally(25, 9, "K(0)->K(2)")
        assert report.checks == expected
        assert f"  {check}: 19 checked, FAILED (13, e.g. x=4, h={LEAST_H_4})" in (
            report.to_text().splitlines()
        )

    def test_unit_graph_failing_at_three(self, monkeypatch):
        monkeypatch.setattr(StateMonadCtx, "graph_flatten_identity", lambda self, x: x.size != 3)
        report = verify_monadicity(2, 4)
        assert report.checks == {
            **PASSING_2_4, "unit_graph_identity": CheckTally(5, 1, "x=3"),
        }
        assert report.to_text().endswith(
            "  unit_graph_identity: 5 checked, FAILED (1, e.g. x=3)\n"
            "  note: structure counts compared against the relabeling conjecture "
            "x!/k! (verified only at these sizes)\nFAILED"
        )

    def test_passing_run_reads_no_h(self, ctx2, monkeypatch):
        # the enumerated algebras carry U and l alone, and folding h raises:
        # a passing run must not need it
        expected = verify_monadicity(2, 4).to_dict()
        found = {x: enumerate_algebras(ctx2, FinSet(x)) for x in range(5)}

        def bare(ctx, x, **kwargs):
            out = []
            for a in found[x.size]:
                alg = TAlgebra(ctx, x, a.updates, a.lookup)
                alg.checked = a.checked
                out.append(alg)
            return out

        def refuse(*args):
            raise AssertionError("h was folded")

        monkeypatch.setattr(monadicity, "enumerate_algebras", bare)
        monkeypatch.setattr(algebra, "fold_table", refuse)
        assert verify_monadicity(2, 4).to_dict() == expected


#: The tallies verify_monadicity decides per hom-set from per-object checks.
HOM_TALLIES = ("function_algebra_map_valid", "roundtrip_iso_natural", "base_map_functorial")


def _side(ctx, y):
    """The base data of K(y) and its iso back to y."""
    data = extract_base(function_algebra(ctx, y))
    return data, base_iso(ctx, FinSet(y), data)


def _reference(d1, d2, xi1, xi2, maps):
    """The hom-set checks that verify_monadicity decides without walking
    any map, one map ``v: Y1 -> Y2`` at a time: the square of ``v^S``
    scanned on all of TX, and the naturality of base_iso by compose.
    Returns both tallies and each map's base map, keyed by its table."""
    y1, y2 = xi1.cod.size, xi2.cod.size
    square, natural, lifted = CheckTally(), CheckTally(), {}
    for v in maps:
        u = exp_map(v, d1.algebra.ctx.state)
        witness = f"v={list(v.table)}: {y1}->{y2}"
        square.record(_square_reference(u, d1.algebra, d2.algebra) is None, witness)
        lv = base_map(u, d1, d2)
        natural.record(compose(xi2, lv).table == compose(v, xi1).table, witness)
        lifted[v.table] = lv.table
    return square, natural, lifted


@pytest.fixture(scope="module")
def relabeled_targets(ctx2):
    """The sides of K(4) and K(3), the maps 4 -> 3, and the base data of
    K(3) with its algebra relabeled along each transposition of its
    carrier, each with its reference: algebras into which some maps fail."""
    (d1, xi1), (d2, xi2) = _side(ctx2, 4), _side(ctx2, 3)
    maps = list(hom(4, 3))
    targets = []
    for algebra in _relabelings(d2.algebra)[1:]:
        target = replace(d2, algebra=algebra)
        targets.append((target, _reference(d1, target, xi1, xi2, maps)))
    return d1, xi1, xi2, maps, targets


def _perturbed(f, i):
    table = list(f.table)
    table[i] = (table[i] + 1) % f.cod.size
    return Morphism(f.dom, f.cod, tuple(table))


class TestHomNaturality:
    """verify_monadicity decides every hom-set between function algebras
    from the checks it runs on each K(y); the per-map reference checks that
    reasoning map by map, and mutants of those checks fail exactly the
    hom-sets they touch."""

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_agrees_on_every_hom_set(self, s):
        ctx = StateMonadCtx(s)
        sides = {y: _side(ctx, y) for y in range(4)}
        lifted = {}
        for y1, y2 in product(range(4), repeat=2):
            (d1, xi1), (d2, xi2) = sides[y1], sides[y2]
            maps = list(hom(y1, y2))
            square, natural, lifted[y1, y2] = _reference(d1, d2, xi1, xi2, maps)
            assert square == natural == CheckTally(len(maps), 0, None)
        for y in range(4):
            assert lifted[y, y][tuple(range(y))] == tuple(range(y))
        for y1, y2, y3 in product(range(4), repeat=3):
            for f in hom(y1, y2):
                lf = lifted[y1, y2][f.table]
                for g in hom(y2, y3):
                    lg = lifted[y2, y3][g.table]
                    assert lifted[y1, y3][compose(g, f).table] == tuple(lg[b] for b in lf)
        report = verify_monadicity(s, 3)
        for name in HOM_TALLIES:
            assert report.checks[name] == CheckTally(16, 0, None)

    def test_agrees_on_a_sampled_pair(self, ctx2):
        # 5**6 = 15,625 maps K(6) -> K(5): verify decides them all, and 100
        # random ones pass the reference
        (d1, xi1), (d2, xi2) = _side(ctx2, 6), _side(ctx2, 5)
        rng = random.Random(5)
        maps = [Morphism(FinSet(6), FinSet(5), tuple(rng.randrange(5) for _ in range(6)))
                for _ in range(100)]
        square, natural, _ = _reference(d1, d2, xi1, xi2, maps)
        assert square == natural == CheckTally(100, 0, None)

    def test_failure_at_the_last_element_alone(self, ctx2):
        # v = (0, 1) sends the element a = 1 of K(2) to 1 and its last
        # element, the constant at 1, to 4 in K(3), where 8 is no image of
        # v^S.  Swap a with the last element of K(2), and relabel K(3) along
        # 4 -> 1 -> 8 -> 4: v^S then differs from a morphism only at the
        # last element, which no update reaches, so only its cells fail
        k2, k3 = function_algebra(ctx2, 2), function_algebra(ctx2, 3)
        source = _relabeled(k2, (0, 3, 2, 1))
        target = _relabeled(k3, (0, 8, 2, 3, 1, 5, 6, 7, 4))
        u = exp_map(Morphism(FinSet(2), FinSet(3), (0, 1)), ctx2.state)
        # the update cell of (c, v) = (0, 3) is TX code 3 * (1 + 8)
        assert morphism_witness(u, source, target) == 27
        assert _square_reference(u, source, target) is not None
        assert morphism_witness(u, k2, k3) is None

    @pytest.mark.parametrize("chunk", [100, 700, 1 << 20, _bulk._MAX_CHUNK])
    def test_mutant_target_agrees(self, relabeled_targets, monkeypatch, chunk):
        # the targets are relabeled algebras, where the update square is
        # exact.  Past its first row, the scan of all 32**2 TX codes of K(4)
        # takes chunks of 3 rows of 32 codes at a cap of 100, at most 21 at
        # 700, and 7 then the last 24 at 2^20 and the real cap.  At every
        # cap the scan fails exactly the maps morphism_witness fails, and
        # base_map stays natural
        monkeypatch.setattr(_bulk, "_MAX_CHUNK", chunk)
        d1, xi1, xi2, maps, targets = relabeled_targets
        partial = 0
        for target, expected in targets:
            square, natural, _ = got = _reference(d1, target, xi1, xi2, maps)
            assert got == expected
            assert natural.failed == 0
            for v in maps:
                u = exp_map(v, d1.algebra.ctx.state)
                assert (_square_reference(u, d1.algebra, target.algebra) is None) == (
                    morphism_witness(u, d1.algebra, target.algebra) is None
                )
            partial += 0 < square.failed < square.checked
        assert partial

    @pytest.mark.parametrize("s", [1, 2])
    def test_perturbed_iso(self, s, monkeypatch):
        # a base_iso that swaps two entries at y = 3 breaks roundtrip_iso
        # there, and so the 9 of the 25 hom-sets between K(0..4) that touch
        # K(3); the reference finds maps into K(3) that are not natural
        def mutant(ctx, y, data):
            xi = base_iso(ctx, y, data)
            if xi.cod.size != 3:
                return xi
            table = list(xi.table)
            table[0], table[1] = table[1], table[0]
            return Morphism(xi.dom, xi.cod, tuple(table))

        monkeypatch.setattr(monadicity, "base_iso", mutant)
        report = verify_monadicity(s, 4)
        failed = {name: t for name, t in report.checks.items() if t.failed}
        assert failed == {
            "roundtrip_iso": CheckTally(5, 1, "y=3"),
            **{name: CheckTally(25, 9, "K(0)->K(3)") for name in HOM_TALLIES},
        }
        ctx = StateMonadCtx(s)
        (d1, xi1), (d2, _) = _side(ctx, 3), _side(ctx, 3)
        bad = mutant(ctx, FinSet(3), d2)
        square, natural, _ = _reference(d1, d2, xi1, bad, list(hom(3, 3)))
        assert square.failed == 0 and natural.failed > 0

    @pytest.mark.parametrize("check", ["compare_bijection", "compare_algebra_map"])
    def test_each_deciding_check_gates_the_hom_sets(self, check, monkeypatch):
        # the hom-sets that touch K(2) fail once either check fails on it.
        # No carrier up to 3 has four elements, so only K(2) is hit
        suite = monadicity._suite

        def mutant(data):
            out = suite(data)
            out[check] &= data.algebra.carrier.size != 4
            return out

        monkeypatch.setattr(monadicity, "_suite", mutant)
        report = verify_monadicity(2, 3)
        assert report.checks[check] == CheckTally(6, 1, "K(2)")
        for name in HOM_TALLIES:
            assert report.checks[name] == CheckTally(16, 7, "K(0)->K(2)")

    def test_relabeled_function_algebra_refused(self, ctx2, monkeypatch):
        # K(3) relabeled along any transposition of its nine elements: its
        # base no longer reads off evaluation, and base_iso refuses it
        k3 = function_algebra(ctx2, 3)
        for relabeled in _relabelings(k3)[1:]:
            def mutant(ctx, y, relabeled=relabeled):
                size = y if isinstance(y, int) else y.size
                return relabeled if size == 3 else function_algebra(ctx, y)

            monkeypatch.setattr(monadicity, "function_algebra", mutant)
            with pytest.raises(AssertionError, match="base iso not well defined"):
                verify_monadicity(2, 3)

    def test_fiber_collision_raises_like_base_map(self, ctx2):
        # base_map raises its fiber-collision error exactly when a fiber of
        # the source surjection lands on two target base elements, and
        # otherwise commutes with the two surjections
        (d1, _), (d2, _) = _side(ctx2, 2), _side(ctx2, 3)
        collisions = 0
        for i in range(len(d2.epi.table)):
            broken = replace(d2, epi=_perturbed(d2.epi, i))
            for v in hom(2, 3):
                u = exp_map(v, ctx2.state)
                images = {}
                for j, b in enumerate(d1.epi.table):
                    c, a = divmod(j, d1.algebra.carrier.size)
                    images.setdefault(b, set()).add(
                        broken.epi.table[c * broken.algebra.carrier.size + u.table[a]]
                    )
                if any(len(hit) > 1 for hit in images.values()):
                    collisions += 1
                    with pytest.raises(FinSetError, match="fiber collision over base element"):
                        base_map(u, d1, broken)
                else:
                    lv = base_map(u, d1, broken)
                    assert lv.table == tuple(min(images[b]) for b in range(d1.base.size))
        assert collisions


class TestEmptyStateDiagnostic:
    def test_only_singletons_admit_structures(self):
        diag = empty_state_diagnostic(3)
        assert diag["algebra_counts"] == {"0": 0, "1": 1, "2": 0, "3": 0}
        assert diag["carriers_with_algebras"] == [1]
        assert diag["essential_surjectivity_fails"]
