import random
import sys
import tracemalloc

import pytest

from monadlab.finset import (
    ExpCodec,
    FinSet,
    FinSetError,
    Morphism,
    compose,
    evaluation,
    exp_map,
    hom,
    identity,
)
from monadlab import _bulk, statemonad
from monadlab._bulk import value_at
from monadlab.statemonad import LawCheck, StateMonadCtx


class TestContext:
    def test_t_obj_sizes(self):
        assert StateMonadCtx(1).t_obj(FinSet(2)).size == 2
        assert StateMonadCtx(2).t_obj(FinSet(2)).size == 16
        assert StateMonadCtx(2).t_obj(FinSet(0)).size == 0
        assert StateMonadCtx(0).t_obj(FinSet(5)).size == 1


class TestFunctor:
    def test_identity(self, ctx2):
        x = FinSet(3)
        assert ctx2.t_map(identity(x)).table == identity(ctx2.t_obj(x)).table

    def test_composition(self, ctx2):
        for f in hom(2, 3):
            for g in hom(3, 2):
                lhs = ctx2.t_map(compose(g, f))
                rhs = compose(ctx2.t_map(g), ctx2.t_map(f))
                assert lhs.table == rhs.table

    def test_singleton_state_is_conjugation(self, ctx1):
        # at one state the encodings make T literally the identity functor
        f = Morphism(FinSet(3), FinSet(2), (1, 0, 1))
        assert ctx1.t_map(f).table == f.table


class TestUnit:
    def test_pointwise_code(self, ctx2):
        # one-element carrier: the unit picks the state-passing function
        assert ctx2.unit(FinSet(1)).table == (2,)

    def test_unit_at_matches_table(self, ctx2):
        x = FinSet(3)
        table = ctx2.unit(x).table
        assert all(ctx2.unit_at(x, v) == table[v] for v in range(3))

    def test_singleton_state_bijection(self, ctx1):
        assert ctx1.unit(FinSet(4)).table == (0, 1, 2, 3)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_naturality(self, s):
        ctx = StateMonadCtx(s)
        for xn in range(4):
            for yn in range(4):
                for f in hom(xn, yn):
                    lhs = compose(ctx.t_map(f), ctx.unit(f.dom))
                    rhs = compose(ctx.unit(f.cod), f)
                    assert lhs.table == rhs.table


class TestMult:
    def test_two_implementations_agree_small(self, ctx2):
        for xn in range(4):
            x = FinSet(xn)
            assert ctx2.mult(x).table == ctx2.mult_pointwise(x).table

    def test_mult_agreement_check(self, ctx2):
        check = ctx2.mult_agreement(FinSet(2))
        assert check.ok and check.mode == "full" and check.checked == 1024

    @pytest.mark.parametrize("s,xn", [(1, 3), (2, 2), (3, 1)])
    def test_unit_laws(self, s, xn):
        assert StateMonadCtx(s).unit_law_witness(FinSet(xn)) is None

    @pytest.mark.parametrize("s,xn", [(1, 3), (2, 2)])
    def test_associativity_full(self, s, xn):
        check = StateMonadCtx(s).associativity_check(FinSet(xn))
        assert check.ok and check.mode == "full"

    def test_associativity_reduced_mode(self, ctx3):
        check = ctx3.associativity_check(FinSet(1))
        assert check.ok and check.mode == "reduced"

    def test_associativity_reduced_within_the_scan_limit(self):
        # |S x TTX| = 2 * 3,200**2 points, within the one scan limit that
        # also bounds the full scan and mult_agreement
        check = StateMonadCtx(2).associativity_check(FinSet(20))
        assert check == LawCheck("associativity", "reduced", 20_480_000, True)

    def test_associativity_reduced_at_three_states(self):
        # |TTX| = 272,097,792 is within the scan limit, so the check is
        # exact though |S x TTX| is past it
        check = StateMonadCtx(3).associativity_check(FinSet(2))
        assert check == LawCheck("associativity", "reduced", 816_293_376, True)

    def test_largest_reduced_two_state_carrier(self):
        # |TTX| = 286,557,184 at (2,46) and 312,299,584 at (2,47): past the
        # scan limit, (2,47) is still decided on tables of |S x TX| = 17,672
        ctx = StateMonadCtx(2)
        check = ctx.associativity_check(FinSet(46))
        assert check == LawCheck("associativity", "reduced", 573_114_368, True)
        check = ctx.associativity_check(FinSet(47))
        assert check == LawCheck("associativity", "reduced", 624_599_168, True)

    @pytest.mark.parametrize("s,xn", [(4, 1), (3, 3), (3, 4)])
    def test_associativity_reduced_past_the_scan_limit(self, s, xn):
        ctx = StateMonadCtx(s)
        ttx = ctx.t_obj(ctx.t_obj(FinSet(xn))).size
        assert ttx > statemonad.DEFAULT_SCAN_LIMIT
        check = ctx.associativity_check(FinSet(xn))
        assert check == LawCheck("associativity", "reduced", s * ttx, True)
        assert ctx.mult_agreement(FinSet(xn)) == LawCheck("mult_agreement", "full", ttx, True)

    @pytest.mark.parametrize("s", [1, 2])
    def test_mult_naturality(self, s):
        ctx = StateMonadCtx(s)
        for xn in range(4):
            for yn in range(4):
                for f in hom(xn, yn):
                    ttf = ctx.t_map(ctx.t_map(f))
                    lhs = compose(ctx.t_map(f), ctx.mult(f.dom))
                    rhs = compose(ctx.mult(f.cod), ttf)
                    assert lhs.table == rhs.table

    def test_empty_state_trivial(self):
        ctx = StateMonadCtx(0)
        assert ctx.unit_law_witness(FinSet(3)) is None
        assert ctx.associativity_check(FinSet(3)).ok


class TestGraphMap:
    def test_pointwise(self, ctx2):
        # two states, one-element carrier: the unique function maps to the
        # state-passing code, same as the unit
        z = FinSet(1)
        assert ctx2.graph_map(z).table == (2,)

    def test_graph_at_matches_table(self, ctx2):
        z = FinSet(3)
        table = ctx2.graph_map(z).table
        assert all(
            ctx2.graph_at(z, g) == table[g] for g in range(len(table))
        )

    def test_singleton_state_is_codec_bijection(self, ctx1):
        z = FinSet(3)
        assert ctx1.graph_map(z).table == (0, 1, 2)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_naturality(self, s):
        ctx = StateMonadCtx(s)
        for zn in range(4):
            for wn in range(4):
                for f in hom(zn, wn):
                    lhs = compose(ctx.t_map(f), ctx.graph_map(f.dom))
                    rhs = compose(ctx.graph_map(f.cod), exp_map(f, ctx.state))
                    assert lhs.table == rhs.table


class TestChosenEval:
    def test_example(self, ctx2):
        z = FinSet(3)
        code = ExpCodec(z, ctx2.state).encode([0, 2])
        assert ctx2.chosen_eval(z, 1)(code) == 2

    def test_constant_functions(self, ctx3):
        z = FinSet(2)
        exp = ExpCodec(z, ctx3.state)
        for s0 in range(3):
            for v in range(2):
                const = exp.encode([v] * 3)
                assert ctx3.chosen_eval(z, s0)(const) == v

    @pytest.mark.parametrize("s0", [0, 1])
    def test_retracts_constants(self, ctx2, s0):
        for zn in range(4):
            z = FinSet(zn)
            composite = compose(ctx2.chosen_eval(z, s0), ctx2.const_map(z))
            assert composite.table == identity(z).table

    def test_requires_chosen_state(self):
        # an empty state object has no state to evaluate at
        ctx = StateMonadCtx(0)
        with pytest.raises(FinSetError, match="s0=0 is not an element of a 0-state"):
            ctx.chosen_eval(FinSet(2), 0)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_naturality(self, s):
        ctx = StateMonadCtx(s)
        for s0 in range(s):
            for zn in range(4):
                for wn in range(4):
                    for f in hom(zn, wn):
                        lhs = compose(f, ctx.chosen_eval(f.dom, s0))
                        rhs = compose(ctx.chosen_eval(f.cod, s0), exp_map(f, ctx.state))
                        assert lhs.table == rhs.table


class TestChosenState:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_tables_read_the_chosen_digit(self, s):
        ctx = StateMonadCtx(s)
        for s0 in range(s):
            for zn in range(4):
                z = FinSet(zn)
                exp = ExpCodec(z, ctx.state)
                digits = tuple(exp.digit(g, s0) for g in range(zn**s))
                restrict = ctx.restrict_to_chosen(z, s0)
                assert restrict.table == digits
                assert (restrict.dom, restrict.cod) == (exp.obj, FinSet(zn))
                ev = ctx.chosen_eval(z, s0)
                assert ev.table == digits and ev.cod == z
                assert ev == StateMonadCtx(s).chosen_eval(z, s0)

    def test_cached_per_size_and_state(self, ctx3):
        z = FinSet(2)
        assert ctx3.chosen_eval(z, 1) is ctx3.chosen_eval(z, 1)
        assert ctx3.restrict_to_chosen(z, 2) is ctx3.restrict_to_chosen(z, 2)
        assert ctx3.chosen_eval(z, 0) is ctx3.restrict_to_chosen(z, 0)
        assert ctx3.chosen_eval(z, 1) != ctx3.chosen_eval(z, 2)

    def test_state_out_of_range(self, ctx2):
        for bad in (2, -1):
            with pytest.raises(FinSetError, match=f"s0={bad} is not an element of a 2-state"):
                ctx2.chosen_eval(FinSet(2), bad)


def _scan_reference(ctx, x):
    """The least TTX code where the two multiplications differ, by a lazy
    in-order scan of TTX that evaluates each side at one code at a time: a
    digit sum read through its per-digit table.  When the tables differ it
    stops within the first ``|S| * |TX|`` codes."""
    s = ctx.state.size
    weights = ctx.digit_weights(s * x.size)
    ev = evaluation(ctx.pair_obj(x), ctx.state).table
    lhs = ([ev] * s, weights, ())
    rhs = ([ctx.mult_digits(x)] * s, weights, ())
    ttx = ctx.t_obj(ctx.t_obj(x)).size
    return next((w for w in range(ttx) if value_at(lhs, w) != value_at(rhs, w)), None)


class TestMultWitness:
    """The table comparison answers as the scan of TTX does."""

    @pytest.mark.parametrize("s,xn", [(1, 3), (2, 1), (2, 2), (3, 1), (4, 1), (3, 3)])
    @pytest.mark.parametrize("changed", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_scan_on_perturbed_tables(self, monkeypatch, s, xn, changed, seed):
        ctx = StateMonadCtx(s)
        x = FinSet(xn)
        digits = list(ctx.mult_digits(x))
        rng = random.Random(seed)
        for i in rng.sample(range(len(digits)), changed):
            # another value below |S| * |X|, so the sums stay numerals
            digits[i] = (digits[i] + rng.randrange(1, s * xn)) % (s * xn)
        monkeypatch.setattr(StateMonadCtx, "mult_digits", lambda self, x: tuple(digits))
        ttx = ctx.t_obj(ctx.t_obj(x)).size
        if (s * ttx) ** s <= statemonad.DEFAULT_SCAN_LIMIT:
            # the full scan of TTTX reads mult_digits(TX), which the patch
            # replaces; a zero scan limit sends these small pairs to the
            # reduced branch, which (4,1) and (3,3) reach unpatched
            monkeypatch.setattr(statemonad, "DEFAULT_SCAN_LIMIT", 0)
        witness = _scan_reference(ctx, x)
        assert witness is not None and witness < s * ctx.t_obj(x).size
        agree = ctx.mult_agreement(x)
        assert agree == LawCheck("mult_agreement", "full", ttx, False, witness)
        assoc = ctx.associativity_check(x)
        assert assoc == LawCheck("associativity", "reduced", s * ttx, False, witness)


#: Every pair with at most four states and a carrier of at most four, and
#: the two-state carriers 20..60: |TTX| passes the scan limit from (2,47).
_SWEEP = [(s, xn) for s in range(5) for xn in range(5)] + [(2, xn) for xn in range(20, 61)]


def _unreachable(*args, **kwargs):
    raise AssertionError("built or evaluated before the table bound refused")


class TestExactLawChecks:
    """Every law check answers exactly, or refuses before building a table."""

    @pytest.mark.parametrize("s", range(5))
    def test_every_mode_is_exact(self, s):
        for xn in (xn for t, xn in _SWEEP if t == s):
            ctx = StateMonadCtx(s)
            for check in (ctx.mult_agreement(xn), ctx.associativity_check(xn)):
                assert check.ok and check.mode in ("full", "reduced"), (s, xn, check)

    @pytest.mark.parametrize("s,xn", [
        (3, 10**6), (1, 10**7 + 1),
        # |TX| has 4,402 digits, more than str() of an int prints: the
        # refusal states it as a power
        pytest.param(2, 10**2200, id="2-10**2200"),
        # |S|·|X| itself has 5,001 digits: the refusal gives its bit length
        pytest.param(2, 10**5000, id="2-10**5000"),
    ])
    def test_refused_past_the_table_bound(self, monkeypatch, s, xn):
        for name in ("mult_at", "mult_digits", "mult", "unit", "t_map"):
            monkeypatch.setattr(StateMonadCtx, name, _unreachable)
        monkeypatch.setattr(statemonad, "evaluation", _unreachable)
        ctx = StateMonadCtx(s)
        for check in (ctx.unit_law_witness, ctx.mult_agreement, ctx.associativity_check):
            with pytest.raises(FinSetError, match="above the table bound 10000000"):
                check(FinSet(xn))

    def test_int_text_within_the_least_digit_limit(self):
        # 640 digits is the least limit Python lets str() of an int be set to
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("no limit on int to str conversion")
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert statemonad.int_text(2**1999 - 1) == str(2**1999 - 1)
        finally:
            sys.set_int_max_str_digits(old)
        assert statemonad.int_text(2**1999) == "<2000-bit int>"
        assert statemonad.int_text(10**5000) == "<16610-bit int>"

    def test_bound_is_inclusive(self, monkeypatch):
        # |S x TX| = 2 * 16 = 32 at (2,2)
        ctx = StateMonadCtx(2)
        monkeypatch.setattr(statemonad, "DEFAULT_SEARCH_CEILING", 32)
        assert ctx.unit_law_witness(2) is None
        assert ctx.mult_agreement(2).ok and ctx.associativity_check(2).ok
        monkeypatch.setattr(statemonad, "DEFAULT_SEARCH_CEILING", 31)
        for check in (ctx.unit_law_witness, ctx.mult_agreement, ctx.associativity_check):
            with pytest.raises(FinSetError, match=r"S x TX has 2\*4\*\*2 elements"):
                check(2)


class TestWorkingSet:
    """A full associativity scan holds a few chunk-sized int64 arrays at a
    time, each of ``_bulk._MAX_CHUNK`` points: at most four of them, and
    the context's tables, under 1 MiB at these sizes."""

    #: L2 cache of one core on the host the chunk size was measured on.
    L2 = 2 << 20

    def test_a_chunk_fits_l2(self):
        assert 4 * 8 * _bulk._MAX_CHUNK <= self.L2

    @pytest.mark.parametrize("xn", [2, 3])
    def test_scan_peak(self, xn):
        # 4.2M codes at (2,2), 107M at (2,3): whole-megapoint chunks traced
        # 25 MB at either
        import numpy  # noqa: F401  loaded before tracing, as a scan loads it

        bound = 4 * 8 * _bulk._MAX_CHUNK + (1 << 20)
        tracemalloc.start()
        try:
            check = StateMonadCtx(2).associativity_check(xn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert check.mode == "full" and check.ok
        assert peak <= bound, (peak, bound)


class TestUnitLawWitness:
    """``unit_law_witness`` against both unit laws evaluated pointwise for the
    multiplication ``exp_map(ev)``, with ev perturbed at random cells."""

    @staticmethod
    def reference(ctx, x, ev):
        tx = ctx.t_obj(x)
        mult = exp_map(ev, ctx.state).table
        for t in range(tx.size):
            if mult[ctx.unit_at(tx, t)] != t:
                return t
        t_unit = ctx.t_map(ctx.unit(x)).table
        return next((t for t in range(tx.size) if mult[t_unit[t]] != t), None)

    @pytest.mark.parametrize("s,xn", [(1, 2), (1, 3), (2, 1), (2, 2), (2, 3)])
    def test_perturbed_evaluation(self, monkeypatch, s, xn):
        rng = random.Random(100 * s + xn)
        x = FinSet(xn)
        ev = evaluation(StateMonadCtx(s).pair_obj(x), s)
        n = ev.cod.size
        for _ in range(40):
            table = list(ev.table)
            for d in rng.sample(range(len(table)), rng.randint(1, min(3, len(table)))):
                table[d] = (table[d] + rng.randrange(1, n)) % n
            perturbed = Morphism(ev.dom, ev.cod, table)
            monkeypatch.setattr(statemonad, "evaluation", lambda z, state: perturbed)
            ctx = StateMonadCtx(s)
            witness = ctx.unit_law_witness(x)
            assert witness is not None
            assert witness == self.reference(ctx, x, perturbed)

    @pytest.mark.parametrize("s,xn", [(1, 2), (1, 3), (2, 1), (2, 2), (2, 3)])
    def test_broken_unit(self, monkeypatch, s, xn):
        """A unit wrong at one element of X (read by the second law) or of TX
        (read by the first) gives the witness the reference finds."""
        rng = random.Random(1000 * s + xn)
        x = FinSet(xn)
        right = StateMonadCtx.unit_at
        for _ in range(20):
            ctx = StateMonadCtx(s)
            z = rng.choice([x, ctx.t_obj(x)])
            bad_v = rng.randrange(z.size)
            tz = ctx.t_obj(z).size
            wrong = (right(ctx, z, bad_v) + rng.randrange(1, tz)) % tz

            def broken(self, w, v, z=z, bad_v=bad_v, wrong=wrong):
                return wrong if (w, v) == (z, bad_v) else right(self, w, v)

            monkeypatch.setattr(StateMonadCtx, "unit_at", broken)
            witness = ctx.unit_law_witness(x)
            ev = evaluation(ctx.pair_obj(x), ctx.state)
            assert witness == self.reference(ctx, x, ev)
            # a wrong unit of X always breaks the second law; one of TX
            # breaks the first unless mult happens to send it to bad_v too
            if z is x or exp_map(ev, ctx.state).table[wrong] != bad_v:
                assert witness is not None


class TestStructuralIdentities:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_graph_flatten_identity(self, s):
        ctx = StateMonadCtx(s)
        for xn in range(4):
            assert ctx.graph_flatten_identity(FinSet(xn))

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_pairing_via_diagonal(self, s):
        ctx = StateMonadCtx(s)
        for xn in range(4):
            assert ctx.pairing_via_diagonal_identity(FinSet(xn))

    def test_const_map_pointwise(self, ctx2):
        z = FinSet(3)
        exp = ExpCodec(z, ctx2.state)
        for v in range(3):
            assert ctx2.const_map(z)(v) == exp.encode([v, v])
            assert ctx2.const_map(z).table[v] == exp.encode([v, v])

    def test_diagonal(self, ctx3):
        assert ctx3.diagonal().table == (0, 4, 8)
