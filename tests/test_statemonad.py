import random

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
from monadlab import statemonad
from monadlab._bulk import first_mismatch
from monadlab.statemonad import DEFAULT_SAMPLES, LawCheck, StateMonadCtx

#: The seed criterion 02 in test_acceptance.py passes to the law checks.
ACCEPTANCE_SEED = 20260810


class TestContext:
    def test_default_chosen_state(self):
        assert StateMonadCtx(2).s0 == 0
        assert StateMonadCtx(0).s0 is None

    def test_bad_chosen_state(self):
        with pytest.raises(FinSetError):
            StateMonadCtx(2, s0=2)

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
        # |TTX| = 286,557,184 at (2,46) and 312,299,584 at (2,47)
        ctx = StateMonadCtx(2)
        check = ctx.associativity_check(FinSet(46))
        assert check == LawCheck("associativity", "reduced", 573_114_368, True)
        check = ctx.associativity_check(FinSet(47), samples=200)
        assert check == LawCheck("associativity", "sampled", 200, True)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_no_samples_refused(self, samples):
        with pytest.raises(FinSetError, match=f"samples must be at least 1, got {samples}"):
            StateMonadCtx(3).associativity_check(FinSet(4), samples=samples)

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
    def test_example(self):
        ctx = StateMonadCtx(2, s0=1)
        z = FinSet(3)
        code = ExpCodec(z, ctx.state).encode([0, 2])
        assert ctx.chosen_eval(z)(code) == 2

    def test_constant_functions(self):
        for s0 in range(3):
            ctx = StateMonadCtx(3, s0=s0)
            z = FinSet(2)
            exp = ExpCodec(z, ctx.state)
            for v in range(2):
                const = exp.encode([v] * 3)
                assert ctx.chosen_eval(z)(const) == v

    @pytest.mark.parametrize("s0", [0, 1])
    def test_retracts_constants(self, s0):
        ctx = StateMonadCtx(2, s0=s0)
        for zn in range(4):
            z = FinSet(zn)
            composite = compose(ctx.chosen_eval(z), ctx.const_map(z))
            assert composite.table == identity(z).table

    def test_requires_chosen_state(self):
        ctx = StateMonadCtx(0)
        with pytest.raises(FinSetError):
            ctx.chosen_eval(FinSet(2))

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_naturality(self, s):
        for s0 in range(s):
            ctx = StateMonadCtx(s, s0=s0)
            for zn in range(4):
                for wn in range(4):
                    for f in hom(zn, wn):
                        lhs = compose(f, ctx.chosen_eval(f.dom))
                        rhs = compose(ctx.chosen_eval(f.cod), exp_map(f, ctx.state))
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
                assert ev == StateMonadCtx(s, s0=s0).chosen_eval(z)

    def test_cached_per_size_and_state(self, ctx3):
        z = FinSet(2)
        assert ctx3.chosen_eval(z, 1) is ctx3.chosen_eval(z, 1)
        assert ctx3.restrict_to_chosen(z, 2) is ctx3.restrict_to_chosen(z, 2)
        assert ctx3.chosen_eval(z, 0) is ctx3.chosen_eval(z)
        assert ctx3.chosen_eval(z, 1) != ctx3.chosen_eval(z, 2)

    def test_state_out_of_range(self, ctx2):
        for bad in (2, -1):
            with pytest.raises(FinSetError, match=f"s0={bad} is not an element of a 2-state"):
                ctx2.chosen_eval(FinSet(2), bad)


def _flattened_codes(ctx, x, w):
    """The TTX codes that ``T(mult)`` and ``mult_T`` send the TTTX code ``w``
    to, one digit at a time on Python ints."""
    tx = ctx.t_obj(x)
    ttx = ctx.t_obj(tx)
    s = ctx.state.size
    outer = s * ttx.size
    mid = s * tx.size
    lhs_code = 0
    rhs_code = 0
    p = 1
    rest = w
    for _ in range(s):
        a = rest % outer
        rest //= outer
        c, t = divmod(a, ttx.size)
        lhs_code += (c * tx.size + ctx.mult_at(x, t)) * p
        rhs_code += ((t // mid**c) % mid) * p
        p *= mid
    return lhs_code, rhs_code


def _assoc_point(ctx, x, w):
    """Return ``w`` when the two flattening orders disagree there, evaluated
    with ``mult_at`` on Python ints: the reference for the sampled check."""
    lhs_code, rhs_code = _flattened_codes(ctx, x, w)
    return None if ctx.mult_at(x, lhs_code) == ctx.mult_at(x, rhs_code) else w


def _draws(ctx, x, samples, seed):
    tttx = (ctx.state.size * ctx.t_obj(ctx.t_obj(x)).size) ** ctx.state.size
    rng = random.Random(seed)
    return [rng.randrange(tttx) for _ in range(samples)]


def _reference(ctx, x, samples, seed):
    for w in _draws(ctx, x, samples, seed):
        if _assoc_point(ctx, x, w) is not None:
            return LawCheck("associativity", "sampled", samples, False, w)
    return LawCheck("associativity", "sampled", samples, True)


def _break_mult(monkeypatch, broken):
    """Make the multiplication flip the low bit of its value at the TTX codes
    in ``broken``."""
    mult_at = StateMonadCtx.mult_at

    def bad_at(self, x, w):
        v = mult_at(self, x, w)
        return v ^ 1 if w in broken else v

    monkeypatch.setattr(StateMonadCtx, "mult_at", bad_at)


class TestSampledAssociativity:
    """The sampled check returns the LawCheck of the per-draw reference loop."""

    # |TX| = 1,728 and |TTX| = 5,184**3, about 1.4 * 10**11: past the scan
    # limit, so the check samples
    @pytest.mark.parametrize("seed", [0, ACCEPTANCE_SEED])
    def test_matches_reference_at_three_states(self, ctx3, seed):
        got = ctx3.associativity_check(FinSet(4), seed=seed)
        assert got == _reference(ctx3, FinSet(4), DEFAULT_SAMPLES, seed)
        assert got.mode == "sampled" and got.checked == DEFAULT_SAMPLES and got.ok

    # (3,40): TTX codes pass 2^63, the S x TX digits do not.  (2,20000): the
    # S x TTX digits pass 2^63.  (3,10**6): the S x TX digits pass it too.
    @pytest.mark.parametrize("s,xn,samples", [
        (1, 10**9, 2000), (3, 40, 2000), (2, 20_000, 500), (3, 10**6, 200),
    ])
    def test_matches_reference_past_int64(self, s, xn, samples):
        ctx = StateMonadCtx(s)
        got = ctx.associativity_check(FinSet(xn), samples=samples, seed=ACCEPTANCE_SEED)
        assert got == _reference(ctx, FinSet(xn), samples, ACCEPTANCE_SEED)
        assert got.mode == "sampled" and got.ok

    @pytest.mark.parametrize("xn,samples,picks", [
        (4, 2000, (3, 7, 11)),
        (4, 2000, (0,)),
        (4, 2000, (1999,)),
        (40, 300, (5, 250)),
        (10**6, 100, (2, 60)),
    ])
    def test_witness_is_the_first_failing_draw(self, monkeypatch, xn, samples, picks):
        ctx = StateMonadCtx(3)
        x = FinSet(xn)
        assert ctx.t_obj(x).size % 2 == 0  # a flipped low bit stays in TX
        draws = _draws(ctx, x, samples, seed=1)
        _break_mult(monkeypatch, {_flattened_codes(ctx, x, draws[k])[1] for k in picks})
        failing = [w for w in draws if _assoc_point(ctx, x, w) is not None]
        assert failing[0] == draws[picks[0]] and len(failing) >= len(picks)
        got = ctx.associativity_check(x, samples=samples, seed=1)
        assert got == LawCheck("associativity", "sampled", samples, False, failing[0])
        assert got == _reference(ctx, x, samples, seed=1)


def _scan_reference(ctx, x):
    """The least TTX code where the two multiplications differ, by a scan of
    all of TTX: each side is a digit sum read through its per-digit table."""
    s = ctx.state.size
    weights = ctx.digit_weights(s * x.size)
    ev = evaluation(ctx.pair_obj(x), ctx.state).table
    return first_mismatch(([ev] * s, weights, ()), ([ctx.mult_digits(x)] * s, weights, ()))


class TestMultWitness:
    """The table comparison answers as the scan of TTX does."""

    @pytest.mark.parametrize("s,xn", [(1, 3), (2, 1), (2, 2), (3, 1)])
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
        # the scan limit at |TTX|: mult_agreement still runs, and past one
        # state associativity is decided by the reduced branch
        ttx = ctx.t_obj(ctx.t_obj(x)).size
        monkeypatch.setattr(statemonad, "DEFAULT_SCAN_LIMIT", ttx)
        witness = _scan_reference(ctx, x)
        assert witness is not None
        agree = ctx.mult_agreement(x)
        assert agree == LawCheck("mult_agreement", "full", ttx, False, witness)
        if s > 1:
            assoc = ctx.associativity_check(x)
            assert assoc == LawCheck("associativity", "reduced", s * ttx, False, witness)


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
            assert ctx2.const_at(z, v) == exp.encode([v, v])

    def test_diagonal(self, ctx3):
        assert ctx3.diagonal().table == (0, 4, 8)
