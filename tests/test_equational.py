import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monadlab.equational import (
    _nested_lookup_witness,
    Lookup,
    RewriteLimitExceeded,
    StateAlgebra,
    TermError,
    Update,
    Var,
    canonical_algebra,
    denote,
    format_term,
    free_classes,
    max_var,
    normalize,
    parse_term,
    random_term,
    state_algebra_violation,
    term_size,
    terms_equal,
    to_state_algebra,
    to_t_algebra,
)
from monadlab.finset import Morphism
from monadlab.monadicity import function_algebra
from monadlab.statemonad import StateMonadCtx


def terms(s_size=2, nvars=2, max_depth=4):
    rng_seeds = st.integers(min_value=0, max_value=10**6)
    return rng_seeds.map(
        lambda seed: random_term(random.Random(seed), s_size, nvars, max_depth)
    )


class TestParse:
    def test_example(self):
        t = parse_term("l(u0(x0),u1(x0))", 2)
        assert t == Lookup((Update(0, Var(0)), Update(1, Var(0))))

    def test_whitespace_insignificant(self):
        assert parse_term(" l( u0( x0 ) , u1(x0) ) ", 2) == parse_term(
            "l(u0(x0),u1(x0))", 2
        )

    def test_multidigit_indices(self):
        t = parse_term("u11(x12)", 12)
        assert t == Update(11, Var(12))

    def test_arity_error_with_position(self):
        with pytest.raises(TermError) as exc:
            parse_term("l(x0)", 2)
        assert exc.value.position == 0

    def test_unknown_subscript(self):
        with pytest.raises(TermError):
            parse_term("u2(x0)", 2)

    def test_trailing_input(self):
        with pytest.raises(TermError):
            parse_term("x0 x1", 2)

    def test_missing_paren(self):
        with pytest.raises(TermError):
            parse_term("u0(x0", 2)

    def test_ill_formed(self):
        with pytest.raises(TermError):
            parse_term("y0", 2)

    @given(terms())
    def test_roundtrip(self, t):
        assert parse_term(format_term(t), 2) == t

    def test_print_parse_identity_up_to_whitespace(self):
        text = "l(u0(l(x0,x1)),x1)"
        assert format_term(parse_term(text, 2)) == text


class TestRewrite:
    def test_update_after_update(self):
        t = parse_term("u0(u1(x0))", 2)
        assert format_term(normalize(t, 2)) == "u1(x0)"

    def test_lookup_of_matching_updates(self):
        t = parse_term("l(u0(x0),u1(x0))", 2)
        assert format_term(normalize(t, 2)) == "x0"

    def test_update_of_lookup(self):
        t = parse_term("u0(l(x0,x1))", 2)
        assert format_term(normalize(t, 2)) == "u0(x0)"

    def test_nested_lookups(self):
        t = parse_term("l(l(x0,x1),l(x1,x0))", 2)
        assert format_term(normalize(t, 2)) == "l(x0,x0)"

    def test_mismatched_updates_stay_normal(self):
        # denotationally equal to u0(x0), but no rule is applicable
        t = parse_term("l(u0(x0),u0(x0))", 2)
        assert normalize(t, 2) == t

    def test_variables_are_normal(self):
        assert normalize(Var(3), 2) == Var(3)

    def test_step_ceiling(self):
        t = parse_term("u0(u1(u0(u1(x0))))", 2)
        with pytest.raises(RewriteLimitExceeded):
            normalize(t, 2, max_steps=1)

    @given(terms(max_depth=5))
    @settings(max_examples=200)
    def test_preserves_denotation(self, t):
        ctx = StateMonadCtx(2)
        assert denote(normalize(t, 2), ctx, 2) == denote(t, ctx, 2)

    @given(terms(s_size=3, nvars=2, max_depth=4))
    @settings(max_examples=100)
    def test_preserves_denotation_three_states(self, t):
        ctx = StateMonadCtx(3)
        assert denote(normalize(t, 3), ctx, 2) == denote(t, ctx, 2)

    @given(terms(max_depth=5))
    @settings(max_examples=100)
    def test_normal_forms_are_fixed_points(self, t):
        n = normalize(t, 2)
        assert normalize(n, 2) == n


class TestDenote:
    def test_variable(self, ctx2):
        # a variable denotes the state-passing function
        assert denote(Var(0), ctx2, 1) == 2

    def test_update(self, ctx2):
        # u1(x0) denotes the constant jump to state 1
        assert denote(parse_term("u1(x0)", 2), ctx2, 1) == 3

    def test_unbound_variable(self, ctx2):
        with pytest.raises(TermError):
            denote(Var(5), ctx2, 2)

    def test_wrong_lookup_arity(self, ctx2):
        with pytest.raises(TermError):
            denote(Lookup((Var(0),)), ctx2, 1)

    def test_rule_schemas_hold_denotationally(self):
        # each oriented rule, expanded over all subscripts, at 1..3 states
        for s in (1, 2, 3):
            ctx = StateMonadCtx(s)
            x = Var(0)
            branches = tuple(Var(1 + i) for i in range(s))
            for s1 in range(s):
                for s2 in range(s):
                    lhs = Update(s1, Update(s2, x))
                    assert terms_equal(lhs, Update(s2, x), ctx, 1)
                lhs = Update(s1, Lookup(branches))
                assert terms_equal(lhs, Update(s1, branches[s1]), ctx, 1 + s)
            lhs = Lookup(tuple(Update(i, x) for i in range(s)))
            assert terms_equal(lhs, x, ctx, 1)
            rows = tuple(
                Lookup(tuple(Var(1 + i * s + j) for j in range(s)))
                for i in range(s)
            )
            lhs = Lookup(rows)
            rhs = Lookup(tuple(Var(1 + i * s + i) for i in range(s)))
            assert terms_equal(lhs, rhs, ctx, 1 + s * s)


class TestEqual:
    def test_constant_update_collapse(self, ctx2):
        t1 = parse_term("l(u0(x0),u0(x0))", 2)
        t2 = parse_term("u0(x0)", 2)
        assert terms_equal(t1, t2, ctx2, 1)

    def test_variable_differs_from_update(self, ctx2):
        assert not terms_equal(Var(0), parse_term("u0(x0)", 2), ctx2, 1)

    @given(terms(max_depth=4))
    def test_rewrite_sound_for_equality(self, t):
        ctx = StateMonadCtx(2)
        assert terms_equal(t, normalize(t, 2), ctx, 2)


class TestCanonicalAlgebra:
    @pytest.mark.parametrize("s,b", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_equations_hold(self, s, b):
        sa = canonical_algebra(StateMonadCtx(s), b)
        assert sa.carrier.size == b**s
        assert state_algebra_violation(sa) is None

    def test_singleton_state_is_trivial(self, ctx1):
        sa = canonical_algebra(ctx1, 3)
        assert sa.lookup.table == (0, 1, 2)
        assert sa.updates[0].table == (0, 1, 2)

    def test_update_tables_by_hand(self, ctx2):
        # two states over a 2-element base: update 0 keeps the value at
        # state 0 and makes it constant
        sa = canonical_algebra(ctx2, 2)
        # codes 0..3 are functions (g(0), g(1)) with code g(0) + 2 g(1);
        # update at state s sends g to the constant function on g(s)
        assert sa.updates[0].table == (0, 3, 0, 3)
        assert sa.updates[1].table == (0, 0, 3, 3)

    def test_broken_structure_detected(self, ctx2):
        sa = canonical_algebra(ctx2, 2)
        broken = StateAlgebra(
            ctx2,
            sa.carrier,
            sa.lookup,
            (sa.updates[0], Morphism(sa.carrier, sa.carrier, (1, 3, 0, 3))),
        )
        assert state_algebra_violation(broken) is not None


class TestNestedLookupWitness:
    """Equation 4 follows from equations 2 and 3 (the updates of an
    algebra jointly determine an element), so no algebra that passes those
    reaches a failing equation 4; its witness is pinned on the helper."""

    @staticmethod
    def reference(look, lefts, rights, a_n):
        for combo in product(*(range(len(p)) for p in lefts)):
            lcode = sum(lefts[s][i] * a_n**s for s, i in enumerate(combo))
            rcode = sum(rights[s][i] * a_n**s for s, i in enumerate(combo))
            if look[lcode] != look[rcode]:
                return combo
        return None

    @pytest.mark.parametrize("length", [5, 50])
    def test_first_combination_in_product_order(self, length):
        # 5**3 combinations, a tiny scan, and 50**3 = 125,000, which the
        # scan walks in array chunks.  A permuted lookup tells
        # every code apart, so the combinations that fail are those picking
        # a changed right: (0, length - 3, 0) comes first in product order,
        # (length - 2, 0, 0) first with coordinate 0 least significant.
        rng = random.Random(length)
        a_n = 60
        look = list(range(a_n**3))
        rng.shuffle(look)
        lefts = [[rng.randrange(a_n) for _ in range(length)] for _ in range(3)]
        rights = [list(p) for p in lefts]
        rights[0][length - 2] = (rights[0][length - 2] + 1) % a_n
        rights[1][length - 3] = (rights[1][length - 3] + 1) % a_n
        expected = self.reference(look, lefts, rights, a_n)
        assert expected == (0, length - 3, 0)
        assert _nested_lookup_witness(look, lefts, rights, a_n) == expected

    def test_none_when_sides_agree(self):
        lefts = [[0, 1], [1, 0]]
        assert _nested_lookup_witness([0, 1, 2, 3], lefts, lefts, 2) is None


class TestTranslations:
    def test_monad_to_state_and_back_on_the_twelve(self, twelve):
        for alg in twelve:
            sa = to_state_algebra(alg)
            back = to_t_algebra(sa)
            assert back.structure.table == alg.structure.table

    def test_state_to_monad_and_back_on_canonical(self):
        for s, b in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            ctx = StateMonadCtx(s)
            sa = canonical_algebra(ctx, b)
            ta = to_t_algebra(sa)
            sa2 = to_state_algebra(ta)
            assert sa2.lookup.table == sa.lookup.table
            assert all(
                u2.table == u.table for u2, u in zip(sa2.updates, sa.updates)
            )

    def test_function_algebra_translates_to_canonical(self, ctx2):
        sa = to_state_algebra(function_algebra(ctx2, 2))
        can = canonical_algebra(ctx2, 2)
        assert sa.lookup.table == can.lookup.table
        assert all(u.table == c.table for u, c in zip(sa.updates, can.updates))

    def test_singleton_state_updates_are_identity(self, ctx1):
        alg = function_algebra(ctx1, 3)
        sa = to_state_algebra(alg)
        assert sa.updates[0].table == (0, 1, 2)


class TestFreeClasses:
    def test_counts(self, ctx1, ctx2):
        assert free_classes(ctx2, 1, 3).count == 4
        assert free_classes(ctx2, 2, 4).count == 16
        assert free_classes(ctx1, 2, 3).count == 2

    def test_stable_under_depth_increase(self, ctx2):
        assert free_classes(ctx2, 1, 4).count == 4
        assert free_classes(ctx2, 2, 5).count == 16

    def test_saturation_flag(self, ctx2):
        assert free_classes(ctx2, 1, 4).saturated

    def test_representatives_denote_their_class(self, ctx2):
        result = free_classes(ctx2, 2, 4)
        for code, term in result.representatives.items():
            assert denote(term, ctx2, 2) == code

    def test_representatives_minimal_by_size(self, ctx2):
        result = free_classes(ctx2, 1, 4)
        # the variable itself must represent its own class
        var_code = denote(Var(0), ctx2, 1)
        assert result.representatives[var_code] == Var(0)
        assert all(
            term_size(t) <= 5 for t in result.representatives.values()
        )

    def test_depth_validation(self, ctx2):
        with pytest.raises(Exception):
            free_classes(ctx2, 1, 0)


class TestHelpers:
    def test_max_var(self):
        assert max_var(parse_term("l(u0(x3),x1)", 2)) == 3
        assert max_var(Lookup(())) == -1

    def test_term_size(self):
        assert term_size(parse_term("l(u0(x0),x1)", 2)) == 4
