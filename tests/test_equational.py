import copy
import pickle
import random
from dataclasses import FrozenInstanceError, fields
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monadlab._bulk import first_mismatch
from monadlab.algebra import (
    SearchCeilingExceeded,
    TAlgebra,
    _lookup_violation,
    _update_violation,
    check_algebra,
    read_presentation,
)
from monadlab.equational import (
    FreeClasses,
    Lookup,
    Term,
    TermError,
    Update,
    Var,
    denote,
    format_term,
    free_classes,
    max_var,
    normalize,
    parse_term,
    random_term,
    terms_equal,
)
from monadlab.finset import FinSet, FinSetError, evaluation, exp_map
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

    @pytest.mark.parametrize("text,position", [
        ("x\u00b2", 1),            # superscript two: isdigit() but not int()
        ("u\u00b2(x0)", 1),
        ("l(x0,x\u00b9)", 6),      # superscript one
        ("x\uff10", 1),            # fullwidth zero: int() reads it as 0
        ("u\u0661(x0)", 1),        # Arabic-Indic one
    ])
    def test_only_ascii_digits(self, text, position):
        with pytest.raises(TermError, match="expected a number") as exc:
            parse_term(text, 2)
        assert exc.value.position == position

    def test_non_ascii_digit_after_a_number_is_trailing(self):
        with pytest.raises(TermError, match="trailing input") as exc:
            parse_term("x0\u00b2", 2)
        assert exc.value.position == 2

    # every error the parser raises, with its message and position
    @pytest.mark.parametrize("text,s_size,message,position", [
        ("", 2, "unexpected end of input", 0),
        ("   ", 2, "unexpected end of input", 3),
        ("u0(", 2, "unexpected end of input", 3),
        ("l(x0,", 2, "unexpected end of input", 5),
        ("u0", 2, "expected '(', found 'end of input'", 2),
        ("u0 x0", 2, "expected '(', found 'x'", 3),
        ("l[x0,x1]", 2, "expected '(', found '['", 1),
        ("u0(x0", 2, "expected ')', found 'end of input'", 5),
        ("u0(x0 x1)", 2, "expected ')', found 'x'", 6),
        ("l(x0 x1)", 2, "expected ')', found 'x'", 5),  # a missing comma
        ("l(x0;x1)", 2, "expected ')', found ';'", 4),
        ("l(x0,x1,x2", 2, "expected ')', found 'end of input'", 10),
        ("x", 2, "expected a number", 1),
        ("u(x0)", 2, "expected a number", 1),
        ("u 0(x0)", 2, "expected a number", 1),
        ("x\u00b2", 2, "expected a number", 1),
        ("l(x0,u\u0661(x0))", 2, "expected a number", 6),
        ("u2(x0)", 2, "unknown update subscript 2 with 2 states", 1),
        ("l(x0,u10(x1))", 2, "unknown update subscript 10 with 2 states", 6),
        ("u0(x0)", 0, "unknown update subscript 0 with 0 states", 1),
        ("l(x0)", 2, "lookup takes 2 branches, got 1", 0),
        ("l(x0,x1,x2)", 2, "lookup takes 2 branches, got 3", 0),
        ("u1( l(x0) )", 2, "lookup takes 2 branches, got 1", 4),
        ("l(l(x0),x1)", 2, "lookup takes 2 branches, got 1", 2),
        ("l(x0)", 0, "lookup takes 0 branches, got 1", 0),
        ("l(l())", 0, "lookup takes 0 branches, got 1", 0),
        ("l()", 2, "expected a term, found ')'", 2),
        ("l(x0,)", 2, "expected a term, found ')'", 5),
        ("l(x0, )", 0, "expected a term, found ')'", 6),
        ("l(x0,x1,y)", 2, "expected a term, found 'y'", 8),
        ("y0", 2, "expected a term, found 'y'", 0),
        ("x0 x1", 2, "trailing input 'x1'", 3),
        ("x0)", 2, "trailing input ')'", 2),
        ("l(x0,x1))", 2, "trailing input ')'", 8),
        ("l()x0", 0, "trailing input 'x0'", 3),
        ("x0\u00b2", 2, "trailing input '\u00b2'", 2),
    ])
    def test_error_contract(self, text, s_size, message, position):
        with pytest.raises(TermError) as exc:
            parse_term(text, s_size)
        assert str(exc.value) == f"{message} (at position {position})"
        assert exc.value.position == position

    @pytest.mark.parametrize("text,message", [
        pytest.param("u0(" * 5000, "unexpected end of input (at position 15000)",
                     id="updates"),
        pytest.param("l(x0," * 5000, "unexpected end of input (at position 25000)",
                     id="lookups"),
        pytest.param("u0(" * 5000 + "x0" + ")" * 4999,
                     "expected ')', found 'end of input' (at position 20001)", id="one-short"),
    ])
    def test_unclosed_deep_chain(self, text, message):
        # nested past the recursion limit: a TermError, not a RecursionError
        with pytest.raises(TermError) as exc:
            parse_term(text, 2)
        assert str(exc.value) == message

    def test_deep_term_parsed(self):
        # 100,000 nodes nested 66,666 deep: layer k is l(u1(<layer k-1>),x<k>)
        # around x0.  Checked through text and normal forms, as dataclass
        # == recurses.  From state 0 the run ends in layer L-1's branch 1.
        layers = 33_333
        text = "l(u1(" * layers + "x0" + "".join(f"),x{k})" for k in range(1, layers + 1))
        t = parse_term(text, 2)
        assert format_term(t) == text
        assert format_term(normalize(t, 2)) == f"l(u1(x{layers - 1}),x{layers})"

    @given(terms())
    def test_roundtrip(self, t):
        assert parse_term(format_term(t), 2) == t

    def test_print_parse_identity_up_to_whitespace(self):
        text = "l(u0(l(x0,x1)),x1)"
        assert format_term(parse_term(text, 2)) == text

    def test_terms_are_slotted_values(self):
        t = parse_term("l(u0(l(x0,x1)),u1(x2))", 2)
        nodes = [t, t.branches[0], t.branches[0].body, t.branches[1].body]
        assert {type(n) for n in nodes} == {Lookup, Update, Var}
        assert not any(hasattr(n, "__dict__") for n in nodes)
        for copied in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
            assert copied == t and hash(copied) == hash(t)
            assert format_term(copied) == format_term(t)


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
        assert format_term(normalize(t, 2)) == "x0"

    def test_mismatched_updates_collapse(self):
        # both branches jump to state 0, whatever the start state
        t = parse_term("l(u0(x0),u0(x0))", 2)
        assert normalize(t, 2) == Update(0, Var(0))

    def test_variables_are_normal(self):
        assert normalize(Var(3), 2) == Var(3)

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


class TestNormalForm:
    @given(st.data())
    @settings(max_examples=300)
    def test_complete_for_equality(self, data):
        # few variables and shallow terms, so equal pairs are common
        s = data.draw(st.sampled_from([1, 2, 3]))
        nvars = data.draw(st.sampled_from([1, 2]))
        a, b = (data.draw(terms(s, nvars, 3)) for _ in range(2))
        same = normalize(a, s) == normalize(b, s)
        assert same == terms_equal(a, b, StateMonadCtx(s), nvars)

    @pytest.mark.parametrize(
        "s,nvars,depth",
        [(2, 1, 3), (2, 2, 3), (2, 3, 3), (3, 1, 2),
         # the closure refused these: 216, 729 and 256 classes
         (3, 2, 3), (3, 2, 4), (3, 2, 5), (3, 3, 3), (4, 1, 4)],
    )
    def test_free_class_representatives_are_normal(self, s, nvars, depth):
        ctx = StateMonadCtx(s)
        result = free_classes(ctx, nvars, depth)
        assert result.count == (s * nvars) ** s
        for code, rep in result.representatives.items():
            assert denote(rep, ctx, nvars) == code
            assert normalize(rep, s) == rep

    def test_deep_term(self):
        # 1,666 nested lookups, 4,999 nodes, built without recursion: from
        # state 0 the run descends to x0, from state 1 it jumps to (0, x1)
        t = Var(0)
        for _ in range(1666):
            t = Lookup((t, Update(0, Var(1))))
        ctx = StateMonadCtx(2)
        expected = parse_term("l(x0,u0(x1))", 2)
        assert normalize(t, 2) == expected
        assert denote(t, ctx, 2) == denote(expected, ctx, 2)
        assert terms_equal(t, expected, ctx, 2)
        assert not terms_equal(t, Var(0), ctx, 2)

    def test_no_states(self):
        # equation 3 with no branches makes every term equal to l()
        assert normalize(Var(0), 0) == Lookup(())
        assert normalize(Lookup(()), 0) == Lookup(())

    def test_malformed_terms_rejected(self):
        for bad in (Update(2, Var(0)), Lookup((Var(0),)), Lookup((Var(0), "x1")),
                    Lookup((Var(0), Term()))):
            with pytest.raises(TermError):
                normalize(bad, 2)

    def test_subclass_instances_run_as_their_class(self, ctx2):
        class V(Var):
            pass

        class U(Update):
            pass

        class L(Lookup):
            pass

        t = L((U(1, V(0)), U(0, L((V(1), V(0))))))
        plain = parse_term("l(u1(x0),u0(l(x1,x0)))", 2)
        assert denote(t, ctx2, 2) == denote(plain, ctx2, 2)
        assert terms_equal(t, plain, ctx2, 2)
        assert normalize(t, 2) == normalize(plain, 2) == parse_term("l(u1(x0),u0(x1))", 2)
        with pytest.raises(TermError, match="unbound variable x1"):
            denote(U(0, V(1)), ctx2, 1)


def _checked_copy(t: Term) -> Term:
    """``t`` rebuilt through the public, checking constructors."""
    if type(t) is Var:
        return Var(t.index)
    if type(t) is Update:
        return Update(t.state, _checked_copy(t.body))
    return Lookup(tuple(_checked_copy(b) for b in t.branches))


class TestBuiltTerms:
    """Terms that parse_term, normalize and free_classes build without the
    constructors' checks behave exactly like checked ones."""

    @staticmethod
    def assert_like_checked(t: Term) -> None:
        checked = _checked_copy(t)
        assert t == checked and checked == t and not t != checked
        assert hash(t) == hash(checked) and repr(t) == repr(checked)
        for copied in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
            assert copied == checked and repr(copied) == repr(checked)
        stack = [t]
        while stack:
            node = stack.pop()
            assert type(node) in (Var, Update, Lookup) and not hasattr(node, "__dict__")
            for f in fields(node):
                with pytest.raises(FrozenInstanceError):
                    setattr(node, f.name, getattr(node, f.name))
                with pytest.raises(FrozenInstanceError):
                    delattr(node, f.name)
            if type(node) is Update:
                stack.append(node.body)
            elif type(node) is Lookup:
                assert type(node.branches) is tuple
                stack.extend(node.branches)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_parsed_and_normal_forms(self, s):
        rng = random.Random(20 + s)
        for _ in range(150):
            t = random_term(rng, s, 3, 4)
            parsed = parse_term(format_term(t), s)
            assert parsed == t
            self.assert_like_checked(parsed)
            self.assert_like_checked(normalize(parsed, s))

    @pytest.mark.parametrize("s,nvars", [(1, 3), (2, 2), (3, 1)])
    def test_free_class_representatives(self, s, nvars):
        for rep in free_classes(StateMonadCtx(s), nvars, 3).representatives.values():
            self.assert_like_checked(rep)

    def test_no_states(self):
        for t in (parse_term("l( )", 0), normalize(Var(0), 0)):
            self.assert_like_checked(t)
            assert t == Lookup(())

    def test_deep_terms_compare_hash_and_print(self):
        """``==``, ``hash`` and ``repr`` take any depth: dataclass-generated,
        each raised RecursionError on a 5,000-deep term."""
        depth = 5_000
        chain = "u0(" * depth + "x0" + ")" * depth
        nested = "l(" * depth + "x0" + ",x1)" * depth
        for text, printed in (
            (chain, "Update(state=0, body=" * depth + "Var(index=0)" + ")" * depth),
            (nested, "Lookup(branches=(" * depth + "Var(index=0)" + ", Var(index=1)))" * depth),
        ):
            a, b = parse_term(text, 2), parse_term(text, 2)
            assert a is not b and a == b and not a != b
            assert hash(a) == hash(b)
            assert repr(a) == printed
            other = parse_term(text.replace("x0", "x2"), 2)
            assert a != other and not a == other

    def test_equality_is_by_class_and_fields(self):
        class L(Lookup):
            pass

        pairs = [
            (Update(0, Var(0)), Update(0, Var(1))),
            (Update(0, Var(0)), Update(1, Var(0))),
            (Lookup((Var(0), Var(1))), Lookup((Var(0),))),
            (Lookup((Var(0), Var(1))), L((Var(0), Var(1)))),
            (Update(0, Lookup((Var(0),))), Update(0, L((Var(0),)))),
            (Var(0), Update(0, Var(0))),
        ]
        for a, b in pairs:
            assert a != b and b != a and not a == b
            assert a == _checked_copy(a) and hash(a) == hash(_checked_copy(a))
        assert L((Var(0),)) == L((Var(0),)) and hash(L((Var(0),))) == hash(L((Var(0),)))
        assert repr(L((Var(0),))).endswith("L(branches=(Var(index=0),))")
        assert Var(0) != 0 and Lookup(()) != ()

    def test_pickle_and_copy_take_any_depth(self):
        """pickle, ``copy.copy`` and ``copy.deepcopy`` rebuild a term from its
        flat preorder: on the dataclass pickling each raised RecursionError on
        a 5,000-deep term."""
        depth = 5_000
        terms = [
            parse_term("u0(" * depth + "x0" + ")" * depth, 2),
            parse_term("l(" * depth + "x0" + ",x1)" * depth, 2),
            parse_term("l(u1(x0),l(x1,u0(x2)))", 2),
            Lookup(()),
            Var(3),
            _Branches((Var(0), Update(1, _Branches(())))),
            Update(1, "x0"),
            Lookup((Var(0), 7, None)),
        ]
        for t in terms:
            copies = [pickle.loads(pickle.dumps(t, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
            for c in copies + [copy.copy(t), copy.deepcopy(t)]:
                assert c is not t and type(c) is type(t)
                assert c == t and t == c and hash(c) == hash(t)
        pair = copy.deepcopy(terms[5])
        assert type(pair.branches[1].body) is _Branches
        assert repr(pair) == repr(terms[5])
        assert copy.deepcopy(terms[7]).branches[1:] == (7, None)


class _Branches(Lookup):
    """A subclass of a term class, for the pickling test."""


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
        # each of the four equations, expanded over all subscripts, at 1..3 states
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


def _equation_violation(s, xn, updates, look):
    """The first failing instance of equations 1 to 3 for s updates in
    c-major order (``updates[c * xn + v] = u_c(v)``) and a lookup, or None."""
    ups = [updates[c * xn:(c + 1) * xn] for c in range(s)]
    return _update_violation(xn, ups) or _lookup_violation(xn, ups, look)


class TestCanonicalAlgebra:
    """The closed-form lookup/update structure of the function algebra on
    ``B^S``: the diagonal and ``u_c(g) = const g(c)``."""

    @pytest.mark.parametrize("s,b", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_equations_hold(self, s, b):
        alg = function_algebra(StateMonadCtx(s), b)
        assert alg.carrier.size == b**s
        assert _equation_violation(s, b**s, alg.updates, alg.lookup) is None

    def test_singleton_state_is_trivial(self, ctx1):
        alg = function_algebra(ctx1, 3)
        assert alg.lookup == (0, 1, 2)
        assert alg.updates == (0, 1, 2)

    def test_update_tables_by_hand(self, ctx2):
        # two states over a 2-element base: update 0 keeps the value at
        # state 0 and makes it constant
        alg = function_algebra(ctx2, 2)
        # codes 0..3 are functions (g(0), g(1)) with code g(0) + 2 g(1);
        # update at state s sends g to the constant function on g(s)
        assert alg.updates[:4] == (0, 3, 0, 3)
        assert alg.updates[4:] == (0, 0, 3, 3)

    def test_broken_structure_detected(self, ctx2):
        alg = function_algebra(ctx2, 2)
        broken = alg.updates[:4] + (1, 3, 0, 3)
        assert _equation_violation(2, 4, broken, alg.lookup) is not None


class TestNestedLookupImplied:
    """Equations 2 and 3 imply equation 4, so the algebra check does not
    scan it (``algebra._presentation_violation``).  Checked here on every
    2-state model on at most 4 elements (at 2 and 3 elements no model
    satisfies equations 1-3; at 4 the twelve algebras do)."""

    @staticmethod
    def models(a_n):
        """Every (u0, u1, lookup) satisfying equations 2 and 3: the lookups
        equation 2 allows, cell by cell, with the cells equation 3 pins."""
        carrier = range(a_n)
        funcs = list(product(carrier, repeat=a_n))
        for u0, u1 in product(funcs, repeat=2):
            # cell g0 + a_n * g1 holds l(g0, g1)
            allowed = [
                [y for y in carrier if u0[y] == u0[g0] and u1[y] == u1[g1]]
                for g1 in carrier
                for g0 in carrier
            ]
            for a in carrier:
                g = u0[a] + a_n * u1[a]
                allowed[g] = [a] if a in allowed[g] else []
            for look in product(*allowed):
                yield u0, u1, look

    @pytest.mark.parametrize("a_n", [0, 1, 2, 3, 4])
    def test_equations_two_and_three_imply_four(self, a_n):
        full = 0
        for u0, u1, look in self.models(a_n):
            ups = (u0, u1)
            for a00, a01, a10, a11 in product(range(a_n), repeat=4):
                rows = look[a00 + a_n * a01] + a_n * look[a10 + a_n * a11]
                assert look[rows] == look[a00 + a_n * a11]
            eq1 = all(
                ups[s1][ups[s2][a]] == ups[s2][a]
                for s1 in range(2)
                for s2 in range(2)
                for a in range(a_n)
            )
            assert (_equation_violation(2, a_n, u0 + u1, look) is None) == eq1
            full += eq1
        # x!/k! algebras on x = k**2 elements, none on the others
        assert full == {0: 1, 1: 1, 2: 0, 3: 0, 4: 12}[a_n]


class TestNestedLookupWitness:
    """The nested-lookup shape of equation 4 (a lookup of lookups, one
    index per state) on the digit-table kernel: with coordinate 0 as the
    most significant digit, the least failing code is the first failing
    combination in ``itertools.product`` order."""

    @staticmethod
    def reference(look, lefts, rights, a_n):
        for combo in product(*(range(len(p)) for p in lefts)):
            lcode = sum(lefts[s][i] * a_n**s for s, i in enumerate(combo))
            rcode = sum(rights[s][i] * a_n**s for s, i in enumerate(combo))
            if look[lcode] != look[rcode]:
                return combo
        return None

    @staticmethod
    def witness(look, lefts, rights, a_n):
        s = len(lefts)
        pows = [a_n**i for i in reversed(range(s))]
        w = first_mismatch((lefts[::-1], pows, (look,)), (rights[::-1], pows, (look,)))
        if w is None:
            return None
        combo = [0] * s
        for s1 in reversed(range(s)):
            w, combo[s1] = divmod(w, len(lefts[s1]))
        return tuple(combo)

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
        assert self.witness(look, lefts, rights, a_n) == expected

    def test_none_when_sides_agree(self):
        lefts = [[0, 1], [1, 0]]
        assert self.witness([0, 1, 2, 3], lefts, lefts, 2) is None


class TestTranslations:
    """An algebra's updates and lookup and its structure map determine each
    other: the fold of what read_presentation reads off h is h, and h
    validated gives back the updates and lookup it was folded from."""

    def test_monad_to_state_and_back_on_the_twelve(self, twelve):
        for alg in twelve:
            refolded = TAlgebra(alg.ctx, alg.carrier, alg.updates, alg.lookup)
            assert refolded.structure.table == alg.structure.table
            assert (alg.updates, alg.lookup) == read_presentation(
                alg.ctx, 4, alg.structure.table
            )

    def test_state_to_monad_and_back_on_canonical(self):
        for s, b in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            ctx = StateMonadCtx(s)
            alg = function_algebra(ctx, b)
            ta = check_algebra(ctx, alg.carrier, alg.structure)
            assert isinstance(ta, TAlgebra)
            assert ta.lookup == alg.lookup
            assert ta.updates == alg.updates

    def test_function_algebra_translates_to_canonical(self, ctx2):
        # the updates and lookup read off the exponentiated evaluation are
        # the closed form the function algebra carries
        h = exp_map(evaluation(FinSet(2), ctx2.state), ctx2.state).table
        alg = function_algebra(ctx2, 2)
        assert read_presentation(ctx2, 4, h) == (alg.updates, alg.lookup)

    def test_singleton_state_updates_are_identity(self, ctx1):
        alg = function_algebra(ctx1, 3)
        assert read_presentation(ctx1, 3, alg.structure.table)[0] == (0, 1, 2)
        assert alg.updates == (0, 1, 2)


# The reference free_classes must agree with: it closes the class set
# under the constructors round by round, building each term from terms.

#: Most lookup combinations one round of :func:`_closure_reference` may
#: close over.
FREE_COMBO_LIMIT = 10**6


def term_size(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    if isinstance(t, Update):
        return 1 + term_size(t.body)
    return 1 + sum(term_size(b) for b in t.branches)  # type: ignore[union-attr]


def _closure_reference(ctx: StateMonadCtx, nvars: int, depth: int) -> FreeClasses:
    """Bucket all terms up to the given depth by free-model denotation.

    Works on denotation classes rather than raw terms: the denotation is
    compositional, so closing the class set under the two constructors
    reaches exactly the classes of depth-bounded terms while keeping at most
    ``(|S| * nvars) ** |S|`` buckets alive.  Representatives are minimal by
    term size, then lexicographically.
    """
    if depth < 1:
        raise FinSetError(f"depth must be at least 1, got {depth}")
    s = ctx.state.size
    v = FinSet(nvars)
    base = s * nvars
    pows = [base**i for i in range(s)]

    def key(t: Term) -> tuple[int, str]:
        return (term_size(t), format_term(t))

    reps: dict[int, Term] = {}
    for i in range(nvars):
        code = ctx.unit_at(v, i)
        t = Var(i)
        if code not in reps or key(t) < key(reps[code]):
            reps[code] = t

    saturated = False
    for _ in range(depth):
        if len(reps) ** max(s, 1) > FREE_COMBO_LIMIT:
            raise SearchCeilingExceeded(
                f"lookup closure over {len(reps)} classes exceeds {FREE_COMBO_LIMIT}"
            )
        new: dict[int, Term] = {}

        def offer(code: int, t: Term) -> None:
            best = reps.get(code) or new.get(code)
            if best is None or key(t) < key(best):
                new[code] = t

        items = sorted(reps.items(), key=lambda kv: key(kv[1]))
        for code, t in items:
            for s1 in range(s):
                value = (code // pows[s1]) % base
                offer(sum(value * p for p in pows), Update(s1, t))
        for combo in product(items, repeat=s):
            # digit i of the lookup's code is digit i of the i-th branch's
            code = sum(c // p % base * p for (c, _), p in zip(combo, pows))
            offer(code, Lookup(tuple(t for _, t in combo)))
        fresh = set(new) - set(reps)
        improved = any(
            code in reps and key(t) < key(reps[code]) for code, t in new.items()
        )
        for code, t in new.items():
            if code not in reps or key(t) < key(reps[code]):
                reps[code] = t
        if not fresh and not improved:
            saturated = True
            break
    return FreeClasses(count=len(reps), representatives=dict(sorted(reps.items())), saturated=saturated)


#: The cases of the grid below that the closure refuses: its third round
#: would combine 216 or 729 classes in each lookup branch.
CLOSURE_REFUSES = {(3, nvars, depth) for nvars in (2, 3) for depth in (3, 4, 5)}


class TestFreeClasses:
    @pytest.mark.parametrize(
        "s,nvars,depth",
        [c for c in product(range(4), range(4), range(1, 6)) if c not in CLOSURE_REFUSES],
    )
    def test_matches_the_closure(self, s, nvars, depth):
        ctx = StateMonadCtx(s)
        got, want = free_classes(ctx, nvars, depth), _closure_reference(ctx, nvars, depth)
        assert (got.count, got.saturated) == (want.count, want.saturated)
        assert list(got.representatives.items()) == list(want.representatives.items())

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

    def test_deep_term_printed_and_scanned(self):
        # 100,000 nested nodes, built without recursion: layer k is
        # l(u1(<layer k-1>),x<k>) around x0
        layers = 50_000
        t = Var(0)
        for k in range(1, layers + 1):
            t = Lookup((Update(1, t), Var(k)))
        expected = (
            "l(u1(" * layers
            + "x0"
            + "".join(f"),x{k})" for k in range(1, layers + 1))
        )
        assert format_term(t) == expected
        assert max_var(t) == layers
        assert max_var(Update(0, t)) == layers

    def test_format_term_rejects_a_non_term(self):
        for bad in (Update(0, ")"), Lookup((Var(0), "x1")), 3):
            with pytest.raises(TermError, match="not a term"):
                format_term(bad)

    def test_term_size(self):
        # the size the closure reference orders representatives by
        assert term_size(parse_term("l(u0(x0),x1)", 2)) == 4
