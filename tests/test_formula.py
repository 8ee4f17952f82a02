import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from causact.formula import (
    And,
    BoxArrow,
    Bot,
    ExoEvent,
    FALSE,
    FormulaError,
    Intervene,
    Not,
    Or,
    PrimEvent,
    Signature,
    TRUE,
    Top,
    conjoin,
    disjoin,
    as_event_conjunction,
    conjuncts,
    evaluate_prop,
    event_literals,
    format_formula,
    free_endogenous,
    is_propositional,
    label,
    parse_formula,
    parse_intervention,
    prop_entails,
    prop_equivalent,
    variables_of,
)
from causact.structure import truth_mask


SIG = Signature(
    exogenous=(("U", ("u0", "u1")),),
    endogenous=(("X", ("0", "1", "2")), ("Y", ("0", "1"))),
)


class TestParsing:
    def test_event(self):
        assert parse_formula("X=1", SIG) == PrimEvent("X", "1")

    def test_exogenous_event(self):
        assert parse_formula("U=u0", SIG) == ExoEvent("U", "u0")

    def test_negated_event_sugar(self):
        assert parse_formula("X!=1", SIG) == Not(PrimEvent("X", "1"))

    def test_precedence_and_over_or(self):
        phi = parse_formula("X=1 | X=2 & Y=1", SIG)
        assert isinstance(phi, Or)
        assert isinstance(phi.right, And)

    def test_negation_binds_tightest(self):
        phi = parse_formula("!X=1 & Y=1", SIG)
        assert isinstance(phi, And)
        assert isinstance(phi.left, Not)

    def test_intervention(self):
        phi = parse_formula("[X<-1, Y<-0] X=1", SIG)
        assert phi == Intervene((("X", "1"), ("Y", "0")), PrimEvent("X", "1"))

    def test_boxarrow_parenthesized(self):
        phi = parse_formula("(X=1) ~> (Y=1)", SIG)
        assert phi == BoxArrow(PrimEvent("X", "1"), PrimEvent("Y", "1"))

    def test_boxarrow_bare(self):
        assert parse_formula("X=1 ~> Y=1", SIG) == parse_formula("(X=1) ~> (Y=1)", SIG)

    def test_constants(self):
        assert parse_formula("true", SIG) is TRUE
        assert parse_formula("false", SIG) is FALSE

    def test_unknown_variable_rejected(self):
        with pytest.raises(FormulaError):
            parse_formula("Z=1", SIG)

    def test_out_of_range_value_rejected(self):
        with pytest.raises(FormulaError):
            parse_formula("Y=2", SIG)

    def test_duplicate_intervention_target_rejected(self):
        with pytest.raises(FormulaError):
            parse_formula("[X<-1, X<-2] Y=1", SIG)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(FormulaError):
            parse_formula("X=1 X=2", SIG)

    def test_long_negation_chain_parses_and_prints_without_recursion(self):
        text = "!" * 10**4 + "X=1"
        phi = parse_formula(text, SIG)
        assert format_formula(phi) == "!" * (10**4 - 1) + "X!=1"  # the innermost `!` prints as `!=`
        assert parse_formula(format_formula(phi), SIG) == phi
        for _ in range(10**4):
            assert isinstance(phi, Not)
            phi = phi.sub
        assert phi == PrimEvent("X", "1")

    def test_events_are_built_once_per_signature(self):
        phi = parse_formula("X=1 & !(X=1 | U=u0) & X!=1", SIG)
        first, second = phi.left.left, phi.left.right.sub.left
        assert first is second is phi.right.sub
        assert parse_formula("U=u0", SIG) is phi.left.right.sub.right


# Every message `tokenize` and the parser give, one malformed text each
# (positions count from 0; an unexpected character is placed at the
# character itself, after any whitespace before it).
FORMULA_ERRORS = [
    ('[X=1] Y=1', "expected '<-' at position 2, found '='"),
    ('true=1', "trailing input at position 4: '='"),
    ('X! =1', "expected '=' or '!=' after 'X' at position 1"),
    ('1=2', 'expected a variable name at position 0'),
    ('X=', 'expected a value at position 2'),
    ('X=1=2', "trailing input at position 3: '='"),
    ('X=@', "unexpected character '@' at position 2"),
    ('X=1 X=2', "trailing input at position 4: 'X'"),
    ('Z=1', "unknown variable 'Z' (at position 0)"),
    ('Y=0 & Y=2', "value '2' not in the range of Y (at position 6)"),
    ('U=u2', "value 'u2' not in the range of U (at position 0)"),
    ('[X<-1, X<-2] Y=1', 'intervention assigns the same variable twice'),
    ('', "expected a formula at position 0 (near 'end of input')"),
    ('   ', "expected a formula at position 3 (near 'end of input')"),
    ('X=1 &', "expected a formula at position 5 (near 'end of input')"),
    ('(X=1', "expected ')' at position 4, found 'end of input'"),
    ('(X=1) ~> Y=1', "expected '(' at position 9, found 'Y'"),
    ('(X=1 X=2)', "expected ')' at position 5, found 'X'"),
    ('((X=1)', "expected ')' at position 6, found 'end of input'"),
    ('[U<-u0] X=1', "can only intervene on endogenous variables, not 'U' (position 1)"),
    ('[X<-5] Y=1', "value '5' not in the range of X (position 4)"),
    ('[X<-] Y=1', 'expected a value at position 4'),
    ('[1<-0] Y=1', 'expected a variable name at position 1'),
    ('[X<-1 Y=1', "expected ']' at position 6, found 'Y'"),
    ('[X<-Y=1] Y=1', "value 'Y' not in the range of X (position 4)"),
    ('[Y=1', "expected '<-' at position 2, found '='"),
    ('X = = 1', 'expected a value at position 4'),
    ('X Y=1', "expected '=' or '!=' after 'X' at position 2"),
    ('!', "expected a formula at position 1 (near 'end of input')"),
    ('X=1 )', "trailing input at position 4: ')'"),
    ('X=1 | | Y=1', "expected a formula at position 6 (near '|')"),
    ('X ~ 1', "unexpected character '~' at position 2"),
    ('X=1\t@', "unexpected character '@' at position 4"),
    ('X<-1', "expected '=' or '!=' after 'X' at position 1"),
    ('false=0', "trailing input at position 5: '='"),
    ('X=true', "value 'true' not in the range of X (at position 0)"),
    ('!=1', "expected a formula at position 0 (near '!=')"),
    ('X=1 ~> ~> Y=1', "expected a formula at position 7 (near '~>')"),
    ('X=1, Y=1', "trailing input at position 3: ','"),
    ('[X<-1] [U<-u1] Y=1', "can only intervene on endogenous variables, not 'U' (position 8)"),
    ('X=1 & é', "unexpected character 'é' at position 6"),
    ('X !=', 'expected a value at position 4'),
    ('X != 1 Y', "trailing input at position 7: 'Y'"),
]

INTERVENTION_ERRORS = [
    ('X<-1, X<-2', 'intervention assigns the same variable twice'),
    ('X=1', "expected '<-' at position 1, found '='"),
    ('X<-1 Y<-0', "trailing input at position 5: 'Y'"),
    ('X<-Y=1', "value 'Y' not in the range of X (position 3)"),
    ('U<-u0', "can only intervene on endogenous variables, not 'U' (position 0)"),
    ('X<-3', "value '3' not in the range of X (position 3)"),
    ('', 'expected a variable name at position 0'),
    ('X<-1,', 'expected a variable name at position 5'),
]


@pytest.mark.parametrize("text, message", FORMULA_ERRORS)
def test_formula_error_messages(text, message):
    with pytest.raises(FormulaError) as exc:
        parse_formula(text, SIG)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, message", INTERVENTION_ERRORS)
def test_intervention_error_messages(text, message):
    with pytest.raises(FormulaError) as exc:
        parse_intervention(text, SIG)
    assert str(exc.value) == message


def formulas(depth=4):
    events = st.sampled_from(
        [PrimEvent("X", v) for v in ("0", "1", "2")]
        + [PrimEvent("Y", v) for v in ("0", "1")]
        + [ExoEvent("U", v) for v in ("u0", "u1")]
        + [TRUE, FALSE]
    )
    return st.recursive(
        events,
        lambda sub: st.one_of(
            sub.map(Not),
            st.tuples(sub, sub).map(lambda p: And(*p)),
            st.tuples(sub, sub).map(lambda p: Or(*p)),
        ),
        max_leaves=2**depth,
    )


class TestRoundTrip:
    @given(formulas())
    def test_format_parse_round_trip(self, phi):
        assert parse_formula(format_formula(phi), SIG) == phi

    def test_boxarrow_round_trip(self):
        phi = BoxArrow(And(PrimEvent("X", "1"), PrimEvent("Y", "0")), Not(PrimEvent("Y", "1")))
        assert parse_formula(format_formula(phi), SIG) == phi

    def test_intervention_round_trip(self):
        phi = Intervene((("X", "2"),), Or(PrimEvent("Y", "1"), PrimEvent("Y", "0")))
        assert parse_formula(format_formula(phi), SIG) == phi


class TestHashing:
    @given(formulas())
    def test_equal_trees_hash_equal(self, phi):
        again = parse_formula(format_formula(phi), SIG)
        assert hash(again) == hash(phi)
        copied = pickle.loads(pickle.dumps(phi))
        assert copied == phi and hash(copied) == hash(phi)

    def test_stored_hash_is_not_pickled(self):
        phi = parse_formula("X=1 & !(Y=0 | U=u1)", SIG)
        h = hash(phi)
        assert phi._hash == h
        assert pickle.loads(pickle.dumps(phi))._hash is None

    def test_deep_conjunction_hashes_without_recursion(self):
        text = " & ".join(["X=1", "Y!=0", "U=u0"] * 4000)
        first, second = parse_formula(text, SIG), parse_formula(text, SIG)
        assert hash(first) == hash(second)
        assert first.left._hash is not None  # stored on the way down too

    def test_deep_conjunction_prints_compares_and_flattens_without_recursion(self):
        text = " & ".join(["X=1", "Y!=0", "U=u0", "!(X=2 | Y=1)"] * 2500)
        first, second = parse_formula(text, SIG), parse_formula(text, SIG)
        assert first == second and first is not second
        assert str(first) == text
        assert parse_formula(str(first), SIG) == first
        assert len(conjuncts(first)) == 10**4
        differs = parse_formula("X=0 & " + text.partition(" & ")[2], SIG)
        assert first != differs and differs != first


ROWS = list(SIG.assignments(SIG.all_names()))  # every assignment of SIG
COLUMNS = {x: np.array([row[x] for row in ROWS]) for x in SIG.all_names()}
# the same rows as bitsets: bit r stands for ROWS[r]
FULL = (1 << len(ROWS)) - 1
BITS = {(x, v): sum(1 << r for r, row in enumerate(ROWS) if row[x] == v) for x, v in
        [(x, v) for x in SIG.all_names() for v in SIG.range_of(x)]}


def bit_label(phi, modal=None, cache=None):
    return label(phi, lambda ev: BITS[ev.var, ev.val], FULL, modal, cache)


def as_bits(mask):
    return sum(1 << r for r, b in enumerate(mask) if b)


def with_repeats(phi):
    """phi with its subformulas repeated: `psi & psi` and `!psi | psi` hold
    where psi does, and `true` everywhere."""
    return st.sampled_from([phi & phi, ~phi | phi, (phi & phi) | (~phi & phi), ~(~phi | phi) | (phi & ~phi)])


class TestTruthMask:
    @given(formulas())
    def test_matches_evaluate_prop_per_row(self, phi):
        cache = {}
        mask = truth_mask(phi, COLUMNS, len(ROWS), cache=cache)
        assert mask.tolist() == [evaluate_prop(phi, row) for row in ROWS]
        assert cache[phi] is mask and not mask.flags.writeable

    @given(formulas())
    def test_bitsets_match_evaluate_prop_per_row(self, phi):
        cache = {}
        bits = bit_label(phi, cache=cache)
        assert bits == as_bits(evaluate_prop(phi, row) for row in ROWS)
        assert cache[phi] == bits

    @given(formulas().flatmap(with_repeats))
    def test_repeated_subformulas(self, phi):
        truth = [evaluate_prop(phi, row) for row in ROWS]
        assert bit_label(phi) == bit_label(phi, cache={}) == as_bits(truth)
        masks = {}
        assert truth_mask(phi, COLUMNS, len(ROWS), cache=masks).tolist() == truth
        assert all(not m.flags.writeable for m in masks.values())

    @given(formulas(), formulas())
    def test_a_cache_filled_for_some_subtrees(self, phi, psi):
        # the cache holds psi's and its subformulas' sets already, and phi's
        # events are found there in the middle of the walk
        cache = {}
        bit_label(psi, cache=cache)
        masks = {}
        truth_mask(psi, COLUMNS, len(ROWS), cache=masks)
        for both in (phi & psi, psi | ~phi, ~(psi & (phi | psi))):
            truth = [evaluate_prop(both, row) for row in ROWS]
            assert bit_label(both, cache=cache) == as_bits(truth)
            assert truth_mask(both, COLUMNS, len(ROWS), cache=masks).tolist() == truth
        assert bit_label(phi, cache=cache) == as_bits(evaluate_prop(phi, row) for row in ROWS)

    def test_a_cached_set_is_taken_as_it_is(self):
        # a wrong set planted in the cache shows that the walk stops there
        phi = parse_formula("X=1 & !(Y=0 | U=u1)", SIG)
        assert bit_label(phi, cache={phi.right: FULL}) == BITS["X", "1"]
        assert bit_label(phi, cache={phi.right.sub: 0}) == BITS["X", "1"]
        assert bit_label(phi, cache={phi: 5}) == 5

    def test_modal_nodes_go_to_the_hook_with_their_operands_masks(self):
        seen = []

        def modal(node, *masks):
            seen.append((node, [m.tolist() for m in masks]))
            return masks[-1]

        phi = parse_formula("!((X=1) ~> (Y=0)) & [X<-2] U=u1", SIG)
        truth_mask(phi, COLUMNS, len(ROWS), modal)
        column = lambda x, v: [row[x] == v for row in ROWS]
        assert [type(node).__name__ for node, _ in seen] == ["BoxArrow", "Intervene"]
        assert seen[0][1] == [column("X", "1"), column("Y", "0")]
        assert seen[1][1] == [column("U", "u1")]
        with pytest.raises(FormulaError, match="not propositional: contains BoxArrow"):
            truth_mask(phi, COLUMNS, len(ROWS))

    def test_modal_nodes_get_their_operands_bitsets(self):
        seen = []

        def modal(node, *sets):
            seen.append((type(node).__name__, sets))
            return FULL ^ sets[0]

        phi = parse_formula("((X=1 | U=u0) ~> (Y=0)) | [X<-2] !U=u1", SIG)
        assert bit_label(phi, modal) == (FULL ^ (BITS["X", "1"] | BITS["U", "u0"])) | BITS["U", "u1"]
        assert seen == [("BoxArrow", (BITS["X", "1"] | BITS["U", "u0"], BITS["Y", "0"])),
                        ("Intervene", (FULL ^ BITS["U", "u1"],))]
        with pytest.raises(FormulaError, match="not propositional: contains Intervene"):
            bit_label(parse_formula("Y=1 | [X<-2] U=u1", SIG))


class TestPropositional:
    def test_free_endogenous_ignores_exogenous(self):
        phi = parse_formula("X=1 & U=u0", SIG)
        assert free_endogenous(phi) == {"X"}

    def test_variables_of_includes_exogenous(self):
        phi = parse_formula("X=1 & U=u0", SIG)
        assert variables_of(phi) == {"X", "U"}

    def test_is_propositional(self):
        assert is_propositional(parse_formula("!(X=1 | Y=0)", SIG))
        assert not is_propositional(parse_formula("[X<-1] Y=1", SIG))
        assert not is_propositional(parse_formula("(X=1) ~> (Y=1)", SIG))

    def test_evaluate(self):
        phi = parse_formula("X=1 & !Y=0", SIG)
        assert evaluate_prop(phi, {"X": "1", "Y": "1"})
        assert not evaluate_prop(phi, {"X": "1", "Y": "0"})

    def test_entails_basic(self):
        assert prop_entails(parse_formula("X=1 & Y=0", SIG), parse_formula("X=1", SIG), SIG)
        assert not prop_entails(parse_formula("X=1", SIG), parse_formula("Y=0", SIG), SIG)

    def test_entails_negation(self):
        # with a three-valued X, X=1 entails X!=0 but not conversely
        assert prop_entails(parse_formula("X=1", SIG), parse_formula("X!=0", SIG), SIG)
        assert not prop_entails(parse_formula("X!=0", SIG), parse_formula("X=1", SIG), SIG)

    def test_valid_and_consistent(self):
        assert prop_entails(TRUE, parse_formula("X=0 | X!=0", SIG), SIG)  # valid
        assert prop_entails(parse_formula("X=0 & X=1", SIG), FALSE, SIG)  # inconsistent

    def test_exhaustive_event_disjunction_is_valid(self):
        assert prop_entails(TRUE, parse_formula("X=0 | X=1 | X=2", SIG), SIG)

    @given(formulas(depth=3), formulas(depth=3))
    def test_entailment_via_conjunction(self, a, b):
        # a & b always entails a, and entailment is reflexive
        assert prop_entails(And(a, b), a, SIG)
        assert prop_entails(a, a, SIG)

    @given(formulas(depth=3))
    def test_de_morgan(self, a):
        assert prop_equivalent(Not(a), Not(a), SIG)

    @given(formulas(depth=3), formulas(depth=3))
    def test_de_morgan_pair(self, a, b):
        assert prop_equivalent(Not(And(a, b)), Or(Not(a), Not(b)), SIG)
        assert prop_equivalent(Not(Or(a, b)), And(Not(a), Not(b)), SIG)

    def test_deep_formulas_list_their_variables_without_recursion(self):
        text = " & ".join(["X=1", "Y!=0", "U=u0", "!(X=2 | Y=1)"] * 2500)
        phi = parse_formula(text, SIG)
        assert len(conjuncts(phi)) == 10**4
        assert variables_of(phi) == {"X", "Y", "U"}
        assert free_endogenous(phi) == {"X", "Y"}
        assert is_propositional(phi)
        assert not is_propositional(And(phi, Intervene((("X", "1"),), TRUE)))


# A signature with one-value ranges, endogenous and exogenous, for the
# entailment property below.
SIG1 = Signature(
    exogenous=(("U", ("u0", "u1")), ("V", ("v",))),
    endogenous=(("X", ("0", "1", "2")), ("Y", ("0", "1")), ("Z", ("z",))),
)

# events over SIG1, some with a value outside the variable's range
LITERALS = (
    [PrimEvent("X", v) for v in ("0", "1", "2", "3")]
    + [PrimEvent("Y", v) for v in ("0", "1")]
    + [PrimEvent("Z", v) for v in ("z", "w")]
    + [ExoEvent("U", v) for v in ("u0", "u1", "u2")]
    + [ExoEvent("V", "v")]
)


def entails_by_truth_table(phi, psi, sig):
    """The reference: every assignment to the occurring variables that
    satisfies phi satisfies psi."""
    names = variables_of(phi) | variables_of(psi)
    return all(
        not evaluate_prop(phi, asgn) or evaluate_prop(psi, asgn) for asgn in sig.assignments(names)
    )


@st.composite
def event_conjunctions(draw):
    """A conjunction of events and `true`, built with And in any shape, with
    repeated and conflicting literals allowed."""
    parts = draw(st.lists(st.sampled_from(LITERALS + [TRUE]), max_size=6))
    if not parts:
        return TRUE
    while len(parts) > 1:
        i = draw(st.integers(0, len(parts) - 2))
        parts[i : i + 2] = [And(parts[i], parts[i + 1])]
    return parts[0]


def sig1_formulas():
    """Formulas over SIG1 that are mostly not event conjunctions."""
    return st.recursive(
        st.sampled_from(LITERALS + [TRUE, FALSE]),
        lambda sub: st.one_of(
            sub.map(Not),
            st.tuples(sub, sub).map(lambda p: And(*p)),
            st.tuples(sub, sub).map(lambda p: Or(*p)),
        ),
        max_leaves=6,
    )


class TestEntailmentByInclusion:
    @given(event_conjunctions(), event_conjunctions())
    def test_conjunctions_agree_with_truth_table(self, a, b):
        assert event_literals(a, SIG1) is not None
        assert (event_literals(a, SIG1) is FALSE) == entails_by_truth_table(a, FALSE, SIG1)
        assert prop_entails(a, b, SIG1) == entails_by_truth_table(a, b, SIG1)

    @given(st.one_of(event_conjunctions(), sig1_formulas()),
           st.one_of(event_conjunctions(), sig1_formulas()))
    def test_mixed_pairs_agree_with_truth_table(self, a, b):
        assert prop_entails(a, b, SIG1) == entails_by_truth_table(a, b, SIG1)

    def test_literals(self):
        x1, z, u0 = PrimEvent("X", "1"), PrimEvent("Z", "z"), ExoEvent("U", "u0")
        assert event_literals(TRUE, SIG1) == frozenset()
        assert event_literals(And(And(x1, z), And(TRUE, u0)), SIG1) == {("X", "1"), ("U", "u0")}
        assert event_literals(And(x1, PrimEvent("X", "2")), SIG1) is FALSE
        assert event_literals(PrimEvent("X", "3"), SIG1) is FALSE
        assert event_literals(Or(x1, z), SIG1) is None
        assert event_literals(And(x1, Not(z)), SIG1) is None
        assert event_literals(FALSE, SIG1) is None


class TestHelpers:
    def test_conjoin_empty_is_true(self):
        assert conjoin([]) is TRUE

    def test_disjoin_empty_is_false(self):
        assert disjoin([]) is FALSE

    def test_as_event_conjunction(self):
        phi = parse_formula("X=1 & Y=0", SIG)
        assert as_event_conjunction(phi) == [("X", "1"), ("Y", "0")]

    def test_as_event_conjunction_rejects_duplicates(self):
        with pytest.raises(FormulaError):
            as_event_conjunction(parse_formula("X=1 & X=2", SIG))

    def test_as_event_conjunction_rejects_disjunction(self):
        with pytest.raises(FormulaError):
            as_event_conjunction(parse_formula("X=1 | Y=0", SIG))

    def test_signature_rejects_duplicate_names(self):
        with pytest.raises(FormulaError):
            Signature(exogenous=(("A", ("0",)),), endogenous=(("A", ("0", "1")),))
