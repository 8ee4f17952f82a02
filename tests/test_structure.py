import itertools

import pytest
from hypothesis import given, settings, strategies as st

from causact.formula import (
    And,
    BoxArrow,
    FormulaError,
    Not,
    Or,
    PrimEvent,
    Signature,
    parse_formula,
)
from causact.model import ModelError
from causact.structure import (
    CfStructure,
    RelationOrder,
    StructureError,
    TierOrder,
    parse_structure,
    structure_to_text,
    validate_structure,
)


SIG = Signature(
    exogenous=(("U", ("0", "1")),),
    endogenous=(("X", ("0", "1", "2")), ("Y", ("0", "1"))),
)


def make_structure(tier_plan, states=None):
    """Three fixed states unless given; tier_plan maps state -> list of sets."""
    if states is None:
        states = {
            "a": {"U": "0", "X": "0", "Y": "0"},
            "b": {"U": "0", "X": "1", "Y": "1"},
            "c": {"U": "1", "X": "2", "Y": "0"},
        }
    return CfStructure(SIG, states, TierOrder(tier_plan))


FLAT = {
    "a": [frozenset({"a"}), frozenset({"b", "c"})],
    "b": [frozenset({"b"}), frozenset({"a", "c"})],
    "c": [frozenset({"c"}), frozenset({"a", "b"})],
}


class TestSatisfaction:
    def test_events(self):
        m = make_structure(FLAT)
        assert m.satisfies_at("a", parse_formula("X=0 & Y=0 & U=0", SIG))
        assert not m.satisfies_at("a", parse_formula("X=1", SIG))

    def test_boxarrow_all_closest(self):
        m = make_structure(FLAT)
        # closest X!=0 states to a: both b and c (same tier); Y differs
        assert not m.satisfies_at("a", parse_formula("(X!=0) ~> (Y=1)", SIG))
        assert m.satisfies_at("a", parse_formula("(X!=0) ~> (X!=0)", SIG))

    def test_boxarrow_tier_preference(self):
        tiers = {
            "a": [frozenset({"a"}), frozenset({"b"}), frozenset({"c"})],
            "b": [frozenset({"b"}), frozenset({"a", "c"})],
            "c": [frozenset({"c"}), frozenset({"a", "b"})],
        }
        m = make_structure(tiers)
        assert m.satisfies_at("a", parse_formula("(X!=0) ~> (Y=1)", SIG))

    def test_true_antecedent_is_centering(self):
        m = make_structure(FLAT)
        # closest "true"-state is the state itself
        assert m.closest_states("a", parse_formula("true", SIG)) == frozenset({"a"})

    def test_vacuous_boxarrow_true(self):
        m = make_structure(FLAT)
        assert m.satisfies_at("a", parse_formula("(X=0 & X=1) ~> (Y=1)", SIG))

    def test_unranked_states_are_farthest(self):
        tiers = {
            "a": [frozenset({"a"}), frozenset({"b"})],  # c unranked
            "b": [frozenset({"b"}), frozenset({"a", "c"})],
            "c": [frozenset({"c"}), frozenset({"a", "b"})],
        }
        m = make_structure(tiers)
        assert m.closest_states("a", parse_formula("X!=0", SIG)) == frozenset({"b"})
        # but an unranked state is still found if it is the only option
        assert m.closest_states("a", parse_formula("X=2", SIG)) == frozenset({"c"})

    def test_intervention_rejected(self):
        m = make_structure(FLAT)
        for text in ("[X<-1] Y=1", "(X=1) ~> ([X<-1] Y=1)"):
            with pytest.raises(FormulaError, match="interventions are not evaluable in counterfactual structures"):
                m.satisfies_at("a", parse_formula(text, SIG))

    def test_unknown_base_state_rejected(self):
        m = make_structure(FLAT)
        phi = parse_formula("X=1", SIG)
        for query in (m.closest_states, m.satisfies_at):
            with pytest.raises(StructureError, match="unknown state 'nosuch'"):
                query("nosuch", phi)

    def test_nested_boxarrow_allowed(self):
        m = make_structure(FLAT)
        phi = BoxArrow(PrimEvent("X", "1"), BoxArrow(PrimEvent("X", "0"), PrimEvent("Y", "0")))
        assert isinstance(m.satisfies_at("a", phi), bool)


class TestValidation:
    def test_flat_structure_ok(self):
        assert validate_structure(make_structure(FLAT)) == []

    def test_centering_violation_detected(self):
        tiers = dict(FLAT)
        tiers["a"] = [frozenset({"a", "b"}), frozenset({"c"})]  # b as close as a to a
        violations = validate_structure(make_structure(tiers))
        assert violations and violations[0].kind == "centering"

    def test_missing_self_detected(self):
        tiers = dict(FLAT)
        tiers["a"] = [frozenset({"b"}), frozenset({"c"})]
        kinds = {v.kind for v in validate_structure(make_structure(tiers))}
        assert "unranked-self" in kinds or "centering" in kinds

    def test_relation_order_full_check(self):
        states = {
            "a": {"U": "0", "X": "0", "Y": "0"},
            "b": {"U": "0", "X": "1", "Y": "1"},
        }
        triples = set()
        for s in states:
            for t in states:
                for w in states:
                    triples.add((s, t, w))  # everything equally close: breaks centering
        m = CfStructure(SIG, states, RelationOrder(triples))
        violations = validate_structure(m)
        assert violations and violations[0].kind == "centering"

    def test_relation_order_partial_preorder(self):
        states = {
            "a": {"U": "0", "X": "0", "Y": "0"},
            "b": {"U": "0", "X": "1", "Y": "1"},
            "c": {"U": "1", "X": "2", "Y": "0"},
        }
        # from a: b and c are incomparable; both are minimal X!=0 states
        triples = {(s, t, t) for s in states for t in states}
        triples |= {("a", "a", "b"), ("a", "a", "c"), ("b", "b", "a"), ("b", "b", "c"),
                    ("c", "c", "a"), ("c", "c", "b")}
        m = CfStructure(SIG, states, RelationOrder(triples))
        assert validate_structure(m) == []
        assert m.closest_states("a", parse_formula("X!=0", SIG)) == frozenset({"b", "c"})

    def test_incomplete_state_rejected(self):
        with pytest.raises(StructureError):
            CfStructure(SIG, {"a": {"U": "0", "X": "0"}}, TierOrder({}))

    def test_out_of_range_state_rejected(self):
        with pytest.raises(StructureError):
            CfStructure(SIG, {"a": {"U": "0", "X": "9", "Y": "0"}}, TierOrder({}))


# ---------------------------------------------------------------------------
# Closure properties of the box-arrow


def assignments():
    return st.tuples(
        st.sampled_from(("0", "1")),
        st.sampled_from(("0", "1", "2")),
        st.sampled_from(("0", "1")),
    ).map(lambda t: {"U": t[0], "X": t[1], "Y": t[2]})


@st.composite
def structures(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    asgns = draw(st.lists(assignments(), min_size=n, max_size=n))
    states = {f"s{i}": a for i, a in enumerate(asgns)}
    tiers = {}
    for s in states:
        rest = [t for t in states if t != s]
        perm = draw(st.permutations(rest))
        cut = draw(st.integers(min_value=0, max_value=len(perm)))
        plan = [frozenset({s})]
        if perm[:cut]:
            plan.append(frozenset(perm[:cut]))
        if perm[cut:]:
            plan.append(frozenset(perm[cut:]))
        tiers[s] = plan
    return CfStructure(SIG, states, TierOrder(tiers))


def small_formulas():
    events = st.sampled_from(
        [PrimEvent("X", v) for v in ("0", "1", "2")] + [PrimEvent("Y", v) for v in ("0", "1")]
    )
    return st.recursive(
        events,
        lambda sub: st.one_of(
            sub.map(Not),
            st.tuples(sub, sub).map(lambda p: And(*p)),
            st.tuples(sub, sub).map(lambda p: Or(*p)),
        ),
        max_leaves=4,
    )


class TestClosureProperties:
    @settings(max_examples=200, deadline=None)
    @given(structures(), small_formulas(), small_formulas(), small_formulas())
    def test_consequent_conjunction_closure(self, m, ant, psi1, psi2):
        """If the closest antecedent states all satisfy psi1 and all satisfy
        psi2, they all satisfy psi1 & psi2.  In particular no state can
        support two counterfactuals with jointly unsatisfiable consequents
        unless the antecedent is unrealizable."""
        s = m.states[0]
        if m.satisfies_at(s, BoxArrow(ant, psi1)) and m.satisfies_at(s, BoxArrow(ant, psi2)):
            assert m.satisfies_at(s, BoxArrow(ant, And(psi1, psi2)))

    @settings(max_examples=100, deadline=None)
    @given(structures(), small_formulas(), small_formulas())
    def test_equivalent_antecedents_agree(self, m, ant, psi):
        double_neg = Not(Not(ant))
        for s in m.states:
            assert m.satisfies_at(s, BoxArrow(ant, psi)) == m.satisfies_at(
                s, BoxArrow(double_neg, psi)
            )

    @settings(max_examples=100, deadline=None)
    @given(structures(), small_formulas())
    def test_true_at_state_implies_self_closest(self, m, ant):
        for s in m.states:
            if m.satisfies_at(s, ant):
                assert m.closest_states(s, ant) == frozenset({s})


# ---------------------------------------------------------------------------
# File format


STRUCT_TEXT = """\
# toy structure
structure toy
exo U : { 0, 1 }
var X : { 0, 1, 2 }
var Y : { 0, 1 }
state a { U=0, X=0, Y=0 }
state b { U=0, X=1, Y=1 }
state c { U=1, X=2, Y=0 }
order a : { b } ; { c }
order b : { a, c }
order c : { a, b }
"""


class TestFileFormat:
    def test_parse(self):
        m = parse_structure(STRUCT_TEXT)
        assert m.name == "toy"
        assert set(m.states) == {"a", "b", "c"}
        assert m.closest_states("a", parse_formula("X!=0", m.sig)) == frozenset({"b"})

    def test_implicit_self_tier(self):
        m = parse_structure(STRUCT_TEXT)
        assert m.order.rank("a", "a") == 0
        assert m.order.rank("a", "b") == 1

    def test_round_trip(self):
        m = parse_structure(STRUCT_TEXT)
        text = structure_to_text(m)
        again = parse_structure(text)
        for s in m.states:
            for t in m.states:
                assert m.order.rank(s, t) == again.order.rank(s, t)
        assert again.interp == m.interp

    def test_unknown_state_in_order_rejected(self):
        bad = STRUCT_TEXT.replace("order c : { a, b }", "order c : { a, z }")
        with pytest.raises(StructureError):
            parse_structure(bad)

    def test_duplicate_state_rejected(self):
        bad = STRUCT_TEXT + "state a { U=0, X=0, Y=0 }\n"
        with pytest.raises(StructureError):
            parse_structure(bad)

    def test_empty_value_set_rejected(self):
        bad = STRUCT_TEXT.replace("var Y : { 0, 1 }", "var Y :")
        with pytest.raises(ModelError, match="expected a value set in braces"):
            parse_structure(bad)

    def test_undeclared_state_variable_rejected(self):
        bad = STRUCT_TEXT.replace("state a { U=0, X=0, Y=0 }", "state a { U=0, X=0, Y=0, ZZZ=5 }")
        with pytest.raises(StructureError, match="undeclared variable ZZZ"):
            parse_structure(bad)

    def test_bare_structure_line_rejected(self):
        with pytest.raises(StructureError, match="structure line needs a name"):
            parse_structure("structure\nvar X : { 0, 1 }\nstate a { X=0 }\n")

    @pytest.mark.parametrize("line", ["exo  : { 0, 1 }", "var  : { 0, 1, 2 }", "var 2X : { 0, 1, 2 }"])
    def test_declaration_needs_a_variable_name(self, line):
        bad = STRUCT_TEXT.replace("exo U : { 0, 1 }" if line.startswith("exo") else "var X : { 0, 1, 2 }", line)
        with pytest.raises(ModelError, match="expected a variable name"):
            parse_structure(bad)

    def test_derived_order_needs_a_model(self):
        derived = STRUCT_TEXT.split("order")[0] + "order derived weighted-violations\n"
        with pytest.raises(StructureError, match="requires `over MODELFILE`"):
            parse_structure(derived)
