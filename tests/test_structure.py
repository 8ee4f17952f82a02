import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causact.abstract import CfSetting, conj_language, is_actual_cause_abstract, pair_language
from causact.correspondence import CounterpartOrder, build_counterpart, check_correspondence, state_space_size
from causact.corpus import backtracking_structure, bomb_structures
from causact.formula import (
    FALSE,
    TRUE,
    And,
    BoxArrow,
    ExoEvent,
    FormulaError,
    Intervene,
    Not,
    Or,
    PrimEvent,
    Signature,
    Top,
    Bot,
    evaluate_prop,
    format_formula,
    parse_formula,
)
from causact.harness import DEFAULT_CAPS, FuzzCaps, gen_random_model, random_context
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

    def test_intervention_in_unreached_consequent_rejected(self):
        # the consequent's mask is computed at every state, so an
        # intervention is found even where no closest antecedent state
        # would evaluate it: an empty antecedent, or a disjunct that the
        # closest states never reach
        m = make_structure(FLAT)
        for text in ("(X=0 & X=1) ~> ([X<-1] Y=1)", "(X=1) ~> (Y=1 | [X<-1] Y=1)"):
            with pytest.raises(FormulaError, match="interventions are not evaluable in counterfactual structures"):
                m.satisfies_at("a", parse_formula(text, SIG))

    def test_intervention_in_a_decided_operand_rejected(self):
        # a mask labels both operands of `&` and `|` at every state, so an
        # intervention is met even where the other operand decides them all
        m = make_structure(FLAT)
        for text, at_a in (("(X=0 & X=1) & [X<-1] Y=1", False), ("(U=0 | U=1) | [X<-1] Y=1", True)):
            phi = parse_formula(text, SIG)
            for query in (
                lambda: m.closest_states("a", phi),
                lambda: m.satisfies_at("a", BoxArrow(phi, PrimEvent("Y", "1"))),
                lambda: m.extension(Not(phi)),
            ):
                with pytest.raises(FormulaError, match="interventions are not evaluable in counterfactual structures"):
                    query()
            # evaluated at one state, the top level still short-circuits
            assert m.satisfies_at("a", phi) is at_a

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


class TestStatesAreStoredOnce:
    def test_handed_out_assignments_are_copies(self):
        m = make_structure(FLAT)
        m.interp["a"]["X"] = "1"
        CfSetting(m, "b").assignment["X"] = "2"
        assert m.interp["a"] == {"U": "0", "X": "0", "Y": "0"}
        assert m.codes.tolist() == [[0, 0, 0], [0, 1, 1], [1, 2, 0]]
        for x in SIG.range_of("X"):
            phi = parse_formula(f"X={x}", SIG)
            assert [m.satisfies_at(s, phi) for s in m.states] == m.extension(phi).tolist()

    def test_interp_is_read_only(self):
        m = make_structure(FLAT)
        with pytest.raises(TypeError):
            m.interp["a"] = {"U": "1", "X": "0", "Y": "0"}
        assert "a" in m.interp and "z" not in m.interp and len(m.interp) == 3
        with pytest.raises(KeyError):
            m.interp["z"]


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

    def test_state_in_two_tiers_of_one_base_rejected(self):
        # ranked by its last tier, b would be written as a file that does not parse
        tiers = dict(FLAT)
        tiers["a"] = [frozenset({"a"}), frozenset({"b"}), frozenset({"b", "c"})]
        with pytest.raises(StructureError, match="^order for a names a state twice: b$"):
            TierOrder(tiers)
        with pytest.raises(StructureError, match="^order for a names a state twice: a$"):
            TierOrder({"a": [frozenset({"a"}), frozenset({"a", "b"})]})

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

    @pytest.mark.parametrize("line", [
        "order a : { b } ; { c } ; { b }",  # a later tier would win
        "order a : { b } ; { b, c }",  # as a TierOrder naming b twice was once written
        "order a : { b, c, b }",
        "order a : { a } ; { b }",  # the base is the implicit first tier
        "order a : { b } ; { c }\norder a : { c }",  # a second line would replace the first
    ])
    def test_state_named_twice_in_an_order_rejected(self, line):
        bad = STRUCT_TEXT.replace("order a : { b } ; { c }", line)
        with pytest.raises(StructureError, match="names a state twice|two orders for state a"):
            parse_structure(bad)

    def test_corpus_structures_round_trip(self):
        for m in [backtracking_structure()[0], *bomb_structures()]:
            again = parse_structure(structure_to_text(m))
            assert again.interp == m.interp
            assert all(m.order.rank(s, t) == again.order.rank(s, t) for s in m.states for t in m.states)

    def test_duplicate_state_rejected(self):
        bad = STRUCT_TEXT + "state a { U=0, X=0, Y=0 }\n"
        with pytest.raises(StructureError):
            parse_structure(bad)

    def test_variable_assigned_twice_in_a_state_rejected(self):
        bad = STRUCT_TEXT.replace("state a { U=0, X=0, Y=0 }", "state a { U=0, X=1, Y=0, X=0 }")
        with pytest.raises(StructureError, match="^state a assigns X twice$"):
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

    def test_orders_the_format_cannot_express_are_rejected(self):
        m = parse_structure(STRUCT_TEXT)
        related = CfStructure(m.sig, m.interp, RelationOrder({(s, s, s) for s in m.states}))
        with pytest.raises(StructureError, match="a RelationOrder cannot be written"):
            structure_to_text(related)
        # the derived order is written only over the states the builder makes
        model = gen_random_model(FuzzCaps(max_endogenous=2, max_exogenous=1, max_domain=2), random.Random(3))
        m2, _ = build_counterpart(model)
        assert structure_to_text(m2, over="m.cm").endswith("order derived weighted-violations\n")
        with pytest.raises(StructureError, match="written only `over` the model file"):
            structure_to_text(m2)
        part = CfStructure(m2.sig, dict(list(m2.interp.items())[1:]), m2.order)
        with pytest.raises(StructureError, match="a CounterpartOrder cannot be written"):
            structure_to_text(part, over="m.cm")
        # the file puts each base's own tier first, alone, and omits it
        for plan in [
            {**FLAT, "a": [frozenset({"b"}), frozenset({"a"})]},  # {a} not first
            {**FLAT, "a": [frozenset({"a", "b"})]},  # {a} shares its tier
            {"b": FLAT["b"], "c": FLAT["c"]},  # a has no tiers
            {**FLAT, "a": [frozenset({"a"}), frozenset({"b", "d"})]},  # d is no state
        ]:
            with pytest.raises(StructureError, match="the structure file cannot express"):
                structure_to_text(CfStructure(m.sig, m.interp, TierOrder(plan)))

    def test_derived_round_trip(self):
        model = gen_random_model(FuzzCaps(max_endogenous=3, max_exogenous=2, max_domain=2), random.Random(4))
        m2, _ = build_counterpart(model)
        text = structure_to_text(m2, over="models/m.cm")
        assert text.startswith(f"structure {m2.name} over models/m.cm\n")
        loaded = []
        again = parse_structure(text, load_model=lambda path: loaded.append(path) or model)
        assert loaded == ["models/m.cm"]
        assert again.states == m2.states and again.interp == m2.interp
        assert all((a == b).all() for a, b in zip(again.rank_rows, m2.rank_rows))


# ---------------------------------------------------------------------------
# The rank matrix and the per-formula masks against a per-state reference
# that reads `rank()` (unranked states last) or `leq` directly.


def _ref_closest(m, s, sat):
    order = m.order
    if order.ranked:
        key = lambda t: (1, 0) if order.rank(s, t) is None else (0, order.rank(s, t))
        best = min(map(key, sat), default=None)
        return frozenset(t for t in sat if key(t) == best)
    return frozenset(
        t for t in sat if not any(order.leq(s, u, t) and not order.leq(s, t, u) for u in sat)
    )


def _ref_holds(m, s, phi):
    def modal(node):
        sat = [t for t in m.states if _ref_holds(m, t, node.antecedent)]
        return all(_ref_holds(m, t, node.consequent) for t in _ref_closest(m, s, sat))

    return evaluate_prop(phi, m.interp[s], modal)


def _ref_validate(m):
    """The per-pair centering check the rank matrix replaced."""
    violations = []
    for s in m.states:
        rs = m.order.rank(s, s)
        if rs is None:
            violations.append(("unranked-self", (s,)))
            continue
        for t in m.states:
            rt = m.order.rank(s, t)
            if t != s and rt is not None and not rs < rt:
                violations.append(("centering", (s, t)))
                return violations
    return violations


def _random_formula(sig, rng, depth, constants=False):
    if depth <= 0 or rng.random() < 0.3:
        if constants and rng.random() < 0.2:
            return rng.choice([TRUE, FALSE])
        x = rng.choice(sig.all_names())
        kind = ExoEvent if sig.is_exogenous(x) else PrimEvent
        return kind(x, rng.choice(sig.range_of(x)))
    kind = rng.choice(["not", "and", "or", "box", "box"])
    if kind == "not":
        return Not(_random_formula(sig, rng, depth - 1, constants))
    left = _random_formula(sig, rng, depth - 1, constants)
    right = _random_formula(sig, rng, depth - 1, constants)
    return {"and": And, "or": Or, "box": BoxArrow}[kind](left, right)


def _fmt_recursive(phi, prec=0):
    """The recursive printer `format_formula` replaced, kept as its reference."""
    if isinstance(phi, (PrimEvent, ExoEvent)):
        return f"{phi.var}={phi.val}"
    if isinstance(phi, Top):
        return "true"
    if isinstance(phi, Bot):
        return "false"
    if isinstance(phi, Not):
        if isinstance(phi.sub, (PrimEvent, ExoEvent)):
            return f"{phi.sub.var}!={phi.sub.val}"
        return "!" + _fmt_recursive(phi.sub, 3)
    if isinstance(phi, And):
        body = f"{_fmt_recursive(phi.left, 2)} & {_fmt_recursive(phi.right, 3)}"
        return f"({body})" if prec > 2 else body
    if isinstance(phi, Or):
        body = f"{_fmt_recursive(phi.left, 1)} | {_fmt_recursive(phi.right, 2)}"
        return f"({body})" if prec > 1 else body
    if isinstance(phi, Intervene):
        asgn = ", ".join(f"{v}<-{x}" for v, x in phi.assignments)
        return f"[{asgn}] {_fmt_recursive(phi.body, 3)}"
    if isinstance(phi, BoxArrow):
        return f"({_fmt_recursive(phi.antecedent, 0)}) ~> ({_fmt_recursive(phi.consequent, 0)})"
    raise TypeError(f"not a formula: {phi!r}")


def test_printer_matches_the_recursive_printer():
    rng = random.Random(3)
    for _ in range(3000):
        phi = _random_formula(SIG, rng, rng.randint(0, 6), constants=True)
        if rng.random() < 0.3:
            body = _random_formula(SIG, rng, 2, constants=True)
            inter = Intervene((("X", rng.choice("012")), ("Y", "1"))[: rng.randint(1, 2)], body)
            phi = rng.choice([inter, Not(inter), And(phi, inter), Or(inter, phi)])
        assert format_formula(phi) == _fmt_recursive(phi)


def _random_tier_structure(rng, centered=True):
    """Random states over SIG; each base ranks a random part of the states
    in random tiers and leaves the rest unranked.  Unless centered, a base
    may share its tier, sit behind another state, or be unranked itself."""
    n = rng.randint(2, 7)
    states = {f"t{i}": dict(zip(("U", "X", "Y"), (rng.choice(SIG.range_of(x)) for x in ("U", "X", "Y"))))
              for i in range(n)}
    tiers = {}
    for s in states:
        others = [t for t in states if t != s and rng.random() < 0.75]
        rng.shuffle(others)
        plan = []
        while others:
            cut = rng.randint(1, len(others))
            plan.append(set(others[:cut]))
            others = others[cut:]
        place = rng.random() if not centered else 0.0
        if place < 0.7:
            plan.insert(0, {s})
        elif place < 0.85 and plan:
            plan[rng.randrange(len(plan))].add(s)
        tiers[s] = [frozenset(t) for t in plan]
    return CfStructure(SIG, states, TierOrder(tiers))


def _random_relation_structure(rng):
    """A reflexive relation with random extra pairs per base: not always
    transitive or total, which `closest_states` must not care about."""
    n = rng.randint(2, 5)
    names = [f"r{i}" for i in range(n)]
    states = {s: {"U": rng.choice("01"), "X": rng.choice("012"), "Y": rng.choice("01")} for s in names}
    triples = {(s, t, t) for s in names for t in names}
    triples |= {(s, t, u) for s in names for t in names for u in names if rng.random() < 0.4}
    return CfStructure(SIG, states, RelationOrder(triples))


def _random_counterpart_part(rng):
    caps = FuzzCaps(max_endogenous=3, max_exogenous=2, max_domain=2)
    m = gen_random_model(caps, rng)
    m2, _ = build_counterpart(m)
    kept = {s: a for s, a in m2.interp.items() if rng.random() < 0.6} or dict(m2.interp)
    return CfStructure(m.sig, kept, m2.order)


class TestAgainstPerStateReference:
    @pytest.mark.parametrize(
        "make", [_random_tier_structure, _random_relation_structure, _random_counterpart_part]
    )
    def test_queries_match(self, make):
        kinds = set()
        for trial in range(25):
            rng = random.Random(f"structure-ref:{make.__name__}:{trial}")
            m = make(rng)
            for _ in range(6):
                phi = _random_formula(m.sig, rng, 3 if len(m.states) < 12 else 2)
                kinds.add(type(phi).__name__)
                for s in m.states:
                    assert m.satisfies_at(s, phi) == _ref_holds(m, s, phi)
                    sat = [t for t in m.states if _ref_holds(m, t, phi)]
                    assert m.closest_states(s, phi) == _ref_closest(m, s, sat)
        assert "BoxArrow" in kinds

    @pytest.mark.parametrize(
        "make", [_random_tier_structure, _random_relation_structure, _random_counterpart_part]
    )
    def test_extensions_match(self, make):
        for trial in range(25):
            rng = random.Random(f"structure-mask:{make.__name__}:{trial}")
            m = make(rng)
            depth = 3 if len(m.states) < 12 else 2
            box = BoxArrow(_random_formula(m.sig, rng, depth - 1, constants=True),
                           _random_formula(m.sig, rng, depth - 1, constants=True))
            other = _random_formula(m.sig, rng, depth - 1, constants=True)
            for phi in (
                _random_formula(m.sig, rng, depth, constants=True),
                Not(box),
                And(other, box),
                Or(box, other),
                BoxArrow(And(box, other), Or(other, box)),  # box-arrows in both operands
                BoxArrow(Not(box), TRUE),
                BoxArrow(TRUE, box),
                BoxArrow(FALSE, other),
                Or(FALSE, And(TRUE, box)),
            ):
                ref = [_ref_holds(m, s, phi) for s in m.states]
                assert m.extension(phi).tolist() == ref

    def test_masks_of_a_structure_without_states(self):
        phi = BoxArrow(PrimEvent("X", "1"), Not(BoxArrow(TRUE, PrimEvent("Y", "0"))))
        for order in (TierOrder({}), RelationOrder(set())):
            m = CfStructure(SIG, {}, order)
            assert m.extension(phi).shape == (0,)
            assert validate_structure(m) == []

    def test_nested_boxarrows_on_tiers_with_unranked_states(self):
        rng = random.Random(5)
        nested = 0
        for _ in range(40):
            m = _random_tier_structure(rng)
            inner = BoxArrow(_random_formula(SIG, rng, 1), _random_formula(SIG, rng, 1))
            for phi in (BoxArrow(inner, _random_formula(SIG, rng, 1)), BoxArrow(Not(inner), inner)):
                nested += 1
                for s in m.states:
                    assert m.satisfies_at(s, phi) == _ref_holds(m, s, phi)
        assert nested == 80

    def test_validation_reports_the_reference_violations(self):
        seen = set()
        for trial in range(300):
            m = _random_tier_structure(random.Random(f"validate:{trial}"), centered=trial % 5 == 0)
            got = [(v.kind, v.states) for v in validate_structure(m)]
            assert got == _ref_validate(m)
            seen |= {kind for kind, _ in got} or {"ok"}
        assert seen == {"ok", "unranked-self", "centering"}
        m2 = _random_counterpart_part(random.Random(1))
        assert validate_structure(m2) == [] == _ref_validate(m2)

    def test_rank_matrix_is_built_once_and_lazily(self, monkeypatch):
        # a tier order's rank rows are its rank matrix; a counterpart's are
        # built from its arrays, once
        calls = []

        def counted(method):
            def wrapper(order, states):
                calls.append((type(order).__name__, len(states)))
                return method(order, states)
            return wrapper

        monkeypatch.setattr(TierOrder, "rank_matrix", counted(TierOrder.rank_matrix))
        monkeypatch.setattr(CounterpartOrder, "rank_rows", counted(CounterpartOrder.rank_rows))
        model = gen_random_model(FuzzCaps(max_endogenous=3, max_exogenous=2, max_domain=2), random.Random(8))
        m2, state_of = build_counterpart(model)
        flat = CfStructure(model.sig, m2.interp,
                           TierOrder({s: [frozenset({s}), frozenset(m2.states) - {s}] for s in m2.states}))
        assert calls == []
        for m in (m2, flat):
            assert validate_structure(m) == []
            check_correspondence(m, model, strong=True)
            s = m.states[0]
            m.closest_states(s, PrimEvent(model.sig.endo_names[0], "0"))
        assert calls == [("CounterpartOrder", len(m2.states)), ("TierOrder", len(m2.states))]

    def test_counterpart_queries_build_no_rank_matrix(self, monkeypatch):
        def refuse(order, states):
            raise AssertionError(f"a rank matrix of {len(states)} states")

        monkeypatch.setattr(CounterpartOrder, "rank_matrix", refuse)
        model = gen_random_model(FuzzCaps(max_endogenous=3, max_exogenous=2, max_domain=3), random.Random(5))
        m2, state_of = build_counterpart(model)
        assert validate_structure(m2) == []
        assert check_correspondence(m2, model, strong=True).ok
        check_correspondence(m2, model, strong=True, strict=True)
        x, y = model.sig.endo_names[:2]
        box = BoxArrow(PrimEvent(x, "1"), PrimEvent(y, "0"))
        s = state_of(random_context(model, random.Random(5)))
        m2.closest_states(s, PrimEvent(x, "1"))
        m2.satisfies_at(s, Not(box))
        m2.extension(BoxArrow(box, PrimEvent(x, "0")))
        m2.box_arrows(s, np.ones((2, len(m2.states)), dtype=bool), m2.extension(box), False)
        setting = CfSetting(m2, s)
        for lang in (conj_language(), pair_language()):
            is_actual_cause_abstract(setting, PrimEvent(x, m2.interp[s][x]), PrimEvent(y, m2.interp[s][y]), lang)


class TestRankRows:
    """`rank_rows` against the rank matrix that `rank()` gives: the rows,
    with each base's own rank at its own column, order every base's states
    as its row of the matrix does."""

    @staticmethod
    def assembled(m):
        cls, rows, own = m.rank_rows
        n = len(m.states)
        near = rows[cls]
        assert (own <= near[np.arange(n), np.arange(n)]).all()
        near[np.arange(n), np.arange(n)] = own
        return near

    def test_counterparts(self):
        tested = 0
        for trial in range(60):
            rng = random.Random(f"rank-rows:{trial}")
            model = gen_random_model(DEFAULT_CAPS, rng)
            if state_space_size(model) > 150:
                continue
            m2, _ = build_counterpart(model)
            kept = {s: a for s, a in m2.interp.items() if rng.random() < 0.7} or dict(m2.interp)
            for m in (m2, CfStructure(model.sig, kept, m2.order)):
                dense = np.unique(self.assembled(m), return_inverse=True)[1].reshape(len(m.states), -1)
                assert (dense == m.order.rank_matrix(m.states)).all()
                assert len(m.rank_rows[1]) == len({tuple(m.interp[s][x] for x in model.sig.exo_names)
                                                   for s in m.states})
            tested += 1
        assert tested >= 20

    def test_counterparts_at_the_widest_caps(self):
        # too large for `rank_matrix`: a few bases' rows against `rank()`
        widest = FuzzCaps(max_endogenous=6, max_exogenous=2, max_domain=4)
        sizes = []
        for trial in range(12):
            rng = random.Random(f"rank-rows-wide:{trial}")
            model = gen_random_model(widest, rng)
            if state_space_size(model) > 20000:
                continue
            m2, _ = build_counterpart(model, state_cap=10**5)
            sizes.append(len(m2.states))
            for s in rng.sample(m2.states, 3):
                keys = [m2.order.rank(s, t) for t in m2.states]
                level = {key: i for i, key in enumerate(sorted(set(keys)))}
                got = np.unique(m2.ranks_from(m2.index_of(s)), return_inverse=True)[1]
                assert got.tolist() == [level[key] for key in keys]
        assert max(sizes) > 1000

    @pytest.mark.parametrize("centered", [True, False])
    def test_tier_orders_keep_their_rank_matrix(self, centered):
        for trial in range(40):
            m = _random_tier_structure(random.Random(f"rank-rows-tiers:{trial}"), centered)
            cls, rows, own = m.rank_rows
            n = len(m.states)
            assert (cls == np.arange(n)).all() and (rows == m.order.rank_matrix(m.states)).all()
            assert (self.assembled(m) == rows).all()


class TestBoxArrowByTwoMinima:
    """`box_arrows` decides a ranked order by two masked minima per row; it
    must agree with the closest-set definition: the closest states of each
    row, as `closest_states` reads them, all lie in the consequent."""

    @staticmethod
    def _by_closest_sets(m, s, antecedents, consequent, allow_vacuous):
        closest = np.array([m._closest(m.index_of(s), row) for row in antecedents], dtype=bool)
        passes = ~(closest & ~consequent).any(axis=1)
        return passes if allow_vacuous else passes & closest.any(axis=1)

    @pytest.mark.parametrize("make", [
        _random_tier_structure,
        lambda rng: _random_tier_structure(rng, centered=False),  # bases unranked or crowded
        _random_counterpart_part,
        _random_relation_structure,
    ], ids=["tiers", "uncentered-tiers", "counterpart", "relation"])
    def test_rows_match_the_closest_sets(self, make):
        outcomes = set()
        for trial in range(60):
            rng = random.Random(f"two-minima:{trial}")
            m = make(rng)
            n = len(m.states)
            rows = np.array([[rng.random() < p for _ in range(n)] for p in (0.0, 1.0, 0.2, 0.5, 0.8)])
            rows = np.concatenate([rows, rows[:, rng.sample(range(n), n)]])
            for consequent in (np.zeros(n, bool), np.ones(n, bool), rows[rng.randrange(2, len(rows))]):
                for s in m.states:
                    for vacuous in (False, True):
                        got = m.box_arrows(s, rows, consequent, vacuous)
                        ref = self._by_closest_sets(m, s, rows, consequent, vacuous)
                        assert got.tolist() == ref.tolist(), (trial, s, vacuous)
                        assert all(m.box_arrows(s, row, consequent, vacuous) == r for row, r in zip(rows, ref))
                        outcomes |= set(zip(map(bool, rows.any(axis=1)), ref.tolist()))
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


class TestDeepFormulas:
    def test_ten_thousand_literal_conjunction(self):
        model = gen_random_model(FuzzCaps(max_endogenous=3, max_exogenous=2, max_domain=2), random.Random(3))
        m2, _ = build_counterpart(model)
        rng = random.Random(0)
        goal = m2.interp[m2.states[-1]]  # every literal holds here
        literals = []
        for v in rng.choices(m2.sig.all_names(), k=10**4):
            others = [x for x in m2.sig.range_of(v) if x != goal[v]]
            literals.append(f"{v}!={rng.choice(others)}" if others and rng.random() < 0.5 else f"{v}={goal[v]}")
        phi = parse_formula(" & ".join(literals), m2.sig)
        parts = [parse_formula(t, m2.sig) for t in set(literals)]
        ref = [all(evaluate_prop(p, m2.interp[s]) for p in parts) for s in m2.states]
        assert ref[-1] and m2.extension(phi).tolist() == ref
        s = m2.states[0]
        closest = m2.closest_states(s, phi)
        assert closest == _ref_closest(m2, s, [t for t, ok in zip(m2.states, ref) if ok])
        x = m2.sig.endo_names[0]
        expected = all(m2.interp[t][x] == goal[x] for t in closest)
        assert CfSetting(m2, s).counterfactual(phi, PrimEvent(x, goal[x])) == expected
