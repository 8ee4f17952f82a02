import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from causact.abstract import CfSetting
from causact.correspondence import CounterpartOrder, build_counterpart, check_correspondence
from causact.formula import (
    FALSE,
    TRUE,
    And,
    BoxArrow,
    ExoEvent,
    FormulaError,
    Not,
    Or,
    PrimEvent,
    Signature,
    evaluate_prop,
    parse_formula,
)
from causact.harness import FuzzCaps, gen_random_model
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

    def test_derived_round_trip(self):
        model = gen_random_model(FuzzCaps(max_endogenous=3, max_exogenous=2, max_domain=2), random.Random(4))
        m2, _ = build_counterpart(model)
        text = structure_to_text(m2, over="models/m.cm")
        assert text.startswith(f"structure {m2.name} over models/m.cm\n")
        loaded = []
        again = parse_structure(text, load_model=lambda path: loaded.append(path) or model)
        assert loaded == ["models/m.cm"]
        assert again.states == m2.states and again.interp == m2.interp
        assert (again.near == m2.near).all()


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
        calls = []
        original = CounterpartOrder.rank_matrix

        def counted(order, states):
            calls.append(len(states))
            return original(order, states)

        monkeypatch.setattr(CounterpartOrder, "rank_matrix", counted)
        model = gen_random_model(FuzzCaps(max_endogenous=3, max_exogenous=2, max_domain=2), random.Random(8))
        m2, state_of = build_counterpart(model)
        assert calls == []
        assert validate_structure(m2) == []
        assert check_correspondence(m2, model, strong=True).ok
        s = m2.states[0]
        m2.closest_states(s, PrimEvent(model.sig.endo_names[0], "0"))
        assert calls == [len(m2.states)]


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
