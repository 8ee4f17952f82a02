import itertools
import json
import random

import pytest

from causact import explanation
from causact.formula import (
    And,
    ExoEvent,
    FormulaError,
    Not,
    Or,
    PrimEvent,
    conjoin,
    evaluate_prop,
    event_literals,
    format_formula,
    parse_formula,
    variables_of,
)
from causact.harness import (
    DEFAULT_CAPS,
    gen_random_model,
    random_context,
    random_event_conjunction,
    random_prop_formula,
)
from causact.model import model_to_text, parse_context, parse_model
from causact.abstract import CausalSetting, CfSetting, conj_language, pair_language
from causact.correspondence import build_counterpart
from causact.explanation import is_explanation_abstract, is_explanation_hp
from causact.corpus import THREE_CONTEXT


@pytest.fixture(scope="module")
def mt():
    return parse_model(THREE_CONTEXT)


def contexts(mt, *names):
    return [parse_context(f"U={n}", mt.sig) for n in names]


def check(mt, K, cand, effect="BS=1"):
    return is_explanation_hp(
        mt, K, parse_formula(cand, mt.sig), parse_formula(effect, mt.sig)
    )


class TestThreeContextStory:
    """Both-throw contexts plus possibly a Suzy-only one, with three possible
    tie-breaks; explanandum is the bottle shattering."""

    def test_conjunction_explains_nontrivially_when_billy_is_in_doubt(self, mt):
        v = check(mt, contexts(mt, "u111", "u112", "u101"), "ST=1 & BT=1")
        assert v.is_explanation and v.nontrivial
        assert v.ex1a and v.ex1b and v.ex2 and v.ex3 and v.ex4

    def test_certificates_cover_exactly_the_joint_contexts(self, mt):
        v = check(mt, contexts(mt, "u111", "u112", "u101"), "ST=1 & BT=1")
        assert set(v.certificates) == {0, 1, 2}
        # the candidate fails at the Suzy-only context, so the EX1(a)
        # premise does not apply there and no certificate is produced
        assert v.certificates[2] is None
        for i in (0, 1):
            assert v.certificates[i]["conjunct"] in ("ST=1", "BT=1")

    def test_trivial_when_everything_was_already_known(self, mt):
        v = check(mt, contexts(mt, "u111", "u112"), "ST=1 & BT=1")
        assert v.is_explanation and not v.nontrivial
        assert not v.ex4

    def test_single_throws_explain_under_simultaneity(self, mt):
        K3 = contexts(mt, "u003", "u103", "u013", "u113")
        assert check(mt, K3, "ST=1").is_explanation
        assert check(mt, K3, "BT=1").is_explanation

    def test_conjunction_fails_minimality_under_simultaneity(self, mt):
        K3 = contexts(mt, "u003", "u103", "u013", "u113")
        v = check(mt, K3, "ST=1 & BT=1")
        assert not v.is_explanation and not v.ex2
        assert v.ex2_violator is not None

    def test_ex3_fails_when_candidate_never_cooccurs(self, mt):
        v = check(mt, contexts(mt, "u011", "u012"), "ST=1")
        assert not v.ex3 and not v.is_explanation

    def test_ex1b_fails_when_intervening_does_not_force_effect(self, mt):
        # making Suzy throw does shatter the bottle everywhere, but making
        # her hit the bottle is checked through SH directly
        v = check(mt, contexts(mt, "u003", "u013"), "SH=0", effect="BS=0")
        assert not v.ex1b


class TestAbstractAgreement:
    CANDS = ["ST=1", "BT=1", "ST=1 & BT=1"]
    KS = [
        ("u111", "u112", "u101"),
        ("u111", "u112"),
        ("u003", "u103", "u013", "u113"),
    ]

    @pytest.mark.parametrize("lang_factory", [conj_language, pair_language])
    def test_matches_interventionist_verdicts(self, mt, lang_factory):
        effect = parse_formula("BS=1", mt.sig)
        for names in self.KS:
            K = contexts(mt, *names)
            settings = [CausalSetting(mt, u) for u in K]
            for cand_text in self.CANDS:
                cand = parse_formula(cand_text, mt.sig)
                hp = is_explanation_hp(mt, K, cand, effect)
                ab = is_explanation_abstract(settings, cand, effect, lang_factory())
                assert ab.is_explanation == hp.is_explanation, (names, cand_text)
                assert ab.nontrivial == hp.nontrivial, (names, cand_text)

    def test_abstract_certificates_are_language_members(self, mt):
        K = contexts(mt, "u111", "u112", "u101")
        settings = [CausalSetting(mt, u) for u in K]
        v = is_explanation_abstract(
            settings,
            parse_formula("ST=1 & BT=1", mt.sig),
            parse_formula("BS=1", mt.sig),
            conj_language(),
        )
        assert v.is_explanation
        for cert in v.certificates.values():
            if cert is not None:
                tau1 = parse_formula(cert["tau1"], mt.sig)
                tau2 = parse_formula(cert["tau2"], mt.sig)
                assert isinstance(cert["tau1"], str) and isinstance(cert["tau2"], str)

    def test_the_empty_weakening_is_considered_and_fails(self, mt):
        # "true" is entailed by everything, so if it counted as an
        # explanation nothing would ever be minimal; it fails because any
        # language member it entails must be valid
        K = contexts(mt, "u111", "u112", "u101")
        settings = [CausalSetting(mt, u) for u in K]
        v = is_explanation_abstract(
            settings,
            parse_formula("ST=1", mt.sig),
            parse_formula("BS=1", mt.sig),
            conj_language(),
        )
        assert v.ex2


class TestStructureSideRegressions:
    MODEL = (
        "model m\nexo U1 : { 0, 1 }\nexo U2 : { 0, 1 }\n"
        "var V1 : { 0, 1 }\nvar V2 : { 0, 1 }\n"
        "eq V1 = case { U1=0 & U2=1 : 1 ; default: 0 }\n"
        "eq V2 = case { default: 1 }\n"
    )

    def test_sub_conjunction_defeats_candidate_on_both_sides(self):
        # V2=1 alone satisfies the cause-extension and intervention
        # conditions everywhere, so V1=0 & V2=1 fails minimality; the
        # structure side must agree, which requires the weaker candidate's
        # pair disjunct to range over V2 only
        from causact.abstract import CfSetting
        from causact.correspondence import build_counterpart

        m = parse_model(self.MODEL)
        K = [
            {"U1": "0", "U2": "0"},
            {"U1": "1", "U2": "0"},
            {"U1": "1", "U2": "1"},
            {"U1": "0", "U2": "1"},
        ]
        cand = parse_formula("V1=0 & V2=1", m.sig)
        effect = parse_formula("V2=1 | V1=1", m.sig)
        hp = is_explanation_hp(m, K, cand, effect)
        assert not hp.is_explanation and not hp.ex2
        m2, ctx_state = build_counterpart(m)
        settings = [CfSetting(m2, ctx_state(u)) for u in K]
        ab = is_explanation_abstract(settings, cand, effect, pair_language())
        assert not ab.is_explanation and not ab.ex2, ab.to_dict()


def _entails_by_truth_table(phi, psi, sig):
    names = variables_of(phi) | variables_of(psi)
    return all(
        not evaluate_prop(phi, asgn) or evaluate_prop(psi, asgn) for asgn in sig.assignments(names)
    )


def _ref_weakenings(cand, pairs, members, sig):
    """Reference EX2 candidates: sub-conjunctions of the candidate and the
    core members it entails, strictly weaker than it, deduplicated by a
    pairwise truth-table equivalence scan.  `members` pairs each member
    with its literals, which are not read."""
    raw = [
        conjoin([PrimEvent(v, x) for v, x in subset])
        for size in range(len(pairs))
        for subset in itertools.combinations(pairs, size)
    ]
    raw += [member for ms in members for member, _ in ms]
    entails = lambda a, b: _entails_by_truth_table(a, b, sig)
    seen = []
    for phi2 in raw:
        if not entails(cand, phi2) or entails(phi2, cand):
            continue
        if any(entails(phi2, prev) and entails(prev, phi2) for prev in seen):
            continue
        seen.append(phi2)
        yield phi2


class TestWeakeningsFromLiterals:
    """EX1(a)'s member filters and EX2's weakenings compare literal sets;
    the verdict must match truth-table entailment and the pairwise
    equivalence scan."""

    def _compare(self, make_settings, trials, monkeypatch, tag):
        violated = 0
        for i in range(trials):
            rng = random.Random(f"{tag}:{i}")
            m = parse_model(
                model_to_text(gen_random_model(DEFAULT_CAPS, rng))
                + "\nexo W : { w }\nvar C : { 0 }\neq C = case { default: 0 }\n"
            )
            K = [random_context(m, rng) for _ in range(rng.randint(1, 3))]
            settings = make_settings(m, K)
            sig, actual = m.sig, settings[0].assignment
            exo = rng.choice(sig.exo_names)
            v, w = rng.choice(sig.endo_names), rng.choice(sig.endo_names)
            nonactual = [x for x in sig.range_of(w) if x != actual[w]] or [actual[w]]
            events = random_event_conjunction(m, rng, max_size=3, prefer_actual=actual)
            cands = [
                events,
                And(events, PrimEvent("C", "0")),
                Not(events),
                Or(events, random_event_conjunction(m, rng, prefer_actual=actual)),
            ]
            pins = [
                (),
                (PrimEvent(v, actual[v]),),
                (ExoEvent(exo, actual[exo]), ExoEvent("W", "w")),
                (Or(PrimEvent(v, actual[v]), PrimEvent(w, rng.choice(nonactual))),),
                (PrimEvent(w, rng.choice(nonactual)),),
            ][i % 5]
            effect = random_prop_formula(m, rng, 2)
            for cand in cands:
                for lang in (conj_language(pins), pair_language(pins)):
                    check = lambda: is_explanation_abstract(settings, cand, effect, lang)
                    new = check().to_dict()
                    with monkeypatch.context() as patch:
                        patch.setattr(explanation, "_weakenings", _ref_weakenings)
                        patch.setattr(explanation, "prop_entails_given",
                                      lambda phi, a, psi, b, sig: _entails_by_truth_table(phi, psi, sig))
                        ref = check().to_dict()
                    assert json.dumps(new) == json.dumps(ref), (i, format_formula(cand), lang.describe())
                    violated += new["ex2Violator"] is not None
        assert violated

    def test_pinned_members_equivalent_to_sub_conjunctions_are_dropped(self, mt):
        sig = mt.sig
        cand = parse_formula("ST=1 & BT=0", sig)
        pin = parse_formula("ST=1 | BT=0", sig)
        members = [[(t, None) for t in (pin, And(pin, PrimEvent("ST", "1")), And(pin, PrimEvent("BT", "0")))]]
        pairs = [("ST", "1"), ("BT", "0")]
        got = list(explanation._weakenings(cand, pairs, members, sig))
        assert got == list(_ref_weakenings(cand, pairs, members, sig))
        assert [format_formula(phi) for phi in got] == ["true", "ST=1", "BT=0", "ST=1 | BT=0"]

    def test_repeated_members_are_dropped(self, mt):
        sig = mt.sig
        cand = parse_formula("ST=1 & BT=0", sig)
        listed = [parse_formula(text, sig) for text in ("ST=1", "BT=0 & ST=1")]
        members = [[(t, event_literals(t, sig)) for t in listed]] * 2
        pairs = [("ST", "1"), ("BT", "0")]
        got = list(explanation._weakenings(cand, pairs, members, sig))
        assert got == list(_ref_weakenings(cand, pairs, members, sig))
        assert [format_formula(phi) for phi in got] == ["true", "ST=1", "BT=0"]

    def test_causal_settings(self, monkeypatch):
        make = lambda m, K: [CausalSetting(m, u) for u in K]
        self._compare(make, 40, monkeypatch, "ex2-weakenings")

    def test_counterpart_states(self, monkeypatch):
        def make(m, K):
            m2, ctx_state = build_counterpart(m)
            return [CfSetting(m2, ctx_state(u)) for u in K]

        self._compare(make, 8, monkeypatch, "ex2-weakenings-cf")


class TestValidation:
    def test_empty_epistemic_state_rejected(self, mt):
        with pytest.raises(ValueError):
            check(mt, [], "ST=1")

    def test_disjunctive_candidate_rejected(self, mt):
        with pytest.raises(FormulaError):
            check(mt, contexts(mt, "u111"), "ST=1 | BT=1")

    def test_counterfactual_explanandum_rejected(self, mt):
        with pytest.raises(FormulaError):
            check(mt, contexts(mt, "u111"), "ST=1", effect="(ST=0) ~> (BS=0)")

    def test_to_dict_shape(self, mt):
        d = check(mt, contexts(mt, "u111", "u112", "u101"), "ST=1 & BT=1").to_dict()
        assert d["isExplanation"] and d["nontrivial"]
        assert set(d) >= {"ex1a", "ex1b", "ex2", "ex3", "ex4", "certificates"}
