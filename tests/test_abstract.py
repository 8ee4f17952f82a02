import pytest

from causact.formula import (
    And,
    ExoEvent,
    Not,
    Or,
    PrimEvent,
    TRUE,
    format_formula,
    parse_formula,
    prop_entails,
)
from causact.model import parse_model
from causact.hp import is_actual_cause_hp
from causact.abstract import (
    CausalSetting,
    CfSetting,
    conj_language,
    conj_neg_language,
    enumerate_witnesses,
    extract_abstract_witness,
    gen_language,
    is_actual_cause_abstract,
    pair_language,
    parse_language,
)
from causact.correspondence import build_counterpart
from causact.corpus import (
    ROCK_THROWING,
    backtracking_structure,
    bomb_model,
    bomb_structures,
    chain3_model,
)


@pytest.fixture(scope="module")
def rt():
    return parse_model(ROCK_THROWING)


@pytest.fixture(scope="module")
def rt_setting(rt):
    return CausalSetting(rt, {"U": "u11"})


class TestLanguages:
    def test_parse_language(self):
        assert parse_language("conj") == conj_language()
        assert parse_language("conj-neg") == conj_neg_language()
        assert parse_language("pair") == pair_language()
        assert parse_language("gen:2") == gen_language(2)

    def test_unknown_language_rejected(self):
        with pytest.raises(ValueError):
            parse_language("cnf")

    def test_conj_members_are_actual_value_conjunctions(self, rt, rt_setting):
        members = list(enumerate_witnesses(conj_language(), rt_setting, [("ST", "1")]))
        assert members[0] is TRUE
        assert len(members) == 2 ** len(rt.sig.endo_names)
        actual = rt.solve({"U": "u11"})
        for m in members:
            assert rt_setting.holds(m)

    def test_conj_neg_adds_nothing_for_binary_ranges(self, rt, rt_setting):
        # with two-valued variables, X != v is the other event already
        conj = list(enumerate_witnesses(conj_language(), rt_setting, [("ST", "1")]))
        neg = list(enumerate_witnesses(conj_neg_language(), rt_setting, [("ST", "1")]))
        assert set(conj) == set(neg)

    def test_conj_neg_proper_subsets_for_wider_ranges(self):
        m = parse_model(
            "model m\nexo U : { 0 }\nvar X : { 0, 1, 2 }\n"
            "eq X = case { default: 0 }\n"
        )
        setting = CausalSetting(m, {"U": "0"})
        members = set(enumerate_witnesses(conj_neg_language(), setting, [("X", "0")]))
        assert Not(PrimEvent("X", "1")) in members
        assert Not(PrimEvent("X", "2")) in members
        # excluding every non-actual value is the positive event, not repeated
        assert And(Not(PrimEvent("X", "1")), Not(PrimEvent("X", "2"))) not in members
        assert PrimEvent("X", "0") in members

    def test_pair_members_extend_with_cause_disjunct(self, rt, rt_setting):
        members = list(enumerate_witnesses(pair_language(), rt_setting, [("ST", "1")]))
        pair = Or(PrimEvent("ST", "1"), PrimEvent("ST", "0"))
        assert pair in members
        # no pair extension once the conjunction already forces the cause value
        for m in members:
            txt = format_formula(m)
            assert not ("ST=1 &" in txt and "ST=1 |" in txt)

    def test_pins_are_conjoined_and_must_hold(self, rt, rt_setting):
        pinned = conj_language(pins=[ExoEvent("U", "u11")])
        members = list(enumerate_witnesses(pinned, rt_setting, [("ST", "1")]))
        assert all(format_formula(m).startswith("U=u11") for m in members)
        wrong_pin = conj_language(pins=[ExoEvent("U", "u00")])
        assert list(enumerate_witnesses(wrong_pin, rt_setting, [("ST", "1")])) == []

    def test_gen_members_are_true_clauses(self, rt, rt_setting):
        members = list(enumerate_witnesses(gen_language(1), rt_setting, [("ST", "1")]))
        for m in members:
            assert rt_setting.holds(m)
        assert Or(PrimEvent("ST", "1"), PrimEvent("BS", "0")) in members


class TestCausalSettings:
    def test_agrees_with_interventionist_on_rock_throwing(self, rt, rt_setting):
        effect = parse_formula("BS=1", rt.sig)
        for text in ["ST=1", "BT=1", "SH=1", "BH=0", "ST=1 & BT=1", "BS=1"]:
            cause = parse_formula(text, rt.sig)
            hp = is_actual_cause_hp(rt, {"U": "u11"}, cause, effect).is_cause
            for lang in (conj_language(), conj_neg_language()):
                assert is_actual_cause_abstract(rt_setting, cause, effect, lang).is_cause == hp, (
                    text,
                    lang.describe(),
                )

    def test_reported_tau_certifies_the_verdict(self, rt, rt_setting):
        cause = parse_formula("ST=1", rt.sig)
        effect = parse_formula("BS=1", rt.sig)
        v = is_actual_cause_abstract(rt_setting, cause, effect, conj_language())
        assert v.is_cause
        assert rt_setting.holds(v.tau)
        assert rt_setting.counterfactual(And(Not(cause), v.tau), Not(effect))

    def test_minimality_violator_reported(self, rt, rt_setting):
        v = is_actual_cause_abstract(
            rt_setting, parse_formula("ST=1 & BT=1", rt.sig), parse_formula("BS=1", rt.sig), conj_language()
        )
        assert not v.is_cause and not v.ac3
        assert prop_entails(parse_formula("ST=1 & BT=1", rt.sig), v.ac3_violator, rt.sig)

    def test_extracted_witness_certifies_in_the_counterpart(self, rt, rt_setting):
        cause = parse_formula("ST=1", rt.sig)
        effect = parse_formula("BS=1", rt.sig)
        hp = is_actual_cause_hp(rt, {"U": "u11"}, cause, effect)
        m2, ctx_state = build_counterpart(rt)
        cf = CfSetting(m2, ctx_state({"U": "u11"}))
        for w in hp.witnesses:
            tau = extract_abstract_witness(rt.sig, cause, w)
            assert cf.holds(tau)
            assert cf.counterfactual(And(Not(cause), tau), Not(effect))

    def test_general_cause_formula_allowed(self, rt, rt_setting):
        # causes beyond event conjunctions are accepted at this level
        cause = parse_formula("SH=1 | BH=1", rt.sig)
        v = is_actual_cause_abstract(rt_setting, cause, parse_formula("BS=1", rt.sig), conj_language())
        assert isinstance(v.is_cause, bool)


class TestStructureSettings:
    def test_pair_language_matches_interventionist(self, rt):
        m2, ctx_state = build_counterpart(rt)
        effect = parse_formula("BS=1", rt.sig)
        for uval in ("u11", "u01", "u10"):
            u = {"U": uval}
            cf = CfSetting(m2, ctx_state(u))
            for text in ["ST=1", "BT=1", "SH=1", "BS=1"]:
                cause = parse_formula(text, rt.sig)
                hp = is_actual_cause_hp(rt, u, cause, effect).is_cause
                ab = is_actual_cause_abstract(cf, cause, effect, pair_language()).is_cause
                assert hp == ab, (uval, text)

    def test_backtracking_makes_billy_a_cause(self, rt):
        m2, actual = backtracking_structure()
        setting = CfSetting(m2, actual)
        v = is_actual_cause_abstract(
            setting, parse_formula("BT=1", rt.sig), parse_formula("BS=1", rt.sig), conj_language()
        )
        assert v.is_cause
        assert v.tau is TRUE  # the closest non-throwing state changes the context

    def test_pinning_the_context_disables_backtracking(self, rt):
        m2, actual = backtracking_structure()
        setting = CfSetting(m2, actual)
        lang = conj_language(pins=[ExoEvent("U", "u11")])
        v = is_actual_cause_abstract(
            setting, parse_formula("BT=1", rt.sig), parse_formula("BS=1", rt.sig), lang
        )
        assert not v.is_cause and not v.ac2

    def test_bomb_divergence(self):
        mb = bomb_model()
        run1 = parse_formula("Run=1", mb.sig)
        boom = parse_formula("Explode=1", mb.sig)
        ignorant, knowing = bomb_structures()
        assert not is_actual_cause_abstract(CfSetting(ignorant, "s"), run1, boom, conj_language()).is_cause
        assert is_actual_cause_abstract(CfSetting(knowing, "s"), run1, boom, conj_language()).is_cause

    def test_vacuity_policy(self):
        # in the ignorant-Bob structure no state has Combo=c3 without running,
        # so the pinned antecedent is unrealizable: false by default, true
        # under the literal Lewis reading
        mb = bomb_model()
        ignorant, _ = bomb_structures()
        setting = CfSetting(ignorant, "s")
        run1 = parse_formula("Run=1", mb.sig)
        boom = parse_formula("Explode=1", mb.sig)
        lang = conj_language(pins=[parse_formula("Combo=c3", mb.sig)])
        assert not is_actual_cause_abstract(setting, run1, boom, lang).ac2
        assert is_actual_cause_abstract(setting, run1, boom, lang, allow_vacuous=True).ac2


class TestMinimalityCandidateScope:
    """Regressions for the scope of the AC3 check at the language level."""

    MODEL = (
        "model m\nexo U1 : { 0, 1 }\nexo U2 : { 0, 1 }\n"
        "var V1 : { 0, 1 }\nvar V2 : { 0, 1 }\n"
        "eq V1 = case { U1=0 & U2=1 : 1 ; default: 0 }\n"
        "eq V2 = case { default: 1 }\n"
    )

    def test_negated_members_do_not_undercut_minimality(self):
        # V1 != 0 is strictly weaker than V1 = 2 and passes the
        # counterfactual condition via an intervention to V1 = 0, but it is
        # witness material, not a rival cause
        m = parse_model(
            "model m\nexo U : { 0, 1, 2 }\nvar V1 : { 0, 1, 2 }\nvar V2 : { 0, 1 }\n"
            "eq V1 = case { U=1 : 1 ; U=2 : 2 ; default: 0 }\n"
            "eq V2 = case { V1=0 : 0 ; default: 1 }\n"
        )
        setting = CausalSetting(m, {"U": "2"})
        cause = parse_formula("V1=2", m.sig)
        effect = parse_formula("V2=1", m.sig)
        hp = is_actual_cause_hp(m, {"U": "2"}, cause, effect).is_cause
        ab = is_actual_cause_abstract(setting, cause, effect, conj_neg_language())
        assert hp and ab.is_cause

    def test_negated_witness_on_noncause_variable_pins_current_value(self):
        # V2 is downstream of V1, so V2=0 cannot cause V1=1; the witness
        # V1!=0 must not open V1 to the alternative value 2 when the
        # box-arrow is read as an intervention
        m = parse_model(
            "model m\nexo U1 : { 0, 1, 2 }\nexo U2 : { 0, 1, 2 }\n"
            "var V1 : { 0, 1, 2 }\nvar V2 : { 0, 1 }\n"
            "eq V1 = case { U2=0 : 2 ; U2=1 : 1 ; U2=2 : 1 ; default: 2 }\n"
            "eq V2 = case { U1=2 & V1=1 : 0 ; default: 1 }\n"
        )
        u = {"U1": "2", "U2": "2"}
        cause = parse_formula("V2=0", m.sig)
        effect = parse_formula("V1=1", m.sig)
        assert not is_actual_cause_hp(m, u, cause, effect).is_cause
        v = is_actual_cause_abstract(CausalSetting(m, u), cause, effect, conj_neg_language())
        assert not v.is_cause and not v.ac2, v.to_dict()

    def test_pair_disjunct_tracks_the_candidate_under_test(self):
        # the conjunction flips as a whole under AC2, yet neither conjunct
        # alone may pass the counterfactual condition of the minimality
        # check: its pair disjunct ranges over its own variables only
        m = parse_model(self.MODEL)
        u = {"U1": "0", "U2": "1"}
        cause = parse_formula("V1=1 & V2=1", m.sig)
        effect = parse_formula("V2=1 | V1=1", m.sig)
        assert is_actual_cause_hp(m, u, cause, effect).is_cause
        m2, ctx_state = build_counterpart(m)
        v = is_actual_cause_abstract(
            CfSetting(m2, ctx_state(u)), cause, effect, pair_language()
        )
        assert v.is_cause, v.to_dict()


    def test_each_pinned_tau_is_tested_once(self):
        # V2!=1, V2!=2 and V2!=1 & V2!=2 all pin V2 to its actual value 0,
        # the same tau as V2=0; the effect does not depend on the cause, so
        # every member is tried
        m = parse_model(
            "model m\nexo U : { 0, 1 }\nvar V1 : { 0, 1 }\nvar V2 : { 0, 1, 2, 3 }\n"
            "var V3 : { 0, 1 }\n"
            "eq V1 = case { U=1 : 1 ; default: 0 }\n"
            "eq V2 = case { default: 0 }\n"
            "eq V3 = case { U=1 & V2=0 : 1 ; default: 0 }\n"
        )
        setting = CausalSetting(m, {"U": "1"})
        antecedents = []
        counterfactual = setting.counterfactual

        def recording(antecedent, consequent, allow_vacuous=False):
            antecedents.append(antecedent)
            return counterfactual(antecedent, consequent, allow_vacuous)

        setting.counterfactual = recording
        cause = parse_formula("V1=1", m.sig)
        effect = parse_formula("V3=1", m.sig)
        v = is_actual_cause_abstract(setting, cause, effect, conj_neg_language())
        assert not v.ac2
        assert antecedents and len(antecedents) == len(set(antecedents))


class TestDegeneracy:
    def test_disjunctions_admitting_the_negated_effect_trivialize_ac2(self):
        m = chain3_model()
        setting = CausalSetting(m, {"U": "1"})
        effect = parse_formula("C=1", m.sig)
        lang = gen_language(1)
        actual = m.solve({"U": "1"})
        import itertools

        events = [f"{x}={actual[x]}" for x in m.sig.endo_names]
        for size in range(1, len(events) + 1):
            for combo in itertools.combinations(events, size):
                cand = parse_formula(" & ".join(combo), m.sig)
                v = is_actual_cause_abstract(setting, cand, effect, lang)
                assert v.ac2, combo

    def test_without_disjunctions_not_everything_passes(self):
        m = chain3_model()
        setting = CausalSetting(m, {"U": "1"})
        effect = parse_formula("C=1", m.sig)
        # C=1 itself: the only conjunctive route to not-C is flipping C, which
        # is the trivial self-flip, still allowed; but A=1 & B=1 & C=1 fails
        # minimality, and minimality is what the degeneracy bypasses
        v = is_actual_cause_abstract(setting, parse_formula("A=1 & B=1", m.sig), effect, conj_language())
        assert not v.is_cause
