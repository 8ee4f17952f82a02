import itertools
import json
import random
from dataclasses import replace

import pytest

from causact import abstract
from causact.formula import (
    And,
    ExoEvent,
    FormulaError,
    Not,
    Or,
    PrimEvent,
    TRUE,
    as_event_conjunction,
    conjoin,
    evaluate_prop,
    format_formula,
    free_endogenous,
    parse_formula,
    prop_entails,
    variables_of,
)
from causact.harness import (
    DEFAULT_CAPS,
    FuzzCaps,
    gen_random_model,
    random_context,
    random_event_conjunction,
    random_prop_formula,
)
from causact.model import model_to_text, parse_model
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
    _pin_negated_conjuncts,
)
from causact.correspondence import build_counterpart
from causact.structure import CfStructure, RelationOrder
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
        searches = []
        search = m.boxarrow_search

        def recording(u, ys, candidates, ant, cons):
            searches.append((ant, tuple(ys), tuple(tuple(c) for c in candidates)))
            return search(u, ys, candidates, ant, cons)

        m.boxarrow_search = recording
        cause = parse_formula("V1=1", m.sig)
        effect = parse_formula("V3=1", m.sig)
        v = is_actual_cause_abstract(setting, cause, effect, conj_neg_language())
        assert not v.ac2
        assert searches and len(searches) == len(set(searches))


def _ref_members(lang, setting, cause_pairs=()):
    """Reference enumeration of the conjunctive members as formulas: the
    full product of per-variable options, stably sorted by weight, each
    conjoined with the pins.  For the pair extension, each member that does
    not fix the cause values is followed by the member & (X=x | X=x') for
    every alternative x'."""
    if not all(setting.holds(pin) for pin in lang.pins):
        return
    actual, sig = setting.assignment, setting.sig
    per_var = []
    for x in sig.endo_names:
        options = [(0, None), (1, PrimEvent(x, actual[x]))]
        if lang.allow_negated:
            excluded = [v for v in sig.range_of(x) if v != actual[x]]
            for size in range(1, len(excluded)):
                for subset in itertools.combinations(excluded, size):
                    options.append((size, conjoin([Not(PrimEvent(x, v)) for v in subset])))
        per_var.append(options)
    combos = []
    for combo in itertools.product(*per_var):
        combos.append((sum(w for w, _ in combo), [f for _, f in combo if f is not None]))
    combos.sort(key=lambda wc: wc[0])
    pinned = lambda parts: conjoin(list(lang.pins) + ([conjoin(parts)] if parts else []))
    xvars = [v for v, _ in cause_pairs]
    xvals = tuple(x for _, x in cause_pairs)
    pos = conjoin([PrimEvent(v, x) for v, x in cause_pairs])
    for _, parts in combos:
        yield pinned(parts)
        if not lang.pair_on_cause:
            continue
        covered = {f.var: f.val for f in parts if isinstance(f, PrimEvent)}
        if all(covered.get(v) == x for v, x in cause_pairs):
            continue
        for alt in itertools.product(*(sig.range_of(v) for v in xvars)):
            if alt != xvals:
                pair = Or(pos, conjoin([PrimEvent(v, a) for v, a in zip(xvars, alt)]))
                yield pinned(parts + [pair])


def _ref_cause_pairs(phi):
    """The pair extension's (var, value) pairs: phi's own events, if phi
    is a conjunction of events."""
    try:
        return as_event_conjunction(phi)
    except FormulaError:
        return []


def _ref_ac2_prime(setting, phi, effect, lang, allow_vacuous):
    """Reference AC2' at a causal setting over formulas: each member is
    built, pinned, and tried once with the setting's counterfactual."""
    not_phi = Not(phi)
    not_effect = Not(effect)
    cause_vars = free_endogenous(phi)
    tested = set()
    for tau in _ref_members(lang, setting, _ref_cause_pairs(phi)):
        tau = _pin_negated_conjuncts(tau, setting.assignment, cause_vars)
        if tau in tested:
            continue
        tested.add(tau)
        if setting.counterfactual(And(not_phi, tau), not_effect, allow_vacuous):
            return tau
    return None


def _ref_ac2_at_state(setting, phi, effect, lang, allow_vacuous):
    """Reference AC2' at a structure state over formulas: each member is
    built and tried with the setting's counterfactual, which looks up the
    closest states of its antecedent."""
    not_phi = Not(phi)
    not_effect = Not(effect)
    for tau in _ref_members(lang, setting, _ref_cause_pairs(phi)):
        if setting.counterfactual(And(not_phi, tau), not_effect, allow_vacuous):
            return tau
    return None


def _random_pins(m, actual, rng, kind):
    """Pins of one kind, true or false at the setting: none, U=u, V!=v,
    V!=v & W=w, V=a | W=b, or a non-actual V=b."""
    sig = m.sig

    def ev(x, nonactual=False):
        others = [v for v in sig.range_of(x) if v != actual[x]]
        val = rng.choice(others) if nonactual and others else actual[x]
        return ExoEvent(x, val) if sig.is_exogenous(x) else PrimEvent(x, val)

    v, w = rng.choice(sig.endo_names), rng.choice(sig.endo_names)
    return [
        [],
        [ev(rng.choice(sig.exo_names), nonactual=rng.random() < 0.2)],
        [Not(ev(v, nonactual=rng.random() < 0.9))],
        [And(Not(ev(v, nonactual=True)), ev(w))],
        [Or(ev(v, nonactual=True), ev(w, nonactual=rng.random() < 0.5))],
        [ev(v, nonactual=True)],
    ][kind]


class TestValueListAC2:
    """AC2' at a causal setting decides members as value lists; the verdict
    must match the formula path it replaced, AC3 violators included."""

    @pytest.mark.parametrize(
        "caps, trials", [(DEFAULT_CAPS, 400), (FuzzCaps(6, 2, 4), 30)], ids=["default", "wide"]
    )
    def test_verdicts_match_the_formula_path(self, caps, trials, monkeypatch):
        for i in range(trials):
            rng = random.Random(f"value-lists:{caps}:{i}")
            m = gen_random_model(caps, rng)
            u = random_context(m, rng)
            actual = m.solve(u)
            cause = random_event_conjunction(m, rng, prefer_actual=actual)
            effect = random_prop_formula(m, rng, 2)
            pins = _random_pins(m, actual, rng, i % 6)
            for lang in (conj_language(pins), conj_neg_language(pins), pair_language(pins)):
                setting = CausalSetting(m, u)
                new = is_actual_cause_abstract(setting, cause, effect, lang).to_dict()
                with monkeypatch.context() as patch:
                    patch.setattr(abstract, "_ac2_prime", _ref_ac2_prime)
                    ref = is_actual_cause_abstract(setting, cause, effect, lang).to_dict()
                assert json.dumps(new) == json.dumps(ref), (i, lang.describe())

    def test_smaller_witnesses_are_tried_first(self):
        # with X=0, E follows A & (B | C), and A, B and C all flip;
        # holding A, or holding both B and C, breaks E.  In product order
        # B=0 & C=0 comes before A=0; by size, A=0 comes first
        m = parse_model(
            "model m\nexo U : { 0, 1 }\nvar X : { 0, 1 }\nvar A : { 0, 1 }\n"
            "var B : { 0, 1 }\nvar C : { 0, 1 }\nvar E : { 0, 1 }\n"
            "eq X = case { default: 1 }\neq A = case { X=0 : 1 ; default: 0 }\n"
            "eq B = case { X=0 : 1 ; default: 0 }\neq C = case { X=0 : 1 ; default: 0 }\n"
            "eq E = case { X=1 : 1 ; A=1 & B=1 : 1 ; A=1 & C=1 : 1 ; default: 0 }\n"
        )
        cause, effect = parse_formula("X=1", m.sig), parse_formula("E=1", m.sig)
        for lang in (conj_language(), conj_neg_language()):
            v = is_actual_cause_abstract(CausalSetting(m, {"U": "0"}), cause, effect, lang)
            assert v.is_cause and format_formula(v.tau) == "A=0"

    @pytest.mark.parametrize("pin", ["[ST<-0] BS=1", "(ST=0) ~> (BS=1)", "U=u11 & [ST<-0] BS=1"])
    def test_non_propositional_pin_is_rejected(self, rt, rt_setting, pin):
        lang = conj_language([parse_formula(pin, rt.sig)])
        cause, effect = parse_formula("ST=1", rt.sig), parse_formula("BS=1", rt.sig)
        with pytest.raises(FormulaError, match="^box-arrow antecedents must be propositional$"):
            is_actual_cause_abstract(rt_setting, cause, effect, lang)


def _entails_by_truth_table(phi, psi, sig):
    names = variables_of(phi) | variables_of(psi)
    return all(
        not evaluate_prop(phi, asgn) or evaluate_prop(psi, asgn) for asgn in sig.assignments(names)
    )


def _ref_weaker_core_members(setting, cause, lang):
    """Reference AC3' candidates, as the checker listed them before it
    generated them from the cause's literals: every member of the
    positive-conjunction core, kept when the cause entails it and it does
    not entail the cause, both decided by truth table."""
    core = replace(lang, allow_negated=False, pair_on_cause=False, clause_budget=None)
    entails = lambda phi, psi: _entails_by_truth_table(phi, psi, setting.sig)
    for phi2 in _ref_members(core, setting):
        if entails(cause, phi2) and not entails(phi2, cause):
            yield phi2


def _with_one_value_ranges(m):
    """m with a one-value exogenous W and a one-value endogenous C added."""
    extra = "\nexo W : { w }\nvar C : { 0 }\neq C = case { default: 0 }\n"
    return parse_model(model_to_text(m) + extra)


class TestAC3CandidatesFromEntailedLiterals:
    """AC3' candidates are generated over the variables whose actual-value
    event the cause entails; the verdict must match enumerating the whole
    core and filtering it by entailment."""

    def _compare(self, make_setting, trials, monkeypatch, tag):
        violated = 0
        for i in range(trials):
            rng = random.Random(f"{tag}:{i}")
            m = _with_one_value_ranges(gen_random_model(DEFAULT_CAPS, rng))
            setting = make_setting(m, random_context(m, rng))
            sig, actual = m.sig, setting.assignment
            exo = rng.choice(sig.exo_names)
            v, w = rng.choice(sig.endo_names), rng.choice(sig.endo_names)
            nonactual = [x for x in sig.range_of(w) if x != actual[w]] or [actual[w]]
            events = random_event_conjunction(m, rng, max_size=3, prefer_actual=actual)
            causes = [
                events,
                And(events, PrimEvent("C", "0")),
                And(events, ExoEvent(exo, actual[exo])),
                Not(events),
                random_prop_formula(m, rng, 2),
            ]
            pins = [
                (),
                (PrimEvent(v, actual[v]),),
                (ExoEvent(exo, actual[exo]), ExoEvent("W", "w")),
                (Or(PrimEvent(v, actual[v]), PrimEvent(w, rng.choice(nonactual))),),
                (PrimEvent(w, rng.choice(nonactual)),),
            ][i % 5]
            effect = random_prop_formula(m, rng, 2)
            for cause in causes:
                for lang in (conj_language(pins), pair_language(pins)):
                    new = is_actual_cause_abstract(setting, cause, effect, lang).to_dict()
                    with monkeypatch.context() as patch:
                        patch.setattr(abstract, "_weaker_core_members", _ref_weaker_core_members)
                        ref = is_actual_cause_abstract(setting, cause, effect, lang).to_dict()
                    assert json.dumps(new) == json.dumps(ref), (i, format_formula(cause), lang.describe())
                    violated += new["ac3Violator"] is not None
        assert violated

    def test_causal_settings(self, monkeypatch):
        self._compare(CausalSetting, 120, monkeypatch, "ac3-candidates")

    def test_counterpart_states(self, monkeypatch):
        def make(m, u):
            m2, ctx_state = build_counterpart(m)
            return CfSetting(m2, ctx_state(u))

        self._compare(make, 60, monkeypatch, "ac3-candidates-cf")


def _relation_structure(rng):
    """Six random states over a random model's signature, closeness from
    random triples: a relation order that need not be transitive, so a
    satisfiable antecedent may have no closest state."""
    m = gen_random_model(FuzzCaps(3, 1, 3), rng)
    names = [f"s{j}" for j in range(6)]
    states = {s: {x: rng.choice(m.sig.range_of(x)) for x in m.sig.all_names()} for s in names}
    triples = {(s, t, t) for s in names for t in names}
    triples |= {(s, t, w) for s in names for t in names for w in names if rng.random() < 0.4}
    return m, CfStructure(m.sig, states, RelationOrder(triples)), rng.choice(names)


def _counterpart_setting(rng):
    m = gen_random_model(FuzzCaps(3, 2, 3), rng)
    m2, ctx_state = build_counterpart(m)
    return m, m2, ctx_state(random_context(m, rng))


class TestMaskAC2AtStates:
    """AC2' at a structure state decides members from masks; the verdict
    must match the formula path it replaced, AC3 violators included."""

    def _compare(self, make, trials, monkeypatch, tag):
        outcomes = set()
        for i in range(trials):
            rng = random.Random(f"{tag}:{i}")
            m, m2, state = make(rng)
            setting = CfSetting(m2, state)
            cause = random_event_conjunction(m, rng, prefer_actual=setting.assignment)
            effect = random_prop_formula(m, rng, 2)
            # none, U=u, V!=v, V!=v & W=w, V=a | W=b, and a false V=b
            pins = _random_pins(m, setting.assignment, rng, i % 6)
            for lang in (conj_language(pins), conj_neg_language(pins), pair_language(pins)):
                for vacuous in (False, True):
                    check = lambda: is_actual_cause_abstract(setting, cause, effect, lang, vacuous)
                    new = check().to_dict()
                    with monkeypatch.context() as patch:
                        patch.setattr(abstract, "_ac2_prime", _ref_ac2_at_state)
                        ref = check().to_dict()
                    assert json.dumps(new) == json.dumps(ref), (i, lang.describe(), vacuous)
                    outcomes.add((vacuous, new["ac2"]))
        return outcomes

    def test_verdicts_match_on_counterparts(self, monkeypatch):
        outcomes = self._compare(_counterpart_setting, 150, monkeypatch, "state-masks")
        assert {ac2 for _, ac2 in outcomes} == {True, False}

    def test_verdicts_match_on_relation_orders(self, monkeypatch):
        outcomes = self._compare(_relation_structure, 100, monkeypatch, "relation-masks")
        assert {ac2 for _, ac2 in outcomes} == {True, False}

    def test_rows_spanning_several_blocks(self, monkeypatch):
        queries = []
        rows = CfStructure.closest_rows

        def counting(self, s, masks):
            queries.append(len(masks))
            return rows(self, s, masks)

        monkeypatch.setattr(CfStructure, "closest_rows", counting)
        self._compare(_counterpart_setting, 12, monkeypatch, "state-blocks")
        whole = len(queries)
        queries.clear()
        monkeypatch.setattr(abstract, "_BLOCK_ROWS", 2)
        self._compare(_counterpart_setting, 12, monkeypatch, "state-blocks")
        assert len(queries) > whole and max(queries) == 2

    @pytest.mark.parametrize("pin", ["U=u11 & [ST<-0] BS=1", "U=u11 | [ST<-0] BS=1"])
    @pytest.mark.parametrize("make", [conj_language, conj_neg_language, pair_language])
    def test_pin_holding_an_intervention_is_rejected(self, rt, pin, make):
        # the second pin holds at the state without its intervention being
        # reached, but its mask labels the intervention at every state
        m2, ctx_state = build_counterpart(rt)
        setting = CfSetting(m2, ctx_state({"U": "u11"}))
        lang = make([parse_formula(pin, rt.sig)])
        cause, effect = parse_formula("ST=1", rt.sig), parse_formula("BS=1", rt.sig)
        with pytest.raises(FormulaError, match="^interventions are not evaluable"):
            is_actual_cause_abstract(setting, cause, effect, lang)


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
