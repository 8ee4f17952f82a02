import itertools
import json
import random

import pytest

from causact import hp
from causact.explanation import is_explanation_hp
from causact.formula import FormulaError, Not, parse_formula
from causact.harness import (
    DEFAULT_CAPS,
    FuzzCaps,
    gen_random_model,
    random_context,
    random_event_conjunction,
    random_prop_formula,
)
from causact.hp import HpWitness, check_witness, is_actual_cause_hp
from causact.model import parse_model
from causact.corpus import BOMB, ROCK_THROWING


@pytest.fixture(scope="module")
def rt():
    return parse_model(ROCK_THROWING)


U11 = {"U": "u11"}


def rt_check(rt, cause, effect="BS=1", u=U11, **kw):
    return is_actual_cause_hp(rt, u, parse_formula(cause, rt.sig), parse_formula(effect, rt.sig), **kw)


class TestRockThrowing:
    def test_suzy_causes_shattering(self, rt):
        v = rt_check(rt, "ST=1")
        assert v.is_cause and v.ac1 and v.ac2 and v.ac3

    def test_first_witness_holds_billys_miss_fixed(self, rt):
        v = rt_check(rt, "ST=1")
        assert v.witnesses[0] == HpWitness(w=("BH",), wstar=("0",), xprime=("0",))

    def test_billy_not_a_cause(self, rt):
        v = rt_check(rt, "BT=1")
        assert not v.is_cause
        assert v.ac1 and not v.ac2

    def test_conjunction_fails_minimality(self, rt):
        v = rt_check(rt, "ST=1 & BT=1")
        assert not v.is_cause and v.ac2 and not v.ac3
        assert v.ac3_violator == (("ST", "1"),)

    def test_hit_causes_shattering(self, rt):
        assert rt_check(rt, "SH=1").is_cause

    def test_false_cause_fails_ac1(self, rt):
        v = rt_check(rt, "ST=0")
        assert not v.ac1 and not v.is_cause

    def test_billy_only_context_is_but_for(self, rt):
        v = rt_check(rt, "BT=1", u={"U": "u01"})
        assert v.is_cause
        assert v.witnesses[0].w == ()  # empty witness set: plain but-for

    def test_first_only_stops_early(self, rt):
        v = rt_check(rt, "ST=1", first_only=True)
        assert len(v.witnesses) == 1

    def test_all_witnesses_recheck(self, rt):
        v = rt_check(rt, "ST=1")
        cause = parse_formula("ST=1", rt.sig)
        effect = parse_formula("BS=1", rt.sig)
        assert len(v.witnesses) >= 2
        for w in v.witnesses:
            assert check_witness(rt, U11, cause, effect, w)

    def test_tampered_witness_rejected(self, rt):
        bad = HpWitness(w=("BH",), wstar=("1",), xprime=("0",))  # not the actual value
        cause = parse_formula("ST=1", rt.sig)
        effect = parse_formula("BS=1", rt.sig)
        assert not check_witness(rt, U11, cause, effect, bad)


class TestSymmetricOverdetermination:
    """Two switches, a lamp that lights if either is on: neither switch
    alone is a cause under the modified definition, the pair is."""

    MODEL = (
        "model lamp\nexo U : { 0 }\nvar A : { 0, 1 }\nvar B : { 0, 1 }\nvar L : { 0, 1 }\n"
        "eq A = case { default: 1 }\n"
        "eq B = case { default: 1 }\n"
        "eq L = case { A=1 | B=1 : 1 ; default: 0 }\n"
    )

    def test_single_switch_not_a_cause(self):
        m = parse_model(self.MODEL)
        u = {"U": "0"}
        assert not is_actual_cause_hp(m, u, parse_formula("A=1", m.sig), parse_formula("L=1", m.sig)).is_cause

    def test_pair_is_a_cause(self):
        m = parse_model(self.MODEL)
        u = {"U": "0"}
        v = is_actual_cause_hp(m, u, parse_formula("A=1 & B=1", m.sig), parse_formula("L=1", m.sig))
        assert v.is_cause
        assert v.witnesses[0].xprime == ("0", "0")


class TestBomb:
    def test_running_away_is_a_but_for_cause(self):
        m = parse_model(BOMB)
        u = {"Ur": "1", "Uc": "c3"}
        v = is_actual_cause_hp(m, u, parse_formula("Run=1", m.sig), parse_formula("Explode=1", m.sig))
        assert v.is_cause
        assert v.witnesses[0].w == ()


class TestValidation:
    def test_disjunctive_cause_rejected(self, rt):
        with pytest.raises(FormulaError):
            rt_check(rt, "ST=1 | BT=1")

    def test_empty_cause_rejected(self, rt):
        with pytest.raises(FormulaError):
            rt_check(rt, "true")

    def test_counterfactual_effect_rejected(self, rt):
        with pytest.raises(FormulaError):
            rt_check(rt, "ST=1", effect="(ST=0) ~> (BS=0)")

    def test_negated_effect_allowed(self, rt):
        assert rt_check(rt, "ST=1", effect="!BS=0").is_cause


def _ref_ac2_search(m, u, pairs, effect, first_only=False):
    """Reference AC2 search, as the checker ran it before it searched only
    the relevant variables: every W over every endogenous variable outside
    the cause, each with every x'."""
    sig = m.sig
    xvars = [v for v, _ in pairs]
    xvals = tuple(v for _, v in pairs)
    rest = [v for v in sig.endo_names if v not in xvars]
    ctx = m.validate_context(u)
    actual = m._solve(ctx, {})
    not_effect = Not(effect)
    found = []
    for size in range(len(rest) + 1):
        for w in itertools.combinations(rest, size):
            wstar = tuple(actual[v] for v in w)
            for xprime in itertools.product(*(sig.range_of(v) for v in xvars)):
                if xprime == xvals:
                    continue
                inter = dict(zip(xvars, xprime))
                inter.update(zip(w, wstar))
                if m._eval(ctx, not_effect, inter):
                    found.append(HpWitness(w, wstar, xprime))
                    if first_only:
                        return found
    return found


class TestPrunedAgainstExhaustive:
    """The AC2 search tries only witness sets over the relevant variables;
    verdicts, full witness listings, AC3 violators and explanation
    certificates must match the exhaustive search."""

    @pytest.mark.parametrize(
        "caps, trials", [(DEFAULT_CAPS, 400), (FuzzCaps(6, 2, 4), 30)], ids=["default", "wide"]
    )
    def test_output_matches_the_exhaustive_search(self, caps, trials, monkeypatch):
        for i in range(trials):
            rng = random.Random(f"pruned-ac2:{caps}:{i}")
            m = gen_random_model(caps, rng)
            u = random_context(m, rng)
            cause = random_event_conjunction(m, rng, max_size=3, prefer_actual=m.solve(u))
            effect = random_prop_formula(m, rng, 2)
            contexts = list(m.sig.assignments(m.sig.exo_names))
            K = rng.sample(contexts, rng.randint(1, min(3, len(contexts))))

            def run():
                return [
                    is_actual_cause_hp(m, u, cause, effect).to_dict(),
                    is_actual_cause_hp(m, u, cause, effect, first_only=True).to_dict(),
                    is_explanation_hp(m, K, cause, effect).to_dict(),
                ]

            new = run()
            with monkeypatch.context() as patch:
                patch.setattr(hp, "_ac2_search", _ref_ac2_search)
                ref = run()
            assert json.dumps(new) == json.dumps(ref), i
