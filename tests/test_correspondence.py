import gc
import itertools

import pytest

from causact.formula import parse_formula
from causact.model import parse_model
from causact.structure import CfStructure, TierOrder, validate_structure
from causact.correspondence import (
    CorrespondenceError,
    build_counterpart,
    check_correspondence,
    compatible,
    compatible_K,
    endo_depths,
    state_space_size,
    strongly_consistent,
)
from causact.corpus import CHAIN_COPY, ROCK_THROWING, backtracking_structure
from causact.harness import STRUCTURE_CAPS, gen_random_model, random_context, trial_rng


@pytest.fixture(scope="module")
def rt():
    return parse_model(ROCK_THROWING)


@pytest.fixture(scope="module")
def rt_counterpart(rt):
    return build_counterpart(rt)


class TestBuilder:
    def test_state_count(self, rt, rt_counterpart):
        m2, _ = rt_counterpart
        assert state_space_size(rt) == 128
        assert len(m2.states) == 128

    def test_context_state_matches_solution(self, rt, rt_counterpart):
        m2, ctx_state = rt_counterpart
        for u in rt.sig.assignments(rt.sig.exo_names):
            assert m2.interp[ctx_state(u)] == rt.solve(u)

    def test_deterministic_state_ids(self, rt):
        a, _ = build_counterpart(rt)
        b, _ = build_counterpart(rt)
        assert a.states == b.states
        assert a.interp == b.interp

    def test_order_is_centered(self, rt_counterpart):
        m2, _ = rt_counterpart
        assert validate_structure(m2) == []

    def test_depths_follow_the_dag(self, rt):
        d = endo_depths(rt)
        assert d["ST"] == 0 and d["BT"] == 0
        assert d["SH"] == 1 and d["BH"] == 2 and d["BS"] == 3

    def test_cap_enforced(self, rt):
        with pytest.raises(CorrespondenceError):
            build_counterpart(rt, state_cap=100)

    def test_intervention_counterfactuals_transfer(self, rt, rt_counterpart):
        m2, ctx_state = rt_counterpart
        s = ctx_state({"U": "u11"})
        for text in [
            "(ST=0) ~> (BS=1)",
            "(ST=0 & BH=0) ~> (BS=0)",
            "(BT=0) ~> (BS=1)",
            "(ST=0 & BT=0) ~> (BS=0)",
        ]:
            phi = parse_formula(text, rt.sig)
            assert m2.satisfies_at(s, phi) == rt.evaluate({"U": "u11"}, phi), text

    def test_closest_states_do_not_backtrack(self, rt, rt_counterpart):
        # the exogenous part is preserved in the closest antecedent states
        m2, ctx_state = rt_counterpart
        s = ctx_state({"U": "u11"})
        for t in m2.closest_states(s, parse_formula("ST=0", rt.sig)):
            assert m2.interp[t]["U"] == "u11"


class TestChecker:
    def test_counterpart_strongly_corresponds(self, rt, rt_counterpart):
        m2, _ = rt_counterpart
        report = check_correspondence(m2, rt, strong=True)
        assert report.ok
        assert report.condition_a.ok and report.condition_b.ok and report.condition_c.ok
        assert report.checked_psi_count > 200

    def test_strict_mode_flags_equation_violating_bases(self, rt, rt_counterpart):
        # at a state that itself breaks an equation while satisfying the
        # corresponding parent setting, centering contradicts the literal
        # reading, so the strict check must fail on the all-assignments space
        m2, _ = rt_counterpart
        report = check_correspondence(m2, rt, strict=True)
        assert not report.condition_a.ok

    def test_backtracking_structure_fails_strong_check(self, rt):
        m2, actual = backtracking_structure()
        report = check_correspondence(m2, rt, strong=True)
        assert not report.ok

    def test_missing_assignment_fails_condition_b(self, rt):
        chain = parse_model(CHAIN_COPY)
        m2, _ = build_counterpart(chain)
        interp = {s: dict(a) for s, a in m2.interp.items()}
        del interp["s0"]
        flat = {
            s: [frozenset({s}), frozenset(set(interp) - {s})] for s in interp
        }
        pruned = CfStructure(chain.sig, interp, TierOrder(flat))
        report = check_correspondence(pruned, chain, strong=True)
        assert report.condition_b is not None and not report.condition_b.ok

    def test_signature_mismatch_rejected(self, rt):
        chain = parse_model(CHAIN_COPY)
        m2, _ = build_counterpart(chain)
        with pytest.raises(CorrespondenceError):
            check_correspondence(m2, rt)


class TestConsistencyAndCompatibility:
    def test_strongly_consistent_at_matching_state(self, rt, rt_counterpart):
        m2, ctx_state = rt_counterpart
        u = {"U": "u11"}
        assert strongly_consistent(m2, ctx_state(u), rt, u)

    def test_not_consistent_at_other_state(self, rt, rt_counterpart):
        m2, ctx_state = rt_counterpart
        assert not strongly_consistent(m2, ctx_state({"U": "u00"}), rt, {"U": "u11"})

    def test_counterpart_is_compatible(self, rt, rt_counterpart):
        m2, _ = rt_counterpart
        assert compatible(rt, m2)

    def test_context_sets_compatibility(self, rt, rt_counterpart):
        m2, ctx_state = rt_counterpart
        K = [{"U": "u11"}, {"U": "u01"}]
        K2 = [ctx_state(u) for u in K]
        assert compatible_K(rt, m2, K, K2)
        assert not compatible_K(rt, m2, K, K2[:1] + [ctx_state({"U": "u00"})])
        assert not compatible_K(rt, m2, K, K2[:1])

    def test_verdicts_belong_to_the_structure_checked(self):
        # Each round drops its structure before building the next, so the
        # new one often gets the old one's id; the two orders disagree on
        # strong correspondence.
        rng = trial_rng(3, 0)
        m = gen_random_model(STRUCTURE_CAPS, rng)
        u = random_context(m, rng)
        built, ctx_state = build_counterpart(m)
        flat = TierOrder({s: [frozenset({s}), frozenset(built.states) - {s}] for s in built.states})
        orders = [built.order, flat]
        verdicts = set()
        for i in range(30):
            m2 = CfStructure(m.sig, built.interp, orders[i % 2])
            fresh = check_correspondence(m2, m, strong=True).ok
            assert compatible(m, m2) == fresh, i
            assert strongly_consistent(m2, ctx_state(u), m, u) == fresh, i
            verdicts.add(fresh)
            del m2
            gc.collect()
        assert verdicts == {True, False}
