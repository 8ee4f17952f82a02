import pytest

from causact import harness, structure
from causact.correspondence import ConditionReport, CorrespondenceError
from causact.structure import StructureError
from causact.formula import format_formula, free_endogenous, is_propositional
from causact.model import model_to_text, parse_model
from causact.harness import (
    FuzzCaps,
    _trial_theorem1,
    gen_random_model,
    random_context,
    random_event_conjunction,
    random_intervention_formula,
    run_differential,
    trial_rng,
)


class TestRng:
    def test_trial_rng_is_per_index(self):
        a = trial_rng(42, 0)
        b = trial_rng(42, 1)
        assert [a.random() for _ in range(3)] != [b.random() for _ in range(3)]

    def test_trial_rng_is_reproducible(self):
        assert trial_rng(42, 5).random() == trial_rng(42, 5).random()


class TestGenerators:
    def test_models_are_recursive_and_round_trip(self):
        caps = FuzzCaps()
        for i in range(30):
            m = gen_random_model(caps, trial_rng(1, i))
            assert sorted(m.topo_order) == sorted(m.sig.endo_names)
            again = parse_model(model_to_text(m))
            u = random_context(m, trial_rng(2, i))
            assert again.solve(u) == m.solve(u)

    def test_model_generation_is_deterministic(self):
        texts = [
            model_to_text(gen_random_model(FuzzCaps(), trial_rng(9, i))) for i in range(5)
        ]
        again = [
            model_to_text(gen_random_model(FuzzCaps(), trial_rng(9, i))) for i in range(5)
        ]
        assert texts == again

    def test_caps_respected(self):
        caps = FuzzCaps(max_endogenous=2, max_exogenous=1, max_domain=2)
        for i in range(20):
            m = gen_random_model(caps, trial_rng(3, i))
            assert len(m.sig.endo_names) <= 2
            assert len(m.sig.exo_names) <= 1
            for v in m.sig.all_names():
                assert len(m.sig.range_of(v)) <= 2

    def test_event_conjunctions_use_distinct_variables(self):
        m = gen_random_model(FuzzCaps(), trial_rng(4, 0))
        for i in range(20):
            rng = trial_rng(5, i)
            phi = random_event_conjunction(m, rng)
            names = [v for v in free_endogenous(phi)]
            assert len(names) == len(set(names))

    def test_intervention_formulas_are_evaluable(self):
        for i in range(20):
            rng = trial_rng(6, i)
            m = gen_random_model(FuzzCaps(), rng)
            u = random_context(m, rng)
            phi = random_intervention_formula(m, rng, 3)
            assert isinstance(m.evaluate(u, phi), bool)


class TestDifferentials:
    @pytest.mark.parametrize("name", ["theorem1", "theorem2", "prop3", "theorem4", "theorem5"])
    def test_small_runs_agree(self, name):
        report = run_differential(name, trials=20, seed=123)
        assert report.ok, report.to_json()
        assert report.agreements == 20

    def test_theorem2_requires_strong_correspondence(self, monkeypatch):
        real = harness.check_correspondence
        asked = []

        def failing(m2, m, strong=False, strict=False):
            asked.append(strong)
            report = real(m2, m, strong=strong, strict=strict)
            report.condition_c = ConditionReport(ok=False, counterexample={"psi": "V1=0", "base_state": "s0"})
            return report

        monkeypatch.setattr(harness, "check_correspondence", failing)
        report = run_differential("theorem2", trials=3, seed=123)
        assert asked == [True] * 3
        assert report.agreements == 0 and len(report.disagreements) == 3
        bundle = report.disagreements[0]
        assert bundle["correspondence"]["conditionC"]["counterexample"]["psi"] == "V1=0"
        assert bundle["state"] and bundle["index"] == 0

    def test_theorem5_requires_strong_correspondence(self, monkeypatch):
        real = harness.check_correspondence
        asked = []

        def failing(m2, m, strong=False, strict=False):
            asked.append(strong)
            report = real(m2, m, strong=strong, strict=strict)
            report.condition_a = ConditionReport(ok=False, counterexample={"Y": "V1"})
            return report

        monkeypatch.setattr(harness, "check_correspondence", failing)
        report = run_differential("theorem5", trials=3, seed=123)
        assert asked == [True] * 3
        assert report.agreements == 0 and len(report.disagreements) == 3
        bundle = report.disagreements[0]
        assert bundle["correspondence"]["conditionA"]["counterexample"] == {"Y": "V1"}
        assert bundle["states"] and bundle["index"] == 0

    @pytest.mark.parametrize("name", ["theorem2", "prop3", "theorem5"])
    def test_counterparts_past_the_state_cap_are_skipped(self, name, monkeypatch):
        real = harness.build_counterpart
        monkeypatch.setattr(harness, "build_counterpart", lambda m, state_cap: real(m, state_cap=48))
        report = run_differential(name, trials=20, seed=123)
        assert report.ok and 0 < report.skipped < 20, report.to_json()
        assert report.agreements + report.skipped == 20
        assert report.to_dict()["skipped"] == report.skipped

    def test_correspondence_past_the_budget_is_skipped(self, monkeypatch):
        # A counterpart's condition (c) holds no lattice, so even a 2 KiB
        # budget stops no check of these counterparts of at most 16 states;
        # a check that does exceed the budget raises CorrespondenceError,
        # and its trial is skipped.
        caps = FuzzCaps(3, 1, 2)
        monkeypatch.setattr(structure, "_ARRAY_BUDGET", 2 << 10)
        assert run_differential("theorem2", trials=30, seed=5, caps=caps).skipped == 0
        real = harness.check_correspondence

        def bounded(m2, m, strong=False, strict=False):
            if len(m2.states) > 8:
                raise CorrespondenceError(f"condition (c) over {len(m2.states)} states exceeds the budget")
            return real(m2, m, strong=strong, strict=strict)

        monkeypatch.setattr(harness, "check_correspondence", bounded)
        report = run_differential("theorem2", trials=30, seed=5, caps=caps)
        assert report.ok and 0 < report.skipped < 30, report.to_json()
        assert report.agreements + report.skipped == 30

    def test_other_errors_end_the_run(self, monkeypatch):
        def broken(m2, m, strong=False, strict=False):
            raise StructureError("not a skip")

        monkeypatch.setattr(harness, "check_correspondence", broken)
        with pytest.raises(StructureError, match="not a skip"):
            run_differential("theorem2", trials=3, seed=123)

    def test_reports_are_deterministic(self):
        a = run_differential("theorem1", trials=15, seed=77)
        b = run_differential("theorem1", trials=15, seed=77)
        da, db = a.to_dict(), b.to_dict()
        da.pop("elapsedSeconds"), db.pop("elapsedSeconds")
        assert da == db

    def test_negated_variant(self):
        report = run_differential("theorem1", trials=20, seed=123, negated=True)
        assert report.ok, report.to_json()

    def test_unknown_differential_rejected(self):
        with pytest.raises(ValueError):
            run_differential("theorem9", trials=1, seed=0)

    def test_slow_negated_trial_agrees(self):
        # at domain 4 this trial's witnesses pin six variables; trying every
        # intervention on them took about two minutes
        assert _trial_theorem1(FuzzCaps(6, 2, 4), trial_rng(77, 33), True) is None

    def test_negated_variant_at_domain_four(self):
        report = run_differential("theorem1", 500, seed=77, caps=FuzzCaps(6, 2, 4), negated=True)
        assert report.ok and report.agreements == 500, report.to_json()
