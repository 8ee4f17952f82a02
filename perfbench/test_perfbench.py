"""Self-tests for the benchmark.  Run with: python3 -m pytest perfbench -q"""

import ast
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import causact  # noqa: E402
import pytest  # noqa: E402

from perfbench import gen, run, trace, workloads  # noqa: E402

# Every metric the benchmark promises, by name.
END_TO_END = {"jobs_per_s", "job_p50_ms", "job_p90_ms", "failed_share", "setup_s", "peak_rss_mb"}
PER_LAYER = {
    "formula.parse_formula.calls", "formula.parse_formula.self_s",
    "formula.prop_entails.calls", "formula.prop_entails.self_s",
    "formula.evaluate_prop.calls",
    "model.parse_model.self_s",
    "model.solve.calls", "model.solve.self_s", "model.solve.distinct_ratio",
    "model.boxarrow.calls", "model.boxarrow.self_s",
    "model.evaluate.calls", "model.evaluate.self_s",
    "hp.is_actual_cause_hp.calls", "hp.is_actual_cause_hp.self_s", "hp.witnesses_listed",
    "abstract.is_actual_cause_abstract.self_s",
    "abstract.enumerate_witnesses.yielded", "abstract.enumerate_witnesses.self_s",
    "abstract.counterfactual.calls", "abstract.counterfactual.true_ratio",
    "structure.closest_states.calls", "structure.closest_states.self_s",
    "structure.closest_states.distinct_ratio", "structure.satisfies_at.calls",
    "correspondence.build_counterpart.self_s",
    "correspondence.check_correspondence.self_s", "correspondence.psi_checked",
    "explanation.is_explanation_hp.self_s", "explanation.is_explanation_abstract.self_s",
    "bench.trace_overhead_ratio",
}


@pytest.fixture
def short_lists(monkeypatch):
    monkeypatch.setattr(workloads, "JOBS", {w: 24 for w in workloads.WORKLOADS})
    monkeypatch.setattr(workloads, "TRACED_JOBS", {w: 30 for w in workloads.WORKLOADS})
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "OUT_DIR", os.path.join(HERE, "out", "selftest"))
    monkeypatch.setattr(run, "EXPECTED_FILE", os.path.join(HERE, "out", "selftest", "none.json"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = json.dumps(workloads.job_list(workload, 7, n=30))
    assert first == json.dumps(workloads.job_list(workload, 7, n=30))
    assert first != json.dumps(workloads.job_list(workload, 8, n=30))


def test_generator_does_not_use_the_library():
    tree = ast.parse(open(gen.__file__).read())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert "causact" not in imported


def test_generator_solves_like_the_library():
    import random

    for i in range(12):
        sem = gen.gen_sem(random.Random(i), "m", (2, 3), (4, 2, 3, 4))
        m = causact.parse_model(sem.text())
        for ctx in sem.contexts():
            u = {k: str(x) for k, x in ctx.items()}
            assert m.solve(u) == {k: str(x) for k, x in sem.solve(ctx).items()}


def test_self_time_on_a_synthetic_span_tree():
    # root [0,10] has children a [1,4] and b [3,6], which overlap, and c [8,12],
    # which outlives it; a has a child d [2,3].
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    got = trace.self_times(start, end, parent).tolist()
    assert got == pytest.approx([10 - 5 - 2, 3 - 1, 3, 4, 1])


def test_tracer_wraps_every_binding_and_restores():
    original = causact.hp.is_actual_cause_hp
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert causact.explanation.is_actual_cause_hp is not original
        assert causact.explanation.is_actual_cause_hp is causact.hp.is_actual_cause_hp
        jobs = workloads.job_list("explain", 1, n=workloads.EXPLAIN_QUERIES_PER_MODEL)
        for p in workloads.prepare(jobs):
            workloads.run_job(p)
    finally:
        tracer.restore()
    assert causact.explanation.is_actual_cause_hp is original
    assert causact.is_actual_cause_hp is original
    assert tracer.counts["hp.is_actual_cause_hp.calls"] > 0
    assert tracer.counts["model.parse_model.calls"] == 1
    selfs = tracer.self_seconds()
    total = sum(e - s for s, e, p in zip(tracer.start, tracer.end, tracer.parent) if p < 0)
    assert 0 < sum(selfs.values()) == pytest.approx(total)


def fake_jobs(*kinds):
    """Jobs of runners that `fake_prepare` looks up by name, one model each."""
    return [{"workload": "test", "seed": 0, "index": i, "model": f"m{i}", "query": {"kind": kind}}
            for i, kind in enumerate(kinds)]


def fake_prepare(jobs):
    return [(job["query"]["kind"], ()) for job in jobs]


def test_deadline_fails_a_slow_job(monkeypatch):
    def spin():
        while True:
            time.sleep(0.001)

    monkeypatch.setitem(workloads._RUNNERS, "slow", spin)
    monkeypatch.setitem(workloads._RUNNERS, "fast", lambda: ((True,), True))
    monkeypatch.setattr(run, "DEADLINE_S", 0.05)
    r = run.Run(fake_jobs("fast", "slow"), None, fake_prepare)
    r.run(0.3)
    assert r.failed >= 1 and r.decided >= 1
    assert r.wrong == 0
    assert {b["index"] for b in r.bundles() if b["status"] == "timeout"} == {1}
    assert max(r.latencies) == run.DEADLINE_S


def test_disagreement_and_expected_mismatch_count_as_failed(monkeypatch):
    monkeypatch.setitem(workloads._RUNNERS, "disagree", lambda: ((True, False), False))
    monkeypatch.setitem(workloads._RUNNERS, "agree", lambda: ((True, True), True))
    r = run.Run(fake_jobs("disagree", "agree"), "1000", fake_prepare)
    r.run(0.05)
    assert r.decided == 0 and r.failed == r.wrong > 0
    assert [b["status"] for b in r.bundles()[:2]] == [
        "paired verdicts disagree", "verdicts 11, expected 00"]


def test_each_model_is_set_up_just_before_its_jobs(monkeypatch):
    monkeypatch.setitem(workloads._RUNNERS, "fast", lambda: ((True,), True))
    jobs = fake_jobs(*["fast"] * 5)
    for job, model in zip(jobs, "aabbb"):
        job["model"] = model
    calls = []
    r = run.Run(jobs, None, lambda js: calls.append([j["index"] for j in js]) or fake_prepare(js),
                max_jobs=7)
    r.run(10)
    r.run(10)  # the run has stopped at max_jobs
    assert calls == [[0, 1], [2, 3, 4], [0, 1]]
    assert r.decided == 7


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_output_holds_every_metric(workload, short_lists, capsys):
    run.report(*run.measure(workload, 1, 0.3))
    plain = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    run.report(*run.measure_traced(workload, 1, 0.6))
    traced = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    for out in (plain, traced):
        assert out["correct"] is True and out["attempted"] >= 1 and out["failed"] == 0
        assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())
    assert set(plain["metrics"]) | set(traced["metrics"]) == END_TO_END | PER_LAYER
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_bundles_replay(short_lists, capsys):
    jobs = workloads.job_list("counterpart", 2, n=3)
    broken = dict(jobs[0], index=99, model="model broken\nvar X : {")
    path = run.write_bundles("counterpart", 2, [broken] + jobs)
    expected = [run.verdict_text(workloads.run_job(p)[0]) for p in workloads.prepare(jobs)]
    run.replay(path, index=None)
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4 and "job 99: error: " in lines[0]
    assert [line.split("verdicts ")[1].split(",")[0] for line in lines[1:]] == expected
