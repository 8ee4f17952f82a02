"""Benchmark for causact: paired checks timed end to end, and per layer in a
separate traced run.

    python3 perfbench/run.py --workload cause-model --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one row each
    python3 perfbench/run.py --replay perfbench/out/bundles-explain-seed1.json

One process, one thread, a closed loop with one client: the next job starts
when the last one returns.  Set-up is timed apart from the jobs, in fresh
child processes started one at a time between stretches of the run.  Each job runs under a wall-clock deadline
(`DEADLINE_S`, enforced with `signal.setitimer`); a job past it counts as
failed.  Timed-out, failed and the slowest decided jobs are written to
`perfbench/out/` as replayable bundles.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
EXPECTED_FILE = os.path.join(HERE, "expected.json")

DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
DEADLINE_S = 10.0
SETUP_SAMPLES = 5
SLOWEST_KEPT = 5

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class JobTimeout(BaseException):
    """Raised by the SIGALRM handler inside a job that passed the deadline.
    A BaseException, so no `except Exception` in the library can swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def import_causact():
    """Import causact from the checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, ROOT]
    import causact

    if not os.path.abspath(causact.__file__).startswith(src + os.sep):
        raise ImportError(f"causact was imported from {causact.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# Expected verdicts


def digest(jobs) -> str:
    h = hashlib.sha256()
    for job in jobs:
        h.update(job["model"].encode())
        h.update(json.dumps(job["query"], sort_keys=True).encode())
    return h.hexdigest()[:16]


def verdict_text(verdicts) -> str:
    return "".join("1" if v else "0" for v in verdicts)


def load_expected(workload, seed, jobs):
    """The recorded verdicts of this job list, every job's verdict text
    concatenated (all jobs of a workload return the same number of
    verdicts), or None when this seed was not recorded.  Exits if the
    recorded list was generated from different inputs."""
    if not os.path.exists(EXPECTED_FILE):
        return None
    with open(EXPECTED_FILE) as f:
        entry = json.load(f).get(workload, {}).get(str(seed))
    if entry is None:
        return None
    if entry["digest"] != digest(jobs):
        sys.exit(f"{EXPECTED_FILE}: inputs for {workload} seed {seed} changed; re-record them")
    return entry["verdicts"]


# ---------------------------------------------------------------------------
# Running jobs


def with_deadline(fn, *args):
    """fn(*args) under the deadline; raises JobTimeout past it."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Run:
    """Runs a job list in order, in stretches of run time, each going on
    where the last one stopped.

    A model's jobs are set up with `prepare` just before the first of them,
    and dropped when the next model's are set up.  So one model and its
    caches are alive at a time, and peak memory does not depend on how far
    a run gets.  At the end of the list, the run starts over at job 0, again
    with cold caches.  Set-up time is not run time.  With `max_jobs`, the
    run stops after that many jobs."""

    def __init__(self, jobs, expected, prepare, on_job=None, max_jobs=None):
        self.jobs, self.expected, self.prepare = jobs, expected, prepare
        self.on_job, self.max_jobs = on_job, max_jobs
        # first job of each model -> one past its last
        self.ends = {}
        first = 0
        for k in range(1, len(jobs) + 1):
            if k == len(jobs) or jobs[k]["model"] != jobs[first]["model"]:
                self.ends[first], first = k, k
        self.i = 0
        self.prepared, self.first = None, 0
        self.latencies: list[float] = []  # seconds; failed jobs at the deadline
        self.decided = 0
        self.failed = 0
        self.wrong = 0  # failures that are not timeouts
        self.elapsed = 0.0
        self.slow: list[tuple[float, int]] = []
        self.failures: list[dict] = []

    def run(self, seconds):
        start = time.perf_counter()
        paused = 0.0
        while time.perf_counter() - start - paused < seconds and self.i != self.max_jobs:
            k = self.i % len(self.jobs)
            if self.on_job is not None:
                self.on_job(k)
            if k in self.ends:
                t0 = time.perf_counter()
                self.prepared = None  # let the last model go before setting up the next
                self.prepared, self.first = self.prepare(self.jobs[k:self.ends[k]]), k
                paused += time.perf_counter() - t0
            self._run_job(k)
            self.i += 1
        self.elapsed += time.perf_counter() - start - paused

    def _run_job(self, k):
        from perfbench.workloads import run_job

        status = None
        t0 = time.perf_counter()
        try:
            verdicts, agree = with_deadline(run_job, self.prepared[k - self.first])
            latency = time.perf_counter() - t0
            got = verdict_text(verdicts)
            if not agree:
                status = "paired verdicts disagree"
            elif self.expected is not None:
                want = self.expected[k * len(got):(k + 1) * len(got)]
                if got != want:
                    status = f"verdicts {got}, expected {want}"
        except JobTimeout:
            latency = time.perf_counter() - t0
            status = "timeout"
        except Exception:
            latency = time.perf_counter() - t0
            status = "error: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        if status is None:
            self.decided += 1
            self.latencies.append(latency)
            self.slow.append((latency, k))
            if len(self.slow) > 4 * SLOWEST_KEPT:
                self.slow = sorted(self.slow, reverse=True)[:SLOWEST_KEPT]
        else:
            self.failed += 1
            self.wrong += status != "timeout"
            self.latencies.append(DEADLINE_S)
            self.failures.append(dict(self.jobs[k], status=status, latency_ms=latency * 1000))

    def bundles(self) -> list[dict]:
        """Every failed job, then the slowest decided ones."""
        return self.failures + [
            dict(self.jobs[k], status="slowest decided", latency_ms=latency * 1000)
            for latency, k in sorted(self.slow, reverse=True)[:SLOWEST_KEPT]
        ]


def write_bundles(workload, seed, bundles, suffix=""):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"bundles-{workload}-seed{seed}{suffix}.json")
    with open(path, "w") as f:
        json.dump(bundles, f, indent=1)
    return path


def sample_setup(workload, seed, n, check_corpus):
    """The set-up time of the first `n` jobs, measured in a fresh
    interpreter: import, input generation, parsing and counterparts.  With
    `check_corpus`, the child then (untimed) re-derives the hand-written
    corpus claims, and a failure ends this run too."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
           "--setup-sample", str(n)] + (["--check-corpus"] if check_corpus else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"set-up of {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def check_corpus():
    import causact as ca

    bad = [r["name"] for r in ca.run_corpus() if not r["holds"]]
    if bad:
        sys.exit("corpus claims do not hold: " + ", ".join(bad))


# ---------------------------------------------------------------------------
# Modes


def measure(workload, seed, seconds):
    """The end-to-end metrics.  The set-up is timed `SETUP_SAMPLES` times,
    each in a fresh child process, one before each equal stretch of the run,
    so that the samples spread over the run as the machine's speed drifts."""
    from perfbench.workloads import job_list, prepare

    jobs = job_list(workload, seed)
    expected = load_expected(workload, seed, jobs)
    run = Run(jobs, expected, prepare)
    setups = []
    for j in range(SETUP_SAMPLES):
        setups.append(sample_setup(workload, seed, len(jobs), check_corpus=j == 0))
        run.run(seconds / SETUP_SAMPLES)
    path = write_bundles(workload, seed, run.bundles())
    attempted = run.decided + run.failed
    metrics = {
        "jobs_per_s": run.decided / run.elapsed,
        "job_p50_ms": statistics.median(run.latencies) * 1000,
        "job_p90_ms": (statistics.quantiles(run.latencies, n=10)[-1]
                       if len(run.latencies) > 1 else run.latencies[0]) * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    note = (f"{workload} seed {seed}: {attempted} jobs in {run.elapsed:.1f} s, "
            f"failed_share {run.failed / attempted:.4f}, recorded verdicts "
            f"{'checked' if expected else 'absent'}, bundles in {os.path.relpath(path, ROOT)}")
    outcome = {"correct": run.wrong == 0, "attempted": attempted, "failed": run.failed}
    return outcome, metrics, END_TO_END_UNITS, note


def measure_traced(workload, seed, seconds):
    """The first `TRACED_JOBS[workload]` jobs, untraced and then traced,
    each from a fresh set-up: the two rates compare the same work, and the
    counts repeat exactly for a given seed and commit.  Each half also stops
    after `seconds` / 2.  The traced half starts with the probe (job -1)."""
    from perfbench.trace import Tracer
    from perfbench.workloads import TRACED_JOBS, job_list, prepare, probe

    n = TRACED_JOBS[workload]
    jobs = job_list(workload, seed)
    expected = load_expected(workload, seed, jobs)
    check_corpus()
    base = Run(jobs, expected, prepare, max_jobs=n)
    base.run(seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        bad = probe()
        traced = Run(jobs, expected, prepare, on_job=lambda k: setattr(tracer, "job", k),
                     max_jobs=n)
        traced.run(seconds / 2)
    finally:
        tracer.restore()
    if bad:
        sys.exit("probe failed: " + ", ".join(bad))
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.save(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.npz"))
    write_bundles(workload, seed, traced.bundles(), suffix="-traced")

    counts, selfs = tracer.counts, tracer.self_seconds()
    metrics, units = {}, {}

    def put(name, value, unit):
        metrics[name], units[name] = value, unit

    for name in ("formula.parse_formula", "formula.prop_entails", "model.solve", "model.boxarrow",
                 "model.evaluate", "hp.is_actual_cause_hp", "structure.closest_states"):
        put(name + ".calls", counts[name + ".calls"], "count")
        put(name + ".self_s", selfs.get(name, 0.0), "s")
    put("formula.evaluate_prop.calls", counts["formula.evaluate_prop.calls"], "count")
    for name in ("model.parse_model", "abstract.is_actual_cause_abstract",
                 "abstract.enumerate_witnesses", "correspondence.build_counterpart",
                 "correspondence.check_correspondence", "explanation.is_explanation_hp",
                 "explanation.is_explanation_abstract"):
        put(name + ".self_s", selfs.get(name, 0.0), "s")
    for name in ("model.solve", "structure.closest_states"):
        put(name + ".distinct_ratio", len(tracer.keys[name]) / max(counts[name + ".calls"], 1),
            "ratio")
    put("hp.witnesses_listed", counts["hp.witnesses_listed"], "count")
    put("abstract.enumerate_witnesses.yielded", counts["abstract.enumerate_witnesses.yielded"],
        "count")
    put("abstract.counterfactual.calls", counts["abstract.counterfactual.calls"], "count")
    put("abstract.counterfactual.true_ratio",
        counts["abstract.counterfactual.true"] / max(counts["abstract.counterfactual.calls"], 1),
        "ratio")
    put("structure.satisfies_at.calls", counts["structure.satisfies_at.calls"], "count")
    put("correspondence.psi_checked", counts["correspondence.psi_checked"], "count")
    put("bench.trace_overhead_ratio",
        traced.decided * base.elapsed / max(base.decided * traced.elapsed, 1e-9), "ratio")
    attempted = base.decided + base.failed + traced.decided + traced.failed
    failed = base.failed + traced.failed
    put("failed_share", failed / attempted, "ratio")
    probe_spans = sum(1 for j in tracer.job_of if j < 0)
    note = (f"{workload} seed {seed}: traced {traced.decided + traced.failed} jobs, "
            f"{len(tracer.start)} spans ({probe_spans} of the probe); "
            f"untraced {base.decided + base.failed} jobs")
    outcome = {"correct": base.wrong + traced.wrong == 0, "attempted": attempted, "failed": failed}
    return outcome, metrics, units, note


def report(outcome, metrics, units, note):
    print(note)
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    print(json.dumps({
        **outcome,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))


def run_all(seed, seconds, trace):
    """Every workload, each in its own process (peak memory is per process).
    End-to-end metrics print one row per workload; per-layer metrics, of
    which there are many, one row per metric."""
    from perfbench.workloads import WORKLOADS

    rows = {}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(f"workload {w} exited with code {proc.returncode}")
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        if not trace:
            row["metrics"]["failed_share"] = {"value": row["failed"] / row["attempted"],
                                              "unit": "ratio"}
        rows[w] = row
    metrics = {n: m["unit"] for n, m in rows[WORKLOADS[0]]["metrics"].items()}
    cell = lambda w, n: f"{rows[w]['metrics'][n]['value']:>14.6g}"
    if trace:
        print(f"{'metric':44s} {'unit':6s} " + " ".join(f"{w:>14s}" for w in WORKLOADS))
        for n, unit in metrics.items():
            print(f"{n:44s} {unit:6s} " + " ".join(cell(w, n) for w in WORKLOADS))
    else:
        print(f"{'workload':12s} " + " ".join(f"{n:>14s}" for n in metrics))
        for w in WORKLOADS:
            print(f"{w:12s} " + " ".join(cell(w, n) for n in metrics))
        print(f"{'unit':12s} " + " ".join(f"{u:>14s}" for u in metrics.values()))
    print(json.dumps(rows))


def replay(path, index):
    """Re-run bundled jobs from their text alone, set-up included, under the
    deadline.  A job that raises prints its error and the next one runs."""
    from perfbench.workloads import prepare, run_job

    with open(path) as f:
        bundles = json.load(f)
    for b in bundles:
        if index is not None and b["index"] != index:
            continue
        t0 = time.perf_counter()
        try:
            verdicts, agree = with_deadline(lambda: run_job(prepare([b])[0]))
            outcome = f"verdicts {verdict_text(verdicts)}, {'agree' if agree else 'DISAGREE'}"
        except JobTimeout:
            outcome = "timeout"
        except Exception:
            outcome = "error: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        ms = (time.perf_counter() - t0) * 1000
        print(f"{b['workload']} seed {b['seed']} job {b['index']}: {outcome} in {ms:.1f} ms"
              f" (bundle: {b.get('status')}, {b.get('latency_ms', 0):.1f} ms)")


def record(workload, seeds):
    """Run every job of each seed's list once and store its verdicts."""
    from perfbench.workloads import job_list, prepare, run_job

    for seed in seeds:
        jobs = job_list(workload, seed)
        texts = []
        for k, p in enumerate(prepare(jobs)):
            verdicts, agree = run_job(p)
            if not agree:
                sys.exit(f"{workload} seed {seed} job {k}: paired verdicts disagree")
            texts.append(verdict_text(verdicts))
        entry = {"digest": digest(jobs), "verdicts": "".join(texts)}
        data = {}
        if os.path.exists(EXPECTED_FILE):
            with open(EXPECTED_FILE) as f:
                data = json.load(f)
        data.setdefault(workload, {})[str(seed)] = entry
        with open(EXPECTED_FILE + ".tmp", "w") as f:
            json.dump(data, f, indent=1, sort_keys=True)
        os.replace(EXPECTED_FILE + ".tmp", EXPECTED_FILE)
        print(f"recorded {workload} seed {seed}: {len(jobs)} jobs", flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", metavar="BUNDLES", help="re-run jobs from a bundle file")
    parser.add_argument("--index", type=int, help="with --replay: only this job index")
    parser.add_argument("--record", metavar="SEEDS",
                        help="record expected verdicts for these comma-separated seeds")
    parser.add_argument("--setup-sample", type=int, metavar="N",
                        help="time one set-up of the workload's first N jobs and print it")
    parser.add_argument("--check-corpus", action="store_true",
                        help="with --setup-sample: then check the corpus claims")
    args = parser.parse_args(argv)
    if args.trace and os.environ.get("PYTHONHASHSEED") != "0":
        # The order of set iteration decides how far some all()/any() scans
        # in the library run, so traced counts repeat exactly only under a
        # fixed string hash.
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__), *(sys.argv[1:] if argv is None else argv)],
                  {**os.environ, "PYTHONHASHSEED": "0"})

    t0 = time.perf_counter()
    try:
        import_causact()
    except ImportError as exc:
        sys.exit(f"cannot import causact from this checkout: {exc}")
    from perfbench.workloads import WORKLOADS, job_list, prepare

    if args.replay:
        return replay(args.replay, args.index)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)}, all)")
    if args.setup_sample:
        prepare(job_list(args.workload, args.seed, args.setup_sample))
        setup_s = time.perf_counter() - t0
        if args.check_corpus:
            check_corpus()
        print(json.dumps({"setup_s": setup_s}))
        return
    if args.record:
        return record(args.workload, [int(s) for s in args.record.split(",")])
    if args.trace:
        report(*measure_traced(args.workload, args.seed, args.seconds))
    else:
        report(*measure(args.workload, args.seed, args.seconds))


if __name__ == "__main__":
    main()
