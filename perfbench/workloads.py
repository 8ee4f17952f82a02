"""The benchmark's three workloads: seeded job lists, their set-up, and the
paired check each job runs.

A job is one paired check on one generated input: the two verdicts the
paper says must agree, computed in-process.  A job is described by plain
text (model file plus query formulas), so it can be written out as a
bundle and replayed without the generator.

Every call into the library goes through the `causact` package namespace
at call time, so the traced run's wrappers (see trace.py) see it.
"""

from __future__ import annotations

import random

import causact as ca

from . import gen

WORKLOADS = ("cause-model", "counterpart", "explain")

# Shapes of the generated models, cycled through by model index so that
# every prefix of a job list has the same mix.  A shape fixes the domain
# sizes (and so the state count); the seed draws the equations and queries.
# The sizes stop short of the regions where one check takes seconds at the
# commit the benchmark was defined on (see NOTES.md).
#   (exogenous domains, endogenous domains, witness language)
WIDE = ((2, 2), (2,) * 8, "conj")
CAUSE_SHAPES = (
    ((2, 3), (2, 3, 2, 3), "conj"),
    ((3,), (2, 3, 4, 2, 3), "conj"),
    ((2, 2), (2, 3, 2, 3, 2, 3), "conj"),
    ((2, 3), (3, 2, 3, 2), "conj-neg"),
    ((2,), (2, 3, 2, 3, 3), "conj-neg"),
    ((4,), (4, 2, 3, 2), "conj"),
    ((3,), (3, 2, 2, 3, 2, 2), "conj"),
    ((2, 2), (3, 3, 2, 2), "conj-neg"),
    ((3,), (2, 4, 2, 4, 2), "conj"),
    ((2,), (3, 2, 3, 2, 2), "conj-neg"),
    WIDE,
)
QUERIES_PER_MODEL = 3

#   (exogenous domains, endogenous domains): a ladder from 12 to 256 states,
#   so that latency percentiles fall inside a shape's spread, not on a gap
COUNTERPART_SHAPES = (
    ((2,), (2, 3)),
    ((3,), (2, 3)),
    ((3,), (3, 3)),
    ((2,), (2, 2, 3)),
    ((2, 2), (2, 2, 2)),
    ((2, 2), (3, 4)),
    ((4,), (4, 4)),
    ((2, 3), (3, 4)),
    ((2, 4), (3, 4)),
    ((2, 2), (3, 3, 3)),
    ((2, 4), (4, 4)),
    ((3, 4), (4, 4)),
    ((4, 4), (4, 4)),
)
PAIR_CHECKS = 3
TRANSFER_FORMULAS = 10

EXPLAIN_SHAPES = (
    ((2,), (2, 3)),
    ((3,), (2, 3, 2)),
    ((2, 2), (2, 2, 2)),
    ((2,), (3, 3, 2)),
    ((2, 2), (2, 3)),
)
EXPLAIN_QUERIES_PER_MODEL = 3

# Job-list lengths: about one 30-second run at the commit the benchmark was
# defined on.  A run that reaches the end starts over at job 0, set up afresh.
JOBS = {"cause-model": 1485, "counterpart": 338, "explain": 2400}
# The traced run covers this many jobs from the start of the list, so that
# its counts repeat exactly.  Untraced, they take 6 to 8 seconds; traced,
# well under the 15-second cap of a 30-second run.
TRACED_JOBS = {"cause-model": 264, "counterpart": 78, "explain": 540}

STATE_CAP = 10**4


def _model_rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


# ---------------------------------------------------------------------------
# Job lists as text


def job_list(workload: str, seed: int, n: int | None = None) -> list[dict]:
    """The first `n` jobs of a workload's list for `seed`, as bundles:
    {"workload", "seed", "index", "model", "query"}."""
    n = JOBS[workload] if n is None else n
    make, per_model = _MAKERS[workload]
    jobs = []
    for mi in range((n + per_model - 1) // per_model):
        text, queries = make(_model_rng(workload, seed, mi), mi, per_model)
        for q in queries[: n - len(jobs)]:
            jobs.append(
                {"workload": workload, "seed": seed, "index": len(jobs), "model": text, "query": q}
            )
    return jobs


def _cause_query(rng, sem):
    ctx = gen.random_context(rng, sem)
    actual = sem.solve(ctx)
    return {
        "context": gen.context_text(ctx),
        "cause": gen.events_text(gen.random_events(rng, sem, actual)),
        "effect": gen.random_effect(rng, sem, actual),
    }


def _cause_model(rng, mi, k):
    exo, endo, lang = CAUSE_SHAPES[mi % len(CAUSE_SHAPES)]
    sem = gen.gen_sem(rng, f"m{mi}", exo, endo)
    return sem.text(), [dict(_cause_query(rng, sem), lang=lang) for _ in range(k)]


def _counterpart(rng, mi, k):
    sem = gen.gen_sem(rng, f"m{mi}", *COUNTERPART_SHAPES[mi % len(COUNTERPART_SHAPES)])
    causes = [_cause_query(rng, sem) for _ in range(PAIR_CHECKS)]
    transfer = {
        "context": gen.context_text(gen.random_context(rng, sem)),
        "formulas": [gen.random_transfer_formula(rng, sem, 3) for _ in range(TRANSFER_FORMULAS)],
    }
    return sem.text(), [{"causes": causes, "transfer": transfer}]


def _explain(rng, mi, k):
    sem = gen.gen_sem(rng, f"m{mi}", *EXPLAIN_SHAPES[mi % len(EXPLAIN_SHAPES)])
    contexts = list(sem.contexts())
    queries = []
    for j in range(k):
        # |K| cycles through 1..4 (as far as the contexts go) rather than
        # being drawn: it scales the cost of a check, and cycling keeps the
        # mix the same in every prefix of the list.
        K = rng.sample(contexts, min(1 + (mi * k + j) % 4, len(contexts)))
        anchor = sem.solve(rng.choice(K))
        queries.append(
            {
                "K": [gen.context_text(c) for c in K],
                "candidate": gen.events_text(gen.random_events(rng, sem, anchor)),
                "effect": gen.random_effect(rng, sem, anchor),
            }
        )
    return sem.text(), queries


_MAKERS = {
    "cause-model": (_cause_model, QUERIES_PER_MODEL),
    "counterpart": (_counterpart, 1),
    "explain": (_explain, EXPLAIN_QUERIES_PER_MODEL),
}


# ---------------------------------------------------------------------------
# Set-up: parse the inputs (and build the counterparts `explain` takes)


def prepare(jobs: list[dict]) -> list[tuple]:
    """Parse each job's model (once per distinct text) and query formulas.
    Returns one (kind, args) pair per job, in order."""
    models: dict[str, tuple] = {}
    out = []
    for job in jobs:
        text, q, workload = job["model"], job["query"], job["workload"]
        if (text, workload) not in models:
            m = ca.parse_model(text)
            cp = ca.build_counterpart(m, state_cap=STATE_CAP) if workload == "explain" else None
            models[text, workload] = (m, cp)
        m, cp = models[text, workload]
        f = lambda s: ca.parse_formula(s, m.sig)
        ctx = lambda s: ca.parse_context(s, m.sig)
        if workload == "cause-model":
            lang = ca.parse_language(q["lang"])
            out.append((workload, (m, ctx(q["context"]), f(q["cause"]), f(q["effect"]), lang)))
        elif workload == "counterpart":
            causes = [(ctx(c["context"]), f(c["cause"]), f(c["effect"])) for c in q["causes"]]
            t = q["transfer"]
            out.append((workload, (m, causes, ctx(t["context"]), [f(s) for s in t["formulas"]])))
        else:
            K = [ctx(s) for s in q["K"]]
            out.append((workload, (m, cp, K, f(q["candidate"]), f(q["effect"]))))
    return out


# ---------------------------------------------------------------------------
# Jobs: each returns (verdicts, agree).  `verdicts` is the tuple of boolean
# verdicts compared with the recorded expectations; `agree` is whether the
# paired verdicts agree.


def run_job(prepared) -> tuple[tuple[bool, ...], bool]:
    kind, args = prepared
    return _RUNNERS[kind](*args)


def _run_cause_model(m, u, cause, effect, lang):
    # Theorem 1: the witness-set check with its full witness listing, and
    # the language check with conjunctive (optionally negated) witnesses.
    hp = ca.is_actual_cause_hp(m, u, cause, effect)
    ab = ca.is_actual_cause_abstract(ca.CausalSetting(m, u), cause, effect, lang)
    return (hp.is_cause, ab.is_cause), hp.is_cause == ab.is_cause


def _run_counterpart(m, causes, u_transfer, formulas):
    m2, state_of = ca.build_counterpart(m, state_cap=STATE_CAP)
    report = ca.check_correspondence(m2, m, strong=True)
    verdicts = [report.ok]
    agree = report.ok
    # Theorem 2: witness sets in (M, u) vs. pair witnesses at the matching state.
    pair = ca.pair_language()
    for u, cause, effect in causes:
        hp = ca.is_actual_cause_hp(m, u, cause, effect, first_only=True)
        ab = ca.is_actual_cause_abstract(ca.CfSetting(m2, state_of(u)), cause, effect, pair)
        verdicts += [hp.is_cause, ab.is_cause]
        agree = agree and hp.is_cause == ab.is_cause
    # Proposition 3: formula transfer between (M, u) and its state.
    s = state_of(u_transfer)
    for phi in formulas:
        agree = agree and m.evaluate(u_transfer, phi) == m2.satisfies_at(s, phi)
    return tuple(verdicts), agree


def _run_explain(m, counterpart, K, cand, effect):
    m2, state_of = counterpart
    hp = ca.is_explanation_hp(m, K, cand, effect)
    # Theorem 4: conjunctive witnesses in the same contexts.
    conj = ca.is_explanation_abstract(
        [ca.CausalSetting(m, u) for u in K], cand, effect, ca.conj_language()
    )
    # Theorem 5: pair witnesses at the matching counterpart states.
    pair = ca.is_explanation_abstract(
        [ca.CfSetting(m2, state_of(u)) for u in K], cand, effect, ca.pair_language()
    )
    key = lambda v: (v.is_explanation, v.nontrivial)
    verdicts = (hp.is_explanation, conj.is_explanation, pair.is_explanation)
    return verdicts, key(hp) == key(conj) == key(pair)


_RUNNERS = {
    "cause-model": _run_cause_model,
    "counterpart": _run_counterpart,
    "explain": _run_explain,
}


# A small fixed model of the benchmark's own, independent of the library's
# corpus: a chain U -> X -> Y in which Y copies X and X copies U.
PROBE_MODEL = """\
model probe
exo U : { 0, 1, 2 }
var X : { 0, 1, 2 }
var Y : { 0, 1, 2 }
eq X = case { U=1 : 1 ; U=2 : 2 ; default: 0 }
eq Y = case { X=1 : 1 ; X=2 : 2 ; default: 0 }
"""


def probe() -> list[str]:
    """One paired check of each workload on `PROBE_MODEL`.  The traced run
    starts with it, so that every layer it measures runs, for a small fixed
    cost, in every workload.  Returns the workloads whose check failed."""
    jobs = [
        {"workload": "cause-model", "model": PROBE_MODEL,
         "query": {"context": "U=1", "cause": "X=1", "effect": "Y=1", "lang": "conj-neg"}},
        {"workload": "counterpart", "model": PROBE_MODEL,
         "query": {"causes": [{"context": "U=2", "cause": "X=2", "effect": "Y=2"}],
                   "transfer": {"context": "U=0", "formulas": ["(X=1) ~> (Y=1)"]}}},
        {"workload": "explain", "model": PROBE_MODEL,
         "query": {"K": ["U=1", "U=2"], "candidate": "X=1", "effect": "Y=1"}},
    ]
    return [job["workload"] for job, prepared in zip(jobs, prepare(jobs))
            if not run_job(prepared)[1]]
