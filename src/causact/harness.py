"""Seeded fuzzing and differential testing.

Random models are DAGs over small variable sets with tabulated equations;
every trial derives its own RNG from `{seed}:{index}` so any single trial
can be replayed in isolation.  Each differential pits two checkers that
are supposed to agree against each other:

  theorem1   interventionist cause vs. language-parameterized cause with
             conjunctive witnesses, in the same causal setting (optionally
             with negated conjuncts in the language);
  theorem2   interventionist cause in (M,u) vs. pair-extended witnesses in
             the built counterpart structure at the matching state;
  prop3      formula-by-formula agreement between (M,u) and the matching
             counterpart state, for formulas whose counterfactual
             antecedents are event conjunctions;
  theorem4   interventionist explanation vs. abstract explanation with
             conjunctive witnesses, relative to the same contexts;
  theorem5   interventionist explanation vs. abstract explanation with
             pair-extended witnesses on the counterpart structure.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field

from .formula import (
    And,
    BoxArrow,
    Not,
    Or,
    PrimEvent,
    conjoin,
    format_formula,
)
from .model import CausalModel, model_to_text, parse_model
from .hp import is_actual_cause_hp
from .abstract import (
    CausalSetting,
    CfSetting,
    conj_language,
    conj_neg_language,
    pair_language,
    is_actual_cause_abstract,
)
from .explanation import is_explanation_hp, is_explanation_abstract
from .correspondence import build_counterpart


@dataclass(frozen=True)
class FuzzCaps:
    max_endogenous: int = 4
    max_exogenous: int = 2
    max_domain: int = 3
    formula_depth: int = 3
    max_parents: int = 3


DEFAULT_CAPS = FuzzCaps()


def trial_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def gen_random_model(caps: FuzzCaps, rng: random.Random) -> CausalModel:
    """A random recursive model, produced via the text format so repro
    bundles can quote it verbatim."""
    n_endo = rng.randint(1, caps.max_endogenous)
    n_exo = rng.randint(1, caps.max_exogenous)
    endo = [f"V{i}" for i in range(1, n_endo + 1)]
    exo = [f"U{i}" for i in range(1, n_exo + 1)]
    dom = {v: rng.randint(2, caps.max_domain) for v in endo + exo}
    values = lambda v: [str(k) for k in range(dom[v])]

    lines = ["model fuzz"]
    for u in exo:
        lines.append(f"exo {u} : {{ {', '.join(values(u))} }}")
    for v in endo:
        lines.append(f"var {v} : {{ {', '.join(values(v))} }}")
    for i, v in enumerate(endo):
        pool = exo + endo[:i]
        parents = rng.sample(pool, min(len(pool), rng.randint(0, caps.max_parents)))
        rows = []
        for combo in itertools.product(*(values(p) for p in parents)):
            guard = " & ".join(f"{p}={c}" for p, c in zip(parents, combo))
            if guard:
                rows.append(f"{guard} : {rng.choice(values(v))}")
        default = rng.choice(values(v))
        body = " ; ".join(rows + [f"default: {default}"])
        lines.append(f"eq {v} = case {{ {body} }}")
    return parse_model("\n".join(lines))


def random_context(m: CausalModel, rng: random.Random) -> dict:
    return {u: rng.choice(m.sig.range_of(u)) for u in m.sig.exo_names}


def random_event_conjunction(m, rng, max_size=2, prefer_actual=None):
    """A conjunction of events over distinct endogenous variables.  With
    `prefer_actual` (a solved assignment), values are biased toward the
    actual ones so the AC1-true path gets exercised often."""
    size = rng.randint(1, min(max_size, len(m.sig.endo_names)))
    names = rng.sample(m.sig.endo_names, size)
    parts = []
    for v in names:
        if prefer_actual is not None and rng.random() < 0.7:
            parts.append(PrimEvent(v, prefer_actual[v]))
        else:
            parts.append(PrimEvent(v, rng.choice(m.sig.range_of(v))))
    return conjoin(parts)


def random_prop_formula(m, rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        v = rng.choice(m.sig.endo_names)
        return PrimEvent(v, rng.choice(m.sig.range_of(v)))
    kind = rng.choice(["not", "and", "or"])
    if kind == "not":
        return Not(random_prop_formula(m, rng, depth - 1))
    left = random_prop_formula(m, rng, depth - 1)
    right = random_prop_formula(m, rng, depth - 1)
    return (And if kind == "and" else Or)(left, right)


def random_intervention_formula(m, rng, depth):
    """A formula whose counterfactual antecedents are event conjunctions
    over distinct endogenous variables (the fragment where a causal model
    and its counterpart structure must agree)."""
    if depth <= 0:
        return random_prop_formula(m, rng, 0)
    kind = rng.choice(["prop", "not", "and", "or", "cond", "cond"])
    if kind == "prop":
        return random_prop_formula(m, rng, depth)
    if kind == "not":
        return Not(random_intervention_formula(m, rng, depth - 1))
    if kind == "cond":
        ant = random_event_conjunction(m, rng, max_size=2)
        cons = random_prop_formula(m, rng, depth - 1)
        return BoxArrow(ant, cons)
    left = random_intervention_formula(m, rng, depth - 1)
    right = random_intervention_formula(m, rng, depth - 1)
    return (And if kind == "and" else Or)(left, right)


# ---------------------------------------------------------------------------
# Reports


@dataclass
class DifferentialReport:
    differential: str
    trials: int
    seed: int
    agreements: int = 0
    disagreements: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def to_dict(self):
        return {
            "differential": self.differential,
            "trials": self.trials,
            "seed": self.seed,
            "agreements": self.agreements,
            "disagreements": self.disagreements,
            "elapsedSeconds": round(self.elapsed, 3),
            "ok": self.ok,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)


def _bundle(m, u, **extra):
    return {"model": model_to_text(m), "context": dict(u), **extra}


def run_differential(
    name: str,
    trials: int,
    seed: int = 0,
    caps: FuzzCaps = DEFAULT_CAPS,
    negated: bool = False,
) -> DifferentialReport:
    runners = {
        "theorem1": _trial_theorem1,
        "theorem2": _trial_theorem2,
        "prop3": _trial_prop3,
        "theorem4": _trial_theorem4,
        "theorem5": _trial_theorem5,
    }
    if name not in runners:
        raise ValueError(f"unknown differential {name!r} (choose from {sorted(runners)})")
    report = DifferentialReport(differential=name, trials=trials, seed=seed)
    start = time.time()
    for index in range(trials):
        rng = trial_rng(seed, index)
        disagreement = runners[name](caps, rng, negated)
        if disagreement is None:
            report.agreements += 1
        else:
            disagreement["index"] = index
            report.disagreements.append(disagreement)
    report.elapsed = time.time() - start
    return report


# ---------------------------------------------------------------------------
# Individual trials; each returns None on agreement or a repro bundle.


def _cause_trial(caps, rng, place):
    """Interventionist cause vs. abstract cause for a random query;
    `place(m, u)` gives the abstract check's setting, its language and the
    bundle fields that say where it ran."""
    m = gen_random_model(caps, rng)
    u = random_context(m, rng)
    cause = random_event_conjunction(m, rng, prefer_actual=m.solve(u))
    effect = random_prop_formula(m, rng, caps.formula_depth)
    hp = is_actual_cause_hp(m, u, cause, effect, first_only=True)
    setting, lang, where = place(m, u)
    ab = is_actual_cause_abstract(setting, cause, effect, lang)
    if hp.is_cause == ab.is_cause:
        return None
    return _bundle(m, u, cause=format_formula(cause), effect=format_formula(effect), **where,
                   interventionist=hp.to_dict(), abstract=ab.to_dict())


def _trial_theorem1(caps, rng, negated):
    lang = conj_neg_language() if negated else conj_language()
    place = lambda m, u: (CausalSetting(m, u), lang, {"language": lang.describe()})
    return _cause_trial(caps, rng, place)


def _trial_theorem2(caps, rng, negated):
    def place(m, u):
        m2, ctx_state = build_counterpart(m, state_cap=10**4)
        return CfSetting(m2, ctx_state(u)), pair_language(), {"state": ctx_state(u)}

    return _cause_trial(caps, rng, place)


_PROP3_FORMULAS = 50  # random formulas compared per model


def _trial_prop3(caps, rng, negated):
    m = gen_random_model(caps, rng)
    u = random_context(m, rng)
    m2, ctx_state = build_counterpart(m, state_cap=10**4)
    s = ctx_state(u)
    for _ in range(_PROP3_FORMULAS):
        phi = random_intervention_formula(m, rng, caps.formula_depth)
        on_model = m.evaluate(u, phi)
        on_structure = m2.satisfies_at(s, phi)
        if on_model != on_structure:
            return _bundle(m, u, formula=format_formula(phi), state=s, onModel=on_model,
                           onStructure=on_structure)
    return None


def _random_K(m, rng, max_size=4):
    contexts = list(m.sig.assignments(m.sig.exo_names))
    size = rng.randint(1, min(max_size, len(contexts)))
    return rng.sample(contexts, size)


def _explanation_trial(caps, rng, place):
    """Interventionist explanation vs. abstract explanation for a random
    query; `place(m, K)` gives the abstract check's settings, its language
    and the bundle fields that say where it ran."""
    m = gen_random_model(caps, rng)
    K = _random_K(m, rng)
    anchor = m.solve(rng.choice(K))
    cand = random_event_conjunction(m, rng, prefer_actual=anchor)
    effect = random_prop_formula(m, rng, caps.formula_depth)
    hp = is_explanation_hp(m, K, cand, effect)
    settings, lang, where = place(m, K)
    ab = is_explanation_abstract(settings, cand, effect, lang)
    if (hp.is_explanation, hp.nontrivial) == (ab.is_explanation, ab.nontrivial):
        return None
    contexts = {f"K[{i}]": dict(u) for i, u in enumerate(K)}
    return _bundle(m, contexts, candidate=format_formula(cand), effect=format_formula(effect), **where,
                   interventionist=hp.to_dict(), abstract=ab.to_dict())


def _trial_theorem4(caps, rng, negated):
    place = lambda m, K: ([CausalSetting(m, u) for u in K], conj_language(), {})
    return _explanation_trial(caps, rng, place)


def _trial_theorem5(caps, rng, negated):
    def place(m, K):
        m2, ctx_state = build_counterpart(m, state_cap=10**4)
        settings = [CfSetting(m2, ctx_state(u)) for u in K]
        return settings, pair_language(), {"states": [st.state for st in settings]}

    return _explanation_trial(caps, rng, place)
