"""Explanation relative to an epistemic state.

The epistemic state is the set of settings the agent considers possible:
contexts of a causal model, or states of a counterfactual structure.  A
candidate explains an explanandum if, wherever the agent considers the
candidate and the explanandum jointly possible, the candidate (possibly
strengthened) causes the explanandum (EX1a); intervening to make the
candidate true forces the explanandum in every considered setting (EX1b);
no strictly weaker candidate would do (EX2); and the joint possibility is
actually considered (EX3).  The explanation is nontrivial when the agent
also considers a setting where the explanandum holds without the
candidate (EX4), i.e. the candidate was not already known.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from .formula import (
    TRUE,
    Formula,
    FormulaError,
    PrimEvent,
    as_event_conjunction,
    conjoin,
    event_literals,
    format_formula,
    is_propositional,
    prop_entails_given,
    prop_equivalent,
)
from .hp import is_actual_cause_hp
from .model import CausalModel
from .abstract import WitnessLanguage, enumerate_witnesses, is_actual_cause_abstract


@dataclass
class ExplanationVerdict:
    is_explanation: bool
    nontrivial: bool
    ex1a: bool
    ex1b: bool
    ex2: bool
    ex3: bool
    ex4: bool
    # per-setting certificates for EX1(a): index -> description (or None
    # where the premise does not apply)
    certificates: dict = field(default_factory=dict)
    ex2_violator: Formula | None = None

    def to_dict(self):
        return {
            "isExplanation": self.is_explanation,
            "nontrivial": self.nontrivial,
            "ex1a": self.ex1a,
            "ex1b": self.ex1b,
            "ex2": self.ex2,
            "ex3": self.ex3,
            "ex4": self.ex4,
            "certificates": {str(k): v for k, v in self.certificates.items()},
            "ex2Violator": (
                format_formula(self.ex2_violator) if self.ex2_violator is not None else None
            ),
        }


# ---------------------------------------------------------------------------
# Explanation in causal models


def is_explanation_hp(
    m: CausalModel, K: list[dict], cand: Formula, effect: Formula
) -> ExplanationVerdict:
    """Check whether `cand` (a conjunction of primitive events) explains the
    propositional `effect` relative to the set K of contexts."""
    pairs = as_event_conjunction(cand)
    if not pairs:
        raise FormulaError("the candidate must be a nonempty conjunction of primitive events")
    if not is_propositional(effect):
        raise FormulaError("the explanandum must be a Boolean combination of primitive events")
    contexts = [m.validate_context(u) for u in K]
    if not contexts:
        raise ValueError("the epistemic state must contain at least one context")

    ex1a, certs = _ex1a_hp(m, contexts, pairs, effect)
    ex1b = _ex1b_hp(m, contexts, pairs, effect)
    ex3 = any(
        m.evaluate(u, cand) and m.evaluate(u, effect) for u in contexts
    )
    ex4 = any(
        not m.evaluate(u, cand) and m.evaluate(u, effect) for u in contexts
    )

    subsets = (list(s) for size in range(len(pairs)) for s in itertools.combinations(pairs, size))
    weaker = next((sub for sub in subsets
                   if _ex1a_hp(m, contexts, sub, effect)[0] and _ex1b_hp(m, contexts, sub, effect)), None)
    ex2 = weaker is None
    violator = None if ex2 else conjoin([PrimEvent(v, x) for v, x in weaker])

    is_expl = ex1a and ex1b and ex2 and ex3
    return ExplanationVerdict(
        is_explanation=is_expl,
        nontrivial=is_expl and ex4,
        ex1a=ex1a,
        ex1b=ex1b,
        ex2=ex2,
        ex3=ex3,
        ex4=ex4,
        certificates=certs,
        ex2_violator=violator,
    )


def _ex1b_hp(m, contexts, pairs, effect) -> bool:
    inter = dict(pairs)
    return all(m._eval(u, effect, inter) for u in contexts)


def _ex1a_hp(m, contexts, pairs, effect):
    """Wherever the candidate and the explanandum both hold, some conjunct
    of the candidate extends (by actual-value conjuncts) to a cause."""
    cand = conjoin([PrimEvent(v, x) for v, x in pairs])
    certs = {}
    ok = True
    for i, u in enumerate(contexts):
        if not (m.evaluate(u, cand) and m.evaluate(u, effect)):
            certs[i] = None
            continue
        cert = _causal_conjunct(m, u, pairs, effect)
        certs[i] = cert
        if cert is None:
            ok = False
    return ok, certs


def _causal_conjunct(m, u, pairs, effect):
    """Find a conjunct X=x of the candidate and actual-value events Y=y with
    X=x & Y=y an actual cause at (M,u); smaller Y first."""
    actual = m.solve(u)
    for var, val in pairs:
        rest = [y for y in m.sig.endo_names if y != var]
        for size in range(len(rest) + 1):
            for extra in itertools.combinations(rest, size):
                parts = [PrimEvent(var, val)] + [PrimEvent(y, actual[y]) for y in extra]
                if is_actual_cause_hp(m, u, conjoin(parts), effect, first_only=True).is_cause:
                    return {
                        "conjunct": f"{var}={val}",
                        "augmented_with": {y: actual[y] for y in extra},
                    }
    return None


# ---------------------------------------------------------------------------
# Explanation at the language-parameterized level


def is_explanation_abstract(
    settings: list,
    cand: Formula,
    effect: Formula,
    lang: WitnessLanguage,
    allow_vacuous: bool = False,
) -> ExplanationVerdict:
    """Explanation relative to an epistemic state given as a list of
    settings (CausalSetting or CfSetting over a shared signature).

    EX1(a) here asks, at each considered setting where candidate and
    explanandum hold, for language members tau1 (nonvalid, entailed by the
    candidate) and tau2 (entailing tau1, and itself a cause of the
    explanandum under the same language).
    """
    if not settings:
        raise ValueError("the epistemic state must contain at least one setting")
    if not is_propositional(cand) or not is_propositional(effect):
        raise FormulaError("candidate and explanandum must be Boolean combinations of events")
    sig = settings[0].sig
    try:
        pairs = as_event_conjunction(cand)
    except FormulaError:
        pairs = []

    # the core's members depend on the setting only, so each is listed once,
    # with its `event_literals` (None for a member with a pin that is no event)
    core = replace(lang, allow_negated=False, pair_on_cause=False, clause_budget=None)
    members = [[(t, event_literals(t, sig)) for t in enumerate_witnesses(core, st, ())]
               for st in settings]
    cause_cache: dict = {}

    def is_cause_at(setting, phi):
        # the pair component of the language, where present, ranges over the
        # variables of phi itself, not over those of the outer candidate
        key = (id(setting), phi)
        if key not in cause_cache:
            cause_cache[key] = is_actual_cause_abstract(setting, phi, effect, lang, allow_vacuous).is_cause
        return cause_cache[key]

    def ex1a_for(phi):
        certs = {}
        ok = True
        lits = event_literals(phi, sig)
        for i, st in enumerate(settings):
            if not (st.holds(phi) and st.holds(effect)):
                certs[i] = None
                continue
            cert = None
            # tau1 is entailed by phi and not valid (entailed by true)
            tau1s = [(t, a) for t, a in members[i] if prop_entails_given(phi, lits, t, a, sig)
                     and not prop_entails_given(TRUE, frozenset(), t, a, sig)]
            if tau1s:
                for tau2, b in members[i]:
                    matching = [t1 for t1, a in tau1s if prop_entails_given(tau2, b, t1, a, sig)]
                    if matching and is_cause_at(st, tau2):
                        cert = {"tau1": format_formula(matching[0]), "tau2": format_formula(tau2)}
                        break
            certs[i] = cert
            if cert is None:
                ok = False
        return ok, certs

    def ex1b_for(phi):
        return all(st.counterfactual(phi, effect, allow_vacuous) for st in settings)

    ex1a, certs = ex1a_for(cand)
    ex1b = ex1b_for(cand)
    ex3 = any(st.holds(cand) and st.holds(effect) for st in settings)
    ex4 = any(not st.holds(cand) and st.holds(effect) for st in settings)

    weakenings = _weakenings(cand, pairs, members, sig)
    violator = next((phi2 for phi2 in weakenings if ex1a_for(phi2)[0] and ex1b_for(phi2)), None)
    ex2 = violator is None

    is_expl = ex1a and ex1b and ex2 and ex3
    return ExplanationVerdict(
        is_explanation=is_expl,
        nontrivial=is_expl and ex4,
        ex1a=ex1a,
        ex1b=ex1b,
        ex2=ex2,
        ex3=ex3,
        ex4=ex4,
        certificates=certs,
        ex2_violator=violator,
    )


def _weakenings(cand, pairs, members, sig):
    """Candidate strictly weaker formulas for the minimality check:
    sub-conjunctions of the candidate plus any of `members` (the
    language's positive-conjunction core at each setting, with their
    `event_literals`) the candidate entails, deduplicated up to
    propositional equivalence: by their literals for event conjunctions,
    by truth table for any other formula.  Like the minimality clause of
    the cause check, this deliberately stays within event conjunctions:
    disjunctive or negated members are witness material, and admitting
    them as rival candidates would fail conjunctions that every
    sub-conjunction test accepts."""
    raw = [
        conjoin([PrimEvent(v, x) for v, x in subset])
        for size in range(len(pairs))
        for subset in itertools.combinations(pairs, size)
    ]
    raw = [(phi2, event_literals(phi2, sig)) for phi2 in raw] + [m for ms in members for m in ms]

    # The members of one language share its pins, so every event conjunction
    # comes before any other formula: only the latter need a truth table.
    c = event_literals(cand, sig)
    keys, seen = set(), []
    for phi2, a in raw:
        if not prop_entails_given(cand, c, phi2, a, sig) or prop_entails_given(phi2, a, cand, c, sig):
            continue
        if a in keys if a is not None else any(prop_equivalent(phi2, p, sig) for p in seen):
            continue
        keys.add(a)
        seen.append(phi2)
        yield phi2
