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

One call decides each AC2 question once, for the candidate and every EX2
weakening alike: per setting and language member (abstract), per context
and set of cause events (witness sets).  A member or conjunction is a
cause where it passes AC2 and no strictly weaker one does; AC1 holds by
construction, as each is true at a setting where the explanandum holds.
The certificates are those of the full cause check run per candidate: it
decides the same questions, and the order in which causes are tried is
unchanged.  In causal models the actual-value events Y=y that extend a
conjunct range only over ancestors of the explanandum's variables (the
variables themselves included).  For any other Y, AC2 of X=x & Y=y & Z
implies AC2 of X=x & Z, as no intervention on Y changes the explanandum;
so X=x & Y=y & Z fails AC3, and dropping those Y leaves the first cause
found, in the same (size, lexicographic) order, as it was.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .formula import (
    TRUE,
    Formula,
    FormulaError,
    PrimEvent,
    as_event_conjunction,
    conjoin,
    event_literals,
    format_formula,
    free_endogenous,
    is_propositional,
    prop_entails_given,
    prop_equivalent,
)
from .hp import _ac2_search, _ac3_violator, is_actual_cause_hp
from .model import CausalModel
from .abstract import (
    WitnessLanguage,
    _ac2_prime,
    _weaker_core_members,
    check_pins,
    conj_language,
    enumerate_witnesses,
)


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

    causal_conjunct = _causal_conjuncts(m, contexts, effect)
    ex1a, certs = _ex1a_hp(m, contexts, pairs, effect, causal_conjunct)
    ex1b = _ex1b_hp(m, contexts, pairs, effect)
    ex3 = any(
        m.evaluate(u, cand) and m.evaluate(u, effect) for u in contexts
    )
    ex4 = any(
        not m.evaluate(u, cand) and m.evaluate(u, effect) for u in contexts
    )

    subsets = (list(s) for size in range(len(pairs)) for s in itertools.combinations(pairs, size))
    weaker = next((sub for sub in subsets if _ex1a_hp(m, contexts, sub, effect, causal_conjunct)[0]
                   and _ex1b_hp(m, contexts, sub, effect)), None)
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


def _ex1a_hp(m, contexts, pairs, effect, causal_conjunct):
    """Wherever the candidate and the explanandum both hold, some conjunct
    of the candidate extends (by actual-value conjuncts) to a cause."""
    cand = conjoin([PrimEvent(v, x) for v, x in pairs])
    certs = {}
    ok = True
    for i, u in enumerate(contexts):
        if not (m.evaluate(u, cand) and m.evaluate(u, effect)):
            certs[i] = None
            continue
        cert = causal_conjunct(i, pairs)
        certs[i] = cert
        if cert is None:
            ok = False
    return ok, certs


def _causal_conjuncts(m, contexts, effect):
    """EX1(a)'s search for one explanation call, as `find(i, pairs)`: the
    certificate of the first conjunct X=x of `pairs` that, with actual-value
    events Y=y (smaller sets of Y first), is an actual cause at contexts[i],
    or None.  `pairs` must hold at contexts[i], and so must the effect.

    Each (context, conjunct) is decided once, for the candidate and all its
    sub-conjunctions, and each AC2 question once, keyed by the set of cause
    events: a cause passes AC2 and has no nonempty proper subset that does
    (`hp._ac3_violator`, the cause check's own AC3 search).  The subsets are
    asked first, smallest first: they are shared by many causes tried, and
    one that passes settles the question.  A single event is asked of the
    cause check itself, which for one event true at the context is AC2.  Y
    ranges over the ancestors of the effect's variables only (see the
    module docstring)."""
    actuals = [m.solve(u) for u in contexts]
    ancestors = m.ancestors(free_endogenous(effect))
    ac2: dict = {}  # (context index, frozenset of cause events) -> AC2 holds
    certs: dict = {}  # (context index, conjunct) -> certificate or None

    def passes(i, cause):
        key = (i, frozenset(cause))
        if key not in ac2:
            if len(cause) == 1:  # no AC3 to check, and AC1 holds: the cause check is AC2
                verdict = is_actual_cause_hp(m, contexts[i], PrimEvent(*cause[0]), effect, first_only=True)
                ac2[key] = verdict.is_cause
            else:
                ac2[key] = bool(_ac2_search(m, contexts[i], cause, effect, first_only=True))
        return ac2[key]

    def is_cause(i, cause):
        return _ac3_violator(cause, lambda s: passes(i, s)) is None and passes(i, cause)

    def certificate(i, conjunct):
        if (i, conjunct) not in certs:
            var, val = conjunct
            actual = actuals[i]
            rest = [y for y in m.sig.endo_names if y != var and y in ancestors]
            extras = (e for size in range(len(rest) + 1) for e in itertools.combinations(rest, size))
            extra = next((e for e in extras if is_cause(i, [conjunct] + [(y, actual[y]) for y in e])), None)
            certs[i, conjunct] = None if extra is None else {
                "conjunct": f"{var}={val}",
                "augmented_with": {y: actual[y] for y in extra},
            }
        return certs[i, conjunct]

    def find(i, pairs):
        return next((c for c in (certificate(i, conjunct) for conjunct in pairs) if c is not None), None)

    return find


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
    check_pins(lang)
    sig = settings[0].sig
    try:
        pairs = as_event_conjunction(cand)
    except FormulaError:
        pairs = []

    # the core's members depend on the setting only, so each is listed once,
    # with its `event_literals` (None for a member with a pin that is no event)
    core = conj_language(lang.pins)
    members = [[(t, event_literals(t, sig)) for t in enumerate_witnesses(core, st, ())]
               for st in settings]
    is_cause = _member_causes(settings, effect, lang, allow_vacuous)

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
                    if matching and is_cause(i, tau2):
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


def _member_causes(settings, effect, lang, allow_vacuous):
    """`is_cause(i, tau)`: whether tau, a core member true at settings[i]
    where the effect holds, is a cause of the effect there under `lang`.
    AC1 holds, so it is one if tau passes AC2' and none of the cause
    check's AC3' candidates (`_weaker_core_members`) does.  Each AC2' is
    decided once per call, the weaker members' first, as for the
    conjunctions of `_causal_conjuncts`."""
    ac2: dict = {}  # (setting index, member) -> AC2' holds
    causes: dict = {}

    def passes(i, phi):
        # phi is the cause here, so a pair component of the language ranges
        # over its variables, not over those of the outer candidate
        if (i, phi) not in ac2:
            ac2[i, phi] = _ac2_prime(settings[i], phi, effect, lang, allow_vacuous) is not None
        return ac2[i, phi]

    def is_cause(i, tau):
        if (i, tau) not in causes:
            weaker = _weaker_core_members(settings[i], tau, lang)
            causes[i, tau] = not any(passes(i, phi) for phi in weaker) and passes(i, tau)
        return causes[i, tau]

    return is_cause


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
