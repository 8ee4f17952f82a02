"""Explanation relative to an epistemic state (Halpern & Pearl, "Causes and
Explanations, Part II").

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

`_verdict` states EX1-EX4 once.  The witness-set check
(`is_explanation_hp`) and the language check (`is_explanation_abstract`)
validate their input and give it the truth of a formula, EX1(a)'s
certificate and EX1(b) at one setting, and EX2's weaker candidates.

One call decides each AC2 question once, for the candidate and every EX2
weakening alike: per setting and language member (abstract), per context
and set of cause events (witness sets).  A member or conjunction is a
cause where it passes AC2 and no strictly weaker one does (`_cause_rule`).
The language check lists the core members of each setting once, with
their literal sets, and then refers to a member by its index: the AC2
verdicts, the entailments between members, and the AC3' candidates (the
cause check's rule, `abstract._strictly_weaker`) are keyed by indices,
and only the reported tau1 and tau2 are formatted.
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

import functools
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
from .hp import _ac2_search, is_actual_cause_hp
from .model import CausalModel
from .abstract import (
    WitnessLanguage,
    _ac2_prime,
    _strictly_weaker,
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
# EX1-EX4 and the cause rule, stated once for both checks


def _verdict(n, holds, certificate, ex1b, cand, effect, weakenings) -> ExplanationVerdict:
    """EX1-EX4 of `cand` for `effect` over an epistemic state of n settings.

    `holds(i, phi)` is the truth of phi at setting i; `certificate(i, phi)`
    is EX1(a)'s certificate at a setting where phi and the explanandum
    hold, or None; `ex1b(i, phi)` says that making phi true forces the
    explanandum at setting i; `weakenings` yields EX2's candidates strictly
    weaker than `cand`, in the order tried."""
    effect_at = [holds(i, effect) for i in range(n)]

    def premise(phi):  # the settings where phi and the explanandum hold
        return [i for i in range(n) if effect_at[i] and holds(i, phi)]

    def ex1(phi):  # EX1(b) first: it is cheaper, and a weakening reports no certificates
        return (all(ex1b(i, phi) for i in range(n))
                and all(certificate(i, phi) is not None for i in premise(phi)))

    joint = premise(cand)
    certs = {i: certificate(i, cand) if i in joint else None for i in range(n)}
    ex1a = all(certs[i] is not None for i in joint)
    ex1b_holds = all(ex1b(i, cand) for i in range(n))
    violator = next((phi for phi in weakenings if ex1(phi)), None)
    is_expl = ex1a and ex1b_holds and violator is None and bool(joint)
    ex4 = any(effect_at[i] and i not in joint for i in range(n))
    return ExplanationVerdict(
        is_explanation=is_expl,
        nontrivial=is_expl and ex4,
        ex1a=ex1a,
        ex1b=ex1b_holds,
        ex2=violator is None,
        ex3=bool(joint),
        ex4=ex4,
        certificates=certs,
        ex2_violator=violator,
    )


def _cause_rule(ac2, weaker):
    """`is_cause(i, c)` for one explanation call: c, true at setting i where
    the explanandum holds (so AC1 holds), is a cause if it passes AC2
    (`ac2(i, c)`, which the caller memoises) and none of the strictly
    weaker candidates of AC3 (`weaker(i, c)`) does.  Those are asked first,
    in order: they are shared by many candidates, and one that passes
    settles the question.  Each verdict is decided once per call."""
    return functools.cache(lambda i, c: not any(ac2(i, w) for w in weaker(i, c)) and ac2(i, c))


def _sub_conjunctions(pairs):
    """The conjunctions of the proper subsets of `pairs`, smallest first."""
    return (conjoin([PrimEvent(v, x) for v, x in s])
            for size in range(len(pairs)) for s in itertools.combinations(pairs, size))


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
    return _verdict(
        len(contexts),
        lambda i, phi: m._eval(contexts[i], phi, {}),  # validated contexts, propositional phi
        lambda i, phi: causal_conjunct(i, as_event_conjunction(phi)),
        lambda i, phi: m._eval(contexts[i], effect, dict(as_event_conjunction(phi))),
        cand, effect, _sub_conjunctions(pairs),
    )


def _causal_conjuncts(m, contexts, effect):
    """EX1(a)'s search for one explanation call, as `find(i, pairs)`: the
    certificate of the first conjunct X=x of `pairs` that, with actual-value
    events Y=y (smaller sets of Y first, Y an ancestor of the effect's
    variables), is an actual cause at contexts[i], or None.  `pairs` must
    hold at contexts[i], and so must the effect.  Each (context, conjunct)
    is decided once per call; AC3 asks the nonempty proper subsets of the
    cause, smallest first, as `hp._ac3_violator` does."""
    actuals = [m.solve(u) for u in contexts]
    ancestors = m.ancestors(free_endogenous(effect))

    @functools.cache
    def ac2(i, events):  # a set: one question however the cause orders it
        if len(events) == 1:  # no AC3 to check, and AC1 holds: the cause check is AC2
            return is_actual_cause_hp(m, contexts[i], PrimEvent(*min(events)), effect, first_only=True).is_cause
        return bool(_ac2_search(m, contexts[i], sorted(events), effect, first_only=True))

    is_cause = _cause_rule(
        lambda i, cause: ac2(i, frozenset(cause)),
        lambda i, cause: (s for size in range(1, len(cause)) for s in itertools.combinations(cause, size)),
    )

    @functools.cache
    def certificate(i, conjunct):
        var, val = conjunct
        actual = actuals[i]
        rest = [y for y in m.sig.endo_names if y != var and y in ancestors]
        extras = (e for size in range(len(rest) + 1) for e in itertools.combinations(rest, size))
        extra = next((e for e in extras if is_cause(i, (conjunct, *((y, actual[y]) for y in e)))), None)
        return None if extra is None else {"conjunct": f"{var}={val}",
                                           "augmented_with": {y: actual[y] for y in extra}}

    return lambda i, pairs: next((c for c in (certificate(i, p) for p in pairs) if c is not None), None)


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
    settings (CausalSetting or CfSetting over a shared signature).  EX1(a)
    asks, at each considered setting where candidate and explanandum hold,
    for language members tau1 (nonvalid, entailed by the candidate) and
    tau2 (entailing tau1, and itself a cause of the explanandum under the
    same language)."""
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

    # The core's members depend on the setting only, so each is listed once
    # per setting, with its `event_literals` (None for a member with a pin
    # that is no event); below, a member is its index in that list.
    core = conj_language(lang.pins)
    members = [[(t, event_literals(t, sig)) for t in enumerate_witnesses(core, st, ())]
               for st in settings]
    entails = functools.cache(lambda i, k, j: prop_entails_given(*members[i][k], *members[i][j], sig))
    is_cause = _member_causes(settings, members, entails, effect, lang, allow_vacuous)
    literals = functools.cache(lambda phi: event_literals(phi, sig))
    # tau1 is not valid (not entailed by true)
    nonvalid = [[j for j, (t, a) in enumerate(ms) if not prop_entails_given(TRUE, frozenset(), t, a, sig)]
                for ms in members]

    def certificate(i, phi):
        lits = literals(phi)
        tau1s = [j for j in nonvalid[i] if prop_entails_given(phi, lits, *members[i][j], sig)]
        for k in range(len(members[i])):
            tau1 = next((j for j in tau1s if entails(i, k, j)), None)
            if tau1 is not None and is_cause(i, k):
                return {"tau1": format_formula(members[i][tau1][0]), "tau2": format_formula(members[i][k][0])}
        return None

    return _verdict(
        len(settings),
        lambda i, phi: settings[i].holds(phi),
        certificate,
        lambda i, phi: settings[i].counterfactual(phi, effect, allow_vacuous),
        cand, effect, _weakenings(cand, pairs, members, sig),
    )


def _member_causes(settings, members, entails, effect, lang, allow_vacuous):
    """`is_cause(i, k)`: whether members[i][k], a core member true at
    settings[i] where the effect holds, is a cause of the effect there
    under `lang`, by AC2' and the cause check's AC3' rule
    (`_strictly_weaker`) over the other members but the first, the pins
    alone; `entails(i, k, j)` says that member k entails member j.  Each
    member is the cause of its own AC2', so a pair component of the
    language ranges over its variables, not over those of the candidate."""
    ac2 = functools.cache(
        lambda i, k: _ac2_prime(settings[i], members[i][k][0], effect, lang, allow_vacuous) is not None)

    def weaker(i, k):
        at_i = functools.partial(entails, i)
        return (j for j in range(1, len(members[i])) if _strictly_weaker(at_i, k, j))

    return _cause_rule(ac2, weaker)


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
    raw = [(phi2, event_literals(phi2, sig)) for phi2 in _sub_conjunctions(pairs)]
    raw += [m for ms in members for m in ms]

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
