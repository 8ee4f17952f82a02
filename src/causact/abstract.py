"""Actual causation parameterized by a witness language.

The cause check here takes a *setting* (either a causal model with a
context, or a counterfactual structure with a state) and a witness
language, and checks:

  AC1': cause and effect hold at the setting;
  AC2': some language member tau holds at the setting and
        (not cause  and  tau) box-arrow (not effect) holds;
  AC3': no strictly weaker language member passes AC2' in place of
        the cause.

Language members are generated per-variable and filtered to those true
at the setting, which is complete: AC2' requires tau to hold there, and
any AC3' candidate is entailed by the (true) cause.

By default a box-arrow whose antecedent has no closest states counts as
false here, even in structures where the Lewis semantics would call it
vacuously true; `allow_vacuous=True` restores the literal reading.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from .formula import (
    And,
    BoxArrow,
    Formula,
    FormulaError,
    Not,
    Or,
    PrimEvent,
    TRUE,
    as_event_conjunction,
    conjoin,
    disjoin,
    conjuncts,
    evaluate_prop,
    format_formula,
    free_endogenous,
    is_propositional,
    prop_entails,
)
from .model import CausalModel
from .structure import CfStructure


# ---------------------------------------------------------------------------
# Settings


class CausalSetting:
    """A causal model together with a context."""

    def __init__(self, m: CausalModel, u: dict):
        self.model = m
        self.context = m.validate_context(u)
        self.sig = m.sig
        self.assignment = m.solve(self.context)

    def holds(self, phi: Formula) -> bool:
        return self.model.evaluate(self.context, phi)

    def counterfactual(self, antecedent, consequent, allow_vacuous=False) -> bool:
        # The interventionist box-arrow is existential over settings of the
        # antecedent's endogenous variables, so an unsatisfiable antecedent
        # is false regardless of the vacuity policy.
        return self.model.evaluate(self.context, BoxArrow(antecedent, consequent))

    def describe(self) -> str:
        ctx = ", ".join(f"{n}={self.context[n]}" for n in self.sig.exo_names)
        return f"({self.model.name}, {ctx})"


class CfSetting:
    """A counterfactual structure together with a state."""

    def __init__(self, m2: CfStructure, s: str):
        m2.index_of(s)  # raises StructureError for an unknown state
        self.structure = m2
        self.state = s
        self.sig = m2.sig
        self.assignment = m2.interp[s]

    def holds(self, phi: Formula) -> bool:
        return self.structure.satisfies_at(self.state, phi)

    def counterfactual(self, antecedent, consequent, allow_vacuous=False) -> bool:
        closest = self.structure.closest_states(self.state, antecedent)
        if not closest:
            return allow_vacuous
        return all(self.structure.satisfies_at(t, consequent) for t in closest)

    def describe(self) -> str:
        return f"({self.structure.name}, {self.state})"


# ---------------------------------------------------------------------------
# Witness languages


@dataclass(frozen=True)
class WitnessLanguage:
    """Which formulas may serve as the conditioning formula tau.

    The base language is conjunctions of endogenous primitive events
    (including the empty conjunction, true).  Options:

      allow_negated   also negated events, as conjunctions X!=v1 & X!=v2
                      over proper subsets of the non-actual values (ruling
                      out every non-actual value is the positive event
                      again and is not repeated);
      pair_on_cause   additionally one disjunct of the form
                      (X=x | X=x') over the cause variables;
      clause_budget   instead of conjunctions, single disjunctions of at
                      most clause_budget+1 literals (events or negated
                      events);
      pins            formulas conjoined to every member, e.g. exogenous
                      events that freeze the context.
    """

    allow_negated: bool = False
    pair_on_cause: bool = False
    clause_budget: int | None = None
    pins: tuple[Formula, ...] = ()

    def describe(self) -> str:
        if self.clause_budget is not None:
            base = f"gen:{self.clause_budget}"
        elif self.pair_on_cause:
            base = "pair"
        elif self.allow_negated:
            base = "conj-neg"
        else:
            base = "conj"
        if self.pins:
            base += " + pins " + ", ".join(format_formula(p) for p in self.pins)
        return base


def conj_language(pins=()) -> WitnessLanguage:
    return WitnessLanguage(pins=tuple(pins))


def conj_neg_language(pins=()) -> WitnessLanguage:
    return WitnessLanguage(allow_negated=True, pins=tuple(pins))


def pair_language(pins=()) -> WitnessLanguage:
    return WitnessLanguage(pair_on_cause=True, pins=tuple(pins))


def gen_language(budget: int, pins=()) -> WitnessLanguage:
    if budget < 0:
        raise FormulaError("clause budget must be nonnegative")
    return WitnessLanguage(clause_budget=budget, pins=tuple(pins))


def parse_language(spec: str, pins=()) -> WitnessLanguage:
    if spec == "conj":
        return conj_language(pins)
    if spec == "conj-neg":
        return conj_neg_language(pins)
    if spec == "pair":
        return pair_language(pins)
    if spec.startswith("gen:"):
        try:
            budget = int(spec[4:])
        except ValueError:
            raise FormulaError(f"clause budget must be an integer, got {spec[4:]!r}") from None
        return gen_language(budget, pins)
    raise FormulaError(f"unknown witness language {spec!r} (conj, conj-neg, pair, gen:K)")


def enumerate_witnesses(lang: WitnessLanguage, setting, cause_pairs):
    """Yield the language members true at the setting, smaller formulas
    first.  `cause_pairs` is the cause as (var, value) pairs; it only
    matters for the pair extension."""
    actual = setting.assignment
    for pin in lang.pins:
        if not setting.holds(pin):
            return  # a false pin makes every pinned member false at s

    def pinned(phi):
        return conjoin(list(lang.pins) + ([phi] if phi is not TRUE else []))

    if lang.clause_budget is not None:
        yield pinned(TRUE)
        for clause in _clauses(setting.sig, lang.clause_budget):
            if evaluate_prop(clause, actual):
                yield pinned(clause)
        return

    sig = setting.sig
    per_var = []
    for x in sig.endo_names:
        options: list[tuple[int, Formula | None]] = [(0, None), (1, PrimEvent(x, actual[x]))]
        if lang.allow_negated:
            excluded = [v for v in sig.range_of(x) if v != actual[x]]
            for size in range(1, len(excluded)):
                for subset in itertools.combinations(excluded, size):
                    options.append(
                        (size, conjoin([Not(PrimEvent(x, v)) for v in subset]))
                    )
        per_var.append(options)

    combos = []
    for combo in itertools.product(*per_var):
        weight = sum(w for w, _ in combo)
        combos.append((weight, [f for _, f in combo if f is not None]))
    combos.sort(key=lambda wc: wc[0])

    xvars = [v for v, _ in cause_pairs]
    xvals = tuple(v for _, v in cause_pairs)
    for _, parts in combos:
        yield pinned(conjoin(parts))
        if lang.pair_on_cause:
            covered = {
                f.var: f.val for f in parts if isinstance(f, PrimEvent) and f.var in xvars
            }
            if all(covered.get(v) == x for v, x in cause_pairs):
                continue  # the conjunction already forces the cause values
            pos = conjoin([PrimEvent(v, x) for v, x in cause_pairs])
            for alt in itertools.product(*(sig.range_of(v) for v in xvars)):
                if alt == xvals:
                    continue
                pair = Or(pos, conjoin([PrimEvent(v, a) for v, a in zip(xvars, alt)]))
                yield pinned(conjoin(parts + [pair]))


def _clauses(sig, budget):
    literals = []
    for x in sig.endo_names:
        for v in sig.range_of(x):
            literals.append(PrimEvent(x, v))
            # For two-valued ranges X!=v is just the other event.
            if len(sig.range_of(x)) > 2:
                literals.append(Not(PrimEvent(x, v)))
    for size in range(1, budget + 2):
        for subset in itertools.combinations(literals, size):
            yield disjoin(list(subset))


# ---------------------------------------------------------------------------
# The cause check


@dataclass
class AbstractVerdict:
    is_cause: bool
    ac1: bool
    ac2: bool
    ac3: bool
    tau: Formula | None = None
    ac3_violator: Formula | None = None
    ac3_violator_tau: Formula | None = None

    def to_dict(self):
        fmt = lambda f: None if f is None else format_formula(f)
        return {
            "isCause": self.is_cause,
            "ac1": self.ac1,
            "ac2": self.ac2,
            "ac3": self.ac3,
            "tau": fmt(self.tau),
            "ac3Violator": fmt(self.ac3_violator),
            "ac3ViolatorTau": fmt(self.ac3_violator_tau),
        }


def is_actual_cause_abstract(
    setting,
    cause: Formula,
    effect: Formula,
    lang: WitnessLanguage,
    allow_vacuous: bool = False,
    lang_cause_pairs=None,
) -> AbstractVerdict:
    """Check the language-parameterized cause conditions at a setting.

    The cause may be any propositional formula.  When the language has a
    pair extension, the variable/value pairs it is built on default to the
    cause's own conjuncts; `lang_cause_pairs` overrides that (used when
    checking causehood of a formula drawn from a language that was itself
    parameterized by some other candidate cause)."""
    if not is_propositional(cause):
        raise FormulaError("the cause must be a Boolean combination of primitive events")
    if not is_propositional(effect):
        raise FormulaError("the effect must be a Boolean combination of primitive events")
    if lang_cause_pairs is not None:
        pairs = list(lang_cause_pairs)
    else:
        try:
            pairs = as_event_conjunction(cause)
        except FormulaError:
            pairs = []

    ac1 = setting.holds(cause) and setting.holds(effect)
    tau = _ac2_prime(setting, cause, effect, lang, pairs, allow_vacuous)
    ac2 = tau is not None

    # Minimality candidates come from the positive-conjunction core of the
    # language.  Negated or disjunctive members only widen the witness side;
    # letting them in here would let e.g. X!=0 undercut the cause X=2 and
    # break agreement with plain sub-conjunction minimality.
    cand_lang = replace(lang, allow_negated=False, pair_on_cause=False, clause_budget=None)

    ac3 = True
    violator = violator_tau = None
    sig = setting.sig
    seen = set()
    for phi2 in enumerate_witnesses(cand_lang, setting, pairs):
        if phi2 in seen:
            continue
        seen.add(phi2)
        if not prop_entails(cause, phi2, sig):
            continue
        if prop_entails(phi2, cause, sig):
            continue
        # the pair extension for the weaker candidate ranges over its own
        # variables; keeping the original cause's pair would let the witness
        # move variables that plain minimality holds fixed
        try:
            pairs2 = as_event_conjunction(phi2)
        except FormulaError:
            pairs2 = []
        t2 = _ac2_prime(setting, phi2, effect, lang, pairs2, allow_vacuous)
        if t2 is not None:
            ac3, violator, violator_tau = False, phi2, t2
            break

    return AbstractVerdict(
        is_cause=ac1 and ac2 and ac3,
        ac1=ac1,
        ac2=ac2,
        ac3=ac3,
        tau=tau,
        ac3_violator=violator,
        ac3_violator_tau=violator_tau,
    )


def _ac2_prime(setting, phi, effect, lang, cause_pairs, allow_vacuous):
    not_phi = Not(phi)
    not_effect = Not(effect)
    pin = isinstance(setting, CausalSetting)
    cause_vars = free_endogenous(phi) if pin else None
    # Pinning maps many members to the same tau; a repeat has already failed.
    tested = set()
    for tau in enumerate_witnesses(lang, setting, cause_pairs):
        if pin:
            tau = _pin_negated_conjuncts(tau, setting.assignment, cause_vars)
        if tau in tested:
            continue
        tested.add(tau)
        if setting.counterfactual(And(not_phi, tau), not_effect, allow_vacuous):
            return tau
    return None


def _pin_negated_conjuncts(tau, actual, cause_vars):
    """Under the intervention reading of the box-arrow, a negated event is
    satisfied by the variable's current value, so a negated conjunct of the
    witness holds that value fixed rather than opening the variable to an
    arbitrary different one.  Variables of the cause stay constrained by the
    negation only: their value is what the antecedent varies."""
    parts = conjuncts(tau)
    out, seen = [], set()
    changed = False
    for part in parts:
        if (
            isinstance(part, Not)
            and isinstance(part.sub, PrimEvent)
            and part.sub.var not in cause_vars
        ):
            part = PrimEvent(part.sub.var, actual[part.sub.var])
            changed = True
        if part in seen:
            continue
        seen.add(part)
        out.append(part)
    return conjoin(out) if changed else tau


def extract_abstract_witness(sig, cause: Formula, hp_witness) -> Formula:
    """The conditioning formula matching an AC2 witness (W, w*, x'):
    W = w*  and  (X = x or X = x')."""
    pairs = as_event_conjunction(cause)
    xvars = [v for v, _ in pairs]
    w_part = [PrimEvent(v, s) for v, s in zip(hp_witness.w, hp_witness.wstar)]
    pos = conjoin([PrimEvent(v, x) for v, x in pairs])
    alt = conjoin([PrimEvent(v, a) for v, a in zip(xvars, hp_witness.xprime)])
    return conjoin(w_part + [Or(pos, alt)])
