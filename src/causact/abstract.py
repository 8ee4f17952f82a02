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
any AC3' candidate is entailed by the (true) cause.  AC3' candidates are
generated from the literals the cause entails: only the variables whose
actual-value event the cause entails get a conjunct.

AC2' builds no formula per member for `conj`, `conj-neg` and `pair`; only
the tau reported becomes a formula.  At a causal setting a member is one
list of allowed values per variable, handed to the model's box-arrow
search beside the residual antecedent (not cause, and the pins).  The
box-arrow there is an intervention, existential over the values of its
antecedent's variables, so neither a negated conjunct nor a pair disjunct
can decide AC2' (an earlier member tries the same vectors or more), and
`conj-neg` and `pair` decide as `conj`.  At a structure state a member is
the mask over the states of its antecedent: the AND of the masks of not
cause, the pins and its conjuncts.  Blocks of such rows are decided by one
closest-state query each.  Only `gen:K` tests one formula per member.

By default a box-arrow whose antecedent has no closest states counts as
false here, even in structures where the Lewis semantics would call it
vacuously true; `allow_vacuous=True` restores the literal reading.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

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
    event_literals,
    format_formula,
    free_endogenous,
    is_propositional,
    prop_entails_given,
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
        m2 = self.structure
        closest = m2.closest_rows(self.state, m2.extension(antecedent)[None])[0]
        if not closest.any():
            return allow_vacuous
        return not (closest & ~m2.extension(consequent)).any()


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
    if not _pins_hold(lang, setting):
        return  # a false pin makes every pinned member false at s
    actual = setting.assignment

    if lang.clause_budget is not None:
        yield _pinned(lang, TRUE)
        for clause in _clauses(setting.sig, lang.clause_budget):
            if evaluate_prop(clause, actual):
                yield _pinned(lang, clause)
        return

    sig = setting.sig
    xvars = [v for v, _ in cause_pairs]
    per_var = _conj_options(sig, actual, lang.allow_negated)
    formulas = [[_option_formula(x, opt) for _, opt in options]
                for x, options in zip(sig.endo_names, per_var)]
    for member in _by_weight(per_var):
        parts = [f for fs, j in zip(formulas, member) if (f := fs[j]) is not None]
        yield _pinned(lang, conjoin(parts))
        if lang.pair_on_cause:
            covered = {
                f.var: f.val for f in parts if isinstance(f, PrimEvent) and f.var in xvars
            }
            if all(covered.get(v) == x for v, x in cause_pairs):
                continue  # the conjunction already forces the cause values
            for alt in _pair_alternatives(sig, cause_pairs):
                yield _pinned(lang, conjoin(parts + [_pair_disjunct(cause_pairs, alt)]))


def _conj_options(sig, actual, allow_negated):
    """Each endogenous variable's options for one conjunct of a member true
    at `actual`, as (weight, option): None for no conjunct (weight 0),
    (False, (a,)) for X=a (weight 1), and, with `allow_negated`,
    (True, subset) for X!=v over each v of a proper subset of the
    non-actual values (weight: the subset's size; ruling out every
    non-actual value is X=a again)."""
    per_var = []
    for x in sig.endo_names:
        options = [(0, None), (1, (False, (actual[x],)))]
        if allow_negated:
            excluded = [v for v in sig.range_of(x) if v != actual[x]]
            for size in range(1, len(excluded)):
                for subset in itertools.combinations(excluded, size):
                    options.append((size, (True, subset)))
        per_var.append(options)
    return per_var


def _by_weight(per_var):
    """Every member, as one option index per variable, in the order the
    members are tried: the product order, stably sorted by total weight."""
    weights = map(sum, itertools.product(*([w for w, _ in options] for options in per_var)))
    members = itertools.product(*(range(len(options)) for options in per_var))
    return [member for _, member in sorted(zip(weights, members), key=itemgetter(0))]


def _option_formula(x, opt):
    if opt is None:
        return None
    negated, values = opt
    if negated:
        return conjoin([Not(PrimEvent(x, v)) for v in values])
    return PrimEvent(x, values[0])


def _member_formulas(names, per_var, member):
    """The conjuncts of a member, one per variable it constrains."""
    parts = [_option_formula(x, options[j][1]) for x, options, j in zip(names, per_var, member)]
    return [p for p in parts if p is not None]


def _pair_alternatives(sig, cause_pairs):
    """The value vectors x' over the cause's variables other than its own."""
    xvals = tuple(x for _, x in cause_pairs)
    return [alt for alt in itertools.product(*(sig.range_of(v) for v, _ in cause_pairs)) if alt != xvals]


def _pair_disjunct(cause_pairs, alt):
    """(X=x | X=x') for the cause X=x and one alternative x'."""
    pos = conjoin([PrimEvent(v, x) for v, x in cause_pairs])
    return Or(pos, conjoin([PrimEvent(v, a) for (v, _), a in zip(cause_pairs, alt)]))


def _pins_hold(lang, setting) -> bool:
    return all(setting.holds(pin) for pin in lang.pins)


def _pinned(lang, phi):
    return conjoin(list(lang.pins) + ([phi] if phi is not TRUE else []))


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
) -> AbstractVerdict:
    """Check the language-parameterized cause conditions at a setting.

    The cause may be any propositional formula.  A pair extension ranges
    over the variables of the formula under test: the cause for AC2', each
    weaker candidate for AC3'."""
    if not is_propositional(cause):
        raise FormulaError("the cause must be a Boolean combination of primitive events")
    if not is_propositional(effect):
        raise FormulaError("the effect must be a Boolean combination of primitive events")

    ac1 = setting.holds(cause) and setting.holds(effect)
    tau = _ac2_prime(setting, cause, effect, lang, allow_vacuous)
    ac2 = tau is not None

    # Minimality candidates come from the positive-conjunction core of the
    # language.  Negated or disjunctive members only widen the witness side;
    # letting them in here would let e.g. X!=0 undercut the cause X=2 and
    # break agreement with plain sub-conjunction minimality.
    violator = violator_tau = None
    for phi2 in _weaker_core_members(setting, cause, lang):
        violator_tau = _ac2_prime(setting, phi2, effect, lang, allow_vacuous)
        if violator_tau is not None:
            violator = phi2
            break
    ac3 = violator is None

    return AbstractVerdict(
        is_cause=ac1 and ac2 and ac3,
        ac1=ac1,
        ac2=ac2,
        ac3=ac3,
        tau=tau,
        ac3_violator=violator,
        ac3_violator_tau=violator_tau,
    )


def _weaker_core_members(setting, cause, lang):
    """The members of the language's positive-conjunction core (the pins
    and actual-value events) strictly weaker than the cause, in the order
    of `enumerate_witnesses`.  The cause entails a member exactly when it
    entails the pins and each event, so only the variables whose actual
    event it entails get options beyond no conjunct."""
    sig, actual = setting.sig, setting.assignment
    lits = event_literals(cause, sig)
    entails = lambda psi: prop_entails_given(cause, lits, psi, event_literals(psi, sig), sig)
    if not _pins_hold(lang, setting) or not entails(conjoin(lang.pins)):
        return
    per_var = [options if entails(PrimEvent(x, actual[x])) else options[:1]
               for x, options in zip(sig.endo_names, _conj_options(sig, actual, False))]
    for member in _by_weight(per_var):
        phi2 = _pinned(lang, conjoin(_member_formulas(sig.endo_names, per_var, member)))
        if not prop_entails_given(phi2, event_literals(phi2, sig), cause, lits, sig):
            yield phi2


def _ac2_prime(setting, phi, effect, lang, allow_vacuous):
    if lang.clause_budget is None:
        if isinstance(setting, CfSetting):
            return _ac2_at_state(setting, phi, effect, lang, allow_vacuous)
        return _ac2_at_context(setting, phi, effect, lang)
    not_phi = Not(phi)
    not_effect = Not(effect)
    pin = isinstance(setting, CausalSetting)
    cause_vars = free_endogenous(phi) if pin else None
    # Pinning maps many members to the same tau; a repeat has already failed.
    tested = set()
    for tau in enumerate_witnesses(lang, setting, ()):
        if pin:
            tau = _pin_negated_conjuncts(tau, setting.assignment, cause_vars)
        if tau in tested:
            continue
        tested.add(tau)
        if setting.counterfactual(And(not_phi, tau), not_effect, allow_vacuous):
            return tau
    return None


def _ac2_at_context(setting, phi, effect, lang):
    """AC2' for `conj`, `conj-neg` or `pair` at a causal setting, deciding
    each member as value lists without building its formula.

    The box-arrow (!phi & tau) ~> !effect intervenes on the variables of
    its antecedent and holds if some vector of values for them satisfies
    the antecedent and leads to !effect.  A conjunct of tau only restricts
    the values tried for its variable, so a member is one candidate value
    list per variable it constrains; the residual !phi & pins is checked for
    consistency per vector, and its variables range over the values its
    top-level literals allow.  Every member is a plain conjunction P of
    actual-value events, and `conj-neg` and `pair` decide as `conj`:

      - on a variable outside the cause, a negated conjunct pins the
        variable to its actual value (see `_pin_negated_conjuncts`): the
        same tau as the member with X=a in its place, which comes earlier;
      - on a cause variable X, which the residual already varies, the
        member P & X!=v tries a subset of the vectors P tries;
      - the pair member P & (X=x | X=x') exists only for a cause X=x, whose
        variables the residual already varies, so it too tries a subset of
        the vectors P tries.

    P comes earlier in each case, so none of these members can decide AC2',
    and each pinned tau is tried once."""
    if not _pins_hold(lang, setting):
        return None
    model, sig, actual = setting.model, setting.sig, setting.assignment
    cause_vars = free_endogenous(phi)
    pins = _pin_negated_conjuncts(conjoin(lang.pins), actual, cause_vars)
    residual = Not(phi) if pins is TRUE else And(Not(phi), pins)
    not_effect = Not(effect)
    model.check_causal_fragment(BoxArrow(residual, not_effect))
    free = free_endogenous(residual)
    names = sig.endo_names
    per_var = _conj_options(sig, actual, False)
    # each option's candidate values: no conjunct leaves the variable out
    # of the intervention, unless the residual mentions it, and X=a tries a
    candidates = [
        [allowed if x in free else None, [v for v in allowed if v == actual[x]]]
        for x, allowed in zip(names, model.literal_candidates(residual, names))
    ]
    for member in _by_weight(per_var):
        ys, values = [], []
        for x, cands, j in zip(names, candidates, member):
            if cands[j] is not None:
                ys.append(x)
                values.append(cands[j])
        if model.boxarrow_search(setting.context, ys, values, residual, not_effect):
            tau = _pinned(lang, conjoin(_member_formulas(names, per_var, member)))
            return _pin_negated_conjuncts(tau, actual, cause_vars)
    return None


_BLOCK_ROWS = 64  # antecedent rows decided per closest-state query


def _ac2_at_state(setting, phi, effect, lang, allow_vacuous):
    """AC2' for a conjunctive or pair language at a structure state,
    deciding each member from its mask without building its formula.

    The antecedent !phi & tau of a member holds where !phi, every pin and
    each of the member's conjuncts hold, so its mask is the AND of their
    masks: X=a compares one value column, and X!=v over a subset S is the
    complement of membership in S.  For `pair`, when phi is a conjunction
    X=x of events, a member that does not already fix the cause values is
    followed by one row per alternative x', ANDed with the mask of
    (X=x | X=x').  The pairs come from phi itself, so an AC3' candidate
    moves only its own variables, as plain minimality does.  The rows keep
    the order of `enumerate_witnesses`.  The first, the member true, is
    decided alone, before the option masks are built; the rest are decided
    in blocks of `_BLOCK_ROWS`, each by one closest-state query.  The first
    row whose closest states all satisfy !effect wins (no closest state
    counts as `allow_vacuous`).  Only the winning tau becomes a formula,
    built as `enumerate_witnesses` builds it.  Pins are labelled at every
    state, so an intervention in a pin raises FormulaError as it does in a
    formula's mask."""
    if not _pins_hold(lang, setting):
        return None
    m2, sig, actual = setting.structure, setting.sig, setting.assignment
    base = m2.extension(Not(phi))
    for pin in lang.pins:
        base = base & m2.extension(pin)
    fails = ~m2.extension(Not(effect))

    def first_pass(rows):
        """The index of the first row whose antecedent passes, or None."""
        closest = m2.closest_rows(setting.state, rows)
        passes = ~(closest & fails).any(axis=1)
        if not allow_vacuous:
            passes &= closest.any(axis=1)
        hits = np.flatnonzero(passes)
        return hits[0] if hits.size else None

    if first_pass(base[None]) is not None:
        return _pinned(lang, TRUE)

    names, columns = sig.endo_names, m2._columns
    per_var = _conj_options(sig, actual, lang.allow_negated)
    # every variable's option masks in turn; no conjunct holds everywhere
    everywhere = np.ones(len(m2.states), dtype=bool)
    option_masks, offsets = [], []
    for x, options in zip(names, per_var):
        offsets.append(len(option_masks))
        option_masks += [everywhere, columns[x] == actual[x]]
        option_masks += [~np.isin(columns[x], values) for _, (_, values) in options[2:]]
    option_masks = np.array(option_masks)
    members = _by_weight(per_var)
    chosen = np.array(members, dtype=np.intp).reshape(len(members), len(names)) + offsets

    # the rows in try order, as (member, disjunct): each member's own row
    # (disjunct 0, none), then, for pair, one row per alternative x' unless
    # the member fixes the cause values, that is has X=x for each of them
    cause_pairs = []
    if lang.pair_on_cause:
        try:
            cause_pairs = as_event_conjunction(phi)
        except FormulaError:
            pass  # a cause that is not an event conjunction has no pair members
    alts = _pair_alternatives(sig, cause_pairs)
    disjuncts = everywhere[None]
    if alts:
        xcols = np.array([columns[v] for v, _ in cause_pairs])
        vectors = np.array([tuple(x for _, x in cause_pairs)] + alts)
        disjuncts = (xcols == vectors[:, :, None]).all(axis=1)  # X=x, then each X=x'
        disjuncts[1:] |= disjuncts[0]
        disjuncts[0] = True
        position = {x: i for i, x in enumerate(names)}
        fixing = [position.get(v) if actual[v] == x else None for v, x in cause_pairs]
    row_member, row_disjunct = [], []
    for k, member in enumerate(members):
        row_member.append(k)
        row_disjunct.append(0)
        if alts and (None in fixing or any(member[i] != 1 for i in fixing)):
            row_member += [k] * len(alts)
            row_disjunct += range(1, len(alts) + 1)

    for start in range(1, len(row_member), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        rows = option_masks[chosen[row_member[block]]].all(axis=1)
        rows &= base
        rows &= disjuncts[row_disjunct[block]]
        hit = first_pass(rows)
        if hit is not None:
            k = start + hit
            parts = _member_formulas(names, per_var, members[row_member[k]])
            if row_disjunct[k]:
                parts.append(_pair_disjunct(cause_pairs, alts[row_disjunct[k] - 1]))
            return _pinned(lang, conjoin(parts))
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
