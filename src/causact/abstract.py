"""Actual causation parameterized by a witness language.

The cause check here takes a *setting* (either a causal model with a
context, or a counterfactual structure with a state) and a witness
language, and checks:

  AC1': cause and effect hold at the setting;
  AC2': some language member tau holds at the setting and
        (not cause  and  tau) box-arrow (not effect) holds;
  AC3': no strictly weaker language member passes AC2' in place of
        the cause.

A language is a spec, `conj`, `conj-neg`, `pair` or `gen:K`, and pins
(see `WitnessLanguage`).  Its members are generated per-variable and
filtered to those true at the setting, which is complete: AC2' requires
tau to hold there, and any AC3' candidate is entailed by the (true)
cause.  The members of `conj`, `conj-neg` and `pair` are listed once, as
rows (member, pair alternative) in try order, and a row becomes tau in
one place.  AC3' has one rule, `_strictly_weaker`: the members of the
positive-conjunction core that the cause strictly entails.  The cause
check applies it to the members over the variables whose actual-value
event the cause entails (each of which the cause entails, so only the
converse is tested), and the explanation checks to the core members
they list once per setting, each with its literal set.

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
box-arrow query each (`CfStructure.box_arrows`).  Only `gen:K` tests one
formula per member.

By default a box-arrow whose antecedent has no closest states counts as
false here, even in structures where the Lewis semantics would call it
vacuously true; `allow_vacuous=True` restores the literal reading.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:  # structures, and numpy with them, load only where one is used
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
        self.model.check_causal_fragment(phi)
        return self.model._eval(self.context, phi, {})  # the context is validated

    def counterfactual(self, antecedent, consequent, allow_vacuous=False) -> bool:
        # The interventionist box-arrow is existential over settings of the
        # antecedent's endogenous variables, so an unsatisfiable antecedent
        # is false regardless of the vacuity policy.
        return self.holds(BoxArrow(antecedent, consequent))


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
        ext = self.structure.extension
        return bool(self.structure.box_arrows(self.state, ext(antecedent), ext(consequent), allow_vacuous))

    def first_box_arrow(self, antecedents, consequent, allow_vacuous):
        """The index of the first row of the boolean matrix `antecedents`
        whose closest states from this state all lie in the mask
        `consequent`, or None.  A row with no closest states passes only
        with `allow_vacuous`."""
        hits = self.structure.box_arrows(self.state, antecedents, consequent, allow_vacuous).nonzero()[0]
        return hits[0] if hits.size else None


# ---------------------------------------------------------------------------
# Witness languages


@dataclass(frozen=True)
class WitnessLanguage:
    """Which formulas may serve as the conditioning formula tau: the
    members of `spec`, each conjoined with the `pins`.

      conj       conjunctions of endogenous primitive events, the empty
                 conjunction (true) included;
      conj-neg   also negated events, as conjunctions X!=v1 & X!=v2 over
                 proper subsets of a variable's non-actual values (ruling
                 out every non-actual value is the positive event again
                 and is not repeated);
      pair       `conj`, and each conjunction with one disjunct
                 (X=x | X=x') over the variables of the cause X=x;
      gen:K      single disjunctions of at most K+1 literals (events or
                 negated events), K >= 0.

    A pin is a formula conjoined to every member, e.g. an exogenous event
    that freezes the context.  An unknown spec raises FormulaError, and
    `gen:K` is normalised (`gen:01` is `gen:1`)."""

    spec: str = "conj"
    pins: tuple[Formula, ...] = ()

    def __post_init__(self):
        if self.spec in ("conj", "conj-neg", "pair"):
            return
        if not self.spec.startswith("gen:"):
            raise FormulaError(f"unknown witness language {self.spec!r} (conj, conj-neg, pair, gen:K)")
        object.__setattr__(self, "spec", f"gen:{_gen_budget(self.spec)}")

    def describe(self) -> str:
        if not self.pins:
            return self.spec
        return self.spec + " + pins " + ", ".join(format_formula(p) for p in self.pins)


def _gen_budget(spec: str) -> int:
    """The clause budget K of the spec `gen:K`."""
    try:
        budget = int(spec[4:])
    except ValueError:
        raise FormulaError(f"clause budget must be an integer, got {spec[4:]!r}") from None
    if budget < 0:
        raise FormulaError("clause budget must be nonnegative")
    return budget


def parse_language(spec: str, pins=()) -> WitnessLanguage:
    return WitnessLanguage(spec, tuple(pins))


def conj_language(pins=()) -> WitnessLanguage:
    return WitnessLanguage("conj", tuple(pins))


def conj_neg_language(pins=()) -> WitnessLanguage:
    return WitnessLanguage("conj-neg", tuple(pins))


def pair_language(pins=()) -> WitnessLanguage:
    return WitnessLanguage("pair", tuple(pins))


def gen_language(budget: int, pins=()) -> WitnessLanguage:
    return WitnessLanguage(f"gen:{budget}", tuple(pins))


def check_pins(lang: WitnessLanguage):
    """Raise FormulaError unless every pin is propositional."""
    if not all(map(is_propositional, lang.pins)):
        raise FormulaError("pins must be Boolean combinations of primitive events")


def enumerate_witnesses(lang: WitnessLanguage, setting, cause_pairs):
    """Yield the language members true at the setting, smaller formulas
    first.  `cause_pairs` is the cause as (var, value) pairs; it only
    matters for `pair`."""
    if not _pins_hold(lang, setting):
        return  # a false pin makes every pinned member false at s
    sig, actual = setting.sig, setting.assignment
    if lang.spec.startswith("gen:"):
        yield _pinned(lang, TRUE)
        for clause in _clauses(sig, _gen_budget(lang.spec)):
            if evaluate_prop(clause, actual):
                yield _pinned(lang, clause)
        return
    per_var = _conj_options(sig, actual, lang.spec == "conj-neg")
    pairs = cause_pairs if lang.spec == "pair" else ()
    for member, alt in _rows(per_var, sig, actual, pairs):
        yield _tau(lang, per_var, member, pairs, alt)


def _conj_options(sig, actual, negated):
    """Each endogenous variable's options for one conjunct of a member true
    at `actual`, as (weight, conjunct): None for no conjunct (weight 0),
    X=a (weight 1), and, with `negated`, X!=v & ... over each v of a proper
    subset of the non-actual values (weight: the subset's size; ruling out
    every non-actual value is X=a again)."""
    per_var = []
    for x in sig.endo_names:
        options = [(0, None), (1, PrimEvent(x, actual[x]))]
        if negated:
            excluded = [v for v in sig.range_of(x) if v != actual[x]]
            for size in range(1, len(excluded)):
                for subset in itertools.combinations(excluded, size):
                    options.append((size, conjoin([Not(PrimEvent(x, v)) for v in subset])))
        per_var.append(options)
    return per_var


def _by_weight(per_var):
    """Every member, as one option index per variable, in the order the
    members are tried: the product order, stably sorted by total weight."""
    weights = map(sum, itertools.product(*([w for w, _ in options] for options in per_var)))
    members = itertools.product(*(range(len(options)) for options in per_var))
    return [member for _, member in sorted(zip(weights, members), key=itemgetter(0))]


def _rows(per_var, sig, actual, cause_pairs):
    """The rows of a `conj`, `conj-neg` or `pair` language in try order, as
    (member, alternative): each member of `per_var` with no alternative
    (None), followed, unless it fixes the cause values (has X=x for each
    of `cause_pairs`), by one row per alternative x' to them.  Only `pair`
    passes cause pairs."""
    members = _by_weight(per_var)
    if not cause_pairs:
        return [(member, None) for member in members]
    alts = _pair_alternatives(sig, cause_pairs)
    position = {x: i for i, x in enumerate(sig.endo_names)}
    fixing = [position.get(v) if actual[v] == x else None for v, x in cause_pairs]
    rows = []
    for member in members:
        rows.append((member, None))
        if None in fixing or any(member[i] != 1 for i in fixing):
            rows += [(member, alt) for alt in alts]
    return rows


def _tau(lang, per_var, member, cause_pairs=(), alt=None):
    """The row (member, alt) as a formula: the pins, the member's conjunct
    on each variable, and, for an alternative x', (X=x | X=x')."""
    parts = [f for options, j in zip(per_var, member) if (f := options[j][1]) is not None]
    if alt is not None:
        parts.append(_pair_disjunct(cause_pairs, alt))
    return _pinned(lang, conjoin(parts))


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
    check_pins(lang)

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
    of `enumerate_witnesses`, by `_strictly_weaker`.  The cause entails a
    member exactly when it entails the pins and each event, so only the
    variables whose actual event it entails get options beyond no
    conjunct, and every member listed is entailed.  The pins alone are
    left out: the antecedent !P & tau of their AC2' denies them, and HP's
    AC3 likewise tries only nonempty subsets of the cause."""
    sig, actual = setting.sig, setting.assignment
    lits = event_literals(cause, sig)
    entailed = lambda psi: prop_entails_given(cause, lits, psi, event_literals(psi, sig), sig)
    if not _pins_hold(lang, setting) or not entailed(conjoin(lang.pins)):
        return
    per_var = [options if entailed(options[1][1]) else options[:1]
               for options in _conj_options(sig, actual, False)]
    entails, cause_lits = lambda a, b: prop_entails_given(*a, *b, sig), (cause, lits)
    for member in _by_weight(per_var)[1:]:  # [0] is the pins alone
        phi2 = _tau(lang, per_var, member)
        if _strictly_weaker(entails, cause_lits, (phi2, event_literals(phi2, sig)), entailed=True):
            yield phi2


def _strictly_weaker(entails, cause, member, entailed=False):
    """The AC3' rule: whether `member` is strictly weaker than `cause`,
    given `entails(a, b)`, that a entails b: the cause entails it and it
    does not entail the cause.  With `entailed`, the caller has established
    that the cause entails the member, and only the converse is tested.
    The cause check passes (formula, literals) pairs, which
    `prop_entails_given` decides (by literal inclusion, or by truth table
    for a formula that is no event conjunction); an explanation passes
    indices into its own listing of the core."""
    return (entailed or entails(cause, member)) and not entails(member, cause)


def _ac2_prime(setting, phi, effect, lang, allow_vacuous):
    if not _pins_hold(lang, setting):
        return None  # a false pin makes every member false at the setting
    if not lang.spec.startswith("gen:"):
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
    and each pinned tau is tried once.

    Only the variables relevant to the residual and the effect (see
    `CausalModel.relevant`) get the option X=a.  For any other variable Y,
    P & Y=a tries the same vectors as P outside the residual's variables
    (Y keeps its actual value anyway, or cannot change the effect) and a
    subset of them on one of the residual's variables.  P comes earlier,
    and the stable sort of `_by_weight` keeps the remaining members in
    their relative order, so the first passing member, tau and the AC3'
    violator are those of the full enumeration."""
    model, sig, actual = setting.model, setting.sig, setting.assignment
    cause_vars = free_endogenous(phi)
    pins = _pin_negated_conjuncts(conjoin(lang.pins), actual, cause_vars)
    residual = Not(phi) if pins is TRUE else And(Not(phi), pins)
    not_effect = Not(effect)
    model.check_causal_fragment(BoxArrow(residual, not_effect))
    free = free_endogenous(residual)
    relevant = model.relevant(free, free_endogenous(effect))
    names = sig.endo_names
    per_var = [options if x in relevant else options[:1]
               for x, options in zip(names, _conj_options(sig, actual, False))]
    # each option's candidate values: no conjunct leaves the variable out of
    # the intervention unless the residual mentions it; X=a tries only a
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
            return _pin_negated_conjuncts(_tau(lang, per_var, member), actual, cause_vars)
    return None


_BLOCK_ROWS = 64  # antecedent rows decided per box-arrow query


def _ac2_at_state(setting, phi, effect, lang, allow_vacuous):
    """AC2' for a conjunctive or pair language at a structure state,
    deciding each row of `_rows` from its mask without building its formula.

    The antecedent !phi & tau of a row holds where !phi, every pin and each
    of its conjuncts hold, so its mask is the AND of their masks, each
    conjunct's mask labelled once per call.  For `pair` the pairs come from
    phi itself, when it is a conjunction X=x of events, and a row with an
    alternative x' is ANDed with the mask of (X=x | X=x'); so an AC3'
    candidate moves only its own variables, as plain minimality does.  The
    first row, the member true, is decided alone, before the option masks
    are built; the rest are decided in blocks of `_BLOCK_ROWS`, each by one
    box-arrow query.  Only the winning tau becomes a formula."""
    import numpy as np  # a structure is in use, so numpy is loaded already

    m2, sig, actual = setting.structure, setting.sig, setting.assignment
    base = m2.extension(Not(phi))
    for pin in lang.pins:
        base = base & m2.extension(pin)
    inside = m2.extension(Not(effect))
    if setting.first_box_arrow(base[None], inside, allow_vacuous) is not None:
        return _tau(lang, (), ())  # the member true
    per_var = _conj_options(sig, actual, lang.spec == "conj-neg")

    # every variable's option masks in turn; no conjunct holds everywhere
    everywhere = np.ones(len(m2.states), dtype=bool)
    option_masks, offsets = [], []
    for options in per_var:
        offsets.append(len(option_masks))
        option_masks += [everywhere if f is None else m2.extension(f) for _, f in options]
    option_masks = np.array(option_masks)

    try:  # a cause that is not an event conjunction has no pair members
        cause_pairs = as_event_conjunction(phi) if lang.spec == "pair" else []
    except FormulaError:
        cause_pairs = []
    rows = _rows(per_var, sig, actual, cause_pairs)
    # a row's disjunct (X=x | X=x') holds inside the mask of !phi where X=x'
    # does, as phi is X=x; index 0 is for the rows with no disjunct
    alts = _pair_alternatives(sig, cause_pairs)
    xcols = np.array([m2._columns[v] for v, _ in cause_pairs])
    disjuncts = np.array([everywhere] + [(xcols == np.array(alt)[:, None]).all(axis=0) for alt in alts])
    which = {alt: k for k, alt in enumerate([None] + alts)}
    chosen = np.array([member for member, _ in rows], dtype=np.intp).reshape(len(rows), len(per_var))
    chosen += offsets
    row_disjunct = np.array([which[alt] for _, alt in rows], dtype=np.intp)

    for start in range(1, len(rows), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        masks = option_masks[chosen[block]].all(axis=1)
        masks &= base
        masks &= disjuncts[row_disjunct[block]]
        hit = setting.first_box_arrow(masks, inside, allow_vacuous)
        if hit is not None:
            member, alt = rows[start + hit]
            return _tau(lang, per_var, member, cause_pairs, alt)
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
    w_part = [PrimEvent(v, s) for v, s in zip(hp_witness.w, hp_witness.wstar)]
    return conjoin(w_part + [_pair_disjunct(as_event_conjunction(cause), hp_witness.xprime)])
