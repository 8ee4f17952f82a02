"""The modified Halpern-Pearl actual-cause checker (AC1-3).

Candidate witness sets W range over the subsets of the endogenous
variables outside the cause, with W fixed at its actual values, and the
alternative x' ranges over the full product range of the cause variables.
Search order is W by increasing cardinality then lexicographic in the
signature's variable order, x' lexicographic, so the smallest witnesses
are reported first.

Only the relevant part of W is searched: W & R, for R the variables that
descend from the cause and are, or are ancestors of, an effect variable
(`CausalModel.relevant`).  Whether (W, x') passes depends on (W & R, x')
alone, by induction in topological order: a variable that does not descend
from the cause keeps its actual value whether W holds it or not, and
fixing a non-ancestor of the effect changes no effect variable.  W & R
comes no later than W in the search order, so each relevant W is evaluated
once per x' and every other W is a lookup: the full listing is the
relevant witnesses closed under adding irrelevant variables, in the same
order as an exhaustive search, and the first witness is always relevant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .formula import (
    Formula,
    FormulaError,
    Intervene,
    Not,
    as_event_conjunction,
    free_endogenous,
    is_propositional,
)
from .model import CausalModel


@dataclass(frozen=True)
class HpWitness:
    """(W, w*, x') certifying AC2: fixing W at its actual values w* and
    flipping the cause to x' falsifies the effect."""

    w: tuple[str, ...]
    wstar: tuple[str, ...]
    xprime: tuple[str, ...]


@dataclass
class CauseVerdict:
    is_cause: bool
    ac1: bool
    ac2: bool
    ac3: bool
    witnesses: list[HpWitness] = field(default_factory=list)
    ac3_violator: tuple[tuple[str, str], ...] | None = None

    def to_dict(self):
        return {
            "isCause": self.is_cause,
            "ac1": self.ac1,
            "ac2": self.ac2,
            "ac3": self.ac3,
            "witnesses": [
                {"W": dict(zip(w.w, w.wstar)), "xprime": list(w.xprime)}
                for w in self.witnesses
            ],
            "ac3Violator": (
                [f"{v}={x}" for v, x in self.ac3_violator] if self.ac3_violator else None
            ),
        }


def is_actual_cause_hp(
    m: CausalModel,
    u: dict,
    cause: Formula,
    effect: Formula,
    first_only: bool = False,
) -> CauseVerdict:
    """Check whether `cause` (a conjunction of primitive events over distinct
    variables) is an actual cause of the propositional `effect` at (M, u)."""
    pairs = as_event_conjunction(cause)
    if not pairs:
        raise FormulaError("the cause must be a nonempty conjunction of primitive events")
    if not is_propositional(effect):
        raise FormulaError("the effect must be a Boolean combination of primitive events")

    ac1 = m.evaluate(u, cause) and m.evaluate(u, effect)
    witnesses = _ac2_search(m, u, pairs, effect, first_only=first_only)
    ac2 = bool(witnesses)

    violator = _ac3_violator(pairs, lambda s: _ac2_search(m, u, s, effect, first_only=True))
    ac3 = violator is None

    return CauseVerdict(
        is_cause=ac1 and ac2 and ac3,
        ac1=ac1,
        ac2=ac2,
        ac3=ac3,
        witnesses=witnesses,
        ac3_violator=violator,
    )


def _ac3_violator(pairs, passes_ac2):
    """AC3's search: the first nonempty proper subset of the cause's pairs,
    smallest first, that passes AC2 (`passes_ac2(subset)`), or None."""
    subsets = (s for size in range(1, len(pairs)) for s in itertools.combinations(pairs, size))
    return next((s for s in subsets if passes_ac2(list(s))), None)


def _ac2_search(m, u, pairs, effect, first_only=False) -> list[HpWitness]:
    sig = m.sig
    xvars = [v for v, _ in pairs]
    xvals = tuple(v for _, v in pairs)
    relevant = m.relevant(xvars, free_endogenous(effect))
    # the first witness has a relevant W, so `first_only` walks only those
    rest = [v for v in sig.endo_names if v not in xvars and (v in relevant or not first_only)]
    xprimes = [x for x in itertools.product(*(sig.range_of(v) for v in xvars)) if x != xvals]
    ctx = m.validate_context(u)
    actual = m._solve(ctx, {})
    not_effect = Not(effect)
    found: list[HpWitness] = []
    passing: dict[tuple, list] = {}  # relevant W -> the x' that pass with it
    for size in range(len(rest) + 1):
        for w in itertools.combinations(rest, size):
            key = tuple(v for v in w if v in relevant)
            if key != w:  # decided with W & R, which came earlier
                if passing[key]:
                    wstar = tuple(actual[v] for v in w)
                    found += [HpWitness(w, wstar, xprime) for xprime in passing[key]]
                continue
            wstar = tuple(actual[v] for v in w)
            passing[w] = []
            for xprime in xprimes:
                inter = dict(zip(xvars, xprime))
                inter.update(zip(w, wstar))
                if m._eval(ctx, not_effect, inter):
                    found.append(HpWitness(w, wstar, xprime))
                    if first_only:
                        return found
                    passing[w].append(xprime)
    return found


def check_witness(m, u, cause: Formula, effect: Formula, witness: HpWitness) -> bool:
    """Independently re-check a reported witness against eval_causal."""
    pairs = as_event_conjunction(cause)
    xvars = [v for v, _ in pairs]
    if set(witness.w) & set(xvars):
        return False
    actual = m.solve(u)
    if any(actual[v] != s for v, s in zip(witness.w, witness.wstar)):
        return False
    assignments = tuple(zip(xvars, witness.xprime)) + tuple(zip(witness.w, witness.wstar))
    return m.evaluate(u, Intervene(assignments, Not(effect)))
