"""The modified Halpern-Pearl actual-cause checker (AC1-3).

The AC2 search is exhaustive: candidate witness sets W range over all
subsets of the endogenous variables outside the cause, with W fixed at its
actual values, and the alternative x' ranges over the full product range of
the cause variables.  Search order is W by increasing cardinality then
lexicographic in the signature's variable order, x' lexicographic, so the
smallest witnesses are reported first.
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

    ac3 = True
    violator = None
    for size in range(1, len(pairs)):
        for subset in itertools.combinations(pairs, size):
            if _ac2_search(m, u, list(subset), effect, first_only=True):
                ac3 = False
                violator = subset
                break
        if not ac3:
            break

    return CauseVerdict(
        is_cause=ac1 and ac2 and ac3,
        ac1=ac1,
        ac2=ac2,
        ac3=ac3,
        witnesses=witnesses,
        ac3_violator=violator,
    )


def _ac2_search(m, u, pairs, effect, first_only=False) -> list[HpWitness]:
    sig = m.sig
    xvars = [v for v, _ in pairs]
    xvals = tuple(v for _, v in pairs)
    rest = [v for v in sig.endo_names if v not in xvars]
    ctx = m.validate_context(u)
    actual = m._solve(ctx, {})
    not_effect = Not(effect)
    found: list[HpWitness] = []
    for size in range(len(rest) + 1):
        for w in itertools.combinations(rest, size):
            wstar = tuple(actual[v] for v in w)
            for xprime in itertools.product(*(sig.range_of(v) for v in xvars)):
                if xprime == xvals:
                    continue
                inter = dict(zip(xvars, xprime))
                inter.update(zip(w, wstar))
                if m._eval(ctx, not_effect, inter):
                    found.append(HpWitness(w, wstar, xprime))
                    if first_only:
                        return found
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
