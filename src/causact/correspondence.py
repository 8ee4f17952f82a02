"""Building counterfactual structures from causal models and checking
correspondence, strong correspondence, strong consistency, and compatibility.

The builder enumerates every total assignment as a state and orders states
from a base state s by the lexicographic cost

    d_s(t) = ( [t != s], #exogenous differences, sum_Y w_Y * viol_Y(t) )

where viol_Y(t) = 1 iff t breaks Y's equation and w_Y = (|V|+1)^(|V|-depth(Y))
with depth the longest path from a source of the endogenous DAG.  Upstream
violations therefore cost strictly more than any combination of downstream
ones, which makes intervened solutions beat backtracked alternatives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .formula import Formula, Signature, evaluate_prop, format_formula
from .model import CausalModel, ModelError
from .structure import CfStructure, CostOrder


class CorrespondenceError(ValueError):
    pass


DEFAULT_STATE_CAP = 10**6


# ---------------------------------------------------------------------------
# Builder


def state_space_size(m: CausalModel) -> int:
    size = 1
    for _, rng in m.sig.exogenous + m.sig.endogenous:
        size *= len(rng)
    return size


def endo_depths(m: CausalModel) -> dict[str, int]:
    """Longest path from a source of the endogenous dependency DAG."""
    depth = {}
    for x in m.topo_order:
        endo_parents = [p for p in m.parents[x] if m.sig.is_endogenous(p)]
        depth[x] = max((depth[p] + 1 for p in endo_parents), default=0)
    return depth


def build_counterpart(m: CausalModel, state_cap: int = DEFAULT_STATE_CAP):
    """All-assignments counterfactual structure for m, with the weighted
    violation cost order.  Returns (structure, context -> state id map)."""
    size = state_space_size(m)
    if size > state_cap:
        raise CorrespondenceError(f"state space of {size} states exceeds the cap of {state_cap}")

    sig = m.sig
    names = sig.all_names()
    ranges = [sig.range_of(n) for n in names]
    interp: dict[str, dict] = {}
    index_of: dict[tuple, int] = {}
    for i, values in enumerate(itertools.product(*ranges)):
        interp[f"s{i}"] = dict(zip(names, values))
        index_of[values] = i

    n_endo = len(sig.endo_names)
    depth = endo_depths(m)
    weights = {y: (n_endo + 1) ** (n_endo - depth[y]) for y in sig.endo_names}

    states = list(interp)
    viol_cost = {}
    for s, asgn in interp.items():
        total = 0
        for y in sig.endo_names:
            if asgn[y] != m.equation_value(y, asgn):
                total += weights[y]
        viol_cost[s] = total
    exo_part = {s: tuple(asgn[n] for n in sig.exo_names) for s, asgn in interp.items()}

    def cost(base: str, other: str):
        diffs = sum(1 for a, b in zip(exo_part[base], exo_part[other]) if a != b)
        return (0 if base == other else 1, diffs, viol_cost[other])

    structure = CfStructure(sig, interp, CostOrder(cost), name=f"{m.name}-counterpart")

    def context_state(u: dict) -> str:
        sol = m.solve(u)
        return f"s{index_of[tuple(sol[n] for n in names)]}"

    return structure, context_state


# ---------------------------------------------------------------------------
# Correspondence checker


@dataclass
class ConditionReport:
    ok: bool
    counterexample: dict | None = None


@dataclass
class CorrespondenceReport:
    condition_a: ConditionReport
    condition_b: ConditionReport | None = None
    condition_c: ConditionReport | None = None
    checked_psi_count: int = 0

    @property
    def ok(self) -> bool:
        return all(
            c is None or c.ok
            for c in (self.condition_a, self.condition_b, self.condition_c)
        )

    def to_dict(self):
        def cond(c):
            return None if c is None else {"ok": c.ok, "counterexample": c.counterexample}

        return {
            "ok": self.ok,
            "conditionA": cond(self.condition_a),
            "conditionB": cond(self.condition_b),
            "conditionC": cond(self.condition_c),
            "checkedPsiCount": self.checked_psi_count,
        }


def check_correspondence(
    m2: CfStructure,
    m: CausalModel,
    strong: bool = False,
    strict: bool = False,
    extra_psis: list[Formula] | None = None,
) -> CorrespondenceReport:
    """Check that m2 agrees with m's equations (condition a); if strong,
    also that every assignment has a state (b) and that closest states
    preserve exogenous values over the bounded psi-family (c).

    By default condition (a) is checked leniently: cases where the base
    state itself satisfies W_Y = s_Y while violating Y's equation are
    skipped, because there the literal reading conflicts with centering.
    `strict` applies the literal reading.
    """
    if m2.sig != m.sig:
        raise CorrespondenceError("signature mismatch between structure and model")

    report = CorrespondenceReport(condition_a=_check_condition_a(m2, m, strict))
    if strong:
        report.condition_b = _check_condition_b(m2, m)
        report.condition_c, report.checked_psi_count = _check_condition_c(m2, m, extra_psis)
    return report


def _check_condition_a(m2: CfStructure, m: CausalModel, strict: bool) -> ConditionReport:
    sig = m.sig
    names = sig.all_names()
    by_rest: dict[str, dict[tuple, list[str]]] = {}
    for y in sig.endo_names:
        rest = [n for n in names if n != y]
        groups: dict[tuple, list[str]] = {}
        for s in m2.states:
            asgn = m2.interp[s]
            groups.setdefault(tuple(asgn[n] for n in rest), []).append(s)
        by_rest[y] = groups

    for y in sig.endo_names:
        rest = [n for n in names if n != y]
        for setting, candidates in by_rest[y].items():
            s_y = dict(zip(rest, setting))
            expected = m.equation_value(y, s_y)
            for s in m2.states:
                base = m2.interp[s]
                base_matches = all(base[n] == v for n, v in s_y.items())
                if not strict and base_matches and base[y] != expected:
                    continue  # centering makes s its own closest state here
                closest = m2.closest_among(s, candidates)
                for t in closest:
                    if m2.interp[t][y] != expected:
                        return ConditionReport(
                            ok=False,
                            counterexample={
                                "Y": y,
                                "setting": s_y,
                                "base_state": s,
                                "closest_state": t,
                                "expected": expected,
                                "got": m2.interp[t][y],
                            },
                        )
    return ConditionReport(ok=True)


def _check_condition_b(m2: CfStructure, m: CausalModel) -> ConditionReport:
    sig = m.sig
    names = sig.all_names()
    present = {tuple(m2.interp[s][n] for n in names) for s in m2.states}
    for values in itertools.product(*(sig.range_of(n) for n in names)):
        if values not in present:
            return ConditionReport(ok=False, counterexample={"missing": dict(zip(names, values))})
    return ConditionReport(ok=True)


def _psi_family(sig: Signature):
    """All nonempty conjunctions of endogenous primitive events, as
    (mask-producing) value tuples: each element maps var -> required value."""
    options = [[None] + list(sig.range_of(n)) for n in sig.endo_names]
    for combo in itertools.product(*options):
        if all(v is None for v in combo):
            continue
        yield combo


def _check_condition_c(m2, m, extra_psis):
    """Exogenous values must be preserved in the closest psi-states, for all
    conjunctions of endogenous events, all pairwise disjunctions of such
    conjunctions, and any explicitly supplied query formulas."""
    sig = m.sig
    states = list(m2.states)
    n = len(states)
    idx = {s: i for i, s in enumerate(states)}

    endo_vals = np.array(
        [[sig.range_of(v).index(m2.interp[s][v]) for v in sig.endo_names] for s in states]
    )
    exo_ids = np.array(
        [
            _exo_id(sig, m2.interp[s])
            for s in states
        ]
    )
    cost = np.empty((n, n), dtype=np.int64)
    for i, s in enumerate(states):
        for j, t in enumerate(states):
            a, b, c = _rank_tuple(m2, s, t)
            cost[i, j] = (a * 64 + b) * (1 << 40) + c
    same_exo = exo_ids[:, None] == exo_ids[None, :]
    INF = np.int64(2**62)

    def violates(mask: np.ndarray):
        """Return a base-state index whose closest mask-states change the
        exogenous values, or None."""
        if not mask.any():
            return None
        a = np.where(mask[None, :], cost, INF)
        min_same = np.where(same_exo, a, INF).min(axis=1)
        min_diff = np.where(~same_exo, a, INF).min(axis=1)
        bad = ~(min_same < min_diff)
        # Bases with no same-exo mask state at all: the formula is not
        # consistent with U = u there, so the condition does not apply.
        bad &= min_same < INF
        nz = np.nonzero(bad)[0]
        return int(nz[0]) if nz.size else None

    checked = 0
    conj_masks: list[tuple[tuple, np.ndarray]] = []
    for combo in _psi_family(sig):
        mask = np.ones(n, dtype=bool)
        for col, want in enumerate(combo):
            if want is not None:
                mask &= endo_vals[:, col] == sig.range_of(sig.endo_names[col]).index(want)
        conj_masks.append((combo, mask))

    def describe(combo):
        return " & ".join(
            f"{v}={w}" for v, w in zip(sig.endo_names, combo) if w is not None
        )

    for combo, mask in conj_masks:
        checked += 1
        bad = violates(mask)
        if bad is not None:
            return (
                ConditionReport(ok=False, counterexample={"psi": describe(combo), "base_state": states[bad]}),
                checked,
            )

    seen_masks = set()
    for (c1, m1), (c2, mm2) in itertools.combinations(conj_masks, 2):
        mask = m1 | mm2
        key = mask.tobytes()
        if key in seen_masks:
            continue
        seen_masks.add(key)
        checked += 1
        bad = violates(mask)
        if bad is not None:
            return (
                ConditionReport(
                    ok=False,
                    counterexample={"psi": f"({describe(c1)}) | ({describe(c2)})", "base_state": states[bad]},
                ),
                checked,
            )

    for psi in extra_psis or []:
        mask = np.array([evaluate_prop(psi, m2.interp[s]) for s in states])
        checked += 1
        bad = violates(mask)
        if bad is not None:
            return (
                ConditionReport(ok=False, counterexample={"psi": format_formula(psi), "base_state": states[bad]}),
                checked,
            )

    return ConditionReport(ok=True), checked


def _exo_id(sig: Signature, asgn: dict) -> int:
    out = 0
    for name in sig.exo_names:
        rng = sig.range_of(name)
        out = out * len(rng) + rng.index(asgn[name])
    return out


def _rank_tuple(m2: CfStructure, s: str, t: str):
    r = m2.order.rank(s, t)
    if r is None:
        return (2, 0, 0)  # unranked: farther than everything ranked
    if isinstance(r, tuple) and len(r) == 3:
        return r
    # tier/other scalar ranks: fold into the violation slot
    return (0 if s == t else 1, 0, int(r))


# ---------------------------------------------------------------------------
# Strong consistency and compatibility


def strongly_consistent(
    m2: CfStructure, s: str, m: CausalModel, u: dict, strict: bool = False
) -> bool:
    """(M', s) is strongly consistent with (M, u): strong correspondence
    holds and s agrees with u on the exogenous variables."""
    if not check_correspondence(m2, m, strong=True, strict=strict).ok:
        return False
    ctx = m.validate_context(u)
    return all(m2.interp[s][n] == ctx[n] for n in m.sig.exo_names)


def compatible(m: CausalModel, m2: CfStructure, strict: bool = False) -> bool:
    """Every context has a strongly consistent state and vice versa."""
    if not check_correspondence(m2, m, strong=True, strict=strict).ok:
        return False
    contexts = list(m.sig.assignments(m.sig.exo_names))
    exo_of = lambda s: tuple(m2.interp[s][n] for n in m.sig.exo_names)
    state_exos = {exo_of(s) for s in m2.states}
    for u in contexts:
        if tuple(u[n] for n in m.sig.exo_names) not in state_exos:
            return False
    ctx_keys = {tuple(u[n] for n in m.sig.exo_names) for u in contexts}
    return all(exo_of(s) in ctx_keys for s in m2.states)


def compatible_K(
    m: CausalModel,
    m2: CfStructure,
    K: list[dict],
    K2: list[str],
    assume_model_compatible: bool = True,
    strict: bool = False,
) -> bool:
    """K and K' are compatible: matching strongly consistent mates in both
    directions.  Model-level compatibility is assumed established unless
    `assume_model_compatible` is False."""
    if not assume_model_compatible and not compatible(m, m2, strict):
        return False
    if (K and not K2) or (K2 and not K):
        return False
    exo_names = m.sig.exo_names
    k_keys = {tuple(m.validate_context(u)[n] for n in exo_names) for u in K}
    k2_keys = {tuple(m2.interp[s][n] for n in exo_names) for s in K2}
    return k_keys == k2_keys
