"""Building counterfactual structures from causal models and checking
correspondence, strong correspondence, strong consistency, and compatibility.

The builder enumerates every total assignment as a state and orders states
from a base state s by the lexicographic cost

    d_s(t) = ( [t != s], #exogenous differences, sum_Y w_Y * viol_Y(t) )

where viol_Y(t) = 1 iff t breaks Y's equation and w_Y = (|V|+1)^(|V|-depth(Y))
with depth the longest path from a source of the endogenous DAG.  Upstream
violations therefore cost strictly more than any combination of downstream
ones, which makes intervened solutions beat backtracked alternatives.

The checker reads the structure's n x n rank matrix `near` (built once per
structure, by broadcasting for the derived order, by one pass of `rank()`
for other ranked orders) and decides both conditions from least ranks
over it: condition (a) takes, per endogenous Y, the least rank over each
group of states that agree on every other variable; condition (c) keeps,
per conjunction of endogenous events, the least rank over its states with
the base's exogenous values and over those with other values, and finds
the first failing pairwise disjunction from the largest and smallest of
those vectors over the later conjunctions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .formula import Signature
from .model import CausalModel
from .structure import CfStructure, ClosenessOrder


class CorrespondenceError(ValueError):
    pass


DEFAULT_STATE_CAP = 10**6


# ---------------------------------------------------------------------------
# Builder


class CounterpartOrder(ClosenessOrder):
    """The derived order d_s(t), kept as per-state arrays: `exo` holds each
    state's exogenous value indices (one row per state) and `viol` its
    violation cost (Python ints, exact at any size)."""

    def __init__(self, states: list[str], exo: np.ndarray, viol: list[int]):
        self.index = {s: i for i, s in enumerate(states)}
        self.exo = exo
        self.viol = viol

    def rank(self, base, other):
        i, j = self.index[base], self.index[other]
        return (int(base != other), int(np.count_nonzero(self.exo[i] != self.exo[j])), self.viol[j])

    def rank_matrix(self, states) -> np.ndarray:
        pos = [self.index[s] for s in states]
        exo = self.exo[pos]
        viol = [self.viol[p] for p in pos]
        level = {c: i for i, c in enumerate(sorted(set(viol)))}
        n, k = exo.shape
        # ([t != s], #exogenous differences, dense rank of viol(t)) in mixed radix
        near = np.zeros((n, n), dtype=np.int64)
        for col in exo.T:
            near += col[:, None] != col[None, :]
        near += k + 1
        near[np.diag_indices(n)] -= k + 1
        near *= len(level)
        near += np.array([level[c] for c in viol], dtype=np.int64)
        return near


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

    viol = []
    for asgn in interp.values():
        total = 0
        for y in sig.endo_names:
            if asgn[y] != m.equation_value(y, asgn):
                total += weights[y]
        viol.append(total)
    # State i's value indices are the mixed-radix digits of i; the
    # exogenous variables come first.
    digits = np.unravel_index(np.arange(size), [len(r) for r in ranges])
    k = len(sig.exo_names)
    exo_index = np.array(digits[:k], dtype=np.intp).T.reshape(size, k)

    order = CounterpartOrder(list(interp), exo_index, viol)
    structure = CfStructure(sig, interp, order, name=f"{m.name}-counterpart")

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

    near = m2.near
    vals = _value_indices(m2)
    report = CorrespondenceReport(condition_a=_check_condition_a(m2, m, strict, near, vals))
    if strong:
        report.condition_b = _check_condition_b(m2, m)
        report.condition_c, report.checked_psi_count = _check_condition_c(m2, m, near, vals)
    return report


def _value_indices(m2: CfStructure) -> np.ndarray:
    """Each state's value indices, one row per state, one column per
    variable in `all_names()` order (exogenous first)."""
    names = m2.sig.all_names()
    index = [{v: i for i, v in enumerate(m2.sig.range_of(x))} for x in names]
    rows = [[ix[m2.interp[s][x]] for x, ix in zip(names, index)] for s in m2.states]
    return np.array(rows, dtype=np.intp).reshape(len(m2.states), len(names))


def _groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ids of equal rows, numbered in order of first appearance, and the
    first row of each group."""
    _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    renumber = np.empty_like(order)
    renumber[order] = np.arange(order.size)
    return renumber[inverse.reshape(-1)], first[order]


def _check_condition_a(m2: CfStructure, m: CausalModel, strict: bool, near, vals) -> ConditionReport:
    """For every endogenous Y, every group of states that agree on all other
    variables (a setting W_Y = s_Y) and every base state, the base's closest
    states in the group must give Y its equation's value.  All bases of a
    group are decided at once from the group's least rank in each row of
    `near`; the report names the first failure in group, base and
    candidate order."""
    sig = m.sig
    names = sig.all_names()
    states = m2.states
    for c, y in enumerate(names):
        if not sig.is_endogenous(y):
            continue
        rest = names[:c] + names[c + 1 :]
        gid, first = _groups(np.delete(vals, c, axis=1))
        settings = [{x: m2.interp[states[i]][x] for x in rest} for i in first]
        expected = [m.equation_value(y, s_y) for s_y in settings]
        rng = sig.range_of(y)
        wrong = vals[:, c] != np.array([rng.index(v) for v in expected], dtype=np.intp)[gid]
        # Columns sorted by group, each group's members in state order.
        cols = np.argsort(gid, kind="stable")
        starts = np.searchsorted(gid[cols], np.arange(len(first)))
        sub = near[:, cols]
        closest = sub == np.minimum.reduceat(sub, starts, axis=1)[:, gid[cols]]
        bad = closest & wrong[cols]
        group_bad = np.logical_or.reduceat(bad, starts, axis=1)
        if not strict:
            # centering makes s its own closest state when s has the
            # setting but breaks Y's equation
            group_bad[wrong, gid[wrong]] = False
        failing = np.flatnonzero(group_bad.any(axis=0))
        if failing.size:
            g = failing[0]
            i = np.flatnonzero(group_bad[:, g])[0]
            t = cols[starts[g] + np.flatnonzero(bad[i, starts[g]:])[0]]
            return ConditionReport(
                ok=False,
                counterexample={
                    "Y": y,
                    "setting": settings[g],
                    "base_state": states[i],
                    "closest_state": states[t],
                    "expected": expected[g],
                    "got": m2.interp[states[t]][y],
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


def _check_condition_c(m2, m, near, vals):
    """Exogenous values must be preserved in the closest psi-states, for all
    conjunctions of endogenous events and all pairwise disjunctions of such
    conjunctions.

    psi fails at base s when some psi-state has s's exogenous values
    (otherwise psi is not consistent with U = u there and the condition
    does not apply) and none of them is strictly closer than every
    psi-state with other exogenous values.  So each conjunction needs two
    vectors over the bases: `min_same[s]`, the least rank from s over
    psi-states with s's exogenous values, and `min_diff[s]`, the least
    rank over the others.  Those of psi1 | psi2 are the elementwise minimum
    of its disjuncts'.  So once every conjunction has passed, a
    disjunction fails at s only where exactly one disjunct is "lonely",
    with no state of s's exogenous values, and the other's `min_same` is
    at least the lonely one's `min_diff`: elsewhere min(same1, same2) <=
    same_i < diff_i for both i.  The largest `min_same` and smallest
    `min_diff` over the later conjunctions find the first failing pair in
    `itertools.combinations` order.  A pair whose mask equals an earlier
    pair's is not counted again; it never decides the verdict, as the
    earlier one fails whenever it does."""
    sig = m.sig
    states = m2.states
    n = len(states)
    inf = np.iinfo(np.int64).max
    k = len(sig.exo_names)
    exo_class, _ = _groups(vals[:, :k])
    same = exo_class[:, None] == exo_class[None, :]
    near_same = np.where(same, near, inf)
    near_diff = np.where(same, inf, near)

    def describe(combo):
        return " & ".join(f"{v}={w}" for v, w in zip(sig.endo_names, combo) if w is not None)

    def failed(psi, base, checked):
        return ConditionReport(ok=False, counterexample={"psi": psi, "base_state": states[base]}), checked

    combos = list(_psi_family(sig))
    masks = np.ones((len(combos), n), dtype=bool)
    for row, combo in enumerate(combos):
        for col, want in enumerate(combo):
            if want is not None:
                masks[row] &= vals[:, k + col] == sig.range_of(sig.endo_names[col]).index(want)
    conj_same = np.full((len(combos), n), inf, dtype=np.int64)
    conj_diff = conj_same.copy()
    for row, mask in enumerate(masks):
        cols = np.flatnonzero(mask)
        if cols.size:
            conj_same[row] = near_same[:, cols].min(axis=1)
            conj_diff[row] = near_diff[:, cols].min(axis=1)

    bad = (conj_same >= conj_diff) & (conj_same != inf)
    rows = np.flatnonzero(bad.any(axis=1))
    if rows.size:
        i = int(rows[0])
        return failed(describe(combos[i]), np.flatnonzero(bad[i])[0], i + 1)
    checked = len(combos)

    # At each base, row i of `tail_same` is the largest min_same over the
    # conjunctions i, i+1, ... not lonely there (-1 if none), and row i of
    # `tail_diff` the smallest min_diff over those lonely there.
    lonely = conj_same == inf
    tail_same = np.maximum.accumulate(np.where(lonely, -1, conj_same)[::-1])[::-1]
    tail_diff = np.minimum.accumulate(np.where(lonely, conj_diff, inf)[::-1])[::-1]
    partnered = np.where(lonely[:-1], tail_same[1:] >= conj_diff[:-1], conj_same[:-1] >= tail_diff[1:])
    rows = np.flatnonzero(partnered.any(axis=1))
    hit = None
    if rows.size:
        i = int(rows[0])
        pair_same = np.minimum(conj_same[i], conj_same[i + 1 :])
        bad = (pair_same >= np.minimum(conj_diff[i], conj_diff[i + 1 :])) & (pair_same != inf)
        j = int(np.flatnonzero(bad.any(axis=1))[0])
        hit = i, i + 1 + j, np.flatnonzero(bad[j])[0]

    # Count the distinct union masks up to the failing pair, or all: each
    # mask is a row of 64-bit words; the rows are sorted in place and
    # adjacent rows compared.
    width = max(1, -(-n // 64))
    packed = np.zeros((len(combos), 8 * width), dtype=np.uint8)
    packed[:, : -(-n // 8)] = np.packbits(masks, axis=1)
    packed = packed.view(np.uint64)
    last_i, last_j = hit[:2] if hit is not None else (len(combos) - 2, len(combos) - 1)
    ends = [len(combos) if i < last_i else last_j + 1 for i in range(last_i + 1)]
    keys = np.empty((sum(end - i - 1 for i, end in enumerate(ends)), width), dtype=np.uint64)
    at = 0
    for i, end in enumerate(ends):
        keys[at : at + end - i - 1] = packed[i] | packed[i + 1 : end]
        at += end - i - 1
    if len(keys):
        keys.view(np.dtype((np.void, 8 * width))).sort(axis=0)
        checked += 1 + int(np.count_nonzero((keys[1:] != keys[:-1]).any(axis=1)))
    if hit is not None:
        i, j, base = hit
        return failed(f"({describe(combos[i])}) | ({describe(combos[j])})", base, checked)
    return ConditionReport(ok=True), checked


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
    names = m.sig.exo_names
    contexts = {tuple(u[n] for n in names) for u in m.sig.assignments(names)}
    return contexts == {tuple(m2.interp[s][n] for n in names) for s in m2.states}


def compatible_K(m: CausalModel, m2: CfStructure, K: list[dict], K2: list[str]) -> bool:
    """K and K' are compatible: matching strongly consistent mates in both
    directions.  Model-level compatibility is assumed established."""
    if (K and not K2) or (K2 and not K):
        return False
    exo_names = m.sig.exo_names
    k_keys = {tuple(m.validate_context(u)[n] for n in exo_names) for u in K}
    k2_keys = {tuple(m2.interp[s][n] for n in exo_names) for s in K2}
    return k_keys == k2_keys
