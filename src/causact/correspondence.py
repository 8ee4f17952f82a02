"""Building counterfactual structures from causal models and checking
correspondence, strong correspondence, strong consistency, and compatibility.

The builder enumerates every total assignment as a state and orders states
from a base state s by the lexicographic cost

    d_s(t) = ( [t != s], #exogenous differences, sum_Y w_Y * viol_Y(t) )

where viol_Y(t) = 1 iff t breaks Y's equation and w_Y = (|V|+1)^(|V|-depth(Y))
with depth the longest path from a source of the endogenous DAG.  Upstream
violations therefore cost strictly more than any combination of downstream
ones, which makes intervened solutions beat backtracked alternatives.

Builder and checker work on integer value codes: the structure's `codes`,
one row per state holding each variable's index in its range, and
`CausalModel.equation_codes`, which maps those rows through every
equation's table.  A state violates Y's equation where the two codes of Y
differ; the builder weighs those violations, and condition (a) calls such
states "wrong".

The checker reads the structure's n x n int32 rank matrix `near`,
transposed so that states gather into blocks of rows.  Condition (a)
groups the states that agree on every variable but Y by one integer key
per state, sorts the groups of every Y at once and takes each group's
least rank from every base in one reduction.  Condition (c) keeps, per
conjunction of endogenous events, the least rank over its states with the
base's exogenous values and over those with other values.  It reduces the
states once per conjunction of all endogenous variables, and derives every
coarser conjunction's minima from its children on the lattice of
conjunctions, where a free variable's index comes first, as in the order
conjunctions are checked.  It finds the first failing pairwise disjunction
from the largest and smallest of those vectors over the later
conjunctions, and counts the formulas checked (`checkedPsiCount`) from
the failure's position.  Condition (a) gathers its Ys in chunks that fit
`structure._ARRAY_BUDGET`, and condition (c) raises CorrespondenceError
where the arrays it holds at once would exceed it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from . import structure
from .model import CausalModel
from .structure import _MASKED, CfStructure, ClosenessOrder


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
        # ([t != s], #exogenous differences, dense rank of viol(t)) in mixed
        # radix, below (2k + 2) n
        near = np.zeros((n, n), dtype=np.int32)
        for col in exo.T:
            near += col[:, None] != col[None, :]
        near += k + 1
        near[np.diag_indices(n)] -= k + 1
        near *= len(level)
        near += np.array([level[c] for c in viol], dtype=np.int32)
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
    dims = [len(sig.range_of(n)) for n in names]
    states = [f"s{i}" for i in range(size)]
    # State i's value indices are the mixed-radix digits of i; the
    # exogenous variables come first.
    codes = np.array(np.unravel_index(np.arange(size), dims), dtype=np.intp).T
    k = len(sig.exo_names)

    n_endo = len(sig.endo_names)
    depth = endo_depths(m)
    weights = np.array([(n_endo + 1) ** (n_endo - depth[y]) for y in sig.endo_names], dtype=object)
    # Python ints, exact however far the sums pass 2^63
    viol = ((codes[:, k:] != m.equation_codes(codes)).astype(object) @ weights).tolist()

    order = CounterpartOrder(states, codes[:, :k], viol)
    m2 = CfStructure._from_codes(sig, states, codes, order, f"{m.name}-counterpart")

    def context_state(u: dict) -> str:
        sol = m.solve(u)
        return f"s{np.ravel_multi_index([sig.value_index[n][sol[n]] for n in names], dims)}"

    return m2, context_state


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

    # row t, column s: the rank of state t from base s, so that states
    # grouped by their values gather into blocks of rows
    near_t = m2.near.T
    report = CorrespondenceReport(condition_a=_check_condition_a(m2, m, strict, near_t))
    if strong:
        report.condition_b = _check_condition_b(m2)
        report.condition_c, report.checked_psi_count = _check_condition_c(m2, near_t)
    return report


# `_row_keys` keeps its keys below this bound, far inside int64
_KEY_LIMIT = 1 << 62


def _row_keys(codes: np.ndarray, dims) -> np.ndarray:
    """One int64 key per row of `codes`, whose column j holds indices below
    dims[j]: equal rows get equal keys, and keys ascend with the rows in
    lexicographic order.  The key is the rows' mixed-radix number,
    renumbered densely whenever the next digit could overflow it."""
    key = np.zeros(len(codes), dtype=np.int64)
    bound = 1
    for col, d in zip(codes.T, dims):
        if bound * d > _KEY_LIMIT:
            _, key = np.unique(key, return_inverse=True)
            bound = len(codes)
        key = key * d + col
        bound *= d
    return key


def _check_condition_a(m2: CfStructure, m: CausalModel, strict: bool, near_t) -> ConditionReport:
    """For every endogenous Y, every group of states that agree on all other
    variables (a setting W_Y = s_Y) and every base state, the base's closest
    states in the group must give Y its equation's value.  A state is
    "wrong" where its Y differs from its own equation value, which depends
    only on the setting.  A base fails a group when the group's least rank
    in the base's column of `near_t` is that of a wrong state, that is, when
    the least of 2 * rank + [the state is right] over the group is even.

    The groups of every Y with a wrong state are decided together: one
    stable sort of the (Y, key) pairs gathers each group's rows, in state
    order, and one reduction takes every group's least value from every
    base.  The Ys are gathered in chunks that fit `_ARRAY_BUDGET`.  The
    report names the first failure in Y, group (by first state), base and
    candidate order."""
    sig = m.sig
    names = sig.all_names()
    dims = [len(sig.range_of(x)) for x in names]
    codes = m2.codes
    n, k = codes.shape[0], len(sig.exo_names)
    equation = m.equation_codes(codes)
    wrong = codes[:, k:] != equation
    ys = np.flatnonzero(wrong.any(axis=0))
    # per Y, n gathered rows of n ranks, and up to as many group minima and
    # verdicts: 4 + 4 + 1 bytes an entry
    chunk = max(1, structure._ARRAY_BUDGET // (9 * max(1, n * n)))
    for at in range(0, len(ys), chunk):
        part = ys[at : at + chunk]
        # entry w * n + t: state t's setting for the Y part[w]
        keys = np.concatenate([_row_keys(np.delete(codes, k + j, axis=1), dims[: k + j] + dims[k + j + 1 :])
                               for j in part])
        order = np.lexsort((keys, np.repeat(np.arange(len(part)), n)))
        w, state = np.divmod(order, n)
        keys = keys[order]
        edge = np.ones(len(order), dtype=bool)
        edge[1:] = (keys[1:] != keys[:-1]) | (w[1:] != w[:-1])
        starts = np.flatnonzero(edge)
        broken = wrong[state, part[w]]
        doubled = near_t[state]
        doubled *= 2
        doubled += ~broken[:, None]
        least = np.minimum.reduceat(doubled, starts, axis=0)
        group_bad = (least & 1) == 0
        if not strict:
            # centering makes s its own closest state when s has the
            # setting but breaks Y's equation
            hit = np.flatnonzero(broken)
            group_bad[(np.cumsum(edge) - 1)[hit], state[hit]] = False
        failing = np.flatnonzero(group_bad.any(axis=1))
        if failing.size:
            g = failing[np.lexsort((state[starts[failing]], w[starts[failing]]))[0]]
            i = np.flatnonzero(group_bad[g])[0]
            r = starts[g] + np.argmax(doubled[starts[g] :, i] == least[g, i])
            j, first, t = part[w[r]], state[starts[g]], state[r]
            y = sig.endo_names[j]
            s_y = m2.interp[m2.states[first]]
            return ConditionReport(
                ok=False,
                counterexample={
                    "Y": y,
                    "setting": {x: s_y[x] for x in names if x != y},
                    "base_state": m2.states[i],
                    "closest_state": m2.states[t],
                    "expected": sig.range_of(y)[equation[first, j]],
                    "got": m2.interp[m2.states[t]][y],
                },
            )
    return ConditionReport(ok=True)


def _check_condition_b(m2: CfStructure) -> ConditionReport:
    """Every assignment is some state's.  The i-th distinct state row in
    lexicographic order is the i-th assignment up to the first missing one,
    which a binary search finds."""
    names = m2.sig.all_names()
    ranges = [m2.sig.range_of(x) for x in names]
    _, first = np.unique(_row_keys(m2.codes, [len(r) for r in ranges]), return_index=True)
    rows = m2.codes[first].tolist()

    def position(row):
        i = 0
        for v, rng in zip(row, ranges):
            i = i * len(rng) + v
        return i

    missing = bisect.bisect_left(range(len(rows)), True, key=lambda i: position(rows[i]) != i)
    if missing == math.prod(len(r) for r in ranges):
        return ConditionReport(ok=True)
    values = []
    for rng in reversed(ranges):
        missing, v = divmod(missing, len(rng))
        values.append(rng[v])
    return ConditionReport(ok=False, counterexample={"missing": dict(zip(names, reversed(values)))})


def _lattice(full: np.ndarray, reduce) -> np.ndarray:
    """Fill, in place, a lattice of conjunctions: `full` has one axis per
    endogenous variable, whose index 0 leaves the variable free and index
    v + 1 requires its v-th value, then one axis of data per conjunction.
    The entries free at no axis are given; every other one is `reduce`
    over its children at the first axis where it is free."""
    arity = full.ndim - 1
    for axis in range(arity):
        head = (slice(None),) * axis
        tail = (slice(1, None),) * (arity - axis - 1)
        reduce(full[head + (slice(1, None),) + tail], axis=axis, out=full[head + (0,) + tail])
    return full


def _check_condition_c(m2: CfStructure, near_t):
    """Exogenous values must be preserved in the closest psi-states, for all
    conjunctions of endogenous events and all pairwise disjunctions of such
    conjunctions.

    psi fails at base s when some psi-state has s's exogenous values
    (otherwise psi is not consistent with U = u there and the condition
    does not apply) and none of them is strictly closer than every
    psi-state with other exogenous values.  So each conjunction needs two
    vectors over the bases: `min_same[s]`, the least rank from s over
    psi-states with s's exogenous values, and `min_diff[s]`, the least
    rank over the others.  The conjunctions of all endogenous variables
    take them from one reduction over the states grouped by their
    endogenous values; any other conjunction is the disjunction of its
    children at a variable it leaves free, so its vectors are the minima
    of theirs (`_lattice`).  The lattice's order, each variable's free
    index first, is the `itertools.product` order in which conjunctions
    are checked and reported.

    Those of psi1 | psi2 are the elementwise minimum of its disjuncts'.
    So once every conjunction has passed, a disjunction fails at s only
    where exactly one disjunct is "lonely", with no state of s's exogenous
    values, and the other's `min_same` is at least the lonely one's
    `min_diff`: elsewhere min(same1, same2) <= same_i < diff_i for both i.
    The largest `min_same` and smallest `min_diff` over the later
    conjunctions find the first failing pair in `itertools.combinations`
    order.

    The count returned is that of the conjunctions and then the pairs
    checked in those orders, up to and including the first failure, or
    all of them: C + C(C - 1) / 2 for C conjunctions that all pass."""
    sig = m2.sig
    states = m2.states
    n = len(states)
    inf = _MASKED
    k = len(sig.exo_names)
    shape = tuple(len(sig.range_of(y)) + 1 for y in sig.endo_names)
    size = math.prod(shape)  # the conjunctions and, first, the empty one
    # live at once: the two int32 lattices and one int32 suffix array, and
    # three boolean masks as large
    if size * n * 15 > structure._ARRAY_BUDGET:
        raise CorrespondenceError(
            f"condition (c) over {size - 1} conjunctions and {n} states exceeds"
            f" the budget of {structure._ARRAY_BUDGET} bytes"
        )
    exo = _row_keys(m2.codes[:, :k], [len(sig.range_of(x)) for x in sig.exo_names])

    # each state's conjunction of all endogenous variables, and the states
    # sorted by it
    full = np.ravel_multi_index(tuple(m2.codes[:, k:].T + 1), shape)
    grouped = np.argsort(full, kind="stable")
    starts = np.flatnonzero(np.diff(full[grouped], prepend=-1))
    present = full[grouped[starts]]

    def minima(ranks):
        lattice = np.full((size, n), inf, dtype=np.int32)
        lattice[present] = np.minimum.reduceat(ranks, starts, axis=0)
        return _lattice(lattice.reshape(shape + (n,)), np.minimum.reduce).reshape(size, n)[1:]

    sub, same = near_t[grouped], exo[grouped, None] == exo
    conj_same = minima(np.where(same, sub, inf))
    np.copyto(sub, inf, where=same)
    conj_diff = minima(sub)
    del sub, same

    def describe(row):
        wanted = np.unravel_index(row + 1, shape)
        return " & ".join(f"{y}={sig.range_of(y)[v - 1]}" for y, v in zip(sig.endo_names, wanted) if v)

    def failed(psi, base, checked):
        return ConditionReport(ok=False, counterexample={"psi": psi, "base_state": states[base]}), checked

    bad = (conj_same >= conj_diff) & (conj_same != inf)
    rows = np.flatnonzero(bad.any(axis=1))
    if rows.size:
        i = int(rows[0])
        return failed(describe(i), np.flatnonzero(bad[i])[0], i + 1)
    del bad
    count = size - 1

    # At each base, row i of `tail` is first the largest min_same over the
    # conjunctions i, i+1, ... not lonely there (-1 if none), then the
    # smallest min_diff over those lonely there.
    lonely = conj_same == inf
    tail = np.where(lonely, -1, conj_same)
    np.maximum.accumulate(tail[::-1], axis=0, out=tail[::-1])
    partnered = tail[1:] >= conj_diff[:-1]
    partnered &= lonely[:-1]
    tail.fill(inf)
    np.copyto(tail, conj_diff, where=lonely)
    np.minimum.accumulate(tail[::-1], axis=0, out=tail[::-1])
    mate = conj_same[:-1] >= tail[1:]
    np.copyto(mate, False, where=lonely[:-1])
    partnered |= mate
    del tail, lonely, mate
    rows = np.flatnonzero(partnered.any(axis=1))
    del partnered
    if not rows.size:
        return ConditionReport(ok=True), count + count * (count - 1) // 2
    i = int(rows[0])
    pair_same = np.minimum(conj_same[i], conj_same[i + 1 :])
    bad = (pair_same >= np.minimum(conj_diff[i], conj_diff[i + 1 :])) & (pair_same != inf)
    j = int(np.flatnonzero(bad.any(axis=1))[0])
    # the pairs before row i in `itertools.combinations` order, then (i, i + 1 + j)
    checked = count + i * (2 * count - i - 1) // 2 + j + 1
    return failed(f"({describe(i)}) | ({describe(i + 1 + j)})", np.flatnonzero(bad[j])[0], checked)


# ---------------------------------------------------------------------------
# Strong consistency and compatibility


def strongly_consistent(
    m2: CfStructure, s: str, m: CausalModel, u: dict, strict: bool = False
) -> bool:
    """(M', s) is strongly consistent with (M, u): strong correspondence
    holds and s agrees with u on the exogenous variables."""
    if not check_correspondence(m2, m, strong=True, strict=strict).ok:
        return False
    return m.validate_context(u).items() <= m2.interp[s].items()


def compatible(m: CausalModel, m2: CfStructure, strict: bool = False) -> bool:
    """Every context has a strongly consistent state and vice versa.  Under
    strong correspondence every assignment, and so every context, is some
    state's (condition b), and every state's context is one of the model's."""
    return check_correspondence(m2, m, strong=True, strict=strict).ok


def compatible_K(m: CausalModel, m2: CfStructure, K: list[dict], K2: list[str]) -> bool:
    """K and K' are compatible: matching strongly consistent mates in both
    directions.  Model-level compatibility is assumed established."""
    if (K and not K2) or (K2 and not K):
        return False
    exo_names = m.sig.exo_names
    k_keys = {tuple(m.validate_context(u)[n] for n in exo_names) for u in K}
    k2_keys = {tuple(map(m2.interp[s].get, exo_names)) for s in K2}
    return k_keys == k2_keys
