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
`equation_codes` (below), which lays each equation out as a table of
value indices over its parents' and maps those rows through it.  A state
violates Y's equation where the two codes of Y differ; the builder weighs
those violations, and condition (a) calls such states "wrong".

The builder's order ranks t from s by d_s(t), so apart from s itself the
rank depends on s only through s's exogenous values: one rank row per
context holds every rank (`CounterpartOrder.rank_rows`), and s ranks
itself below every other state.  The checker reads the structure's rank
rows (`CfStructure.rank_rows`), one per class of bases: a tier order's
are its rank matrix, a counterpart's one per context.  Condition (a)
groups the states that agree on every variable but Y by one integer key
per state (where it fits in int64, the mixed-radix key of all the
variables less Y's digit), sorts the groups of every Y at once and takes
each group's least rank over every class row in one reduction; a base
inside a group also reads its own rank.  Condition (c) first sets aside
the classes whose ranks to their own context lie below their ranks to any
other, where nothing can fail: all of a counterpart's.  For the rest it keeps,
per conjunction of endogenous events, the least rank over its states
with the row's exogenous values and over those with other values.  It
reduces the states once per conjunction of all endogenous variables, and
derives every coarser conjunction's minima from its children on the
lattice of conjunctions, where a free variable's index comes first, as
in the order conjunctions are checked.  It finds the first failing
pairwise disjunction from the largest and smallest of those vectors over
the later conjunctions, and counts the formulas checked
(`checkedPsiCount`) from the failure's position.  Condition (a) gathers
its Ys in chunks that fit `structure._ARRAY_BUDGET`, and condition (c)
raises CorrespondenceError where the arrays it holds at once would
exceed it.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import CausalModel
from .structure import _MASKED, CfStructure, ClosenessOrder
# after the line above, which binds `structure` on the package: importing
# it here first would ask the package's lazy `__getattr__` for it while
# this module is half loaded
from . import structure


class CorrespondenceError(ValueError):
    pass


DEFAULT_STATE_CAP = 10**6


# ---------------------------------------------------------------------------
# Builder


class CounterpartOrder(ClosenessOrder):
    """The derived order d_s(t) over the builder's `states`, kept as arrays
    in the order of `states`: `exo` holds each state's exogenous value
    indices (one row per state) and `viol` its violation cost (Python ints,
    exact at any size).  The builder names the state of row i `s{i}`, so a
    state's name gives its row."""

    def __init__(self, states: tuple[str, ...], exo: np.ndarray, viol: list[int]):
        self.states = states
        self.exo = exo
        self.viol = viol

    def rank(self, base, other):
        i, j = int(base[1:]), int(other[1:])
        return (int(base != other), int(np.count_nonzero(self.exo[i] != self.exo[j])), self.viol[j])

    def unranked(self, states):
        return []  # every state ranks itself, at its level

    def rank_rows(self, states):
        """One row per context, the k exogenous values that its bases share:
        a state t ranks at (#exogenous differences from the context + k + 1)
        * L + level(t) from every base but itself, where level(t) is the
        dense rank of viol(t) among the L costs.  A base ranks at its own
        level, below (k + 1) * L.  Every rank is below (2k + 2) n."""
        rows_of = slice(None) if states is self.states else [int(s[1:]) for s in states]
        exo = self.exo[rows_of]
        viol = self.viol if states is self.states else [self.viol[i] for i in rows_of]
        level = {c: i for i, c in enumerate(sorted(set(viol)))}
        own = np.array([level[c] for c in viol], dtype=np.int32)
        n, k = exo.shape
        _, first, cls = np.unique(_row_keys(exo, exo.max(axis=0, initial=0) + 1), return_index=True,
                                  return_inverse=True)
        structure._check_rank_rows(len(first), n)
        rows = np.full((len(first), n), k + 1, dtype=np.int32)
        for col in exo.T:
            rows += col[first, None] != col
        rows *= len(level)
        rows += own
        return cls, rows, own


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


def equation_codes(m: CausalModel, codes: np.ndarray) -> np.ndarray:
    """Every equation of m applied to every row of `codes`, a matrix of
    value indices with one column per variable of `sig.all_names()`: row
    r, column j is the index in Y's range of F_Y(row r), for the j-th
    endogenous Y.  Each equation is read through its table of value
    indices, laid out densely over its parents' value indices, which the
    model's compile-time size check bounds."""
    sig = m.sig
    column = {n: c for c, n in enumerate(sig.all_names())}
    out = np.empty((len(codes), len(sig.endo_names)), dtype=np.intp)
    for j, x in enumerate(sig.endo_names):
        index, equation = sig.value_index[x], m._tables[x]
        ranges = [sig.range_of(p) for p in m.parents[x]]
        table = np.array([index[equation[key]] for key in itertools.product(*ranges)], dtype=np.intp)
        row = np.zeros(len(codes), dtype=np.intp)
        for p, rng in zip(m.parents[x], ranges):
            row = row * len(rng) + codes[:, column[p]]
        out[:, j] = table[row]
    return out


def build_counterpart(m: CausalModel, state_cap: int = DEFAULT_STATE_CAP):
    """All-assignments counterfactual structure for m, with the weighted
    violation cost order.  Returns (structure, context -> state id map)."""
    size = state_space_size(m)
    if size > state_cap:
        raise CorrespondenceError(f"state space of {size} states exceeds the cap of {state_cap}")

    sig = m.sig
    names = sig.all_names()
    dims = [len(sig.range_of(n)) for n in names]
    states = tuple(f"s{i}" for i in range(size))
    # State i's value indices are the mixed-radix digits of i; the
    # exogenous variables come first.
    codes = np.array(np.unravel_index(np.arange(size), dims), dtype=np.intp).T
    k = len(sig.exo_names)

    n_endo = len(sig.endo_names)
    depth = endo_depths(m)
    weights = np.array([(n_endo + 1) ** (n_endo - depth[y]) for y in sig.endo_names], dtype=object)
    # Python ints, exact however far the sums pass 2^63
    viol = ((codes[:, k:] != equation_codes(m, codes)).astype(object) @ weights).tolist()

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

    ranks = m2.rank_rows
    report = CorrespondenceReport(condition_a=_check_condition_a(m2, m, strict, ranks))
    if strong:
        report.condition_b = _check_condition_b(m2)
        report.condition_c, report.checked_psi_count = _check_condition_c(m2, ranks)
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


def _check_condition_a(m2: CfStructure, m: CausalModel, strict: bool, ranks) -> ConditionReport:
    """For every endogenous Y, every group of states that agree on all other
    variables (a setting W_Y = s_Y) and every base state, the base's closest
    states in the group must give Y its equation's value.  A state is
    "wrong" where its Y differs from its own equation value, which depends
    only on the setting.  A base fails a group when the group's least rank
    from the base is that of a wrong state, that is, when the least of
    2 * rank + [the state is right] over the group is even.

    The groups of every Y with a wrong state are decided together: one
    stable sort of the (Y, key) pairs gathers each group's states, in state
    order, and one reduction takes every group's least value over every
    class row of `ranks` (`CfStructure.rank_rows`).  A base outside the
    group reads its class's least; a base inside it may be closer to
    itself, so it reads the least of that and its own value.  The Ys are
    gathered in chunks that fit `_ARRAY_BUDGET`.  The report names the
    first failure in Y, group (by first state), base and candidate order."""
    cls, rows, own = ranks
    sig = m.sig
    names = sig.all_names()
    dims = [len(sig.range_of(x)) for x in names]
    codes = m2.codes
    n, k = codes.shape[0], len(sig.exo_names)
    c = len(rows)
    class_size = np.bincount(cls, minlength=c)
    equation = equation_codes(m, codes)
    wrong = codes[:, k:] != equation
    ys = np.flatnonzero(wrong.any(axis=0))
    # where the mixed-radix key of all the variables fits, a Y's setting
    # key is that key less Y's digit: equal where, and ordered as, the keys
    # `_row_keys` gives the other columns
    stride = None
    if math.prod(dims) <= _KEY_LIMIT:
        stride = np.array([math.prod(dims[i + 1 :]) for i in range(len(dims))], dtype=np.int64)
        full = codes @ stride
    # per Y, c rows of n gathered ranks, and up to as many group minima and
    # verdicts: 4 + 4 + 1 bytes an entry
    chunk = max(1, structure._ARRAY_BUDGET // (9 * max(1, n * c)))
    for at in range(0, len(ys), chunk):
        part = ys[at : at + chunk]
        # entry w * n + t: state t's setting for the Y part[w]
        if stride is None:
            keys = np.concatenate([_row_keys(np.delete(codes, k + j, axis=1), dims[: k + j] + dims[k + j + 1 :])
                                   for j in part])
        else:
            keys = (full - codes[:, k + part].T * stride[k + part, None]).ravel()
        order = np.lexsort((keys, np.repeat(np.arange(len(part)), n)))
        w, state = np.divmod(order, n)
        keys = keys[order]
        edge = np.ones(len(order), dtype=bool)
        edge[1:] = (keys[1:] != keys[:-1]) | (w[1:] != w[:-1])
        starts = np.flatnonzero(edge)
        group = np.cumsum(edge) - 1
        right = ~wrong[state, part[w]]
        # row: a class; column: a gathered state, then a group
        doubled = rows.take(state, axis=1)
        doubled *= 2
        doubled += right
        least = np.minimum.reduceat(doubled, starts, axis=1)
        del doubled
        # each group's members, as bases
        inside = np.minimum(least[cls[state], group], 2 * own[state] + right)
        member_bad = (inside & 1) == 0
        if not strict:
            # centering makes s its own closest state when s has the
            # setting but breaks Y's equation
            member_bad &= right
        # each class's verdict for its bases outside the group, of which a
        # class with every state inside the group has none
        class_bad = (least & 1) == 0
        groups = len(starts)
        met, count = np.unique(cls[state] * groups + group, return_counts=True)
        class_bad.flat[met[count == class_size[met // groups]]] = False
        failing = np.flatnonzero(class_bad.any(axis=0) | np.logical_or.reduceat(member_bad, starts))
        if failing.size:
            g = failing[np.lexsort((state[starts[failing]], w[starts[failing]]))[0]]
            span = slice(starts[g], starts[g + 1] if g + 1 < groups else len(order))
            base_bad = class_bad[cls, g]
            base_bad[state[span]] = member_bad[span]
            i = np.argmax(base_bad)
            values = 2 * m2.ranks_from(i)[state[span]] + right[span]
            j, first, t = part[w[starts[g]]], state[starts[g]], state[span][np.argmax(values == values.min())]
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


def _open_columns(exo: np.ndarray, cls, rows, own):
    """The rank columns condition (c) must decide: the row of `rows` each
    column reads, the bases whose own rank it holds at their own column,
    and the column each base reads (-1 for none).

    Split each class of bases by context, the states' exogenous values.  A
    part is closed when every rank of its row to a state of its context is
    below every rank to a state of another.  From a base of a closed part,
    whose own rank is no higher than its row's, the closest states of any
    psi with a state of the base's context lie in that context, so no
    conjunction and no pair fails there.  A counterpart's classes are all
    closed: ranks to the own context lie below (k + 2) * L and ranks to any
    other at or above it.  An open part gets one column for its bases whose
    own rank is the row's, and a base closer to itself than its row says
    gets a column of its own."""
    n = len(cls)
    part, row_of, split = cls, np.arange(len(rows)), rows
    part_exo = np.zeros(len(rows), dtype=exo.dtype)
    part_exo[cls] = exo
    if (part_exo[cls] != exo).any():
        _, context = np.unique(exo, return_inverse=True)
        _, first, part = np.unique(cls * (n + 1) + context, return_index=True, return_inverse=True)
        row_of, part_exo = cls[first], exo[first]
        split = rows[row_of]
    same = part_exo[:, None] == exo
    top = np.maximum.reduce(split, axis=1, where=same, initial=-1)
    np.logical_not(same, out=same)
    opened = (top >= np.minimum.reduce(split, axis=1, where=same, initial=_MASKED))[part]
    del same, split
    solo = np.flatnonzero(opened & (own < rows[cls, np.arange(n)]))
    opened[solo] = False
    col_of = np.full(n, -1)
    shared, col_of[opened] = np.unique(part[opened], return_inverse=True)
    col_of[solo] = len(shared) + np.arange(len(solo))
    return np.concatenate([row_of[shared], cls[solo]]), solo, col_of


def _check_condition_c(m2: CfStructure, ranks):
    """Exogenous values must be preserved in the closest psi-states, for all
    conjunctions of endogenous events and all pairwise disjunctions of such
    conjunctions.

    psi fails at base s when some psi-state has s's exogenous values
    (otherwise psi is not consistent with U = u there and the condition
    does not apply) and none of them is strictly closer than every
    psi-state with other exogenous values.  So each conjunction needs two
    vectors over the bases: `min_same[s]`, the least rank from s over
    psi-states with s's exogenous values, and `min_diff[s]`, the least
    rank over the others.  Bases that read one rank row share them, and
    only the columns of `_open_columns` can fail, so the vectors run over
    those columns, none for a counterpart.  The conjunctions of all
    endogenous variables take them from one reduction over the states
    grouped by their endogenous values; any other conjunction is the
    disjunction of its children at a variable it leaves free, so its
    vectors are the minima of theirs (`_lattice`).  The lattice's order,
    each variable's free index first, is the `itertools.product` order in
    which conjunctions are checked and reported.

    Those of psi1 | psi2 are the elementwise minimum of its disjuncts'.
    So once every conjunction has passed, a disjunction fails at s only
    where exactly one disjunct is "lonely", with no state of s's exogenous
    values, and the other's `min_same` is at least the lonely one's
    `min_diff`: elsewhere min(same1, same2) <= same_i < diff_i for both i.
    The largest `min_same` and smallest `min_diff` over the later
    conjunctions find the first failing pair in `itertools.combinations`
    order.  The base reported is the first state that reads a failing
    column.

    The count returned is that of the conjunctions and then the pairs
    checked in those orders, up to and including the first failure, or
    all of them: C + C(C - 1) / 2 for C conjunctions that all pass."""
    cls, rows, own = ranks
    sig = m2.sig
    states = m2.states
    n = len(states)
    inf = _MASKED
    k = len(sig.exo_names)
    shape = tuple(len(sig.range_of(y)) + 1 for y in sig.endo_names)
    size = math.prod(shape)  # the conjunctions and, first, the empty one
    count = size - 1
    exo = _row_keys(m2.codes[:, :k], [len(sig.range_of(x)) for x in sig.exo_names])
    col_cls, solo, col_of = _open_columns(exo, cls, rows, own)
    width = len(col_cls)
    if not width:
        return ConditionReport(ok=True), count + count * (count - 1) // 2
    # live at once: the two int32 lattices and one int32 suffix array, and
    # three boolean masks as large; the states' int32 ranks and boolean
    # masks before them
    if (size * 15 + n * 5) * width > structure._ARRAY_BUDGET:
        raise CorrespondenceError(
            f"condition (c) over {count} conjunctions and {width} rank rows exceeds"
            f" the budget of {structure._ARRAY_BUDGET} bytes"
        )

    # each state's conjunction of all endogenous variables, and the states
    # sorted by it
    full = np.ravel_multi_index(tuple(m2.codes[:, k:].T + 1), shape)
    grouped = np.argsort(full, kind="stable")
    starts = np.flatnonzero(np.diff(full[grouped], prepend=-1))
    present = full[grouped[starts]]

    def minima(ranks):
        lattice = np.full((size, width), inf, dtype=np.int32)
        lattice[present] = np.minimum.reduceat(ranks, starts, axis=0)
        return _lattice(lattice.reshape(shape + (width,)), np.minimum.reduce).reshape(size, width)[1:]

    # row r, column j: the rank of state grouped[r] from the bases of column j
    sub = rows.T[np.ix_(grouped, col_cls)]
    position = np.empty(n, dtype=np.intp)
    position[grouped] = np.arange(n)
    sub[position[solo], width - len(solo) + np.arange(len(solo))] = own[solo]
    col_exo = np.empty(width, dtype=exo.dtype)
    col_exo[col_of[col_of >= 0]] = exo[col_of >= 0]
    same = exo[grouped, None] == col_exo
    conj_same = minima(np.where(same, sub, inf))
    np.copyto(sub, inf, where=same)
    conj_diff = minima(sub)
    del sub, same

    def describe(row):
        wanted = np.unravel_index(row + 1, shape)
        return " & ".join(f"{y}={sig.range_of(y)[v - 1]}" for y, v in zip(sig.endo_names, wanted) if v)

    def failed(psi, columns, checked):
        base = np.argmax(np.append(columns, False)[col_of])  # -1 reads the appended False
        return ConditionReport(ok=False, counterexample={"psi": psi, "base_state": states[base]}), checked

    bad = (conj_same >= conj_diff) & (conj_same != inf)
    hits = np.flatnonzero(bad.any(axis=1))
    if hits.size:
        i = int(hits[0])
        return failed(describe(i), bad[i], i + 1)
    del bad

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
    hits = np.flatnonzero(partnered.any(axis=1))
    del partnered
    if not hits.size:
        return ConditionReport(ok=True), count + count * (count - 1) // 2
    i = int(hits[0])
    pair_same = np.minimum(conj_same[i], conj_same[i + 1 :])
    bad = (pair_same >= np.minimum(conj_diff[i], conj_diff[i + 1 :])) & (pair_same != inf)
    j = int(np.flatnonzero(bad.any(axis=1))[0])
    # the pairs before row i in `itertools.combinations` order, then (i, i + 1 + j)
    checked = count + i * (2 * count - i - 1) // 2 + j + 1
    return failed(f"({describe(i)}) | ({describe(i + 1 + j)})", bad[j], checked)


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
