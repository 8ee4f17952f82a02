"""Finite Lewis-style counterfactual structures.

States are total assignments over the signature; per-state closeness is a
preorder given either as ranked tiers (a total preorder, the only form the
file format supports), as ranks computed from per-state data (the
counterpart builder's derived order), or as an arbitrary explicit relation
through the comparator API.  States a base state does not rank are treated
as strictly farther than all ranked ones.

A structure stores each state once, as its row of `codes`: the state's
value indices, one column per variable.  The constructor builds the rows
as it validates the states' assignments, and the counterpart builder
hands over the rows it computes (`CfStructure._from_codes`).  `interp` is
a read-only view that builds a state's assignment afresh from its row at
every lookup, and the value columns are read off `codes` too.

A structure answers every query from two things it builds on first use.
`rank_rows` holds the order's int32 ranks as one row per class of bases
(`ClosenessOrder.rank_rows`; rows past `_ARRAY_BUDGET` raise
StructureError instead): from a base s, every other state t ranks at its
entry in s's class row, and s itself at s's own rank, never above that
row's entry for s.  So the least rank from s over a mask is the least of
the class row over the mask, and s's own rank if s lies in it.  A tier
order has one class per base, its rank matrix; a counterpart has one per
context, Lewis's spheres shared by every world of a context.
`extension(phi)` is the boolean mask over `states` of where phi holds,
cached per formula.  `phi ~> psi` holds at s when every closest
phi-state, the phi-states of least rank from s, satisfies psi: exactly
when the least rank of a phi-state is strictly below the least rank of a
(phi & !psi)-state, so the test (`_ranked_box_arrows`) takes two masked
minima per antecedent and builds no closest set.  Relation orders have no
ranks and find closest states through `leq`.

Masks are built bottom-up from the cached masks of their operands
(`formula.truth_mask`): an event compares one value column, a connective
combines masks, and a box-arrow takes the masked minima of every class
row, then gives each base in the antecedent its own rank.  Every operand
is labelled at every state, so an intervention anywhere in a formula
whose mask is needed raises FormulaError; only `satisfies_at` evaluates
its formula at one state, and there `&` and `|` skip an operand they do
not need.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .formula import Formula, FormulaError, Intervene, Signature, evaluate_prop, truth_mask
from .model import _parse_declaration, _split_statements  # shared with the model DSL


class StructureError(ValueError):
    """Raised for malformed structures or structure files."""


_MASKED = np.iinfo(np.int32).max  # stands in for states outside a mask
_NO_INTERVENTIONS = "interventions are not evaluable in counterfactual structures"
_BASES_KEPT = 16  # `CfStructure.ranks_from` keeps this many bases' rows

# The bytes that the arrays one structure or correspondence check holds at
# once are sized against.  The rank rows of C classes over n states take
# C * n * 4 of them, and past this budget the order raises StructureError
# instead (`_check_rank_rows`).  A rank matrix (C = n) therefore has
# n^2 <= 2^29, so every dense rank is at most n^2, and twice a rank plus
# one stays inside int32.
_ARRAY_BUDGET = 2 << 30


def _check_rank_rows(classes: int, n: int):
    """Raise StructureError where `classes` rank rows over n states would
    take more than `_ARRAY_BUDGET` bytes."""
    if classes * n * 4 > _ARRAY_BUDGET:
        raise StructureError(
            f"the rank rows of {classes} classes over {n} states exceed the budget of {_ARRAY_BUDGET} bytes"
        )


class ClosenessOrder:
    """Closeness from one base state.  `rank` returns a sortable key (smaller
    is closer) or None for unranked states; orders that cannot be expressed
    through ranks set `ranked = False` and give `leq` instead."""

    ranked = True

    def rank(self, base: str, other: str):
        raise NotImplementedError

    def rank_matrix(self, states) -> np.ndarray:
        """R[i, j] < R[i, k] iff states[j] is strictly closer to states[i]
        than states[k] is.  The entries are dense ranks over all keys
        (unranked states get one more than the largest), so they are exact
        whatever the keys are and at most n^2, far below `_MASKED`."""
        ranks = [[self.rank(s, t) for t in states] for s in states]
        level = {r: i for i, r in enumerate(sorted({r for row in ranks for r in row if r is not None}))}
        far = len(level)
        return np.array(
            [[far if r is None else level[r] for r in row] for row in ranks], dtype=np.int32
        ).reshape(len(states), len(states))

    def rank_rows(self, states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cls, rows, own): the int32 ranks from every base, compared as in
        `rank_matrix`, held as one row per class of bases.  From states[s],
        every other state states[t] ranks at rows[cls[s], t], and states[s]
        itself at own[s] <= rows[cls[s], s].  Here every base is its own
        class and `rows` is the rank matrix."""
        n = len(states)
        _check_rank_rows(n, n)
        near = self.rank_matrix(states)
        return np.arange(n), near, near.diagonal()


class TierOrder(ClosenessOrder):
    """Explicit ranked tiers per base state; tier 0 is normally the singleton
    {base} (the file format inserts it implicitly).  A state named twice in
    one base's tiers raises StructureError: it would have no single rank."""

    def __init__(self, tiers: dict[str, list[frozenset[str]]]):
        for s, ts in tiers.items():
            named = [st for tier in ts for st in tier]
            if len(set(named)) != len(named):
                twice = next(st for st in named if named.count(st) > 1)
                raise StructureError(f"order for {s} names a state twice: {twice}")
        self.tiers = {s: [frozenset(t) for t in ts] for s, ts in tiers.items()}
        self._rank = {
            s: {st: i for i, tier in enumerate(ts) for st in tier}
            for s, ts in self.tiers.items()
        }

    def rank(self, base, other):
        return self._rank.get(base, {}).get(other)


class RelationOrder(ClosenessOrder):
    """Arbitrary preorder from explicit (s, t, u) triples: t is at least as
    close to s as u is.  Supports partial preorders."""

    ranked = False

    def __init__(self, triples):
        self.triples = set(triples)

    def leq(self, base, t, other):
        return (base, t, other) in self.triples

    def rank(self, base, other):
        raise StructureError("relation orders have no numeric ranks")


class CfStructure:
    """A structure over the states of `interp`, a mapping from each state
    name to its assignment.  The assignments are checked and kept only as
    `codes`; `interp` is a read-only view that builds each one afresh."""

    def __init__(
        self,
        sig: Signature,
        interp: Mapping[str, Mapping],
        order: ClosenessOrder,
        name: str = "structure",
    ):
        names = sig.all_names()
        # each state's value indices, one column per variable of `all_names()`
        asgns = list(interp.values())
        try:
            columns = [[ix[asgn[n]] for asgn in asgns] for n, ix in sig.value_index.items()]
        except (KeyError, TypeError):  # a missing variable, or a value outside its range
            _reject_states(sig, interp)
        if any(len(asgn) > len(names) for asgn in asgns):
            _reject_states(sig, interp)
        codes = np.array(columns, dtype=np.intp).reshape(len(names), len(asgns)).T
        self._adopt(sig, tuple(interp), codes, order, name)

    @classmethod
    def _from_codes(cls, sig: Signature, states, codes: np.ndarray, order: ClosenessOrder, name: str):
        """The structure whose state states[i] has the value indices
        codes[i], one column per variable of `all_names()`, unchecked."""
        m = cls.__new__(cls)
        m._adopt(sig, tuple(states), codes, order, name)
        return m

    def _adopt(self, sig, states, codes, order, name):
        self.sig = sig
        self.name = name
        self.states = states
        self.order = order
        self.codes = codes
        self.codes.flags.writeable = False
        self._position = {s: i for i, s in enumerate(states)}
        self.interp = _Assignments(self)
        self._extensions: dict[Formula, np.ndarray] = {}
        self._ranks_from: dict[int, np.ndarray] = {}

    # -- queries

    @cached_property
    def rank_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The order's (cls, rows, own) over `states`, built on first use
        (`ClosenessOrder.rank_rows`) and read-only.  Raises StructureError
        for relation orders, and where the rows would take more than
        `_ARRAY_BUDGET` bytes."""
        ranks = self.order.rank_rows(self.states)
        for part in ranks:
            part.flags.writeable = False  # shared by every query
        return ranks

    def ranks_from(self, i: int) -> np.ndarray:
        """The rank of every state from states[i]: its class row, with its
        own rank at column i.  The rows of the last `_BASES_KEPT` bases
        asked for are kept."""
        row = self._ranks_from.get(i)
        if row is None:
            cls, rows, own = self.rank_rows
            row = rows[cls[i]]
            if row[i] != own[i]:
                row = row.copy()
                row[i] = own[i]
                row.flags.writeable = False
            if len(self._ranks_from) == _BASES_KEPT:
                del self._ranks_from[next(iter(self._ranks_from))]
            self._ranks_from[i] = row
        return row

    def index_of(self, s: str) -> int:
        """The position of state s in `states`; StructureError if s is not
        a state."""
        i = self._position.get(s)
        if i is None:
            raise StructureError(f"unknown state {s!r}")
        return i

    def extension(self, phi: Formula) -> np.ndarray:
        """The boolean mask over `states` of where phi holds, cached per
        formula and built from the cached masks of phi's operands: every
        operand is evaluated at every state, so an intervention anywhere
        in phi raises FormulaError."""
        return truth_mask(phi, self._columns, len(self.states), self._modal_mask, self._extensions)

    def satisfies_at(self, s: str, phi: Formula) -> bool:
        """Evaluate a counterfactual formula at state s.  Interventions are a
        causal-model construct and are rejected; box-arrows nest freely."""
        return self._holds(self.index_of(s), phi)

    def closest_states(self, s: str, phi: Formula) -> frozenset[str]:
        """{ t : t satisfies phi, no phi-state is strictly closer to s }."""
        closest = self._closest(self.index_of(s), self.extension(phi))
        return frozenset(self.states[j] for j in np.flatnonzero(closest))

    def box_arrows(self, s: str, antecedents: np.ndarray, consequent: np.ndarray,
                   allow_vacuous: bool) -> np.ndarray:
        """For each row of the r x n boolean matrix `antecedents`, whether
        every closest state from s within it lies in the mask `consequent`;
        a row with no states passes only with `allow_vacuous`.  A single
        mask gives a single answer."""
        return self._box_arrows(self.index_of(s), antecedents, consequent, allow_vacuous)

    @cached_property
    def _columns(self) -> dict[str, np.ndarray]:
        """Each variable's values over `states`."""
        sig = self.sig
        return {x: np.array(sig.range_of(x))[col] for x, col in zip(sig.all_names(), self.codes.T)}

    def _holds(self, i: int, phi: Formula) -> bool:
        def modal(node):
            if isinstance(node, Intervene):
                raise FormulaError(_NO_INTERVENTIONS)
            ext = self.extension
            return bool(self._box_arrows(i, ext(node.antecedent), ext(node.consequent), True))

        return evaluate_prop(phi, self.interp[self.states[i]], modal)

    def _box_arrows(self, i, antecedents, consequent, allow_vacuous):
        """`box_arrows` from states[i]: by `_ranked_box_arrows` over its
        ranks, or, for relation orders, from the closest states."""
        if self.order.ranked:
            ranks = np.where(antecedents, self.ranks_from(i), _MASKED)
            least, failing = _least_ranks(ranks, ~consequent)
            return _ranked_box_arrows(least, failing, allow_vacuous)
        closest = self._closest(i, antecedents)
        passes = ~(closest & ~consequent).any(axis=-1)
        return passes if allow_vacuous else passes & closest.any(axis=-1)

    def _modal_mask(self, node: Formula, *masks: np.ndarray) -> np.ndarray:
        """The mask of a box-arrow from its antecedent's and consequent's
        masks: the states from which every closest antecedent state
        satisfies the consequent (vacuously where there is none)."""
        if isinstance(node, Intervene):
            raise FormulaError(_NO_INTERVENTIONS)
        ant, cons = masks
        if self.order.ranked:
            # every class row's two minima over the antecedent states, then
            # each base inside the antecedent at its own rank
            cls, rows, own = self.rank_rows
            least, failing = (part[cls] for part in _least_ranks(rows.compress(ant, axis=1), ~cons[ant]))
            np.minimum(least, own, out=least, where=ant)
            np.minimum(failing, own, out=failing, where=ant & ~cons)
            return _ranked_box_arrows(least, failing, True)
        n = len(self.states)
        return np.array([self._box_arrows(i, ant, cons, True) for i in range(n)], dtype=bool).reshape(n)

    def _closest(self, i: int, mask: np.ndarray) -> np.ndarray:
        """The states in `mask` to which no state in `mask` is strictly
        closer from states[i]: those of least rank from it, or, for
        relation orders, the minimal elements under `leq`.  For a matrix of
        masks, one such row per mask."""
        if self.order.ranked:
            ranks = np.where(mask, self.ranks_from(i), _MASKED)
            return mask & (ranks == ranks.min(axis=-1, initial=_MASKED, keepdims=True))
        if mask.ndim == 2:
            return np.array([self._closest(i, row) for row in mask], dtype=bool).reshape(mask.shape)
        s, leq = self.states[i], self.order.leq
        sat = [self.states[j] for j in np.flatnonzero(mask)]
        return np.array(
            [ok and not any(leq(s, u, t) and not leq(s, t, u) for u in sat)
             for t, ok in zip(self.states, mask)],
            dtype=bool,
        )


class _Assignments(Mapping):
    """`CfStructure.interp`: each state's assignment, a new dict built from
    its row of `codes` at every lookup."""

    def __init__(self, m: CfStructure):
        # m's parts, not m, so that the view makes no reference cycle
        self._states, self._codes, self._position = m.states, m.codes, m._position
        self._names = m.sig.all_names()
        self._ranges = [m.sig.range_of(x) for x in self._names]

    def __getitem__(self, s: str) -> dict:
        row = self._codes[self._position[s]].tolist()
        return {x: rng[c] for x, rng, c in zip(self._names, self._ranges, row)}

    def __iter__(self):
        return iter(self._states)

    def __len__(self):
        return len(self._states)


def _least_ranks(ranks: np.ndarray, outside: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of `ranks`, the ranks of the antecedent's states from one
    base (`_MASKED`, or no column, for the other states): the least rank,
    and the least over the columns `outside` marks, those that fail the
    consequent."""
    return (np.minimum.reduce(ranks, axis=-1, initial=_MASKED),
            np.minimum.reduce(ranks.compress(outside, axis=-1), axis=-1, initial=_MASKED))


def _ranked_box_arrows(least: np.ndarray, failing: np.ndarray, allow_vacuous: bool) -> np.ndarray:
    """The box-arrow test of a ranked order from `_least_ranks`: every
    closest antecedent state satisfies the consequent exactly when the
    least rank over the antecedent is strictly below the least rank over
    its states outside the consequent.  With no antecedent state the least
    rank is `_MASKED`, and the test passes only with `allow_vacuous`."""
    passes = least < failing
    return passes | (least == _MASKED) if allow_vacuous else passes


def _reject_states(sig: Signature, interp: dict[str, dict]):
    """Raise StructureError for the first state that misses a variable,
    gives one a value outside its range, or assigns an undeclared one."""
    names = sig.all_names()
    for s, asgn in interp.items():
        for n in names:
            if n not in asgn:
                raise StructureError(f"state {s} is missing a value for {n}")
            if asgn[n] not in sig.range_of(n):
                raise StructureError(f"state {s}: value {asgn[n]!r} outside the range of {n}")
        if len(asgn) > len(names):
            extra = ", ".join(sorted(set(asgn) - set(names)))
            raise StructureError(f"state {s} assigns undeclared variable {extra}")
    raise AssertionError("every state is valid")


@dataclass
class OrderViolation:
    kind: str  # "centering" | "reflexivity" | "transitivity" | "unranked-self"
    states: tuple[str, ...]

    def __str__(self):
        return f"{self.kind} violation at {self.states}"


def validate_structure(m: CfStructure) -> list[OrderViolation]:
    """Check reflexivity/transitivity and centering; an empty report means ok.
    For rank-based orders reflexivity and transitivity hold by construction,
    so only centering is checked, on the rank rows: it reports every state
    its own order leaves unranked, up to the first state s that ranks some
    other state at least as close as s itself.  Explicit relation orders get
    the full triple check."""
    order = m.order
    if order.ranked:
        n = len(m.states)
        unranked = [i for i, s in enumerate(m.states) if order.rank(s, s) is None]
        cls, rows, own = m.rank_rows
        # the least rank from each base to another state: the least of its
        # class row, or the next one up where the base itself holds the least
        two = np.partition(rows, 1, axis=1)[:, :2] if n > 1 else np.full((len(rows), 2), _MASKED)
        least, after = two[cls, 0], two[cls, 1]
        crowded = np.where(rows[cls, np.arange(n)] == least, after, least) <= own
        crowded[unranked] = False
        end = int(np.argmax(crowded)) if crowded.any() else n
        violations = [OrderViolation("unranked-self", (m.states[i],)) for i in unranked if i < end]
        if end < n:
            rivals = m.ranks_from(end) <= own[end]
            rivals[end] = False
            violations.append(OrderViolation("centering", (m.states[end], m.states[np.argmax(rivals)])))
        return violations
    for s in m.states:
        for t in m.states:
            if not order.leq(s, t, t):
                return [OrderViolation("reflexivity", (s, t))]
        for t, v, w in itertools.product(m.states, repeat=3):
            if order.leq(s, t, v) and order.leq(s, v, w) and not order.leq(s, t, w):
                return [OrderViolation("transitivity", (s, t, v, w))]
        for t in m.states:
            if t != s and not (order.leq(s, s, t) and not order.leq(s, t, s)):
                return [OrderViolation("centering", (s, t))]
    return []


# ---------------------------------------------------------------------------
# Structure DSL (.cfs files)


def parse_structure(
    text: str,
    sig: Signature | None = None,
    load_model=None,
    name_hint: str = "structure",
) -> CfStructure:
    """Parse the structure DSL:

        structure IDENT over MODELFILE      (optional signature reuse)
        exo IDENT : { VALUE, ... }          (inline signature, if no `over`)
        var IDENT : { VALUE, ... }
        state IDENT { VAR=VALUE, ... }
        order IDENT : { IDS } ; { IDS }     (tiers after the implicit {self})
        order derived weighted-violations

    With `order derived weighted-violations` the file's own states are
    ignored in favour of the counterpart builder's all-assignments state
    space, the only one the derived order is defined on, so the structure
    must be `over` a model.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    body = "\n".join(lines)

    name = name_hint
    model = None
    exo: list[tuple[str, tuple[str, ...]]] = []
    endo: list[tuple[str, tuple[str, ...]]] = []
    states: dict[str, dict] = {}
    tiers: dict[str, list[list[str]]] = {}
    derived = False

    for stmt in _split_statements(body):
        head = stmt.split(None, 1)[0]
        if head == "structure":
            parts = stmt.split()
            if len(parts) < 2:
                raise StructureError(f"structure line needs a name: {stmt!r}")
            name = parts[1]
            if len(parts) >= 4 and parts[2] == "over":
                if load_model is None:
                    raise StructureError("structure references a model file but no loader was given")
                model = load_model(parts[3])
                sig = model.sig
        elif head in ("exo", "var"):
            (exo if head == "exo" else endo).append(_parse_declaration(stmt))
        elif head == "state":
            rest = stmt[5:].strip()
            sid, _, assigns = rest.partition("{")
            sid = sid.strip()
            if sid in states:
                raise StructureError(f"duplicate state {sid}")
            assigns = assigns.rstrip("}").strip()
            asgn = {}
            if assigns:
                for pair in assigns.split(","):
                    var, _, val = pair.partition("=")
                    asgn[var.strip()] = val.strip()
            states[sid] = asgn
        elif head == "order":
            rest = stmt[5:].strip()
            if rest.startswith("derived"):
                mode = rest.split(None, 1)[1].strip() if " " in rest else ""
                if mode != "weighted-violations":
                    raise StructureError(f"unknown derived order {mode!r}")
                derived = True
                continue
            sid, _, tier_text = rest.partition(":")
            sid = sid.strip()
            if sid in tiers:
                raise StructureError(f"two orders for state {sid}")
            out = []
            for tier in tier_text.split(";"):
                tier = tier.strip().strip("{}").strip()
                if tier:
                    out.append([x.strip() for x in tier.split(",")])
            tiers[sid] = out
        else:
            raise StructureError(f"unrecognized statement: {stmt!r}")

    if sig is None:
        if not endo:
            raise StructureError("structure needs a signature: `over MODEL` or exo/var declarations")
        sig = Signature(tuple(exo), tuple(endo))

    if derived:
        if model is None:
            raise StructureError("`order derived weighted-violations` requires `over MODELFILE`")
        from .correspondence import build_counterpart  # correspondence imports this module

        built, _ = build_counterpart(model)
        built.name = name
        return built

    for sid, ts in tiers.items():
        if sid not in states:
            raise StructureError(f"order for unknown state {sid}")
        for tier in ts:
            for other in tier:
                if other not in states:
                    raise StructureError(f"order for {sid} names unknown state {other}")
    # Implicit tier 0 = {self}; remaining tiers shift by one.
    full_tiers = {sid: [frozenset({sid})] + tiers.get(sid, []) for sid in states}
    return CfStructure(sig, states, TierOrder(full_tiers), name=name)


def structure_to_text(m: CfStructure, over: str | None = None) -> str:
    """The structure file for m; `over` names the model file the first line
    refers to, which a derived order requires."""
    out = [f"structure {m.name}" + (f" over {over}" if over is not None else "")]
    for n, rng in m.sig.exogenous:
        out.append(f"exo {n} : {{ {', '.join(rng)} }}")
    for n, rng in m.sig.endogenous:
        out.append(f"var {n} : {{ {', '.join(rng)} }}")
    for s, values in m.interp.items():
        asgn = ", ".join(f"{n}={v}" for n, v in values.items())
        out.append(f"state {s} {{ {asgn} }}")
    if isinstance(m.order, TierOrder):
        for s in m.states:
            # the file puts {s} first and names s nowhere else, which
            # TierOrder's one-rank-per-state check then guarantees
            first, *rest = m.order.tiers.get(s) or [None]
            if first != frozenset({s}):
                raise StructureError(f"the order for {s} does not start with the tier {{ {s} }} alone,"
                                     " which the structure file cannot express")
            outside = sorted(t for tier in rest for t in tier if t not in m._position)
            if outside:
                raise StructureError(f"the order for {s} names {outside[0]}, not a state of the structure,"
                                     " which the structure file cannot express")
            if rest:
                text = " ; ".join("{ " + ", ".join(sorted(t)) + " }" for t in rest)
                out.append(f"order {s} : {text}")
    else:
        from .correspondence import CounterpartOrder  # correspondence imports this module

        # the file can only ask for the derived order over all assignments
        if not (isinstance(m.order, CounterpartOrder) and m.states == m.order.states):
            raise StructureError(f"a {type(m.order).__name__} cannot be written as a structure file")
        if over is None:
            raise StructureError("a derived order is written only `over` the model file it is derived from")
        out.append("order derived weighted-violations")
    return "\n".join(out) + "\n"
