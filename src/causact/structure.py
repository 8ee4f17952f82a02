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
every lookup, and the value columns are read off `codes` too.  A
structure answers every query from two things it builds on first use:
`near`, the order's n x n int32 matrix of dense ranks (row s ranks every
state from base s; a matrix past `_ARRAY_BUDGET` raises StructureError
instead), and `extension(phi)`, the boolean mask over `states` of where
phi holds, cached per formula.  `phi ~> psi` holds at s when every
closest phi-state, the phi-states of least rank in row s, satisfies psi:
exactly when the least rank of a phi-state is strictly below the least
rank of a (phi & !psi)-state, so the test (`_ranked_box_arrows`) takes two
masked minima per antecedent and builds no closest set.  Relation orders
have no ranks and find closest states through `leq`.

Masks are built bottom-up from the cached masks of their operands
(`formula.truth_mask`): an event compares one value column, a connective
combines masks, and a box-arrow takes the masked row minima of `near` for
all states at once.  Every operand is labelled at every state, so an
intervention anywhere in a formula whose mask is needed raises
FormulaError; only `satisfies_at` evaluates its formula at one state, and
there `&` and `|` skip an operand they do not need.
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

# The bytes that the arrays one structure or correspondence check holds at
# once are sized against.  The rank matrix of n states takes n * n * 4 of
# them, and past this budget the structure raises StructureError instead.
# So n^2 stays at most 2^29, every dense rank at most n^2, and twice a rank
# plus one inside int32.
_ARRAY_BUDGET = 2 << 30


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
        self._near: np.ndarray | None = None
        self._extensions: dict[Formula, np.ndarray] = {}

    # -- queries

    @property
    def near(self) -> np.ndarray:
        """The order's int32 rank matrix over `states`, built on first use.
        Raises StructureError for relation orders, and where the matrix
        would take more than `_ARRAY_BUDGET` bytes."""
        if self._near is None:
            n = len(self.states)
            if n * n * 4 > _ARRAY_BUDGET:
                raise StructureError(
                    f"the rank matrix of {n} states exceeds the budget of {_ARRAY_BUDGET} bytes"
                )
            self._near = self.order.rank_matrix(self.states)
            self._near.flags.writeable = False  # shared by every query
        return self._near

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
        """`box_arrows` from states[i]: by `_ranked_box_arrows` over row i of
        `near`, or, for relation orders, from the closest states."""
        if self.order.ranked:
            ranks = np.where(antecedents, self.near[i], _MASKED)
            return _ranked_box_arrows(ranks, ~consequent, allow_vacuous)
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
        if self.order.ranked:  # every row of `near` over the antecedent states
            return _ranked_box_arrows(self.near.compress(ant, axis=1), ~cons[ant], True)
        n = len(self.states)
        return np.array([self._box_arrows(i, ant, cons, True) for i in range(n)], dtype=bool).reshape(n)

    def _closest(self, i: int, mask: np.ndarray) -> np.ndarray:
        """The states in `mask` to which no state in `mask` is strictly
        closer from states[i]: the least ranks of row i of `near`, or, for
        relation orders, the minimal elements under `leq`.  For a matrix of
        masks, one such row per mask."""
        if self.order.ranked:
            ranks = np.where(mask, self.near[i], _MASKED)
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


def _ranked_box_arrows(ranks: np.ndarray, outside: np.ndarray, allow_vacuous: bool) -> np.ndarray:
    """The box-arrow test of a ranked order, per row of `ranks`: the ranks
    of the antecedent's states from one base (`_MASKED`, or no column, for
    the other states), with `outside` marking the columns that fail the
    consequent.  Every closest antecedent state satisfies the consequent
    exactly when the least rank over the antecedent is strictly below the
    least rank over its columns outside the consequent.  A row with no
    antecedent state has least rank `_MASKED`, and passes only with
    `allow_vacuous`."""
    least = np.minimum.reduce(ranks, axis=-1, initial=_MASKED)
    passes = least < np.minimum.reduce(ranks.compress(outside, axis=-1), axis=-1, initial=_MASKED)
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
    so only centering is checked, on the rank matrix: it reports every state
    its own order leaves unranked, up to the first state s that ranks some
    other state at least as close as s itself.  Explicit relation orders get
    the full triple check."""
    order = m.order
    if order.ranked:
        unranked = [i for i, s in enumerate(m.states) if order.rank(s, s) is None]
        near = m.near
        crowded = near <= np.diag(near)[:, None]
        np.fill_diagonal(crowded, False)
        crowded[unranked] = False
        rows = np.flatnonzero(crowded.any(axis=1))
        end = rows[0] if rows.size else len(m.states)
        violations = [OrderViolation("unranked-self", (m.states[i],)) for i in unranked if i < end]
        if rows.size:
            t = np.flatnonzero(crowded[end])[0]
            violations.append(OrderViolation("centering", (m.states[end], m.states[t])))
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
            if rest:
                text = " ; ".join("{ " + ", ".join(sorted(t)) + " }" for t in rest)
                out.append(f"order {s} : {text}")
    else:
        from .correspondence import CounterpartOrder  # correspondence imports this module

        # the file can only ask for the derived order over all assignments
        if not (isinstance(m.order, CounterpartOrder) and m.states == tuple(m.order.index)):
            raise StructureError(f"a {type(m.order).__name__} cannot be written as a structure file")
        if over is None:
            raise StructureError("a derived order is written only `over` the model file it is derived from")
        out.append("order derived weighted-violations")
    return "\n".join(out) + "\n"
