"""Finite Lewis-style counterfactual structures.

States are total assignments over the signature; per-state closeness is a
preorder given either as ranked tiers (a total preorder, the only form the
file format supports), as a cost function into a totally ordered cost space,
or as an arbitrary explicit relation through the comparator API.  States a
base state does not rank are treated as strictly farther than all ranked
ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .formula import Formula, FormulaError, Intervene, Signature, evaluate_prop
from .model import _parse_declaration, _split_statements  # shared with the model DSL


class StructureError(ValueError):
    """Raised for malformed structures or structure files."""


_FAR = float("inf")


class ClosenessOrder:
    """Closeness from one base state.  `rank` returns a sortable key (smaller
    is closer) or None for unranked states; orders that cannot be expressed
    through ranks override `leq` instead and set `ranked = False`."""

    ranked = True

    def rank(self, base: str, other: str):
        raise NotImplementedError

    def leq(self, base: str, t: str, other: str) -> bool:
        rt, ru = self.rank(base, t), self.rank(base, other)
        if rt is None:
            rt = _FAR
        if ru is None:
            ru = _FAR
        return rt <= ru


class TierOrder(ClosenessOrder):
    """Explicit ranked tiers per base state; tier 0 is normally the singleton
    {base} (the file format inserts it implicitly)."""

    def __init__(self, tiers: dict[str, list[frozenset[str]]]):
        self.tiers = {s: [frozenset(t) for t in ts] for s, ts in tiers.items()}
        self._rank = {
            s: {st: i for i, tier in enumerate(ts) for st in tier}
            for s, ts in self.tiers.items()
        }

    def rank(self, base, other):
        return self._rank.get(base, {}).get(other)


class CostOrder(ClosenessOrder):
    """Intensional closeness: d_s(t) into any totally ordered cost space."""

    def __init__(self, cost):
        self.cost = cost

    def rank(self, base, other):
        return self.cost(base, other)


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
    def __init__(
        self,
        sig: Signature,
        interp: dict[str, dict],
        order: ClosenessOrder,
        name: str = "structure",
    ):
        self.sig = sig
        self.name = name
        self.states = tuple(interp)
        self.interp = {s: dict(a) for s, a in interp.items()}
        self.order = order
        names = sig.all_names()
        for s, asgn in self.interp.items():
            for n in names:
                if n not in asgn:
                    raise StructureError(f"state {s} is missing a value for {n}")
                if asgn[n] not in sig.range_of(n):
                    raise StructureError(f"state {s}: value {asgn[n]!r} outside the range of {n}")
            if len(asgn) > len(names):
                extra = ", ".join(sorted(set(asgn) - set(names)))
                raise StructureError(f"state {s} assigns undeclared variable {extra}")
        self._eval_cache: dict = {}
        self._closest_cache: dict = {}

    # -- queries

    def _known(self, s: str):
        if s not in self.interp:
            raise StructureError(f"unknown state {s!r}")

    def satisfies_at(self, s: str, phi: Formula) -> bool:
        """Evaluate a counterfactual formula at state s.  Interventions are a
        causal-model construct and are rejected; box-arrows nest freely."""
        key = (s, phi)
        hit = self._eval_cache.get(key)
        if hit is not None:
            return hit
        self._known(s)

        def modal(node):
            if isinstance(node, Intervene):
                raise FormulaError("interventions are not evaluable in counterfactual structures")
            closest = self.closest_states(s, node.antecedent)
            return all(self.satisfies_at(t, node.consequent) for t in closest)

        result = evaluate_prop(phi, self.interp[s], modal)
        self._eval_cache[key] = result
        return result

    def closest_states(self, s: str, phi: Formula) -> frozenset[str]:
        """{ t : t satisfies phi, no phi-state is strictly closer to s }."""
        key = (s, phi)
        hit = self._closest_cache.get(key)
        if hit is not None:
            return hit
        self._known(s)
        sat = [t for t in self.states if self.satisfies_at(t, phi)]
        if self.order.ranked:
            result = frozenset(self.closest_among(s, sat))
        else:
            result = frozenset(
                t
                for t in sat
                if not any(
                    self.order.leq(s, t2, t) and not self.order.leq(s, t, t2)
                    for t2 in sat
                )
            )
        self._closest_cache[key] = result
        return result

    def closest_among(self, s: str, candidates) -> list[str]:
        """The candidates of least rank from s, in candidate order (unranked
        candidates count as farthest).  Needs a ranked order."""
        best = None
        out: list[str] = []
        for t in candidates:
            r = self.order.rank(s, t)
            if r is None:
                r = _FAR
            if best is None or r < best:
                best, out = r, [t]
            elif r == best:
                out.append(t)
        return out


@dataclass
class OrderViolation:
    kind: str  # "centering" | "reflexivity" | "transitivity" | "unranked-self"
    states: tuple[str, ...]

    def __str__(self):
        return f"{self.kind} violation at {self.states}"


def validate_structure(m: CfStructure) -> list[OrderViolation]:
    """Check reflexivity/transitivity and centering; an empty report means ok.
    For rank-based orders reflexivity and transitivity hold by construction,
    so only centering is checked state-by-state; explicit relation orders get
    the full triple check."""
    violations: list[OrderViolation] = []
    order = m.order
    if order.ranked:
        for s in m.states:
            rs = order.rank(s, s)
            if rs is None:
                violations.append(OrderViolation("unranked-self", (s,)))
                continue
            for t in m.states:
                if t == s:
                    continue
                rt = order.rank(s, t)
                if rt is not None and not rs < rt:
                    violations.append(OrderViolation("centering", (s, t)))
                    return violations
    else:
        for s in m.states:
            for t in m.states:
                if not order.leq(s, t, t):
                    violations.append(OrderViolation("reflexivity", (s, t)))
                    return violations
            for t, v, w in itertools.product(m.states, repeat=3):
                if order.leq(s, t, v) and order.leq(s, v, w) and not order.leq(s, t, w):
                    violations.append(OrderViolation("transitivity", (s, t, v, w)))
                    return violations
            for t in m.states:
                if t != s and not (order.leq(s, s, t) and not order.leq(s, t, s)):
                    violations.append(OrderViolation("centering", (s, t)))
                    return violations
    return violations


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
    tiers: dict[str, list[frozenset[str]]] = {}
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
            out = []
            for tier in tier_text.split(";"):
                tier = tier.strip().strip("{}").strip()
                if tier:
                    out.append(frozenset(x.strip() for x in tier.split(",")))
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


def structure_to_text(m: CfStructure) -> str:
    out = [f"structure {m.name}"]
    for n, rng in m.sig.exogenous:
        out.append(f"exo {n} : {{ {', '.join(rng)} }}")
    for n, rng in m.sig.endogenous:
        out.append(f"var {n} : {{ {', '.join(rng)} }}")
    for s in m.states:
        asgn = ", ".join(f"{n}={m.interp[s][n]}" for n in m.sig.all_names())
        out.append(f"state {s} {{ {asgn} }}")
    if isinstance(m.order, TierOrder):
        for s in m.states:
            tiers = m.order.tiers.get(s, [])
            rest = [t for t in tiers if t != frozenset({s})]
            if rest:
                text = " ; ".join("{ " + ", ".join(sorted(t)) + " }" for t in rest)
                out.append(f"order {s} : {text}")
    else:
        out.append("order derived weighted-violations")
    return "\n".join(out) + "\n"
