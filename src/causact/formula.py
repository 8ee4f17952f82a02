"""Formula AST, concrete syntax, and finite-domain propositional reasoning.

Values are opaque tokens (identifiers or unsigned integers) compared by exact
string equality.  Consistency and entailment are decided by exhaustive
enumeration over the variables that actually occur in the formulas, which is
exact for the finite signatures this library targets.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator


class FormulaError(ValueError):
    """Raised for malformed formulas: syntax errors, unknown variables,
    out-of-range values, or use of a formula outside the expected fragment."""


# ---------------------------------------------------------------------------
# Signature


@dataclass(frozen=True)
class Signature:
    """Exogenous and endogenous variables with their finite value ranges."""

    exogenous: tuple[tuple[str, tuple[str, ...]], ...]
    endogenous: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        names = [n for n, _ in self.exogenous] + [n for n, _ in self.endogenous]
        if len(set(names)) != len(names):
            raise FormulaError("variable names must be unique across the signature")
        if not self.endogenous:
            raise FormulaError("signature needs at least one endogenous variable")
        for name, rng in self.exogenous + self.endogenous:
            if not rng:
                raise FormulaError(f"empty range for variable {name}")
            if len(set(rng)) != len(rng):
                raise FormulaError(f"duplicate values in range of {name}")

    # Lookup tables, computed on first use and kept on the (frozen) instance.
    @cached_property
    def _ranges(self) -> dict[str, tuple[str, ...]]:
        return dict(self.exogenous + self.endogenous)

    @cached_property
    def _endo_ranges(self) -> dict[str, tuple[str, ...]]:
        return dict(self.endogenous)

    @cached_property
    def exo_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.exogenous)

    @cached_property
    def endo_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.endogenous)

    def is_exogenous(self, name: str) -> bool:
        return name in self._ranges and name not in self._endo_ranges

    def is_endogenous(self, name: str) -> bool:
        return name in self._endo_ranges

    def range_of(self, name: str) -> tuple[str, ...]:
        rng = self._ranges.get(name)
        if rng is None:
            raise FormulaError(f"unknown variable {name!r}")
        return rng

    def all_names(self) -> tuple[str, ...]:
        return self.exo_names + self.endo_names

    def assignments(self, names) -> Iterator[dict[str, str]]:
        """All assignments to the given variables, in lexicographic order of
        the declared variable and value order."""
        names = [n for n in self.all_names() if n in set(names)]
        ranges = [self.range_of(n) for n in names]
        for values in itertools.product(*ranges):
            yield dict(zip(names, values))


# TotalAssignment: a plain dict mapping every variable name to a value.
TotalAssignment = dict


# ---------------------------------------------------------------------------
# AST


class Formula:
    __slots__ = ()

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class PrimEvent(Formula):
    var: str
    val: str


@dataclass(frozen=True)
class ExoEvent(Formula):
    var: str
    val: str


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Top(Formula):
    """The empty conjunction, printed as `true`."""


@dataclass(frozen=True)
class Bot(Formula):
    """The empty disjunction, printed as `false`."""


@dataclass(frozen=True)
class Intervene(Formula):
    assignments: tuple[tuple[str, str], ...]
    body: Formula

    def __post_init__(self):
        names = [n for n, _ in self.assignments]
        if len(set(names)) != len(names):
            raise FormulaError("intervention assigns the same variable twice")


@dataclass(frozen=True)
class BoxArrow(Formula):
    antecedent: Formula
    consequent: Formula


TRUE = Top()
FALSE = Bot()


def event(sig: Signature, var: str, val: str) -> Formula:
    """Primitive or exogenous event for `var`, validated against `sig`."""
    val = str(val)
    if val not in sig.range_of(var):
        raise FormulaError(f"value {val!r} not in the range of {var}")
    if sig.is_exogenous(var):
        return ExoEvent(var, val)
    return PrimEvent(var, val)


def conjoin(parts) -> Formula:
    parts = list(parts)
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disjoin(parts) -> Formula:
    parts = list(parts)
    if not parts:
        return FALSE
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def conjuncts(phi: Formula) -> list[Formula]:
    """Flatten nested conjunctions (does not rewrite anything else)."""
    if isinstance(phi, Top):
        return []
    if isinstance(phi, And):
        return conjuncts(phi.left) + conjuncts(phi.right)
    return [phi]


def as_event_conjunction(phi: Formula) -> list[tuple[str, str]]:
    """Destructure a conjunction of primitive events over distinct endogenous
    variables into (var, val) pairs; raises FormulaError otherwise."""
    pairs = []
    for part in conjuncts(phi):
        if not isinstance(part, PrimEvent):
            raise FormulaError(f"expected a conjunction of primitive events, got {part}")
        pairs.append((part.var, part.val))
    names = [v for v, _ in pairs]
    if len(set(names)) != len(names):
        raise FormulaError("conjunction names a variable twice")
    return pairs


# ---------------------------------------------------------------------------
# Concrete syntax

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>~>)|(?P<gets><-)|(?P<neq>!=)|(?P<op>[()\[\],&|!=])"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<num>[0-9]+))"
)

_KEYWORDS = {"true", "false", "case", "default", "model", "exo", "var", "eq",
             "structure", "state", "order", "over", "derived"}


def tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise FormulaError(f"unexpected character {stripped[0]!r} at position {pos}")
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.text = text
        self.sig = sig
        self.tokens = tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise FormulaError(f"expected {value!r} at position {pos}, found {val or 'end of input'!r}")

    def error(self, msg: str):
        _, val, pos = self.peek()
        raise FormulaError(f"{msg} at position {pos} (near {val or 'end of input'!r})")

    # formula := disj [ "~>" disj ]
    def formula(self) -> Formula:
        left = self.disj()
        if self.peek()[1] == "~>":
            self.next()
            right = self.disj()
            return BoxArrow(left, right)
        return left

    def disj(self) -> Formula:
        out = self.conj()
        while self.peek()[1] == "|":
            self.next()
            out = Or(out, self.conj())
        return out

    def conj(self) -> Formula:
        out = self.unary()
        while self.peek()[1] == "&":
            self.next()
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        if self.peek()[1] == "!":
            self.next()
            return Not(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind, val, pos = self.peek()
        if val == "(":
            self.next()
            inner = self.formula()
            self.expect(")")
            if self.peek()[1] == "~>":
                self.next()
                self.expect("(")
                cons = self.formula()
                self.expect(")")
                return BoxArrow(inner, cons)
            return inner
        if val == "[":
            self.next()
            assignments = self.assignments()
            self.expect("]")
            body = self.unary()
            return Intervene(assignments, body)
        if kind == "ident" and val == "true":
            self.next()
            return TRUE
        if kind == "ident" and val == "false":
            self.next()
            return FALSE
        if kind in ("ident", "num"):
            return self.prim()
        self.error("expected a formula")

    def prim(self) -> Formula:
        kind, name, pos = self.next()
        if kind != "ident":
            raise FormulaError(f"expected a variable name at position {pos}")
        op_kind, op, op_pos = self.next()
        if op not in ("=", "!="):
            raise FormulaError(f"expected '=' or '!=' after {name!r} at position {op_pos}")
        vkind, value, vpos = self.next()
        if vkind not in ("ident", "num"):
            raise FormulaError(f"expected a value at position {vpos}")
        try:
            ev = event(self.sig, name, value)
        except FormulaError as exc:
            raise FormulaError(f"{exc} (at position {pos})") from None
        return Not(ev) if op == "!=" else ev

    def assignments(self) -> tuple[tuple[str, str], ...]:
        out = [self.assignment()]
        while self.peek()[1] == ",":
            self.next()
            out.append(self.assignment())
        return tuple(out)

    def assignment(self) -> tuple[str, str]:
        kind, name, pos = self.next()
        if kind != "ident":
            raise FormulaError(f"expected a variable name at position {pos}")
        self.expect("<-")
        vkind, value, vpos = self.next()
        if vkind not in ("ident", "num"):
            raise FormulaError(f"expected a value at position {vpos}")
        if not self.sig.is_endogenous(name):
            raise FormulaError(f"can only intervene on endogenous variables, not {name!r} (position {pos})")
        if value not in self.sig.range_of(name):
            raise FormulaError(f"value {value!r} not in the range of {name} (position {vpos})")
        return (name, value)

    def end(self):
        kind, val, pos = self.peek()
        if kind != "eof":
            raise FormulaError(f"trailing input at position {pos}: {val!r}")


def parse_formula(text: str, sig: Signature) -> Formula:
    parser = _Parser(text, sig)
    out = parser.formula()
    parser.end()
    return out


def parse_intervention(text: str, sig: Signature) -> dict[str, str]:
    """Parse an assignment list like "X<-1, Y<-0" by the rules of the
    brackets in `[X<-1, Y<-0] phi`."""
    parser = _Parser(text, sig)
    pairs = parser.assignments()
    parser.end()
    Intervene(pairs, TRUE)  # rejects a variable assigned twice
    return dict(pairs)


# ---------------------------------------------------------------------------
# Pretty printer

# precedence levels: 0 = box-arrow operand / top, 1 = or, 2 = and, 3 = unary
def format_formula(phi: Formula) -> str:
    return _fmt(phi, 0)


def _fmt(phi: Formula, prec: int) -> str:
    if isinstance(phi, (PrimEvent, ExoEvent)):
        return f"{phi.var}={phi.val}"
    if isinstance(phi, Top):
        return "true"
    if isinstance(phi, Bot):
        return "false"
    if isinstance(phi, Not):
        if isinstance(phi.sub, (PrimEvent, ExoEvent)):
            return f"{phi.sub.var}!={phi.sub.val}"
        return "!" + _fmt(phi.sub, 3)
    if isinstance(phi, And):
        body = f"{_fmt(phi.left, 2)} & {_fmt(phi.right, 3)}"
        return f"({body})" if prec > 2 else body
    if isinstance(phi, Or):
        body = f"{_fmt(phi.left, 1)} | {_fmt(phi.right, 2)}"
        return f"({body})" if prec > 1 else body
    if isinstance(phi, Intervene):
        asgn = ", ".join(f"{v}<-{x}" for v, x in phi.assignments)
        return f"[{asgn}] {_fmt(phi.body, 3)}"
    if isinstance(phi, BoxArrow):
        return f"({_fmt(phi.antecedent, 0)}) ~> ({_fmt(phi.consequent, 0)})"
    raise TypeError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# Propositional layer


def _variables(phi: Formula, kinds, out: set[str]) -> set[str]:
    """Add to `out` the variables of the events of the given kinds in a
    propositional formula; raises FormulaError at any other node."""
    if isinstance(phi, kinds):
        out.add(phi.var)
    elif isinstance(phi, Not):
        _variables(phi.sub, kinds, out)
    elif isinstance(phi, (And, Or)):
        _variables(phi.left, kinds, out)
        _variables(phi.right, kinds, out)
    elif not isinstance(phi, (PrimEvent, ExoEvent, Top, Bot)):
        raise FormulaError(f"formula is not propositional: contains {type(phi).__name__}")
    return out


def is_propositional(phi: Formula) -> bool:
    try:
        _variables(phi, (), set())
        return True
    except FormulaError:
        return False


def variables_of(phi: Formula) -> set[str]:
    """All variable names (exogenous and endogenous) occurring in a
    propositional formula."""
    return _variables(phi, (PrimEvent, ExoEvent), set())


def free_endogenous(phi: Formula) -> set[str]:
    """Endogenous variable names syntactically occurring in a propositional
    formula (negated or not)."""
    return _variables(phi, PrimEvent, set())


def evaluate_prop(phi: Formula, assignment: dict, modal=None) -> bool:
    """Truth of a formula under an assignment covering all its variables.  A
    primitive event X=x is true iff assignment[X] == x.  Interventions and
    box-arrows are handed to `modal(node)`, the semantics of the model the
    formula is evaluated in; without one they raise FormulaError."""
    if isinstance(phi, (PrimEvent, ExoEvent)):
        return assignment[phi.var] == phi.val
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Bot):
        return False
    if isinstance(phi, Not):
        return not evaluate_prop(phi.sub, assignment, modal)
    if isinstance(phi, And):
        return evaluate_prop(phi.left, assignment, modal) and evaluate_prop(phi.right, assignment, modal)
    if isinstance(phi, Or):
        return evaluate_prop(phi.left, assignment, modal) or evaluate_prop(phi.right, assignment, modal)
    if modal is not None and isinstance(phi, (Intervene, BoxArrow)):
        return modal(phi)
    raise FormulaError(f"formula is not propositional: contains {type(phi).__name__}")


def prop_consistent(phi: Formula, sig: Signature) -> bool:
    """True iff some assignment over the occurring variables satisfies phi."""
    names = variables_of(phi)
    for asgn in sig.assignments(names):
        if evaluate_prop(phi, asgn):
            return True
    return False


def prop_entails(phi: Formula, psi: Formula, sig: Signature) -> bool:
    """True iff every satisfying assignment of phi satisfies psi."""
    names = variables_of(phi) | variables_of(psi)
    for asgn in sig.assignments(names):
        if evaluate_prop(phi, asgn) and not evaluate_prop(psi, asgn):
            return False
    return True


def prop_valid(phi: Formula, sig: Signature) -> bool:
    return prop_entails(TRUE, phi, sig)


def prop_equivalent(phi: Formula, psi: Formula, sig: Signature) -> bool:
    return prop_entails(phi, psi, sig) and prop_entails(psi, phi, sig)
