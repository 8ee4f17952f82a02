"""Formula AST, concrete syntax, and finite-domain propositional reasoning.

Values are opaque tokens (identifiers or unsigned integers) compared by exact
string equality.  Entailment between two conjunctions of events is literal
inclusion; between any other formulas it is decided by exhaustive enumeration
over the variables that actually occur in them, which is exact for the finite
signatures this library targets.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
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
    def value_index(self) -> dict[str, dict[str, int]]:
        """Each variable's values mapped to their positions in its range,
        for the variables in `all_names()` order."""
        return {n: {v: i for i, v in enumerate(self.range_of(n))} for n in self.all_names()}

    @cached_property
    def _events(self) -> dict[tuple[str, str], "Formula"]:
        """The events `event` has validated, by (variable, value)."""
        return {}

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
        wanted = set(names)
        names = [n for n in self.all_names() if n in wanted]
        ranges = [self.range_of(n) for n in names]
        for values in itertools.product(*ranges):
            yield dict(zip(names, values))


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


# Events, `true` and `false` keep the hash and equality `dataclass`
# generates.  A node with operands stores its hash at first use: a deep
# tree is then hashed once, without recursion, and the caches that look up
# its subtrees do not rehash them.  Its equality walks both trees with an
# explicit stack.


def _compound(cls):
    """A frozen dataclass node with operands, hashed by `_stored_hash` and
    compared by `_equal`.  The generated hash, kept as `_field_hash`, hashes
    the tuple of the fields; called once the operands are hashed, it reads
    their stored hashes."""
    cls = dataclass(frozen=True)(cls)
    cls._field_hash = cls.__hash__
    cls.__hash__ = _stored_hash
    cls.__eq__ = _equal
    cls.__reduce__ = _reduce
    cls._hash = None
    return cls


def _reduce(phi: Formula):
    # string hashes differ between processes, so a stored hash is not pickled
    return type(phi), tuple(getattr(phi, f) for f in phi.__match_args__)


def _equal(left: Formula, right) -> bool:
    """Structural equality of two formulas, false at once when their stored
    hashes differ."""
    if left is right:
        return True
    if type(left) is not type(right):
        return NotImplemented
    h, k = left._hash, right._hash
    if h is None or k is None:
        h, k = hash(left), hash(right)  # also stores the hashes below
    if h != k:
        return False
    # pairs to compare, pushed and popped two nodes at a time; every node
    # with operands below a hashed node is hashed too
    stack = [left, right]
    pop = stack.pop
    while stack:
        b = pop()
        a = pop()
        if a is b:
            continue
        kind = type(a)
        if kind is not type(b):
            return False
        if kind is And or kind is Or:
            if a._hash != b._hash:
                return False
            stack += a.left, b.left, a.right, b.right
        elif kind is PrimEvent or kind is ExoEvent:
            if a.val != b.val or a.var != b.var:
                return False
        elif kind is Not:
            if a._hash != b._hash:
                return False
            stack += a.sub, b.sub
        elif kind is Top or kind is Bot:
            continue
        elif a._hash != b._hash:
            return False
        elif kind is BoxArrow:
            stack += a.antecedent, b.antecedent, a.consequent, b.consequent
        elif a.assignments != b.assignments:  # Intervene
            return False
        else:
            stack += a.body, b.body
    return True


def _stored_hash(root: Formula) -> int:
    """root's stored hash.  The first call hashes root and every unhashed
    node with operands below it, and stores each hash on its node.  A node
    comes before its operands in the walk, so the reversed walk hashes
    operands first."""
    h = root._hash
    if h is None:
        walk, stack = [], [root]
        while stack:
            node = stack.pop()
            walk.append(node)
            for part in _operands(node):
                if getattr(part, "_hash", 0) is None:  # events have no stored hash
                    stack.append(part)
        for node in reversed(walk):
            if node._hash is None:  # a shared node is walked more than once
                object.__setattr__(node, "_hash", node._field_hash())
        h = root._hash
    return h


@dataclass(frozen=True)
class PrimEvent(Formula):
    var: str
    val: str


@dataclass(frozen=True)
class ExoEvent(Formula):
    var: str
    val: str


@_compound
class Not(Formula):
    sub: Formula


@_compound
class And(Formula):
    left: Formula
    right: Formula


@_compound
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Top(Formula):
    """The empty conjunction, printed as `true`."""


@dataclass(frozen=True)
class Bot(Formula):
    """The empty disjunction, printed as `false`."""


@_compound
class Intervene(Formula):
    assignments: tuple[tuple[str, str], ...]
    body: Formula

    def __post_init__(self):
        names = [n for n, _ in self.assignments]
        if len(set(names)) != len(names):
            raise FormulaError("intervention assigns the same variable twice")


@_compound
class BoxArrow(Formula):
    antecedent: Formula
    consequent: Formula


def _operands(phi: Formula) -> tuple[Formula, ...]:
    """phi's subformulas, left to right."""
    if isinstance(phi, (And, Or)):
        return phi.left, phi.right
    if isinstance(phi, Not):
        return (phi.sub,)
    if isinstance(phi, BoxArrow):
        return phi.antecedent, phi.consequent
    if isinstance(phi, Intervene):
        return (phi.body,)
    return ()


TRUE = Top()
FALSE = Bot()


def event(sig: Signature, var: str, val: str) -> Formula:
    """Primitive or exogenous event for `var`, validated against `sig`.  An
    event is built once per signature and kept in `sig._events`; a literal
    that fails validation is not kept, so it fails the same way each time."""
    val = str(val)
    ev = sig._events.get((var, val))
    if ev is None:
        if val not in sig.range_of(var):
            raise FormulaError(f"value {val!r} not in the range of {var}")
        ev = sig._events[var, val] = (ExoEvent if sig.is_exogenous(var) else PrimEvent)(var, val)
    return ev


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
    out, stack = [], [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack += node.right, node.left
        elif not isinstance(node, Top):
            out.append(node)
    return out


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

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"

# One alternative per token kind, tried in order at each position after any
# whitespace: an event literal `X=x` or `X!=x` as one token (groups 1-3; the
# constants `true` and `false` are no variable names), an operator (4), a
# bare identifier (5) or number (6) as in the malformed literals `X=` or
# `1=2`, and any other character, which is an error (7).
_TOKEN_RE = re.compile(
    rf"\s*(?:(?!(?:true|false)(?![A-Za-z0-9_]))({_NAME})\s*(!?=)\s*({_NAME}|[0-9]+)"
    r"|(~>|<-|!=|[()\[\],&|!=])"
    rf"|({_NAME})|([0-9]+)|(\S))"
)
_KINDS = {4: "op", 5: "ident", 6: "num"}


def tokenize(text: str) -> list[tuple]:
    """The tokens of `text`, each (kind, text, position), then ("eof", "",
    len(text)).  An event literal is one token ("lit", variable, position,
    operator, operator position, value, value position)."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        k = m.lastindex
        if k == 3:
            tokens.append(("lit", m[1], m.start(1), m[2], m.start(2), m[3], m.start(3)))
        elif k == 7:
            raise FormulaError(f"unexpected character {m[7]!r} at position {m.start(7)}")
        else:
            tokens.append((_KINDS[k], m[k], m.start(k)))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the tokens.  Every token starts with (kind,
    text, position); an event literal's text is its variable, which is what
    an error message quotes when the literal stands where the grammar wants
    something else."""

    def __init__(self, text: str, sig: Signature):
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
        tok = self.next()
        if tok[1] != value:
            raise FormulaError(f"expected {value!r} at position {tok[2]}, found {tok[1] or 'end of input'!r}")

    def error(self, msg: str):
        tok = self.peek()
        raise FormulaError(f"{msg} at position {tok[2]} (near {tok[1] or 'end of input'!r})")

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
        # a chain of `!`s is counted, not recursed into
        start = self.i
        while self.tokens[self.i][1] == "!":
            self.i += 1
        bangs = self.i - start
        out = self.atom()
        for _ in range(bangs):
            out = Not(out)
        return out

    def atom(self) -> Formula:
        tok = self.peek()
        kind, val = tok[0], tok[1]
        if kind == "lit":
            self.i += 1
            try:
                ev = event(self.sig, val, tok[5])
            except FormulaError as exc:
                raise FormulaError(f"{exc} (at position {tok[2]})") from None
            return ev if tok[3] == "=" else Not(ev)
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
            self.literal_error()
        self.error("expected a formula")

    def literal_error(self):
        """Report a malformed event literal: a well-formed one is a single
        "lit" token, so the tokens here cannot spell one."""
        kind, name, pos = self.next()
        if kind != "ident":
            raise FormulaError(f"expected a variable name at position {pos}")
        op = self.next()
        if op[1] not in ("=", "!="):
            raise FormulaError(f"expected '=' or '!=' after {name!r} at position {op[2]}")
        raise FormulaError(f"expected a value at position {self.peek()[2]}")

    def assignments(self) -> tuple[tuple[str, str], ...]:
        out = [self.assignment()]
        while self.peek()[1] == ",":
            self.next()
            out.append(self.assignment())
        return tuple(out)

    def bare(self):
        """The next token, where the grammar wants a bare identifier or
        value: an event literal there is split back into its variable,
        operator and value tokens first."""
        tok = self.tokens[self.i]
        if tok[0] == "lit":
            _, name, pos, op, op_pos, value, vpos = tok
            vkind = "num" if value[0] in "0123456789" else "ident"
            self.tokens[self.i : self.i + 1] = ("ident", name, pos), ("op", op, op_pos), (vkind, value, vpos)
        return self.next()

    def assignment(self) -> tuple[str, str]:
        kind, name, pos = self.bare()
        if kind != "ident":
            raise FormulaError(f"expected a variable name at position {pos}")
        self.expect("<-")
        vkind, value, vpos = self.bare()
        if vkind not in ("ident", "num"):
            raise FormulaError(f"expected a value at position {vpos}")
        if not self.sig.is_endogenous(name):
            raise FormulaError(f"can only intervene on endogenous variables, not {name!r} (position {pos})")
        if value not in self.sig.range_of(name):
            raise FormulaError(f"value {value!r} not in the range of {name} (position {vpos})")
        return (name, value)

    def end(self):
        tok = self.peek()
        if tok[0] != "eof":
            raise FormulaError(f"trailing input at position {tok[2]}: {tok[1]!r}")


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
    """The concrete syntax of phi.  The printer keeps its own stack of
    pending (node, precedence) pairs and literal text, so the depth of phi
    is not bounded by Python's recursion limit."""
    out = []
    stack = [(phi, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, prec = item
        if isinstance(node, (PrimEvent, ExoEvent)):
            out.append(f"{node.var}={node.val}")
        elif isinstance(node, Top):
            out.append("true")
        elif isinstance(node, Bot):
            out.append("false")
        elif isinstance(node, Not):
            if isinstance(node.sub, (PrimEvent, ExoEvent)):
                out.append(f"{node.sub.var}!={node.sub.val}")
            else:
                stack += (node.sub, 3), "!"
        elif isinstance(node, (And, Or)):
            op, own = (" & ", 2) if isinstance(node, And) else (" | ", 1)
            if prec > own:
                stack.append(")")
            stack += (node.right, own + 1), op, (node.left, own)
            if prec > own:
                stack.append("(")
        elif isinstance(node, Intervene):
            asgn = ", ".join(f"{v}<-{x}" for v, x in node.assignments)
            stack += (node.body, 3), f"[{asgn}] "
        elif isinstance(node, BoxArrow):
            stack += ")", (node.consequent, 0), ") ~> (", (node.antecedent, 0), "("
        else:
            raise TypeError(f"not a formula: {node!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Propositional layer


def _variables(phi: Formula, kinds, out: set[str]) -> set[str]:
    """Add to `out` the variables of the events of the given kinds in a
    propositional formula; raises FormulaError at any other node.  The walk
    keeps its own stack, so phi's depth is not bounded by the recursion limit."""
    stack = [phi]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is And or kind is Or:
            stack += node.left, node.right
        elif kind is Not:
            stack.append(node.sub)
        elif kind is PrimEvent or kind is ExoEvent:
            if kind in kinds:
                out.add(node.var)
        elif kind is not Top and kind is not Bot:
            raise FormulaError(f"formula is not propositional: contains {kind.__name__}")
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
    return _variables(phi, (PrimEvent,), set())


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


def label(phi: Formula, leaf, full, modal=None, cache=None):
    """The set of rows where phi holds, labelled bottom-up (Clarke, Emerson
    & Sistla, TOPLAS 1986) in any algebra where `full ^ x`, `x & y` and
    `x | y` are complement, intersection and union (ints as bitsets,
    boolean masks).  An event's set is `leaf(event)`.  Interventions and
    box-arrows go to `modal(node, *sets)` with their operands' sets, or
    raise FormulaError without it.  Every operand is labelled, left to
    right: nothing short-circuits.  A `cache` (with `get` and item
    assignment) is read as the walk reaches each subformula: one found
    there stands as its set, and the walk does not enter it.  The cache
    receives every set computed, so a subformula repeated in phi is
    labelled once.  The walk keeps its own stack, so phi's depth is not
    bounded by the recursion limit."""
    sets = []
    push, pop = sets.append, sets.pop
    stack = [phi]  # subformulas to enter, and each entered one under a None
    while stack:
        node = stack.pop()
        if node is None:  # the node below is left: its operands' sets are on top
            node = stack.pop()
            kind = type(node)
            if kind is And:
                out = pop() & pop()
            elif kind is Or:
                out = pop() | pop()
            elif kind is Not:
                out = full ^ pop()
            elif modal is None:
                raise FormulaError(f"formula is not propositional: contains {kind.__name__}")
            else:
                parts = [pop() for _ in _operands(node)]
                out = modal(node, *reversed(parts))
        else:
            if cache is not None:
                out = cache.get(node)
                if out is not None:
                    push(out)
                    continue
            kind = type(node)
            if kind is PrimEvent or kind is ExoEvent:
                out = leaf(node)
            elif kind is Top:
                out = full
            elif kind is Bot:
                out = full ^ full
            else:  # the node and a None, then its operands with the left one on top
                if kind is And or kind is Or:
                    stack += node, None, node.right, node.left
                else:
                    stack += node, None, *reversed(_operands(node))
                continue
        if cache is not None:
            cache[node] = out
        push(out)
    return sets[0]


def event_literals(phi: Formula, sig: Signature):
    """A conjunction of events and `true` as the frozenset of its (var,
    value) literals, leaving out the valid ones (their variable's range has
    one value); FALSE if it gives a variable two values or a value outside
    its range.  None for any other formula."""
    values, unsatisfiable, stack = {}, False, [phi]
    while stack:  # the walk of `conjuncts`, inlined: this runs once per entailment test
        node = stack.pop()
        kind = type(node)
        if kind is And:
            stack += node.right, node.left
        elif kind is PrimEvent or kind is ExoEvent:
            unsatisfiable |= values.setdefault(node.var, node.val) != node.val
        elif kind is not Top:
            return None
    literals = []
    for x, v in values.items():
        rng = sig.range_of(x)
        if v not in rng:
            unsatisfiable = True
        elif len(rng) > 1:
            literals.append((x, v))
    return FALSE if unsatisfiable else frozenset(literals)


def prop_entails(phi: Formula, psi: Formula, sig: Signature) -> bool:
    """True iff every satisfying assignment of phi satisfies psi."""
    a = event_literals(phi, sig)
    return prop_entails_given(phi, a, psi, None if a is None else event_literals(psi, sig), sig)


def prop_entails_given(phi: Formula, a, psi: Formula, b, sig: Signature) -> bool:
    """`prop_entails(phi, psi)`, given `event_literals` a of phi and b of psi:
    by literal inclusion when both are event conjunctions, else by truth
    table."""
    if a is not None and b is not None:
        return a is FALSE or (b is not FALSE and b <= a)
    names = variables_of(phi) | variables_of(psi)
    for asgn in sig.assignments(names):
        if evaluate_prop(phi, asgn) and not evaluate_prop(psi, asgn):
            return False
    return True


def prop_equivalent(phi: Formula, psi: Formula, sig: Signature) -> bool:
    return prop_entails(phi, psi, sig) and prop_entails(psi, phi, sig)
