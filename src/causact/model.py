"""Recursive structural-equations models.

Equations are guarded decision tables (ordered guard rows plus a mandatory
default), so totality is syntactic.  Dependency edges are computed by the
variation criterion, not by syntactic guard mention: X -> Y iff some setting
of the remaining variables and two values of X change the value of Y.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .formula import (
    And,
    BoxArrow,
    Bot,
    ExoEvent,
    Formula,
    FormulaError,
    Intervene,
    Not,
    Or,
    PrimEvent,
    Signature,
    Top,
    conjuncts,
    evaluate_prop,
    format_formula,
    free_endogenous,
    is_propositional,
    parse_formula,
    variables_of,
)


class ModelError(ValueError):
    """Raised for invalid models: cycles, bad equations, bad contexts."""


@dataclass(frozen=True)
class Equation:
    """Decision table for one endogenous variable: first matching guard wins,
    the default row covers everything else."""

    target: str
    rows: tuple[tuple[Formula, str], ...]
    default: str


class CausalModel:
    """A recursive causal model over a signature.

    Construction validates the equations, compiles each decision table down
    to a lookup over its semantic parents (the variables its guards mention
    but that never change its value are dropped), and topologically sorts
    the dependency DAG (raising ModelError with a witness cycle otherwise).

    A table is compiled over the product of its mentioned variables' ranges.
    Each guard is labelled once with the set of rows where it holds, a
    bitset with one bit per row, at a few bitset operations per node of
    the guard; nothing is evaluated row by row.  A table of more than 2^22
    rows is rejected with ModelError.
    """

    def __init__(self, sig: Signature, equations: dict[str, Equation], name: str = "model"):
        self.sig = sig
        self.name = name
        self.equations = dict(equations)
        self._compile(self._validate_equations())
        self.topo_order = self._topological_order()
        self._solve_cache: dict = {}

    # -- validation and compilation

    def _validate_equations(self) -> dict[str, set[str]]:
        """Check every equation against the signature; returns, per
        variable, the variables its guards mention."""
        sig = self.sig
        missing = [x for x in sig.endo_names if x not in self.equations]
        if missing:
            raise ModelError(f"missing equation for {', '.join(missing)}")
        extra = [x for x in self.equations if not sig.is_endogenous(x)]
        if extra:
            raise ModelError(f"equation for non-endogenous variable {', '.join(extra)}")
        mentioned = {}
        for x, eq in self.equations.items():
            if eq.target != x:
                raise ModelError(f"equation registered under {x} targets {eq.target}")
            rng = sig.range_of(x)
            if eq.default not in rng:
                raise ModelError(f"default value {eq.default!r} outside the range of {x}")
            names = mentioned[x] = set()
            for guard, value in eq.rows:
                if value not in rng:
                    raise ModelError(f"row value {value!r} outside the range of {x}")
                for name in variables_of(guard):
                    if name == x:
                        raise ModelError(f"equation for {x} may not mention {x} itself")
                    sig.range_of(name)  # raises on unknown variables
                    names.add(name)
        return mentioned

    def _compile(self, mentioned: dict[str, set[str]]):
        """Tabulate each equation over the variables its guards mention,
        then keep as parents those that two rows differing only in them map
        to different values, and re-key the table over the parents.

        The rows are the product of the mentioned variables' ranges, in
        `itertools.product` order.  A set of rows is an int whose bit r
        stands for row r; each guard's set is labelled bottom-up from the
        sets of its events, and takes the rows no earlier guard took."""
        self._tables: dict[str, dict[tuple, str]] = {}
        parents = {}
        for x, eq in self.equations.items():
            order = tuple(n for n in self.sig.all_names() if n in mentioned[x])
            ranges = [self.sig.range_of(n) for n in order]
            size = 1
            for rng in ranges:
                size *= len(rng)
            if size > 1 << 22:
                raise ModelError(f"decision table for {x} is too large to tabulate ({size} rows)")
            events = _event_rows(order, ranges, size)
            full = (1 << size) - 1
            rows_of = {}  # value -> the rows the guards give it
            still_open = full
            for guard, value in eq.rows:
                hit = _guard_rows(guard, events, full) & still_open
                if hit:
                    rows_of[value] = rows_of.get(value, 0) | hit
                    still_open ^= hit
            column = [eq.default] * size
            for value, rows in rows_of.items():
                for r in _members(rows):
                    column[r] = value
            table = dict(zip(itertools.product(*ranges), column))
            keep = [i for i in range(len(order)) if _varies(table, i)]
            parents[x] = tuple(order[i] for i in keep)
            self._tables[x] = {tuple(key[i] for i in keep): v for key, v in table.items()}
        self.parents: dict[str, tuple[str, ...]] = {x: parents[x] for x in self.sig.endo_names}

    def equation_value(self, x: str, assignment: dict) -> str:
        """F_X applied to an assignment of (at least) X's parents."""
        return self._tables[x][tuple(assignment[n] for n in self.parents[x])]

    def equation_codes(self, codes: np.ndarray) -> np.ndarray:
        """Every equation applied to every row of `codes`, a matrix of value
        indices with one column per variable of `sig.all_names()`: row r,
        column j is the index in Y's range of F_Y(row r), for the j-th
        endogenous Y."""
        out = np.empty((len(codes), len(self.sig.endo_names)), dtype=np.intp)
        for j, (table, columns, dims) in enumerate(self._code_tables):
            row = np.zeros(len(codes), dtype=np.intp)
            for c, d in zip(columns, dims):
                row = row * d + codes[:, c]
            out[:, j] = table[row]
        return out

    @cached_property
    def _code_tables(self) -> list[tuple[np.ndarray, list[int], list[int]]]:
        """Per endogenous variable, its equation as a table of value indices
        laid out densely over its parents' value indices (which the
        compile-time size check bounds), with the parents' columns in
        `sig.all_names()` and their range sizes."""
        sig = self.sig
        column = {n: c for c, n in enumerate(sig.all_names())}
        tables = []
        for x in sig.endo_names:
            index = sig.value_index[x]
            ranges = [sig.range_of(p) for p in self.parents[x]]
            table = np.array([index[self._tables[x][key]] for key in itertools.product(*ranges)], dtype=np.intp)
            tables.append((table, [column[p] for p in self.parents[x]], [len(r) for r in ranges]))
        return tables

    def _topological_order(self) -> tuple[str, ...]:
        """Repeatedly place the first endogenous variable, in signature
        order, whose endogenous parents are all placed."""
        endo = self.sig.endo_names
        preds = {x: [p for p in self.parents[x] if self.sig.is_endogenous(p)] for x in endo}
        order: list[str] = []
        while len(order) < len(endo):
            x = next((x for x in endo if x not in order and all(p in order for p in preds[x])), None)
            if x is None:
                cycle = self._find_cycle(preds, [x for x in endo if x not in order])
                raise ModelError("cyclic dependency: " + " -> ".join(cycle))
            order.append(x)
        return tuple(order)

    @staticmethod
    def _find_cycle(preds, stuck):
        start = stuck[0]
        path = [start]
        seen = {start}
        cur = start
        while True:
            nxt = next(p for p in preds[cur] if p in stuck)
            if nxt in seen:
                return path[path.index(nxt):] + [nxt]
            path.append(nxt)
            seen.add(nxt)
            cur = nxt

    # -- core operations

    def validate_context(self, u: dict) -> dict:
        ctx = {}
        for name in self.sig.exo_names:
            if name not in u:
                raise ModelError(f"context is missing exogenous variable {name}")
            if u[name] not in self.sig.range_of(name):
                raise ModelError(f"context value {u[name]!r} outside the range of {name}")
            ctx[name] = u[name]
        extra = set(u) - set(self.sig.exo_names)
        if extra:
            raise ModelError(f"context assigns non-exogenous variable {', '.join(sorted(extra))}")
        return ctx

    def solve(self, u: dict, interventions: dict | None = None) -> dict:
        """The unique simultaneous solution in context u, optionally under an
        intervention that pins some endogenous variables."""
        return self._solve(self.validate_context(u), interventions or {})

    def _solve(self, ctx: dict, inter: dict) -> dict:
        """`solve` for a context `validate_context` has already returned."""
        key = (tuple(ctx[n] for n in self.sig.exo_names), tuple(sorted(inter.items())))
        cached = self._solve_cache.get(key)
        if cached is not None:
            return dict(cached)
        asgn = dict(ctx)
        # The base topological order stays valid: intervening only removes edges.
        for x in self.topo_order:
            asgn[x] = inter[x] if x in inter else self.equation_value(x, asgn)
        self._solve_cache[key] = dict(asgn)
        return asgn

    def relevant(self, moved, targets) -> set[str]:
        """The endogenous variables outside `moved` that descend from some
        variable of `moved` and are, or are ancestors of, some variable of
        `targets`.  Under an intervention that sets `moved` and holds other
        variables at their actual values, every other variable either keeps
        its actual value anyway (it does not descend from `moved`) or cannot
        change a target (it is no ancestor of one)."""
        below = set(moved)
        for x in self.topo_order:
            if x not in below and any(p in below for p in self.parents[x]):
                below.add(x)
        return (below & self.ancestors(targets)) - set(moved)

    def ancestors(self, targets) -> set[str]:
        """The variables of `targets` and all their ancestors.  No
        intervention can make any other variable change a target's value."""
        above = set(targets)
        for x in reversed(self.topo_order):
            if x in above:
                above.update(self.parents[x])
        return above

    # -- satisfaction

    def check_causal_fragment(self, phi: Formula, *, in_boxarrow=False):
        """Reject formulas outside L_ex(S): no nested box-arrows, box-arrow
        antecedents propositional, interventions with propositional bodies."""
        if isinstance(phi, Not):
            self.check_causal_fragment(phi.sub, in_boxarrow=in_boxarrow)
        elif isinstance(phi, (And, Or)):
            self.check_causal_fragment(phi.left, in_boxarrow=in_boxarrow)
            self.check_causal_fragment(phi.right, in_boxarrow=in_boxarrow)
        elif isinstance(phi, Intervene):
            for name, value in phi.assignments:
                if not self.sig.is_endogenous(name):
                    raise FormulaError(f"cannot intervene on {name}: not endogenous")
                if value not in self.sig.range_of(name):
                    raise FormulaError(f"value {value!r} outside the range of {name}")
            if not is_propositional(phi.body):
                raise FormulaError("intervention bodies must be propositional")
        elif isinstance(phi, BoxArrow):
            if in_boxarrow:
                raise FormulaError("nested counterfactuals are not evaluable in causal models")
            if not is_propositional(phi.antecedent):
                raise FormulaError("box-arrow antecedents must be propositional")
            self.check_causal_fragment(phi.consequent, in_boxarrow=True)
        elif not isinstance(phi, (PrimEvent, ExoEvent, Top, Bot)):
            raise FormulaError(f"not a causal formula: {phi!r}")

    def evaluate(self, u: dict, phi: Formula) -> bool:
        """Satisfaction at the causal setting (M, u), for L_ex(S)."""
        self.check_causal_fragment(phi)
        return self._eval(self.validate_context(u), phi, {})

    def _eval(self, u: dict, phi: Formula, inter: dict) -> bool:
        """Truth of phi in the solution of the validated context u under
        `inter`; an intervention adds its assignments to `inter`, a
        box-arrow enumerates its own (so a lone box-arrow needs no solution
        here)."""
        if isinstance(phi, BoxArrow):
            return self._eval_boxarrow(u, phi)

        def modal(node):
            if isinstance(node, BoxArrow):
                return self._eval_boxarrow(u, node)
            return self._eval(u, node.body, {**inter, **dict(node.assignments)})

        return evaluate_prop(phi, self._solve(u, inter), modal)

    def _eval_boxarrow(self, u: dict, phi: BoxArrow) -> bool:
        """phi ~> psi holds iff for some value vector y over the endogenous
        variables Y of phi, phi & Y=y is propositionally consistent and
        [Y <- y] psi holds.

        Only vectors that agree with phi's top-level literals X=x and X!=x
        are tried: any other vector falsifies an endogenous conjunct of phi
        and so is inconsistent whatever the exogenous values."""
        ant = phi.antecedent
        endo_occ = free_endogenous(ant)
        ys = [n for n in self.sig.endo_names if n in endo_occ]
        return self.boxarrow_search(u, ys, self.literal_candidates(ant, ys), ant, phi.consequent)

    def literal_candidates(self, ant: Formula, ys) -> list[list[str]]:
        """For each variable of `ys`, the values of its range that agree
        with ant's top-level literals X=x and X!=x."""
        allowed = {n: set(self.sig.range_of(n)) for n in ys}
        for part in conjuncts(ant):
            negated = isinstance(part, Not)
            lit = part.sub if negated else part
            if isinstance(lit, PrimEvent) and lit.var in allowed:
                if negated:
                    allowed[lit.var].discard(lit.val)
                else:
                    allowed[lit.var] &= {lit.val}
        return [[v for v in self.sig.range_of(n) if v in allowed[n]] for n in ys]

    def boxarrow_search(self, u: dict, ys, candidates, ant: Formula, cons: Formula) -> bool:
        """Whether some vector in the product of `candidates` (one value
        list per variable of `ys`, tried in lexicographic order) is
        consistent with `ant` and makes `cons` true in context u under the
        intervention setting ys to it.  `ys` must cover the endogenous
        variables of `ant`; `u` is a validated context."""
        all_occ = variables_of(ant)
        exo_occ = [n for n in self.sig.exo_names if n in all_occ]
        for values in itertools.product(*candidates):
            fixed = dict(zip(ys, values))
            if not self._consistent_with(ant, fixed, exo_occ):
                continue
            if self._eval(u, cons, dict(fixed)):
                return True
        return False

    def _consistent_with(self, ant: Formula, fixed: dict, exo_occ: list) -> bool:
        """Consistency of ant & (Y=y): endogenous atoms are covered by
        `fixed`; exogenous atoms range freely."""
        if not exo_occ:
            return evaluate_prop(ant, fixed)
        for values in itertools.product(*(self.sig.range_of(n) for n in exo_occ)):
            asgn = dict(fixed)
            asgn.update(zip(exo_occ, values))
            if evaluate_prop(ant, asgn):
                return True
        return False


def _event_rows(order, ranges, size: int) -> dict[tuple[str, str], int]:
    """For each (variable, value) of `order`, the set of rows of the product
    of `ranges` where the variable has that value, as a bitset.  Variable i
    repeats each value over `stride` rows, the product of the later ranges,
    so its first value holds on a block of `stride` rows every `period`
    rows, and each later value on that pattern shifted by `stride`."""
    out = {}
    stride = size
    for name, rng in zip(order, ranges):
        period, stride = stride, stride // len(rng)
        first = _tile((1 << stride) - 1, period, size // period)
        for k, value in enumerate(rng):
            out[name, value] = first << (k * stride)
    return out


def _tile(pattern: int, period: int, count: int) -> int:
    """`count` copies of `pattern`, the j-th shifted by j * period bits,
    made by doubling the copies and cutting off those past `count`."""
    out, n = pattern, 1
    while n < count:
        out |= out << (n * period)
        n *= 2
    return out & ((1 << (count * period)) - 1)


def _guard_rows(guard: Formula, events: dict[tuple[str, str], int], full: int) -> int:
    """The rows where a propositional guard holds, labelled bottom-up from
    `events` (an event outside it holds nowhere).  `full` is the set of all
    rows.  The walk keeps its own stacks, so the guard's depth is not
    bounded by the recursion limit."""
    walk, stack = [], [guard]
    while stack:  # operators before their operands
        node = stack.pop()
        walk.append(node)
        kind = type(node)
        if kind is And or kind is Or:
            stack += node.left, node.right
        elif kind is Not:
            stack.append(node.sub)
    rows = []
    for node in reversed(walk):
        kind = type(node)
        if kind is PrimEvent or kind is ExoEvent:
            rows.append(events.get((node.var, node.val), 0))
        elif kind is And:
            rows.append(rows.pop() & rows.pop())
        elif kind is Or:
            rows.append(rows.pop() | rows.pop())
        elif kind is Not:
            rows.append(full ^ rows.pop())
        else:
            rows.append(full if kind is Top else 0)
    return rows[0]


def _members(bits: int):
    """The positions of the set bits of `bits`, lowest first."""
    digits = bin(bits)[:1:-1]  # least significant first, without "0b"
    r = digits.find("1")
    while r >= 0:
        yield r
        r = digits.find("1", r + 1)


def _varies(table: dict[tuple, str], i: int) -> bool:
    """Whether two keys of `table` that differ only at position i map to
    different values."""
    seen: dict[tuple, str] = {}
    for key, value in table.items():
        if seen.setdefault(key[:i] + key[i + 1 :], value) != value:
            return True
    return False


# ---------------------------------------------------------------------------
# Model DSL (.cm files)


def parse_model(text: str, name_hint: str = "model") -> CausalModel:
    """Parse the model DSL:

        model IDENT
        exo IDENT : { VALUE, ... }
        var IDENT : { VALUE, ... }
        eq IDENT = case { GUARD : VALUE ; ... default : VALUE }

    '#' starts a comment.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    body = "\n".join(lines)

    name = name_hint
    exo: list[tuple[str, tuple[str, ...]]] = []
    endo: list[tuple[str, tuple[str, ...]]] = []
    eq_texts: list[tuple[str, str]] = []

    statements = _split_statements(body)
    for stmt in statements:
        if stmt.startswith("model "):
            name = stmt.split(None, 1)[1].strip()
        elif stmt.startswith("exo ") or stmt.startswith("var "):
            (exo if stmt.startswith("exo") else endo).append(_parse_declaration(stmt))
        elif stmt.startswith("eq "):
            rest = stmt[3:]
            if "=" not in rest:
                raise ModelError(f"malformed equation: {stmt!r}")
            var, table = rest.split("=", 1)
            eq_texts.append((_identifier(var, stmt), table.strip()))
        else:
            raise ModelError(f"unrecognized statement: {stmt!r}")

    sig = Signature(tuple(exo), tuple(endo))
    equations = {}
    for var, table in eq_texts:
        if not sig.is_endogenous(var):
            raise ModelError(f"equation for unknown endogenous variable {var!r}")
        equations[var] = _parse_case(var, table, sig)
    return CausalModel(sig, equations, name=name)


def _split_statements(body: str) -> list[str]:
    """Statements start with a keyword; braces may span lines."""
    statements = []
    current: list[str] = []
    depth = 0
    for line in body.splitlines():
        starts = line.split(None, 1)[0] if line else ""
        if depth == 0 and starts in ("model", "exo", "var", "eq", "structure", "state", "order"):
            if current:
                statements.append(" ".join(current))
            current = [line]
        else:
            current.append(line)
        depth += line.count("{") - line.count("}")
    if current:
        statements.append(" ".join(current))
    return statements


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_VALUE_RE = re.compile(_IDENT_RE.pattern + r"|[0-9]+")


def _identifier(text: str, ctx: str) -> str:
    name = text.strip()
    if not _IDENT_RE.fullmatch(name) or name in ("true", "false"):  # formulas read those as constants
        raise ModelError(f"expected a variable name, got {name!r}: {ctx!r}")
    return name


def _parse_declaration(stmt: str) -> tuple[str, tuple[str, ...]]:
    """`exo IDENT : { VALUE, ... }` or `var ...` -> (IDENT, values)."""
    var, colon, rng = stmt[3:].partition(":")
    if not colon:
        raise ModelError(f"malformed declaration: {stmt!r}")
    return _identifier(var, stmt), _parse_value_set(rng, stmt)


def _parse_value_set(text: str, ctx: str) -> tuple[str, ...]:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ModelError(f"expected a value set in braces: {ctx!r}")
    inner = text[1:-1].strip()
    if not inner:
        raise ModelError(f"empty value set: {ctx!r}")
    values = tuple(v.strip() for v in inner.split(","))
    for v in values:
        if not _VALUE_RE.fullmatch(v):
            raise ModelError(f"value {v!r} is not an identifier or a number: {ctx!r}")
    return values


def _parse_case(var: str, text: str, sig: Signature) -> Equation:
    text = text.strip()
    if not text.startswith("case"):
        raise ModelError(f"equation for {var} must be a case table")
    text = text[4:].strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ModelError(f"equation for {var}: expected braces around the case table")
    inner = text[1:-1]
    rows: list[tuple[Formula, str]] = []
    default: str | None = None
    for part in inner.split(";"):
        part = part.strip()
        if not part:
            continue
        if default is not None:
            raise ModelError(f"equation for {var}: default row must come last")
        guard_text, _, value = part.rpartition(":")
        guard_text, value = guard_text.strip(), value.strip()
        if not guard_text:
            raise ModelError(f"equation for {var}: malformed row {part!r}")
        if guard_text == "default":
            default = value
        else:
            rows.append((parse_formula(guard_text, sig), value))
    if default is None:
        raise ModelError(f"equation for {var} is missing a default row")
    return Equation(var, tuple(rows), default)


def model_to_text(m: CausalModel) -> str:
    """Serialize back to the model DSL (stable, deterministic output)."""
    out = [f"model {m.name}"]
    for n, rng in m.sig.exogenous:
        out.append(f"exo {n} : {{ {', '.join(rng)} }}")
    for n, rng in m.sig.endogenous:
        out.append(f"var {n} : {{ {', '.join(rng)} }}")
    for n in m.sig.endo_names:
        eq = m.equations[n]
        rows = "".join(f"{format_formula(g)} : {v} ; " for g, v in eq.rows)
        out.append(f"eq {n} = case {{ {rows}default : {eq.default} }}")
    return "\n".join(out) + "\n"


def parse_context(text: str, sig: Signature) -> dict:
    """Parse a context literal like "U=u11" or "U1=0 & U2=1" (commas also
    accepted) into a total exogenous assignment.  Blank text is the empty
    context, the context of a model with no exogenous variables."""
    parts = conjuncts(parse_formula(text.replace(",", "&"), sig)) if text.strip() else []
    ctx = {}
    for part in parts:
        if not isinstance(part, ExoEvent):
            raise ModelError(f"context literals must be exogenous events, got {format_formula(part)}")
        if part.var in ctx:
            raise ModelError(f"context assigns {part.var} twice")
        ctx[part.var] = part.val
    missing = [n for n in sig.exo_names if n not in ctx]
    if missing:
        raise ModelError(f"context is missing {', '.join(missing)}")
    return ctx
