"""Seeded inputs for the benchmark: model files as `.cm` text, and queries as
formula text.

This module does not import causact.  The inputs depend on this file and
the seed alone, so a change to the library (its fuzz generators included)
cannot move them.  Every model draws from its own generator, seeded with
(workload, seed, model index), so any one input can be rebuilt in isolation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Sem:
    """A generated recursive model: each endogenous variable's equation is
    a full table over parents drawn from the exogenous and earlier
    endogenous variables, so declaration order is a topological order."""

    name: str
    exo: tuple[tuple[str, int], ...]
    endo: tuple[tuple[str, int], ...]
    parents: dict
    tables: dict  # var -> {parent value tuple: value}
    defaults: dict

    def domain(self, var):
        return dict(self.exo + self.endo)[var]

    def text(self) -> str:
        lines = [f"model {self.name}"]
        for kind, decls in (("exo", self.exo), ("var", self.endo)):
            for v, d in decls:
                lines.append(f"{kind} {v} : {{ {', '.join(map(str, range(d)))} }}")
        for v, _ in self.endo:
            rows = [
                " & ".join(f"{p}={c}" for p, c in zip(self.parents[v], combo)) + f" : {val}"
                for combo, val in self.tables[v].items()
            ]
            body = " ; ".join(rows + [f"default: {self.defaults[v]}"])
            lines.append(f"eq {v} = case {{ {body} }}")
        return "\n".join(lines) + "\n"

    def contexts(self):
        names = [u for u, _ in self.exo]
        for values in itertools.product(*(range(d) for _, d in self.exo)):
            yield dict(zip(names, values))

    def solve(self, ctx: dict) -> dict:
        asgn = dict(ctx)
        for v, _ in self.endo:
            asgn[v] = self.tables[v][tuple(asgn[p] for p in self.parents[v])]
        return asgn


def gen_sem(rng, name, exo_doms, endo_doms, max_parents=3) -> Sem:
    """A random model with the given domain sizes; each endogenous variable
    gets 1 to `max_parents` parents and a random full table."""
    exo = tuple((f"U{i}", d) for i, d in enumerate(exo_doms, 1))
    endo = tuple((f"V{i}", d) for i, d in enumerate(endo_doms, 1))
    dom = dict(exo + endo)
    parents, tables, defaults = {}, {}, {}
    pool = [u for u, _ in exo]
    for v, d in endo:
        ps = tuple(rng.sample(pool, min(len(pool), rng.randint(1, max_parents))))
        parents[v] = ps
        tables[v] = {
            combo: rng.randrange(d) for combo in itertools.product(*(range(dom[p]) for p in ps))
        }
        defaults[v] = rng.randrange(d)
        pool.append(v)
    return Sem(name, exo, endo, parents, tables, defaults)


# ---------------------------------------------------------------------------
# Formula text


def context_text(ctx: dict) -> str:
    return " & ".join(f"{u}={x}" for u, x in ctx.items())


def events_text(pairs) -> str:
    return " & ".join(f"{v}={x}" for v, x in pairs)


def random_context(rng, sem: Sem) -> dict:
    return {u: rng.randrange(d) for u, d in sem.exo}


def random_events(rng, sem: Sem, actual: dict, max_size=2, bias=0.7):
    """Events over distinct endogenous variables, biased toward the actual
    values so that the AC1-true path runs often."""
    names = [v for v, _ in sem.endo]
    chosen = rng.sample(names, rng.randint(1, min(max_size, len(names))))
    chosen.sort(key=names.index)
    return [
        (v, actual[v] if rng.random() < bias else rng.randrange(sem.domain(v))) for v in chosen
    ]


def random_prop(rng, sem: Sem, depth) -> str:
    if depth <= 0 or rng.random() < 0.3:
        v, d = rng.choice(sem.endo)
        return f"{v}={rng.randrange(d)}"
    kind = rng.choice(["not", "and", "or"])
    if kind == "not":
        return f"!({random_prop(rng, sem, depth - 1)})"
    op = " & " if kind == "and" else " | "
    return f"({random_prop(rng, sem, depth - 1)}){op}({random_prop(rng, sem, depth - 1)})"


def random_effect(rng, sem: Sem, actual: dict, depth=3) -> str:
    """Half the time an actual-value event on one of the last variables
    (the shape of a typical 'did X cause the outcome' query), otherwise a
    random Boolean formula."""
    if rng.random() < 0.5:
        v, _ = rng.choice(sem.endo[-2:])
        return f"{v}={actual[v]}"
    return random_prop(rng, sem, depth)


def random_transfer_formula(rng, sem: Sem, depth) -> str:
    """A formula whose counterfactual antecedents are event conjunctions,
    the fragment on which a model and its counterpart must agree."""
    if depth <= 0:
        return random_prop(rng, sem, 0)
    kind = rng.choice(["prop", "not", "and", "or", "cond", "cond"])
    if kind == "prop":
        return random_prop(rng, sem, depth)
    if kind == "not":
        return f"!({random_transfer_formula(rng, sem, depth - 1)})"
    if kind == "cond":
        names = [v for v, _ in sem.endo]
        ant = sorted(rng.sample(names, rng.randint(1, min(2, len(names)))), key=names.index)
        ant_text = events_text((v, rng.randrange(sem.domain(v))) for v in ant)
        return f"({ant_text}) ~> ({random_prop(rng, sem, depth - 1)})"
    op = " & " if kind == "and" else " | "
    left = random_transfer_formula(rng, sem, depth - 1)
    right = random_transfer_formula(rng, sem, depth - 1)
    return f"({left}){op}({right})"
