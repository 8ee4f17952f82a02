"""Tracing for the benchmark's traced run, from outside the library.

`Tracer.install()` replaces the public functions listed in `FUNCTIONS` and
the methods in `METHODS` with wrappers, at every binding: a function
imported by name into another module (`from .hp import
is_actual_cause_hp` in explanation.py) is a separate binding and is
replaced there too.  `Tracer.restore()` puts the originals back.

A wrapper records a span (name, start, end, parent span, job id) and
counts.  Spans are kept in flat arrays in memory and written out at the end.
A span's self time is its duration minus the part of it that its child
spans cover.

Blind spot: `hp._ac2_search` and `explanation._ex1b_hp` call the private
`CausalModel._eval`, which is not wrapped, so model work done there shows
as self time of the HP or explanation span that encloses it (solve calls
made from there are still counted and timed).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

import causact as ca

# (module, function name, metric prefix)
FUNCTIONS = (
    ("formula", "parse_formula", "formula.parse_formula"),
    ("formula", "prop_entails", "formula.prop_entails"),
    ("formula", "evaluate_prop", "formula.evaluate_prop"),
    ("model", "parse_model", "model.parse_model"),
    ("hp", "is_actual_cause_hp", "hp.is_actual_cause_hp"),
    ("abstract", "is_actual_cause_abstract", "abstract.is_actual_cause_abstract"),
    ("abstract", "enumerate_witnesses", "abstract.enumerate_witnesses"),
    ("correspondence", "build_counterpart", "correspondence.build_counterpart"),
    ("correspondence", "check_correspondence", "correspondence.check_correspondence"),
    ("explanation", "is_explanation_hp", "explanation.is_explanation_hp"),
    ("explanation", "is_explanation_abstract", "explanation.is_explanation_abstract"),
)
# (class, method name, metric prefix)
METHODS = (
    (ca.CausalModel, "solve", "model.solve"),
    (ca.CausalModel, "evaluate", "model.evaluate"),
    (ca.CausalSetting, "counterfactual", "abstract.counterfactual"),
    (ca.CfSetting, "counterfactual", "abstract.counterfactual"),
    (ca.CfStructure, "closest_states", "structure.closest_states"),
    (ca.CfStructure, "satisfies_at", "structure.satisfies_at"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("q")
        self.parent = array("q")
        self.job_of = array("q")
        self._stack: list[int] = []
        self.job = -1  # the job id stamped on new spans; -1 is the probe
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = {}
        self._prop_depth = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- spans

    def open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.job_of.append(self.job)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        selfs = self_times(self.start, self.end, self.parent)
        totals = np.bincount(np.frombuffer(self.name, dtype=np.int64), weights=selfs,
                             minlength=len(self.names))
        return {n: float(totals[i]) for i, n in enumerate(self.names)}

    def save(self, path):
        """Write the spans as flat arrays (numpy .npz) with the name table."""
        np.savez(
            path,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            job=np.frombuffer(self.job_of, dtype=np.int64),
            names=np.array(self.names),
        )

    # -- wrappers

    def _wrap_function(self, fn, label):
        tracer, counts = self, self.counts
        if label == "formula.evaluate_prop":
            # Recursive through its module binding: count top-level calls
            # only, and record no spans (there are millions).
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if tracer._prop_depth == 0:
                    counts[label + ".calls"] += 1
                tracer._prop_depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._prop_depth -= 1

            return wrapper

        if label == "abstract.enumerate_witnesses":
            # A generator: time spent inside each `next` is one span.
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer.open(label)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    counts[label + ".yielded"] += 1
                    yield item

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[label + ".calls"] += 1
            idx = tracer.open(label)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if label == "hp.is_actual_cause_hp":
                counts["hp.witnesses_listed"] += len(out.witnesses)
            elif label == "correspondence.check_correspondence":
                counts["correspondence.psi_checked"] += out.checked_psi_count
            return out

        return wrapper

    def _wrap_method(self, fn, label):
        tracer, counts = self, self.counts
        if label == "model.solve":
            keys = self.keys.setdefault(label, set())

            @functools.wraps(fn)
            def solve(model, u, interventions=None):
                counts[label + ".calls"] += 1
                # The model itself, not its id: ids of dropped models are reused.
                keys.add((model, tuple(sorted(u.items())),
                          tuple(sorted(interventions.items())) if interventions else ()))
                idx = tracer.open(label)
                try:
                    return fn(model, u, interventions)
                finally:
                    tracer.close(idx)

            return solve

        if label == "model.evaluate":
            # A box-arrow formula is the interventionist counterfactual.
            @functools.wraps(fn)
            def evaluate(model, u, phi):
                name = "model.boxarrow" if isinstance(phi, ca.BoxArrow) else label
                counts[name + ".calls"] += 1
                idx = tracer.open(name)
                try:
                    return fn(model, u, phi)
                finally:
                    tracer.close(idx)

            return evaluate

        if label == "abstract.counterfactual":
            @functools.wraps(fn)
            def counterfactual(setting, *args, **kwargs):
                out = fn(setting, *args, **kwargs)
                counts[label + ".calls"] += 1
                counts[label + ".true"] += bool(out)
                return out

            return counterfactual

        if label == "structure.closest_states":
            keys = self.keys.setdefault(label, set())

            @functools.wraps(fn)
            def closest_states(structure, s, phi):
                counts[label + ".calls"] += 1
                keys.add((structure, s, phi))
                idx = tracer.open(label)
                try:
                    return fn(structure, s, phi)
                finally:
                    tracer.close(idx)

            return closest_states

        # structure.satisfies_at: recursive and very frequent; counted only.
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[label + ".calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "causact" or n.startswith("causact."))]
        for modname, fname, label in FUNCTIONS:
            original = getattr(getattr(ca, modname), fname)
            wrapper = self._wrap_function(original, label)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        for cls, mname, label in METHODS:
            original = cls.__dict__[mname]
            self._saved.append((cls, mname, original))
            setattr(cls, mname, self._wrap_method(original, label))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def self_times(start, end, parent) -> np.ndarray:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to its own interval.  Children may
    overlap or outlive their parent; the covered part is counted once."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    out = end - start
    kids = np.nonzero(parent >= 0)[0]
    if kids.size == 0:
        return out
    # Children sorted by (parent, start); `reach` is how far the union of
    # the current parent's children already extends.
    order = kids[np.lexsort((start[kids], parent[kids]))].tolist()
    starts, ends, parents = start.tolist(), end.tolist(), parent.tolist()
    covered = [0.0] * len(starts)
    cur, reach = -1, 0.0
    for i in order:
        p = parents[i]
        if p != cur:
            cur, reach = p, starts[p]
        s, e = max(starts[i], reach), min(ends[i], ends[p])
        if e > s:
            covered[p] += e - s
            reach = e
    return out - np.array(covered)
