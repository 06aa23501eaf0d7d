"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package by rebinding the module
attributes that callers look up at call time (for example
``gentwistor.harness.generalized_curvature``), so the package itself is
not changed.  Each span keeps its name, start, end, parent span and op
id in flat arrays; self time and per-op counts are derived once the run
has ended.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from time import perf_counter

import numpy as np


@contextlib.contextmanager
def rebound(module, attr, value):
    """Set module.attr to value for the duration; yields the original."""
    original = getattr(module, attr)
    setattr(module, attr, value)
    try:
        yield original
    finally:
        setattr(module, attr, original)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.keys: dict[str, set] = {}
        self.op_labels: list = []
        self.op_id = -1
        self._stack = [-1]

    def begin_op(self, label) -> None:
        """Spans recorded from now on belong to a new op."""
        self.op_id = len(self.op_labels)
        self.op_labels.append(label)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, key=None):
        """fn, recording one span per call; key(*args) values are
        collected per name so that distinct inputs can be counted."""
        nid = self._name_id(name)
        if key is not None:
            seen = self.keys.setdefault(name, set())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                seen.add(key(*args))
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self.op_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, hooks):
        """Rebind (module, attribute, span name[, key]) hooks; restore on exit."""
        with contextlib.ExitStack() as stack:
            for module, attr, name, *key in hooks:
                stack.enter_context(rebound(module, attr, self.wrap(getattr(module, attr), name, *key)))
            yield self

    def arrays(self) -> dict[str, np.ndarray]:
        dur = np.frombuffer(self.end, float) - np.frombuffer(self.start, float)
        parent = np.frombuffer(self.parent, np.int32)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {
            "name": np.frombuffer(self.name, np.int32),
            "parent": parent,
            "op": np.frombuffer(self.op, np.int32),
            "start": np.frombuffer(self.start, float),
            "end": np.frombuffer(self.end, float),
            "dur": dur,
            "self": dur - children,
        }

    def save(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{k: a[k] for k in ("name", "parent", "op", "start", "end")},
        )


class SpanStats:
    """Totals per span name and per layer (the name up to its first dot)."""

    def __init__(self, tracer: Tracer):
        self._a = tracer.arrays()
        self._ids = {n: i for i, n in enumerate(tracer.names)}
        self._names = tracer.names
        self.n_ops = len(tracer.op_labels)

    def _mask(self, name: str) -> np.ndarray:
        return self._a["name"] == self._ids.get(name, -1)

    def calls(self, *names: str) -> int:
        return int(sum(self._mask(n).sum() for n in names))

    def total(self, *names: str, field: str = "dur") -> float:
        return float(sum(self._a[field][self._mask(n)].sum() for n in names))

    def mean(self, name: str) -> float:
        calls = self.calls(name)
        return self.total(name) / calls if calls else 0.0

    def layer_self(self, layer: str) -> float:
        ids = [i for i, n in enumerate(self._names) if n.split(".", 1)[0] == layer]
        return float(self._a["self"][np.isin(self._a["name"], ids)].sum())

    def per_op(self, *names: str) -> np.ndarray:
        """Call count of the named spans inside each op."""
        mask = np.zeros(self._a["name"].size, bool)
        for n in names:
            mask |= self._mask(n)
        ops = self._a["op"][mask]
        return np.bincount(ops[ops >= 0], minlength=self.n_ops)[: self.n_ops]
