"""Spans recorded around margmap's public functions, from outside the package.

``Tracer.installed()`` replaces each traced function at every module
attribute of the package that is bound to it, so calls between layers
(``margmap.heuristic.mar``, ``margmap.bench.pr``, ``margmap.inference.factor_product``
...) go through a wrapper that records one span: its name, start, end and
the span that was open when it began. Spans stay in flat in-memory arrays
until ``save``. A function a later version no longer has or no longer calls
simply reports zero.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from contextlib import contextmanager
from functools import update_wrapper
from pathlib import Path

import numpy as np


def _product_out(tracer: "Tracer", args, kwargs, result) -> None:
    values = result.values
    tracer.add("model.factor_product.out_mb", values.size * values.itemsize / 1e6)
    tracer.peak("model.factor_product.max_entries", values.size)


def _parse_in(tracer: "Tracer", args, kwargs, result) -> None:
    text = args[0] if args else kwargs["text"]
    tracer.add("uaiio.parse_uai.mb", len(text) / 1e6)


def _oracle_states(tracer: "Tracer", args, kwargs, result) -> None:
    model = args[0] if args else kwargs["model"]
    explain = args[2] if len(args) > 2 else kwargs["explain"]
    cards = model.cardinalities
    tracer.add("inference.brute_force_mmap.states", math.prod(cards[int(v)] for v in set(explain)))


def _solve_queries(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.add("heuristic.mar_calls", result.mar_calls)


def _bench_instances(tracer: "Tracer", args, kwargs, result) -> None:
    spec = args[0] if args else kwargs["spec"]
    tracer.add("bench.instances", spec.q)


# (defining module, function, span name, hook run on the result)
TRACED = [
    ("uaiio", "parse_uai", "uaiio.parse_uai", _parse_in),
    ("model", "factor_product", "model.factor_product", _product_out),
    ("model", "factor_restrict", "model.factor_restrict", None),
    ("model", "factor_marginalize", "model.factor_marginalize", None),
    ("model", "normalize", "model.normalize", None),
    ("inference", "mar", "inference.mar", None),
    ("inference", "min_fill_order", "inference.min_fill_order", None),
    ("inference", "pr", "inference.pr", None),
    ("inference", "entropy", "inference.entropy", None),
    ("inference", "brute_force_mmap", "inference.brute_force_mmap", _oracle_states),
    ("heuristic", "mmap2mar", "heuristic.solve", _solve_queries),
    ("heuristic", "epsilon_mmap2mar", "heuristic.solve", _solve_queries),
    ("bench", "run_benchmark", "bench.run_benchmark", _bench_instances),
    ("bench", "generate_instance", "bench.generate_instance", None),
    ("cli", "main", "cli.main", None),
]

SPAN_NAMES = sorted({name for _, _, name, _ in TRACED})


class Tracer:
    """Flat span log plus summed counters, filled only while installed."""

    def __init__(self) -> None:
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.kind = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.op_first = array("q")
        self._stack = [-1]
        self.counters: dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0.0), value)

    def begin_op(self) -> None:
        """Mark where the spans of the next operation start."""
        self.op_first.append(len(self.kind))

    def _wrap(self, fn, span_name: str, hook):
        kind_id = self.name_ids[span_name]
        kind, parent, start, end, stack = self.kind, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(kind)
            kind.append(kind_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return update_wrapper(traced, fn)

    @contextmanager
    def installed(self):
        """Route every package-level binding of a traced function through a wrapper."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "margmap" or name.startswith("margmap."))]
        restore = []
        try:
            for module_name, fn_name, span_name, hook in TRACED:
                fn = getattr(sys.modules.get(f"margmap.{module_name}"), fn_name, None)
                if fn is None:
                    continue
                wrapper = self._wrap(fn, span_name, hook)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
                            restore.append((module, attr, fn))
            yield self
        finally:
            for module, attr, fn in reversed(restore):
                setattr(module, attr, fn)

    def totals(self) -> dict[str, float]:
        """Calls, inclusive seconds and self seconds per span name, plus counters."""
        kind = np.asarray(self.kind, dtype=np.int32)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end, dtype=np.float64) - np.asarray(self.start, dtype=np.float64)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        out = dict(self.counters)
        for name, i in self.name_ids.items():
            mask = kind == i
            out[f"{name}.calls"] = float(mask.sum())
            out[f"{name}.s"] = float(dur[mask].sum())
            out[f"{name}.self_s"] = float(own[mask].sum())
        return out

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            kind=np.asarray(self.kind, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start, dtype=np.float64),
            end=np.asarray(self.end, dtype=np.float64),
            op_first=np.asarray(self.op_first, dtype=np.int64),
        )
