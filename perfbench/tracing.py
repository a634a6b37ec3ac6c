"""Spans for the benchmark's traced runs, recorded from outside the program.

A traced run replaces module attributes of pathevac with thin wrappers for
the length of one round and restores them afterwards. Each wrapper is put
on the name its caller actually resolves at call time: `evac` imports
`solve_greedy` by name, so the greedy is wrapped as `evac.solve_greedy` (for
`solve_report`) and as `packing.solve_greedy` (for the benchmark's own
calls); `oracles` calls `kernels.solve_packing_dp` through the module, so
the kernel is wrapped there.

Spans live in memory as (name, start, end, parent, op) tuples and are
written out when the run ends. A wrapper called outside an op (for example
by an untimed check) records nothing.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path

# (module name, attribute, span name). The span name is the layer metric's
# name without its "_s" suffix.
TARGETS = (
    ("model", "parse_instance", "model.parse_instance"),
    ("model", "serialize_schedule", "model.serialize_schedule"),
    ("model", "parse_schedule", "model.parse_schedule"),
    ("evac", "solve_report", "evac.solve_report"),
    ("evac", "reduce_side", "evac.reduce_side"),
    ("evac", "solve_greedy", "packing.solve_greedy"),
    ("evac", "assemble_schedule", "evac.assemble_schedule"),
    ("evac", "simulate", "evac.simulate"),
    ("evac", "schedule_objective", "evac.schedule_objective"),
    ("evac", "validate_schedule", "evac.validate_schedule"),
    ("packing", "solve_greedy", "packing.solve_greedy"),
    ("relax", "reduced_ready_times", "relax.reduced_ready_times"),
    ("relax", "solve_fractional_greedy", "relax.solve_fractional_greedy"),
    ("relax", "fractional_objective", "relax.fractional_objective"),
    ("oracles", "exact_packing_opt", "oracles.exact_packing_opt"),
    ("oracles", "exact_dwsf_opt", "oracles.exact_dwsf_opt"),
    ("oracles", "exact_fractional_opt_mcf",
     "oracles.exact_fractional_opt_mcf"),
    ("kernels", "solve_packing_dp", "kernels.solve_packing_dp"),
    ("instances", "gen_random", "instances.gen_random"),
    ("instances", "gen_random_packing", "instances.gen_random_packing"),
)

LAYERS = tuple(dict.fromkeys(name for _m, _a, name in TARGETS))


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        # A span's slot is reserved when it opens and filled when it closes,
        # so a parent's index is known to its children.
        self.spans: list = []
        self.op: object = None      # id of the op being traced, or None
        self._stack: list[int] = []

    @contextmanager
    def op_span(self, op: object, name: str):
        """Open the root span of one op; layer spans nest under it."""
        self.op = op
        try:
            with self._span(name):
                yield
        finally:
            self.op = None

    @contextmanager
    def _span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            with self._span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Wrap every target in `modules` (name -> module) while active."""
        saved = []
        try:
            for mod_name, attr, name in TARGETS:
                mod = modules[mod_name]
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(name, original))
            yield
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def self_times(self) -> list[tuple[str, object, float]]:
        """(name, op, self seconds) per span: its duration minus the part
        covered by its direct children."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _name, start, end, parent, _op in spans:
            if parent >= 0:
                child[parent] += end - start
        return [(name, op, end - start - child[i])
                for i, (name, start, end, _p, op) in enumerate(spans)]


def write_spans(spans: list, path: Path) -> None:
    """Dump spans as JSON lines, times relative to the first span."""
    t0 = spans[0][1] if spans else 0.0
    with path.open("w", encoding="utf-8") as fh:
        for name, start, end, parent, op in spans:
            fh.write(json.dumps({
                "name": name, "start": start - t0, "end": end - t0,
                "parent": parent, "op": op}) + "\n")
