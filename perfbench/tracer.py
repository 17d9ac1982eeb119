"""Spans and counts around sensel's layer boundaries, recorded from outside.

The program carries no instrumentation of its own yet, so the traced run
rebinds a fixed list of public functions with timing wrappers.  A function
is rebound in every loaded ``sensel`` module that holds it, including the
module that defines it, so callers reach the wrapper whichever module they
call it through.  Leaving the ``rebound`` context restores every binding.

Spans stay in memory as ``[name, start, end, parent, op]`` rows; ``parent``
is the index of the enclosing span (-1 for a root) and ``op`` the id of the
benchmark operation that caused it.  ``write`` dumps them once at the end.

The tracing overhead is not measured by comparing a traced with an untraced
operation, which on a shared machine differ by more than the overhead: it
is the number of wrapped calls times the cost of one wrapper, measured in
isolation by ``wrapper_costs``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

LAYERS = ("model", "measure", "filter", "select_lp", "select_sdr", "sim", "cli")

# Functions timed as spans, as (defining module, function name).  A span is
# named "<module>.<function>"; the module is its layer.  ``linalg`` is a
# helper and is timed inside its callers; ``select_separable`` is not used
# by any workload.
SPANNED = (
    ("model", "load_scenario"),
    ("filter", "open_loop_predictions"),
    ("filter", "predict"),
    ("filter", "update_gif"),
    ("measure", "info_table"),
    ("measure", "objective_f3"),
    ("select_lp", "build_lp"),
    ("select_lp", "solve_lp"),
    ("select_lp", "round_energy"),
    ("select_lp", "certify"),
    ("select_sdr", "build_bqp"),
    ("select_sdr", "build_sdp"),
    ("select_sdr", "solve_sdp"),
    ("select_sdr", "randomize_round"),
    ("select_sdr", "select_ignore_dependence"),
    ("sim", "run_closed_loop"),
    ("sim", "simulate_truth"),
    ("sim", "simulate_measurements"),
)

# Called thousands of times per randomization, so it gets a counter and no
# span: the candidates it returns inside ``randomize_round`` are collected
# to count distinct schedules.
COUNTED = ("select_lp", "round_by_scores")

MB = 1e6


class Tracer:
    """In-memory span log plus counts, for one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._round_keys: set[bytes] = set()

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def _inside(self, name: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][0] == name

    def _record(self, name: str, args, result) -> None:
        """Counts and totals read from the arguments and results of a call."""
        totals = self.totals
        if name == "model.load_scenario":
            totals["model.load_calls"] += 1
        elif name == "filter.update_gif":
            totals["filter.updates"] += 1
        elif name == "select_lp.solve_lp":
            totals["select_lp.pivots"] += result.iterations
        elif name == "select_sdr.solve_sdp":
            problem = args[0]
            rows = len(problem.rows) + problem.dim
            totals["select_sdr.iterations"] += result.iterations
            totals["select_sdr.lifted_mb"] += rows * problem.dim**2 * 8 / MB
        elif name == "select_sdr.randomize_round":
            totals["select_sdr.samples"] += result.samples
            totals["select_sdr.distinct"] += len(self._round_keys)
            self._round_keys.clear()
        elif name == "sim.run_closed_loop":
            totals["sim.runs"] += result.runs
            totals["sim.plan_s"] += result.solve_seconds

    def _spanned(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            self._record(name, args, result)
            return result

        return traced

    def _counted(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.totals["trace.counted_calls"] += 1
            if self._inside("select_sdr.randomize_round"):
                self.totals["select_sdr.rounded"] += 1
                self._round_keys.add(result.gamma.tobytes())
            return result

        return counted

    @contextmanager
    def rebound(self):
        """Rebind the traced functions in every loaded sensel module.

        Raises ``AttributeError`` when a listed function no longer exists,
        so a rename fails the traced run instead of reading as a speed-up.
        """
        wrappers = {}
        for layer, fn_name in (*SPANNED, COUNTED):
            module = importlib.import_module(f"sensel.{layer}")
            original = getattr(module, fn_name, None)
            if original is None:
                raise AttributeError(f"sensel.{layer}.{fn_name} is gone; update tracer.py")
            if (layer, fn_name) == COUNTED:
                wrappers[id(original)] = (original, self._counted(original))
            else:
                wrappers[id(original)] = (original, self._spanned(original, f"{layer}.{fn_name}"))
        saved = []
        for key, module in list(sys.modules.items()):
            if module is None or not (key == "sensel" or key.startswith("sensel.")):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)

    def op_times(self, ops):
        """Per-operation mean span times over the given operations.

        Returns (inclusive time by span name, self time by span name, self
        time by layer); self time is a span's duration minus its children's.
        """
        ops = set(ops)
        child_time = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if op in ops and parent >= 0:
                child_time[parent] += end - start
        inclusive = defaultdict(float)
        own = defaultdict(float)
        layer_own = defaultdict(float)
        n = max(len(ops), 1)
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if op in ops:
                duration = (end - start) / n
                self_time = duration - child_time[index] / n
                inclusive[name] += duration
                own[name] += self_time
                layer_own[name.split(".")[0]] += self_time
        return inclusive, own, layer_own

    def write(self, path) -> None:
        rows = [
            {"name": name, "start": start, "end": end, "parent": parent, "op": op}
            for name, start, end, parent, op in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"spans": rows, "totals": dict(self.totals)}, handle)


def wrapper_costs(calls: int = 20000, repeats: int = 5) -> tuple[float, float]:
    """Seconds that one span wrapper and one counted wrapper add to a call.

    Measured in isolation on a function that returns at once: the best of
    ``repeats`` loops of ``calls`` calls, less the same loop unwrapped.  The
    counted wrapper is timed inside a rounding span, where it also records
    the candidate schedule.
    """
    probe = Tracer()
    result = SimpleNamespace(gamma=np.zeros((20, 5), dtype=np.int8))

    def bare():
        return result

    def best(fn) -> float:
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - started)
        return min(times) / calls

    base = best(bare)
    span_cost = best(probe._spanned(bare, "calibrate")) - base
    with probe.span("select_sdr.randomize_round"):
        count_cost = best(probe._counted(bare)) - base
    return max(span_cost, 0.0), max(count_cost, 0.0)
