"""Spans around the public functions of sodw's modules, installed from outside.

Tracer.install() wraps every public function of the traced modules (the
names in a module's __all__, or its public names when it has none) and puts
the wrapper in place of the original wherever a sodw module holds a
reference to it, so calls made through an imported name are traced too.
Each call records a span (name, start, end, parent).  A layer is a module;
its self time is the sum over its spans of the span's duration minus the
durations of its direct children.  Spans stay in memory until dump().

The oracle's solver entry point (scipy's solve_ivp as sodw.oracle sees it)
gets a counting wrapper without a span, which reads the evaluation count
that sodw.oracle.integrate does not keep.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("core", "sync", "asynchronous", "oracle", "analysis", "figures", "acceptance", "cli")

#: per-layer metrics reported by the traced run, with their units
METRIC_UNITS = {
    "oracle.solves": "count",
    "oracle.self_s": "s",
    "oracle.nfev": "count",
    "oracle.nfev_per_solve": "count",
    "oracle.ms_per_solve": "ms",
    "oracle.us_per_nfev": "us",
    "oracle.samples_requested": "count",
    "sync.calls": "count",
    "sync.self_s": "s",
    "sync.eigen_calls": "count",
    "sync.eigen_per_point": "count",
    "asynchronous.calls": "count",
    "asynchronous.self_s": "s",
    "analysis.points": "count",
    "analysis.points_sync": "count",
    "analysis.points_async": "count",
    "analysis.points_oracle": "count",
    "analysis.self_s": "s",
    "analysis.us_per_point": "us",
    "core.calls": "count",
    "core.self_s": "s",
    "figures.calls": "count",
    "figures.self_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.files_written": "count",
    "cli.bytes_written": "B",
    "cli.mb_per_s": "MB/s",
    "acceptance.criteria": "count",
    "acceptance.self_s": "s",
    "acceptance.c11_s": "s",
    "trace.overhead_s": "s",
}

_ENGINE_KEYS = {"sync-exact": "sync", "async-exact": "async", "oracle": "oracle"}


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Records spans and counts for one traced pass."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        self.layer_calls = Counter()
        self.layer_self = defaultdict(float)
        self.function_calls = Counter()
        self.samples_requested = 0
        self.nfev = 0
        self.scan_points = Counter()
        self.scan_s = 0.0
        self.criteria = 0
        self.c11_s = 0.0
        self._patches = []

    def wrap(self, layer, name, fn, after=None):
        """Wrapper that records one span per call.

        after(args, kwargs, result, seconds), if given, sees every call that returns.
        """
        qualname = f"{layer}.{name}"
        name_id = len(self.names)
        self.names.append(qualname)
        spans, stack = self.spans, self.stack
        layer_calls, layer_self = self.layer_calls, self.layer_self
        function_calls = self.function_calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                layer_calls[layer] += 1
                function_calls[qualname] += 1
                layer_self[layer] += duration - frame[1]
                spans[index] = (name_id, start, end, parent)
            if after is not None:
                after(args, kwargs, result, duration)
            return result

        return traced

    def _after_integrate(self, args, kwargs, result, seconds):
        grid = args[4] if len(args) > 4 else kwargs["sample_grid"]
        self.samples_requested += len(grid)

    def _after_run_scan(self, args, kwargs, result, seconds):
        self.scan_s += seconds
        for row in result.rows:
            self.scan_points[_ENGINE_KEYS[row.engine]] += 1

    def _after_run_all(self, args, kwargs, result, seconds):
        self.criteria += len(result)
        self.c11_s += sum(r["elapsed"] for r in result if r["id"] == 11)

    def _counting_solver(self, solve_ivp):
        def counted(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            self.nfev += int(sol.nfev)
            return sol

        return counted

    def install(self):
        """Put wrappers in place in every loaded sodw module."""
        hooks = {
            "oracle.integrate": self._after_integrate,
            "analysis.run_scan": self._after_run_scan,
            "acceptance.run_all": self._after_run_all,
        }
        replacement = {}
        for layer in LAYERS:
            module = sys.modules[f"sodw.{layer}"]
            for name, fn in _public_functions(module):
                hook = hooks.get(f"{layer}.{name}")
                replacement[id(fn)] = (fn, self.wrap(layer, name, fn, hook))
        oracle = sys.modules["sodw.oracle"]
        solver = oracle.solve_ivp
        replacement[id(solver)] = (solver, self._counting_solver(solver))
        modules = [m for n, m in sys.modules.items() if n == "sodw" or n.startswith("sodw.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = replacement.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def metrics(self, files_written, bytes_written, overhead_s):
        """Per-layer metrics of the traced pass, keyed as in METRIC_UNITS."""
        solves = self.function_calls["oracle.integrate"]
        eigen_calls = self.function_calls["sync.eigen_sync"]
        oracle_s = self.layer_self["oracle"]
        points = sum(self.scan_points.values())
        cli_s = self.layer_self["cli"]
        values = {
            "oracle.solves": solves,
            "oracle.self_s": oracle_s,
            "oracle.nfev": self.nfev,
            "oracle.nfev_per_solve": self.nfev / solves if solves else 0.0,
            "oracle.ms_per_solve": 1e3 * oracle_s / solves if solves else 0.0,
            "oracle.us_per_nfev": 1e6 * oracle_s / self.nfev if self.nfev else 0.0,
            "oracle.samples_requested": self.samples_requested,
            "sync.eigen_calls": eigen_calls,
            "sync.eigen_per_point": (
                eigen_calls / self.scan_points["sync"] if self.scan_points["sync"] else 0.0
            ),
            "analysis.points": points,
            "analysis.points_sync": self.scan_points["sync"],
            "analysis.points_async": self.scan_points["async"],
            "analysis.points_oracle": self.scan_points["oracle"],
            "analysis.us_per_point": 1e6 * self.scan_s / points if points else 0.0,
            "cli.files_written": files_written,
            "cli.bytes_written": bytes_written,
            "cli.mb_per_s": 1e-6 * bytes_written / cli_s if cli_s else 0.0,
            "acceptance.criteria": self.criteria,
            "acceptance.c11_s": self.c11_s,
            "trace.overhead_s": overhead_s,
        }
        for layer in LAYERS:
            values[f"{layer}.calls"] = self.layer_calls[layer]
            values[f"{layer}.self_s"] = self.layer_self[layer]
        return {name: values[name] for name in METRIC_UNITS}

    def dump(self, path):
        """Write the spans as gzipped JSON: a name table and [name, start, end, parent] rows."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(s - origin, 9), round(e - origin, 9), p] for n, s, e, p in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "spans": rows}, fh, separators=(",", ":"))


def _noop():
    return None


def span_cost(calls=200_000):
    """Seconds one traced call adds over a plain call, measured on a no-op."""
    wrapped = Tracer().wrap("core", "noop", _noop)
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        wrapped()
    traced = clock() - start
    start = clock()
    for _ in range(calls):
        _noop()
    plain = clock() - start
    return max(traced - plain, 0.0) / calls
