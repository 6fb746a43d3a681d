"""Spans around the calls into each ``pricechoose`` module, from outside.

``Tracer.install()`` replaces each traced function at every place the package
binds it (``report.run_pnc`` and ``auction.run_pnc`` as well as
``mechanism.run_pnc``, the package root's re-exports, ...) and each traced
method or cached property on its class.  Every call records one span:
name, start, end, parent span and op id.  Spans stay in memory; ``metrics()``
turns them into per-layer self times, call counts and the shape-derived
counts, and ``uninstall()`` puts the originals back.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict

from pricechoose.menu import MenuGrid
from pricechoose.utility import UtilityProfile

# Traced functions: span name -> attribute of the defining module.
FUNCTIONS = [
    "config.scenario_from_dict",
    "menu.enumerate_grid",
    "menu.lipschitz_ratio",
    "utility.evaluate",
    "utility.check_cash_invariance",
    "utility.estimate_lipschitz",
    "welfare.maximize_welfare",
    "welfare.pareto_check",
    "mechanism.calibrate",
    "mechanism.run_pnc",
    "mechanism.validate_schedule",
    "mechanism.audit_first_mover_bound",
    "mechanism.bump_profile",
    "auction.run_auction_then_pnc",
    "auction.efficient_surplus",
    "auction.audit_bid_deviation",
    "report.run_experiment",
    "report.structured_text",
]
# Traced members: span name -> (class, attribute).
METHODS = {
    "menu.features": (MenuGrid, "features"),
    "menu.diameter": (MenuGrid, "diameter"),
    "menu.distances_to": (MenuGrid, "distances_to"),
    "utility.matrix": (UtilityProfile, "matrix"),
    "utility.at_point": (UtilityProfile, "at_point"),
}
# Per-point utility evaluation is one layer metric across three entry points.
LAYER_OF_SPAN = {"utility.at_point": "utility.evaluate",
                 "utility.check_cash_invariance": "utility.evaluate"}
# run_experiment's self time is the orchestration's own work (invariant
# checks, report assembly); its name says so.
SELF_TIME_NAME = {"report.run_experiment": "report.run_experiment.self_s"}


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_grid(counts, fn, args, kwargs, result):
    counts["menu.points"] += result.n_points


def _count_features(counts, fn, args, kwargs, result):
    counts["menu.features.dim"] = max(counts["menu.features.dim"], result.shape[1])
    counts["menu.features.bytes"] += result.nbytes


def _count_diameter(counts, fn, args, kwargs, result):
    p = args[0].n_points
    counts["menu.diameter.pairs"] += p * p if result[1] else 0


def _count_lipschitz(counts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    p = a["grid"].n_points
    if p >= 2:
        counts["menu.lipschitz_ratio.pairs"] += (
            p * p if p <= a["exhaustive_threshold"] else a["num_samples"])


def _count_pareto(counts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    counts["welfare.pareto_check.comparisons"] += (
        a["grid"].n_points * a["profile"].n_agents)


def _count_report(counts, fn, args, kwargs, result):
    counts["report.bytes"] += len(result.encode())


COUNTERS = {
    "menu.enumerate_grid": _count_grid,
    "menu.features": _count_features,
    "menu.diameter": _count_diameter,
    "menu.lipschitz_ratio": _count_lipschitz,
    "welfare.pareto_check": _count_pareto,
    "report.structured_text": _count_report,
}
# Shape-derived counts: repeat exactly for the same inputs.  The two byte
# figures are computed from array and string sizes, not measured traffic.
COUNT_METRICS = ["menu.points", "menu.features.dim", "menu.features.bytes",
                 "menu.diameter.pairs", "menu.lipschitz_ratio.pairs",
                 "welfare.pareto_check.comparisons", "report.bytes"]


def layer_names() -> list[str]:
    names = FUNCTIONS + list(METHODS)
    return sorted({LAYER_OF_SPAN.get(n, n) for n in names})


def metric_names() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = {}
    for layer in layer_names():
        out[SELF_TIME_NAME.get(layer, layer + ".s")] = "s"
        out[layer + ".calls"] = "count"
    for name in COUNT_METRICS:
        out[name] = "computed_B" if name.endswith(".bytes") else "count"
    out["trace.ops"] = "count"
    out["trace.op_p50_s"] = "s"
    return out


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def op_self_by_name(spans: list[list]) -> dict[str, float]:
    """Self seconds per span name, over the spans inside ops (not set-up)."""
    out: dict[str, float] = defaultdict(float)
    for span, t in zip(spans, self_times(spans)):
        if span[4] is not None:
            out[span[0]] += t
    return dict(out)


def module_self_times(by_name: dict[str, float]) -> dict[str, float]:
    """Self seconds per module, from self seconds per span name."""
    out: dict[str, float] = defaultdict(float)
    for name, t in by_name.items():
        out[name.split(".")[0]] += t
    return dict(out)


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, op]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else None, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self.counts, fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "pricechoose" or key.startswith("pricechoose.")]
        for name in FUNCTIONS:
            mod, attr = name.split(".")
            original = getattr(sys.modules["pricechoose." + mod], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)
        for name, (cls, attr) in METHODS.items():
            original = cls.__dict__[attr]
            if isinstance(original, functools.cached_property):
                wrapper = functools.cached_property(self._wrap(name, original.func))
                wrapper.__set_name__(cls, attr)
            else:
                wrapper = self._wrap(name, original)
            self._undo.append((cls, attr, original))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    @contextlib.contextmanager
    def op_span(self, k: int):
        """Op ``k``'s root span; every span opened inside carries its id."""
        self.op = k
        span = ["op", time.perf_counter(), None, None, k]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self.op = None

    def metrics(self) -> dict[str, float]:
        own = self_times(self.spans)
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        op_seconds = []
        for span, t in zip(self.spans, own):
            if span[0] == "op":
                op_seconds.append(span[2] - span[1])
                continue
            layer = LAYER_OF_SPAN.get(span[0], span[0])
            seconds[layer] += t
            calls[layer] += 1
        out: dict[str, float] = {}
        for layer in layer_names():
            out[SELF_TIME_NAME.get(layer, layer + ".s")] = seconds[layer]
            out[layer + ".calls"] = calls[layer]
        for name in COUNT_METRICS:
            out[name] = self.counts[name]
        out["trace.ops"] = len(op_seconds)
        out["trace.op_p50_s"] = statistics.median(op_seconds) if op_seconds else 0.0
        return out
