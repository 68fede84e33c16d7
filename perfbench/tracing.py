"""Spans and counters around recoval's layers, installed from outside.

``Tracer.install`` wraps every public function of each recoval module,
the ``cdf``/``quantile``/``partial_expectation`` methods and the
constructors of the type-distribution classes, and the Monte Carlo
block runner.  Each wrapper is bound wherever the original is bound: in
its defining module and in every recoval module (or the package) that
imported the name.  ``uninstall`` puts every original back.

A span is one wrapped call.  Spans are aggregated as they close --
nothing per call is kept -- into calls and inclusive time per span
name, and self time per layer: a span's duration minus the part of it
its child spans cover.  Monte Carlo blocks run on worker threads; their
spans are children of the estimate call that started them, and the
time they cover is the union of their intervals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = {
    "recoval.cli": "cli",
    "recoval.design": "design",
    "recoval.extensions": "extensions",
    "recoval.montecarlo": "montecarlo",
    "recoval.value": "value",
    "recoval.receiver": "receiver",
    "recoval.core": "core",
    "recoval.distributions": "distributions",
    "recoval._quadrature": "quadrature",
}
TYPE_METHODS = ("cdf", "quantile", "partial_expectation")

# (span, ancestor): calls and time of the span also counted when it runs
# anywhere inside the ancestor span
WITHIN = (
    ("core.version_buy_probabilities", "value.system_value"),
    ("receiver.effects", "value.system_value"),
    ("distributions.cdf", "value.system_value"),
    ("value.integral_system_value", "value.system_value"),
    ("value.system_value", "design.optimize_threshold"),
)
_ANCESTORS = defaultdict(tuple)
for _span, _ancestor in WITHIN:
    _ANCESTORS[_span] += (_ancestor,)

MARK = "__perfbench_wrapper__"


class _Frame:
    __slots__ = ("name", "layer", "parent", "thread", "start", "covered", "intervals")

    def __init__(self, name, layer, parent, thread):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = thread
        self.covered = 0.0
        self.intervals = None


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.children = defaultdict(int)
        self.within_calls = defaultdict(int)
        self.within_time = defaultdict(float)
        self.counters = defaultdict(int)
        self.mc_time = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name, layer, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        frame = _Frame(name, layer, parent, threading.get_ident())
        stack.append(frame)
        frame.start = perf_counter()
        return frame

    def _exit(self, frame):
        end = perf_counter()
        self._stack().pop()
        duration = end - frame.start
        covered = frame.covered
        if frame.intervals:
            covered += _union_length(frame.intervals)
        name, parent = frame.name, frame.parent
        with self._lock:
            self.calls[name] += 1
            self.time[name] += duration
            self.self_time[frame.layer] += duration - covered
            if parent is not None:
                self.children[parent.name] += 1
                if parent.thread == frame.thread:
                    parent.covered += duration
                else:
                    if parent.intervals is None:
                        parent.intervals = []
                    parent.intervals.append((frame.start, end))
            if frame.layer == "montecarlo" and (
                parent is None or parent.layer != "montecarlo"
            ):
                self.mc_time += duration
            for ancestor in _ANCESTORS.get(name, ()):
                node = parent
                while node is not None and node.name != ancestor:
                    node = node.parent
                if node is not None:
                    self.within_calls[name, ancestor] += 1
                    self.within_time[name, ancestor] += duration

    def _count(self, key, amount):
        with self._lock:
            self.counters[key] += amount

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, name, layer):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        setattr(wrapper, MARK, True)
        return wrapper

    def _wrap_quantile(self, fn):
        inner = self._wrap(fn, "distributions.quantile", "distributions")
        count = self._count

        @functools.wraps(fn)
        def wrapper(self_, u):
            count("distributions.quantile.draws", np.size(u))
            return inner(self_, u)

        setattr(wrapper, MARK, True)
        return wrapper

    def _wrap_estimate_multi(self, fn):
        inner = self._wrap(fn, "montecarlo.estimate_multi", "montecarlo")
        count = self._count

        @functools.wraps(fn)
        def wrapper(system, config):
            result = inner(system, config)
            if config.mode == "multi":
                count("montecarlo.kept", result.posterior[0].samples)
                count("montecarlo.drawn", result.value.samples)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _wrap_run_blocks(self, fn):
        """Give each block a span parented to the estimate that runs it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(seed, total, block_fn):
            stack = tracer._stack()
            parent = stack[-1] if stack else None

            def block(rng, count):
                frame = tracer._enter("montecarlo.block", "montecarlo", parent)
                try:
                    return block_fn(rng, count)
                finally:
                    tracer._exit(frame)
                    tracer._count("montecarlo.blocks", 1)
                    tracer._count("montecarlo.samples", count)

            return fn(seed, total, block)

        setattr(wrapper, MARK, True)
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install(self):
        modules = {name: importlib.import_module(name) for name in MODULES}
        replacements = {}
        for mod_name, module in modules.items():
            layer = MODULES[mod_name]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod_name
                    and not attr.startswith("_")
                ):
                    if (mod_name, attr) == ("recoval.montecarlo", "estimate_multi"):
                        replacements[obj] = self._wrap_estimate_multi(obj)
                    else:
                        replacements[obj] = self._wrap(obj, f"{layer}.{attr}", layer)
        run_blocks = modules["recoval.montecarlo"]._run_blocks
        replacements[run_blocks] = self._wrap_run_blocks(run_blocks)
        for name, module in list(sys.modules.items()):
            if name != "recoval" and not name.startswith("recoval."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    self._set(module, attr, replacements[obj])
        dist_mod = modules["recoval.distributions"]
        for cls in vars(dist_mod).values():
            if not (inspect.isclass(cls) and issubclass(cls, dist_mod.TypeDistribution)):
                continue
            for attr in TYPE_METHODS:
                if attr in cls.__dict__:
                    fn = cls.__dict__[attr]
                    if attr == "quantile":
                        wrapped = self._wrap_quantile(fn)
                    else:
                        wrapped = self._wrap(fn, f"distributions.{attr}", "distributions")
                    self._set(cls, attr, wrapped)
            if "__init__" in cls.__dict__:
                self._set(
                    cls, "__init__",
                    self._wrap(cls.__dict__["__init__"], "distributions.construct",
                               "distributions"),
                )

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def installed_wrappers() -> list:
    """Names of perfbench wrappers currently bound anywhere in recoval."""
    found = []
    for name, module in list(sys.modules.items()):
        if name != "recoval" and not name.startswith("recoval."):
            continue
        for attr, obj in vars(module).items():
            if getattr(obj, MARK, False):
                found.append(f"{name}.{attr}")
            if inspect.isclass(obj):
                for cattr, cobj in vars(obj).items():
                    if getattr(cobj, MARK, False):
                        found.append(f"{name}.{attr}.{cattr}")
    return found


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from one traced pass: name -> (value, unit)."""
    calls, time, own = tracer.calls, tracer.time, tracer.self_time
    within_calls, within_time = tracer.within_calls, tracer.within_time
    counters = tracer.counters
    values = calls["value.system_value"]
    draws = counters["distributions.quantile.draws"]
    extensions = sum(n for name, n in calls.items() if name.startswith("extensions."))
    return {
        "core.vbp_per_value": (
            _ratio(within_calls["core.version_buy_probabilities", "value.system_value"], values),
            "count"),
        "core.self_s": (own["core"], "s"),
        "receiver.effects_per_value": (
            _ratio(within_calls["receiver.effects", "value.system_value"], values), "count"),
        "receiver.self_s": (own["receiver"], "s"),
        "value.system_value.calls": (values, "count"),
        "value.self_s": (own["value"], "s"),
        "value.integral_share": (
            _ratio(within_time["value.integral_system_value", "value.system_value"],
                   time["value.system_value"]), "ratio"),
        "design.optimize.calls": (calls["design.optimize_threshold"], "count"),
        "design.value_calls_per_optimize": (
            _ratio(within_calls["value.system_value", "design.optimize_threshold"],
                   calls["design.optimize_threshold"]), "count"),
        "design.self_s": (own["design"], "s"),
        "distributions.cdf.calls": (calls["distributions.cdf"], "count"),
        "distributions.cdf_per_value": (
            _ratio(within_calls["distributions.cdf", "value.system_value"], values), "count"),
        "distributions.self_s": (own["distributions"], "s"),
        "distributions.partial_expectation.s": (time["distributions.partial_expectation"], "s"),
        "distributions.construct.s": (time["distributions.construct"], "s"),
        "distributions.quantile.draws": (draws, "count"),
        "distributions.quantile.draws_per_s": (
            _ratio(draws, time["distributions.quantile"]), "1/s"),
        "quadrature.calls": (calls["quadrature.adaptive_simpson"], "count"),
        "quadrature.evals_per_call": (
            _ratio(tracer.children["quadrature.adaptive_simpson"],
                   calls["quadrature.adaptive_simpson"]), "count"),
        "quadrature.self_s": (own["quadrature"], "s"),
        "montecarlo.self_s": (own["montecarlo"], "s"),
        "montecarlo.samples_per_s": (
            _ratio(counters["montecarlo.samples"], tracer.mc_time), "1/s"),
        "montecarlo.blocks": (counters["montecarlo.blocks"], "count"),
        "montecarlo.kept_ratio": (
            _ratio(counters["montecarlo.kept"], counters["montecarlo.drawn"]), "ratio"),
        "extensions.calls": (extensions, "count"),
        "extensions.self_s": (own["extensions"], "s"),
        "cli.parse_s": (time["cli.build_parser"] + time["cli.parse_scenario"], "s"),
        "cli.self_s": (own["cli"], "s"),
    }
