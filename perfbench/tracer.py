"""Thread-safe span tracer that times the mmwsim layer modules from outside.

`instrument` replaces every public function of the layer modules with a
wrapper that opens a span and records work counts.  The engine reaches the
layer functions through module attributes (``deployment_mod.drop_mobiles``,
``propagation.pl_los_ci``, ``metrics.geometry_metric`` ...), and the layers
reach their own helpers through module globals, so the wrappers see every
call without any change to the package.  A function that no longer exists
is simply not wrapped, and the metrics built on it read as absent.

`layer_metrics` turns the spans and counts of one traced run into the
per-layer metrics listed in `PER_LAYER`.

Which end-to-end metric a change to each layer should move:
- ``deployment.*``: wall_s and links_per_s on scenario_indoor_dense and
  sweep_outdoor_5x2, not on links_dump, where it is a few percent of a run.
- ``propagation.o2i_loss.*``: scenario_indoor_dense only; the sweep is
  outdoor and skips O2I.
- ``metrics.geometry_metric.*`` and ``antenna.*``: wall_s on both
  simulation workloads, more on the dense one.
- ``engine.save_results.*``: wall_s and peak_rss_mb on links_dump only.
- ``deployment.drop_mobiles.calls``: falls only on sweep_outdoor_5x2, when
  the two schemes of a carrier share one geometry; wall_s falls with it.
- ``engine.run_scenario.self_s``: wall_s on sweep_outdoor_5x2 when drop
  scheduling over its two workers changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

LAYERS = ("deployment", "propagation", "antenna", "linkbudget", "metrics", "engine")
ROOT = "trace.root"

# Private functions that get a span of their own, and the metric their self
# time counts toward.  `_simulate_drop` runs on the engine's worker threads,
# so without a span its inline code would be time no span owns.
PRIVATE_SPANS = {"engine._simulate_drop": "engine.run_scenario"}

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("deployment.self_s", "s"),
    ("deployment.drop_mobiles.self_s", "s"),
    ("deployment.drop_mobiles.calls", "count"),
    ("deployment.drop_mobiles.stations", "count"),
    ("deployment.wrap_displacements.self_s", "s"),
    ("deployment.wrap_displacements.pairs", "count"),
    ("deployment.wrap_displacements.bytes_computed", "bytes"),
    ("deployment.in_footprint.self_s", "s"),
    ("deployment.in_footprint.points", "count"),
    ("deployment.sample_acceptance", "ratio"),
    ("propagation.self_s", "s"),
    ("propagation.draw_shadows.self_s", "s"),
    ("propagation.los_probability.self_s", "s"),
    ("propagation.pl_los_ci.self_s", "s"),
    ("propagation.pl_los_ci.elements", "count"),
    ("propagation.pl_nlos_abg.self_s", "s"),
    ("propagation.pl_nlos_abg.elements", "count"),
    ("propagation.pathloss_useful_ratio", "ratio"),
    ("propagation.o2i_loss.self_s", "s"),
    ("propagation.oxygen_absorption.self_s", "s"),
    ("antenna.self_s", "s"),
    ("antenna.sector_gain.self_s", "s"),
    ("antenna.sector_gain.elements", "count"),
    ("linkbudget.self_s", "s"),
    ("linkbudget.coupling_loss.self_s", "s"),
    ("metrics.self_s", "s"),
    ("metrics.geometry_metric.self_s", "s"),
    ("metrics.geometry_metric.elements", "count"),
    ("metrics.empirical_cdf.self_s", "s"),
    ("metrics.empirical_cdf.samples", "count"),
    ("engine.self_s", "s"),
    ("engine.run_scenario.self_s", "s"),
    ("engine.run_sweep.self_s", "s"),
    ("engine.save_results.self_s", "s"),
    ("engine.save_results.bytes", "bytes"),
    ("engine.save_results.mb_per_s", "MB/s"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
)
UNITS = dict(PER_LAYER)


def _size(x) -> int:
    return int(np.size(x))


def _wrap_bytes(a, out) -> int:
    # the seed algorithm materialises an (n, images, sites, 2) float64
    # difference array and its (n, images, sites) norms
    n, sites = out[1].shape
    images = 1 + len(a["deployment"].wrap_vectors)
    return n * images * sites * 3 * 8


# span name -> f(bound arguments, result) -> {count name: increment}
COUNTERS = {
    "deployment.drop_mobiles": lambda a, out: {
        "deployment.drop_mobiles.calls": 1,
        "deployment.drop_mobiles.stations": int(a["count"])},
    "deployment.wrap_displacements": lambda a, out: {
        "deployment.wrap_displacements.pairs": _size(out[1]),
        "deployment.wrap_displacements.bytes_computed": _wrap_bytes(a, out)},
    "deployment.in_footprint": lambda a, out: {
        "deployment.in_footprint.points": _size(out)},
    "propagation.pl_los_ci": lambda a, out: {
        "propagation.pl_los_ci.elements": _size(out)},
    "propagation.pl_nlos_abg": lambda a, out: {
        "propagation.pl_nlos_abg.elements": _size(out)},
    "antenna.sector_gain": lambda a, out: {
        "antenna.sector_gain.elements": _size(out)},
    "metrics.geometry_metric": lambda a, out: {
        "metrics.geometry_metric.elements": _size(a["p_rx_dbm"])},
    "metrics.empirical_cdf": lambda a, out: {
        "metrics.empirical_cdf.samples": _size(a["samples"])},
    "engine.save_results": lambda a, out: {
        "engine.save_results.bytes": sum(os.path.getsize(p) for p in out)},
}


@dataclass
class Span:
    id: int
    parent: int | None
    thread: int
    run: int
    name: str
    depth: int
    start: float
    end: float = 0.0


class Tracer:
    """Collects spans and counts in memory from any number of threads.

    Each thread has its own span stack.  The first span on any thread but
    the tracer's creator takes the creator's innermost open span as parent,
    which links drop work on the engine's worker threads to the call that
    started it.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.count_errors: set[str] = set()  # span names whose counter failed
        self.run_id = 0
        self.wrapped: set[str] = set()
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[Span]] = {}
        self._owner = threading.get_ident()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        parent = stack[-1].id if stack else self._adopted_parent(tid)
        span = Span(next(self._ids), parent, tid, self.run_id, name, len(stack),
                    time.perf_counter())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def _adopted_parent(self, tid: int) -> int | None:
        if tid == self._owner:
            return None
        try:
            return self._stacks[self._owner][-1].id
        except (KeyError, IndexError):
            return None

    def add_counts(self, counts: dict):
        with self._lock:
            self.counts.update(counts)

    def take_counts(self) -> Counter:
        """Return the counts so far and start again from zero."""
        with self._lock:
            counts, self.counts = self.counts, Counter()
        return counts


def _wrap(tracer: Tracer, name: str, fn):
    counter = COUNTERS.get(name)
    signature = inspect.signature(fn) if counter else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if counter is not None:
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.add_counts(counter(bound.arguments, out))
            except (KeyError, TypeError, AttributeError, IndexError, ValueError,
                    OSError):
                # the function changed shape; its counts read as absent
                tracer.count_errors.add(name)
        return out

    return wrapper


def instrument(tracer: Tracer):
    """Wrap the mmwsim layer functions in place; returns an undo callable."""
    originals = []
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"mmwsim.{layer}")
        except ImportError:
            continue
        tracer.wrapped.add(layer)
        for attr, obj in list(vars(module).items()):
            name = f"{layer}.{attr}"
            public = not attr.startswith("_") and inspect.isfunction(obj) \
                and obj.__module__ == module.__name__
            if public or (name in PRIVATE_SPANS and callable(obj)):
                originals.append((module, attr, obj))
                setattr(module, attr, _wrap(tracer, name, obj))
                tracer.wrapped.add(name)

    def undo():
        for module, attr, obj in originals:
            setattr(module, attr, obj)
    return undo


def own_time(spans: list[Span]) -> dict[int, float]:
    """Wall-clock share of each span's own time, by span id.

    A span owns an instant when it is the innermost open span of its thread
    and no span open on another thread descends from it: a thread waiting
    for the workers it started owns nothing while they run.  Each instant is
    split evenly among its owners, so the shares sum to the wall time the
    spans cover.  With one thread this is plain self time.
    """
    parent = {s.id: s.parent for s in spans}

    def descends(span, ancestor):
        p = span.parent
        while p is not None:
            if p == ancestor:
                return True
            p = parent.get(p)
        return False

    # at one instant: ends before starts, inner ends first, outer starts first
    events = sorted([(s.start, 1, s.depth, s) for s in spans]
                    + [(s.end, 0, -s.depth, s) for s in spans],
                    key=lambda e: e[:3])
    stacks = defaultdict(list)
    share = dict.fromkeys(parent, 0.0)
    prev = None
    for t, starts, _, span in events:
        if prev is not None and t > prev:
            tops = [st[-1] for st in stacks.values() if st]
            owners = [a for a in tops
                      if not any(b is not a and descends(b, a.id) for b in tops)]
            for a in owners:
                share[a.id] += (t - prev) / len(owners)
        prev = t
        if starts:
            stacks[span.thread].append(span)
        else:
            stacks[span.thread].pop()
    return share


def _metric_of(span_name: str) -> str:
    return PRIVATE_SPANS.get(span_name, span_name)


def layer_metrics(tracer: Tracer, spans: list[Span], counts: Counter) -> dict:
    """Per-layer metrics of one traced run whose outermost span is `ROOT`.

    Returns {name: value} for every metric of `PER_LAYER` that can be
    measured; the caller adds ``trace.overhead_frac``.
    """
    share = own_time(spans)
    self_s = defaultdict(float)
    root = [s for s in spans if s.name == ROOT]
    for s in spans:
        if s.name == ROOT:
            continue
        self_s[s.name.split(".")[0] + ".self_s"] += share[s.id]
        self_s[_metric_of(s.name) + ".self_s"] += share[s.id]

    out = {}
    for name, unit in PER_LAYER:
        base = name.rsplit(".", 1)[0]
        if unit == "s" and base in tracer.wrapped:
            out[name] = self_s[name]
        elif unit in ("count", "bytes") and base in tracer.wrapped \
                and base not in tracer.count_errors:
            out[name] = int(counts[name])
    out["trace.wall_s"] = root[0].end - root[0].start
    out["trace.unattributed_s"] = share[root[0].id]
    out["trace.spans"] = len(spans)

    def ratio(name, num, den):
        if num in out and all(d in out for d in den) and sum(out[d] for d in den):
            out[name] = out[num] / sum(out[d] for d in den)

    # stations kept over candidate points tested
    ratio("deployment.sample_acceptance", "deployment.drop_mobiles.stations",
          ["deployment.in_footprint.points"])
    # path-loss values needed (one per station-site pair) over values computed
    ratio("propagation.pathloss_useful_ratio", "deployment.wrap_displacements.pairs",
          ["propagation.pl_los_ci.elements", "propagation.pl_nlos_abg.elements"])
    if "engine.save_results.bytes" in out and out.get("engine.save_results.self_s"):
        out["engine.save_results.mb_per_s"] = (
            out["engine.save_results.bytes"] / 1e6 / out["engine.save_results.self_s"])
    return out
