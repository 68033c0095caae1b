"""Span recorder installed around the cross-module calls of the cdlmg package.

Nothing under ``src/`` knows about it.  `Tracer.install` replaces, in every
loaded ``cdlmg.*`` module, each function that the module imported from
another cdlmg module (or from scipy) with a wrapper that records a span;
`Tracer.uninstall` puts the originals back.  A span belongs to the layer of
the module that defines the function (scipy calls belong to the caller's
layer), so a layer's self time is the time spent in its own code.

The parent of a span is carried in a context variable.  The figure presets
run trajectories on a ``ThreadPoolExecutor``; while tracing, that pool is
swapped for one that runs every task in a copy of the submitter's context,
so spans opened in pool threads keep the preset's span as their parent.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

LAYERS = ("spin_algebra", "spectrum", "counterdiabatic", "band_operators",
          "dynamics", "ansatz", "figures", "cli")

# Calls made through a module object rather than an imported name:
# dynamics calls ``bandops.decompose_band``.
MODULE_ATTRIBUTE_CALLS = (("cdlmg.band_operators", "decompose_band"),)

# What a span keeps from its call, by span name.
_KEEP = {
    "spectrum.sector_ground_series": lambda args, result: len(result[1]),
    "dynamics.evolve": lambda args, result: result.info["steps"],
    "ansatz.minimize": lambda args, result: (args[0], int(result.nfev), float(result.fun)),
    "ansatz.least_squares": lambda args, result: int(result.nfev),
}

# Reported metric prefix -> span name.  Each gets <prefix>_s (inclusive
# time summed over calls) and <prefix>_calls.
TIMED_CALLS = {
    "spectrum.ground_series": "spectrum.sector_ground_series",
    "spectrum.gap_series": "spectrum.gap_series",
    "counterdiabatic.cd_block": "counterdiabatic.sector_cd_block",
    "counterdiabatic.exact_cd": "counterdiabatic.exact_cd",
    "dynamics.evolve": "dynamics.evolve",
    "ansatz.optimize": "ansatz.optimize",
    "ansatz.search": "ansatz.minimize",
    "ansatz.fit": "ansatz.fit_harmonics",
    "ansatz.lsq": "ansatz.least_squares",
    "ansatz.evaluate_fit": "ansatz.evaluate_fit",
    "band_operators.decompose": "band_operators.decompose_band",
    "spin_algebra.build_spin_ops": "spin_algebra.build_spin_ops",
    "spin_algebra.interaction_matrix": "spin_algebra.interaction_matrix",
    "figures.run_figure": "figures.run_figure",
}

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class Span:
    __slots__ = ("name", "layer", "parent", "thread", "start", "end", "info")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.layer = name.partition(".")[0]
        self.parent = parent
        self.thread = threading.get_ident()
        self.start = self.end = 0.0
        self.info = None


class _ContextPool(ThreadPoolExecutor):
    """Runs each task in a copy of the submitting thread's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        span = Span(name, _current.get())
        token = _current.set(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            _current.reset(token)
            self.spans.append(span)

    def _wrap(self, name: str, fn):
        keep = _KEEP.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if keep is not None:
                span.info = keep(args, result)
            return result

        traced.perfbench_traced = True
        return traced

    def _patch(self, module, attr: str, value) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for modname, attr in MODULE_ATTRIBUTE_CALLS:
            module = sys.modules[modname]
            if hasattr(module, attr):
                layer = modname.split(".")[1]
                self._patch(module, attr, self._wrap(f"{layer}.{attr}", getattr(module, attr)))
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("cdlmg.") and m is not None]
        for module in modules:
            layer = module.__name__.split(".")[1]
            for attr, value in list(vars(module).items()):
                if value is ThreadPoolExecutor:
                    self._patch(module, attr, _ContextPool)
                    continue
                if not inspect.isfunction(value) or getattr(value, "perfbench_traced", False):
                    continue
                home = value.__module__ or ""
                if home.startswith("cdlmg.") and home != module.__name__:
                    name = f"{home.split('.')[1]}.{value.__name__}"
                elif home.startswith("scipy."):
                    name = f"{layer}.{value.__name__}"
                else:
                    continue
                self._patch(module, attr, self._wrap(name, value))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, path) -> None:
        """Write the recorded spans, one JSON object a line."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": index.get(id(s.parent)), "thread": s.thread}) + "\n")


# --------------------------------------------------------------------------
# per-layer metrics

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _wall_shares(spans: list[Span]) -> dict:
    """Split wall time among the spans doing work at each instant.

    A span works while it is the innermost open span on its thread and none
    of its children (on any thread) is open.  Each instant goes in equal
    parts to the layers of the working spans, so the shares add up to the
    time covered by at least one span.
    """
    events = sorted([(s.start, 1, i) for i, s in enumerate(spans)]
                    + [(s.end, 0, i) for i, s in enumerate(spans)])
    open_children: dict = defaultdict(int)
    stacks: dict = defaultdict(list)
    shares: dict = defaultdict(float)
    previous = None
    for when, is_start, i in events:
        if previous is not None and when > previous:
            working = [top for stack in stacks.values() if stack
                       for top in (stack[-1],) if open_children[id(top)] == 0]
            for s in working:
                shares[s.layer] += (when - previous) / len(working)
        previous = when
        span = spans[i]
        if is_start:
            stacks[span.thread].append(span)
            open_children[id(span.parent)] += 1
        else:
            stacks[span.thread].remove(span)
            open_children[id(span.parent)] -= 1
    return shares


def _winning_nfev_frac(searches: list[Span]) -> float:
    """Share of minimize evaluations spent in the start that won its segment.

    Starts are grouped by objective identity; the winner of a group is its
    first start with the lowest objective value, as the optimizer keeps it.
    """
    groups: dict = {}
    for s in sorted(searches, key=lambda s: s.start):
        objective, nfev, fun = s.info
        groups.setdefault(id(objective), []).append((fun, nfev))
    total = sum(nfev for runs in groups.values() for _, nfev in runs)
    won = sum(min(runs, key=lambda r: r[0])[1] for runs in groups.values())
    return won / total if total else 0.0


def layer_metrics(spans: list[Span], window_s: float, pool_workers: int) -> dict:
    """Per-layer numbers of one traced repetition.

    `window_s` is the traced wall time: the summed duration of the
    ``cli.main`` spans that every job runs in.  Those spans cover the whole
    window, so the ``<layer>.wall_share_s`` add up to it with no remainder;
    ``<layer>.self_s`` sums span time minus the time its children cover,
    over all threads.
    """
    children: dict = defaultdict(list)
    by_name: dict = defaultdict(list)
    for s in spans:
        children[id(s.parent)].append(s)
        by_name[s.name].append(s)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        kids = [(c.start, c.end) for c in children[id(s)]]
        own = (s.end - s.start) - _covered(kids, s.start, s.end)
        self_s[s.layer] = self_s.get(s.layer, 0.0) + own
    shares = _wall_shares(spans)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.wall_share_s"] = shares.get(layer, 0.0)
    out["trace.wall_s"] = window_s
    out["trace.spans"] = len(spans)
    for prefix, name in TIMED_CALLS.items():
        calls = by_name.get(name, [])
        out[f"{prefix}_s"] = sum((s.end - s.start for s in calls), 0.0)
        out[f"{prefix}_calls"] = len(calls)

    out["spectrum.ground_series_points"] = sum(
        s.info for s in by_name["spectrum.sector_ground_series"])
    steps = sum(s.info for s in by_name["dynamics.evolve"])
    out["dynamics.steps"] = steps
    out["dynamics.self_us_per_step"] = 1e6 * self_s["dynamics"] / steps if steps else 0.0
    searches = by_name["ansatz.minimize"]
    nfev = sum(s.info[1] for s in searches)
    out["ansatz.starts"] = out.pop("ansatz.search_calls")
    out["ansatz.nfev"] = nfev
    out["ansatz.us_per_eval"] = 1e6 * out["ansatz.search_s"] / nfev if nfev else 0.0
    out["ansatz.winning_nfev_frac"] = _winning_nfev_frac(searches)
    out["ansatz.lsq_nfev"] = sum(s.info for s in by_name["ansatz.least_squares"])
    busy = capacity = 0.0
    for fig in by_name["figures.run_figure"]:
        busy += sum(c.end - c.start for c in children[id(fig)] if c.name == "dynamics.evolve")
        capacity += (fig.end - fig.start) * pool_workers
    out["figures.pool_efficiency"] = busy / capacity if capacity else 0.0
    return out
