"""In-memory spans around the public functions each fracvol layer exposes.

Tracing is done entirely from the benchmark: `Tracer.installed()` replaces
each target attribute (a function under the name its caller imported it as)
with a wrapper that opens a span, and puts the original back on exit.  The
package itself is never edited, so an untraced run executes the original
functions with no wrapper in the call path.

A span records name, start, end, parent span and the id of the request (or
set-up) it belongs to.  Counts computed from argument and result shapes ride
on the span; they are work counts, not measurements, and are never divided by
wall time.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from fracvol.coefficients import ConstantXi

# Counts aggregated by maximum (a size) rather than by sum (an amount of work).
MAX_COUNTS = frozenset({"kernel_bytes"})


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    request: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Stand-in used by untraced runs: spans cost one context manager each."""

    @contextmanager
    def span(self, name: str):
        yield None


class Tracer:
    """Collects spans in memory; `installed()` wraps the layer targets."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._request = -1

    @contextmanager
    def span(self, name: str):
        """A span under the innermost open one; a root span starts a new request id."""
        parent = self._open[-1] if self._open else None
        if parent is None:
            self._request += 1
        s = Span(
            len(self.spans),
            name,
            parent.id if parent else None,
            self._request,
            time.perf_counter(),
        )
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name: str, count):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                s.counts.update(count(result, *args, **kwargs))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit."""
        patched = []
        try:
            for module_name, attr, name, count in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:  # a later refactor may drop a name; trace the rest
                    continue
                setattr(module, attr, self._wrap(fn, name, count))
                patched.append((module, attr, fn))
            yield self
        finally:
            for module, attr, fn in reversed(patched):
                setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# Computed counts, from the shapes of arguments and results only.


def _xi_streams(result, law, *args, **kwargs):
    # One keyed stream per path, except for a degenerate law, which draws nothing.
    return {"streams": 0 if isinstance(law, ConstantXi) else int(np.size(result))}


def _w_streams(result, *args, **kwargs):
    paths, _, dims = np.shape(result)
    return {"streams": paths * dims}


def _kernel(result, grid, *args, **kwargs):
    return {"kernel_bytes": 8 * grid.steps * grid.steps}


def _transform(result, dw, kernel, *args, **kwargs):
    shape = np.shape(dw)
    n, d = shape[-2], shape[-1]
    batch = int(np.prod(shape[:-2], dtype=np.int64))
    return {
        "transform_flops": 2 * n * n * d * batch,
        "transform_bytes": 8 * (n * n + batch * n * d + batch * (n + 1) * d),
    }


def _euler(result, coeffs, xi, db, *args, **kwargs):
    paths, n, _ = np.shape(db)
    return {"steps": paths * n}


def _project(result, x, normals, offsets, *args, **kwargs):
    pts = np.atleast_2d(x)
    outside = np.any(pts @ np.asarray(normals).T > offsets, axis=-1)
    return {"project_points": int(outside.size), "project_outside": int(np.count_nonzero(outside))}


def _feedback(result, payoff, scenario, mc, *args, **kwargs):
    # Step i contracts kernel row i[:i+1] with the slice dw[:, :i+1] of every
    # path and component: sum over i of (i + 1) = n (n + 1) / 2 entries.
    n, d = scenario.grid.steps, scenario.dims
    entries = mc.paths * d * n * (n + 1) // 2
    return {"rn_feedback_flops": 2 * entries, "rn_feedback_bytes": 8 * entries}


# (module, attribute, span name, count function).  Names follow the layer
# (module of src/fracvol) whose work the wrapped call does.
TARGETS = [
    ("fracvol.pricing", "xi_draws", "rng.xi_uniforms", _xi_streams),
    ("fracvol.pricing", "xi_inverse_cdf", "coefficients.xi_inverse_cdf", None),
    ("fracvol.pricing", "w_increments", "rng.w_increments", _w_streams),
    ("fracvol.pricing", "build_kernel_matrix", "volterra.kernel_build", _kernel),
    ("fracvol.pricing", "transform_increments", "volterra.transform", _transform),
    ("fracvol.pricing", "euler_paths", "rde.euler", _euler),
    ("fracvol.pricing", "project_into", "viability.project", _project),
    ("fracvol.rde", "project_into", "viability.project", _project),
    ("fracvol.pricing", "check_viability_conditions", "viability.check", None),
    ("fracvol.cli", "check_viability_conditions", "viability.check", None),
    ("fracvol.pricing", "payoff_values", "pricing.payoff", None),
    ("fracvol.pricing", "price_physical_weighted", "pricing.physical", None),
    ("fracvol.pricing", "price_riskneutral", "pricing.rn_feedback", _feedback),
    ("fracvol.pricing", "physical_terminal_sample", "pricing.terminal_sample", None),
    ("fracvol.pricing", "simulate_scenario_paths", "pricing.simulate", None),
    ("fracvol.cli", "simulate_scenario_paths", "pricing.simulate", None),
    # The command's own self time: argument parsing, scenario, CSV/JSON output.
    ("fracvol.cli", "main", "cli.write", None),
]


# ---------------------------------------------------------------------------
# Aggregation.


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover.

    Spans come from one thread and nest, so children of a span never overlap
    and their durations add up to the covered part of the parent.
    """
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


@dataclass
class Breakdown:
    """Totals over the spans of one root (one request or one set-up)."""

    total_s: float
    remainder_s: float
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    counts: dict = field(default_factory=lambda: defaultdict(int))


def breakdowns(spans: list[Span], root_name: str) -> list[Breakdown]:
    """One breakdown per root span named `root_name`, in request order."""
    own = self_times(spans)
    by_request = defaultdict(list)
    for s in spans:
        by_request[s.request].append(s)
    out = []
    for request in sorted(by_request):
        members = by_request[request]
        root = members[0]
        if root.parent is not None or root.name != root_name:
            continue
        b = Breakdown(total_s=root.duration, remainder_s=own[root.id])
        for s in members:
            if s is not root:
                b.self_s[s.name] += own[s.id]
                b.calls[s.name] += 1
            for key, value in s.counts.items():
                if key in MAX_COUNTS:
                    b.counts[key] = max(b.counts[key], value)
                else:
                    b.counts[key] += value
        out.append(b)
    return out
