"""Spans around the calls between concrete_geom's modules, recorded from the
benchmark's side.

Nothing in the library is edited: :meth:`Tracer.installed` rebinds each name
in ``EDGES`` (the name one module uses to call another) to a wrapper that
records a span, and restores the original on exit.  A span is
``[name, start, end, parent, op]``; ``op`` is shared by the spans of one
benchmark operation.  Spans stay in memory until the run ends.
"""

import time
from contextlib import contextmanager

import numpy as np

from concrete_geom import cli, distributions, geometry, moments, oracle, simplex

# (module, name it calls through, span name).  The span's layer is the part
# before the first dot.
EDGES = (
    (cli, "run_suite", "oracle.run_suite"),
    (cli, "sample_concrete", "distributions.sample_concrete"),
    (cli, "rounding_probabilities", "distributions.rounding_probabilities"),
    (oracle, "quad_normalization", "oracle.quad_normalization"),
    (oracle, "mc_log_ratio_moments", "oracle.mc_log_ratio_moments"),
    (oracle, "mc_special_moments", "oracle.mc_special_moments"),
    (oracle, "mc_score_fisher", "oracle.mc_score_fisher"),
    (oracle, "quad_fisher", "oracle.quad_fisher"),
    (oracle, "pullback_metric_check", "oracle.pullback_metric_check"),
    (oracle, "integrate_simplex", "simplex.integrate_simplex"),
    (oracle, "sample_concrete", "distributions.sample_concrete"),
    (oracle, "rounding_probabilities", "distributions.rounding_probabilities"),
    (oracle, "_concrete_log_density_arr", "distributions.concrete_log_density_arr"),
    (oracle, "_is_log_density_arr", "distributions.is_log_density_arr"),
    (oracle, "_to_uniform_arr", "distributions.to_uniform_arr"),
    (oracle, "lr_mean", "moments.lr_mean"),
    (oracle, "lr_cov", "moments.lr_cov"),
    (oracle, "raw_second_moment_special", "moments.raw_second_moment_special"),
    (oracle, "special_params", "moments.special_params"),
    (oracle, "fisher_reduced", "geometry.fisher_reduced"),
    (oracle, "to_poincare", "geometry.to_poincare"),
    (oracle, "from_poincare", "geometry.from_poincare"),
    (moments, "digamma", "special.digamma"),
    (moments, "trigamma", "special.trigamma"),
    (distributions, "log_gamma", "special.log_gamma"),
    # Public names the library workload (and oracle's local imports) call
    # through the module object.
    (geometry, "fisher_full", "geometry.fisher_full"),
    (geometry, "fisher_reduced", "geometry.fisher_reduced"),
    (geometry, "fr_distance", "geometry.fr_distance"),
    (geometry, "to_poincare", "geometry.to_poincare"),
    (geometry, "from_poincare", "geometry.from_poincare"),
    (geometry, "half_space_distance", "geometry.half_space_distance"),
    (distributions, "rounding_probabilities", "distributions.rounding_probabilities"),
    (distributions, "concrete_log_density", "distributions.concrete_log_density"),
    (distributions, "uniform_transform", "distributions.uniform_transform"),
    (moments, "lr_mean", "moments.lr_mean"),
    (moments, "lr_cov", "moments.lr_cov"),
    (moments, "raw_second_moment_special", "moments.raw_second_moment_special"),
    (simplex, "integrate_simplex", "simplex.integrate_simplex"),
)

LAYERS = ("special", "simplex", "distributions", "moments", "geometry", "oracle", "cli")


class Tracer:
    """In-memory span recorder with per-operation counters."""

    def __init__(self):
        self.spans = []
        self.counts = {}  # (op, name) -> count
        self._stack = []
        self._op = None

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        """``fn`` recording a span named ``name`` around each call."""

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _counting(self, fn):
        """integrate_simplex that counts the integrand's points."""

        def integrate_simplex(f, k, *args, **kwargs):
            def counted(x):
                n = len(x) if isinstance(x, np.ndarray) else 1
                key = (self._op, "simplex.points")
                self.counts[key] = self.counts.get(key, 0) + n
                return f(x)

            return fn(counted, k, *args, **kwargs)

        return integrate_simplex

    @contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in EDGES]
        try:
            for mod, attr, name in EDGES:
                fn = getattr(mod, attr)
                if attr == "integrate_simplex":
                    fn = self._counting(fn)
                setattr(mod, attr, self.wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    @contextmanager
    def op(self, name: str):
        """Root span ``op.<name>``; spans opened inside carry ``name``."""
        self._op = name
        try:
            with self.span(f"op.{name}"):
                yield
        finally:
            self._op = None

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def durations(self, name: str, op: str | None = None) -> list:
        return [e - s for n, s, e, _, o in self.spans
                if n == name and (op is None or o == op)]

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, s, e, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += e - s
        return [(e - s) - c for (_, s, e, _, _), c in zip(self.spans, child)]

    def layer_self(self, ops=None) -> dict:
        """Self time and span count per layer, over ``ops`` (default all)."""
        out = {}
        for span, self_s in zip(self.spans, self.self_times()):
            if ops is not None and span[4] not in ops:
                continue
            layer = span[0].split(".", 1)[0]
            entry = out.setdefault(layer, {"self_s": 0.0, "spans": 0})
            entry["self_s"] += self_s
            entry["spans"] += 1
        return out
