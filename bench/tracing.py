"""Spans and counters recorded around the library's public functions.

Nothing here changes the library: ``install`` rebinds each traced function,
in every ``edgewave`` module namespace that holds it, to a wrapper that
records a span ``[name, start, end, parent, query]``.  Spans stay in memory
until the run ends.  A span's self time is its duration minus the durations
of its direct children; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

import numpy as np

# (module, function) pairs recorded as spans named "module.function"
SPANNED = (
    ("cli", "main"),
    ("angles", "parse_angle"), ("angles", "grid_exclusion_order"),
    ("vanish", "vanishing_order"), ("vanish", "assemble_order_system"),
    ("vanish", "nullspace_dim"),
    ("specfun", "sph_bessel"), ("specfun", "sph_bessel_deriv"),
    ("specfun", "radial_pq"), ("specfun", "assoc_legendre"),
    ("specfun", "legendre_dtheta"), ("specfun", "legendre_over_sin"),
    ("swe", "eval_field"), ("swe", "sph_harmonic"),
    ("swe", "sph_harmonic_dtheta"), ("swe", "sph_harmonic_over_sin"),
    ("corner", "impedance_residual"),
    ("oracle", "collocation_nullspace"), ("oracle", "ball_integral"),
    ("oracle", "vani_estimate"),
)
# field expansions evaluated inside one impedance_residual call
EXPANSIONS = ("trace_tangential_curl", "trace_tangential_E",
              "tangential_projection")

_BESSEL = ("specfun.sph_bessel", "specfun.sph_bessel_deriv")
_LEGENDRE = ("specfun.assoc_legendre", "specfun.legendre_dtheta",
             "specfun.legendre_over_sin")
_HARMONIC = ("swe.sph_harmonic", "swe.sph_harmonic_dtheta",
             "swe.sph_harmonic_over_sin")

# per-layer metric -> ("calls" | "self", span names summed)
SPAN_METRICS = {
    "angles.grid_calls": ("calls", ("angles.grid_exclusion_order",)),
    "angles.grid_self_s": ("self", ("angles.grid_exclusion_order",)),
    "angles.parse_self_s": ("self", ("angles.parse_angle",)),
    "vanish.assemble_calls": ("calls", ("vanish.assemble_order_system",)),
    "vanish.assemble_self_s": ("self", ("vanish.assemble_order_system",)),
    "vanish.rank_calls": ("calls", ("vanish.nullspace_dim",)),
    "vanish.rank_self_s": ("self", ("vanish.nullspace_dim",)),
    "cli.calls": ("calls", ("cli.main",)),
    "cli.self_s": ("self", ("cli.main",)),
    "specfun.bessel_calls": ("calls", ("specfun.sph_bessel",)),
    "specfun.bessel_self_s": ("self", _BESSEL),
    "specfun.legendre_calls": ("calls", ("specfun.assoc_legendre",)),
    "specfun.legendre_self_s": ("self", _LEGENDRE),
    "specfun.radial_calls": ("calls", ("specfun.radial_pq",)),
    "specfun.radial_self_s": ("self", ("specfun.radial_pq",)),
    "swe.harmonic_calls": ("calls", _HARMONIC),
    "swe.eval_calls": ("calls", ("swe.eval_field",)),
    "swe.eval_self_s": ("self", ("swe.eval_field",)),
    "corner.residual_calls": ("calls", ("corner.impedance_residual",)),
    "corner.residual_self_s": ("self", ("corner.impedance_residual",)),
    "oracle.collocation_calls": ("calls", ("oracle.collocation_nullspace",)),
    "oracle.collocation_self_s": ("self", ("oracle.collocation_nullspace",)),
    "oracle.ball_calls": ("calls", ("oracle.ball_integral",)),
    "oracle.ball_self_s": ("self", ("oracle.ball_integral",)),
}
COUNTERS = ("vanish.ambiguous", "cli.nonzero_exits", "swe.mode_points",
            "oracle.quad_points", "oracle.fit_failures")


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent index, query]
        self.counts = Counter()
        self.query = -1
        self._stack = []

    def wrap(self, name, fn, on_call=None, on_result=None, on_error=None):
        """fn wrapped in a span; the hooks feed counters."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result
        traced.__wrapped__ = fn
        return traced

    def count_within(self, key, parent, fn):
        """fn counted under `key` when called directly inside a `parent` span."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def counted(*args, **kwargs):
            if stack and spans[stack[-1]][0] == parent:
                counts[key] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted


def _rebind(original, replacement):
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").partition(".")[0] != "edgewave":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer):
    """Rebind every traced function of the loaded edgewave modules."""
    from edgewave import RankAmbiguityError, corner, oracle
    counts = tracer.counts

    def mode_points(args, kwargs):
        coeffs, point = args[0], args[1] if len(args) > 1 else kwargs["point"]
        size = np.broadcast(*point).size if isinstance(point, tuple) else 1
        counts["swe.mode_points"] += sum(1 for _ in coeffs.modes()) * size

    def quad_points(args, kwargs):
        quad = kwargs.get("quad", args[2] if len(args) > 2 else None)
        refine = kwargs.get("check_convergence", args[3] if len(args) > 3 else True)
        quad = quad or oracle.QuadratureSpec()
        nr, na = quad.radial_nodes, quad.angular_nodes
        points = nr * na * 2 * na
        if refine:
            points += (nr + 8) * (na + 8) * (2 * na + 16)
        counts["oracle.quad_points"] += points

    def ambiguous(exc):
        if isinstance(exc, RankAmbiguityError):
            counts["vanish.ambiguous"] += 1

    def nonzero_exit(code):
        if code != 0:
            counts["cli.nonzero_exits"] += 1

    def fit_failure(exc):
        counts["oracle.fit_failures"] += 1

    hooks = {
        "swe.eval_field": {"on_call": mode_points},
        "oracle.ball_integral": {"on_call": quad_points},
        "vanish.nullspace_dim": {"on_error": ambiguous},
        "cli.main": {"on_result": nonzero_exit},
        "oracle.vani_estimate": {"on_error": fit_failure},
    }
    for module_name, attr in SPANNED:
        module = importlib.import_module(f"edgewave.{module_name}")
        name = f"{module_name}.{attr}"
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(name, original, **hooks.get(name, {})))
    for attr in EXPANSIONS:
        original = getattr(corner, attr)
        _rebind(original, tracer.count_within(
            "corner.expansions", "corner.impedance_residual", original))


def self_times(spans):
    """(calls, self seconds) per span name."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls, own = Counter(), Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        own[name] += (end - start) - covered[i]
    return calls, own


def layer_metrics(tracer):
    """Per-layer metric name -> value for one traced replay."""
    calls, own = self_times(tracer.spans)
    out = {}
    for metric, (kind, names) in SPAN_METRICS.items():
        source = calls if kind == "calls" else own
        out[metric] = sum(source[n] for n in names)
    for key in COUNTERS:
        out[key] = tracer.counts[key]
    residuals = calls["corner.impedance_residual"]
    out["corner.expansions_per_residual"] = (
        tracer.counts["corner.expansions"] / residuals if residuals else 0.0)
    out["trace.spans"] = len(tracer.spans)
    return out
