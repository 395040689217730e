"""Span tracing for the benchmark's traced runs, kept entirely outside the package.

:func:`install` wraps public functions of ``stickybm`` at every binding site
that holds them.  ``from x import y`` copies the binding, so the wrapper
replaces each module attribute that *is* the original function object, for
example ``stickybm.ldp.cost`` and ``stickybm.cli.kantorovich`` as well as
``stickybm.geometry.cost``.  Each call records a span (id, label, start, end,
parent, error flag, extra count) in memory; the caller writes them out when
the operation ends.  A target that no longer exists is skipped, and its
metrics read zero.

:func:`layer_totals` sums one process's spans into additive quantities;
:func:`layer_metrics` turns the sums over a round's processes into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time

# (module, function, span label, extractor of an extra count from the result)
TARGETS = (
    ("stickybm.quadrature", "log_integrate", "quadrature.log_integrate", None),
    ("stickybm.quadrature", "log_integrate_halfline", "quadrature.halfline", None),
    ("stickybm.kernel", "log_sticky_integral", "kernel.log_sticky_integral", None),
    ("stickybm.kernel", "transition_kernel", "kernel.transition_kernel", None),
    ("stickybm.kernel", "log_mu_density", "kernel.log_mu_density", None),
    ("stickybm.kernel", "kernel_total_mass", "kernel.total_mass", None),
    ("stickybm.simulate", "increment_tables", "simulate.increment_tables", None),
    ("stickybm.simulate", "simulate_batch", "simulate.batch",
     lambda r: r.x1.shape[0] * (r.x1.shape[1] - 1)),
    ("stickybm.simulate", "simulate_batch_threaded", "simulate.batch_threaded", None),
    ("stickybm.geometry", "cost", "geometry.cost", None),
    ("stickybm.geometry", "geodesic", "geometry.geodesic", None),
    ("stickybm.pathopt", "minimize_path_action", "pathopt.minimize_path_action", None),
    ("stickybm.ldp", "log_target_probability", "ldp.log_target_probability", None),
    ("stickybm.ldp", "min_cost_over_target", "ldp.min_cost_over_target", None),
    ("stickybm.ldp", "min_sliced_cost", "ldp.min_sliced_cost", None),
    ("stickybm.ldp", "static_ldp", "ldp.static_ldp", None),
    ("stickybm.ldp", "sliced_ldp", "ldp.sliced_ldp", None),
    ("stickybm.ldp", "phase_transition_scan", "ldp.phase_transition_scan", None),
    ("stickybm.transport", "kantorovich", "transport.kantorovich", None),
    ("stickybm.transport", "schrodinger", "transport.schrodinger", lambda r: r.iterations),
    ("stickybm.transport", "gamma_limit_experiment", "transport.gamma_limit", None),
    ("stickybm.transport", "displacement_interpolation", "transport.interpolation", None),
    ("stickybm.cli", "main", "cli.main", None),
)

# Per-layer metric name -> unit.  Counts must repeat exactly at a fixed seed.
LAYER_UNITS = {
    "quadrature.log_integrate.calls": "count",
    "quadrature.log_integrate.self_s": "s",
    "quadrature.halfline.calls": "count",
    "kernel.log_sticky_integral.calls": "count",
    "kernel.log_sticky_integral.self_s": "s",
    "kernel.log_sticky_integral.mean_ms": "ms",
    "kernel.errors": "count",
    "kernel.total_mass.s": "s",
    "transport.kernel_build.s": "s",
    "transport.sinkhorn.iterations": "count",
    "transport.sinkhorn.sweep_us": "us",
    "transport.kantorovich.s": "s",
    "transport.kantorovich.calls": "count",
    "transport.interpolation.s": "s",
    "simulate.batch.s": "s",
    "simulate.increment_tables.calls": "count",
    "simulate.increment_tables.s": "s",
    "simulate.step.s": "s",
    "simulate.path_steps": "count",
    "ldp.log_target_probability.s": "s",
    "ldp.min_cost_over_target.s": "s",
    "ldp.min_sliced_cost.s": "s",
    "ldp.sliced_mc.s": "s",
    "geometry.cost.calls": "count",
    "geometry.cost.self_s": "s",
    "geometry.geodesic.calls": "count",
    "pathopt.minimize_path_action.s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
}

EXACT_COUNTS = (
    "transport.sinkhorn.iterations",
    "kernel.log_sticky_integral.calls",
    "quadrature.log_integrate.calls",
    "simulate.increment_tables.calls",
    "geometry.cost.calls",
)


class Recorder:
    """In-memory span store; one per traced process."""

    def __init__(self):
        self.spans = []          # (id, label, start, end, parent, error, extra)
        self.missing = []        # targets that no longer exist
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []       # (module, attribute, original)

    def _wrap(self, label, fn, extra):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            error = True
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                count = extra(result) if (extra is not None and not error) else None
                spans.append((sid, label, start, end, parent, error, count))

        return wrapper

    def install(self):
        """Wrap every target at every binding site in loaded ``stickybm`` modules."""
        originals = {}
        for module_name, attr, label, extra in TARGETS:
            try:
                fn = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            originals[id(fn)] = (fn, self._wrap(label, fn, extra))
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "stickybm" or name.startswith("stickybm."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()


def layer_totals(spans) -> dict:
    """Additive per-layer quantities of one process's spans.

    Sum these over processes, then pass the sums to :func:`layer_metrics`.

    Totals count only the outermost span of a label; self time is a span's
    duration minus the durations of its direct children (children run on the
    parent's thread, one after another, so they never overlap).
    """
    by_id = {s[0]: s for s in spans}
    by_label = {}
    child_time = {}
    for s in spans:
        by_label.setdefault(s[1], []).append(s)
        if s[4] is not None:
            child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])

    def ancestors(s):
        p = s[4]
        while p is not None and p in by_id:
            yield by_id[p]
            p = by_id[p][4]

    def failed_in_kernel(s):
        return s is not None and s[5] and s[1].startswith("kernel.")

    def has_ancestor(s, label):
        return any(a[1] == label for a in ancestors(s))

    def of(label):
        return by_label.get(label, ())

    def calls(label):
        return len(of(label))

    def total(label, under=None):
        return sum(s[3] - s[2] for s in of(label)
                   if not has_ancestor(s, label) and (under is None or has_ancestor(s, under)))

    def self_time(label):
        return sum((s[3] - s[2]) - child_time.get(s[0], 0.0) for s in of(label))

    def extra(label):
        return sum(s[6] for s in of(label) if s[6] is not None)

    build = total("kernel.log_mu_density", under="transport.schrodinger")
    return {
        "quadrature.log_integrate.calls": calls("quadrature.log_integrate"),
        "quadrature.log_integrate.self_s": self_time("quadrature.log_integrate"),
        "quadrature.halfline.calls": calls("quadrature.halfline"),
        "kernel.log_sticky_integral.calls": calls("kernel.log_sticky_integral"),
        "kernel.log_sticky_integral.self_s": self_time("kernel.log_sticky_integral"),
        "kernel.log_sticky_integral.s": total("kernel.log_sticky_integral"),
        "kernel.errors": sum(1 for s in spans if failed_in_kernel(s)
                             and not failed_in_kernel(by_id.get(s[4]))),
        "kernel.total_mass.s": total("kernel.total_mass"),
        "transport.kernel_build.s": build,
        "transport.sinkhorn.iterations": extra("transport.schrodinger"),
        "transport.sinkhorn.sweeps_s": total("transport.schrodinger") - build,
        "transport.kantorovich.s": total("transport.kantorovich"),
        "transport.kantorovich.calls": calls("transport.kantorovich"),
        "transport.interpolation.s": total("transport.interpolation"),
        "simulate.batch.s": total("simulate.batch"),
        "simulate.increment_tables.calls": calls("simulate.increment_tables"),
        "simulate.increment_tables.s": total("simulate.increment_tables"),
        "simulate.step.s": (total("simulate.batch")
                            - total("simulate.increment_tables", under="simulate.batch")),
        "simulate.path_steps": extra("simulate.batch"),
        "ldp.log_target_probability.s": total("ldp.log_target_probability"),
        "ldp.min_cost_over_target.s": total("ldp.min_cost_over_target"),
        "ldp.min_sliced_cost.s": total("ldp.min_sliced_cost"),
        "ldp.sliced_mc.s": (total("ldp.sliced_ldp")
                            - total("ldp.min_sliced_cost", under="ldp.sliced_ldp")),
        "geometry.cost.calls": calls("geometry.cost"),
        "geometry.cost.self_s": self_time("geometry.cost"),
        "geometry.geodesic.calls": calls("geometry.geodesic"),
        "pathopt.minimize_path_action.s": total("pathopt.minimize_path_action"),
        "cli.self_s": self_time("cli.main"),
    }


def layer_metrics(totals: dict) -> dict:
    """The metrics of ``LAYER_UNITS`` from summed :func:`layer_totals`."""
    out = {k: totals.get(k, 0) for k in LAYER_UNITS}
    calls = out["kernel.log_sticky_integral.calls"]
    iterations = out["transport.sinkhorn.iterations"]
    out["kernel.log_sticky_integral.mean_ms"] = (
        1e3 * totals["kernel.log_sticky_integral.s"] / calls if calls else 0.0)
    out["transport.sinkhorn.sweep_us"] = (
        1e6 * totals["transport.sinkhorn.sweeps_s"] / iterations if iterations else 0.0)
    return out
