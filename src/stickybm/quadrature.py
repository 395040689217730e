"""Log-domain adaptive quadrature for severely scaled positive integrands.

Everything here integrates ``exp(log_f)`` for a vectorized ``log_f`` and
returns the log of the integral.  Working in the log domain with running
max-exponent shifts keeps integrals of densities like ``exp(-c/eps)`` finite
down to ``eps ~ 1e-3``, where the raw formulas underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["QuadratureSpec", "QuadratureError", "log_integrate", "gauss_legendre",
           "logsumexp"]

_NEG_INF = -math.inf


class QuadratureError(RuntimeError):
    """Tolerance not met within the subdivision budget; never silently inaccurate."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Adaptive panel control: the relative tolerance of the integral and the
    maximum bisection depth of any panel."""

    relative_tolerance: float = 1e-10
    max_subdivisions: int = 20

    def __post_init__(self):
        if not (0.0 < self.relative_tolerance <= 1e-2):
            raise ValueError("relative_tolerance must lie in (0, 1e-2]")
        if self.max_subdivisions < 8:
            raise ValueError("max_subdivisions must be at least 8")


@lru_cache(maxsize=16)
def gauss_legendre(n: int):
    """Cached Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def logsumexp(values) -> float:
    """log of the sum of exp over the non-NaN values; -inf when there are none."""
    values = np.asarray(values, dtype=float)
    values = values[~np.isnan(values)]
    if values.size == 0:
        return _NEG_INF
    m = np.max(values)
    if m == _NEG_INF:
        return _NEG_INF
    return float(m + np.log(np.sum(np.exp(values - m))))


def _panel(log_f, a: float, b: float, nodes, log_w):
    """Gauss-Legendre estimate and endpoint bound of ``int_a^b exp(log_f)``.

    One ``log_f`` call covers the nodes and both endpoints.  Returns the log
    of the fixed-order estimate and ``log(b - a) + max(log_f(a), log_f(b))``,
    which bounds the log integral when ``exp(log_f)`` is monotone on [a, b].
    """
    width = b - a
    vals = np.asarray(log_f(np.concatenate(([a], a + width * nodes, [b]))), dtype=float)
    log_width = math.log(width)
    return logsumexp(vals[1:-1] + log_w + log_width), log_width + float(np.max(vals[[0, -1]]))


def log_integrate(log_f, a: float, b: float, spec: QuadratureSpec,
                  order: int = 15, split_points=()) -> float:
    """log of ``int_a^b exp(log_f(t)) dt`` by adaptive bisection.

    ``log_f`` must accept a 1-D array of nodes.  ``split_points`` seeds panel
    boundaries: pass the interior maxima, so every panel is monotone and its
    boundary layers sit at panel ends, where dyadic refinement resolves them.

    A panel counts as negligible, and is accepted without refinement, only
    when its Gauss estimate, the estimate from its two halves and the bound
    ``log(width) + max(log_f(lo), log_f(hi))`` all lie at or below
    ``rtol / 64`` of a first-pass total.  The bound is rigorous on a monotone
    panel, so a boundary layer that the Gauss nodes miss is never dropped.
    Any other panel is accepted once its two estimates agree to
    ``0.25 * rtol``.  Raises :class:`QuadratureError` when a relevant panel
    still disagrees at ``max_subdivisions`` levels.
    """
    if not b > a:
        raise ValueError("need b > a")
    nodes, w = gauss_legendre(order)
    log_w = np.log(w)

    edges = sorted({float(a), float(b), *(float(s) for s in split_points if a < s < b)})
    stack = [(lo, hi, *_panel(log_f, lo, hi, nodes, log_w), 0)
             for lo, hi in zip(edges, edges[1:])]

    # Panels contributing less than rtol * total never need refining; use a
    # coarse first-pass total as the pruning scale.
    coarse_total = logsumexp([p[2] for p in stack])
    rtol = spec.relative_tolerance
    prune = coarse_total + math.log(rtol) - math.log(64.0)

    accepted = []
    while stack:
        lo, hi, est, bound, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left, left_bound = _panel(log_f, lo, mid, nodes, log_w)
        right, right_bound = _panel(log_f, mid, hi, nodes, log_w)
        fine = np.logaddexp(left, right)
        if fine <= prune and est <= prune and bound <= prune:
            accepted.append(fine)
            continue
        err = abs(math.expm1(min(est - fine, 700.0))) if fine != _NEG_INF else math.inf
        if err <= 0.25 * rtol:
            accepted.append(fine)
            continue
        if depth >= spec.max_subdivisions:
            raise QuadratureError(
                f"panel [{lo:.6g}, {hi:.6g}] disagrees by {err:.3e} after "
                f"{depth} subdivisions (tolerance {rtol:.1e})")
        stack.append((lo, mid, left, left_bound, depth + 1))
        stack.append((mid, hi, right, right_bound, depth + 1))
    return logsumexp(accepted)
