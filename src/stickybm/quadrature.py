"""Log-domain adaptive quadrature for severely scaled positive integrands.

Everything here integrates ``exp(log_f)`` for a vectorized ``log_f`` and
returns the log of the integral.  Working in the log domain with running
max-exponent shifts keeps integrals of densities like ``exp(-c/eps)`` finite
where the raw formulas underflow, whatever the magnitude of the log integral
(the tests reach 1e6); whether every panel converges within the subdivision
budget is a separate matter (see the kernel module).  The one integral
shape is the kernel's: each integrand of a batch runs over ``[0, 1]``, split
at one point of its own.  The adaptive integrator runs breadth-first over
the batch: each bisection level evaluates every live panel of every
integrand in one ``log_f`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["QuadratureSpec", "QuadratureError", "log_integrate", "gauss_legendre",
           "logsumexp"]

_NEG_INF = -math.inf

# Gauss-Legendre nodes per panel of the adaptive rule.
_ORDER = 15

# Ulps of the log integral within which a panel's two estimates agree
# whatever the tolerance: a log of magnitude 2^17 is resolved only to
# 2^-35 ~ 2.9e-11 relative, so 0.25 * rtol = 2.5e-11 alone would accept
# such a panel only where both estimates round to the same float.
_ULPS = 16


class QuadratureError(RuntimeError):
    """Tolerance not met within the subdivision budget, or a NaN integrand;
    never silently inaccurate.

    ``index`` is the position of the failing integrand in its batch.
    """

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


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


def logsumexp(values, axis=None):
    """log of the sum of exp over the values; -inf where there are none, NaN
    where any value is NaN.

    With ``axis=None`` every value counts and the result is a float;
    otherwise the sum runs along ``axis`` and the result is an array.
    """
    values = np.asarray(values, dtype=float)
    if axis is None:
        values, axis = values.ravel(), 0
    if values.shape[axis] == 0:
        out = np.full(np.delete(values.shape, axis), _NEG_INF)
    else:
        m = np.max(values, axis=axis, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.squeeze(m, axis) + np.log(np.sum(
                np.exp(values - np.where(m == _NEG_INF, 0.0, m)), axis=axis))
    return float(out) if out.ndim == 0 else out


def _grouped_logsumexp(rows, values, n: int) -> np.ndarray:
    """logsumexp of ``values`` per integrand ``rows[k]`` in ``range(n)``.

    Each integrand's terms are summed in their order of appearance, so its
    result does not depend on the other integrands of the batch.
    """
    m = np.full(n, _NEG_INF)
    np.maximum.at(m, rows, values)
    shift = np.where(m == _NEG_INF, 0.0, m)
    total = np.bincount(rows, weights=np.exp(values - shift[rows]), minlength=n)
    with np.errstate(divide="ignore"):
        return shift + np.log(total)


def _panels(log_f, rows, lo, hi, nodes, log_w):
    """Gauss-Legendre estimates and endpoint bounds of ``int exp(log_f)`` on
    the panels ``[lo[k], hi[k]]`` of integrands ``rows[k]``.

    One ``log_f(rows, x)`` call covers every panel; row ``k`` of ``x`` holds
    the panel's left endpoint, its nodes and its right endpoint.  Returns the
    log of each fixed-order estimate and ``log(width) + max(log_f(lo),
    log_f(hi))``, which bounds the log integral when ``exp(log_f)`` is
    monotone on the panel.  Raises :class:`QuadratureError`, with the
    integrand's index, where ``log_f`` returns NaN.
    """
    width = hi - lo
    x = np.concatenate((lo[:, None], lo[:, None] + width[:, None] * nodes, hi[:, None]), axis=1)
    vals = np.asarray(log_f(rows, x), dtype=float)
    nan = np.isnan(vals)
    if nan.any():
        k, j = np.argwhere(nan)[0]
        raise QuadratureError(f"log integrand is NaN at {x[k, j]:.6g}", index=int(rows[k]))
    log_width = np.log(width)
    est = logsumexp(vals[:, 1:-1] + log_w + log_width[:, None], axis=1)
    return est, log_width + np.max(vals[:, [0, -1]], axis=1)


def log_integrate(log_f, splits, spec: QuadratureSpec) -> np.ndarray:
    """log of ``int_0^1 exp(log_f(t)) dt`` for each of ``len(splits)``
    integrands, by breadth-first adaptive bisection; a 1-D array.

    ``log_f(rows, x)`` evaluates integrand ``rows[k]`` at the nodes
    ``x[k, :]``: ``rows`` is a 1-D integer array of integrand indices and
    ``x`` a ``(len(rows), 17)`` array holding each panel's left end, its 15
    Gauss nodes and its right end.  Each level of the bisection makes one
    such call covering both halves of every live panel of every integrand.

    Integrand ``k`` starts as the panels ``[0, splits[k]]`` and
    ``[splits[k], 1]``; a split outside ``(0, 1)``, NaN included, is
    ignored.  Pass the integrand's interior maximum, or a point near it: a
    panel that holds no maximum is monotone, and its boundary layers sit at
    panel ends, where dyadic refinement resolves them; a panel that holds
    one is bisected until the halves agree.

    Each integrand's panels follow their own rules, whatever else is in the
    batch.  A panel counts as negligible, and is accepted without
    refinement, only when its Gauss estimate, the estimate from its two
    halves and the bound ``log(width) + max(log_f(lo), log_f(hi))`` all lie
    at or below ``rtol / 64`` of its integrand's first-pass total.  The
    bound is rigorous on a monotone panel, so a boundary layer that the
    Gauss nodes miss is never dropped.  Any other panel is accepted once its
    two estimates agree to ``0.25 * rtol``, or to 16 ulps of its log
    integral, the finest agreement that a log of that magnitude can show;
    the ulp bound is the larger only where the log exceeds 2^13 = 8192 in
    magnitude at ``rtol = 1e-10``.  Accepted panels are summed per
    integrand.  Raises :class:`QuadratureError`, with the integrand's
    index, when a relevant panel still disagrees at ``max_subdivisions``
    levels or when ``log_f`` returns NaN.
    """
    splits = np.asarray(splits, dtype=float)
    n = splits.size
    nodes, w = gauss_legendre(_ORDER)
    log_w = np.log(w)

    # Panels [0, split] and [split, 1] per integrand, in that order; an
    # ignored split leaves the empty panel [0, 0], which is dropped.
    inner = np.where((splits > 0.0) & (splits < 1.0), splits, 0.0)
    rows = np.repeat(np.arange(n), 2)
    lo = np.stack((np.zeros(n), inner), axis=1).ravel()
    hi = np.stack((inner, np.ones(n)), axis=1).ravel()
    keep = hi > lo
    rows, lo, hi = rows[keep], lo[keep], hi[keep]
    est, bound = _panels(log_f, rows, lo, hi, nodes, log_w)

    # Panels contributing less than rtol * total never need refining; use a
    # coarse first-pass total per integrand as the pruning scale.
    rtol = spec.relative_tolerance
    prune = _grouped_logsumexp(rows, est, n) + math.log(rtol) - math.log(64.0)

    accepted_rows, accepted = [], []
    depth = 0
    while rows.size:
        mid = 0.5 * (lo + hi)
        halves, half_bounds = _panels(log_f, np.concatenate((rows, rows)),
                                      np.concatenate((lo, mid)), np.concatenate((mid, hi)),
                                      nodes, log_w)
        left, right = np.split(halves, 2)
        fine = np.logaddexp(left, right)
        p = prune[rows]
        with np.errstate(invalid="ignore"):
            err = np.where(fine == _NEG_INF, math.inf,
                           np.abs(np.expm1(np.minimum(est - fine, 700.0))))
            agree = np.maximum(0.25 * rtol, _ULPS * np.spacing(np.abs(fine)))
        done = (((fine <= p) & (est <= p) & (bound <= p))
                | (err <= agree))
        accepted_rows.append(rows[done])
        accepted.append(fine[done])
        refine = ~done
        if depth >= spec.max_subdivisions and refine.any():
            k = int(np.flatnonzero(refine)[0])
            raise QuadratureError(
                f"panel [{lo[k]:.6g}, {hi[k]:.6g}] disagrees by {err[k]:.3e} after "
                f"{depth} subdivisions (tolerance {rtol:.1e})", index=int(rows[k]))
        left_bound, right_bound = np.split(half_bounds, 2)
        rows = np.concatenate((rows[refine], rows[refine]))
        lo, hi = np.concatenate((lo[refine], mid[refine])), np.concatenate((mid[refine], hi[refine]))
        est = np.concatenate((left[refine], right[refine]))
        bound = np.concatenate((left_bound[refine], right_bound[refine]))
        depth += 1
    return _grouped_logsumexp(np.concatenate(accepted_rows), np.concatenate(accepted), n)
