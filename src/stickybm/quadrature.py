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
integrand in one ``log_f`` call, at points no earlier call evaluated.
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

# Relative tolerance of every integral.
_RTOL = 1e-10

# Ulps of the log integral within which a panel's two estimates agree
# whatever the tolerance: a log of magnitude 2^17 is resolved only to
# 2^-35 ~ 2.9e-11 relative, so 0.25 * _RTOL = 2.5e-11 alone would accept
# such a panel only where both estimates round to the same float.
_ULPS = 16

# What the bisection keeps of each half panel: its ends, its Gauss estimate,
# its endpoint bound, and the log integrand at its ends.
_HALF_FIELDS = 6


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
    """Adaptive panel control: the maximum bisection depth of any panel."""

    max_subdivisions: int = 20

    def __post_init__(self):
        if self.max_subdivisions < 8:
            raise ValueError("max_subdivisions must be at least 8")


# Gauss-Legendre rules on [0, 1] for the orders the library uses: the
# kernel's fixed grid rule (12), the adaptive panels (15), the phase
# scan's balls (24) and the target quadrature's default (32).  Each is
# ``leggauss(n)`` mapped to [0, 1] as ``gauss_legendre`` maps it, its
# nodes and its weights each a string of reprs, which ``float`` reads
# back exactly: where no bytecode is cached, a module is compiled on
# every import, and a string compiles in a fraction of the time that
# a tuple of floats takes.
_RULES = {
    12: (
        "0.009219682876640378 0.0479413718147626 0.11504866290284765 0.20634102285669126 "
        "0.31608425050090994 0.43738329574426554 0.5626167042557344 0.6839157494990901 "
        "0.7936589771433087 0.8849513370971523 0.9520586281852375 0.9907803171233596",
        "0.023587668193255706 0.05346966299765953 0.08003916427167321 0.10158371336153287 "
        "0.1167462682691773 0.12457352290670134 0.12457352290670134 0.1167462682691773 "
        "0.10158371336153287 0.08003916427167321 0.05346966299765953 0.023587668193255706",
    ),
    15: (
        "0.006003740989757311 0.03136330379964708 0.0758967082947864 0.13779113431991497 "
        "0.21451391369573058 0.3029243264612183 0.39940295300128276 0.5 "
        "0.6005970469987173 0.6970756735387817 0.7854860863042694 0.862208865680085 "
        "0.9241032917052137 0.968636696200353 0.9939962590102427",
        "0.015376620998058602 0.0351830237440542 0.053579610233585706 0.06978533896307722 "
        "0.08313460290849699 0.0930805000077811 0.0992157426635558 0.10128912096278064 "
        "0.0992157426635558 0.0930805000077811 0.08313460290849699 0.06978533896307722 "
        "0.053579610233585706 0.0351830237440542 0.015376620998058602",
    ),
    24: (
        "0.0024063900014893447 0.012635722014345263 0.0308627239986336 "
        "0.056792236497799464 0.08999900701304853 0.12993790421072282 0.17595317403151223 "
        "0.22728926430558022 0.28310324618697746 0.3424786601519183 0.40444056626319186 "
        "0.4679715535686972 0.5320284464313028 0.5955594337368082 0.6575213398480817 "
        "0.7168967538130225 0.7727107356944198 0.8240468259684878 0.8700620957892772 "
        "0.9100009929869515 0.9432077635022005 0.9691372760013663 0.9873642779856547 "
        "0.9975936099985107",
        "0.006170614899994345 0.01426569431446678 0.022138719408709706 "
        "0.02964929245771818 0.03667324070554008 0.0430950807659766 0.04880932605205696 "
        "0.05372213505798278 0.05775283402686276 0.06083523646390165 0.06291872817341412 "
        "0.06396909767337601 0.06396909767337601 0.06291872817341412 0.06083523646390165 "
        "0.05775283402686276 0.05372213505798278 0.04880932605205696 0.0430950807659766 "
        "0.03667324070554008 0.02964929245771818 0.022138719408709706 0.01426569431446678 "
        "0.006170614899994345",
    ),
    32: (
        "0.001368069075259215 0.007194244227365809 0.017618872206246805 "
        "0.03254696203113017 0.051839422116973954 0.07531619313371501 0.10275810201602881 "
        "0.13390894062985514 0.16847786653489238 0.20614212137961885 0.24655004553388532 "
        "0.28932436193468236 0.33406569885893617 0.38035631887393145 0.42776401920860174 "
        "0.4758461671561308 0.5241538328438692 0.5722359807913983 0.6196436811260685 "
        "0.6659343011410639 0.7106756380653176 0.7534499544661146 0.7938578786203812 "
        "0.8315221334651076 0.8660910593701449 0.8972418979839711 0.924683806866285 "
        "0.948160577883026 0.9674530379688698 0.9823811277937532 0.9928057557726342 "
        "0.9986319309247408",
        "0.003509305004735253 0.008137197365452872 0.012696032654631012 "
        "0.017136931456510882 0.021417949011113418 0.025499029631188046 "
        "0.029342046739267783 0.03291111138818084 0.03617289705442417 "
        "0.039096947893535114 0.041655962113473353 0.04382604650220189 "
        "0.04558693934788189 0.046922199540402255 0.047819360039637354 "
        "0.04827004425736383 0.04827004425736383 0.047819360039637354 "
        "0.046922199540402255 0.04558693934788189 0.04382604650220189 "
        "0.041655962113473353 0.039096947893535114 0.03617289705442417 "
        "0.03291111138818084 0.029342046739267783 0.025499029631188046 "
        "0.021417949011113418 0.017136931456510882 0.012696032654631012 "
        "0.008137197365452872 0.003509305004735253",
    ),
}


@lru_cache(maxsize=16)
def gauss_legendre(n: int):
    """Cached Gauss-Legendre nodes and weights on [0, 1], as read-only arrays.

    Orders 12, 15, 24 and 32, the ones the library passes, are tabulated in
    ``_RULES`` (``leggauss``'s values, bit for bit); any other order is
    ``np.polynomial.legendre.leggauss(n)`` mapped to [0, 1].
    """
    if n in _RULES:
        nodes, w = (np.array([float(v) for v in text.split()]) for text in _RULES[n])
    else:
        x, w = np.polynomial.legendre.leggauss(n)
        nodes, w = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = w.flags.writeable = False
    return nodes, w


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


def _evaluate(log_f, rows, x):
    """``log_f(rows, x)`` as floats.  Raises :class:`QuadratureError`, with
    the integrand's index, where it returns NaN."""
    vals = np.asarray(log_f(rows, x), dtype=float)
    nan = np.isnan(vals)
    if nan.any():
        k, j = np.argwhere(nan)[0]
        raise QuadratureError(f"log integrand is NaN at {x[k, j]:.6g}", index=int(rows[k]))
    return vals


def _gauss(vals, width, log_w):
    """log of each panel's fixed-order estimate from the values ``vals`` at
    its Gauss nodes (the last axis), and the log of its width."""
    log_width = np.log(width)
    return logsumexp(vals + log_w + log_width[..., None], axis=-1), log_width


def _first_panels(log_f, rows, lo, hi, n, nodes, log_w):
    """Gauss estimates, endpoint bounds and end values of the first panels
    ``[lo[k], hi[k]]`` of integrands ``rows[k]`` (each integrand's panels in
    order, the last ending at 1).

    One ``log_f`` call evaluates each panel's left end and nodes, another
    each integrand's right end 1; every other panel's right end is the next
    panel's left end.  The bound ``log(width) + max(log_f(lo), log_f(hi))``
    bounds the log integral when ``exp(log_f)`` is monotone on the panel.
    """
    width = hi - lo
    vals = _evaluate(log_f, rows,
                     np.concatenate((lo[:, None], lo[:, None] + width[:, None] * nodes), axis=1))
    f_lo, f_hi = vals[:, 0].copy(), np.empty(rows.size)
    f_hi[:-1] = f_lo[1:]
    last = np.ones(rows.size, dtype=bool)
    last[:-1] = rows[1:] != rows[:-1]
    f_hi[last] = _evaluate(log_f, np.arange(n), np.ones((n, 1)))[:, 0]
    est, log_width = _gauss(vals[:, 1:], width, log_w)
    return est, log_width + np.maximum(f_lo, f_hi), f_lo, f_hi


def _halves(log_f, rows, lo, hi, f_lo, f_hi, nodes, log_w):
    """Both halves of each panel ``[lo[k], hi[k]]`` of integrand ``rows[k]``,
    whose end values ``f_lo`` and ``f_hi`` are known, from one ``log_f``
    call at the left half's nodes, the midpoint and the right half's nodes.

    Returns a ``(_HALF_FIELDS, 2, len(rows))`` array: the halves' left and
    right ends, Gauss estimates, endpoint bounds and end values, each with
    the left halves in row 0 and the right halves in row 1.
    """
    # Each value is formed as the panel rule forms it (``0.5 * (lo + hi)``,
    # ``start + width * node``, ``log(width) + max(...)``), in place: IEEE
    # addition and multiplication commute exactly, so the bits are the same.
    half = np.empty((_HALF_FIELDS, 2, rows.size))
    starts, stops, est, bound, f_starts, f_stops = half
    mid = np.add(lo, hi, out=starts[1])
    mid *= 0.5
    starts[0], stops[0], stops[1] = lo, mid, hi
    width = stops - starts
    x = np.empty((rows.size, 2 * _ORDER + 1))
    for side, cols in enumerate((x[:, :_ORDER], x[:, _ORDER + 1:])):
        np.multiply(width[side, :, None], nodes, out=cols)
        cols += starts[side, :, None]
    x[:, _ORDER] = mid
    vals = _evaluate(log_f, rows, x)
    f_starts[0], f_starts[1] = f_lo, vals[:, _ORDER]
    f_stops[0], f_stops[1] = vals[:, _ORDER], f_hi
    est[:], log_width = _gauss(np.stack((vals[:, :_ORDER], vals[:, _ORDER + 1:])), width, log_w)
    np.maximum(f_starts, f_stops, out=bound)
    bound += log_width
    return half


def log_integrate(log_f, splits, spec: QuadratureSpec) -> np.ndarray:
    """log of ``int_0^1 exp(log_f(t)) dt`` for each of ``len(splits)``
    integrands, by breadth-first adaptive bisection; a 1-D array.

    ``log_f(rows, x)`` evaluates integrand ``rows[k]`` at the points
    ``x[k, :]``: ``rows`` is a 1-D integer array of integrand indices and
    ``x`` a 2-D array with one row per entry of ``rows``.  No call evaluates
    a point twice, and a later call evaluates a point again only where a
    panel's midpoint equals its middle Gauss node (15-point Gauss-Legendre
    has a node at the centre).  The first pass makes two calls: a
    ``(len(rows), 16)`` array holds each first panel's left end and its 15
    Gauss nodes, and a ``(n, 1)`` array every integrand's right end 1.  Each
    level of the bisection then makes one call with a ``(len(rows), 31)``
    array holding, for every live panel of every integrand, the 15 Gauss
    nodes of its left half, its midpoint and the 15 Gauss nodes of its right
    half; the values at the panel's ends are carried from the calls that
    evaluated them.

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
    at or below ``_RTOL / 64`` of its integrand's first-pass total.  The
    bound is rigorous on a monotone panel, so a boundary layer that the
    Gauss nodes miss is never dropped.  Any other panel is accepted once its
    two estimates agree to ``0.25 * _RTOL``, or to 16 ulps of its log
    integral, the finest agreement that a log of that magnitude can show;
    the ulp bound is the larger only where the log exceeds 2^13 = 8192 in
    magnitude (``_RTOL`` is 1e-10).  Accepted panels are summed per
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
    est, bound, f_lo, f_hi = _first_panels(log_f, rows, lo, hi, n, nodes, log_w)

    # Panels contributing less than _RTOL * total never need refining; use a
    # coarse first-pass total per integrand as the pruning scale.
    prune = _grouped_logsumexp(rows, est, n) + math.log(_RTOL) - math.log(64.0)

    accepted_rows, accepted = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    depth = 0
    while rows.size:
        # A refined panel's halves are the next level's panels, the left
        # halves first.
        half = _halves(log_f, rows, lo, hi, f_lo, f_hi, nodes, log_w)
        fine = np.logaddexp(half[2, 0], half[2, 1])
        p = prune[rows]
        with np.errstate(invalid="ignore"):
            err = np.where(fine == _NEG_INF, math.inf,
                           np.abs(np.expm1(np.minimum(est - fine, 700.0))))
            agree = np.maximum(0.25 * _RTOL, _ULPS * np.spacing(np.abs(fine)))
        done = (((fine <= p) & (est <= p) & (bound <= p))
                | (err <= agree))
        accepted_rows.append(rows[done])
        accepted.append(fine[done])
        refine = ~done
        if depth >= spec.max_subdivisions and refine.any():
            k = int(np.flatnonzero(refine)[0])
            raise QuadratureError(
                f"panel [{lo[k]:.6g}, {hi[k]:.6g}] disagrees by {err[k]:.3e} after "
                f"{depth} subdivisions (tolerance {_RTOL:.1e})", index=int(rows[k]))
        rows = np.concatenate((rows[refine], rows[refine]))
        lo, hi, est, bound, f_lo, f_hi = half[:, :, refine].reshape(_HALF_FIELDS, -1)
        depth += 1
    return _grouped_logsumexp(np.concatenate(accepted_rows), np.concatenate(accepted), n)
