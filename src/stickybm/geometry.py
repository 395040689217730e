"""Intrinsic geometry of sticky-reflecting Brownian motion on the half-space.

The state space is the closed half-space ``{x = (x1, x') : x1 >= 0}`` with a
tangential diffusivity ``a`` on the boundary ``{x1 = 0}``.  This module holds
the closed-form two-point cost, the cone separating Euclidean from
through-the-boundary optimal strategies, the (relaxed) Lagrangian and
Hamiltonian, explicit geodesics, the action of piecewise-linear paths, and the
one time-sliced cost loop ``_sliced_sum`` behind the LDP module's waypoint
costs.

All functions are pure; nothing here owns mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "INFINITE_ACTION",
    "ModelParams",
    "HalfSpacePoint",
    "point",
    "Path",
    "GeodesicDescription",
    "lagrangian",
    "hamiltonian",
    "sticky_rate",
    "sticky_rate_profile",
    "cone_contains",
    "cone_threshold",
    "cost",
    "cost_batch",
    "euclidean_rate",
    "geodesic",
    "action",
]

# The Lagrangian genuinely takes the value +infinity on the boundary for
# a > 1 with a nonzero normal velocity; IEEE inf is the sentinel, never a
# large finite float.
INFINITE_ACTION = math.inf


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: tangential diffusivity, stickiness, dimension.

    Parameters
    ----------
    a : float
        Tangential diffusivity on the boundary, ``a > 0``.  Interior
        diffusivity is normalized to one.
    theta : float
        Stickiness coupling local time and occupation time, ``theta > 0``.
    d : int
        Ambient dimension, ``d >= 2``.
    """

    a: float
    theta: float
    d: int = 2

    def __post_init__(self):
        if not 0 < self.a < math.inf:
            raise ValueError(f"diffusivity a must be positive and finite, got {self.a}")
        if not 0 < self.theta < math.inf:
            raise ValueError(f"stickiness theta must be positive and finite, got {self.theta}")
        if not 2 <= self.d < math.inf or int(self.d) != self.d:
            raise ValueError(f"dimension d must be an integer >= 2, got {self.d}")
        object.__setattr__(self, "d", int(self.d))

    @property
    def big_a(self) -> float:
        """The shifted diffusivity ``A = a - 1``."""
        return self.a - 1.0

    @property
    def alpha(self) -> float:
        """Contact angle with the normal, ``sin^2(alpha) = 1/a``.

        Only defined for ``a >= 1``; optimal paths enter and leave the
        boundary at this angle.
        """
        if self.a < 1.0:
            raise ValueError("contact angle is only defined for a >= 1")
        return math.asin(1.0 / math.sqrt(self.a))


@dataclass(frozen=True)
class HalfSpacePoint:
    """A point ``(x1, x')`` of the closed half-space, ``x1 >= 0``, with
    finite coordinates.

    Boundary membership is exact: ``x1 == 0.0`` is a modeling statement, not
    a float comparison with tolerance.  Construct boundary points with a
    literal zero first coordinate.
    """

    x1: float
    xp: tuple = field(default=())

    def __post_init__(self):
        xp = self.xp
        if type(xp) is not tuple or not all(type(v) is float for v in xp):
            # anything but a tuple of floats is read through numpy, flattened
            xp = tuple(float(v) for v in np.atleast_1d(np.asarray(xp, dtype=float)).ravel())
        object.__setattr__(self, "xp", xp)
        object.__setattr__(self, "x1", float(self.x1))
        if not 0.0 <= self.x1 < math.inf:
            raise ValueError(f"x1 must be nonnegative and finite, got {self.x1}")
        if not all(map(math.isfinite, xp)):
            raise ValueError(f"tangential coordinates must be finite, got {xp}")

    @property
    def dim(self) -> int:
        return 1 + len(self.xp)

    def coords(self) -> np.ndarray:
        return np.concatenate(([self.x1], self.xp))


def point(x1, *xp) -> HalfSpacePoint:
    """Shorthand constructor, ``point(x1, x2, ..., xd)``."""
    return HalfSpacePoint(x1, tuple(xp))


def _check_dim(params: ModelParams, p, name: str = "point"):
    if p.dim != params.d:
        raise ValueError(f"{name} has dimension {p.dim}, model expects {params.d}")


def _check_vec(params: ModelParams, v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float).ravel()
    if v.size != params.d:
        raise ValueError(f"{name} has length {v.size}, model expects {params.d}")
    return v


def _gap(diff):
    """The Euclidean length of ``diff`` along its last axis: the one length rule,
    which the cost's gap ``|x' - y'|``, its batches, the geodesics, the Gibbs
    kernel and ``ldp``'s reference-rate programs use (``pathopt``, the oracle,
    keeps its own norm).  Each row's length is ``math.hypot`` of its entries,
    which scales them, so lengths below ~1e-154 do not square to zero.  One
    row is that float; rows of one entry are ``|diff|``, which is what
    ``math.hypot`` returns for one argument, and longer rows run through it."""
    diff = np.asarray(diff, dtype=float)
    if diff.ndim == 1:
        return math.hypot(*diff.tolist())
    if diff.shape[-1] == 1:
        return np.abs(diff[..., 0])
    rows = diff.reshape(-1, diff.shape[-1]).tolist()
    return np.fromiter((math.hypot(*r) for r in rows), float, len(rows)).reshape(diff.shape[:-1])


def _tangential_gap(x: HalfSpacePoint, y: HalfSpacePoint) -> float:
    return _gap(np.subtract(y.xp, x.xp))


# ---------------------------------------------------------------------------
# Lagrangian / Hamiltonian
# ---------------------------------------------------------------------------

def lagrangian(params: ModelParams, x: HalfSpacePoint, q) -> float:
    """Relaxed kinetic energy density of the velocity ``q`` at ``x``.

    Interior points always pay ``|q|^2 / 2``.  On the boundary the value is
    ``|q|^2 / 2`` when ``a <= 1`` (lower semicontinuous relaxation of the
    two-phase density), while for ``a > 1`` tangential motion pays
    ``|q|^2 / (2a)`` and any nonzero normal component is forbidden
    (``INFINITE_ACTION``).
    """
    _check_dim(params, x)
    q = _check_vec(params, q, "velocity q")
    sq = float(q @ q)
    if x.x1 > 0.0 or params.a <= 1.0:
        return 0.5 * sq
    if q[0] != 0.0:
        return INFINITE_ACTION
    return sq / (2.0 * params.a)


def hamiltonian(params: ModelParams, x: HalfSpacePoint, p) -> float:
    """Hamiltonian dual: ``|p|^2 / 2`` inside, ``a |p_tan|^2 / 2`` on the boundary."""
    _check_dim(params, x)
    p = _check_vec(params, p, "momentum p")
    if x.x1 > 0.0:
        return 0.5 * float(p @ p)
    pt = p[1:]
    return 0.5 * params.a * float(pt @ pt)


# ---------------------------------------------------------------------------
# Two-point rates, cone, cost
# ---------------------------------------------------------------------------

def sticky_rate_profile(params: ModelParams, x: HalfSpacePoint, y: HalfSpacePoint, L):
    """Through-the-boundary rate at local-time fraction ``L`` in ``[0, 1]``.

    ``|x1+y1|^2 / (2(1-L)) + |x'-y'|^2 / (2(1+A L))``, the quantity whose
    minimum over ``L`` is :func:`sticky_rate`.  Vectorized in ``L``; the
    ``0/0`` at ``L = 1`` with coincident normal coordinates is resolved to 0.
    """
    L = np.asarray(L, dtype=float)
    s = x.x1 + y.x1
    v = _tangential_gap(x, y)
    with np.errstate(divide="ignore"):
        normal = np.where(s == 0.0, 0.0, s * s / (2.0 * (1.0 - L)))
    return normal + v * v / (2.0 * (1.0 + params.big_a * L))


def _sticky_rate_core(a, s, v):
    """The sticky rate at ``s = x1 + y1`` and ``v = |x' - y'|`` with its
    partials ``(d/ds, d/dv)``, vectorized over (a, s, v): the one branch rule.

    The flat branch ``(s^2 + v^2) / 2``, with partials ``(s, v)``, holds when
    ``a <= 1`` or ``sqrt(A) v <= s``; elsewhere the slanted branch
    ``(sqrt(A) s + v)^2 / (2a)`` holds, with partials ``(sqrt(A) l, l)``,
    ``l = (sqrt(A) s + v) / a``.  The two meet in C^1 on the cone
    ``sqrt(A) v = s``.
    """
    a = np.asarray(a, dtype=float)
    s = np.asarray(s, dtype=float)
    v = np.asarray(v, dtype=float)
    big_a = a - 1.0
    flat = 0.5 * (s * s + v * v)
    with np.errstate(invalid="ignore"):
        root_a = np.sqrt(np.where(big_a > 0.0, big_a, 0.0))
        reach = root_a * s + v
        slanted = reach * reach / (2.0 * a)
        ell = reach / a
    use_flat = (a <= 1.0) | (root_a * v <= s)
    return (np.where(use_flat, flat, slanted), np.where(use_flat, s, root_a * ell),
            np.where(use_flat, v, ell))


def sticky_rate(params: ModelParams, x: HalfSpacePoint, y: HalfSpacePoint) -> float:
    """Optimal through-the-boundary rate between ``x`` and ``y``.

    Equals ``min_L`` of :func:`sticky_rate_profile`: the flat value
    ``(|x1+y1|^2 + |x'-y'|^2)/2`` when ``a <= 1`` or the tangential gap is
    small, otherwise ``(sqrt(A)|x1+y1| + |x'-y'|)^2 / (2a)``.
    """
    _check_dim(params, x)
    _check_dim(params, y)
    return float(_sticky_rate_core(params.a, x.x1 + y.x1, _tangential_gap(x, y))[0])


def euclidean_rate(x: HalfSpacePoint, y: HalfSpacePoint) -> float:
    """Interior (Euclidean) rate ``|x - y|^2 / 2``, squared by products as in the cost."""
    d1, v = x.x1 - y.x1, _tangential_gap(x, y)
    return 0.5 * (d1 * d1 + v * v)


def cone_threshold(params: ModelParams, x: HalfSpacePoint, y: HalfSpacePoint) -> float:
    """Critical tangential gap below which the straight path is optimal (a > 1)."""
    if params.a <= 1.0:
        raise ValueError("the cone is only defined for a > 1")
    big_a = params.big_a
    return (x.x1 + y.x1 + 2.0 * math.sqrt(params.a * x.x1 * y.x1)) / math.sqrt(big_a)


def cone_contains(params: ModelParams, x: HalfSpacePoint, y: HalfSpacePoint) -> bool:
    """Whether the straight Euclidean path from ``x`` to ``y`` beats the
    boundary route.  Ties on the critical surface count as inside."""
    _check_dim(params, x)
    _check_dim(params, y)
    return _tangential_gap(x, y) <= cone_threshold(params, x, y)


def _cost_core(a, dx1, s, v):
    """Cost formula, vectorized: the smaller of the Euclidean and sticky rates.
    ``dx1 = x1-y1``, ``s = x1+y1``, ``v = |x'-y'|``."""
    dx1 = np.asarray(dx1, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.minimum(0.5 * (dx1 * dx1 + v * v), _sticky_rate_core(a, s, v)[0])


def cost(params: ModelParams, x: HalfSpacePoint, y: HalfSpacePoint) -> float:
    """Intrinsic two-point cost ``c(x, y)`` (half the squared intrinsic distance).

    ``|x-y|^2 / 2`` for ``a <= 1`` and inside the cone; otherwise the sticky
    value ``(sqrt(A)|x1+y1| + |y'-x'|)^2 / (2a)``.  Symmetric and continuous
    across the cone surface.
    """
    _check_dim(params, x)
    _check_dim(params, y)
    return float(_cost_core(params.a, x.x1 - y.x1, x.x1 + y.x1, _tangential_gap(x, y)))


def cost_batch(a, x1, xp, y1, yp):
    """Vectorized cost.  ``x1, y1`` arrays, ``xp, yp`` arrays with trailing
    tangential axis; ``a`` scalar or broadcastable."""
    x1 = np.asarray(x1, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    v = _gap(np.asarray(yp, dtype=float) - np.asarray(xp, dtype=float))
    return _cost_core(a, x1 - y1, x1 + y1, v)


# ---------------------------------------------------------------------------
# Paths and action
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Path:
    """Piecewise-linear curve: knot times on [0, 1] and half-space knots."""

    times: tuple
    knots: tuple

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        knots = tuple(self.knots)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "knots", knots)
        if len(times) != len(knots):
            raise ValueError("times and knots must have the same length")
        if len(times) < 2:
            raise ValueError("a path needs at least two knots")
        if times[0] != 0.0 or times[-1] != 1.0:
            raise ValueError("path times must start at 0 and end at 1")
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ValueError("path times must be strictly increasing")
        for k in knots:
            if not isinstance(k, HalfSpacePoint):
                raise TypeError("knots must be HalfSpacePoint instances")

    def at(self, t: float) -> HalfSpacePoint:
        """Piecewise-linear interpolation, with x1 clamped against negative
        rounding so interpolants stay feasible: :func:`_polyline_at` on this
        one path."""
        point = _polyline_at(np.array([self.times]),
                             np.array([[(k.x1, *k.xp) for k in self.knots]]), float(t))[0]
        return HalfSpacePoint(float(point[0]), point[1:])


def _polyline_at(times, knots, t) -> np.ndarray:
    """Points ``(x1, x')`` of piecewise-linear paths at times ``t``: the one
    polyline interpolation.

    Row ``r`` of ``times`` (n, K) and ``knots`` (n, K, d) is one path; a
    path with fewer than K knots repeats its last knot at times past 1.
    ``t`` is one time for every row, one per row, or, for one row, any
    number of times.  At ``t <= 0`` and ``t >= 1`` a path returns its first
    and last knot; in between, the segment ``j`` whose times bracket ``t``
    (the later one at a knot time) is read at ``u = (t - t0) / (t1 - t0)``
    as ``(1 - u) k_j + u k_{j+1}``, with x1 clamped at 0 against negative
    rounding, so interpolants stay feasible.
    """
    t = np.asarray(t, dtype=float)
    n, k = times.shape
    # held inside [0, 1), where every segment it finds has positive length
    inside = np.minimum(np.maximum(t, 0.0), _BELOW_ONE)
    # the segment's first knot, in the rows' knots laid end to end: the
    # times up to it are the leading ones not past ``inside``
    i = np.arange(0, n * k, k) + np.argmin(times[:, 1:] <= inside[..., None], axis=1)
    times, knots = times.ravel(), knots.reshape(n * k, -1)
    t0, t1 = times.take(i), times.take(i + 1)
    u = ((inside - t0) / (t1 - t0))[..., None]
    points = (1.0 - u) * knots.take(i, axis=0) + u * knots.take(i + 1, axis=0)
    points[:, 0] = np.where(points[:, 0] > 0.0, points[:, 0], 0.0)
    start, end = t <= 0.0, t >= 1.0
    if np.count_nonzero(start) or np.count_nonzero(end):
        first = i - i % k
        points = np.where(start[..., None], knots.take(first, axis=0),
                          np.where(end[..., None], knots.take(first + k - 1, axis=0), points))
    return points


_BELOW_ONE = math.nextafter(1.0, 0.0)


def action(params: ModelParams, path: Path) -> float:
    """Action of a piecewise-linear path under the relaxed Lagrangian.

    A segment with both endpoints on the boundary is a boundary segment and
    pays the tangential density; every other segment pays the interior
    density.  For a piecewise-linear path a boundary-pinned segment always has
    zero normal velocity, so the infinite sentinel can only arise through
    degenerate (zero-duration) segments, which the Path invariants exclude.
    """
    for k in path.knots:
        _check_dim(params, k)
    total = 0.0
    for j in range(len(path.times) - 1):
        dt = path.times[j + 1] - path.times[j]
        k0, k1 = path.knots[j], path.knots[j + 1]
        dx = k1.coords() - k0.coords()
        sq = float(dx @ dx)
        on_boundary = k0.x1 == 0.0 and k1.x1 == 0.0
        if on_boundary and params.a > 1.0:
            total += sq / (2.0 * params.a * dt)
        else:
            total += sq / (2.0 * dt)
    return total


def _sliced_sum(params: ModelParams, points, dts) -> float:
    """``sum_j c(points[j], points[j+1]) / dts[j]``: the one time-sliced cost loop."""
    total = 0.0
    for y0, y1, dt in zip(points, points[1:], dts):
        total += cost(params, y0, y1) / dt
    return float(total)


# ---------------------------------------------------------------------------
# Geodesics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicDescription:
    """Explicit minimizer of the path action between two points.

    ``case_tag`` is one of ``euclidean``, ``boundary_only``,
    ``one_touch_exit`` (start on the boundary), ``one_touch_entry`` (end on
    the boundary), ``three_segment``.  ``path`` runs from the start to the
    end through the boundary entry and exit points, if any; its knot times
    keep the Lagrangian constant, so its action equals ``total_cost``.
    """

    case_tag: str
    path: Path
    total_cost: float


_CASES = ("euclidean", "boundary_only", "one_touch_exit", "one_touch_entry", "three_segment")


def _layouts() -> tuple:
    """Knot layouts over the slots (x, z_in, z_out, y), one row per code.

    A route outside the cone has code ``[x1 > 0] + 2 [|z_out - z_in| > 0]
    + 4 [y1 > 0]``, whose set bits are the slots after x that it keeps: a
    leg of zero length is dropped with its end knot.  Codes 0 and 2, both
    ends on the boundary, and code 8, the cone's inside, keep x and y.  A
    row of the first table holds the kept slots in order, the last repeated
    to four, then the knot count and the index into ``_CASES``; a row of
    the second holds per position the time 1, 2, 3, ... from the last kept
    slot on, 0 before it.
    """
    rows, times = [], []
    for code in range(9):
        if code in (0, 2, 8):
            slots, tag = [0, 3], "euclidean" if code == 8 else "boundary_only"
        else:
            slots = [0] + [i for i in (1, 2, 3) if code & 2 ** (i - 1)]
            tag = ("one_touch_exit" if not code & 1 else "one_touch_entry" if not code & 4
                   else "three_segment")
        k = len(slots)
        rows.append(slots + slots[-1:] * (4 - k) + [k, _CASES.index(tag)])
        times.append([max(0, i - k + 2) for i in range(4)])
    return np.array(rows), np.array(times, dtype=float)


_LAYOUTS, _LAYOUT_TIMES = _layouts()
_SIGNS = np.array([1.0, -1.0])
_CODE_BITS = np.array([1, 2, 4])


class _Geodesics(NamedTuple):
    """The geodesics of n pairs, one row each.  ``case`` indexes ``_CASES``;
    ``times`` (n, 4) and ``knots`` (n, 4, d) hold the path's ``count``
    knots, the last repeated at times 2, 3, ... as :func:`_polyline_at`
    reads them."""

    case: np.ndarray
    count: np.ndarray
    times: np.ndarray
    knots: np.ndarray


def _geodesics(a: float, x1, xp, y1, yp) -> _Geodesics:
    """The explicit geodesics from ``(x1[r], xp[r])`` to ``(y1[r], yp[r])``,
    all rows at once: the one geodesic construction.  ``x1, y1`` have shape
    (n,), ``xp, yp`` (n, d - 1); :func:`geodesic` states the rule.

    Every row is built on the four slots (x, z_in, z_out, y) and keeps the
    slots of its layout (``_layouts``).  When no row leaves the cone with an
    end off the boundary, every path is straight and nothing else is built.
    """
    xp, yp = np.asarray(xp, dtype=float), np.asarray(yp, dtype=float)
    n, m = xp.shape
    slots = np.zeros((n, 4, 1 + m))
    slots[:, 0, 0], slots[:, 3, 0] = x1, y1
    slots[:, :2, 1:], slots[:, 2:, 1:] = xp[:, None], yp[:, None]
    ends = slots[:, ::3, 0]
    x1, y1 = ends[:, 0], ends[:, 1]
    diff = yp - xp
    gap = _gap(diff)
    s = x1 + y1
    # outside the cone, where cone_contains is false
    outside = (gap > (s + 2.0 * np.sqrt(a * x1 * y1)) / math.sqrt(a - 1.0) if a > 1.0
               else np.zeros(n, dtype=bool))
    code, slot_times = np.where(outside, 2, 8), np.zeros((n, 4))
    if np.count_nonzero(outside & (s > 0.0)):
        with np.errstate(divide="ignore", invalid="ignore"):   # straight rows read none of it
            root_a = math.sqrt(a - 1.0)
            u = diff / gap[:, None]
            slots[:, 1:3, 1:] += ((ends / root_a) * _SIGNS)[:, :, None] * u[:, None, :]
            # Speed-normalized lengths: slanted legs at weight 1, boundary
            # leg at 1/sqrt(a); knot times at their cumulative shares.
            lengths = np.zeros((n, 4))
            lengths[:, 1::2] = ends * math.sqrt(a / (a - 1.0))
            lengths[:, 2] = _gap(slots[:, 2, 1:] - slots[:, 1, 1:])
            code = np.where(outside, (lengths[:, 1:] > 0.0) @ _CODE_BITS, 8)
            lengths[:, 2] /= math.sqrt(a)
            total = lengths[:, 1] + lengths[:, 2] + lengths[:, 3]
            slot_times = np.add.accumulate(lengths / total[:, None], axis=1)
        slot_times[:, 0] = 0.0
    layout, last = _LAYOUTS[code], _LAYOUT_TIMES[code]
    rows, pick = np.arange(n)[:, None], layout[:, :4]
    times = np.where(last > 0.0, last, slot_times[rows, pick])
    # A leg shorter than one ulp of time keeps one ulp, so that the times
    # increase strictly; where they already do, nothing moves.
    if np.count_nonzero(times[:, 1:] <= times[:, :-1]):
        for i in (1, 2):
            times[:, i] = np.maximum(times[:, i], np.nextafter(times[:, i - 1], 1.0))
        for i in (2, 1):
            times[:, i] = np.minimum(times[:, i], np.nextafter(times[:, i + 1], 0.0))
    return _Geodesics(layout[:, 5], layout[:, 4], times, slots[rows, pick])


def geodesic(params: ModelParams, x: HalfSpacePoint, y: HalfSpacePoint) -> GeodesicDescription:
    """Explicit action minimizer from ``x`` to ``y``: :func:`_geodesics` on
    this one pair.

    Inside the cone (or for ``a <= 1``) the minimizer is the straight
    Euclidean interpolation.  Outside the cone it enters the boundary at
    ``z_in = (0, x' + (x1/sqrt(A)) u)`` and leaves at
    ``z_out = (0, y' - (y1/sqrt(A)) u)`` with ``u`` the unit tangential
    direction from ``x'`` to ``y'``: both slanted legs make the contact angle
    with the normal.  Knot times are allocated so the Lagrangian is constant
    in time, which also makes the action additive along the geodesic; a leg
    shorter than one ulp of time keeps one ulp.
    """
    _check_dim(params, x)
    _check_dim(params, y)
    g = _geodesics(params.a, [x.x1], [x.xp], [y.x1], [y.xp])
    k = int(g.count[0])
    knots = (x, *(HalfSpacePoint(x1, tuple(xp)) for x1, *xp in g.knots[0, 1:k].tolist()))
    return GeodesicDescription(_CASES[g.case[0]], Path(tuple(g.times[0, :k].tolist()), knots),
                               cost(params, x, y))
