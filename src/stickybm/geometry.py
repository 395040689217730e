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
        xp = tuple(float(v) for v in np.atleast_1d(np.asarray(self.xp, dtype=float)).ravel())
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


def _tangential_gap(x: HalfSpacePoint, y: HalfSpacePoint) -> float:
    # hypot scales its arguments, so gaps below ~1e-154 do not square to zero
    return math.hypot(*np.subtract(y.xp, x.xp))


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
        slanted = reach ** 2 / (2.0 * a)
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
    """Interior (Euclidean) rate ``|x - y|^2 / 2``."""
    d1 = x.x1 - y.x1
    return 0.5 * (d1 * d1 + _tangential_gap(x, y) ** 2)


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
    v = np.linalg.norm(np.asarray(yp, dtype=float) - np.asarray(xp, dtype=float), axis=-1)
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
        rounding so interpolants stay feasible."""
        t = float(t)
        times = self.times
        if t <= 0.0:
            return self.knots[0]
        if t >= 1.0:
            return self.knots[-1]
        j = int(np.searchsorted(times, t, side="right")) - 1
        t0, t1 = times[j], times[j + 1]
        u = (t - t0) / (t1 - t0)
        k0, k1 = self.knots[j], self.knots[j + 1]
        x1 = max(0.0, (1.0 - u) * k0.x1 + u * k1.x1)
        xp = tuple((1.0 - u) * a + u * b for a, b in zip(k0.xp, k1.xp))
        return HalfSpacePoint(x1, xp)


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


def geodesic(params: ModelParams, x: HalfSpacePoint, y: HalfSpacePoint) -> GeodesicDescription:
    """Explicit action minimizer from ``x`` to ``y``.

    Inside the cone (or for ``a <= 1``) the minimizer is the straight
    Euclidean interpolation.  Outside the cone it enters the boundary at
    ``z_in = (0, x' + (x1/sqrt(A)) u)`` and leaves at
    ``z_out = (0, y' - (y1/sqrt(A)) u)`` with ``u`` the unit tangential
    direction from ``x'`` to ``y'``: both slanted legs make the contact angle
    with the normal.  Knot times are allocated so the Lagrangian is constant
    in time, which also makes the action additive along the geodesic.
    """
    _check_dim(params, x)
    _check_dim(params, y)
    c = cost(params, x, y)
    xpa = np.asarray(x.xp)
    ypa = np.asarray(y.xp)
    straight = Path((0.0, 1.0), (x, y))
    if params.a <= 1.0 or cone_contains(params, x, y):
        return GeodesicDescription("euclidean", straight, c)
    if x.x1 == 0.0 and y.x1 == 0.0:
        return GeodesicDescription("boundary_only", straight, c)

    root_a = math.sqrt(params.big_a)
    # Outside the cone the gap exceeds a nonnegative threshold, so it is positive.
    u = (ypa - xpa) / _tangential_gap(x, y)
    z_in = HalfSpacePoint(0.0, tuple(xpa + (x.x1 / root_a) * u))
    z_out = HalfSpacePoint(0.0, tuple(ypa - (y.x1 / root_a) * u))

    # Speed-normalized lengths: slanted legs at weight 1, boundary leg at 1/sqrt(a).
    knots, lengths = [x], []
    if x.x1 > 0.0:
        knots.append(z_in)
        lengths.append(x.x1 * math.sqrt(params.a / params.big_a))
    mid = _tangential_gap(z_in, z_out)
    if mid > 0.0:
        knots.append(z_out)
        lengths.append(mid / math.sqrt(params.a))
    if y.x1 > 0.0:
        knots.append(y)
        lengths.append(y.x1 * math.sqrt(params.a / params.big_a))
    total = sum(lengths)
    # Knot times at the cumulative shares of the length; a leg shorter than
    # one ulp of time keeps one ulp, so that the times increase strictly.
    times = [0.0]
    for w in lengths:
        times.append(times[-1] + w / total)
    times[-1] = 1.0
    for i in range(1, len(times) - 1):
        times[i] = max(times[i], math.nextafter(times[i - 1], 1.0))
    for i in range(len(times) - 2, 0, -1):
        times[i] = min(times[i], math.nextafter(times[i + 1], 0.0))

    if x.x1 == 0.0:
        tag = "one_touch_exit"
    elif y.x1 == 0.0:
        tag = "one_touch_entry"
    else:
        tag = "three_segment"
    return GeodesicDescription(tag, Path(tuple(times), tuple(knots)), c)
