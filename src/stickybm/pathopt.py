"""Exact minimum of the discretized path action.

Independent of every closed form in :mod:`stickybm.geometry`: the only model
input is the two-phase kinetic energy (interior weight 1, boundary weight
``a``).  Paths are polylines with knots in the closed half-space on a uniform
grid of ``n`` segments; a segment whose two knots are snapped to the boundary
has weight ``a``, every other segment weight 1, and the energy is
``(n/2) sum |dz_k|^2 / w_k``.

For fixed snap flags the energy separates by coordinate.  The normal
coordinate interpolates linearly between its pinned values, all ``>= 0``, so
the half-space bound never binds; the tangential displacement splits in
proportion to the weights.  A run of snapped knots ``lo..hi`` therefore costs

    (n/2) [x1^2/lo + y1^2/(n - hi) + |y' - x'|^2 / (lo + n - hi + a (hi - lo))]

and no run costs the chord's ``|y - x|^2 / 2``.  More than one run never
wins: the knots between two runs already sit at 0, and snapping them only
turns weights 1 into ``a``, which helps when ``a > 1``; when ``a <= 1`` no
snapping helps at all.  Enumerating every ``(lo, hi)`` hence gives the exact
discrete minimum.

Used as the oracle that the explicit cost and geodesics are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import HalfSpacePoint, ModelParams, _check_dim

__all__ = ["BrutePathResult", "minimize_path_action"]


@dataclass(frozen=True)
class BrutePathResult:
    """Outcome of one discrete minimization.

    ``uniform_value`` is the exact minimum of the uniform-grid energy and
    ``value`` re-times the optimal polyline optimally over its segments
    (closed under Cauchy-Schwarz); both are actions of admissible paths,
    hence upper bounds for the true cost.
    """

    value: float
    uniform_value: float
    knots: np.ndarray
    snapped: np.ndarray


def _segment_weights(a: float, snapped: np.ndarray) -> np.ndarray:
    boundary_seg = snapped[:-1] & snapped[1:]
    return np.where(boundary_seg, a, 1.0)


def _timed_value(a: float, z: np.ndarray, snapped: np.ndarray) -> float:
    """Action of the polyline with the optimal (non-uniform) time allocation."""
    w_seg = _segment_weights(a, snapped)
    lengths = np.linalg.norm(z[1:] - z[:-1], axis=1)
    return 0.5 * float(np.sum(lengths / np.sqrt(w_seg))) ** 2


def _ramp_energy(h: float, steps: np.ndarray) -> np.ndarray:
    """``h^2 / steps``: a normal ramp from height ``h`` down to the boundary.

    Zero steps are allowed only from the boundary itself (``h == 0``).
    """
    out = np.full(steps.shape, 0.0 if h == 0.0 else np.inf)
    return np.divide(h * h, steps, out=out, where=steps > 0)


def _optimal_polyline(a: float, x0: np.ndarray, y0: np.ndarray,
                      snapped: np.ndarray) -> np.ndarray:
    """Minimizing knots for fixed flags: normal ramps and weighted tangential split."""
    n = snapped.size - 1
    k = np.arange(n + 1)
    pinned = snapped.copy()
    pinned[[0, n]] = True
    heights = np.zeros(n + 1)
    heights[0], heights[n] = x0[0], y0[0]
    z = np.empty((n + 1, x0.size))
    z[:, 0] = np.interp(k, k[pinned], heights[pinned])
    frac = np.concatenate(([0.0], np.cumsum(_segment_weights(a, snapped))))
    z[:, 1:] = x0[1:] + (frac / frac[-1])[:, None] * (y0[1:] - x0[1:])
    z[0], z[n] = x0, y0
    return z


def minimize_path_action(params: ModelParams, x: HalfSpacePoint, y: HalfSpacePoint,
                         n_segments: int = 64, restarts: int = 20,
                         seed: int = 0) -> BrutePathResult:
    """Exact minimum of the discretized action over polylines from x to y.

    Evaluates the energy of every boundary run ``(lo, hi)`` and of the chord
    in one array and takes the first smallest; see the module docstring for
    why that is the minimum over all snap flags.  ``restarts`` and ``seed``
    are accepted and ignored: they configured the random starts of an
    earlier local search, and existing callers still pass them.
    """
    if (isinstance(n_segments, bool) or not isinstance(n_segments, (int, np.integer))
            or n_segments < 1):
        raise ValueError(f"n_segments must be an integer >= 1, got {n_segments!r}")
    _check_dim(params, x)
    _check_dim(params, y)
    n, a = int(n_segments), params.a
    x0, y0 = x.coords(), y.coords()
    tan2 = float(np.sum((y0[1:] - x0[1:]) ** 2))
    lo, hi = np.triu_indices(n + 1)
    runs = 0.5 * n * (_ramp_energy(x0[0], lo) + _ramp_energy(y0[0], n - hi)
                      + tan2 / (lo + n - hi + a * (hi - lo)))
    energies = np.concatenate(([0.5 * float(np.sum((y0 - x0) ** 2))], runs))
    best = int(np.argmin(energies))
    snapped = np.zeros(n + 1, dtype=bool)
    if best > 0:
        snapped[lo[best - 1]:hi[best - 1] + 1] = True
    z = _optimal_polyline(a, x0, y0, snapped)
    return BrutePathResult(_timed_value(a, z, snapped), float(energies[best]), z, snapped)
