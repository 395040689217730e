"""Command-line surface: experiments in, CSV data and JSON summaries out.

Every subcommand validates its numeric inputs before any computation starts
and ends in the one writer, ``_emit``: it writes ``<output>/<subcommand>.csv``
plus ``<output>/<subcommand>.json`` (the JSON echoes the fully resolved
configuration so runs are round-trippable) and prints a one-line result.
``--seed`` fully determines stochastic outputs; floats are emitted at 17
significant digits so determinism checks are bit-meaningful.

Exit codes: 0 success, 2 usage or validation, 3 numerical failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .geometry import HalfSpacePoint, ModelParams, cost, geodesic
from .kernel import log_densities
from .ldp import Ball, BoundaryPatch, phase_transition_scan, sliced_ldp, static_ldp
from .quadrature import QuadratureError, QuadratureSpec
from .simulate import SimConfig, simulate_batch
from .transport import (DiscreteMeasure, TransportConvergenceError,
                        displacement_interpolation, gamma_limit_experiment,
                        kantorovich, schrodinger)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _parse_point(text: str) -> HalfSpacePoint:
    parts = [p for p in text.split(",") if p != ""]
    if len(parts) < 2:
        raise ValueError(f"point needs at least two coordinates, got {text!r}")
    vals = [float(p) for p in parts]
    return HalfSpacePoint(vals[0], tuple(vals[1:]))


def _parse_floats(text: str):
    return tuple(float(p) for p in text.split(",") if p != "")


def _parse_target(text: str):
    kind, _, rest = text.partition(":")
    center, _, radius = rest.rpartition(":")
    if kind == "ball":
        return Ball(_parse_point(center), float(radius))
    if kind == "patch":
        return BoundaryPatch(_parse_floats(center), float(radius))
    raise ValueError(f"unknown target kind {kind!r}; use ball:<point>:<r> or patch:<x'>:<r>")


def _read_measure(path: str) -> DiscreteMeasure:
    """Atoms and weights from a CSV with a header and one ``x1, xp..., weight`` row each."""
    atoms, weights = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for row in filter(None, reader):
            try:
                if len(row) < 3 or len(row) != len(header):
                    raise ValueError(f"{len(row)} columns, the header has {len(header)}")
                vals = [float(v) for v in row]
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
            atoms.append(HalfSpacePoint(vals[0], tuple(vals[1:-1])))
            weights.append(vals[-1])
    if not atoms:
        raise ValueError(f"{path}, line {reader.line_num + 1}: expected a header, then "
                         f"rows of x1, xp..., weight")
    return DiscreteMeasure(tuple(atoms), tuple(weights))


def _coord_names(d: int, prefix: str = ""):
    return [f"{prefix}x1"] + [f"{prefix}xp{i}" for i in range(1, d)]


def _params(args) -> ModelParams:
    return ModelParams(args.a, args.theta, args.d)


def _measures(args):
    return _read_measure(args.mu0), _read_measure(args.mu1)


def _emit(args, header, rows, summary: dict, line: str) -> int:
    """Write ``<command>.csv`` (``header``, then ``rows`` through ``_fmt``) and
    ``<command>.json`` (``summary`` plus the resolved ``config``), print ``line``."""
    os.makedirs(args.output, exist_ok=True)
    stem = os.path.join(args.output, args.command)
    with open(stem + ".csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)
    config = {k: v for k, v in vars(args).items() if k != "func"}
    with open(stem + ".json", "w") as fh:
        json.dump({"config": config, **summary}, fh, sort_keys=True, indent=2, default=_fmt)
        fh.write("\n")
    print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_cost(args) -> int:
    params = _params(args)
    value = cost(params, _parse_point(args.x), _parse_point(args.y))
    return _emit(args, ["a", "theta", "x", "y", "cost"],
                 [[params.a, params.theta, args.x, args.y, value]], {"cost": value}, _fmt(value))


def _cmd_geodesic(args) -> int:
    params = _params(args)
    g = geodesic(params, _parse_point(args.x), _parse_point(args.y))
    rows = [[k, seg.duration, *seg.start.coords().tolist(), *seg.end.coords().tolist()]
            for k, seg in enumerate(g.segments)]
    header = ["segment", "duration", *_coord_names(params.d, "start_"),
              *_coord_names(params.d, "end_")]
    return _emit(args, header, rows, {"case": g.case_tag, "total_cost": g.total_cost},
                 f"{g.case_tag} {_fmt(g.total_cost)}")


def _cmd_kernel(args) -> int:
    params = _params(args)
    x = _parse_point(args.x)
    t = args.t
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be a positive finite number, got {t!r}")
    if params.d != 2 or x.dim != 2:
        raise ValueError("the kernel grid needs d = 2 and a two-coordinate --x")
    n = args.grid
    extent = args.extent
    if n < 2:
        raise ValueError(f"grid needs at least 2 points per axis, got {n}")
    if not 0.0 < extent < math.inf:
        raise ValueError(f"extent must be a positive finite number, got {extent!r}")
    spread = math.sqrt(t) * max(1.0, math.sqrt(params.a))
    y1_max = x.x1 + extent * math.sqrt(t)
    w = extent * spread
    y1s = np.linspace(0.0, y1_max, n)
    yps = np.linspace(x.xp[0] - w, x.xp[0] + w, n)
    # The n x n grid row by row, then the boundary row.
    y1 = np.concatenate((np.repeat(y1s, n), np.zeros(n)))
    yp = np.concatenate((np.tile(yps, n), yps))
    dens = log_densities(params, QuadratureSpec(), t, x.x1, y1, np.abs(yp - x.xp[0]))
    interior = np.exp(dens.interior)
    boundary = np.exp(dens.boundary)
    rows = [[t, x.x1, x.xp[0], *point] for point in zip(y1, yp, interior, boundary)]
    # trapezoid mass over the emitted grid, for the summary
    mass = float(np.trapezoid(np.trapezoid(interior[: n * n].reshape(n, n), yps, axis=1), y1s)
                 + np.trapezoid(boundary[n * n:], yps))
    return _emit(args, ["t", "x1", "xp1", "y1", "yp1", "interior_density", "boundary_density"],
                 rows, {"trapezoid_mass": mass}, f"rows={len(rows)} trapezoid_mass={_fmt(mass)}")


def _cmd_simulate(args) -> int:
    params = _params(args)
    cfg = SimConfig(params, _parse_point(args.x), args.step, args.n_steps, args.seed)
    batch = simulate_batch(cfg, args.n_paths)
    times, x1, xp = batch.times.tolist(), batch.x1.tolist(), batch.xp.tolist()
    local, occ = batch.local_time.tolist(), batch.occupation_time.tolist()
    rows = [[p, i, times[i], x1[p][i], *xp[p][i], local[p][i], occ[p][i]]
            for p in range(args.n_paths) for i in range(args.n_steps + 1)]
    frac = float(np.mean(batch.x1 == 0.0))
    return _emit(args, ["path", "step", "t", *_coord_names(params.d), "L", "O"], rows,
                 {"boundary_fraction": frac},
                 f"paths={args.n_paths} steps={args.n_steps} boundary_fraction={_fmt(frac)}")


def _cmd_ldp_static(args) -> int:
    params, x, target = _params(args), _parse_point(args.x), _parse_target(args.target)
    epsilons = _parse_floats(args.epsilons)
    if args.method == "monte_carlo":
        est = sliced_ldp(params, x, [(1.0, target)], epsilons, args.n_paths, args.seed)
    else:
        est = static_ldp(params, x, target, epsilons, QuadratureSpec())
    # log p from eps log p: p itself may underflow to 0 where its logarithm is finite.
    rows = [[eps, p, s / eps, s] for eps, p, s in zip(est.epsilons, est.probs, est.log_probs)]
    rows.append(["summary", est.extrapolated_rate, est.reference_rate, est.beta])
    return _emit(args, ["epsilon", "prob", "log_prob", "eps_log_prob"], rows, {
        "epsilons": list(est.epsilons),
        "eps_log_probs": list(est.log_probs),
        "extrapolated_rate": est.extrapolated_rate,
        "reference_rate": est.reference_rate,
        "beta": est.beta,
        "gamma": est.gamma,
        "dropped_epsilons": list(est.dropped_epsilons),
    }, f"extrapolated={_fmt(est.extrapolated_rate)} reference={_fmt(est.reference_rate)}")


def _cmd_ldp_scan(args) -> int:
    x, y = _parse_point(args.x), _parse_point(args.y)
    res = phase_transition_scan(_parse_floats(args.a_grid), args.theta, x, y,
                                _parse_floats(args.epsilons), QuadratureSpec(),
                                ball_radius=args.radius)
    rows = [[r.a, r.extrapolated_rate, r.reference_rate] for r in res.rows]
    return _emit(args, ["a", "extrapolated_rate", "reference_rate"], rows, {
        "flat_level": res.flat_level,
        "empirical_kink": res.empirical_kink,
        "crossing_root": res.crossing_root,
    }, f"kink={_fmt(res.empirical_kink)} crossing_root={_fmt(res.crossing_root)}")


def _cmd_ldp_path(args) -> int:
    params = _params(args)
    waypoints = []
    for item in args.waypoints.split(";"):
        t_str, _, rest = item.partition(":")
        waypoints.append((float(t_str), _parse_target("ball:" + rest)))
    est = sliced_ldp(params, _parse_point(args.x), waypoints,
                     _parse_floats(args.epsilons), args.n_paths, args.seed)
    rows = [[eps, p, s] for eps, p, s in zip(est.epsilons, est.probs, est.log_probs)]
    rows.append(["summary", est.extrapolated_rate, est.reference_rate])
    return _emit(args, ["epsilon", "prob", "eps_log_prob"], rows, {
        "extrapolated_rate": est.extrapolated_rate,
        "reference_rate": est.reference_rate,
        "dropped_epsilons": list(est.dropped_epsilons),
    }, f"extrapolated={_fmt(est.extrapolated_rate)} reference={_fmt(est.reference_rate)}")


def _plan_rows(plan):
    m = plan.matrix
    return [[i, j, m[i, j]] for i, j in zip(*np.nonzero(m > 0))]


def _cmd_ot(args) -> int:
    params = _params(args)
    plan = kantorovich(params, *_measures(args))
    return _emit(args, ["i", "j", "mass"], _plan_rows(plan),
                 {"value": plan.cost_value, "marginal_defect": plan.marginal_defect()},
                 _fmt(plan.cost_value))


def _cmd_sinkhorn(args) -> int:
    params = _params(args)
    plan = schrodinger(params, QuadratureSpec(), args.epsilon, *_measures(args),
                       max_iter=args.max_iter, tol=args.tol)
    return _emit(args, ["i", "j", "mass"], _plan_rows(plan), {
        "value": plan.cost_value,
        "log_normalization": plan.log_normalization,
        "iterations": plan.iterations,
        "marginal_error": plan.marginal_defect(),
    }, f"value={_fmt(plan.cost_value)} iterations={plan.iterations}")


def _cmd_gamma_limit(args) -> int:
    params = _params(args)
    res = gamma_limit_experiment(params, QuadratureSpec(), *_measures(args),
                                 _parse_floats(args.epsilons), tol=args.tol)
    rows = [[r.epsilon, r.entropic_value, r.log_normalization, r.gap, r.iterations]
            for r in res.rows]
    return _emit(args, ["epsilon", "entropic_value", "log_normalization", "gap", "iterations"],
                 rows, {
                     "kantorovich_value": res.kantorovich_value,
                     "gap_slope": res.gap_slope,
                     "gaps_shrink": res.gaps_shrink,
                     "failed_epsilons": list(res.failed_epsilons),
                 }, f"kantorovich={_fmt(res.kantorovich_value)} gaps_shrink={res.gaps_shrink}")


def _cmd_interpolate(args) -> int:
    params = _params(args)
    plan = kantorovich(params, *_measures(args))
    mid = displacement_interpolation(params, plan, args.t)
    rows = [[p.x1, *p.xp, w] for p, w in zip(mid.atoms, mid.weights)]
    return _emit(args, [*_coord_names(params.d), "weight"], rows,
                 {"atoms": len(mid.atoms), "plan_value": plan.cost_value},
                 f"atoms={len(mid.atoms)}")


# ---------------------------------------------------------------------------
# Parser / dispatch
# ---------------------------------------------------------------------------

def _add_common(sub, model=True, seed=False):
    sub.add_argument("--output", "-o", default=".", help="output directory")
    if seed:
        sub.add_argument("--seed", type=int, default=0, help="seed for stochastic outputs")
    if model:
        sub.add_argument("--a", type=float, required=True, help="tangential diffusivity")
        sub.add_argument("--theta", type=float, required=True, help="stickiness")
        sub.add_argument("--d", type=int, default=2, help="ambient dimension")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stickybm",
        description="Sticky-reflecting Brownian motion: kernel, geodesics, "
                    "simulation, large-deviation and transport experiments.")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("cost", help="two-point intrinsic cost")
    _add_common(s)
    s.add_argument("--x", required=True, help="point as comma-separated coords, first is normal")
    s.add_argument("--y", required=True)
    s.set_defaults(func=_cmd_cost)

    s = subs.add_parser("geodesic", help="explicit geodesic between two points")
    _add_common(s)
    s.add_argument("--x", required=True)
    s.add_argument("--y", required=True)
    s.set_defaults(func=_cmd_geodesic)

    s = subs.add_parser("kernel", help="transition kernel on a grid")
    _add_common(s)
    s.add_argument("--t", type=float, required=True)
    s.add_argument("--x", required=True)
    s.add_argument("--grid", type=int, default=64)
    s.add_argument("--extent", type=float, default=4.0, help="grid extent in standard deviations")
    s.set_defaults(func=_cmd_kernel)

    s = subs.add_parser("simulate", help="exact path sampling")
    _add_common(s, seed=True)
    s.add_argument("--x", required=True)
    s.add_argument("--step", type=float, required=True)
    s.add_argument("--n-steps", type=int, required=True, dest="n_steps")
    s.add_argument("--n-paths", type=int, default=1, dest="n_paths")
    s.set_defaults(func=_cmd_simulate)

    s = subs.add_parser("ldp-static", help="static rate extraction for a target set")
    _add_common(s, seed=True)
    s.add_argument("--x", required=True)
    s.add_argument("--target", required=True, help="ball:<point>:<r> or patch:<x'>:<r>")
    s.add_argument("--epsilons", required=True)
    s.add_argument("--method", choices=("quadrature", "monte_carlo"), default="quadrature")
    s.add_argument("--n-paths", type=int, default=100000, dest="n_paths")
    s.set_defaults(func=_cmd_ldp_static)

    s = subs.add_parser("ldp-scan", help="rate versus diffusivity scan")
    _add_common(s, model=False)
    s.add_argument("--theta", type=float, default=1.0)
    s.add_argument("--a-grid", required=True, dest="a_grid", help="comma-separated a values")
    s.add_argument("--x", required=True)
    s.add_argument("--y", required=True)
    s.add_argument("--radius", type=float, default=0.1)
    s.add_argument("--epsilons", required=True)
    s.set_defaults(func=_cmd_ldp_scan)

    s = subs.add_parser("ldp-path", help="path-slicing rate via Monte Carlo")
    _add_common(s, seed=True)
    s.add_argument("--x", required=True)
    s.add_argument("--waypoints", required=True,
                   help="semicolon-separated t:<point>:<radius> entries")
    s.add_argument("--epsilons", required=True)
    s.add_argument("--n-paths", type=int, default=100000, dest="n_paths")
    s.set_defaults(func=_cmd_ldp_path)

    s = subs.add_parser("ot", help="exact optimal transport between two measures")
    _add_common(s)
    s.add_argument("--mu0", required=True, help="CSV of x1, xp..., weight")
    s.add_argument("--mu1", required=True)
    s.set_defaults(func=_cmd_ot)

    s = subs.add_parser("sinkhorn", help="entropic plan against the sticky kernel")
    _add_common(s)
    s.add_argument("--mu0", required=True)
    s.add_argument("--mu1", required=True)
    s.add_argument("--epsilon", type=float, required=True)
    s.add_argument("--max-iter", type=int, default=20000, dest="max_iter")
    s.add_argument("--tol", type=float, default=1e-9)
    s.set_defaults(func=_cmd_sinkhorn)

    s = subs.add_parser("gamma-limit", help="entropic-to-exact gap across epsilons")
    _add_common(s)
    s.add_argument("--mu0", required=True)
    s.add_argument("--mu1", required=True)
    s.add_argument("--epsilons", required=True)
    s.add_argument("--tol", type=float, default=1e-9)
    s.set_defaults(func=_cmd_gamma_limit)

    s = subs.add_parser("interpolate", help="displacement interpolation of the exact plan")
    _add_common(s)
    s.add_argument("--mu0", required=True)
    s.add_argument("--mu1", required=True)
    s.add_argument("--t", type=float, required=True)
    s.set_defaults(func=_cmd_interpolate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, TypeError) as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QuadratureError, TransportConvergenceError, RuntimeError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
