"""Command-line surface: experiments in, CSV data and JSON summaries out.

Every subcommand validates its numeric inputs before any computation starts,
writes ``<output>/<subcommand>.csv`` plus ``<output>/<subcommand>.json`` (the
JSON echoes the fully resolved configuration so runs are round-trippable),
and prints a one-line result.  ``--seed`` fully determines stochastic
outputs; floats are emitted at 17 significant digits so determinism checks
are bit-meaningful.

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
    if kind == "ball":
        center, _, radius = rest.rpartition(":")
        return Ball(_parse_point(center), float(radius))
    if kind == "patch":
        center, _, radius = rest.rpartition(":")
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


def _write_csv(path: str, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=_fmt)
        fh.write("\n")


def _outputs(args, name: str):
    os.makedirs(args.output, exist_ok=True)
    return (os.path.join(args.output, f"{name}.csv"),
            os.path.join(args.output, f"{name}.json"))


def _resolved(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def _params(args) -> ModelParams:
    return ModelParams(args.a, args.theta, args.d)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_cost(args) -> int:
    params = _params(args)
    x = _parse_point(args.x)
    y = _parse_point(args.y)
    value = cost(params, x, y)
    csv_path, json_path = _outputs(args, "cost")
    _write_csv(csv_path, ["a", "theta", "x", "y", "cost"],
               [[params.a, params.theta, args.x, args.y, value]])
    _write_json(json_path, {"config": _resolved(args), "cost": value})
    print(_fmt(value))
    return EXIT_OK


def _cmd_geodesic(args) -> int:
    params = _params(args)
    x = _parse_point(args.x)
    y = _parse_point(args.y)
    g = geodesic(params, x, y)
    csv_path, json_path = _outputs(args, "geodesic")
    rows = []
    for k, seg in enumerate(g.segments):
        rows.append([k, seg.duration,
                     *seg.start.coords().tolist(), *seg.end.coords().tolist()])
    d = params.d
    header = (["segment", "duration"]
              + [f"start_{c}" for c in (["x1"] + [f"xp{i}" for i in range(1, d)])]
              + [f"end_{c}" for c in (["x1"] + [f"xp{i}" for i in range(1, d)])])
    _write_csv(csv_path, header, rows)
    _write_json(json_path, {"config": _resolved(args), "case": g.case_tag,
                            "total_cost": g.total_cost})
    print(f"{g.case_tag} {_fmt(g.total_cost)}")
    return EXIT_OK


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
    csv_path, json_path = _outputs(args, "kernel")
    _write_csv(csv_path, ["t", "x1", "xp1", "y1", "yp1", "interior_density", "boundary_density"], rows)

    # trapezoid mass over the emitted grid, for the summary
    mass = float(np.trapezoid(np.trapezoid(interior[: n * n].reshape(n, n), yps, axis=1), y1s)
                 + np.trapezoid(boundary[n * n:], yps))
    _write_json(json_path, {"config": _resolved(args), "trapezoid_mass": mass})
    print(f"rows={len(rows)} trapezoid_mass={_fmt(mass)}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    params = _params(args)
    x0 = _parse_point(args.x)
    cfg = SimConfig(params, x0, args.step, args.n_steps, args.seed)
    batch = simulate_batch(cfg, args.n_paths)
    csv_path, json_path = _outputs(args, "simulate")
    times, x1, xp = batch.times.tolist(), batch.x1.tolist(), batch.xp.tolist()
    local, occ = batch.local_time.tolist(), batch.occupation_time.tolist()
    rows = [[p, i, times[i], x1[p][i], *xp[p][i], local[p][i], occ[p][i]]
            for p in range(args.n_paths) for i in range(args.n_steps + 1)]
    header = ["path", "step", "t", "x1"] + [f"xp{i}" for i in range(1, params.d)] + ["L", "O"]
    _write_csv(csv_path, header, rows)
    frac = float(np.mean(batch.x1 == 0.0))
    _write_json(json_path, {"config": _resolved(args), "boundary_fraction": frac})
    print(f"paths={args.n_paths} steps={args.n_steps} boundary_fraction={_fmt(frac)}")
    return EXIT_OK


def _cmd_ldp_static(args) -> int:
    params, x, target = _params(args), _parse_point(args.x), _parse_target(args.target)
    epsilons = _parse_floats(args.epsilons)
    if args.method == "monte_carlo":
        est = sliced_ldp(params, x, [(1.0, target)], epsilons, args.n_paths, args.seed)
    else:
        est = static_ldp(params, x, target, epsilons, QuadratureSpec())
    csv_path, json_path = _outputs(args, "ldp-static")
    # log p from eps log p: p itself may underflow to 0 where its logarithm is finite.
    rows = [[eps, p, s / eps, s] for eps, p, s in zip(est.epsilons, est.probs, est.log_probs)]
    rows.append(["summary", est.extrapolated_rate, est.reference_rate, est.beta])
    _write_csv(csv_path, ["epsilon", "prob", "log_prob", "eps_log_prob"], rows)
    _write_json(json_path, {
        "config": _resolved(args),
        "epsilons": list(est.epsilons),
        "eps_log_probs": list(est.log_probs),
        "extrapolated_rate": est.extrapolated_rate,
        "reference_rate": est.reference_rate,
        "beta": est.beta,
        "gamma": est.gamma,
        "dropped_epsilons": list(est.dropped_epsilons),
    })
    print(f"extrapolated={_fmt(est.extrapolated_rate)} reference={_fmt(est.reference_rate)}")
    return EXIT_OK


def _cmd_ldp_scan(args) -> int:
    x = _parse_point(args.x)
    y = _parse_point(args.y)
    res = phase_transition_scan(_parse_floats(args.a_grid), args.theta, x, y,
                                _parse_floats(args.epsilons), QuadratureSpec(),
                                ball_radius=args.radius)
    csv_path, json_path = _outputs(args, "ldp-scan")
    rows = [[r.a, r.extrapolated_rate, r.reference_rate] for r in res.rows]
    _write_csv(csv_path, ["a", "extrapolated_rate", "reference_rate"], rows)
    _write_json(json_path, {
        "config": _resolved(args),
        "flat_level": res.flat_level,
        "empirical_kink": res.empirical_kink,
        "crossing_root": res.crossing_root,
    })
    print(f"kink={_fmt(res.empirical_kink)} crossing_root={_fmt(res.crossing_root)}")
    return EXIT_OK


def _cmd_ldp_path(args) -> int:
    params = _params(args)
    waypoints = []
    for item in args.waypoints.split(";"):
        t_str, _, rest = item.partition(":")
        center, _, radius = rest.rpartition(":")
        waypoints.append((float(t_str), Ball(_parse_point(center), float(radius))))
    est = sliced_ldp(params, _parse_point(args.x), waypoints,
                     _parse_floats(args.epsilons), args.n_paths, args.seed)
    csv_path, json_path = _outputs(args, "ldp-path")
    rows = [[eps, p, s] for eps, p, s in zip(est.epsilons, est.probs, est.log_probs)]
    rows.append(["summary", est.extrapolated_rate, est.reference_rate])
    _write_csv(csv_path, ["epsilon", "prob", "eps_log_prob"], rows)
    _write_json(json_path, {
        "config": _resolved(args),
        "extrapolated_rate": est.extrapolated_rate,
        "reference_rate": est.reference_rate,
        "dropped_epsilons": list(est.dropped_epsilons),
    })
    print(f"extrapolated={_fmt(est.extrapolated_rate)} reference={_fmt(est.reference_rate)}")
    return EXIT_OK


def _plan_rows(plan):
    rows = []
    for i in range(plan.matrix.shape[0]):
        for j in range(plan.matrix.shape[1]):
            if plan.matrix[i, j] > 0:
                rows.append([i, j, plan.matrix[i, j]])
    return rows


def _cmd_ot(args) -> int:
    params = _params(args)
    plan = kantorovich(params, _read_measure(args.mu0), _read_measure(args.mu1))
    csv_path, json_path = _outputs(args, "ot")
    _write_csv(csv_path, ["i", "j", "mass"], _plan_rows(plan))
    _write_json(json_path, {"config": _resolved(args), "value": plan.cost_value,
                            "marginal_defect": plan.marginal_defect()})
    print(_fmt(plan.cost_value))
    return EXIT_OK


def _cmd_sinkhorn(args) -> int:
    params = _params(args)
    plan = schrodinger(params, QuadratureSpec(), args.epsilon,
                       _read_measure(args.mu0), _read_measure(args.mu1),
                       max_iter=args.max_iter, tol=args.tol)
    csv_path, json_path = _outputs(args, "sinkhorn")
    _write_csv(csv_path, ["i", "j", "mass"], _plan_rows(plan))
    _write_json(json_path, {
        "config": _resolved(args),
        "value": plan.cost_value,
        "log_normalization": plan.log_normalization,
        "iterations": plan.iterations,
        "marginal_error": plan.marginal_error,
    })
    print(f"value={_fmt(plan.cost_value)} iterations={plan.iterations}")
    return EXIT_OK


def _cmd_gamma_limit(args) -> int:
    params = _params(args)
    res = gamma_limit_experiment(params, QuadratureSpec(), _read_measure(args.mu0),
                                 _read_measure(args.mu1), _parse_floats(args.epsilons),
                                 tol=args.tol)
    csv_path, json_path = _outputs(args, "gamma-limit")
    rows = [[r.epsilon, r.entropic_value, r.log_normalization, r.gap, r.iterations]
            for r in res.rows]
    _write_csv(csv_path, ["epsilon", "entropic_value", "log_normalization", "gap", "iterations"], rows)
    _write_json(json_path, {
        "config": _resolved(args),
        "kantorovich_value": res.kantorovich_value,
        "gap_slope": res.gap_slope,
        "gaps_shrink": res.gaps_shrink,
        "failed_epsilons": list(res.failed_epsilons),
    })
    print(f"kantorovich={_fmt(res.kantorovich_value)} gaps_shrink={res.gaps_shrink}")
    return EXIT_OK


def _cmd_interpolate(args) -> int:
    params = _params(args)
    plan = kantorovich(params, _read_measure(args.mu0), _read_measure(args.mu1))
    mid = displacement_interpolation(params, plan, args.t)
    csv_path, json_path = _outputs(args, "interpolate")
    rows = [[p.x1, *p.xp, w] for p, w in zip(mid.atoms, mid.weights)]
    header = ["x1"] + [f"xp{i}" for i in range(1, params.d)] + ["weight"]
    _write_csv(csv_path, header, rows)
    _write_json(json_path, {"config": _resolved(args), "atoms": len(mid.atoms),
                            "plan_value": plan.cost_value})
    print(f"atoms={len(mid.atoms)}")
    return EXIT_OK


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
