"""Command-line surface: experiments in, CSV data and JSON summaries out.

Every subcommand validates its numeric inputs before any computation starts
and ends in the one writer, ``_emit``: it writes ``<output>/<subcommand>.csv``
plus ``<output>/<subcommand>.json`` (the JSON echoes the fully resolved
configuration so runs are round-trippable) and prints a one-line result.
``--seed`` fully determines stochastic outputs.  The CSV and the printed line
write floats at 17 significant digits, so determinism checks are
bit-meaningful; the JSON summary writes them as ``json`` does, in the shortest
repr that reads back exactly (``0.45125`` where the CSV has
``0.45124999999999998``), and a non-finite float as ``null``, so that strict
JSON parsers read it (the CSV and the printed line keep ``nan``).

Every subcommand's options live in one table, ``_commands()``, which both
``build_parser`` and ``main``'s argv reader read.  ``main`` reads a
well-formed argv (exact flags, each with its value) straight from the
table, into the namespace argparse would make; ``--help`` and anything
that may be a usage error go to the full argparse parser, so every help
text and usage error reads as argparse writes it.

Exit codes: 0 success, 2 usage or validation, 3 numerical failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import numbers
import os
import sys

import numpy as np

from .geometry import HalfSpacePoint, ModelParams, cost, geodesic
from .kernel import _box, log_densities
from .ldp import Ball, BoundaryPatch, phase_transition_scan, sliced_ldp, static_ldp
from .quadrature import QuadratureSpec
from .simulate import SimConfig, simulate_batch
from .transport import (DiscreteMeasure, displacement_interpolation, gamma_limit_experiment,
                        kantorovich, schrodinger)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_CHUNK_ROWS = 8192      # CSV rows formatted and written at a time


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _quote(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one field of a row of several."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


class _RowFormats(dict):
    """The writer of a row, a tuple, by its shape (the types of its cells),
    built on the first row of that shape: one ``%``-format with ``%.17g`` for
    a float cell and ``%s`` for any other, so that a row is written as
    ``csv.writer`` writes it after ``_fmt`` on each cell.  A cell that is not
    a number is quoted as ``csv.writer`` quotes it."""

    def __missing__(self, shape):
        fmt = ",".join("%.17g" if issubclass(t, float) else "%s" for t in shape) + "\r\n"
        text = [k for k, t in enumerate(shape) if not issubclass(t, numbers.Number)]
        if not text:
            write = fmt.__mod__
        else:
            def write(row):
                cells = list(row)
                for k in text:
                    cells[k] = _quote(str(cells[k]))
                return fmt % tuple(cells)
        self[shape] = write
        return write


def _parse_point(text: str) -> HalfSpacePoint:
    parts = [p for p in text.split(",") if p != ""]
    if len(parts) < 2:
        raise ValueError(f"point needs at least two coordinates, got {text!r}")
    vals = [float(p) for p in parts]
    return HalfSpacePoint(vals[0], tuple(vals[1:]))


def _parse_floats(text: str):
    return tuple(float(p) for p in text.split(",") if p != "")


def _parse_target(text: str):
    kind, *fields = text.split(":")
    if kind not in ("ball", "patch"):
        raise ValueError(f"unknown target kind {kind!r}; use ball:<point>:<r> or patch:<x'>:<r>")
    if len(fields) != 2:
        raise ValueError(f"target {text!r} is not kind:centre:radius; "
                         f"use ball:<point>:<r> or patch:<x'>:<r>")
    center, radius = fields
    if kind == "ball":
        return Ball(_parse_point(center), float(radius))
    return BoundaryPatch(_parse_floats(center), float(radius))


def _parse_waypoint(text: str):
    """``(t, Ball)`` from one ``--waypoints`` item, exactly ``t:<point>:<r>``."""
    form = f"bad waypoint {text!r} (use t:<point>:<r>)"
    fields = text.split(":")
    if len(fields) != 3:
        raise ValueError(form)
    try:
        return float(fields[0]), Ball(_parse_point(fields[1]), float(fields[2]))
    except ValueError as exc:
        raise ValueError(f"{form}: {exc}") from None


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
                atoms.append(HalfSpacePoint(vals[0], tuple(vals[1:-1])))
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
            weights.append(vals[-1])
    if not atoms:
        raise ValueError(f"{path}, line {reader.line_num + 1}: expected a header, then "
                         f"rows of x1, xp..., weight")
    try:
        return DiscreteMeasure(tuple(atoms), tuple(weights))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _coord_names(d: int, prefix: str = ""):
    return [f"{prefix}x1"] + [f"{prefix}xp{i}" for i in range(1, d)]


def _params(args) -> ModelParams:
    return ModelParams(args.a, args.theta, args.d)


def _measures(args):
    return _read_measure(args.mu0), _read_measure(args.mu1)


def _finite_or_null(v):
    """``v`` with each non-finite float in it, at any depth of dicts, lists
    and tuples, replaced by ``None``."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _finite_or_null(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite_or_null(x) for x in v]
    return v


def _emit(args, header, table, summary: dict, line: str) -> int:
    """Write ``<command>.csv`` (``header``, then each row of ``table``, an
    iterable of tuples such as ``zip(*columns)``, one ``%``-format per row
    shape; see ``_RowFormats``; ``_CHUNK_ROWS`` rows are formatted at a time)
    and ``<command>.json`` (``summary`` plus the resolved ``config``,
    non-finite floats as ``null``), print ``line``."""
    os.makedirs(args.output, exist_ok=True)
    stem = os.path.join(args.output, args.command)
    formats = _RowFormats()
    rows = itertools.chain([tuple(header)], table)
    with open(stem + ".csv", "w", newline="") as fh:
        while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
            fh.write("".join([formats[tuple(map(type, row))](row) for row in chunk]))
    config = {k: v for k, v in vars(args).items() if k != "func"}
    with open(stem + ".json", "w") as fh:
        json.dump(_finite_or_null({"config": config, **summary}), fh, sort_keys=True, indent=2)
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
                 [(params.a, params.theta, args.x, args.y, value)], {"cost": value}, _fmt(value))


def _cmd_geodesic(args) -> int:
    params = _params(args)
    g = geodesic(params, _parse_point(args.x), _parse_point(args.y))
    times, knots = g.path.times, g.path.knots
    rows = [(k, times[k + 1] - times[k], *knots[k].coords().tolist(),
             *knots[k + 1].coords().tolist()) for k in range(len(knots) - 1)]
    header = ["segment", "duration", *_coord_names(params.d, "start_"),
              *_coord_names(params.d, "end_")]
    return _emit(args, header, rows, {"case": g.case_tag, "total_cost": g.total_cost},
                 f"{g.case_tag} {_fmt(g.total_cost)}")


_KERNEL_EXTENT = 4.0    # the kernel grid's half-width, in standard deviations


def _cmd_kernel(args) -> int:
    params = _params(args)
    x = _parse_point(args.x)
    t = args.t
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be a positive finite number, got {t!r}")
    if params.d != 2 or x.dim != 2:
        raise ValueError("the kernel grid needs d = 2 and a two-coordinate --x")
    n = args.grid
    if n < 2:
        raise ValueError(f"grid needs at least 2 points per axis, got {n}")
    y1_max, w = _box(params, t, x.x1, _KERNEL_EXTENT)
    y1s = np.linspace(0.0, y1_max, n)
    yps = np.linspace(x.xp[0] - w, x.xp[0] + w, n)
    # The n x n grid row by row, then the boundary row, which repeats the
    # first (y1s[0] = 0); log_densities integrates each repeated pair once.
    y1 = np.concatenate((np.repeat(y1s, n), np.zeros(n)))
    yp = np.concatenate((np.tile(yps, n), yps))
    interior = np.exp(log_densities(params, QuadratureSpec(), t, x.x1, y1, np.abs(yp - x.xp[0])))
    # mu's boundary weight: the density w.r.t. dy' on y1 = 0 is q / (2 theta)
    boundary = np.where(y1 == 0.0, interior / (2.0 * params.theta), 0.0)
    columns = [[t] * len(y1), [x.x1] * len(y1), [x.xp[0]] * len(y1),
               *(c.tolist() for c in (y1, yp, interior, boundary))]
    # trapezoid mass over the emitted grid, for the summary
    mass = float(np.trapezoid(np.trapezoid(interior[: n * n].reshape(n, n), yps, axis=1), y1s)
                 + np.trapezoid(boundary[n * n:], yps))
    return _emit(args, ["t", "x1", "xp1", "y1", "yp1", "interior_density", "boundary_density"],
                 zip(*columns), {"trapezoid_mass": mass},
                 f"rows={len(y1)} trapezoid_mass={_fmt(mass)}")


def _cmd_simulate(args) -> int:
    params = _params(args)
    cfg = SimConfig(params, _parse_point(args.x), args.step, args.n_steps, args.seed)
    batch = simulate_batch(cfg, args.n_paths)
    n_times = len(batch.times)
    per = max(1, _CHUNK_ROWS // n_times)

    def rows():
        # Rows of ``per`` paths at a time, from slices of the batch's arrays.
        for first in range(0, args.n_paths, per):
            paths, m = slice(first, first + per), min(per, args.n_paths - first)
            occ = batch.occupation_time[paths]
            columns = [np.repeat(np.arange(first, first + m), n_times),
                       np.tile(np.arange(n_times), m), np.tile(batch.times, m),
                       batch.x1[paths], *(batch.xp[paths, :, k] for k in range(params.d - 1)),
                       batch.theta * occ, occ]
            yield from zip(*(c.ravel().tolist() for c in columns))

    frac = float(np.mean(batch.x1 == 0.0))
    return _emit(args, ["path", "step", "t", *_coord_names(params.d), "L", "O"], rows(),
                 {"boundary_fraction": frac},
                 f"paths={args.n_paths} steps={args.n_steps} boundary_fraction={_fmt(frac)}")


def _emit_estimate(args, est) -> int:
    """Write the ``LdpEstimate`` of ``ldp-static`` or ``ldp-path`` (a row per
    kept epsilon, then a summary row) and print its two rates."""
    # log p from eps log p: p itself may underflow to 0 where its logarithm is finite.
    rows = [(eps, p, s / eps, s) for eps, p, s in zip(est.epsilons, est.probs, est.log_probs)]
    rows.append(("summary", est.extrapolated_rate, est.reference_rate, est.beta))
    return _emit(args, ["epsilon", "prob", "log_prob", "eps_log_prob"], rows, {
        "epsilons": list(est.epsilons),
        "eps_log_probs": list(est.log_probs),
        "extrapolated_rate": est.extrapolated_rate,
        "reference_rate": est.reference_rate,
        "beta": est.beta,
        "gamma": est.gamma,
        "dropped_epsilons": list(est.dropped_epsilons),
    }, f"extrapolated={_fmt(est.extrapolated_rate)} reference={_fmt(est.reference_rate)}")


def _cmd_ldp_static(args) -> int:
    params, x, target = _params(args), _parse_point(args.x), _parse_target(args.target)
    epsilons = _parse_floats(args.epsilons)
    if args.method == "monte_carlo":
        return _emit_estimate(args, sliced_ldp(params, x, [(1.0, target)], epsilons,
                                               args.n_paths, args.seed))
    return _emit_estimate(args, static_ldp(params, x, target, epsilons))


def _cmd_ldp_scan(args) -> int:
    x, y = _parse_point(args.x), _parse_point(args.y)
    res = phase_transition_scan(_parse_floats(args.a_grid), args.theta, x, y,
                                _parse_floats(args.epsilons))
    rows = [(r.a, r.extrapolated_rate, r.reference_rate) for r in res.rows]
    return _emit(args, ["a", "extrapolated_rate", "reference_rate"], rows, {
        "flat_level": res.flat_level,
        "empirical_kink": res.empirical_kink,
        "crossing_root": res.crossing_root,
    }, f"kink={_fmt(res.empirical_kink)} crossing_root={_fmt(res.crossing_root)}")


def _cmd_ldp_path(args) -> int:
    params = _params(args)
    waypoints = [_parse_waypoint(item) for item in args.waypoints.split(";")]
    return _emit_estimate(args, sliced_ldp(params, _parse_point(args.x), waypoints,
                                           _parse_floats(args.epsilons), args.n_paths,
                                           args.seed))


def _plan_rows(plan):
    m = plan.matrix
    return [(i, j, m[i, j]) for i, j in zip(*np.nonzero(m > 0))]


def _cmd_ot(args) -> int:
    params = _params(args)
    plan = kantorovich(params, *_measures(args))
    return _emit(args, ["i", "j", "mass"], _plan_rows(plan),
                 {"value": plan.cost_value, "marginal_defect": plan.marginal_defect()},
                 _fmt(plan.cost_value))


def _cmd_sinkhorn(args) -> int:
    params = _params(args)
    plan = schrodinger(params, args.epsilon, *_measures(args))
    return _emit(args, ["i", "j", "mass"], _plan_rows(plan), {
        "value": plan.cost_value,
        "log_normalization": plan.log_normalization,
        "iterations": plan.iterations,
        "marginal_error": plan.marginal_defect(),
    }, f"value={_fmt(plan.cost_value)} iterations={plan.iterations}")


def _cmd_gamma_limit(args) -> int:
    params = _params(args)
    res = gamma_limit_experiment(params, *_measures(args), _parse_floats(args.epsilons))
    rows = [(r.epsilon, r.entropic_value, r.log_normalization, r.gap, r.iterations)
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
    rows = [(p.x1, *p.xp, w) for p, w in zip(mid.atoms, mid.weights)]
    return _emit(args, [*_coord_names(params.d), "weight"], rows,
                 {"atoms": len(mid.atoms), "plan_value": plan.cost_value},
                 f"atoms={len(mid.atoms)}")


# ---------------------------------------------------------------------------
# Parser / dispatch
# ---------------------------------------------------------------------------

# Options that several subcommands share, each as ``(flags, add_argument
# keywords)`` with its long flag first.
_OUTPUT = (("--output", "-o"), {"default": ".", "help": "output directory"})
_SEED = (("--seed",), {"type": int, "default": 0, "help": "seed for stochastic outputs"})
_MODEL = ((("--a",), {"type": float, "required": True, "help": "tangential diffusivity"}),
          (("--theta",), {"type": float, "required": True, "help": "stickiness"}),
          (("--d",), {"type": int, "default": 2, "help": "ambient dimension"}))
_X = (("--x",), {"required": True})
_Y = (("--y",), {"required": True})
_MEASURES = ((("--mu0",), {"required": True}), (("--mu1",), {"required": True}))
_EPSILONS = (("--epsilons",), {"required": True})


def _commands():
    """The option table: each subcommand's help, its handler and its options
    in the order its help lists them.  Built on each call, so that it holds
    the handlers bound when a parser or the reader runs."""
    return {
        "cost": ("two-point intrinsic cost", _cmd_cost, (
            _OUTPUT, *_MODEL,
            (("--x",), {"required": True,
                        "help": "point as comma-separated coords, first is normal"}),
            _Y)),
        "geodesic": ("explicit geodesic between two points", _cmd_geodesic, (
            _OUTPUT, *_MODEL, _X, _Y)),
        "kernel": ("transition kernel on a grid", _cmd_kernel, (
            _OUTPUT, *_MODEL,
            (("--t",), {"type": float, "required": True}),
            _X,
            (("--grid",), {"type": int, "default": 64}))),
        "simulate": ("exact path sampling", _cmd_simulate, (
            _OUTPUT, _SEED, *_MODEL, _X,
            (("--step",), {"type": float, "required": True}),
            (("--n-steps",), {"type": int, "required": True}),
            (("--n-paths",), {"type": int, "default": 1}))),
        "ldp-static": ("static rate extraction for a target set", _cmd_ldp_static, (
            _OUTPUT, _SEED, *_MODEL, _X,
            (("--target",), {"required": True, "help": "ball:<point>:<r> or patch:<x'>:<r>"}),
            _EPSILONS,
            (("--method",), {"choices": ("quadrature", "monte_carlo"), "default": "quadrature"}),
            (("--n-paths",), {"type": int, "default": 100000}))),
        "ldp-scan": ("rate versus diffusivity scan", _cmd_ldp_scan, (
            _OUTPUT,
            (("--theta",), {"type": float, "default": 1.0}),
            (("--a-grid",), {"required": True, "help": "comma-separated a values"}),
            _X, _Y, _EPSILONS)),
        "ldp-path": ("path-slicing rate via Monte Carlo", _cmd_ldp_path, (
            _OUTPUT, _SEED, *_MODEL, _X,
            (("--waypoints",), {"required": True,
                                "help": "semicolon-separated t:<point>:<radius> entries"}),
            _EPSILONS,
            (("--n-paths",), {"type": int, "default": 100000}))),
        "ot": ("exact optimal transport between two measures", _cmd_ot, (
            _OUTPUT, *_MODEL,
            (("--mu0",), {"required": True, "help": "CSV of x1, xp..., weight"}),
            (("--mu1",), {"required": True}))),
        "sinkhorn": ("entropic plan against the sticky kernel", _cmd_sinkhorn, (
            _OUTPUT, *_MODEL, *_MEASURES,
            (("--epsilon",), {"type": float, "required": True}))),
        "gamma-limit": ("entropic-to-exact gap across epsilons", _cmd_gamma_limit, (
            _OUTPUT, *_MODEL, *_MEASURES, _EPSILONS)),
        "interpolate": ("displacement interpolation of the exact plan", _cmd_interpolate, (
            _OUTPUT, *_MODEL, *_MEASURES,
            (("--t",), {"type": float, "required": True}))),
    }


def _dest(flags) -> str:
    """The attribute argparse stores an option under, named by its long flag."""
    return flags[0][2:].replace("-", "_")


def build_parser() -> argparse.ArgumentParser:
    """The ``stickybm`` parser, with every subcommand of ``_commands()``."""
    parser = argparse.ArgumentParser(
        prog="stickybm",
        description="Sticky-reflecting Brownian motion: kernel, geodesics, "
                    "simulation, large-deviation and transport experiments.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (text, handler, options) in _commands().items():
        sub = subs.add_parser(name, help=text)
        for flags, kwargs in options:
            sub.add_argument(*flags, **kwargs)
        sub.set_defaults(func=handler)
    return parser


def _read_argv(argv):
    """The namespace ``build_parser().parse_args(argv)`` returns, read from
    the option table without argparse, or None where ``argv`` is not plainly
    well formed and argparse must decide.

    ``argv[0]`` must name a subcommand, and each later token be one of its
    flags, exactly, followed by its value or joined to it as ``--flag=value``.
    A value must not start with ``-`` and must convert by the option's
    ``type`` into its ``choices``; the last of a repeated flag wins.  Help,
    abbreviations, ``--``, a missing value or required option and anything
    that fails to convert are left to argparse, which prints what they
    need."""
    commands = _commands()
    if not argv or argv[0] not in commands:
        return None
    _, handler, options = commands[argv[0]]
    by_flag = {flag: option for option in options for flag in option[0]}
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=") if token.startswith("--") else (token, "", "")
        if not eq:
            value = next(tokens, None)
        if flag not in by_flag or value is None or value.startswith("-"):
            return None
        flags, kwargs = by_flag[flag]
        try:
            value = kwargs.get("type", str)(value)
        except (TypeError, ValueError):
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[_dest(flags)] = value
    args = argparse.Namespace(command=argv[0])
    for flags, kwargs in options:
        dest = _dest(flags)
        if dest not in given and kwargs.get("required"):
            return None
        setattr(args, dest, given.get(dest, kwargs.get("default")))
    args.func = handler
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A well-formed argv is read from the option table; argparse, which
    # takes longer to build and run than many subcommands, parses the rest.
    args = _read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, TypeError) as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:    # QuadratureError and TransportConvergenceError too
        print(f"error: numerical: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
