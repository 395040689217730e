import argparse
import csv
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stickybm.cli
import stickybm.kernel
import stickybm.ldp
import stickybm.simulate
import stickybm.transport
from stickybm.cli import _fmt, build_parser, main
from stickybm.quadrature import QuadratureError

from oracles import readme_cli_lines, reference_csv

ROOT = Path(__file__).resolve().parents[1]


def run(tmp_path, *argv):
    return main([*argv, "-o", str(tmp_path)])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def forbid(monkeypatch, module, name):
    """Replace a sampling or quadrature function with one that fails if it is
    ever called."""
    def not_yet(*args, **kwargs):
        raise AssertionError(f"{name} was called before the input was validated")

    monkeypatch.setattr(module, name, not_yet)


def fresh_python(code: str) -> str:
    """What ``code`` prints in a new interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(stickybm.cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=60).stdout.strip()


def readme_argv(line):
    """A README line's argv, its ``measures/`` files resolved against the repository."""
    return [str(ROOT / arg) if arg.startswith("measures/") else arg
            for arg in shlex.split(line, comments=True)[1:]]


class TestDispatch:
    def test_import_leaves_scipy_solvers_unloaded(self):
        # Cold start: scipy.optimize and scipy.special are imported only by
        # the functions that call them, so `stickybm cost` never pays for them;
        # nothing at import time pulls in numpy.ma (np.unique does).  The CLI
        # does not import pathopt, so it is imported here to cover it too.
        assert fresh_python(
            "import sys, stickybm.cli, stickybm.pathopt; "
            "print(sorted({'scipy.optimize', 'scipy.special', 'numpy.ma'} & set(sys.modules)))"
        ) == "[]"

    def test_static_commands_leave_scipy_optimize_unloaded(self, tmp_path):
        # One-waypoint reference rates are closed form, so quadrature
        # `ldp-static` and `ldp-scan` never import the SLSQP solver.
        argvs = [[*argv, "-o", str(tmp_path)] for argv in SMALL_RUNS
                 if argv[0] in ("ldp-static", "ldp-scan")]
        assert len(argvs) == 2
        assert fresh_python(
            "import sys; from stickybm.cli import main; "
            f"print([main(argv) for argv in {argvs!r}], 'scipy.optimize' in sys.modules)"
        ).splitlines()[-1] == "[0, 0] False"

    def test_readme_ldp_path_leaves_scipy_optimize_unloaded(self, tmp_path):
        # The closed-form bounds settle README's waypoints, so `ldp-path`
        # runs no SLSQP program and never imports the solver.
        line = next(line for line in readme_cli_lines() if line.startswith("stickybm ldp-path"))
        argv = shlex.split(line, comments=True)[1:]
        argv[argv.index("-o") + 1] = str(tmp_path)
        assert fresh_python(
            "import sys; from stickybm.cli import main; "
            f"print(main({argv!r}), 'scipy.optimize' in sys.modules)"
        ).splitlines()[-1] == "0 False"

    def test_total_mass_leaves_numpy_ma_unloaded(self):
        # The fixed rule's panel edges are built sorted, not by np.unique,
        # which imports numpy.ma.
        assert fresh_python(
            "import sys, stickybm; from stickybm.geometry import HalfSpacePoint, ModelParams; "
            "from stickybm.kernel import kernel_total_mass; "
            "kernel_total_mass(ModelParams(4.0, 1.0), 0.5, HalfSpacePoint(0.3, (0.0,))); "
            "print('numpy.ma' in sys.modules)"
        ) == "False"

    def test_cost_prints_value(self, tmp_path, capsys):
        code = run(tmp_path, "cost", "--a", "4", "--theta", "1", "--x", "0,0", "--y", "0,2")
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.5"
        rows = read_csv(tmp_path / "cost.csv")
        assert rows[0] == ["a", "theta", "x", "y", "cost"]
        summary = json.loads((tmp_path / "cost.json").read_text())
        assert float(summary["cost"]) == 0.5
        assert float(summary["config"]["a"]) == 4.0

    def test_unknown_subcommand_exits_2(self, tmp_path, capsys):
        assert main(["bogus"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv, message", [
        (["cost", "--a", "4", "--theta", "1", "--x", "0", "--y", "0,2"],
         "point needs at least two coordinates, got '0'"),
        (["ldp-static", "--a", "4", "--theta", "1", "--x", "0,0", "--target", "ball:1:0.5",
          "--epsilons", "0.2,0.1,0.05"], "point needs at least two coordinates, got '1'"),
    ], ids=["cost-x", "ball-centre"])
    def test_point_with_one_coordinate_exits_2(self, tmp_path, capsys, argv, message):
        assert run(tmp_path, *argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: usage: {message}\n"

    def test_validation_failure_exits_2(self, tmp_path, capsys):
        code = run(tmp_path, "cost", "--a", "-1", "--theta", "1", "--x", "0,0", "--y", "0,2")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and "\n" not in err.strip()

    @pytest.mark.parametrize("argv", [
        ["cost", "--a", "4", "--theta", "1", "--x", "0,0", "--y", "0,2", "--seed", "1"],
        ["simulate", "--a", "2", "--theta", "1", "--x", "0.3,0", "--step", "0.1",
         "--n-steps", "2", "--quad-tol", "1e-8"],
    ])
    def test_option_that_selects_nothing_exits_2(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["cost", "--a", "4", "--theta", "1", "--x", "0,nan", "--y", "0,2"],
        ["cost", "--a", "inf", "--theta", "1", "--x", "0,0", "--y", "0,2"],
        ["cost", "--a", "4", "--theta", "1", "--x", "inf,0", "--y", "0,2"],
        ["geodesic", "--a", "2", "--theta", "inf", "--x", "1,0", "--y", "1,inf"],
        ["kernel", "--a", "1", "--theta", "inf", "--t", "1", "--x", "0,0", "--grid", "2"],
        ["kernel", "--a", "1", "--theta", "1", "--t", "1", "--x", "0,inf", "--grid", "2"],
        ["ldp-static", "--a", "4", "--theta", "1", "--x", "0,0", "--target", "patch:inf:0.1",
         "--epsilons", "0.2,0.1,0.05"],
        ["ldp-static", "--a", "4", "--theta", "1", "--x", "0,0", "--target", "patch:2:inf",
         "--epsilons", "0.2,0.1,0.05"],
        ["ldp-static", "--a", "4", "--theta", "1", "--x", "0,0", "--target", "ball:0,2:inf",
         "--epsilons", "0.2,0.1,0.05"],
        ["simulate", "--a", "2", "--theta", "1", "--x", "0.3,0", "--step", "inf",
         "--n-steps", "2"],
        ["sinkhorn", "--a", "2", "--theta", "1", "--mu0", "{nan_measure}", "--mu1",
         "{measure}", "--epsilon", "0.5"],
    ], ids=["cost-xp-nan", "cost-a-inf", "cost-x1-inf", "geodesic-theta-inf", "kernel-theta-inf",
            "kernel-xp-inf", "patch-center-inf", "patch-radius-inf", "ball-radius-inf",
            "simulate-step-inf", "sinkhorn-weight-nan"])
    def test_non_finite_value_exits_2_before_any_quadrature_or_step(self, tmp_path, capsys,
                                                                    monkeypatch, argv):
        forbid(monkeypatch, stickybm.kernel, "log_integrate")
        forbid(monkeypatch, stickybm.simulate, "step_batch")
        (tmp_path / "nan.csv").write_text("x1,xp1,weight\n0,0,nan\n0,1,1\n")
        (tmp_path / "mu.csv").write_text("x1,xp1,weight\n0,0,1\n")
        argv = [arg.format(nan_measure=tmp_path / "nan.csv", measure=tmp_path / "mu.csv")
                for arg in argv]
        assert run(tmp_path / "out", *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and "finite" in err
        assert not (tmp_path / "out" / f"{argv[0]}.csv").exists()

    def test_io_failure_exits_4(self, capsys):
        code = main(["ot", "--a", "2", "--theta", "1",
                     "--mu0", "/nonexistent/mu0.csv", "--mu1", "/nonexistent/mu1.csv",
                     "-o", "/tmp"])
        assert code == 4
        capsys.readouterr()

    def test_readme_examples_parse(self):
        # Every `stickybm ...` line of README's CLI block names only flags
        # the parser accepts; nothing runs.
        commands = [shlex.split(line, comments=True) for line in readme_cli_lines()]
        assert len(commands) >= 11
        for argv in commands:
            args = build_parser().parse_args(argv[1:])
            assert args.command == argv[1]

    def test_readme_measure_examples_run_on_the_committed_measures(self, tmp_path, capsys,
                                                                   monkeypatch):
        # The measure lines name files under measures/; each runs as written
        # from another directory once those are resolved against the repo.
        lines = [line for line in readme_cli_lines() if "--mu0" in line]
        assert [shlex.split(line)[1] for line in lines] == ["ot", "sinkhorn", "gamma-limit",
                                                            "interpolate"]
        monkeypatch.chdir(tmp_path)
        for line in lines:
            assert main(readme_argv(line)) == 0, line
        capsys.readouterr()

    def test_readme_annotated_examples_print_their_annotation(self, tmp_path, capsys):
        # A README example with a trailing comment prints that comment
        # (after an optional "prints ") as its one line.
        annotated = [line for line in readme_cli_lines() if "#" in line]
        assert len(annotated) == 2
        for line in annotated:
            argv = shlex.split(line, comments=True)[1:]
            note = line.split("#", 1)[1].strip().removeprefix("prints ")
            assert run(tmp_path, *argv) == 0
            assert capsys.readouterr().out == note + "\n"

    def test_geodesic(self, tmp_path, capsys):
        code = run(tmp_path, "geodesic", "--a", "2", "--theta", "1", "--x", "1,0", "--y", "1,5")
        assert code == 0
        out = capsys.readouterr().out
        assert "three_segment" in out and "12.25" in out
        rows = read_csv(tmp_path / "geodesic.csv")
        assert len(rows) == 4  # header + three segments

    @pytest.mark.parametrize("argv", [
        ["--a", "2", "--x", "1,0", "--y", "1,5"],
        ["--a", "2", "--x", "0,0,0", "--y", "0.4,5,1", "--d", "3"],
        ["--a", "4", "--x", "1,0", "--y", "1e-300,50"],
    ], ids=["three-segment", "one-touch-d3", "ulp-leg"])
    def test_geodesic_durations_sum_to_one_and_knots_chain(self, tmp_path, capsys, argv):
        assert run(tmp_path, "geodesic", "--theta", "1", *argv) == 0
        capsys.readouterr()
        header, *rows = read_csv(tmp_path / "geodesic.csv")
        d = (len(header) - 2) // 2
        starts = [[float(v) for v in row[2:2 + d]] for row in rows]
        ends = [[float(v) for v in row[2 + d:]] for row in rows]
        assert [int(row[0]) for row in rows] == list(range(len(rows)))
        assert all(float(row[1]) > 0.0 for row in rows)
        assert sum(float(row[1]) for row in rows) == pytest.approx(1.0, abs=1e-15)
        assert ends[:-1] == starts[1:]
        x, y = (argv[argv.index(k) + 1] for k in ("--x", "--y"))
        assert starts[0] == [float(v) for v in x.split(",")]
        assert ends[-1] == [float(v) for v in y.split(",")]


# What each README example prints, token by token, run in a fresh directory
# on the committed measures.  Counts, strings and closed forms must match
# exactly (EXACT); numbers made by the kernel or the sampler within 1e-12
# (KERNEL), since the last bits of numpy's vectorised exp and log can differ
# between CPUs; HiGHS optima within 1e-9 relative (HIGHS).
EXACT, KERNEL, HIGHS = "exact", "kernel", "highs"
README_PRINTS = {
    "cost": [("0.5", EXACT)],
    "geodesic": [("three_segment", EXACT), ("12.25", EXACT)],
    "kernel": [("rows=4160", EXACT), ("trapezoid_mass=0.9999995357299426", KERNEL)],
    "simulate": [("paths=100", EXACT), ("steps=200", EXACT),
                 ("boundary_fraction=0.11472636815920398", KERNEL)],
    "ldp-static": [("extrapolated=0.47774401256705401", KERNEL),
                   ("reference=0.45124999999999998", EXACT)],
    "ldp-scan": [("kink=1.8471663850773017", KERNEL),
                 ("crossing_root=1.9070294784580504", EXACT)],
    "ldp-path": [("extrapolated=0.17876626672822163", KERNEL),
                 ("reference=0.18000000000000005", EXACT)],
    "ot": [("1.1901250000000001", HIGHS)],
    "sinkhorn": [("value=0.72834137327477466", KERNEL), ("iterations=23", EXACT)],
    "gamma-limit": [("kantorovich=0.8157291049839539", HIGHS), ("gaps_shrink=True", EXACT)],
    "interpolate": [("atoms=5", EXACT)],
}
# The benchmark's kernel grid at t = 0.01, which README does not show.
EXTRA_PRINTS = [("stickybm kernel --a 1 --theta 1 --x 0,0 --t 0.01 --grid 16 -o out",
                 [("rows=272", EXACT), ("trapezoid_mass=1.0006528939479438", KERNEL)])]
# README's interpolate.csv: coordinates exactly, weights (shares of the HiGHS
# plan) within 1e-12.
README_INTERPOLANT = [("0", "1", 0.2), ("0.17524047358083553", "1.1392949192431121", 0.1),
                      ("0", "0.31698729810778081", 0.2), ("0.90000000000000002", "1", 0.25),
                      ("0", "2.2598076211353315", 0.25)]


def same_token(token: str, expected: str, rule: str) -> bool:
    key, _, value = token.rpartition("=")
    key_e, _, value_e = expected.rpartition("=")
    if rule == EXACT or key != key_e:
        return token == expected
    tolerance = 1e-12 if rule == KERNEL else 1e-9 * abs(float(value_e))
    return abs(float(value) - float(value_e)) <= tolerance


README_RUNS = [(line, README_PRINTS[shlex.split(line)[1]]) for line in readme_cli_lines()]
RESULT_IDS = [shlex.split(line)[1] for line, _ in README_RUNS] + ["kernel-t0.01"]


class TestReadmeResults:
    """README's examples print the results README's readers see.  CI's
    install job runs this class against the installed package."""

    def test_every_example_is_pinned(self):
        assert sorted(shlex.split(line)[1] for line, _ in README_RUNS) == sorted(README_PRINTS)

    @pytest.mark.parametrize("line, expected", README_RUNS + EXTRA_PRINTS, ids=RESULT_IDS)
    def test_example_prints_its_result(self, tmp_path, capsys, monkeypatch, line, expected):
        monkeypatch.chdir(tmp_path)
        argv = readme_argv(line)
        assert main(argv) == 0, line
        tokens = capsys.readouterr().out.split()
        assert len(tokens) == len(expected), tokens
        for token, (want, rule) in zip(tokens, expected):
            assert same_token(token, want, rule), (token, want, rule)
        if argv[0] == "interpolate":
            rows = read_csv(tmp_path / "out" / "interpolate.csv")
            assert rows[0] == ["x1", "xp1", "weight"]
            assert [tuple(r[:2]) for r in rows[1:]] == [e[:2] for e in README_INTERPOLANT]
            assert all(abs(float(r[2]) - e[2]) <= 1e-12
                       for r, e in zip(rows[1:], README_INTERPOLANT)), rows

    def test_a_wrong_result_is_caught(self):
        assert same_token("kantorovich=0.8157291049839539", "kantorovich=0.81572910498", HIGHS)
        assert not same_token("kantorovich=0.8157291", "kantorovich=0.8157291049839539", HIGHS)
        assert not same_token("value=0.728341373276", "value=0.72834137327477466", KERNEL)
        assert not same_token("iterations=24", "iterations=23", EXACT)
        assert not same_token("mass=1.0", "value=1.0", KERNEL)


# One small run of each subcommand; {mu0} and {mu1} name two-atom measures.
SMALL_RUNS = [
    ["cost", "--a", "4", "--theta", "1", "--x", "0,0", "--y", "0,2"],
    ["geodesic", "--a", "2", "--theta", "1", "--x", "1,0", "--y", "1,5"],
    ["kernel", "--a", "1", "--theta", "1", "--t", "1", "--x", "0,0", "--grid", "3"],
    ["simulate", "--a", "2", "--theta", "1", "--x", "0.3,0", "--step", "0.1", "--n-steps", "2",
     "--n-paths", "2", "--seed", "1"],
    ["ldp-static", "--a", "4", "--theta", "1", "--x", "0,0", "--target", "patch:2:0.1",
     "--epsilons", "0.2,0.1,0.05"],
    ["ldp-scan", "--a-grid", "0.5,1.5", "--x", "0,0", "--y", "0,5", "--epsilons", "0.2,0.1,0.05"],
    ["ldp-path", "--a", "4", "--theta", "1", "--x", "0,0", "--waypoints",
     "0.5:0,1:0.8;1.0:0,2:0.8", "--epsilons", "0.2,0.1,0.05", "--n-paths", "2000", "--seed", "3"],
    ["ot", "--a", "2", "--theta", "1", "--mu0", "{mu0}", "--mu1", "{mu1}"],
    ["sinkhorn", "--a", "2", "--theta", "1", "--mu0", "{mu0}", "--mu1", "{mu1}",
     "--epsilon", "0.5"],
    ["gamma-limit", "--a", "2", "--theta", "1", "--mu0", "{mu0}", "--mu1", "{mu1}",
     "--epsilons", "0.04,0.02,0.01"],
    ["interpolate", "--a", "2", "--theta", "1", "--mu0", "{mu0}", "--mu1", "{mu1}",
     "--t", "0.5"],
]


def with_measures(tmp_path, argv):
    """``argv`` with ``{mu0}`` and ``{mu1}`` naming two-atom measure files in ``tmp_path``."""
    (tmp_path / "mu0.csv").write_text("x1,xp1,weight\n0,0,0.5\n0.5,2,0.5\n")
    (tmp_path / "mu1.csv").write_text("x1,xp1,weight\n0,1,0.5\n0.2,3,0.5\n")
    return [arg.format(mu0=tmp_path / "mu0.csv", mu1=tmp_path / "mu1.csv") for arg in argv]


# Every small run, `simulate` with two tangential coordinates, and the
# benchmark's `simulate` (40 paths x 50 steps).
WRITER_RUNS = [
    *SMALL_RUNS,
    ["simulate", "--a", "2", "--theta", "1", "--x", "0.3,0,0", "--d", "3", "--step", "0.1",
     "--n-steps", "3", "--n-paths", "2", "--seed", "2"],
    ["simulate", "--a", "2", "--theta", "1.5", "--x", "0.3,0", "--step", "0.05",
     "--n-steps", "50", "--n-paths", "40", "--seed", "1"],
]
WRITER_IDS = [argv[0] for argv in SMALL_RUNS] + ["simulate-d3", "simulate-40x50"]


class TestEmit:
    def test_small_runs_cover_every_subcommand(self):
        subs = build_parser()._subparsers._group_actions[0].choices
        assert sorted(argv[0] for argv in SMALL_RUNS) == sorted(subs)

    @pytest.mark.parametrize("argv", SMALL_RUNS, ids=[argv[0] for argv in SMALL_RUNS])
    def test_every_subcommand_writes_one_csv_one_json_one_line(self, tmp_path, capsys, argv):
        argv = with_measures(tmp_path, argv)
        out = tmp_path / "out"
        assert run(out, *argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0]
        command = argv[0]
        assert sorted(os.listdir(out)) == [f"{command}.csv", f"{command}.json"]
        config = json.loads((out / f"{command}.json").read_text())["config"]
        dests = set(vars(build_parser().parse_args([*argv, "-o", str(out)])))
        assert set(config) == dests - {"func"}
        assert config["command"] == command and config["output"] == str(out)
        rows = read_csv(out / f"{command}.csv")
        assert len(rows) >= 2 and all(rows[0])


class TestWriter:
    def test_numpy_floats_are_written_at_17_digits(self):
        # Library results are NumPy scalars; the writer must not print their shortest repr.
        assert _fmt(np.float64(0.1)) == "0.10000000000000001" == _fmt(0.1)
        assert _fmt(np.float64(0.0)) == "0" and _fmt(3) == "3" and _fmt("summary") == "summary"

    @pytest.mark.parametrize("argv", WRITER_RUNS, ids=WRITER_IDS)
    def test_csv_bytes_are_the_reference_writers(self, tmp_path, capsys, monkeypatch, argv):
        # The table each subcommand hands the writer, written one value at a
        # time through csv.writer, is the file the writer wrote.
        tables = []
        emit = stickybm.cli._emit

        def spy(args, header, table, summary, line):
            tables.append((header, list(table)))
            return emit(args, header, tables[-1][1], summary, line)

        monkeypatch.setattr(stickybm.cli, "_emit", spy)
        assert run(tmp_path / "out", *with_measures(tmp_path, argv)) == 0
        capsys.readouterr()
        [(header, table)] = tables
        if "--d" in argv:
            assert header[3:6] == ["x1", "xp1", "xp2"]
        written = (tmp_path / "out" / f"{argv[0]}.csv").read_bytes()
        assert written == reference_csv(header, table).encode()

    def test_hostile_cells_match_the_reference_writer(self, tmp_path, capsys):
        # Text that csv.writer quotes, numbers that are not floats, and floats
        # whose shortest repr differs from 17 digits, in rows that mix them;
        # rows of one shape recur, so a cached format is reused.
        inf, nan = float("inf"), float("nan")
        header = ["label", "x,y", 'say "value"']
        rows = [
            ("1,0", 0.1, np.int64(3)),
            ('a"b', -0.0, True),
            ("summary", nan, 1e308),
            (np.float64(0.1), inf, -inf),
            (5e-324, "a\nb", ""),
            ("1,0", 0.1, np.int64(3)),
            (True, False, np.float64(-0.0)),
            (np.float64(0.1), inf, -inf),
        ]
        args = argparse.Namespace(output=str(tmp_path), command="hostile")
        assert stickybm.cli._emit(args, header, rows, {}, "done") == 0
        assert capsys.readouterr().out == "done\n"
        written = (tmp_path / "hostile.csv").read_bytes()
        assert written == reference_csv(header, rows).encode()
        assert b'"1,0",0.10000000000000001,3\r\n' in written
        assert b"\r\nTrue,False,-0\r\n" in written

    def test_summary_writes_non_finite_floats_as_null(self, tmp_path, capsys):
        # Strict parsers reject NaN and Infinity; the CSV and the line keep nan.
        def strict(name):
            raise ValueError(f"non-standard JSON constant {name}")

        assert run(tmp_path, "ldp-scan", "--a-grid", "0.5,1", "--x", "1,0", "--y", "1,5",
                   "--epsilons", "0.2,0.1,0.05") == 0
        assert capsys.readouterr().out.startswith("kink=nan crossing_root=")
        summary = json.loads((tmp_path / "ldp-scan.json").read_text(), parse_constant=strict)
        assert summary["empirical_kink"] is None
        assert summary["flat_level"] == pytest.approx(12.019458267, rel=1e-9)

        nan, inf = float("nan"), float("inf")
        args = argparse.Namespace(output=str(tmp_path), command="nested")
        assert stickybm.cli._emit(args, ["x"], [(nan,), (inf,)], {
            "values": [0.5, nan, (np.float64(-inf), 2)], "by": {"inner": inf}, "n": 3,
        }, f"x={_fmt(nan)}") == 0
        assert capsys.readouterr().out == "x=nan\n"
        assert (tmp_path / "nested.csv").read_bytes() == b"x\r\nnan\r\ninf\r\n"
        summary = json.loads((tmp_path / "nested.json").read_text(), parse_constant=strict)
        assert summary["values"] == [0.5, None, [None, 2]]
        assert summary["by"] == {"inner": None} and summary["n"] == 3

    def test_kernel_csv_bytes(self, tmp_path, capsys):
        assert run(tmp_path, "kernel", "--a", "2", "--theta", "1", "--t", "1",
                   "--x", "0.3,0", "--grid", "2") == 0
        assert capsys.readouterr().out == "rows=6 trapezoid_mass=0.00021129215415714286\n"
        lines = (tmp_path / "kernel.csv").read_text().splitlines()
        assert lines[1] == ("1,0.29999999999999999,0,0,-5.6568542494923806,"
                            "7.0474530930099305e-06,3.5237265465049652e-06")


def _full_parser_exit(argv):
    """What the full parser prints and exits with on ``argv``."""
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    raise AssertionError(f"{argv} parsed without exiting")


# The benchmark's argv (perfbench/ops.py), without their output directory.
BENCHMARK_RUNS = [
    ["kernel", "--a", "1", "--theta", "1", "--x", "0,0", "--t", "1", "--grid", "16"],
    ["kernel", "--a", "1", "--theta", "1", "--x", "0,0", "--t", "0.01", "--grid", "16"],
    ["gamma-limit", "--a", "4", "--theta", "1", "--mu0", "{mu0}", "--mu1", "{mu1}",
     "--epsilons", "0.04,0.02,0.01"],
    ["ldp-static", "--a", "4", "--theta", "1", "--x", "0,0", "--target", "patch:2:0.1",
     "--epsilons", "0.2,0.1,0.05,0.025"],
    ["simulate", "--a", "2", "--theta", "1.5", "--x", "0.3,0", "--step", "0.05",
     "--n-steps", "50", "--n-paths", "40", "--seed", "3"],
    ["ldp-path", "--a", "4", "--theta", "1", "--x", "0,0", "--waypoints",
     "0.5:0,1:0.8;1.0:0,2:0.8", "--epsilons", "0.2,0.1,0.05", "--n-paths", "60000",
     "--seed", "3"],
    ["ldp-static", "--a", "4", "--theta", "1", "--x", "0,0", "--target", "patch:1:0.2",
     "--epsilons", "0.2,0.1,0.05", "--method", "monte_carlo", "--n-paths", "15000",
     "--seed", "3"],
    ["ot", "--a", "4", "--theta", "1", "--mu0", "{mu0}", "--mu1", "{mu1}"],
    ["interpolate", "--a", "4", "--theta", "1", "--mu0", "{mu0}", "--mu1", "{mu1}",
     "--t", "0.5"],
]


def _mutations(argv, rng):
    """``argv`` (a subcommand and its flags, each with a value) changed in one
    to three ways that a user could type, well formed or not."""
    argv = list(argv)
    for _ in range(rng.integers(1, 4)):
        flags = [k for k, tok in enumerate(argv) if tok.startswith("-")]
        k = int(rng.choice(flags)) if flags else 0
        kind = rng.integers(14)
        if kind == 0 and flags:                         # --flag=value
            argv[k:k + 2] = ["=".join(argv[k:k + 2])]
        elif kind == 1 and flags:                       # repeated, last wins
            argv += [argv[k], rng.choice(["0.5", "2", "1,0", argv[min(k + 1, len(argv) - 1)]])]
        elif kind == 2 and flags and argv[k].startswith("--") and len(argv[k]) > 3:
            argv[k] = argv[k][:-1]                      # abbreviated
        elif kind == 3:                                 # -oX, -o=X
            argv += [rng.choice(["-oout", "-o=out", "-o", "--output=out"])]
        elif kind == 4 and flags and k + 1 < len(argv):  # negative or dashed value
            argv[k + 1] = rng.choice(["-1", "-0.5,0", "-x", "-", "--", "-1e3"])
        elif kind == 5 and flags:                       # missing value
            del argv[k + 1:k + 2]
        elif kind == 6 and flags and k + 1 < len(argv):  # bad type or choice
            argv[k + 1] = rng.choice(["abc", "1.5", "", "nan", "exact", "1_0", " 2"])
        elif kind == 7:                                 # help anywhere
            argv.insert(int(rng.integers(len(argv) + 1)), rng.choice(["-h", "--help"]))
        elif kind == 8 and flags:                       # a flag dropped with its value
            del argv[k:k + 2]
        elif kind == 9:                                 # unknown flag, stray token, --
            argv.insert(int(rng.integers(1, len(argv) + 1)),
                        rng.choice(["--bogus", "extra", "--", "--tol", "--x=", "--="]))
        elif kind == 10:                                # another or no subcommand
            argv[0] = rng.choice(["cost", "ot", "kernel", "bogus", "--a", "Cost"])
        elif kind == 11 and flags:                      # a flag of another subcommand
            argv[k] = rng.choice(["--epsilon", "--grid", "--method", "--seed", "--n-paths"])
        elif kind == 12 and flags:                      # an option's other flag
            argv[k] = {"--output": "-o", "-o": "--output"}.get(argv[k], argv[k])
        elif kind == 13 and flags:                      # flags in another order
            pairs = [argv[j:j + 2] for j in range(1, len(argv) - 1, 2)]
            rng.shuffle(pairs)
            argv[1:] = [tok for pair in pairs for tok in pair] + argv[1 + 2 * len(pairs):]
    return argv


def same_namespace(a, b) -> bool:
    """The same attributes in the same order with equal values, NaN equal to NaN."""
    pairs = zip(vars(a).values(), vars(b).values())
    return list(vars(a)) == list(vars(b)) and all(x == y or x != x and y != y for x, y in pairs)


class TestParser:
    """``main`` reads a well-formed argv from the option table and hands
    anything else to the full argparse parser; what it parses and prints
    must be what that parser gives."""

    @pytest.mark.parametrize("argv", SMALL_RUNS, ids=[argv[0] for argv in SMALL_RUNS])
    def test_main_parses_what_the_full_parser_parses(self, monkeypatch, argv):
        seen = []
        monkeypatch.setattr(stickybm.cli, "_cmd_" + argv[0].replace("-", "_"),
                            lambda args: seen.append(args) or 0)
        assert main([*argv, "-o", "out"]) == 0
        assert seen == [build_parser().parse_args([*argv, "-o", "out"])]

    def test_main_builds_the_parser_only_when_the_reader_declines(self, monkeypatch, capsys):
        calls, inner = [], stickybm.cli.build_parser
        monkeypatch.setattr(stickybm.cli, "build_parser", lambda: calls.append(1) or inner())
        for argv in SMALL_RUNS:
            monkeypatch.setattr(stickybm.cli, "_cmd_" + argv[0].replace("-", "_"),
                                lambda args: 0)
            assert main([*argv, "-o", "out"]) == 0
        assert calls == []
        assert main(["cost", "--a", "1"]) == 2
        assert calls == [1]
        assert "the following arguments are required" in capsys.readouterr().err

    def test_reader_agrees_with_argparse_on_a_seeded_sweep(self, monkeypatch, capsys):
        # Every argv the reader accepts parses to argparse's namespace; on
        # every argv it declines, main prints and returns what argparse does.
        seen = []
        for name in stickybm.cli._commands():
            monkeypatch.setattr(stickybm.cli, "_cmd_" + name.replace("-", "_"),
                                lambda args: seen.append(args) or 0)
        readme = [shlex.split(line, comments=True)[1:] for line in readme_cli_lines()]
        bases = [*readme, *WRITER_RUNS, *BENCHMARK_RUNS]
        rng = np.random.default_rng(38)
        argvs = [*bases, *([*argv, "-o", "out"] for argv in bases)]
        argvs += [_mutations(argvs[int(rng.integers(len(argvs)))], rng) for _ in range(600)]
        parser, accepted, declined = build_parser(), 0, 0
        for argv in argvs:
            args = stickybm.cli._read_argv(argv)
            if args is not None:
                accepted += 1
                assert same_namespace(args, parser.parse_args(argv)), argv
                continue
            declined += 1
            try:
                expected, code = parser.parse_args(argv), 0
            except SystemExit as exc:
                expected, code = None, 2 if exc.code else 0
            printed = capsys.readouterr()
            seen.clear()
            assert main(argv) == code, argv
            assert capsys.readouterr() == printed, argv
            assert len(seen) == (expected is not None), argv
            assert expected is None or same_namespace(seen[0], expected), argv
        assert accepted > 150 and declined > 400

    @pytest.mark.parametrize("argv", [
        ["--help"], ["-h"], *([argv[0], "--help"] for argv in SMALL_RUNS), ["kernel", "-h"],
    ], ids=lambda argv: " ".join(argv))
    def test_help_is_the_full_parsers(self, capsys, argv):
        code = _full_parser_exit(argv)
        expected = capsys.readouterr()
        assert code == 0 and expected.out.startswith("usage: stickybm")
        assert main(argv) == 0
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["--bogus", "cost", "--a", "1"], ["cost"], ["cost", "--a", "x"],
        ["cost", "--a", "1", "--theta", "1", "--x", "0,0", "--y", "0,1", "extra"],
        ["ldp-static", "--a", "4", "--theta", "1", "--x", "0,0", "--target", "patch:2:0.1",
         "--epsilons", "0.2,0.1,0.05", "--method", "exact"],
        ["sinkhorn", "--a", "4", "--theta", "1", "--mu0", "mu0.csv", "--mu1", "mu1.csv",
         "--epsilon", "0.05", "--tol", "1e-6"],
    ], ids=["none", "unknown", "option-first", "missing", "bad-type", "extra", "bad-choice",
            "removed-flag"])
    def test_usage_errors_are_the_full_parsers(self, capsys, argv):
        assert _full_parser_exit(argv) == 2
        expected = capsys.readouterr()
        assert expected.err.startswith("usage: stickybm")
        assert main(argv) == 2
        assert capsys.readouterr() == expected


class TestSimulateCli:
    def test_determinism_byte_identical(self, tmp_path, capsys):
        args = ["simulate", "--a", "2", "--theta", "1", "--x", "0.3,0",
                "--step", "0.1", "--n-steps", "5", "--n-paths", "3", "--seed", "7"]
        run(tmp_path / "r1", *args)
        run(tmp_path / "r2", *args)
        capsys.readouterr()
        b1 = (tmp_path / "r1" / "simulate.csv").read_bytes()
        b2 = (tmp_path / "r2" / "simulate.csv").read_bytes()
        assert b1 == b2
        b3 = run(tmp_path / "r3", "simulate", "--a", "2", "--theta", "1", "--x", "0.3,0",
                 "--step", "0.1", "--n-steps", "5", "--n-paths", "3", "--seed", "8")
        capsys.readouterr()
        assert (tmp_path / "r3" / "simulate.csv").read_bytes() != b1

    def test_csv_columns(self, tmp_path, capsys):
        run(tmp_path, "simulate", "--a", "2", "--theta", "1.5", "--x", "0.2,0",
            "--step", "0.1", "--n-steps", "4", "--n-paths", "2", "--seed", "1")
        capsys.readouterr()
        rows = read_csv(tmp_path / "simulate.csv")
        assert rows[0] == ["path", "step", "t", "x1", "xp1", "L", "O"]
        assert len(rows) == 1 + 2 * 5
        # L = theta * O in every row
        for row in rows[1:]:
            assert float(row[5]) == 1.5 * float(row[6])

    def test_chunks_write_the_same_bytes(self, tmp_path, capsys, monkeypatch):
        # 3 paths x 6 times: chunks of one path for the rows, of 4 rows for
        # the writer, so neither lines up with the other or with the table.
        args = ["simulate", "--a", "2", "--theta", "1", "--x", "0.3,0",
                "--step", "0.1", "--n-steps", "5", "--n-paths", "3", "--seed", "7"]
        run(tmp_path / "whole", *args)
        monkeypatch.setattr(stickybm.cli, "_CHUNK_ROWS", 4)
        run(tmp_path / "chunks", *args)
        capsys.readouterr()
        whole = (tmp_path / "whole" / "simulate.csv").read_bytes()
        assert (tmp_path / "chunks" / "simulate.csv").read_bytes() == whole
        assert whole.count(b"\n") == 1 + 3 * 6

    def test_large_run_holds_bounded_memory(self, tmp_path):
        # 250 paths x 1 000 steps, 250 250 rows: the batch's arrays and the
        # walk's draws take about 14 MB; holding the table as Python lists
        # took the peak up by 115-157 MB.
        argv = ["simulate", "--a", "2", "--theta", "1.5", "--x", "0.3,0", "--step", "0.01",
                "--n-steps", "1000", "--n-paths", "250", "--seed", "7", "-o", str(tmp_path)]
        growth = float(fresh_python(
            "import resource, scipy.special; from stickybm.cli import main; "
            "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
            f"before = peak(); main({argv!r}); print((peak() - before) / 1024)"
        ).splitlines()[-1])
        rows = (tmp_path / "simulate.csv").read_bytes().count(b"\n")
        assert rows == 1 + 250 * 1001
        assert growth < 40.0

    def test_zero_paths_exits_2_before_sampling(self, tmp_path, capsys, monkeypatch):
        forbid(monkeypatch, stickybm.simulate, "step_batch")
        for n_paths in ("0", "-1"):
            code = run(tmp_path, "simulate", "--a", "2", "--theta", "1", "--x", "0.3,0",
                       "--step", "0.1", "--n-steps", "5", "--n-paths", n_paths)
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: usage:") and "n_paths must be at least 1" in err
            assert not (tmp_path / "simulate.json").exists()


class TestKernelCli:
    def test_quadrature_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise QuadratureError("tolerance not met")

        monkeypatch.setattr(stickybm.kernel, "log_integrate", fail)
        code = run(tmp_path, "kernel", "--a", "1", "--theta", "1", "--t", "1",
                   "--x", "0,0", "--grid", "2")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical:") and "theta=1.0" in err

    def test_non_finite_horizon_exits_2_before_quadrature(self, tmp_path, capsys, monkeypatch):
        forbid(monkeypatch, stickybm.kernel, "log_integrate")
        code = run(tmp_path, "kernel", "--a", "1", "--theta", "1", "--t", "nan",
                   "--x", "0,0", "--grid", "2")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and "t must be" in err

    @pytest.mark.parametrize("option, message", [
        (["--grid", "0"], "grid"),
        (["--grid", "1"], "grid"),
        pytest.param(["--d", "3"], "the kernel grid needs d = 2 and a two-coordinate --x",
                     id="d3"),
        pytest.param(["--x", "0,0,0"], "the kernel grid needs d = 2 and a two-coordinate --x",
                     id="x-3d"),
        pytest.param(["--d", "3", "--x", "0,0,0"],
                     "the kernel grid needs d = 2 and a two-coordinate --x", id="d3-x-3d"),
    ])
    def test_degenerate_grid_exits_2_before_quadrature(self, tmp_path, capsys, monkeypatch,
                                                       option, message):
        forbid(monkeypatch, stickybm.kernel, "log_integrate")
        code = run(tmp_path, "kernel", "--a", "1", "--theta", "1", "--t", "1",
                   "--x", "0,0", *option)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and message in err
        assert not (tmp_path / "kernel.csv").exists()

    def test_grid_mass(self, tmp_path, capsys):
        code = run(tmp_path, "kernel", "--a", "1", "--theta", "1", "--t", "1",
                   "--x", "0,0", "--grid", "64")
        assert code == 0
        capsys.readouterr()
        rows = read_csv(tmp_path / "kernel.csv")
        assert len(rows) == 1 + 64 * 64 + 64
        summary = json.loads((tmp_path / "kernel.json").read_text())
        assert abs(float(summary["trapezoid_mass"]) - 1.0) <= 1e-4

    def test_each_grid_node_evaluated_once(self, tmp_path, capsys, monkeypatch):
        # All n^2 + n targets go to one log_densities call; the boundary row
        # repeats the grid's first row (y1 = 0), whose pairs are integrated once.
        n, calls, integrands = 6, [], []
        densities, integrate = stickybm.cli.log_densities, stickybm.kernel.log_integrate

        def densities_spy(*args):
            calls.append(args)
            return densities(*args)

        def integrate_spy(log_f, splits, spec):
            integrands.append(len(splits))
            return integrate(log_f, splits, spec)

        monkeypatch.setattr(stickybm.cli, "log_densities", densities_spy)
        monkeypatch.setattr(stickybm.kernel, "log_integrate", integrate_spy)
        code = run(tmp_path, "kernel", "--a", "2", "--theta", "1", "--t", "0.5",
                   "--x", "0.3,0", "--grid", str(n))
        assert code == 0
        capsys.readouterr()
        assert [len(args[4]) for args in calls] == [n * n + n]
        params, spec, t, x1, y1, gap = calls[0]
        on_all = sum(integrands)
        integrands.clear()
        densities(params, spec, t, x1, y1[: n * n], gap[: n * n])
        assert on_all == sum(integrands) > 0
        rows = read_csv(tmp_path / "kernel.csv")[1:]
        assert len(rows) == n * n + n
        assert rows[n * n:] == rows[:n]     # 17 digits: the same bits

    def test_boundary_density_is_mu_weight(self, tmp_path, capsys):
        # The boundary density w.r.t. dy' is the mu-density over 2 theta on
        # y1 = 0, and there is none at interior targets.
        theta = 0.7
        code = run(tmp_path, "kernel", "--a", "2", "--theta", str(theta), "--t", "0.5",
                   "--x", "0.3,0.2", "--grid", "8")
        assert code == 0
        capsys.readouterr()
        header, *rows = read_csv(tmp_path / "kernel.csv")
        assert header[3:] == ["y1", "yp1", "interior_density", "boundary_density"]
        on_boundary = [row for row in rows if float(row[3]) == 0.0]
        assert len(on_boundary) == 2 * 8     # the grid's first row and the boundary row
        for row in rows:
            interior, boundary = float(row[5]), float(row[6])
            assert interior > 0.0
            assert boundary == (interior / (2.0 * theta) if float(row[3]) == 0.0 else 0.0)


class TestTransportCli:
    @pytest.fixture
    def measures(self, tmp_path):
        mu0 = tmp_path / "mu0.csv"
        mu1 = tmp_path / "mu1.csv"
        mu0.write_text("x1,xp1,weight\n0,0,0.5\n0,10,0.5\n")
        mu1.write_text("x1,xp1,weight\n0,1,0.5\n0,11,0.5\n")
        return str(mu0), str(mu1)

    def test_ot(self, tmp_path, capsys, measures):
        mu0, mu1 = measures
        code = run(tmp_path, "ot", "--a", "2", "--theta", "1", "--mu0", mu0, "--mu1", mu1)
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.25"
        rows = read_csv(tmp_path / "ot.csv")
        assert rows[0] == ["i", "j", "mass"]

    def test_sinkhorn(self, tmp_path, capsys, measures):
        mu0, mu1 = measures
        code = run(tmp_path, "sinkhorn", "--a", "2", "--theta", "1", "--mu0", mu0,
                   "--mu1", mu1, "--epsilon", "0.5")
        assert code == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "sinkhorn.json").read_text())
        assert float(summary["marginal_error"]) < 1e-9

    def test_sinkhorn_small_epsilon_converges(self, tmp_path, capsys):
        # a numerically deterministic optimum: converged, not rounded
        mu0, mu1 = tmp_path / "mu0.csv", tmp_path / "mu1.csv"
        mu0.write_text("x1,xp1,weight\n0,0,0.5\n0,1.5,0.5\n")
        mu1.write_text("x1,xp1,weight\n0,0.8,0.5\n0,2.75,0.5\n")
        code = run(tmp_path, "sinkhorn", "--a", "4", "--theta", "1", "--mu0", str(mu0),
                   "--mu1", str(mu1), "--epsilon", "0.001")
        assert code == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "sinkhorn.json").read_text())
        assert float(summary["marginal_error"]) < 1e-9

    @pytest.mark.parametrize("argv", [
        ["sinkhorn", "--epsilon", "nan"],
        ["sinkhorn", "--epsilon", "inf"],
        ["gamma-limit", "--epsilons", "0.04,nan,0.01"],
    ])
    def test_non_finite_epsilon_exits_2_before_quadrature(self, tmp_path, capsys, monkeypatch,
                                                          measures, argv):
        forbid(monkeypatch, stickybm.kernel, "log_integrate")
        mu0, mu1 = measures
        code = run(tmp_path, *argv, "--a", "2", "--theta", "1", "--mu0", mu0, "--mu1", mu1)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and "epsilon" in err

    @pytest.mark.parametrize("epsilons", ["0.04,0.04", "0.04,0.02,4e-2"])
    def test_repeated_gamma_limit_epsilons_exit_2_before_any_solve(self, tmp_path, capsys,
                                                                   monkeypatch, measures,
                                                                   epsilons):
        forbid(monkeypatch, stickybm.transport, "kantorovich")
        forbid(monkeypatch, stickybm.transport, "schrodinger")
        mu0, mu1 = measures
        code = run(tmp_path, "gamma-limit", "--epsilons", epsilons, "--a", "2", "--theta", "1",
                   "--mu0", mu0, "--mu1", mu1)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and "distinct" in err
        assert not (tmp_path / "gamma-limit.json").exists()

    @pytest.mark.parametrize("epsilons", [",", ""])
    def test_empty_gamma_limit_epsilons_exit_2_before_any_solve(self, tmp_path, capsys,
                                                                monkeypatch, measures, epsilons):
        forbid(monkeypatch, stickybm.transport, "kantorovich")
        forbid(monkeypatch, stickybm.transport, "schrodinger")
        mu0, mu1 = measures
        code = run(tmp_path, "gamma-limit", "--epsilons", epsilons, "--a", "2", "--theta", "1",
                   "--mu0", mu0, "--mu1", mu1)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and "epsilon" in err

    @pytest.mark.parametrize("content, message", [
        ("", "line 1"),
        ("x1,xp1,weight\n", "line 2"),
        ("x1,xp1,weight\n0,0,0.5\n0,0.5\n", "line 3"),
        ("x1,xp1,weight\n0,0,0.5\n0,1,x\n", "line 3"),
    ])
    def test_malformed_measure_file_exits_2(self, tmp_path, capsys, measures, content, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(content)
        code = run(tmp_path, "ot", "--a", "2", "--theta", "1", "--mu0", str(bad),
                   "--mu1", measures[1])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and str(bad) in err and message in err

    @pytest.mark.parametrize("content, message", [
        ("x1,xp1,weight\n0,0,0.5\n0,1,0.4\n", "weights sum to 0.9"),
        ("x1,xp1,weight\n0,0,0.5\n-1,1,0.5\n", "line 3: x1 must be nonnegative"),
    ], ids=["weights", "atom"])
    def test_invalid_measure_file_exits_2_naming_the_file(self, tmp_path, capsys, measures,
                                                         content, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(content)
        code = run(tmp_path, "ot", "--a", "2", "--theta", "1", "--mu0", measures[0],
                   "--mu1", str(bad))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: usage: {bad}") and message in err

    @pytest.mark.parametrize("argv", [
        ["ot"],
        ["sinkhorn", "--epsilon", "0.5"],
        ["interpolate", "--t", "0.5"],
    ])
    @pytest.mark.parametrize("d", ["2", "3"])
    def test_atoms_of_the_wrong_dimension_exit_2(self, tmp_path, capsys, monkeypatch,
                                                 measures, argv, d):
        # A 3-D mu1 against the 2-D mu0, at --d 2 and at --d 3.
        forbid(monkeypatch, stickybm.kernel, "log_integrate")
        mu1 = tmp_path / "mu1_3d.csv"
        mu1.write_text("x1,xp1,xp2,weight\n0,1,0,0.5\n0,11,0,0.5\n")
        code = run(tmp_path, *argv, "--a", "2", "--theta", "1", "--d", d,
                   "--mu0", measures[0], "--mu1", str(mu1))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and "dimension" in err

    def test_gamma_limit_without_convergence_exits_3(self, tmp_path, capsys, monkeypatch):
        mu0 = tmp_path / "mu0.csv"
        mu1 = tmp_path / "mu1.csv"
        mu0.write_text("x1,xp1,weight\n" + "".join(f"0,{0.25 * i},0.125\n" for i in range(8)))
        mu1.write_text("x1,xp1,weight\n"
                       + "".join(f"0,{1.0 + 0.25 * i},0.125\n" for i in range(8)))
        monkeypatch.setattr(stickybm.transport, "_MAX_ITER", 3)
        code = run(tmp_path, "gamma-limit", "--a", "4", "--theta", "1", "--mu0", str(mu0),
                   "--mu1", str(mu1), "--epsilons", "0.04,0.02,0.01")
        assert code == 3
        assert capsys.readouterr().err.startswith("error: numerical:")
        assert not (tmp_path / "gamma-limit.json").exists()

    def test_interpolate(self, tmp_path, capsys, measures):
        mu0, mu1 = measures
        code = run(tmp_path, "interpolate", "--a", "4", "--theta", "1", "--mu0", mu0,
                   "--mu1", mu1, "--t", "0.5")
        assert code == 0
        capsys.readouterr()
        rows = read_csv(tmp_path / "interpolate.csv")
        assert rows[0] == ["x1", "xp1", "weight"]
        xs = sorted(float(r[1]) for r in rows[1:])
        assert xs == pytest.approx([0.5, 10.5])


class TestLdpCli:
    def test_static(self, tmp_path, capsys):
        code = run(tmp_path, "ldp-static", "--a", "4", "--theta", "1", "--x", "0,0",
                   "--target", "patch:2:0.1", "--epsilons", "0.2,0.1,0.05")
        assert code == 0
        out = capsys.readouterr().out
        assert "reference=0.45" in out
        summary = json.loads((tmp_path / "ldp-static.json").read_text())
        assert float(summary["reference_rate"]) == pytest.approx(0.45125, rel=1e-6)

    def test_plain_runtime_error_exits_3(self, tmp_path, capsys):
        # One path never reaches the patch: every log probability is -inf,
        # and the slope fit raises a plain RuntimeError.
        code = run(tmp_path, "ldp-static", "--a", "4", "--theta", "1", "--x", "0,0",
                   "--target", "patch:2:0.1", "--epsilons", "0.2,0.1,0.05",
                   "--method", "monte_carlo", "--n-paths", "1", "--seed", "0")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical:") and "too few usable epsilons" in err
        assert not (tmp_path / "ldp-static.json").exists()

    def test_static_probability_below_the_smallest_float(self, tmp_path, capsys):
        # At eps = 0.01 the patch probability is about exp(-1234): p prints as
        # 0, and log p comes from eps log p.
        code = run(tmp_path, "ldp-static", "--a", "4", "--theta", "1", "--x", "0,0",
                   "--target", "patch:10:0.1", "--epsilons", "0.04,0.02,0.01")
        assert code == 0
        capsys.readouterr()
        rows = read_csv(tmp_path / "ldp-static.csv")
        eps, prob, log_prob, eps_log_prob = map(float, rows[3])
        assert eps == 0.01 and prob == 0.0
        assert log_prob == pytest.approx(eps_log_prob / eps, rel=1e-15) and log_prob < -1000

    def test_path(self, tmp_path, capsys):
        code = run(tmp_path, "ldp-path", "--a", "4", "--theta", "1", "--x", "0,0",
                   "--waypoints", "0.5:0,1:0.8;1.0:0,2:0.8",
                   "--epsilons", "0.2,0.1", "--n-paths", "4000", "--seed", "3")
        # two epsilons only: the slope fit has three unknowns, a usage error
        assert code == 2
        capsys.readouterr()

    def test_path_with_one_waypoint_writes_the_monte_carlo_static_outputs(self, tmp_path,
                                                                           capsys):
        # One waypoint at t = 1 is the Monte Carlo static experiment, and both
        # commands write their estimate through one helper.
        common = ["--a", "4", "--theta", "1", "--x", "0,0", "--epsilons", "0.2,0.1,0.05",
                  "--n-paths", "2000", "--seed", "3"]
        assert run(tmp_path, "ldp-static", *common, "--target", "ball:0.5,1:0.8",
                   "--method", "monte_carlo") == 0
        assert run(tmp_path, "ldp-path", *common, "--waypoints", "1.0:0.5,1:0.8") == 0
        static, path = capsys.readouterr().out.splitlines()
        assert static == path
        csvs = [(tmp_path / f"{c}.csv").read_text() for c in ("ldp-static", "ldp-path")]
        assert csvs[0] == csvs[1]
        assert csvs[0].startswith("epsilon,prob,log_prob,eps_log_prob\n")
        summaries = [json.loads((tmp_path / f"{c}.json").read_text())
                     for c in ("ldp-static", "ldp-path")]
        for summary in summaries:
            del summary["config"]
        assert summaries[0] == summaries[1]

    @pytest.mark.parametrize("waypoints", [
        "0.5:3,0:2;0.5:3,0:2",      # repeated time
        "0.8:3,0:2;0.4:3,0:2",      # decreasing times
        "0.5:3,0:2;1.5:3,0:2",      # past t = 1
    ])
    def test_path_rejects_waypoint_times_before_sampling(self, tmp_path, capsys, monkeypatch,
                                                         waypoints):
        forbid(monkeypatch, stickybm.simulate, "step_batch")
        code = run(tmp_path, "ldp-path", "--a", "4", "--theta", "1", "--x", "3,0",
                   "--waypoints", waypoints, "--epsilons", "0.2,0.1,0.05")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and "strictly increasing" in err

    # A target is ball:<point>:<r> or patch:<x'>:<r>; a waypoint is t:<point>:<r>,
    # quoted as typed.
    @pytest.mark.parametrize("argv, forms", [
        (["ldp-path", "--waypoints", "0.5:0,1"], ("'0.5:0,1' (use t:<point>:<r>)",)),
        (["ldp-static", "--target", "ball:1,2"], ("ball:<point>:<r>", "patch:<x'>:<r>")),
        (["ldp-path", "--waypoints", "0.5:0,1:0.8:1"], ("'0.5:0,1:0.8:1' (use t:<point>:<r>)",)),
        (["ldp-static", "--target", "patch:1:0.2:3"], ("ball:<point>:<r>", "patch:<x'>:<r>")),
        (["ldp-path", "--waypoints", "0.5:0,1:0.8;"], ("'' (use t:<point>:<r>)",)),
        (["ldp-path", "--waypoints", "x:0,1:0.8"], ("'x:0,1:0.8' (use t:<point>:<r>)",)),
        (["ldp-static", "--target", "disc:0,1:0.5"],
         ("unknown target kind 'disc'", "ball:<point>:<r>", "patch:<x'>:<r>")),
    ], ids=["path-no-radius", "static-no-radius", "path-extra-field", "static-extra-field",
            "path-trailing-separator", "path-non-numeric-time", "static-unknown-kind"])
    def test_target_without_centre_and_radius_exits_2_naming_the_form(
            self, tmp_path, capsys, monkeypatch, argv, forms):
        forbid(monkeypatch, stickybm.simulate, "step_batch")
        forbid(monkeypatch, stickybm.kernel, "log_integrate")
        code = run(tmp_path, *argv, "--a", "4", "--theta", "1", "--x", "0,0",
                   "--epsilons", "0.2,0.1,0.05")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and all(form in err for form in forms)

    @pytest.mark.parametrize("epsilons, n_paths, message", [
        ("0.2,0.1,0", "1000", "epsilons"),
        ("0.2,nan,0.05", "1000", "epsilons"),
        ("0.2,0.1,0.05", "0", "n_paths"),
        ("0.2,0.1", "3000", "three distinct"),
        ("0.2,0.2,0.1", "3000", "three distinct"),
    ])
    def test_path_rejects_epsilons_and_paths_before_sampling(self, tmp_path, capsys, monkeypatch,
                                                             epsilons, n_paths, message):
        forbid(monkeypatch, stickybm.simulate, "step_batch")
        code = run(tmp_path, "ldp-path", "--a", "4", "--theta", "1", "--x", "3,0",
                   "--waypoints", "0.5:3,0:2;1.0:3,0:2", "--epsilons", epsilons,
                   "--n-paths", n_paths)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and message in err

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    @pytest.mark.parametrize("argv", [
        ["simulate", "--step", "0.1", "--n-steps", "2"],
        ["ldp-path", "--waypoints", "0.5:0,1:0.8;1.0:0,2:0.8", "--epsilons", "0.2,0.1,0.05"],
        ["ldp-static", "--target", "patch:1:0.2", "--epsilons", "0.2,0.1,0.05",
         "--method", "monte_carlo"],
    ])
    def test_seed_outside_64_bits_exits_2_before_sampling(self, tmp_path, capsys, monkeypatch,
                                                           argv, seed):
        forbid(monkeypatch, stickybm.simulate, "step_batch")
        code = run(tmp_path, *argv, "--a", "4", "--theta", "1", "--x", "0.3,0",
                   "--n-paths", "100", "--seed", seed)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and "seed" in err

    def test_static_non_finite_epsilon_exits_2_before_quadrature(self, tmp_path, capsys,
                                                                 monkeypatch):
        forbid(monkeypatch, stickybm.kernel, "log_integrate")
        code = run(tmp_path, "ldp-static", "--a", "4", "--theta", "1", "--x", "0,0",
                   "--target", "patch:2:0.1", "--epsilons", "nan,0.1,0.05,0.025")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and "epsilons" in err

    @pytest.mark.parametrize("method", ["quadrature", "monte_carlo"])
    def test_static_two_epsilons_exit_2_before_quadrature_or_sampling(self, tmp_path, capsys,
                                                                      monkeypatch, method):
        forbid(monkeypatch, stickybm.kernel, "log_integrate")
        forbid(monkeypatch, stickybm.simulate, "step_batch")
        code = run(tmp_path, "ldp-static", "--a", "4", "--theta", "1", "--x", "0,0",
                   "--target", "patch:2:0.1", "--epsilons", "0.2,0.1", "--method", method)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and "three distinct" in err
        assert not (tmp_path / "ldp-static.json").exists()

    def test_static_monte_carlo_zero_paths_exits_2_before_sampling(self, tmp_path, capsys,
                                                                    monkeypatch):
        forbid(monkeypatch, stickybm.simulate, "step_batch")
        code = run(tmp_path, "ldp-static", "--a", "4", "--theta", "1", "--x", "0,0",
                   "--target", "patch:2:0.1", "--epsilons", "0.2,0.1,0.05",
                   "--method", "monte_carlo", "--n-paths", "0")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and "n_paths" in err

    def test_static_monte_carlo_ball_holding_x_has_zero_reference_rate(self, tmp_path, capsys):
        code = run(tmp_path, "ldp-static", "--a", "4", "--theta", "1", "--x", "0.5,0",
                   "--target", "ball:0.5,0.1:0.2", "--epsilons", "0.2,0.1,0.05",
                   "--method", "monte_carlo", "--n-paths", "2000", "--seed", "3")
        assert code == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "ldp-static.json").read_text())
        assert summary["reference_rate"] == 0.0 and summary["dropped_epsilons"] == []

    @pytest.mark.parametrize("a", ["4", "0.5"])
    @pytest.mark.parametrize("argv", [
        ["ldp-static", "--target", "ball:0.5,3:0.5", "--epsilons", "0.2,0.1,0.05"],
        ["ldp-static", "--target", "ball:0.5,3:0.5", "--epsilons", "0.5,0.4,0.3",
         "--method", "monte_carlo", "--n-paths", "2000"],
        ["ldp-path", "--waypoints", "1.0:0.5,3:0.5", "--epsilons", "0.5,0.4,0.3",
         "--n-paths", "2000"],
    ], ids=["quadrature", "monte_carlo", "path"])
    def test_ball_tangent_to_the_boundary(self, tmp_path, capsys, a, argv):
        # The ball touches y1 = 0 in one point: it has no boundary trace.
        code = run(tmp_path, *argv, "--a", a, "--theta", "1", "--x", "2,3")
        assert code == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / f"{argv[0]}.json").read_text())
        assert summary["reference_rate"] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("argv, message", [
        (["ldp-static", "--a", "4", "--theta", "1", "--x", "0,0,0", "--d", "3",
          "--target", "ball:0,1:1.5", "--epsilons", "0.2,0.1,0.05", "--method", "monte_carlo",
          "--n-paths", "20000"], "target has dimension 2, model expects 3"),
        (["ldp-path", "--a", "4", "--theta", "1", "--x", "0,0,0",
          "--waypoints", "0.5:0,1,0:0.8;1.0:0,2,0:0.8", "--epsilons", "0.2,0.1,0.05"],
         "start point has dimension 3, model expects 2"),
        (["ldp-static", "--a", "4", "--theta", "1", "--x", "0,0", "--target", "patch:2,9:0.1",
          "--epsilons", "0.2,0.1,0.05"], "target has dimension 3, model expects 2"),
        (["ldp-scan", "--x", "1,0", "--y", "1,5,0", "--a-grid", "0.5,2,4",
          "--epsilons", "0.2,0.1,0.05"], "target has dimension 3, model expects 2"),
    ], ids=["static-mc-target", "path-start", "static-patch", "scan-target"])
    def test_dimension_mismatch_exits_2_before_sampling_or_quadrature(
            self, tmp_path, capsys, monkeypatch, argv, message):
        forbid(monkeypatch, stickybm.ldp, "walk")
        forbid(monkeypatch, stickybm.kernel, "log_integrate")
        assert run(tmp_path, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and message in err
        assert not (tmp_path / f"{argv[0]}.json").exists()

    @pytest.mark.parametrize("epsilons", ["0.2,0.1", "0.2,0.2,0.1"])
    def test_scan_rejects_too_few_distinct_epsilons_before_quadrature(self, tmp_path, capsys,
                                                                      monkeypatch, epsilons):
        forbid(monkeypatch, stickybm.kernel, "log_integrate")
        code = run(tmp_path, "ldp-scan", "--a-grid", "0.5,2.0", "--x", "1,0", "--y", "1,5",
                   "--epsilons", epsilons)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and "three distinct" in err
        assert not (tmp_path / "ldp-scan.json").exists()

    @pytest.mark.parametrize("a_grid, y, message", [
        (",", "1,5", "at least one value of a"),
        ("0.5,2.0,-1", "1,5", "diffusivity a must be positive"),
        ("0.5,2.0", "1,0", "v = 0"),
        ("0.5,3,3,3", "1,5", "distinct"),
        ("1,1.0", "1,5", "distinct"),
    ])
    def test_scan_checks_every_input_before_quadrature(self, tmp_path, capsys, monkeypatch,
                                                       a_grid, y, message):
        forbid(monkeypatch, stickybm.kernel, "log_integrate")
        code = run(tmp_path, "ldp-scan", "--a-grid", a_grid, "--x", "1,0", "--y", y,
                   "--epsilons", "0.2,0.1,0.05")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and message in err
        assert not (tmp_path / "ldp-scan.json").exists()

    def test_scan_between_boundary_points_crosses_at_one(self, tmp_path, capsys):
        code = run(tmp_path, "ldp-scan", "--a-grid", "0.5,1,1.5", "--x", "0,0", "--y", "0,5",
                   "--epsilons", "0.2,0.1,0.05")
        assert code == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "ldp-scan.json").read_text())
        assert float(summary["crossing_root"]) == 1.0

    def test_static_epsilon_order_does_not_matter(self, tmp_path, capsys):
        outputs = []
        for eps in ("0.2,0.1,0.05", "0.05,0.1,0.2"):
            code = run(tmp_path, "ldp-static", "--a", "4", "--theta", "1", "--x", "0,0",
                       "--target", "patch:0.8:0.15", "--epsilons", eps,
                       "--method", "monte_carlo", "--n-paths", "3000", "--seed", "2")
            assert code == 0
            outputs.append((tmp_path / "ldp-static.csv").read_text())
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_scan_small(self, tmp_path, capsys):
        code = run(tmp_path, "ldp-scan", "--a-grid", "0.5,1.0,2.5,3.0", "--x", "1,0",
                   "--y", "1,5", "--epsilons", "0.2,0.1,0.05")
        assert code == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "ldp-scan.json").read_text())
        assert float(summary["crossing_root"]) == pytest.approx((29 / 21) ** 2, rel=1e-9)
