import csv
import functools
import json
import os
import shlex
import subprocess
import sys

import pytest

import stickybm.cli
import stickybm.kernel
import stickybm.ldp
import stickybm.simulate
import stickybm.transport
from stickybm.cli import build_parser, main
from stickybm.quadrature import QuadratureError
from stickybm.transport import gamma_limit_experiment


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


class TestDispatch:
    def test_import_leaves_scipy_solvers_unloaded(self):
        # Cold start: scipy.optimize and scipy.special are imported only by
        # the functions that call them, so `stickybm cost` never pays for them;
        # nothing at import time pulls in numpy.ma (np.unique does).
        src = os.path.dirname(os.path.dirname(stickybm.cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = subprocess.run(
            [sys.executable, "-c", "import sys, stickybm.cli; "
             "print(sorted({'scipy.optimize', 'scipy.special', 'numpy.ma'} & set(sys.modules)))"],
            env=env, capture_output=True, text=True, check=True, timeout=60)
        assert out.stdout.strip() == "[]"

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
        readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
        with open(readme) as fh:
            text = fh.read()
        block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line, comments=True) for line in lines
                    if line.startswith("stickybm ")]
        assert len(commands) >= 11
        for argv in commands:
            args = build_parser().parse_args(argv[1:])
            assert args.command == argv[1]

    def test_geodesic(self, tmp_path, capsys):
        code = run(tmp_path, "geodesic", "--a", "2", "--theta", "1", "--x", "1,0", "--y", "1,5")
        assert code == 0
        out = capsys.readouterr().out
        assert "three_segment" in out and "12.25" in out
        rows = read_csv(tmp_path / "geodesic.csv")
        assert len(rows) == 4  # header + three segments


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


class TestEmit:
    def test_small_runs_cover_every_subcommand(self):
        subs = build_parser()._subparsers._group_actions[0].choices
        assert sorted(argv[0] for argv in SMALL_RUNS) == sorted(subs)

    @pytest.mark.parametrize("argv", SMALL_RUNS, ids=[argv[0] for argv in SMALL_RUNS])
    def test_every_subcommand_writes_one_csv_one_json_one_line(self, tmp_path, capsys, argv):
        (tmp_path / "mu0.csv").write_text("x1,xp1,weight\n0,0,0.5\n0.5,2,0.5\n")
        (tmp_path / "mu1.csv").write_text("x1,xp1,weight\n0,1,0.5\n0.2,3,0.5\n")
        argv = [arg.format(mu0=tmp_path / "mu0.csv", mu1=tmp_path / "mu1.csv") for arg in argv]
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

    def test_zero_paths_exits_2_before_sampling(self, tmp_path, capsys, monkeypatch):
        forbid(monkeypatch, stickybm.simulate, "step_batch")
        code = run(tmp_path, "simulate", "--a", "2", "--theta", "1", "--x", "0.3,0",
                   "--step", "0.1", "--n-steps", "5", "--n-paths", "0")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and "n_paths" in err
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
        (["--extent", "0"], "extent"),
        (["--extent", "-1"], "extent"),
        (["--extent", "inf"], "extent"),
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

    @pytest.mark.parametrize("argv, message", [
        (["sinkhorn", "--epsilon", "0.5", "--tol", "nan"], "tol"),
        (["sinkhorn", "--epsilon", "0.5", "--tol", "0"], "tol"),
        (["sinkhorn", "--epsilon", "0.5", "--tol", "inf"], "tol"),
        (["sinkhorn", "--epsilon", "0.5", "--max-iter", "0"], "max_iter"),
        (["gamma-limit", "--epsilons", "0.04,0.02,0.01", "--tol", "-1"], "tol"),
    ])
    def test_sinkhorn_options_exit_2_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                      measures, argv, message):
        forbid(monkeypatch, stickybm.kernel, "log_integrate")
        forbid(monkeypatch, stickybm.transport, "kantorovich")
        mu0, mu1 = measures
        code = run(tmp_path, *argv, "--a", "2", "--theta", "1", "--mu0", mu0, "--mu1", mu1)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and message in err

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
        monkeypatch.setattr(stickybm.cli, "gamma_limit_experiment",
                            functools.partial(gamma_limit_experiment, max_iter=3))
        code = run(tmp_path, "gamma-limit", "--a", "4", "--theta", "1", "--mu0", str(mu0),
                   "--mu1", str(mu1), "--epsilons", "0.04,0.02,0.01", "--tol", "1e-12")
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
                   "--y", "1,5", "--epsilons", "0.2,0.1,0.05", "--radius", "0.1")
        assert code == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "ldp-scan.json").read_text())
        assert float(summary["crossing_root"]) == pytest.approx((29 / 21) ** 2, rel=1e-9)
