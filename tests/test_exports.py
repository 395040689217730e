"""The package's export lists name only what exists and what runs, and the
benchmark's calls bind.

Every name in a module's ``__all__`` must be defined there, and every name
the package ``__init__`` re-exports must be in its module's ``__all__``, so
that a deleted function or type cannot linger in either list.  Every listed
name must be used by the library or the benchmark outside its own
definition, apart from the paper's variational definitions, so that a check
only the tests run lives with the tests.  Every library
name, keyword and result field that ``perfbench/ops.py`` and ``perfbench/tests``
use must still exist, and every CLI output column and JSON key that
``perfbench/ops.py`` reads must still be written, so that a simplification
cannot silently break a benchmark operation.
"""

import ast
import csv
import importlib
import json
import inspect
import pkgutil
from pathlib import Path

import pytest

import stickybm
from stickybm import cli, geometry, ldp, transport
from stickybm.geometry import ModelParams, point
from stickybm.pathopt import minimize_path_action
from stickybm.simulate import SimConfig, simulate_batch

MODULES = sorted(m.name for m in pkgutil.iter_modules(stickybm.__path__)
                 if m.name != "__main__")    # importing __main__ runs the CLI


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    module = importlib.import_module(f"stickybm.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"stickybm.{name}.__all__ lists undefined names {missing}"


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(stickybm.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"stickybm.{node.module}")
        unlisted = [a.name for a in node.names if a.name not in module.__all__]
        assert not unlisted, f"stickybm imports {unlisted} from {node.module}, not in its __all__"


ROOT = Path(__file__).resolve().parents[1]

# The paper's variational definitions: exported to state the model, whether
# or not the library itself evaluates them.
PAPER_DEFINITIONS = ("lagrangian", "hamiltonian", "sticky_rate", "sticky_rate_profile",
                     "euclidean_rate", "action", "discrete_waypoint_cost")


def _all(tree):
    """The names a module's ``__all__`` lists, none if it has no list."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in stmt.targets):
            return ast.literal_eval(stmt.value)
    return []


def _uses(tree):
    """``(owners, name)`` for every name a module loads or imports, ``owners``
    being the names the enclosing top-level statement defines."""
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
        owners = {getattr(stmt, "name", None), *(getattr(t, "id", None) for t in targets)}
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                yield owners, getattr(node, "id", None) or node.attr
            elif isinstance(node, ast.alias):
                yield owners, node.name


def test_library_names_run_outside_tests():
    library = [p for p in sorted((ROOT / "src" / "stickybm").glob("*.py"))
               if p.name != "__init__.py"]
    trees = {p: ast.parse(p.read_text())
             for p in [*library, *sorted((ROOT / "perfbench").glob("*.py"))]}
    uses = [(p, owners, name) for p, tree in trees.items() for owners, name in _uses(tree)]
    unused = [f"{path.stem}.{name}" for path in library for name in _all(trees[path])
              if name not in PAPER_DEFINITIONS
              and not any(n == name and not (p == path and name in owners)
                          for p, owners, n in uses)]
    assert not unused, f"exported but run only by the tests: {unused}"


# (module, name, positional arguments, keywords) of every call the benchmark makes.
BENCHMARK_CALLS = [
    ("cli", "main", 1, ()),
    ("geometry", "HalfSpacePoint", 2, ()),
    ("geometry", "ModelParams", 2, ()),
    ("geometry", "cone_contains", 3, ()),
    ("geometry", "cost", 3, ()),
    ("geometry", "point", 2, ()),
    ("kernel", "kernel_total_mass", 3, ()),
    ("ldp", "Ball", 2, ()),
    ("ldp", "BoundaryPatch", 2, ()),
    ("ldp", "fit_rate", 2, ()),
    ("ldp", "log_target_probability", 5, ()),
    ("ldp", "min_cost_over_target", 3, ()),
    ("ldp", "min_sliced_cost", 3, ()),
    ("pathopt", "minimize_path_action", 3, ("n_segments", "restarts", "seed")),
    ("quadrature", "QuadratureSpec", 0, ()),
    ("simulate", "SimConfig", 4, ("seed",)),
    ("simulate", "simulate_batch", 2, ()),
    ("transport", "DiscreteMeasure", 2, ()),
    ("transport", "TransportPlan", 4, ()),
    ("transport", "cost_matrix", 3, ()),
    ("transport", "kantorovich", 3, ()),
]


@pytest.mark.parametrize("module, name, n_args, keywords", BENCHMARK_CALLS,
                         ids=[f"{m}.{n}" for m, n, _, _ in BENCHMARK_CALLS])
def test_benchmark_call_binds(module, name, n_args, keywords):
    fn = getattr(importlib.import_module(f"stickybm.{module}"), name)
    inspect.signature(fn).bind(*[None] * n_args, **dict.fromkeys(keywords))


# Every CLI output field that perfbench/ops.py reads: a small run of the
# subcommand, the CSV columns it reads by position ({index: header}) and by
# header name, and the JSON keys.  {mu0} and {mu1} name two-atom measures.
BENCHMARK_OUTPUTS = [
    (["kernel", "--a", "1", "--theta", "1", "--x", "0,0", "--t", "1", "--grid", "2"],
     {3: "y1", 5: "interior_density", 6: "boundary_density"}, (), ()),
    (["simulate", "--a", "2", "--theta", "1.5", "--x", "0.3,0", "--step", "0.05",
      "--n-steps", "2", "--n-paths", "2", "--seed", "1"], {}, ("x1", "L", "O"), ()),
    (["ldp-static", "--a", "4", "--theta", "1", "--x", "0,0", "--target", "patch:1:0.2",
      "--epsilons", "0.2,0.1,0.05", "--method", "monte_carlo", "--n-paths", "2000"],
     {0: "epsilon", 1: "prob"}, (), ("extrapolated_rate", "reference_rate", "dropped_epsilons")),
    (["ldp-path", "--a", "4", "--theta", "1", "--x", "0,0", "--waypoints",
      "0.5:0,1:0.8;1.0:0,2:0.8", "--epsilons", "0.2,0.1,0.05", "--n-paths", "2000"],
     {0: "epsilon", 1: "prob"}, (), ("extrapolated_rate", "reference_rate", "dropped_epsilons")),
    (["gamma-limit", "--a", "4", "--theta", "1", "--mu0", "{mu0}", "--mu1", "{mu1}",
      "--epsilons", "0.04,0.02,0.01"], {}, (), ("kantorovich_value", "failed_epsilons")),
    (["ot", "--a", "4", "--theta", "1", "--mu0", "{mu0}", "--mu1", "{mu1}"],
     {0: "i", 1: "j", 2: "mass"}, (), ("value",)),
    (["interpolate", "--a", "4", "--theta", "1", "--mu0", "{mu0}", "--mu1", "{mu1}",
      "--t", "0.5"], {}, (), ("plan_value",)),
]


@pytest.mark.parametrize("argv, at, named, keys", BENCHMARK_OUTPUTS,
                         ids=[argv[0] for argv, *_ in BENCHMARK_OUTPUTS])
def test_benchmark_reads_of_cli_outputs(tmp_path, capsys, argv, at, named, keys):
    (tmp_path / "mu0.csv").write_text("x1,xp1,weight\n0,0,0.5\n0.5,2,0.5\n")
    (tmp_path / "mu1.csv").write_text("x1,xp1,weight\n0,1,0.5\n0.2,3,0.5\n")
    argv = [arg.format(mu0=tmp_path / "mu0.csv", mu1=tmp_path / "mu1.csv") for arg in argv]
    out = tmp_path / "out"
    assert cli.main([*argv, "-o", str(out)]) == 0
    capsys.readouterr()
    with open(out / f"{argv[0]}.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert {k: header[k] for k in at} == at and set(named) <= set(header)
    if argv[0] == "ot":
        assert len(header) == 3     # the benchmark unpacks (i, j, mass)
    # Every data row parses at the columns the benchmark reads; the LDP
    # commands close with a "summary" row, which the benchmark skips.
    data = [row for row in rows if row[0] != "summary"]
    assert data
    for row in data:
        for k in [*at, *map(header.index, named)]:
            float(row[k])
    summary = json.loads((out / f"{argv[0]}.json").read_text())
    assert set(keys) <= set(summary)


def test_benchmark_bindings_and_result_fields():
    # Bindings the benchmark replaces or traces, and the result fields it reads.
    assert cli.kantorovich is transport.kantorovich
    assert ldp.cost is geometry.cost
    params = ModelParams(2.0, 1.5)
    batch = simulate_batch(SimConfig(params, point(0.3, 0.0), 0.05, 2, seed=1), 2)
    for field in ("x1", "local_time", "occupation_time"):
        assert getattr(batch, field).shape == (2, 3)
    res = minimize_path_action(params, point(0.5, 0.0), point(0.5, 2.5), n_segments=4,
                               restarts=2, seed=0)
    assert res.value > 0.0
    assert {"matrix", "cost_value", "source", "target"} <= set(
        inspect.signature(transport.TransportPlan).parameters)
