"""The package's export lists name only what exists and what runs, and the
benchmark's calls bind.

Every name in a module's ``__all__`` must be defined there, so that a
deleted function or type cannot linger in the list, and the package
``__init__`` binds no library name, so that each name is imported from the
one module that lists it and no second export list exists.  Every listed
name must be used by the library or the benchmark outside its own
definition, apart from the paper's variational definitions, so that a check
only the tests run lives with the tests; a use is a load through an import
or a module attribute, so a local variable of the same name is none.  Every
module-level private function or class must be loaded by the library
outside its own definition, so that a helper whose last caller is gone does
not linger for its tests.  Every defaulted parameter of a library function,
and every defaulted field of a library dataclass, must be passed by some
call in the library or the benchmark, so that no option exists for the
tests alone, and every optional CLI flag must be set by a README example of
its subcommand or by a string of the benchmark's operations, since the
library call behind a flag counts as a use even when nothing sets the flag.
Only the kernel layer takes a quadrature spec.  Every library
name, keyword and result field that ``perfbench/ops.py`` and
``perfbench/tests`` use must still exist, and every CLI output column and
JSON key that ``perfbench/ops.py`` reads must still be written, so that a
simplification cannot silently break a benchmark operation.
"""

import argparse
import ast
import csv
import importlib
import json
import inspect
import pkgutil
import shlex
from pathlib import Path

import pytest

import stickybm
from stickybm import cli, geometry, ldp, transport
from stickybm.geometry import ModelParams, point
from stickybm.pathopt import minimize_path_action
from stickybm.simulate import SimConfig, simulate_batch

from oracles import readme_cli_lines

MODULES = sorted(m.name for m in pkgutil.iter_modules(stickybm.__path__)
                 if m.name != "__main__")    # importing __main__ runs the CLI


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    module = importlib.import_module(f"stickybm.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"stickybm.{name}.__all__ lists undefined names {missing}"


def test_package_binds_no_library_name():
    # The package holds its docstring and ``__version__``; names come from
    # their modules.
    tree = ast.parse(Path(stickybm.__file__).read_text())
    doc, *rest = tree.body
    assert isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant)
    bound = [ast.unparse(stmt) for stmt in rest
             if not (isinstance(stmt, ast.Assign)
                     and [getattr(t, "id", None) for t in stmt.targets] == ["__version__"])]
    assert not bound, f"stickybm/__init__.py binds more than __version__: {bound}"


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


def _dotted(node):
    """``a.b.c`` for a chain of attribute loads on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and (base := _dotted(node.value)):
        return f"{base}.{node.attr}"
    return None


def _uses(tree, module=None):
    """``(defining module, name)`` for every use of a library name in ``tree``,
    the library module ``module`` or a benchmark file: a load of a name
    imported from its defining module, ``<module>.<name>``, and, in the
    defining module, a load outside the top-level statement that defines it.
    A local variable that shares an export's name is none of these."""
    imported, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 0:
                if not (source + ".").startswith("stickybm."):
                    continue
                source = source[len("stickybm."):]
            for alias in node.names:
                if source:
                    imported[alias.asname or alias.name] = (source, alias.name)
                else:
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("stickybm."):
                    modules[alias.asname or alias.name] = alias.name[len("stickybm."):]
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
        owners = {getattr(stmt, "name", None), *(getattr(t, "id", None) for t in targets)}
        for node in ast.walk(stmt):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name) and node.id in imported:
                yield imported[node.id]
            elif isinstance(node, ast.Name) and module and node.id not in owners:
                yield module, node.id
            elif isinstance(node, ast.Attribute) and _dotted(node.value) in modules:
                yield modules[_dotted(node.value)], node.attr


def _sources():
    """``{module: tree}`` for ``src/stickybm/*.py`` without ``__init__.py``, and
    ``{path: tree}`` for ``perfbench/**/*.py``."""
    library = {p.stem: ast.parse(p.read_text())
               for p in sorted((ROOT / "src" / "stickybm").glob("*.py")) if p.name != "__init__.py"}
    bench = {p: ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").rglob("*.py"))}
    return library, bench


def _unused_exports(library, bench):
    """``module.name`` for every exported name that neither the library nor the
    benchmark uses, the paper's definitions apart."""
    used = {use for m, tree in library.items() for use in _uses(tree, m)}
    used.update(use for tree in bench.values() for use in _uses(tree))
    return [f"{m}.{name}" for m, tree in library.items() for name in _all(tree)
            if name not in PAPER_DEFINITIONS and (m, name) not in used]


def test_library_names_run_outside_tests():
    unused = _unused_exports(*_sources())
    assert not unused, f"exported but run only by the tests: {unused}"


def test_a_local_variable_is_not_a_use_of_an_export():
    library = {
        "shapes": ast.parse("__all__ = ['point', 'area']\n"
                            "def point(x):\n    return x\n"
                            "def area(x):\n    return point(x)\n"),
        "draw": ast.parse("from .shapes import area\n"
                          "def draw(points):\n"
                          "    for point in points:\n        area(point)\n"),
    }
    assert _unused_exports(library, {}) == []      # ``area`` calls ``point``
    library["shapes"] = ast.parse("__all__ = ['point', 'area']\n"
                                  "def point(x):\n    return x\n"
                                  "def area(x):\n    return x\n")
    assert _unused_exports(library, {}) == ["shapes.point"]
    bench = {"bench.py": ast.parse("from stickybm import shapes\nshapes.point(1)\n")}
    assert _unused_exports(library, bench) == []


def _unused_private(library):
    """``module.name`` for every module-level private function or class of the
    library that no library code loads outside its own definition."""
    used = {use for m, tree in library.items() for use in _uses(tree, m)}
    return [f"{m}.{node.name}" for m, tree in library.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and (m, node.name) not in used]


def test_private_helpers_run_in_the_library():
    unused = _unused_private(_sources()[0])
    assert not unused, f"private helpers that only the tests load: {unused}"


def test_a_helper_nothing_calls_is_caught():
    # A derivative helper kept after its only caller stops calling it.
    library, _ = _sources()
    helper = ("def _sticky_log_slopes_m(params, t, s, v):\n"
              "    def slopes(rows, m):\n        return m, m\n    return slopes\n")
    kernel = (ROOT / "src" / "stickybm" / "kernel.py").read_text()
    library["kernel"] = ast.parse(kernel + "\n\n" + helper)
    assert _unused_private(library) == ["kernel._sticky_log_slopes_m"]
    # A load from another function of the module counts; a recursive one does not.
    library["kernel"] = ast.parse(kernel + "\n\n" + helper
                                  + "\n\ndef _user():\n    return _sticky_log_slopes_m\n")
    assert _unused_private(library) == ["kernel._user"]
    library["kernel"] = ast.parse(kernel + "\n\n" + helper.replace(
        "return slopes", "return _sticky_log_slopes_m"))
    assert _unused_private(library) == ["kernel._sticky_log_slopes_m"]


def _defaulted(fn):
    """``(name, position)`` for each parameter of ``fn`` that has a default;
    the position counts the caller's arguments (after ``self`` or ``cls``) and
    is None for a keyword-only parameter."""
    positional = [*fn.args.posonlyargs, *fn.args.args]
    skip = int(bool(positional) and positional[0].arg in ("self", "cls"))
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i - skip
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call, name, position):
    """Whether ``call`` passes the parameter ``name`` at ``position``: by
    keyword, through ``**``, or by position (a ``*`` argument counting as one)."""
    return (any(k.arg in (name, None) for k in call.keywords)
            or position is not None and len(call.args) > position)


def _defaulted_fields(cls):
    """``(name, position)`` for each field of a ``@dataclass`` class body that
    has a default, ``x: T = v`` or ``x: T = field(default=v)``; the position
    counts the class's fields in order, as its generated ``__init__`` does."""
    fields = [stmt for stmt in cls.body if isinstance(stmt, ast.AnnAssign)]
    for i, stmt in enumerate(fields):
        value = stmt.value
        if isinstance(value, ast.Call) and _dotted(value.func) in ("field", "dataclasses.field"):
            value = next((k for k in value.keywords if k.arg in ("default", "default_factory")),
                         None)
        if value is not None:
            yield stmt.target.id, i


def _is_dataclass(cls):
    return any(_dotted(getattr(d, "func", d)) in ("dataclass", "dataclasses.dataclass")
               for d in cls.decorator_list)


def _unset_options(library, bench):
    """``module.function(parameter)`` for every defaulted parameter of a library
    ``def``, and ``module.Class(field)`` for every defaulted field of a library
    dataclass, that no call in the library or the benchmark passes; a call
    matches by its callee's name, plain or as an attribute, and a class's
    name calls its ``__init__`` or, for a dataclass, its fields."""
    calls = {}
    for tree in [*library.values(), *bench.values()]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(callee, []).append(node)
    unset = []
    for m, tree in library.items():
        classes = {fn: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for fn in cls.body if getattr(fn, "name", None) == "__init__"}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callee = classes.get(fn, fn.name)
                unset += [f"{m}.{callee}({name})" for name, position in _defaulted(fn)
                          if not any(_passes(c, name, position) for c in calls.get(callee, ()))]
            elif isinstance(fn, ast.ClassDef) and _is_dataclass(fn):
                unset += [f"{m}.{fn.name}({name})" for name, position in _defaulted_fields(fn)
                          if not any(_passes(c, name, position) for c in calls.get(fn.name, ()))]
    return unset


# The benchmark builds ``QuadratureSpec()``, so its field stays until the next
# change to the benchmark turns it into a constant (ROADMAP item 1); only the
# quadrature and kernel tests set it.
BENCHMARK_PINNED_OPTIONS = ("quadrature.QuadratureSpec(max_subdivisions)",)


def test_library_options_are_set_outside_tests():
    unset = _unset_options(*_sources())
    assert set(BENCHMARK_PINNED_OPTIONS) <= set(unset), "a listed exception no longer applies"
    unset = [u for u in unset if u not in BENCHMARK_PINNED_OPTIONS]
    assert not unset, f"options only the tests set: {unset}"


def test_a_dataclass_field_only_the_tests_set_is_caught():
    # A defaulted field, plain or through ``field``, that no call passes.
    shapes = ("from dataclasses import dataclass, field\n"
              "@dataclass(frozen=True)\nclass Disc:\n    radius: float\n"
              "    center: tuple = field(default=(0.0, 0.0))\n    label: str = ''\n"
              "class Plain:\n    size: int = 1\n"
              "def unit():\n    return Disc(1.0)\n")
    library = {"shapes": ast.parse(shapes)}
    assert _unset_options(library, {}) == ["shapes.Disc(center)", "shapes.Disc(label)"]
    # A benchmark call sets a field by position or by keyword.
    bench = {"bench.py": ast.parse("from stickybm.shapes import Disc\n"
                                   "Disc(2.0, (1.0, 1.0), label='b')\n")}
    assert _unset_options(library, bench) == []
    bench = {"bench.py": ast.parse("from stickybm import shapes\nshapes.Disc(2.0, (1.0, 1.0))\n")}
    assert _unset_options(library, bench) == ["shapes.Disc(label)"]


# The model's parameters: every run states its model, whether or not a
# subcommand gives a parameter a default.
MODEL_FLAGS = ("--a", "--theta", "--d")


def _unset_flags(parser, examples, constants):
    """``<subcommand> <flag>`` for every optional flag of ``parser``'s
    subcommands, the model's apart, that neither an example of that
    subcommand (an argv list, subcommand first) nor a string of
    ``constants`` sets, under any of its names."""
    unset = []
    for name, sub in parser._subparsers._group_actions[0].choices.items():
        given = {arg for argv in examples if argv[0] == name for arg in argv}
        for action in sub._actions:
            names = set(action.option_strings)
            if (names and not action.required and action.dest != "help"
                    and not names & {*MODEL_FLAGS, *given, *constants}):
                unset.append(f"{name} {action.option_strings[0]}")
    return unset


def test_every_optional_flag_is_set_outside_tests():
    examples = [shlex.split(line, comments=True)[1:] for line in readme_cli_lines()]
    ops = ast.parse((ROOT / "perfbench" / "ops.py").read_text())
    constants = {node.value for node in ast.walk(ops)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    unset = _unset_flags(cli.build_parser(), examples, constants)
    assert not unset, f"flags that no README example or benchmark operation sets: {unset}"


def test_a_flag_only_the_tests_set_is_caught():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers().add_parser("solve")
    sub.add_argument("--x", required=True)
    sub.add_argument("--output", "-o", default=".")
    sub.add_argument("--theta", type=float, default=1.0)
    sub.add_argument("--tol", type=float, default=1e-9)
    assert _unset_flags(parser, [["solve", "--x", "1", "-o", "out"]], set()) == ["solve --tol"]
    # A benchmark string sets a flag for every subcommand; an example only for its own.
    assert _unset_flags(parser, [["other", "-o", "out"]], {"--tol"}) == ["solve --output"]


def test_only_the_kernel_layer_takes_a_quadrature_spec():
    # The experiments build ``QuadratureSpec()`` at their one kernel call.
    takes = sorted(f"{m}.{fn.name}" for m, tree in _sources()[0].items() for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and "spec" in {arg.arg for arg in ast.walk(fn.args) if isinstance(arg, ast.arg)})
    assert takes == ["kernel.log_densities", "kernel.log_sticky_integral",
                     "ldp.log_target_probability", "quadrature.log_integrate"]


def _numpy_lengths(library):
    """``module:line`` of each use of numpy's ``linalg.norm`` or ``hypot`` in the
    library, an import of them included, ``pathopt`` apart."""
    hits = []
    for m, tree in library.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                names = [_dotted(node)] if isinstance(node, ast.Attribute) else []
            hits += [f"{m}:{node.lineno}" for n in names if m != "pathopt" and n
                     and n.removeprefix("np.").removeprefix("numpy.") in ("linalg.norm", "hypot")]
    return hits


def test_lengths_take_the_one_length_rule():
    # Every Euclidean length of the library is ``geometry._gap``, which does
    # not square a length below ~1e-154 to zero; ``pathopt``, the independent
    # oracle of the path action, keeps its own norm.
    hits = _numpy_lengths(_sources()[0])
    assert not hits, f"numpy lengths outside geometry._gap: {hits}"


def test_a_numpy_length_is_caught():
    library = {"ldp": ast.parse("import numpy as np\nfrom numpy import hypot\n"
                                "def f(v):\n    return np.linalg.norm(v, axis=1)\n"),
               "pathopt": ast.parse("import numpy as np\nn = np.linalg.norm([1.0])\n")}
    assert _numpy_lengths(library) == ["ldp:2", "ldp:4"]


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
