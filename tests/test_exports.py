"""The package's export lists name only what exists.

Every name in a module's ``__all__`` must be defined there, and every name
the package ``__init__`` re-exports must be in its module's ``__all__``, so
that a deleted function or type cannot linger in either list.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import stickybm

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
