import ast
import importlib
import inspect
from pathlib import Path

import pytest

import polyselect

# the layers perfbench times one by one, each through the names in its __all__
LAYERS = ("core", "tasks", "selection", "kernels", "prototypes", "theory", "boolefn", "bench")


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_resolve_and_functions_stay_plain(layer):
    module = importlib.import_module(f"polyselect.{layer}")
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert hasattr(module, name), name
        obj = getattr(module, name)
        # layer tracing wraps only objects that inspect.isfunction accepts
        if callable(obj) and not inspect.isclass(obj):
            assert inspect.isfunction(obj), name


def test_package_reexports_only_public_names():
    # a name dropped from a module's __all__ must also leave polyselect/__init__.py
    tree = ast.parse(Path(polyselect.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, node.module
        module = importlib.import_module(f"polyselect.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
