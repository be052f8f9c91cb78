import importlib
import inspect

import pytest

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
