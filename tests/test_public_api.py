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


def _defined_names(node: ast.stmt) -> set[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def _modules_and_names_read() -> tuple[dict[str, list[ast.stmt]], set[str]]:
    """Each module's top-level statements, and every name read in src/polyselect
    outside the statement that defines it; __init__.py's re-exports do not count."""
    package = Path(polyselect.__file__).parent
    modules = {p.stem: ast.parse(p.read_text()).body for p in package.glob("*.py") if p.name != "__init__.py"}
    read = set()
    for body in modules.values():
        for node in body:
            inside = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)) or isinstance(n, ast.Attribute)
            }
            read |= inside - _defined_names(node)
    return modules, read


def test_every_public_name_has_a_caller_in_the_package():
    # every option needs a caller: a name in a layer's __all__ is read somewhere in
    # src/polyselect outside its own definition
    _, read = _modules_and_names_read()
    uncalled = [
        f"{layer}.{name}"
        for layer in LAYERS
        for name in importlib.import_module(f"polyselect.{layer}").__all__
        if name not in read
    ]
    assert uncalled == []


def test_every_module_level_name_has_a_caller_in_the_package():
    # the same rule for every def, class and assignment at module level, private
    # names included, so a helper only the tests call is caught too
    modules, read = _modules_and_names_read()
    unread = [
        f"{module}.{name}"
        for module, body in modules.items()
        for node in body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign))
        for name in _defined_names(node)
        if name != "__all__" and name not in read
    ]
    assert unread == []


def _defaulted_parameters(node: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position or None for keyword-only, name) of each parameter with a default."""
    positional = node.args.posonlyargs + node.args.args
    first = len(positional) - len(node.args.defaults)
    params = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    return params + [(None, a.arg) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None]


def _passed_arguments(modules: dict[str, list[ast.stmt]]) -> dict[str, set]:
    """Called name -> the positions and keywords passed at some call in src/polyselect;
    "*" where a call passes *args or **kwargs, which pass every parameter."""
    passed: dict[str, set] = {}
    for body in modules.values():
        for call in (n for node in body for n in ast.walk(node) if isinstance(n, ast.Call)):
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            seen = passed.setdefault(name, set())
            seen.update(range(len(call.args)))
            seen.update(k.arg for k in call.keywords if k.arg is not None)
            if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
                seen.add("*")
    return passed


def test_every_defaulted_parameter_has_a_caller_in_the_package():
    # every option needs a caller: each parameter with a default of a module-level
    # function is passed, by position or keyword, at some call site in src/polyselect
    modules, _ = _modules_and_names_read()
    passed = _passed_arguments(modules)
    unpassed = [
        f"{module}.{node.name}({name})"
        for module, body in modules.items()
        for node in body
        # main(argv=None) is the console-script entry, which the installed script calls bare
        if isinstance(node, ast.FunctionDef) and (module, node.name) != ("cli", "main")
        for position, name in _defaulted_parameters(node)
        if not passed.get(node.name, set()) & {"*", position, name}
    ]
    assert unpassed == []


def _defaulted_fields(node: ast.ClassDef) -> list[tuple[int, str]]:
    """(position, name) of each field with a default, if node is a dataclass; else none."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
        return []
    fields = [n for n in node.body if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]

    def has_default(value: ast.expr | None) -> bool:
        # field(...) gives a default only through default= or default_factory=
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            return any(k.arg in ("default", "default_factory") for k in value.keywords)
        return value is not None

    return [(i, f.target.id) for i, f in enumerate(fields) if has_default(f.value)]


def test_every_defaulted_dataclass_field_has_a_caller_in_the_package():
    # every option needs a caller: each field with a default of a package dataclass
    # is set somewhere in src/polyselect, by position or keyword at a call of its
    # class, or by keyword in a replace call
    modules, _ = _modules_and_names_read()
    passed = _passed_arguments(modules)
    replaced = {k for k in passed.get("replace", set()) if not isinstance(k, int)}
    unset = [
        f"{module}.{node.name}.{name}"
        for module, body in modules.items()
        for node in body
        if isinstance(node, ast.ClassDef)
        for position, name in _defaulted_fields(node)
        if not (passed.get(node.name, set()) | replaced) & {"*", position, name}
    ]
    assert unset == []
