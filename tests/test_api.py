"""Public API hygiene: every exported name resolves, and every public function
or class a module defines is exported, so stale exports cannot survive a
deletion and new public names cannot go unlisted."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import mpemba_thermometry

MODULES = [
    importlib.import_module(f"mpemba_thermometry.{info.name}")
    for info in pkgutil.iter_modules(mpemba_thermometry.__path__)
]


@pytest.mark.parametrize("module", [mpemba_thermometry, *MODULES], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_public_definition_is_exported(module):
    defined = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    unlisted = sorted(defined - set(module.__all__))
    assert not unlisted, f"{module.__name__} defines public names missing from __all__: {unlisted}"


def test_oracle_imports_nothing_from_the_package():
    # the oracle is the independent reference for the closed forms, so it
    # may not reach them, by absolute or relative import
    from mpemba_thermometry import oracle

    tree = ast.parse(inspect.getsource(oracle))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    package = [
        name
        for name in imported
        if name.startswith(".") or name.split(".")[0] == "mpemba_thermometry"
    ]
    assert not package, f"oracle.py imports from the package: {package}"
