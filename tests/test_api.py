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


def package_imports(module) -> list[str]:
    """Every package module ``module`` imports, by absolute or relative import."""
    tree = ast.parse(inspect.getsource(module))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            # ``from . import qubit`` names the module in its aliases
            imported += ["." * node.level + alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + node.module)
    return [
        name
        for name in imported
        if name.startswith(".") or name.split(".")[0] == "mpemba_thermometry"
    ]


def test_oracle_imports_nothing_from_the_package():
    # the oracle is the independent reference for the closed forms, so it
    # may not reach them
    from mpemba_thermometry import oracle

    package = package_imports(oracle)
    assert not package, f"oracle.py imports from the package: {package}"


def test_protocol_imports_no_model_module():
    # the protocol reads its model from a probe_at(T) -> ProbePair factory,
    # so no model's closed forms are reached from it directly
    from mpemba_thermometry import protocol

    models = [
        name
        for name in package_imports(protocol)
        if name.rsplit(".", 1)[-1] in ("qubit", "spectral")
    ]
    assert not models, f"protocol.py imports model modules: {models}"
