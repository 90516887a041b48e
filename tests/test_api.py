"""Public API hygiene: every exported name resolves, every public function
or class a module defines is exported, and every public function is named
outside its module, so stale exports cannot survive a deletion, new public
names cannot go unlisted and no export lives without a caller.  No module
but ``grids`` writes a scalar parameter rule by hand.  The counts of
``tools/surface_counts.py`` are checked against the imported package."""

import ast
import importlib.util
import inspect
import json
import pkgutil
import subprocess
import sys
from functools import cache
from pathlib import Path

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


ROOT = Path(__file__).resolve().parent.parent


PACKAGE_MODULES = frozenset(module.__name__.rsplit(".", 1)[-1] for module in MODULES)


def module_names(tree: ast.Module) -> set[str]:
    """The local names an import binds to the package or one of its modules."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``, ``import a.b as c`` binds ``c``
            bound.update(
                alias.asname or "mpemba_thermometry"
                for alias in node.names
                if alias.name.split(".")[0] == "mpemba_thermometry"
            )
        elif isinstance(node, ast.ImportFrom) and (
            node.level == 1 and node.module is None
            or node.level == 0 and node.module == "mpemba_thermometry"
        ):
            bound.update(
                alias.asname or alias.name for alias in node.names if alias.name in PACKAGE_MODULES
            )
    return bound


@cache
def caller_names(path: Path) -> frozenset[str]:
    """The identifiers ``path`` names as a caller can: ``Name`` nodes, the imported
    name and local name of each import alias, and an ``Attribute`` attr only on a
    name that an import binds to a package module, as in ``spectral.decompose``.
    A field read such as ``amps.dT_amplitudes`` names no function."""
    tree = ast.parse(path.read_text())
    modules = module_names(tree)
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update({node.name.rsplit(".", 1)[-1], node.asname or node.name})
    return frozenset(named)


@cache
def referenced_names(path: Path) -> frozenset[str]:
    """The identifiers ``path`` names: its :func:`caller_names` and every
    ``Attribute`` attr."""
    tree = ast.parse(path.read_text())
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return caller_names(path) | attributes


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_public_function_has_a_caller_outside_its_module(module):
    # a function only its own module (or the package's re-exports) names is
    # a setting without a caller: it should be private or gone
    own = ROOT / "src" / Path(*module.__name__.split(".")).with_suffix(".py")
    outside = set()
    for folder in ("src", "perfbench", "tests"):
        for path in (ROOT / folder).rglob("*.py"):
            if path != own and path.name != "__init__.py":
                outside |= caller_names(path)
    public = [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    ]
    uncalled = sorted(set(public) - outside)
    assert not uncalled, f"{module.__name__} exports functions nothing else names: {uncalled}"


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


def private_imports(module) -> list[str]:
    """Underscore-prefixed names ``module`` takes from another package module.

    Both ``from .qubit import _rate`` and ``qb._rate`` after ``from . import
    qubit as qb`` count.
    """
    tree = ast.parse(inspect.getsource(module))
    taken = []
    module_aliases = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = "." * node.level + (node.module or "")
        if not (node.level or source.split(".")[0] == "mpemba_thermometry"):
            continue
        for alias in node.names:
            if node.module is None:
                module_aliases.add(alias.asname or alias.name)
            elif alias.name.startswith("_"):
                taken.append(f"{source}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_aliases
            and node.attr.startswith("_")
        ):
            taken.append(f"{node.value.id}.{node.attr}")
    return taken


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_module_imports_private_names_of_another(module):
    # a module's underscore names are its own; a caller uses the public ones
    taken = private_imports(module)
    assert not taken, f"{module.__name__} takes private names: {taken}"


# the wording of the scalar parameter rules of ``grids``, each followed by the value
RULE_WORDINGS = ("must be positive, got ", "must be non-negative, got ", "must lie in [0, 1], got ")


def hand_written_rules(module) -> list[str]:
    """Lines where ``module`` raises ``ValueError`` with a rule's wording of its own:
    an f-string whose literal text ends in a wording directly before a formatted value."""
    flagged = []
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if not (
            isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name)
            and node.exc.func.id == "ValueError"
        ):
            continue
        strings = [arg for arg in node.exc.args if isinstance(arg, ast.JoinedStr)]
        parts = [part for string in strings for part in string.values]
        if any(
            isinstance(text, ast.Constant)
            and isinstance(value, ast.FormattedValue)
            and text.value.endswith(RULE_WORDINGS)
            for text, value in zip(parts, parts[1:])
        ):
            flagged.append(node.lineno)
    return [f"{module.__name__}:{line}" for line in sorted(flagged)]


@pytest.mark.parametrize(
    "module",
    [module for module in MODULES if not module.__name__.endswith(".grids")],
    ids=lambda m: m.__name__,
)
def test_scalar_parameters_are_checked_by_the_grids_rules(module):
    # a positivity, sign or probability check written by hand is another
    # copy of a rule; four such copies compared with < or <= and let NaN through
    flagged = hand_written_rules(module)
    assert not flagged, f"hand-written parameter rules at {flagged}; use the grids rules"


def test_oracle_imports_nothing_from_the_package():
    # the oracle is the independent reference for the closed forms, so it
    # may not reach them
    from mpemba_thermometry import oracle

    package = package_imports(oracle)
    assert not package, f"oracle.py imports from the package: {package}"


def test_importing_the_cli_leaves_the_oracle_unloaded():
    # the oracle is test support: no module on the command line's import
    # graph reaches it; a fresh interpreter shows what the import loads
    src = Path(mpemba_thermometry.__file__).resolve().parent.parent
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import mpemba_thermometry.cli; "
        "print(sorted(name for name in sys.modules if name.startswith('mpemba_thermometry')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    loaded = ast.literal_eval(done.stdout)
    assert "mpemba_thermometry.cli" in loaded
    assert "mpemba_thermometry.oracle" not in loaded


def test_grids_imports_nothing_from_the_package():
    # every module checks its times and grids there, the model modules and
    # the model-free ones (mpemba, protocol) alike, so it must stay a leaf
    from mpemba_thermometry import grids

    package = package_imports(grids)
    assert not package, f"grids.py imports from the package: {package}"


def test_the_bath_imports_only_grids_and_spectral_nothing_from_qubit():
    # the bath is the one home of the occupation and the Gibbs weights, so the
    # generator builders reach it without the qubit's feedback law
    from mpemba_thermometry import bath, spectral

    assert package_imports(bath) == [".grids"]
    from_qubit = [name for name in package_imports(spectral) if name.endswith("qubit")]
    assert not from_qubit, f"spectral.py imports {from_qubit}"


def test_every_module_binds_the_bath_functions_of_bath():
    # one definition each: a module that holds a bath name holds bath's object
    from mpemba_thermometry import bath

    for module in [mpemba_thermometry, *MODULES]:
        for name in bath.__all__:
            value = getattr(module, name, None)
            assert value is None or value is getattr(bath, name), f"{module.__name__}.{name}"


def model_imports(module) -> list[str]:
    """The model modules (``qubit``, ``spectral``) among ``module``'s package imports."""
    models = ("qubit", "spectral")
    return [name for name in package_imports(module) if name.rsplit(".", 1)[-1] in models]


def test_protocol_imports_no_model_module():
    # the protocol reads its model from a probe_at(T) -> ProbePair factory
    # and from closures over one Probe per temperature, so no model's closed
    # forms are reached from it directly
    from mpemba_thermometry import protocol

    models = model_imports(protocol)
    assert not models, f"protocol.py imports model modules: {models}"


def test_cli_binds_no_qubit_closed_form():
    # the command line reaches the qubit's closed forms through the probe
    # builders of ``instances`` only, so every command reads them one way
    from mpemba_thermometry import cli

    closed_forms = {
        "evolve_population",
        "dT_population",
        "gibbs_population_qubit",
        "qfi_qubit_closed_form",
        "qfi_equilibrium",
    }
    named = referenced_names(Path(inspect.getfile(cli)))
    assert not named & closed_forms, f"cli.py names {sorted(named & closed_forms)}"


def test_cli_builds_no_float_table_by_hand():
    # every float table goes through the block writer ``_csv``, which formats
    # a constant or shared column once; stacking or repeating columns first
    # would format the same value again on every row
    from mpemba_thermometry import cli

    stackers = {"column_stack", "vstack", "full", "repeat", "tile"}
    called = {
        node.func.attr
        for node in ast.walk(ast.parse(inspect.getsource(cli)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
    }
    assert not called & stackers, f"cli.py calls np.{sorted(called & stackers)}"


def test_mpemba_imports_no_model_module():
    # detection and the gain bookkeeping work on callables and values, so the
    # qubit's exact crossing time lives with the tests that check against it
    from mpemba_thermometry import mpemba

    models = model_imports(mpemba)
    assert not models, f"mpemba.py imports model modules: {models}"


def load_surface_counts():
    path = ROOT / "tools" / "surface_counts.py"
    spec = importlib.util.spec_from_file_location("surface_counts", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def defaulted_parameters(function) -> int:
    parameters = inspect.signature(function).parameters.values()
    return sum(parameter.default is not inspect.Parameter.empty for parameter in parameters)


def test_the_surface_counts_agree_with_the_imported_package():
    # the tool reads the source as text; each count is checked here by another route
    counts = load_surface_counts().counts()
    package = ROOT / "src" / "mpemba_thermometry"
    lines = {path.name: len(path.read_text().splitlines()) for path in package.glob("*.py")}
    assert counts["lines"] == lines
    assert counts["lines_total"] == sum(lines.values())
    assert counts["exports"] == sum(len(module.__all__) for module in MODULES)
    defaulted = 0
    for module in MODULES:
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                defaulted += defaulted_parameters(obj)
            elif inspect.isclass(obj):
                defaulted += sum(
                    defaulted_parameters(method)
                    for method_name, method in vars(obj).items()
                    if not method_name.startswith("_") and inspect.isfunction(method)
                )
    assert counts["defaulted_parameters"] == defaulted


def test_the_surface_counts_print_the_same_bytes_twice():
    command = [sys.executable, str(ROOT / "tools" / "surface_counts.py")]
    first, second = (
        subprocess.run(command, capture_output=True, check=True, timeout=60).stdout
        for _ in range(2)
    )
    assert first == second
    assert json.loads(first) == load_surface_counts().counts()
