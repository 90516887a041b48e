"""Count the package's surface: its lines, its exports and its settable defaults.

Usage, from the root of a checkout::

    python tools/surface_counts.py > counts.json

It reads ``src/mpemba_thermometry/*.py`` as text and imports nothing from the
package.  The output is one JSON object:

- ``lines``: lines per module, as ``wc -l`` counts them (newline characters);
- ``lines_total``: their sum, the total ``wc -l`` prints;
- ``exports``: the sum of ``len(__all__)`` over the modules except ``__init__``;
- ``defaulted_parameters``: the parameters with a default, positional or
  keyword-only, of the public module-level functions and of the public
  methods of the public classes, over the modules except ``__init__``.  A
  dataclass field default is not a parameter of any written method, so it
  does not count.

A name is public when it does not start with an underscore.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mpemba_thermometry"


def _exports(tree: ast.Module) -> int:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return len(node.value.elts)
    return 0


def _defaults(function: ast.FunctionDef) -> int:
    args = function.args
    return len(args.defaults) + sum(default is not None for default in args.kw_defaults)


def _defaulted_parameters(tree: ast.Module) -> int:
    count = 0
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            count += _defaults(node)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            count += sum(
                _defaults(method)
                for method in node.body
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
            )
    return count


def counts() -> dict[str, object]:
    """The surface counts of the package's modules."""
    lines = {}
    exports = defaulted = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_bytes()
        lines[path.name] = text.count(b"\n")
        if path.name != "__init__.py":
            tree = ast.parse(text)
            exports += _exports(tree)
            defaulted += _defaulted_parameters(tree)
    return {
        "lines": lines,
        "lines_total": sum(lines.values()),
        "exports": exports,
        "defaulted_parameters": defaulted,
    }


if __name__ == "__main__":
    if len(sys.argv) != 1:
        raise SystemExit("usage: python tools/surface_counts.py")
    json.dump(counts(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
