"""numpy is the only runtime dependency: every import in the package is of
the standard library, numpy or moldiff itself. A stray import of a package
that happens to be installed (scipy, say) would pass every other test."""

import ast
import sys
from pathlib import Path

import moldiff

ALLOWED = {"numpy", "moldiff"}
PACKAGE = Path(moldiff.__file__).parent


def imported_packages(path: Path) -> set[str]:
    """The top-level package of every import in a module, at any depth of
    its code; a relative import counts as moldiff."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.add("moldiff" if node.level else node.module.split(".")[0])
    return out


def test_only_stdlib_numpy_and_moldiff():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    foreign = {str(path.relative_to(PACKAGE)): sorted(names)
               for path in modules
               if (names := imported_packages(path) - ALLOWED - sys.stdlib_module_names)}
    assert foreign == {}


def test_a_foreign_import_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nfrom . import flows\n\ndef f():\n"
                      "    from scipy.optimize import linear_sum_assignment\n")
    assert imported_packages(module) - ALLOWED - sys.stdlib_module_names == {"scipy"}
