"""Where rules live: every part lists its trainable tensors through the
one walk on ``gnn.Module``. A class that wrote its own ``named_params``
could leave a sub-network out, and that sub-network would then be neither
trained nor saved."""

import ast
from pathlib import Path

import moldiff

PACKAGE = Path(moldiff.__file__).parent


def classes_defining(path: Path, method: str) -> set[str]:
    """The classes of a module whose own body defines ``method``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and any(isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == method for item in node.body)}


def test_named_params_is_defined_on_module_only():
    found = {f"{path.relative_to(PACKAGE)}::{name}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for name in classes_defining(path, "named_params")}
    assert found == {"gnn.py::Module"}


def test_a_second_definition_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("class A:\n    def named_params(self):\n        return []\n\n"
                      "class B:\n    class C:\n        def named_params(self):\n"
                      "            return []\n\ndef named_params():\n    return []\n")
    assert classes_defining(module, "named_params") == {"A", "C"}
