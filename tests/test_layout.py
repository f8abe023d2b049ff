"""Where rules live. Every part lists its trainable tensors through the
one walk on ``gnn.Module``: a class that wrote its own ``named_params``
could leave a sub-network out, and that sub-network would then be neither
trained nor saved. SMILES files are parsed by the one reader in
``chem/dataset.py``, so a training file and a candidates file follow one
line rule. A run's seed streams come from the one table in
``harness/train.py``, so two modules cannot share a stream by index."""

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


def calls_to(path: Path, names: set[str]) -> set[str]:
    """The functions of ``names`` that a module calls, by bare name or as an
    attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    called = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return called & names


def modules_calling(names: set[str]) -> set[str]:
    return {path.relative_to(PACKAGE).as_posix() for path in sorted(PACKAGE.rglob("*.py"))
            if calls_to(path, names)}


def test_smiles_is_parsed_by_the_dataset_reader_only():
    assert modules_calling({"parse_smiles"}) == {"chem/dataset.py"}


def test_seed_streams_are_spawned_by_train_only():
    assert modules_calling({"SeedSequence", "spawn"}) == {"harness/train.py"}


def test_a_second_caller_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import numpy as np\nfrom moldiff.chem import parse_smiles\n\n"
                      "def f(seed):\n    return np.random.SeedSequence(seed).spawn(2)\n\n"
                      "mol = parse_smiles('CCO')\nread = parse_smiles\n")
    names = {"parse_smiles", "SeedSequence", "spawn", "default_rng"}
    assert calls_to(module, names) == {"parse_smiles", "SeedSequence", "spawn"}
    module.write_text("from moldiff.chem import parse_smiles\nread = parse_smiles\n")
    assert calls_to(module, names) == set()
