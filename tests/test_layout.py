"""Where rules live. Every part lists its trainable tensors through the
one walk on ``gnn.Module``: a class that wrote its own ``named_params``
could leave a sub-network out, and that sub-network would then be neither
trained nor saved. SMILES files are parsed by the one reader in
``chem/dataset.py``, so a training file and a candidates file follow one
line rule. A run's seed streams come from the one table in
``harness/train.py``, so two modules cannot share a stream by index. No
module reads ``Dataset.size_histogram``: atom counts are drawn from the
molecules that trained the flow, not from the whole dataset. No module
calls ``choice`` with weights: a weighted draw goes through
``chem.Categorical``, whose table lookup draws what ``rng.choice(a, p=p)``
draws at a sixteenth of the cost."""

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


def attributes_read(path: Path, names: set[str]) -> set[str]:
    """The attributes of ``names`` that a module reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)} & names


def weighted_calls(path: Path, names: set[str]) -> set[str]:
    """The functions of ``names`` that a module calls with a ``p`` argument,
    by keyword or as ``choice``'s fourth positional argument."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (len(node.args) >= 4 or any(k.arg == "p" for k in node.keywords))} & names


def modules_where(find, names: set[str]) -> set[str]:
    """The modules in which ``find(path, names)`` finds one of ``names``."""
    return {path.relative_to(PACKAGE).as_posix() for path in sorted(PACKAGE.rglob("*.py"))
            if find(path, names)}


def test_smiles_is_parsed_by_the_dataset_reader_only():
    assert modules_where(calls_to, {"parse_smiles"}) == {"chem/dataset.py"}


def test_seed_streams_are_spawned_by_train_only():
    assert modules_where(calls_to, {"SeedSequence", "spawn"}) == {"harness/train.py"}


def test_no_module_reads_the_size_histogram():
    assert modules_where(attributes_read, {"size_histogram"}) == set()


def test_no_module_draws_with_choice_weights():
    assert modules_where(weighted_calls, {"choice"}) == set()


def test_a_weighted_choice_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def f(rng, w):\n    return rng.choice(4, p=w)\n")
    assert weighted_calls(module, {"choice"}) == {"choice"}
    module.write_text("import numpy as np\nx = np.random.choice([1, 2], 1, True, [0.5, 0.5])\n")
    assert weighted_calls(module, {"choice"}) == {"choice"}
    module.write_text("def f(rng, n, k):\n    return rng.choice(n, size=k, replace=False)\n\n"
                      "def g(rng, w):\n    return rng.integers(3, p=w)\n")
    assert weighted_calls(module, {"choice"}) == set()


def test_a_second_caller_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import numpy as np\nfrom moldiff.chem import parse_smiles\n\n"
                      "def f(seed):\n    return np.random.SeedSequence(seed).spawn(2)\n\n"
                      "mol = parse_smiles('CCO')\nread = parse_smiles\n")
    names = {"parse_smiles", "SeedSequence", "spawn", "default_rng"}
    assert calls_to(module, names) == {"parse_smiles", "SeedSequence", "spawn"}
    module.write_text("from moldiff.chem import parse_smiles\nread = parse_smiles\n")
    assert calls_to(module, names) == set()


def test_an_attribute_read_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def f(pipe):\n    return pipe.dataset.size_histogram[3]\n")
    assert attributes_read(module, {"size_histogram", "sizes"}) == {"size_histogram"}
    # a field declaration, a keyword and an assignment read nothing
    module.write_text("class D:\n    size_histogram: dict\n\n"
                      "d = D(size_histogram={})\nd.size_histogram = {}\n")
    assert attributes_read(module, {"size_histogram"}) == set()
