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
draws at a sixteenth of the cost. Every defaulted parameter of a
function or constructor is passed by some caller: a default that no call
overrides is a constant, and is written as one. No module imports a name
it never reads."""

import ast
from pathlib import Path

import moldiff

PACKAGE = Path(moldiff.__file__).parent
TESTS = Path(__file__).parent


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


def _name_of(node) -> str | None:
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(_name_of(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in cls.decorator_list)


def defaulted_parameters(path: Path) -> list[tuple[str, str, int | None]]:
    """(callee, parameter, position) for each defaulted parameter of a
    module-level function or of a module-level class's ``__init__``. The
    position is the index of the call argument that fills it (``self`` is
    not counted), None for a keyword-only parameter. Dataclasses are
    skipped: their ``__init__`` is generated from the fields."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in tree.body:
        fn, skip = (node, 0) if isinstance(node, ast.FunctionDef) else (None, 1)
        if isinstance(node, ast.ClassDef) and not _is_dataclass(node):
            fn = next((item for item in node.body if isinstance(item, ast.FunctionDef)
                       and item.name == "__init__"), None)
        if fn is None:
            continue
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        found += [(node.name, arg.arg, i - skip)
                  for i, arg in enumerate(positional[first:], first)]
        found += [(node.name, arg.arg, None)
                  for arg, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return found


def call_shapes(path: Path) -> dict[str, list[tuple[int, set]]]:
    """For each name a module calls, by bare name or as an attribute, the
    (positional argument count, keywords) of each call. A ``*args`` call
    counts as passing every position, and a ``**kwargs`` one has the
    keyword None. ``super().__init__(...)`` is a call to each base of its
    class."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bases = {}  # call id -> the bases of the innermost class around it
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in ast.walk(cls):
                bases[id(node)] = [_name_of(b) for b in cls.bases]
    shapes: dict[str, list[tuple[int, set]]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr == "__init__"
                and isinstance(f.value, ast.Call) and _name_of(f.value.func) == "super"):
            names = bases.get(id(node), [])
        else:
            names = [_name_of(f)]
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        shape = (float("inf") if starred else len(node.args), {k.arg for k in node.keywords})
        for name in names:
            shapes.setdefault(name, []).append(shape)
    return shapes


def defaults_without_a_caller(modules: Path, callers: list[Path]) -> set[str]:
    """``module::callee(parameter)`` for each defaulted parameter of the
    modules under ``modules`` that no call in a module under ``callers``
    passes, by keyword or by position. Calls match by name only, so a call
    to another function of the same name also counts."""
    shapes: dict[str, list[tuple[int, set]]] = {}
    for root in callers:
        for path in sorted(root.rglob("*.py")):
            for name, found in call_shapes(path).items():
                shapes.setdefault(name, []).extend(found)
    return {f"{path.relative_to(modules).as_posix()}::{callee}({param})"
            for path in sorted(modules.rglob("*.py"))
            for callee, param, position in defaulted_parameters(path)
            if not any((position is not None and position < npos) or param in keywords
                       or None in keywords for npos, keywords in shapes.get(callee, []))}


def test_every_default_has_a_caller():
    assert defaults_without_a_caller(PACKAGE, [PACKAGE, TESTS]) == set()


def test_a_default_without_a_caller_is_caught(tmp_path):
    pkg, users = tmp_path / "pkg", tmp_path / "users"
    pkg.mkdir()
    users.mkdir()
    (pkg / "m.py").write_text(
        "from dataclasses import dataclass\n\n"
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n"
        "def g(a=1, b=2):\n    pass\n\n"
        "def h(a=1):\n    pass\n\n"
        "class A:\n    def __init__(self, x, y=1, z=2):\n        pass\n\n"
        "    def method(self, w=1):\n        pass\n\n"
        "class B(A):\n    def __init__(self, v=0):\n        super().__init__(v, 5)\n\n"
        "@dataclass\nclass D:\n    k: int = 0\n")
    (users / "u.py").write_text(
        "import m\n\nm.f(0, 1, d=2)\ng(*[1, 2])\nh(**{})\nm.B()\n")
    assert defaults_without_a_caller(pkg, [pkg, users]) == {
        "m.py::f(c)", "m.py::f(e)", "m.py::A(z)", "m.py::B(v)"}
    # the package's own calls count
    (pkg / "n.py").write_text("from m import A, B, f\nA(0, z=1)\nB(v=1)\nf(0, 1, 2, e=0)\n")
    assert defaults_without_a_caller(pkg, [pkg, users]) == set()


def unused_imports(path: Path) -> set[str]:
    """The names a module's imports bind that the module never reads;
    ``from __future__`` imports are left out."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    return bound - {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_no_module_imports_a_name_it_never_reads():
    # a package __init__ imports names to re-export them
    found = {f"{root.name}/{path.relative_to(root).as_posix()}::{name}"
             for root in (PACKAGE, TESTS) for path in sorted(root.rglob("*.py"))
             if path.name != "__init__.py" for name in unused_imports(path)}
    assert found == set()


def test_an_unused_import_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n\nimport os\nimport os.path as osp\n"
                      "import xml.etree.ElementTree\nfrom json import dumps, loads as read\n\n"
                      "def f(x: dumps) -> None:\n    return xml.etree.ElementTree.XML(x)\n\n"
                      "os = 1\n")
    assert unused_imports(module) == {"os", "osp", "read"}
    module.write_text("import numpy as np\nfrom a import b\n\nx = np.zeros(b)\n")
    assert unused_imports(module) == set()
