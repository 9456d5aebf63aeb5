"""Every module of the package (but the __init__ re-exports), of the benchmark and
of the tests uses each name it imports, every module of the package and of the
benchmark reads each private top-level name it defines, the package, the
benchmark or the entry point reads each public top-level name of the package,
some expression of the package or its tests reads each dataclass field of the
package, every function the benchmark's tracer wraps exists in its module, every
name of qlasso.__all__ resolves, no module branches on the type of a signal
structure or of a quantizer, every structure has check, gauge, draw, project and
width_bound, whose draw and width_bound raise at n = 0 just what its check does,
and the float32 +-1 panel stays behind the trial engine: only ensemble and
experiment name the ensembles' dtypes, and the channel imports no draw."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "qlasso").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))  # read as text, never imported
MODULES = [p for p in PACKAGE if p.name != "__init__.py"] + BENCH + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by import statements of `source` that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_guard_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom math import pi, tau\nprint(sys.argv, pi)\n") == [
        "os (line 1)",
        "tau (line 3)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def top_level_names(tree: ast.Module) -> dict:
    """{name: line} of the functions, classes and constants a module defines at its top level."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    return defined


def dead_private_names(source: str) -> list:
    """Top-level functions, classes and constants of `source` named with a leading
    underscore (dunders aside) that no expression of `source` reads."""
    tree = ast.parse(source)
    defined = top_level_names(tree)
    read = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return sorted(
        f"{name} (line {line})" for name, line in defined.items()
        if name.startswith("_") and not name.endswith("__") and name not in read
    )


def test_guard_finds_a_dead_private_name():
    source = "def _used():\n    pass\ndef _dead():\n    pass\nclass _Gone:\n    pass\n" \
             "_K = 1\n_UNREAD: int = 2\n__version__ = '1'\nprint(_used(), _K)\n"
    assert dead_private_names(source) == ["_Gone (line 5)", "_UNREAD (line 8)", "_dead (line 3)"]


@pytest.mark.parametrize("path", PACKAGE + BENCH, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_dead_private_names(path):
    assert dead_private_names(path.read_text()) == []


def unread_public_names(sources: dict, texts=()) -> list:
    """Public top-level names of the modules `sources` ({module: source}) that no expression of
    any of them reads as a name or attribute and no word of the `texts` names."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    read |= {word for text in texts for word in re.findall(r"\w+", text)}
    return sorted(
        f"{module}.{name} (line {line})" for module, tree in trees.items()
        for name, line in top_level_names(tree).items() if not name.startswith("_") and name not in read
    )


def test_guard_finds_a_test_only_name():
    sources = {"a": "def used():\n    pass\ndef only_tests():\n    pass\nLIMIT = 1\n_private = 2\n",
               "b": "from a import used\nimport a\nprint(used(), a.LIMIT)\ndef traced():\n    pass\n"}
    assert unread_public_names(sources, ['TRACED = {"b": ("traced",)}']) == ["a.only_tests (line 3)"]


def test_no_test_only_public_names():
    # a public name that only tests read is reference API the program does not need; the
    # benchmark's tracer and the entry point name functions as strings, so they count as text
    sources = {path.stem: path.read_text() for path in PACKAGE}
    texts = [path.read_text() for path in BENCH] + [(ROOT / "pyproject.toml").read_text()]
    assert unread_public_names(sources, texts) == []


def dead_fields(source: str, readers=()) -> list:
    """Fields of the dataclasses of `source` that no expression of `source` or of
    a `readers` source reads as an attribute."""
    tree = ast.parse(source)
    fields = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            getattr(d, "id", None) == "dataclass" or getattr(getattr(d, "func", None), "id", None) == "dataclass"
            for d in node.decorator_list
        ):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    fields[f"{node.name}.{stmt.target.id}"] = stmt.lineno
    read = {
        node.attr for text in (source, *readers) for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(f"{name} (line {line})" for name, line in fields.items() if name.split(".")[1] not in read)


def test_guard_finds_a_dead_field():
    source = "from dataclasses import dataclass\n@dataclass(frozen=True)\nclass P:\n    x: int\n    y: int = 0\n" \
             "@dataclass\nclass Q:\n    z: int\nclass Plain:\n    w: int\np = P(1)\np.y = 2\nprint(p.x)\n"
    assert dead_fields(source) == ["P.y (line 5)", "Q.z (line 8)"]
    assert dead_fields(source, ["print(q.z, q.y)"]) == []


READERS = [p.read_text() for p in PACKAGE + sorted((ROOT / "tests").glob("*.py"))]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_dead_fields(path):
    assert dead_fields(path.read_text(), READERS) == []


def traced_names() -> dict:
    """TRACED of perfbench/child.py, {module: function names}, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/child.py assigns no TRACED")


TRACED = traced_names()


@pytest.mark.parametrize("module", sorted(TRACED))
def test_traced_names_exist(module):
    # the tracer looks each name up with getattr, so a missing one breaks trace mode
    mod = importlib.import_module(module)
    assert [name for name in TRACED[module] if not hasattr(mod, name)] == []


def test_every_export_resolves():
    # the lazy export table is kept by hand, so it can outlive a function it names
    import qlasso

    assert [name for name in qlasso.__all__ if not hasattr(qlasso, name)] == []


def type_dispatches(source: str, classes) -> list:
    """The isinstance calls of `source` whose class argument names one of `classes`, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            named = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
            found += [f"{name} (line {node.lineno})" for name in sorted(named & set(classes))]
    return found


def test_guard_finds_a_type_dispatch():
    source = "if isinstance(k, Sparse):\n    pass\nok = isinstance(q, (int, quantizer.OneBitQuantizer))\n" \
             "isinstance(x, float)\nSparse(3)\n"
    assert type_dispatches(source, ("Sparse", "OneBitQuantizer")) == ["Sparse (line 1)", "OneBitQuantizer (line 3)"]


# {classes: the one module that may branch on them, or None for none}; every other module reads what
# the classes own (a structure's project, gauge, draw, check and width_bound, a quantizer's dither, quantize and mu)
# instead of deciding it again
DISPATCH_OWNERS = {("Sparse", "LowRank"): None, ("UniformQuantizer", "OneBitQuantizer"): None}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_type_dispatch_outside_its_module(path):
    source = path.read_text()
    assert [found for classes, owner in DISPATCH_OWNERS.items() if path.name != owner
            for found in type_dispatches(source, classes)] == []


def test_every_structure_owns_its_rules():
    # a structure of the ensemble (a dataclass with a projection) brings every rule the others read from it,
    # so a new one cannot ship without, say, its width bound
    from qlasso import ensemble

    structures = [c for c in vars(ensemble).values() if dataclasses.is_dataclass(c) and hasattr(c, "project")]
    assert {"Sparse", "LowRank"} <= {c.__name__ for c in structures}
    assert [f"{c.__name__}.{rule}" for c in structures for rule in ("check", "gauge", "draw", "project", "width_bound")
            if not callable(getattr(c, rule, None))] == []


def test_every_method_taking_n_runs_the_structures_check():
    # a structure's check(n) is its whole rule, so each of its methods that takes n raises just what check(n) raises
    from qlasso import ensemble, substream

    for c in [c for c in vars(ensemble).values() if dataclasses.is_dataclass(c) and hasattr(c, "project")]:
        K = c(**{field.name: 1 for field in dataclasses.fields(c)})
        with pytest.raises(ValueError) as expected:
            K.check(0)
        for call in (lambda: K.draw(0, 1.0, substream(0, "guard")), lambda: K.width_bound(0)):
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == str(expected.value), c.__name__


def named(source: str) -> set:
    """Every name `source` defines, imports, reads or reads as an attribute."""
    return {getattr(node, attr) for node in ast.walk(ast.parse(source)) for attr in ("id", "name", "attr")
            if isinstance(getattr(node, attr, None), str)}


def test_guard_names_a_definition_an_import_and_a_read():
    assert {"f", "g", "h", "k"} <= named("from m import f\ndef g():\n    pass\nh(m.k)\n")


def test_float32_panels_stay_in_the_engine():
    # the ensembles' dtypes (ENSEMBLES) are named by the draw and the engine alone, and the channel
    # reads nothing of the draw: quantizer imports only the positivity rule from ensemble
    assert [path.name for path in PACKAGE if "ENSEMBLES" in named(path.read_text())] == ["ensemble.py", "experiment.py"]
    tree = ast.parse((ROOT / "src" / "qlasso" / "quantizer.py").read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names if "ensemble" in f"{getattr(node, 'module', '')}.{alias.name}"]
    assert imported == [("ensemble", "check_positive")]
