"""Every name a module exports, and every target of the benchmark tracer, exists;
no module keeps an import it never uses or a private name nothing references;
the tests' reference module stays outside the package and off its private names.

The tracer in ``perfbench/spans.py`` patches functions and methods by name;
a deleted or renamed target would otherwise surface only in a benchmark run.
The source checks read the modules with ``ast``, so they catch what a
deletion leaves behind without importing anything.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

MODULES = ("model", "em", "tuning", "metrics", "simulate", "io", "cli")
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SRC = Path(__file__).resolve().parents[1] / "src" / "clustreg"
REFERENCE = Path(__file__).resolve().parent / "reference.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"clustreg.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_every_public_name():
    """``clustreg`` re-exports exactly the ``__all__`` names of its API modules."""
    api = ("model", "em", "tuning", "metrics", "simulate")
    public = {n for name in api for n in importlib.import_module(f"clustreg.{name}").__all__}
    tree = ast.parse((SRC / "__init__.py").read_text())
    exported = {alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module in api
                for alias in node.names}
    assert exported == public


def test_every_exported_exception_is_in_one_family():
    """Bad input is a ValueError or OSError (exit 1), a failed fit a NumericalError (exit 2).

    The CLI maps each family to its exit code and a study counts only failed
    fits, so no exported exception may belong to both families or to neither.
    """
    from clustreg.em import NumericalError, SingularComponentError

    exported = set()
    for name in MODULES:
        module = importlib.import_module(f"clustreg.{name}")
        exported |= {getattr(module, n) for n in module.__all__}
    classes = {c for c in exported if isinstance(c, type) and issubclass(c, BaseException)}
    assert {NumericalError, SingularComponentError} <= classes
    families = {c.__name__: (issubclass(c, (ValueError, OSError)), issubclass(c, NumericalError))
                for c in classes}
    assert {name: f for name, f in families.items() if sum(f) != 1} == {}


def test_traced_functions_exist(spans):
    missing = [
        f"{module}.{attr}"
        for _, module, attr in spans.FUNCTIONS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_traced_methods_exist(spans):
    missing = [
        f"{module}.{cls}.{method}"
        for _, module, cls, method in spans.METHODS
        if not callable(getattr(getattr(importlib.import_module(module), cls, None), method, None))
    ]
    assert missing == []


def _sources():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _module_names(tree):
    """(line, name) of every name a module binds at its top level by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield node.lineno, name.id


def test_no_unused_imports():
    unused = []
    for filename, tree in _sources().items():
        if filename == "__init__.py":
            continue        # its imports are the package's public surface
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{filename}:{line}: {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_private_module_names_are_referenced():
    sources = _sources()
    referenced = set()
    for tree in sources.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreferenced = [
        f"{filename}:{line}: {name}"
        for filename, tree in sources.items()
        for line, name in _module_names(tree)
        if _private(name) and name not in referenced
    ]
    assert unreferenced == []


def test_io_private_names_stay_in_io():
    """Other modules reach files only through io's public names."""
    leaks = []
    for filename, tree in _sources().items():
        if filename == "io.py":
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "io" and _private(node.attr)):
                leaks.append(f"{filename}:{node.lineno}: io.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and (
                (node.level == 1 and node.module == "io") or node.module == "clustreg.io"
            ):
                leaks += [f"{filename}:{node.lineno}: {alias.name}"
                          for alias in node.names if _private(alias.name)]
    assert leaks == []


@pytest.mark.parametrize("name, owners", [
    ("_E_STEP_ERRORS", {"model.py", "em.py"}),
    ("_e_step_arrays", {"model.py", "em.py"}),
    ("_UNDERFLOW_WARNING", {"model.py"}),
])
def test_e_step_internals_stay_in_model(name, owners):
    """Other modules enter the E-step through ``model._e_step``; only the EM
    kernel's per-iteration E-step, on its M-step's squares, also holds its error state."""
    leaks = []
    for filename, tree in _sources().items():
        if filename in owners:
            continue
        for node in ast.walk(tree):
            named = (node.id if isinstance(node, ast.Name) else node.attr
                     if isinstance(node, ast.Attribute) else node.name
                     if isinstance(node, ast.alias) else None)
            if named == name:
                leaks.append(f"{filename}:{node.lineno}")
    assert leaks == []


def test_reference_uses_only_public_names():
    """The oracle reaches the program only through its public names, so it stays
    independent of the kernel's internals."""
    private = []
    for node in ast.walk(ast.parse(REFERENCE.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "clustreg":
            module = importlib.import_module(node.module)
            public = getattr(module, "__all__", None)
            private += [f"{node.lineno}: {node.module}.{alias.name}" for alias in node.names
                        if _private(alias.name) or (public is not None and alias.name not in public)]
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            private.append(f"{node.lineno}: .{node.attr}")
    assert private == []


def test_reference_names_are_not_in_the_package():
    """No name the reference module defines comes back into ``src/`` as a second copy."""
    import clustreg

    modules = [clustreg] + [importlib.import_module(f"clustreg.{name}") for name in MODULES]
    copies = [f"{line}: {name}" for line, name in _module_names(ast.parse(REFERENCE.read_text()))
              if any(hasattr(module, name) for module in modules)]
    assert copies == []
