"""Every name a module of the package or of the tests imports is used in
that module, and every module-private top-level name of the package is
referenced in its own module.

No lint tool is part of the toolchain, so this is the check.  Names
listed in ``__all__`` and the package's ``__init__`` (whose imports are
re-exports) are exempt, as are ``__future__`` imports.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "dworklab"
# file names are unique across the two directories, so they serve as ids
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") + sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used and name not in exported
    )


def test_detector_flags_unused_names():
    source = "import os\nimport a.b\nfrom x import y, z as w\n__all__ = ['y']\nprint(a)\n"
    assert unused_imports(source) == ["os (line 1)", "w (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_names(source: str) -> list[str]:
    """Top-level functions, classes and assignments named ``_x`` that the
    module never loads (dunder names excepted)."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                defined.setdefault(name, node.lineno)
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return sorted(f"{name} (line {line})" for name, line in defined.items() if name not in used)


def test_detector_flags_unreferenced_private_names():
    source = (
        "def _used(): pass\n"
        "def _unused(): pass\n"
        "class _Gone: pass\n"
        "_X = 1\n"
        "_a, _b = 2, 3\n"
        "_Y: int = _a\n"
        "__all__ = []\n"
        "def public(): return _used, _Y\n"
    )
    assert unreferenced_private_names(source) == [
        "_Gone (line 3)",
        "_X (line 4)",
        "_b (line 5)",
        "_unused (line 2)",
    ]


PACKAGE_MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=[p.name for p in PACKAGE_MODULES])
def test_no_unreferenced_private_names(path):
    assert unreferenced_private_names(path.read_text(encoding="utf-8")) == []
