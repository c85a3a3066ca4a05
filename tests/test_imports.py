"""Every name a module of the package or of the tests imports is used in
that module, and every module-private top-level name of the package is
referenced in its own module.  No module of the package imports
`dataclasses` or `inspect`, and importing the CLI loads neither.

No lint tool is part of the toolchain, so this is the check.  Names
listed in ``__all__`` and the package's ``__init__`` (whose imports are
re-exports) are exempt, as are ``__future__`` imports.
"""

import ast
import os
import subprocess
import sys
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


# Every command runs in a fresh interpreter, which pays for each module
# the package loads.  `dataclasses` pulls in `inspect`, `ast`, `dis` and
# `tokenize`, and each decorated class compiles code when it is created;
# together that was more than a third of the import of `dworklab.cli`.
# Records are `typing.NamedTuple`s instead.
HEAVY_MODULES = ("dataclasses", "inspect")


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules the source imports; relative
    imports are left out."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_detector_lists_imported_modules():
    source = (
        "import os.path\n"
        "from dataclasses import dataclass\n"
        "from . import kernels\n"
        "from .bounds import x\n"
        "def f():\n"
        "    import inspect as i\n"
    )
    assert imported_modules(source) == {"os", "dataclasses", "inspect"}


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=[p.name for p in PACKAGE_MODULES])
def test_no_heavy_imports(path):
    found = imported_modules(path.read_text(encoding="utf-8"))
    assert sorted(found.intersection(HEAVY_MODULES)) == []


def test_cli_import_loads_no_heavy_module():
    # -S keeps the .pth files of site-packages, which may import anything,
    # out of the check
    code = "import dworklab.cli, sys; print(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = run.stdout.split()
    assert "dworklab.cli" in loaded
    assert [m for m in HEAVY_MODULES if m in loaded] == []


# Public names that nothing in the package or the benchmark calls, each
# with the reason it stays.  Oracles that only tests call live in
# tests/conftest.py instead.  The package has none at present.
ORACLES: tuple[str, ...] = ()
BENCHMARK = TESTS.parent / "perfbench"


def public_definitions(source: str) -> dict[str, ast.stmt]:
    """Top-level functions, classes and assignments not named ``_x``."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        defined.update((name, node) for name in names if not name.startswith("_"))
    return defined


def loaded_names(source: str, code_in_strings: bool = False) -> set[str]:
    """Names and attributes the module loads, outside the definition that
    binds them (a recursive call is no caller), plus the names in
    ``__all__``.  With ``code_in_strings``, string literals that parse as
    Python count too, as the benchmark runs some code from strings."""
    loaded = set()
    for top in ast.parse(source).body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                loaded.update(ast.literal_eval(node.value))
                continue
            elif code_in_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    loaded |= loaded_names(node.value, code_in_strings)
                except SyntaxError:
                    pass
                continue
            else:
                continue
            if name != own:
                loaded.add(name)
    return loaded


def uncalled_public_names(
    modules: dict[str, str], benchmark: list[str], oracles: tuple[str, ...] = ORACLES
) -> list[str]:
    """Public top-level names of ``modules`` (file name -> source) that no
    module and no benchmark source loads, and that are not in ``oracles``."""
    loaded = set(oracles)
    for source in modules.values():
        loaded |= loaded_names(source)
    for source in benchmark:
        loaded |= loaded_names(source, code_in_strings=True)
    return sorted(
        f"{name} ({path}, line {node.lineno})"
        for path, source in modules.items()
        if path != "__init__.py"
        for name, node in public_definitions(source).items()
        if name not in loaded
    )


def test_detector_flags_uncalled_public_names():
    modules = {
        "__init__.py": "from .a import exported\n__all__ = ['exported']\n__version__ = '1'\n",
        "a.py": (
            "def exported(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def called(): pass\n"
            "def dwork_gap(): pass\n"
            "class Gone: pass\n"
            "X, Y = 1, 2\n"
            "Z: int = X\n"
            "_private = 0\n"
            "def probed(): pass\n"
        ),
        "b.py": "from .a import called\n\ndef user(m):\n    return called(), m.Y\n",
    }
    benchmark = ['PROBE = "from a import probed; print(probed())"\n']
    assert uncalled_public_names(modules, benchmark, oracles=("dwork_gap",)) == [
        "Gone (a.py, line 5)",
        "Z (a.py, line 7)",
        "recursive (a.py, line 2)",
        "user (b.py, line 3)",
    ]


def test_public_names_have_a_caller():
    modules = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE_MODULES}
    benchmark = [p.read_text(encoding="utf-8") for p in sorted(BENCHMARK.glob("*.py"))]
    assert uncalled_public_names(modules, benchmark) == []
    # an entry whose definition is gone is dropped from the list too
    defined = set()
    for source in modules.values():
        defined |= set(public_definitions(source))
    assert sorted(set(ORACLES) - defined) == []


# In-process memos of the package, each with the reason it stays.  A memo
# can hand back a value that no longer matches its inputs and leave no
# trace in the report, so a new one is named here, where review sees it.
# The package has none at present.
ALLOWED_MEMOS: set[str] = set()
MEMO_DECORATORS = ("lru_cache", "cache")


def memos(source: str) -> dict[str, int]:
    """Functions decorated with ``lru_cache`` or ``cache`` (bare, called,
    or as ``functools.`` attributes) and module-level names ending in
    ``_CACHE``, each with its line."""
    tree = ast.parse(source)
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in MEMO_DECORATORS:
                    found[node.name] = node.lineno
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name) and n.id.endswith("_CACHE"):
                        found[n.id] = node.lineno
    return found


def test_detector_flags_memos():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\n"
        "def a(): pass\n"
        "@cache\n"
        "def b(): pass\n"
        "class K:\n"
        "    @functools.lru_cache\n"
        "    def c(self): pass\n"
        "@staticmethod\n"
        "def d(): pass\n"
        "_H_CACHE = {}\n"
        "_T_CACHE: dict = {}\n"
        "CACHED = {}\n"
        "def e():\n"
        "    LOCAL_CACHE = {}\n"
    )
    assert memos(source) == {"a": 4, "b": 6, "c": 9, "_H_CACHE": 12, "_T_CACHE": 13}


def test_memos_are_allowed():
    found = {}
    for path in PACKAGE_MODULES:
        found.update(
            (name, f"{name} ({path.name}, line {line})")
            for name, line in memos(path.read_text(encoding="utf-8")).items()
        )
    assert sorted(v for name, v in found.items() if name not in ALLOWED_MEMOS) == []
    # an entry whose memo is gone is dropped from the list too
    assert ALLOWED_MEMOS <= set(found)
