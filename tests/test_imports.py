"""Every name a module of the package or of the tests imports is used in
that module, and every module-private top-level name of the package is
referenced in its own module.  No module of the package imports
`dataclasses` or `inspect`, and importing the CLI loads neither, nor
any layer below the package root: each subcommand loads what it runs,
and a periodicity run loads neither the bound catalog nor the series
layer.  Importing the group layer loads neither the bound catalog nor
`fractions`, and neither importing the series layer nor building and
evaluating the catalog's partition rules loads the group layer.
Importing the CLI or the group layer, or a small periodicity run, loads
neither `ctypes` nor `decimal`.

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


def modules_loaded_by(module: str, then: str = "") -> list[str]:
    """Every module a fresh interpreter holds after ``import module`` and
    then the statement ``then``."""
    # -S keeps the .pth files of site-packages, which may import anything,
    # out of the check
    code = f"import {module}, sys\n{then}\nprint(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return run.stdout.split()


def test_cli_import_loads_no_heavy_module():
    loaded = modules_loaded_by("dworklab.cli")
    assert "dworklab.cli" in loaded
    assert [m for m in HEAVY_MODULES if m in loaded] == []
    # each layer below the package root loads in the subcommands that run
    # it, since a process compiles every source it loads when no bytecode
    # is cached
    layers = ("dworklab.bounds", "dworklab.series", "dworklab.groups", "dworklab.applications")
    assert [m for m in layers + ("fractions", "decimal", "ctypes") if m in loaded] == []


# The layers below the package root that each subcommand loads, as README,
# "Layout", lists them; every run loads the root (`exactcore`, `kernels`)
# and the CLI besides.
SUBCOMMAND_LAYERS = [
    (["periodicity", "--spec", "C[2]*C[4]", "--p", "2", "--n-max", "60"], {"groups", "applications"}),
    (["supercongruence", "--p", "3", "--a-max", "2"], {"applications"}),
    (
        ["verify-permutations", "--variant", "pi2", "--p", "3", "--l", "1", "--A", "1", "--n-max", "60"],
        {"applications", "bounds"},
    ),
    (["lemmas", "--p", "2", "--l", "1", "--i-max", "10", "--j-max", "4"], {"bounds"}),
    (["analyze-series", "--theorem", "cor2.4", "--l", "2"], {"series", "bounds"}),
    (["verify-group", "--spec", "A[3;1,1]", "--n-max", "60"], {"groups", "series", "bounds"}),
    (["verify-dihedral", "--m", "12", "--n-max", "64"], {"groups", "bounds"}),
]


@pytest.mark.parametrize("argv, layers", SUBCOMMAND_LAYERS, ids=[c[0][0] for c in SUBCOMMAND_LAYERS])
def test_subcommand_loads_its_layers(tmp_path, argv, layers):
    if argv[0] == "analyze-series":
        series = tmp_path / "inv.series"
        series.write_text("4 2\n1 1 1\n2 1 1\n3 0 1\n4 0 1\n", encoding="utf-8")
        argv = argv + ["--input", str(series)]
    argv = argv + ["--output", os.devnull]
    loaded = modules_loaded_by("dworklab.cli", f"assert dworklab.cli.main({argv!r}) == 0")
    root = {"dworklab", "dworklab.cli", "dworklab.exactcore", "dworklab.kernels"}
    assert {m for m in loaded if m.split(".")[0] == "dworklab"} == root | {f"dworklab.{m}" for m in layers}
    # `fractions`, and `decimal` through it, load with `bounds` or `series`
    # and with nothing else; `ctypes` loads only for the wide block products
    # of a long periodicity run
    assert ("fractions" in loaded) == ("decimal" in loaded) == bool(layers & {"bounds", "series"})
    assert "ctypes" not in loaded


# The lattice oracle runs each operation in a fresh interpreter that
# imports only the group layer, and pays for every module that loads.  The
# bound catalog, the series layer, `fractions` (which loads `decimal`) and
# `ctypes` are not part of that layer.
def test_group_layer_import_loads_only_the_group_layer():
    loaded = modules_loaded_by("dworklab.groups")
    assert "dworklab.groups" in loaded
    outside = (
        "dworklab.bounds", "dworklab.series", "dworklab.applications", "fractions", "decimal", "ctypes"
    )
    assert [m for m in outside if m in loaded] == []


# `analyze-series` runs the series layer and the bound catalog, and reads
# no partition, so it never needs the group layer; the catalog's partition
# rules read the case split from `exactcore`, so building and evaluating
# them does not load it either.
def test_series_import_loads_no_group_layer():
    then = (
        "from dworklab.bounds import RULES, BoundKind, bound_values, q_recurrence_parameters\n"
        "first = BoundKind('thm6.1', 3, partition=(2, 1))\n"
        "second = BoundKind('thm6.2', 2, partition=(2, 1, 1))\n"
        "for kind in (first, second):\n"
        "    bound_values(kind, 20)\n"
        # the subgroup counts of A[3;2,1] by index, written out
        "s = [0] * 28\n"
        "s[1], s[3], s[9], s[27] = 1, 4, 4, 1\n"
        "assert q_recurrence_parameters(first, s) == (27, 1)\n"
        "assert RULES['thm6.2'].tight_classes(second) == [0, 8, 16]\n"
    )
    loaded = modules_loaded_by("dworklab.series", then)
    assert "dworklab.bounds" in loaded
    assert "dworklab.groups" not in loaded


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


def public_members(source: str) -> dict[str, ast.stmt]:
    """``Class.member`` for each public method and property of the
    module's top-level classes; dunders and record fields are no members."""
    members = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            members.update(
                (f"{node.name}.{item.name}", item)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
            )
    return members


def loaded_attributes(source: str, code_in_strings: bool = False) -> set[str]:
    """Attribute names the module loads, each outside the functions of that
    name enclosing the load (a recursive call is no caller).  With
    ``code_in_strings``, string literals that parse as Python count too."""
    loaded = set()

    def visit(node: ast.AST, enclosing: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr not in enclosing:
                loaded.add(node.attr)
        elif code_in_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                loaded.update(loaded_attributes(node.value, code_in_strings))
            except SyntaxError:
                pass
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), frozenset())
    return loaded


def uncalled_members(modules: dict[str, str], benchmark: list[str]) -> list[str]:
    """Public members of the top-level classes of ``modules`` (file name ->
    source) that no module and no benchmark source loads as an attribute,
    matched by name."""
    loaded = set()
    for source in modules.values():
        loaded |= loaded_attributes(source)
    for source in benchmark:
        loaded |= loaded_attributes(source, code_in_strings=True)
    return sorted(
        f"{name} ({path}, line {node.lineno})"
        for path, source in modules.items()
        for name, node in public_members(source).items()
        if name.rsplit(".", 1)[1] not in loaded
    )


def test_detector_flags_uncalled_members():
    modules = {
        "a.py": (
            "from typing import NamedTuple\n"
            "class K(NamedTuple):\n"
            "    field: int\n"
            "    def used(self): return self.field\n"
            "    def recursive(self): return self.recursive()\n"
            "    @property\n"
            "    def gone(self): return 1\n"
            "    def _private(self): pass\n"
            "    def __len__(self): return 0\n"
            "    def probed(self): pass\n"
            "    @classmethod\n"
            "    def make(cls): return cls(0)\n"
            "def caller(): return K.make().used\n"
        ),
        "b.py": "class L:\n    def unread(self): pass\n    def used(self): pass\n",
    }
    benchmark = ['PROBE = "k.probed()"\n']
    assert uncalled_members(modules, benchmark) == [
        "K.gone (a.py, line 7)",
        "K.recursive (a.py, line 5)",
        "L.unread (b.py, line 2)",
    ]


def test_public_members_have_a_caller():
    modules = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE_MODULES}
    benchmark = [p.read_text(encoding="utf-8") for p in sorted(BENCHMARK.glob("*.py"))]
    assert uncalled_members(modules, benchmark) == []


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
