"""Every module-level import in ``src/autmap`` is used by its module, every
module-level private name is referenced somewhere in the package, no module
imports another's private name, only the CLI imports ``gc``, importing the
package starts no thread, and no command imports numpy.ma.

No linter is part of the toolchain, so this parses each module with ``ast``.
``__init__.py`` is skipped by the import check: its imports are the package's
public names."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "autmap"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    # an attribute chain such as np.int64 starts at a Name
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_modules_are_found():
    assert {"automorphisms.py", "cli.py", "groups.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert _unused_imports(path) == []


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level names starting with ``_`` (dunders aside) bound by def,
    class or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def _references(tree: ast.Module) -> set[str]:
    """Names read, attributes taken and names imported anywhere in ``tree``."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
    return refs


def dead_private_names(src: Path) -> list[str]:
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    used = set().union(*map(_references, trees.values()))
    return [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in used
    ]


def test_private_names_are_found():
    tree = ast.parse((SRC / "groups.py").read_text())
    assert {"_verify_group", "_ATOMIC_BUILDERS"} <= set(_private_definitions(tree))


def test_every_private_name_is_referenced():
    # a private helper that nothing calls is dead code
    assert dead_private_names(SRC) == []


def write_only_attributes(src: Path) -> list[str]:
    """Private attributes stored on an object (``obj._x = ...``) anywhere in
    ``src`` that no module of it reads."""
    stored, read = set(), set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                if not isinstance(node.ctx, ast.Store):
                    read.add(node.attr)
                elif node.attr.startswith("_") and not node.attr.endswith("__"):
                    stored.add(f"{path.name}:{node.attr}")
    return sorted(s for s in stored if s.split(":")[1] not in read)


def test_write_only_attributes_are_found(tmp_path):
    (tmp_path / "m.py").write_text(
        "class A:\n"
        "    def __init__(self):\n"
        "        self._kept, self._dropped = 1, 2\n"
        "        self._read = 3\n"
        "    def f(self):\n"
        "        return self._kept + self._read\n"
    )
    assert write_only_attributes(tmp_path) == ["m.py:_dropped"]


def test_every_private_attribute_is_read():
    # an attribute that is stored and never read is dead state
    assert write_only_attributes(SRC) == []


def private_imports(src: Path) -> list[str]:
    """Underscore names a module of ``src`` imports from another module of
    its package."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == src.name
            ):
                found += [f"{path.stem}:{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_private_imports_are_found(tmp_path):
    pkg = tmp_path / "autmap"
    pkg.mkdir()
    (pkg / "m.py").write_text(
        "from __future__ import annotations\n"
        "from .a import _hidden, shown\n"
        "from autmap.b import _other\n"
        "from os import _exit\n"
        "def f():\n"
        "    from .c import _late\n"
    )
    assert private_imports(pkg) == ["m:_hidden", "m:_other", "m:_late"]


def test_no_module_imports_a_private_name():
    # a private name is its module's own: another module reads only public ones
    assert private_imports(SRC) == []


def gc_importers(pkg: Path) -> set[str]:
    """The modules of ``pkg`` that import ``gc``, at any depth."""
    found = set()
    for path in pkg.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "gc" for name in names):
                found.add(path.stem)
    return found


def test_gc_importers_are_found(tmp_path):
    (tmp_path / "a.py").write_text("def f():\n    import os, gc\n")
    (tmp_path / "b.py").write_text("from gc import freeze\n")
    (tmp_path / "c.py").write_text("from . import gc\nimport gcx\n")
    assert gc_importers(tmp_path) == {"a", "b"}


def test_only_the_cli_imports_gc():
    # the process entry freezes the heap once its command has run; a library
    # module that touched the collector would change its caller's
    assert gc_importers(SRC) == {"cli"}


_THREADS_SCRIPT = """
import os
import autmap
tasks = "/proc/self/task"
threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else 0
print(threads, os.environ.get("OPENBLAS_NUM_THREADS", "unset"))
"""


def _fresh_import(extra_env: dict[str, str]) -> tuple[int, str]:
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(SRC.parent), **extra_env}
    run = subprocess.run(
        [sys.executable, "-c", _THREADS_SCRIPT],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    threads, blas = run.stdout.split()
    return int(threads), blas


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_starts_no_blas_thread_pool():
    # numpy starts OpenBLAS's workers on import unless the variable is set
    assert _fresh_import({}) == (1, "1")


def test_import_keeps_a_preset_blas_thread_count():
    assert _fresh_import({"OPENBLAS_NUM_THREADS": "2"})[1] == "2"


_NUMPY_MA_SCRIPT = """
import sys
from autmap.cli import main
print(main(sys.argv[1:]), "numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["mappings", "--group", "A4"],
        ["verify-theorem", "--scope", "A5"],
        ["spectrum", "--group", "A5", "--k-min", "-1", "--k-max", "1"],
        ["witness", "wreath", "--base", "A5", "--n", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_do_not_import_numpy_ma(argv, tmp_path):
    # a plain np.unique imports numpy.ma, about 10 ms per process
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run(
        [sys.executable, "-c", _NUMPY_MA_SCRIPT, *argv, "--out", str(tmp_path / "r.json")],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert run.stdout.split() == ["0", "False"]
