"""The benchmark scripts under bench/ use the package's API by name; a name
that no longer exists would fail an import there, or, patched on with
setattr, silently leave a layer untraced.  These tests only read bench/."""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text())


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_bench_imports_from_autmap_resolve(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("autmap"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def test_traced_layers_patch_existing_names():
    from autmap import cli, witnesses

    layers = next(
        n
        for n in ast.walk(_tree("traced.py"))
        if isinstance(n, ast.ClassDef) and n.name == "Layers"
    )
    install = next(n for n in layers.body if isinstance(n, ast.FunctionDef) and n.name == "install")
    loop = next(n for n in ast.walk(install) if isinstance(n, ast.For))
    names = [c.value for c in ast.walk(loop.iter) if isinstance(c, ast.Constant)]
    assert names, "no patched names found in Layers.install"
    for name in names:
        assert hasattr(cli, name), f"autmap.cli.{name}"
    patched = [
        (t.value.id, t.attr)
        for n in ast.walk(install)
        if isinstance(n, ast.Assign)
        for t in n.targets
        if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
    ]
    assert ("witnesses", "build_psl2") in patched
    for module, attr in patched:
        assert hasattr({"cli": cli, "witnesses": witnesses}[module], attr), f"{module}.{attr}"


def test_autgroup_rebuilt_from_brute_rows():
    # the traced bench pass rebuilds AutGroup from every row of compute_aut
    from autmap.automorphisms import AutGroup, compute_aut
    from autmap.groups import build_alternating

    G = build_alternating(6)
    A = compute_aut(G, "brute")
    B = AutGroup(G, A.all)
    assert len(B) == len(A) == 1440
    assert [a.key for a in B.all] == [a.key for a in A.all]
    assert [a.provenance for a in B.all] == [a.provenance for a in A.all]
    assert [B[j].key for j in B.coset_rows] == [A[j].key for j in A.coset_rows]
