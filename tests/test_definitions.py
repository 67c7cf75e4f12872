"""Every definition in ``src/autmap`` is used somewhere.

This parses each module with ``ast`` and fails on a module-level function or
class, or a method other than a dunder, whose name appears in no source, test
or bench file outside its own definition."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "autmap"
TEXTS = {p: p.read_text() for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")}
WORDS = Counter(w for text in TEXTS.values() for w in re.findall(r"\w+", text))


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and not re.fullmatch(r"__\w+__", m.name):
                    yield m


def _unused_definitions(path: Path) -> list[str]:
    lines = TEXTS[path].splitlines()
    unused = []
    for node in _definitions(ast.parse(TEXTS[path])):
        own = "\n".join(lines[node.lineno - 1 : node.end_lineno])
        if WORDS[node.name] == re.findall(r"\w+", own).count(node.name):
            unused.append(node.name)
    return unused


def test_definitions_are_found():
    names = {n.name for n in _definitions(ast.parse(TEXTS[SRC / "automorphisms.py"]))}
    assert {"AutGroup", "compute_aut", "parts"} <= names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_definitions(path):
    assert _unused_definitions(path) == []
