"""Only the witness draws and the mapping-search restarts use randomness.

Every check in the package is exact, so no self-check or validation may
sample.  The CLI draws ``witness`` inputs under ``--seed`` and the mapping
search shuffles its candidate lists on restarts; neither is a check.  This
parses each module with ``ast`` and collects those that import ``random`` or
read a ``.random`` attribute (``np.random``)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "autmap"


def _uses_random(path: Path) -> bool:
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any("random" in a.name.split(".") for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (
            "random" in (node.module or "").split(".") or any(a.name == "random" for a in node.names)
        ):
            return True
        if isinstance(node, ast.Attribute) and node.attr == "random":
            return True
    return False


def test_random_users():
    users = {p.stem for p in SRC.glob("*.py") if _uses_random(p)}
    assert users == {"cli", "mappings"}
