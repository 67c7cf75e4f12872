"""Only the group layer and the two n^2 algorithms read a group's table.

Everything else multiplies through ``GroupTable.mul_many``, which works with
or without a materialized table.  The readers are the brute Aut search
(automorphisms) and the complete-mapping search (mappings); each guards its
read with ``require_table()``.  This
parses each module with ``ast`` and collects those that read a ``.table`` or
``.require_table`` attribute."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "autmap"


def _reads_table(path: Path) -> bool:
    tree = ast.parse(path.read_text())
    return any(
        isinstance(node, ast.Attribute) and node.attr in ("table", "require_table")
        for node in ast.walk(tree)
    )


def test_table_readers():
    readers = {p.stem for p in SRC.glob("*.py") if _reads_table(p)}
    assert readers == {"groups", "automorphisms", "mappings"}
