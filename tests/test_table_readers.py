"""Only the group layer and the n^2 algorithms read a group's table.

Reading ``.table`` builds the table (order <= 4096), so a read costs its
n^2 products and n^2 int16 entries.  Everything else multiplies through
``GroupTable.mul_many``, which reads the table once it has been built and
multiplies on demand until then.  The readers are the brute Aut search and
the row scan's conjugations (automorphisms) and the complete-mapping search
(mappings); the two searches read it through ``require_table()``.  This
parses each module with ``ast`` and collects those that read a ``.table`` or
``.require_table`` attribute.

A table is only ever the cache that ``GroupTable.table`` fills, and the
products reach the rest of the package through ``mul_many`` alone, so only
groups.py reads a group's private ``_table``, ``_mul_many_fn`` or
``_row_block``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "autmap"


def _reads(path: Path, attrs: tuple[str, ...]) -> bool:
    tree = ast.parse(path.read_text())
    return any(isinstance(node, ast.Attribute) and node.attr in attrs for node in ast.walk(tree))


def test_table_readers():
    readers = {p.stem for p in SRC.glob("*.py") if _reads(p, ("table", "require_table"))}
    assert readers == {"groups", "automorphisms", "mappings"}


def test_only_groups_reads_the_product_routes():
    private = ("_table", "_mul_many_fn", "_row_block")
    assert {p.stem for p in SRC.glob("*.py") if _reads(p, private)} == {"groups"}
