"""The built-in group catalog: desk-scale stand-ins for "every finite group".

Solvable entries are controls; the nonsolvable entries are the exhaustive
verification targets.  The extended entries, larger PSL2(q), are named only
through an explicit scope.  The last entry's group and automorphism group
are cached, so reading an entry's group and then its Aut(G) builds the group
once, and a scan over many entries holds one entry's tables at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .automorphisms import AutGroup, compute_aut
from .groups import GroupTable
from .parser import elaborate_text


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    expr: str
    solvable: bool


def _entry(expr: str, solvable: bool) -> CatalogEntry:
    return CatalogEntry(expr.replace(" ", ""), expr, solvable)


SOLVABLE_ENTRIES = (
    [_entry(f"C{n}", True) for n in range(2, 17)]
    + [_entry(f"D{n}", True) for n in range(3, 9)]
    + [
        _entry("Q8", True),
        _entry("S3", True),
        _entry("S4", True),
        _entry("A4", True),
        _entry("C2 x C2", True),
        _entry("C3 x C3", True),
        _entry("C2 x C4", True),
    ]
)

NONSOLVABLE_ENTRIES = [
    _entry("A5", False),
    _entry("S5", False),
    _entry("SL2(5)", False),
    _entry("A5 x C2", False),
    _entry("PSL2(7)", False),
    _entry("A5 x C3", False),
    _entry("SL2(7)", False),
    _entry("A6", False),
    _entry("PSL2(8)", False),
]

CATALOG = SOLVABLE_ENTRIES + NONSOLVABLE_ENTRIES

EXTENDED_ENTRIES = [_entry(f"PSL2({q})", False) for q in (11, 13, 16, 17, 19, 23, 25, 27)]


def catalog_names() -> list[str]:
    return [e.name for e in CATALOG + EXTENDED_ENTRIES]


def get_entry(name: str) -> CatalogEntry:
    for e in CATALOG + EXTENDED_ENTRIES:
        if e.name == name:
            return e
    raise KeyError(f"unknown catalog group {name!r}; known: {', '.join(catalog_names())}")


@lru_cache(maxsize=1)
def catalog_group(name: str) -> GroupTable:
    return elaborate_text(get_entry(name).expr)


@lru_cache(maxsize=1)
def catalog_aut(name: str) -> AutGroup:
    return compute_aut(catalog_group(name))
