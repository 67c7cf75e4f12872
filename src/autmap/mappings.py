"""Exhaustive search for complete mappings and orthomorphisms, as exact cover.

A complete mapping f (resp. orthomorphism) is a transversal of a Latin
square: n cells (g, v) with exactly one cell in every row g, every column
v = f(g) and every symbol g*v (resp. g^-1*v).  The searcher keeps, for each
uncovered row, column and symbol, the bitmask of its live cells, branches on
the item with the fewest (rows before columns before symbols, then least
index; candidates in ascending order), and cuts a node as soon as some item
has none.  Choosing a cell removes every cell sharing its row, column or
symbol; removed cells go on one trail, and backtracking pops them back.

Depth-first search on these squares has heavy-tailed run times, so the
search runs in passes under Luby's restart schedule: pass 0 in the order
above, pass i >= 1 with every candidate list shuffled by random.Random(i),
each cut off after 4n * luby(i + 1) nodes.  Shuffling only reorders the
branches of the same tree, so a pass that ends before its cutoff has walked
all of it: that, and nothing else, certifies nonexistence.  Every pass is a
pure function of the group, so the same group always gives the same result
and node count (summed over passes).  Running out of node budget is a
distinct third outcome.

One feasibility invariant prunes before the search: in the abelianization
G/G' the products must sum to the arguments plus the values, so the product
of all elements must lie in G'.  Each cell (g, v) already satisfies this
relation, so below the root it never fails; at the root it settles every
group with a nontrivial cyclic Sylow 2-subgroup with 0 nodes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import GroupBuildError
from .groups import GroupTable, sylow2_profile
from .structure import derived_subgroup, full_subgroup

# Both kinds resolve in at most 136 nodes for every grammar-expressible group
# of order <= 24, and in at most 28,638 (PSL2(7) complete) for C25, C45, C99,
# D30, A5, S5 and PSL2(7).
DEFAULT_NODE_BUDGET = 5_000_000

EXISTS = "exists"
NONEXISTENT = "nonexistent"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class MappingCertificate:
    """Search outcome: a verified mapping, certified nonexistence with the
    exhausted node count, or an indeterminate budget exhaustion."""

    group_name: str
    kind: str  # 'complete' or 'orthomorphism'
    status: str
    mapping: tuple[int, ...] | None
    nodes: int

    def __post_init__(self):
        if self.status not in (EXISTS, NONEXISTENT, INDETERMINATE):
            raise GroupBuildError(f"unknown certificate status {self.status!r}")
        if (self.mapping is not None) != (self.status == EXISTS):
            raise GroupBuildError("mapping present iff status is 'exists'")


def _verify_mapping(G: GroupTable, rows, mapping) -> None:
    n = G.n
    if sorted(mapping) != list(range(n)):
        raise GroupBuildError("claimed mapping is not a bijection")
    products = {rows[g][mapping[g]] for g in range(n)}
    if len(products) != n:
        raise GroupBuildError("claimed mapping's defining product is not bijective")


def _luby(i: int) -> int:
    """The i-th term (i >= 1) of Luby's sequence 1, 1, 2, 1, 1, 2, 4, 1, ..."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _pass(rows, ldiv, limit: int, rng: random.Random | None):
    """One depth-first pass over the exact-cover tree, expanding at most
    `limit` nodes.  rows[g][v] is the symbol of cell (g, v) and ldiv[g][p]
    the column of symbol p in row g; cell (g, v) is coded g*n + v.  Returns
    (mapping or None, nodes, cut): cut is False only when the pass found a
    mapping or walked the tree."""
    n = len(rows)
    covered = (1 << (n + 1)) - 1  # more bits than any live mask
    rmask = [(1 << n) - 1] * n  # row g -> live columns v
    cmask = list(rmask)  # column v -> live rows g
    smask = list(rmask)  # symbol p -> live rows g
    trail: list[int] = []  # removed cells
    mapping = [0] * n

    def candidates():
        """Cells of the most constrained uncovered item: None when every item
        is covered, [] when one has no live cell."""
        best, kind, item = n + 1, 0, 0
        for k, masks in enumerate((rmask, cmask, smask)):
            counts = list(map(int.bit_count, masks))
            least = min(counts)
            if least < best:
                best, kind, item = least, k, counts.index(least)
                if not least:
                    return []
        if best > n:
            return None
        if kind == 0:
            cells = [item * n + v for v in _bits(rmask[item])]
        elif kind == 1:
            cells = [g * n + item for g in _bits(cmask[item])]
        else:
            cells = [g * n + ldiv[g][item] for g in _bits(smask[item])]
        if rng is not None:
            rng.shuffle(cells)
        return cells

    def cover(g: int, v: int) -> None:
        p = rows[g][v]
        row = rows[g]
        off = ~(1 << g)
        for v2 in _bits(rmask[g]):
            cmask[v2] &= off
            smask[row[v2]] &= off
            trail.append(g * n + v2)
        off = ~(1 << v)
        for g2 in _bits(cmask[v]):
            rmask[g2] &= off
            smask[rows[g2][v]] &= ~(1 << g2)
            trail.append(g2 * n + v)
        for g2 in _bits(smask[p]):
            v2 = ldiv[g2][p]
            rmask[g2] &= ~(1 << v2)
            cmask[v2] &= ~(1 << g2)
            trail.append(g2 * n + v2)
        rmask[g] = cmask[v] = smask[p] = covered

    def uncover(cell: int, mark: int) -> None:
        g, v = divmod(cell, n)
        rmask[g] = cmask[v] = smask[rows[g][v]] = 0
        for removed in trail[mark:]:
            g2, v2 = divmod(removed, n)
            rmask[g2] |= 1 << v2
            cmask[v2] |= 1 << g2
            smask[rows[g2][v2]] |= 1 << g2
        del trail[mark:]

    nodes = 0
    stack = [[candidates(), 0, 0]]  # [cells, next index, trail mark]
    while stack:
        frame = stack[-1]
        cells, i, mark = frame
        if i:
            uncover(cells[i - 1], mark)
        if i == len(cells):
            stack.pop()
            continue
        if nodes >= limit:
            return None, nodes, True
        nodes += 1
        frame[1] = i + 1
        g, v = divmod(cells[i], n)
        mapping[g] = v
        cover(g, v)
        nxt = candidates()
        if nxt is None:
            return tuple(mapping), nodes, False
        if nxt:
            stack.append([nxt, 0, len(trail)])
    return None, nodes, False


def _search(G: GroupTable, kind: str, budget: int) -> MappingCertificate:
    if kind not in ("complete", "orthomorphism"):
        raise GroupBuildError(f"unknown mapping kind {kind!r}")
    n = G.n
    T = G.require_table()

    # the feasibility invariant: the product of all elements lies in G'
    prod = 0
    for g in range(n):
        prod = int(T[prod, g])
    if prod not in derived_subgroup(G, full_subgroup(G)).members:
        return MappingCertificate(G.name, kind, NONEXISTENT, None, 0)

    tab = T.tolist()
    inv_rows = [tab[h] for h in G.inv.tolist()]  # row of g^-1
    rows, ldiv = (tab, inv_rows) if kind == "complete" else (inv_rows, tab)

    nodes = 0
    for i in itertools.count():
        limit = min(4 * n * _luby(i + 1), budget - nodes)
        mapping, used, cut = _pass(rows, ldiv, limit, random.Random(i) if i else None)
        nodes += used
        if mapping is not None:
            _verify_mapping(G, rows, mapping)
            return MappingCertificate(G.name, kind, EXISTS, mapping, nodes)
        if not cut:
            return MappingCertificate(G.name, kind, NONEXISTENT, None, nodes)
        if nodes >= budget:
            return MappingCertificate(G.name, kind, INDETERMINATE, None, nodes)


def find_complete_mapping(G: GroupTable, budget: int = DEFAULT_NODE_BUDGET) -> MappingCertificate:
    """First complete mapping (bijection f with g -> g*f(g) bijective) in the
    fixed search order, or certified nonexistence."""
    return _search(G, "complete", budget)


def find_orthomorphism(G: GroupTable, budget: int = DEFAULT_NODE_BUDGET) -> MappingCertificate:
    """Same search for orthomorphisms: g -> g^-1 * f(g) bijective."""
    return _search(G, "orthomorphism", budget)


def hall_paige_predict(G: GroupTable) -> bool:
    """The proved characterization: a complete mapping exists iff the Sylow
    2-subgroup is trivial or noncyclic.  Used as the searcher's oracle."""
    two_part, cyclic = sylow2_profile(G)
    return two_part == 1 or not cyclic
