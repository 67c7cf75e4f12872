"""Exhaustive backtracking search for complete mappings and orthomorphisms.

The searcher assigns f(g) element by element in index order, values in
ascending order, pruning with two occupancy bitmasks (used values of f, used
values of the defining product) plus one sound feasibility invariant: in the
abelianization G/G' the sum of the still-unused products must equal the sum
of the unassigned arguments (resp. their inverses, for orthomorphisms) plus
the sum of the still-unused values.  The invariant only discards branches
that provably contain no solution, so exhaustion still certifies
nonexistence and the first mapping found is unchanged; without it, cyclic
groups of even order >= 14 cannot be exhausted in any practical budget.

No ordering heuristics: the same group always explores the same tree.
Running out of node budget is a distinct third outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GroupBuildError
from .groups import GroupTable, sylow2_profile
from .structure import derived_subgroup, full_subgroup, quotient

# Not enough for every group of order <= 24: C2 x C10 (both kinds) and the
# Q8 x C3 orthomorphism search end indeterminate after 5,000,001 nodes.
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


def _search(G: GroupTable, kind: str, budget: int) -> MappingCertificate:
    n = G.n
    T = G.require_table()
    if kind == "complete":
        rows = [T[g].tolist() for g in range(n)]
    elif kind == "orthomorphism":
        rows = [T[G.inverse(g)].tolist() for g in range(n)]
    else:
        raise GroupBuildError(f"unknown mapping kind {kind!r}")

    # abelianization sums for the feasibility invariant
    Q, proj = quotient(G, derived_subgroup(G, full_subgroup(G)))
    qmul = [r.tolist() for r in Q.require_table()]
    qinv = Q.inv.tolist()
    pi = [int(x) for x in proj]
    pi_term = pi if kind == "complete" else [pi[int(G.inverse(g))] for g in range(n)]
    total = 0
    for g in range(n):
        total = qmul[total][pi[g]]
    suffix = [0] * (n + 1)  # sum of pi_term(g') for g' >= g
    for g in range(n - 1, -1, -1):
        suffix[g] = qmul[pi_term[g]][suffix[g + 1]]

    mapping = [0] * n
    nodes = 0
    exhausted = True

    def feasible(g: int, upsum: int, uvsum: int) -> bool:
        lhs = qmul[total][qinv[upsum]]
        rhs = qmul[suffix[g]][qmul[total][qinv[uvsum]]]
        return lhs == rhs

    def rec(g: int, used_f: int, used_p: int, upsum: int, uvsum: int) -> bool:
        nonlocal nodes, exhausted
        if g == n:
            return True
        if not feasible(g, upsum, uvsum):
            return False
        row = rows[g]
        for v in range(n):
            bit_f = 1 << v
            if used_f & bit_f:
                continue
            bit_p = 1 << row[v]
            if used_p & bit_p:
                continue
            nodes += 1
            if nodes > budget:
                exhausted = False
                return False
            mapping[g] = v
            if rec(
                g + 1,
                used_f | bit_f,
                used_p | bit_p,
                qmul[upsum][pi[row[v]]],
                qmul[uvsum][pi[v]],
            ):
                return True
            if not exhausted:
                return False
        return False

    found = rec(0, 0, 0, 0, 0)
    if found:
        result = tuple(mapping)
        _verify_mapping(G, rows, result)
        return MappingCertificate(G.name, kind, EXISTS, result, nodes)
    if exhausted:
        return MappingCertificate(G.name, kind, NONEXISTENT, None, nodes)
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
