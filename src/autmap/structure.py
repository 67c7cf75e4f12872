"""Solvability, normal-subgroup lattice, radical, socle, and automorphism
transport to quotients and subgroups.

Every product goes through ``GroupTable.mul_many``, so none of this needs a
materialized table.  Normality is checked on generators: gNg^-1 is a subgroup
of the size of N, so gNg^-1 within N for every generator g makes each
generator normalize N, and with it all of G.

Normal subgroups are computed as the join-closure of the normal closures of
single conjugacy classes: every normal subgroup is a union of classes, hence
the join of the class closures it contains.  The lattice computation is
capped at |G| <= 1000.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .automorphisms import Automorphism
from .errors import CapExceededError, GroupBuildError, InvarianceError
from .groups import GroupTable, conjugacy_classes, conjugations, is_homomorphism, orbits, span_mask

LATTICE_CAP = 1000


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its member indices, strictly increasing, and a
    generating set: passed on by the closures below, or found by the check."""

    parent: GroupTable
    members: tuple[int, ...]
    generators: tuple[int, ...] | None = field(default=None, compare=False, kw_only=True)

    def __post_init__(self):
        mem = np.array(self.members, dtype=np.int64)
        if len(mem) == 0 or mem[0] != 0:
            raise GroupBuildError("subgroup must contain the identity (index 0)")
        if np.any(np.diff(mem) <= 0) or mem[-1] >= self.parent.n:
            raise GroupBuildError(
                f"subgroup members must be strictly increasing indices below {self.parent.n}"
            )
        if self.generators is None:
            # the span of the members equals them exactly when they are closed
            # (inverses included: a finite closed set is a subgroup)
            span, gens = span_mask(self.parent, mem)
            if not np.array_equal(span, self.member_mask()):
                raise GroupBuildError("member set is not closed under multiplication")
            object.__setattr__(self, "generators", tuple(gens))

    def __len__(self):
        return len(self.members)

    def member_mask(self) -> np.ndarray:
        mask = np.zeros(self.parent.n, dtype=bool)
        mask[list(self.members)] = True
        return mask

    def is_normal(self) -> bool:
        """Whether every generator of the parent conjugates N into N."""
        G = self.parent
        return bool(self.member_mask()[conjugations(G, G.generators, self.members)].all())

    def is_characteristic(self, automorphisms) -> bool:
        """Invariance under every supplied automorphism."""
        return all(self.is_invariant_under(a) for a in automorphisms)

    def is_invariant_under(self, alpha: Automorphism) -> bool:
        mask = self.member_mask()
        return bool(mask[alpha.images[list(self.members)]].all())

    def __repr__(self):
        return f"Subgroup(order={len(self.members)} of {self.parent.name})"


def subgroup_closure(G: GroupTable, gens) -> Subgroup:
    """The subgroup generated by ``gens``."""
    span, taken = span_mask(G, gens)
    return Subgroup(G, tuple(np.flatnonzero(span).tolist()), generators=tuple(taken))


def trivial_subgroup(G: GroupTable) -> Subgroup:
    return Subgroup(G, (0,))


def full_subgroup(G: GroupTable) -> Subgroup:
    return Subgroup(G, tuple(range(G.n)), generators=G.generators)


def derived_subgroup(G: GroupTable, H: Subgroup) -> Subgroup:
    """Subgroup generated by the commutators of H: the normal closure in H
    of the commutators of a generating set of H (modulo it, the generators
    commute, so H modulo it is abelian)."""
    gens = np.array(H.generators, dtype=np.int64)
    x, y = gens[:, None], gens[None, :]
    comm = G.mul_many(G.mul_many(G.inv[x], G.inv[y]), G.mul_many(x, y)).reshape(-1)
    return subgroup_closure(G, np.flatnonzero(np.bincount(conjugations(G, H.members, comm).ravel())))


def _derived_series_from(G: GroupTable, H: Subgroup) -> list[Subgroup]:
    """H >= H' >= H'' >= ..., ending as ``derived_series`` does."""
    series = [H]
    while True:
        nxt = derived_subgroup(G, series[-1])
        series.append(nxt)
        if len(nxt) == 1 or len(nxt) == len(series[-2]):
            return series


def derived_series(G: GroupTable) -> list[Subgroup]:
    """G >= G' >= G'' >= ..., ending at the trivial subgroup or at the first
    repeated term (so a perfect group shows its order twice)."""
    return _derived_series_from(G, full_subgroup(G))


def is_solvable(G: GroupTable) -> bool:
    return len(derived_series(G)[-1]) == 1


def normal_subgroups(G: GroupTable) -> list[Subgroup]:
    """Every normal subgroup, as joins of conjugacy-class closures.
    Sorted by (order, members); includes the trivial and full subgroups."""
    if G.n > LATTICE_CAP:
        raise CapExceededError(
            f"normal-subgroup lattice capped at order {LATTICE_CAP}, got {G.n}"
        )
    class_closures = {
        sub.members: sub for sub in (subgroup_closure(G, cls) for cls in conjugacy_classes(G))
    }.values()
    found = {(0,): trivial_subgroup(G)}
    frontier = [trivial_subgroup(G)]
    while frontier:
        nxt = []
        for base in frontier:
            for cc in class_closures:
                joined = subgroup_closure(G, set(base.members) | set(cc.members))
                if joined.members not in found:
                    found[joined.members] = joined
                    nxt.append(joined)
        frontier = nxt
    subs = sorted(found.values(), key=lambda s: (len(s), s.members))
    for s in subs:
        if not s.is_normal():
            raise GroupBuildError("class-closure join produced a non-normal subgroup")
    return subs


def solvable_radical(G: GroupTable) -> Subgroup:
    """The largest solvable normal subgroup; verified to contain every
    solvable member of the computed lattice."""
    solvables = [N for N in normal_subgroups(G) if len(_derived_series_from(G, N)[-1]) == 1]
    radical = max(solvables, key=len)
    rad_set = set(radical.members)
    for N in solvables:
        if not set(N.members) <= rad_set:
            raise GroupBuildError("solvable radical is not unique-maximal")
    return radical


def socle(G: GroupTable) -> Subgroup:
    """Join of all minimal nontrivial normal subgroups."""
    subs = [N for N in normal_subgroups(G) if len(N) > 1]
    minimal = []
    for N in subs:
        nset = set(N.members)
        if not any(set(M.members) < nset for M in subs):
            minimal.append(N)
    return subgroup_closure(G, [x for N in minimal for x in N.members])


# ---------------------------------------------------------------------------
# quotients and restriction
# ---------------------------------------------------------------------------


def quotient(G: GroupTable, N: Subgroup) -> tuple[GroupTable, np.ndarray]:
    """(G/N, projection): cosets ordered by least member, so the coset of the
    identity comes first."""
    if not N.is_normal():
        raise GroupBuildError("can only quotient by a normal subgroup")
    mem = np.array(N.members, dtype=np.int64)
    # the cosets xN are the orbits of right multiplication by N's generators
    right = G.mul_many(np.arange(G.n), np.array(N.generators, dtype=np.int64)[:, None])
    coset_reps, proj = np.unique(orbits(right), return_inverse=True)
    quot = GroupTable(
        kind="quotient",
        name=f"{G.name}/N{len(N)}",
        labels=[f"[{G.labels[r]}]" for r in coset_reps],
        mul_many_fn=lambda a, b: proj[G.mul_many(coset_reps[a], coset_reps[b])],
        inv=proj[G.inv[coset_reps]],
        meta={"coset_reps": coset_reps},
    )
    # projection is a homomorphism with kernel exactly N
    if not is_homomorphism(G, quot, proj):
        raise GroupBuildError("quotient projection is not a homomorphism")
    if not np.array_equal(np.flatnonzero(proj == 0), mem):
        raise GroupBuildError("projection kernel is not N")
    return quot, proj


def subgroup_table(G: GroupTable, N: Subgroup) -> tuple[GroupTable, np.ndarray]:
    """(N as its own GroupTable, member list): element i of the new table is
    members[i] in G; the identity stays at index 0."""
    mem = np.array(N.members, dtype=np.int64)
    local = np.full(G.n, -1, dtype=np.int32)  # local[mem[i]] = i
    local[mem] = np.arange(len(mem), dtype=np.int32)
    sub = GroupTable(
        kind="subgroup",
        name=f"{G.name}|{len(N)}",
        labels=[G.labels[int(x)] for x in mem],
        mul_many_fn=lambda a, b: local[G.mul_many(mem[a], mem[b])],
        inv=local[G.inv[mem]],
        meta={"local": local},
    )
    return sub, mem


def transport_aut(
    alpha: Automorphism,
    N: Subgroup,
    mode: str,
    target: tuple[GroupTable, np.ndarray] | None = None,
) -> Automorphism:
    """Transport alpha to G/N ('induce') or to N ('restrict').

    Requires only alpha(N) = N, which is weaker than N being characteristic
    but is all the transport needs.  ``target`` may carry a precomputed
    quotient(G, N) / subgroup_table(G, N) pair to avoid rebuilding it.
    """
    G = alpha.parent
    if not N.is_invariant_under(alpha):
        raise InvarianceError("subgroup is not invariant under the automorphism")
    if mode == "induce":
        quot, proj = target if target is not None else quotient(G, N)
        reps = quot.meta["coset_reps"]
        images = proj[alpha.images[reps]]
        return Automorphism(quot, images, provenance=f"induced:{alpha.provenance}")
    if mode == "restrict":
        sub, mem = target if target is not None else subgroup_table(G, N)
        images = sub.meta["local"][alpha.images[mem]]
        return Automorphism(sub, images, provenance=f"restricted:{alpha.provenance}")
    raise ValueError(f"unknown transport mode {mode!r}")
