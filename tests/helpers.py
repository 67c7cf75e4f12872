"""Brute-force cross-checks used only by the test suite."""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

from autmap import automorphisms
from autmap.groups import GroupTable, closure_tree, conjugations, element_orders
from autmap.parser import elaborate_text


@functools.cache
def built(text: str) -> GroupTable:
    """``elaborate_text(text)``, built once per session: groups are immutable,
    so tests that only read a group share it."""
    return elaborate_text(text)


def element_order(G: GroupTable, x: int) -> int:
    """Least k >= 1 with x^k the identity, by repeated multiplication."""
    k, y = 1, x
    while y != 0:
        y = G.mul(y, x)
        k += 1
    return k


def closure(G: GroupTable, gens: list[int]) -> set[int]:
    out = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = G.mul(x, g)
                if y not in out:
                    out.add(y)
                    nxt.append(y)
        frontier = nxt
    return out


def greedy_generators(G: GroupTable) -> list[int]:
    gens: list[int] = []
    have = {0}
    while len(have) < G.n:
        best, best_size = None, 0
        for x in range(G.n):
            if x in have:
                continue
            size = len(closure(G, gens + [x]))
            if size > best_size:
                best, best_size = x, size
                if size == G.n:
                    break
        gens.append(best)
        have = closure(G, gens)
    return gens


def _extend_hom(G: GroupTable, H: GroupTable, gens, images):
    """Grow the partial map <gens> -> H by closure; None on any conflict."""
    phi = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g, h in zip(gens, images):
                y = G.mul(x, g)
                fy = H.mul(phi[x], h)
                if y in phi:
                    if phi[y] != fy:
                        return None
                else:
                    phi[y] = fy
                    nxt.append(y)
        frontier = nxt
    return phi


def find_isomorphism(G: GroupTable, H: GroupTable):
    """First isomorphism G -> H found by generator-image backtracking,
    as an image list over G's indices; None if the groups are not isomorphic."""
    if G.n != H.n:
        return None
    gens = greedy_generators(G)
    orders = [element_order(G, g) for g in gens]
    cands = [
        [y for y in range(H.n) if element_order(H, y) == o] for o in orders
    ]

    def rec(k, chosen):
        if k == len(gens):
            phi = _extend_hom(G, H, gens, chosen)
            if phi and len(phi) == G.n and len(set(phi.values())) == G.n:
                return [phi[x] for x in range(G.n)]
            return None
        for y in cands[k]:
            got = rec(k + 1, chosen + [y])
            if got is not None:
                return got
        return None

    return rec(0, [])


def full_brute_aut(G: GroupTable) -> automorphisms.AutGroup:
    """Aut(G) from every automorphism, found by the generator-image search
    with no Inn(G)-orbit filter: every consistent tuple of candidate images
    is kept, and the full list is split into cosets by ``AutGroup``."""
    T = G.require_table()
    gens = greedy_generators(G)
    orders = element_orders(G)
    cent = (T == T.T).sum(axis=1)
    tuples = np.empty((1, 0), dtype=np.int64)
    for j, g in enumerate(gens):
        cands = np.nonzero((orders == orders[g]) & (cent == cent[g]))[0]
        expanded = np.hstack(
            [np.repeat(tuples, len(cands), axis=0), np.tile(cands, len(tuples))[:, None]]
        )
        _, members, tree = closure_tree(G, gens[: j + 1])
        ok, images = automorphisms._consistent_tuples(G, expanded, members, tree)
        tuples = expanded[ok]
    ident = (images == np.arange(G.n)).all(axis=1)
    return automorphisms.AutGroup(
        G,
        [SimpleNamespace(images=img, provenance="inner(0)" if i else "raw")
         for img, i in zip(images, ident)],
    )


def inner_rows(A: automorphisms.AutGroup) -> list:
    """The rows of Inn(G) in ``A``, in order: the coset of row 0, the identity."""
    inner = A.parts(0)[0]
    return [A[j] for j in range(len(A)) if A.parts(j)[0] == inner]


def perm_parity(images) -> int:
    """0 for an even permutation, 1 for an odd one: a cycle of length L is
    L - 1 transpositions."""
    seen = [False] * len(images)
    parity = 0
    for start in range(len(images)):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = images[x]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def first_inverted_reference(G: GroupTable, images) -> tuple[int, int] | None:
    """The least c, then the least x != 1, with images(c x c^-1) = x^-1, by
    walking every member of the coset images*Inn(G) with scalar products."""
    for c in range(G.n):
        for x in range(1, G.n):
            if images[G.mul(G.mul(c, x), G.inverse(c))] == G.inverse(x):
                return c, x
    return None


def conjugacy_classes_reference(G: GroupTable) -> list[list[int]]:
    """Conjugacy classes by a walk over the elements: the least element not
    yet met is conjugated by every element, once per class.  Each class is
    sorted, and the classes come in order of least member."""
    everyone = np.arange(G.n)
    unseen = np.ones(G.n, dtype=bool)
    classes = []
    for x in range(G.n):
        if unseen[x]:
            orbit = np.flatnonzero(np.bincount(conjugations(G, everyone, [x]).ravel()))
            unseen[orbit] = False
            classes.append(orbit.tolist())
    return classes


def quotient_reference(G: GroupTable, N) -> tuple[list[int], np.ndarray]:
    """(coset_reps, proj) of G/N by a walk over the elements: an element not
    yet projected is the least member of its coset xN, which is numbered
    next."""
    mem = np.array(N.members, dtype=np.int64)
    proj = np.full(G.n, -1, dtype=np.int64)
    reps = []
    for x in range(G.n):
        if proj[x] < 0:
            proj[G.mul_many(x, mem)] = len(reps)
            reps.append(x)
    return reps, proj


def permutation_order_reference(images) -> int:
    """Least k >= 1 with ``images`` composed with itself k times the identity."""
    images = np.asarray(images)
    ident = np.arange(len(images))
    k, cur = 1, images
    while not np.array_equal(cur, ident):
        cur = images[cur]
        k += 1
    return k
