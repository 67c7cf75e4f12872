"""Automorphisms, inner automorphism groups, and full Aut(G) computation.

An automorphism is stored as a full index bijection over its parent group,
which makes every downstream bijectivity scan a flat table lookup.  Aut(G) is
computed either

  * by brute backtracking over generator images (|G| <= 512): generators are
    chosen greedily to minimize the generating set, candidate images are
    filtered by element order and centralizer size, and partial assignments
    are closed level by level into partial homomorphisms, pruning conflicts;
  * or, for PSL2(q), structurally: every automorphism is
    M -> N * frob^i(M) * N^-1 with N ranging over PGL2(q) and i < f.

Composition order matches function composition: (a*b)(g) = a(b(g)).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AutomorphismError, CapExceededError, StrategyError
from .fields import field_for
from .groups import (
    GroupTable,
    _matrix_mul_codes,
    _pack,
    closure_mask,
    closure_tree,
    element_orders_vec,
    is_homomorphism,
    projective_class_codes,
)

BRUTE_CAP = 512


class Automorphism:
    """A multiplicative index bijection fixing the identity.

    Construction always verifies multiplicativity, exactly: phi(x*g) =
    phi(x)*phi(g) for every x and every g in the parent's generating set,
    which makes phi a homomorphism by induction on word length.
    """

    def __init__(self, parent: GroupTable, images, provenance: str = "raw"):
        self.parent = parent
        self.images = np.asarray(images, dtype=np.int32).copy()
        self.provenance = provenance
        n = parent.n
        if self.images.shape != (n,):
            raise AutomorphismError(f"expected {n} images, got shape {self.images.shape}")
        if self.images[0] != 0:
            raise AutomorphismError("identity is not fixed")
        if not np.array_equal(np.bincount(self.images, minlength=n), np.ones(n, dtype=np.int64)):
            raise AutomorphismError("images are not a bijection")
        self._check_multiplicative()
        self.images.setflags(write=False)

    def _check_multiplicative(self):
        if not is_homomorphism(self.parent, self.parent, self.images):
            raise AutomorphismError("map is not multiplicative")

    # -- basic queries ------------------------------------------------------

    @property
    def key(self) -> bytes:
        return self.images.astype(">i4").tobytes()

    def __call__(self, x: int) -> int:
        return int(self.images[x])

    def __eq__(self, other):
        return (
            isinstance(other, Automorphism)
            and self.parent is other.parent
            and np.array_equal(self.images, other.images)
        )

    def __hash__(self):
        return hash((id(self.parent), self.key))

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.images, np.arange(self.parent.n)))

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other: x -> self(other(x))."""
        if other.parent is not self.parent:
            raise AutomorphismError("cannot compose automorphisms of different groups")
        return Automorphism(self.parent, self.images[other.images], provenance="composed")

    def inverse(self) -> "Automorphism":
        inv = np.empty_like(self.images)
        inv[self.images] = np.arange(self.parent.n, dtype=np.int32)
        return Automorphism(self.parent, inv, provenance="composed")

    def order(self) -> int:
        """Order as an element of Aut(G) (= its order as a permutation)."""
        n = self.parent.n
        k = 1
        cur = self.images
        ident = np.arange(n)
        while not np.array_equal(cur, ident):
            cur = self.images[cur]
            k += 1
        return k

    def __repr__(self):
        return f"Automorphism({self.parent.name}, {self.provenance})"


def identity_automorphism(G: GroupTable) -> Automorphism:
    return Automorphism(G, np.arange(G.n, dtype=np.int32), provenance="inner(0)")


def inner_automorphism(G: GroupTable, g: int) -> Automorphism:
    """Conjugation x -> g x g^-1."""
    idx = np.arange(G.n, dtype=np.int64)
    gx = G.mul_many(np.full(G.n, g, dtype=np.int64), idx)
    images = G.mul_many(gx, np.full(G.n, G.inverse(g), dtype=np.int64))
    return Automorphism(G, images, provenance=f"inner({g})")


def fixed_points(alpha: Automorphism) -> list[int]:
    """{x : alpha(x) = x}; always a subgroup containing the identity."""
    G = alpha.parent
    fixed = np.nonzero(alpha.images == np.arange(G.n))[0]
    prods = G.mul_many(np.repeat(fixed, len(fixed)), np.tile(fixed, len(fixed)))
    member = np.zeros(G.n, dtype=bool)
    member[fixed] = True
    if not member[prods].all():
        raise AutomorphismError("fixed-point set is not closed under multiplication")
    return [int(x) for x in fixed]


class AutGroup:
    """Aut(G) with its inner subgroup and a transversal of Inn(G)-cosets.

    ``all``, ``inner`` and ``coset_reps`` are each sorted by image sequence;
    the transversal is the lexicographically least member of each coset.
    """

    def __init__(self, parent: GroupTable, all_autos: list[Automorphism]):
        self.parent = parent
        self.all = sorted(all_autos, key=lambda a: a.key)
        self.inner = compute_inner(parent)
        by_key = {a.key: a for a in self.all}
        if len(by_key) != len(self.all):
            raise AutomorphismError("duplicate automorphisms in Aut(G)")
        for i in self.inner:
            if i.key not in by_key:
                raise AutomorphismError("Inn(G) is not contained in the computed Aut(G)")
        inner_mat = np.stack([i.images for i in self.inner])
        self.coset_reps: list[Automorphism] = []
        self._coset_of: dict[bytes, int] = {}
        remaining = dict(by_key)
        while remaining:
            rep_key = min(remaining)
            alpha = remaining[rep_key]
            coset = alpha.images[inner_mat]  # rows: alpha o iota
            for row in coset:
                k = row.astype(">i4").tobytes()
                if self._coset_of.get(k, len(self.coset_reps)) != len(self.coset_reps):
                    raise AutomorphismError("cosets of Inn(G) are not disjoint")
                if k in self._coset_of:
                    continue
                self._coset_of[k] = len(self.coset_reps)
                remaining.pop(k, None)
            self.coset_reps.append(alpha)
        if len(self.all) != len(self.inner) * len(self.coset_reps):
            raise AutomorphismError("|Aut| != |Inn| * number of cosets")

    def __len__(self):
        return len(self.all)

    def coset_index(self, alpha: Automorphism) -> int:
        return self._coset_of[alpha.key]

    def __repr__(self):
        return (
            f"AutGroup({self.parent.name}, |Aut|={len(self.all)}, "
            f"|Inn|={len(self.inner)}, cosets={len(self.coset_reps)})"
        )


def compute_inner(G: GroupTable) -> list[Automorphism]:
    """Inn(G), one automorphism per distinct conjugation, sorted by images."""
    seen: dict[bytes, Automorphism] = {}
    for g in range(G.n):
        a = inner_automorphism(G, g)
        seen.setdefault(a.key, a)
    return [seen[k] for k in sorted(seen)]


# ---------------------------------------------------------------------------
# brute-force Aut(G)
# ---------------------------------------------------------------------------


def greedy_generators(G: GroupTable) -> list[int]:
    """Generating set grown by always taking the element that enlarges the
    generated subgroup the most (ties to the least index)."""
    n = G.n
    gens: list[int] = []
    have = closure_mask(G, gens)
    while not have.all():
        best_x, best_size, best_have = -1, -1, None
        # x inside an earlier candidate's span generates no more than that
        # candidate did, so it cannot win and is skipped
        seen = have.copy()
        for x in range(n):
            if seen[x]:
                continue
            trial = closure_mask(G, gens + [x])
            seen |= trial
            size = int(trial.sum())
            if size > best_size:
                best_x, best_size, best_have = x, size, trial
                if size == n:
                    break
        gens.append(best_x)
        have = best_have
    return gens


def _consistent_tuples(T, gens, tuples, members, tree):
    """Filter candidate generator-image tuples to those that extend to an
    injective homomorphism on the subgroup spanned by ``members``; returns
    the survivors and their images.  ``members`` and ``tree`` are the
    discovery order and BFS tree from ``closure_tree``."""
    n = T.shape[0]
    src, genpos = tree
    targets = members[1:]
    survivors = []
    images_out = []
    block = 1024  # bounds the (block, n) work arrays: about 1.5 MB each at n = 360
    for start in range(0, len(tuples), block):
        blk = tuples[start : start + block]
        bn = len(blk)
        phi = np.full((bn, n), -1, dtype=np.int32)
        phi[:, 0] = 0
        for t, s, k in zip(targets, src, genpos):
            phi[:, t] = T[phi[:, s], blk[:, k]]
        ok = np.ones(bn, dtype=bool)
        for k, g in enumerate(gens):
            lhs = phi[:, T[members, g]]
            rhs = T[phi[:, members], blk[:, k : k + 1]]
            ok &= (lhs == rhs).all(axis=1)
        ok &= (phi[:, members] == 0).sum(axis=1) == 1
        survivors.append(blk[ok])
        images_out.append(phi[ok])
    return np.concatenate(survivors), np.concatenate(images_out)


def _brute_aut_images(G: GroupTable) -> np.ndarray:
    T = G.require_table()
    gens = greedy_generators(G)
    if not gens:
        return np.arange(1, dtype=np.int32).reshape(1, 1)
    orders = element_orders_vec(G)
    cent = (T == T.T).sum(axis=1)
    cand_lists = [
        np.nonzero((orders == orders[g]) & (cent == cent[g]))[0].astype(np.int64)
        for g in gens
    ]
    tuples = np.empty((1, 0), dtype=np.int64)
    for j, cands in enumerate(cand_lists):
        expanded = np.repeat(tuples, len(cands), axis=0)
        col = np.tile(cands, len(tuples))[:, None]
        mask, members, tree = closure_tree(G, gens[: j + 1])
        tuples, images = _consistent_tuples(
            T, gens[: j + 1], np.hstack([expanded, col]), members, tree
        )
    if not mask.all():
        raise AutomorphismError("generators do not generate the group")
    return images


# ---------------------------------------------------------------------------
# structured Aut(PSL2(q))
# ---------------------------------------------------------------------------


def _frobenius_code_map(q: int) -> np.ndarray:
    F = field_for(q)
    return np.array([F._pow_code(c, F.p) for c in range(q)], dtype=np.int64)


def _psl2_index_map(G: GroupTable, codes) -> np.ndarray:
    q = G.meta["q"]
    lookup = G.meta["code_lookup"]
    idx = lookup[_pack(*codes, q)]
    if np.any(idx < 0):
        raise AutomorphismError("projective image outside the enumerated group")
    return idx


def frobenius_permutation(G: GroupTable, i: int) -> np.ndarray:
    """Index permutation of PSL2(q) induced by entrywise x -> x^(p^i)."""
    q = G.meta["q"]
    F = field_for(q)
    if not 0 <= i < F.f:
        raise ValueError(f"field power index {i} out of range 0..{F.f - 1}")
    fr = np.arange(q, dtype=np.int64)
    step = _frobenius_code_map(q)
    for _ in range(i):
        fr = step[fr]
    A, B, C, D = G.meta["codes"]
    return _psl2_index_map(G, (fr[A], fr[B], fr[C], fr[D]))


def conjugation_permutation(G: GroupTable, nmat: tuple[int, int, int, int]) -> np.ndarray:
    """Index permutation M -> N M N^-1 of PSL2(q), for N in PGL2(q) given by
    entry codes."""
    q = G.meta["q"]
    F = field_for(q)
    matmul = _matrix_mul_codes(F)
    NEG = F.neg_table.astype(np.int64)
    na, nb, nc, nd = (np.int64(x) for x in nmat)
    ninv = (nd, NEG[nb], NEG[nc], na)  # adjugate: projective inverse
    A, B, C, D = G.meta["codes"]
    left = matmul((na, nb, nc, nd), (A, B, C, D))
    return _psl2_index_map(G, matmul(left, ninv))


def frobenius_field_aut(G: GroupTable, i: int) -> Automorphism:
    """The field automorphism of PSL2(q): entrywise p^i-th power."""
    if G.kind != "PSL2":
        raise StrategyError("frobenius_field_aut needs a PSL2(q) group")
    return Automorphism(G, frobenius_permutation(G, i), provenance=f"field({i})")


def _psl2_structured_images(G: GroupTable) -> list[tuple[np.ndarray, str]]:
    q = G.meta["q"]
    F = field_for(q)
    lookup = G.meta["code_lookup"]
    na, nb, nc, nd = projective_class_codes(q, psl2_only=False)
    frobs = [frobenius_permutation(G, i) for i in range(F.f)]
    out = []
    for j in range(len(na)):
        nmat = (int(na[j]), int(nb[j]), int(nc[j]), int(nd[j]))
        conj = conjugation_permutation(G, nmat)
        member = int(lookup[_pack(*(np.int64(x) for x in nmat), q)])
        for i, fr in enumerate(frobs):
            images = conj[fr]
            if i == 0:
                tag = f"inner({member})" if member >= 0 else "diagonal"
            elif nmat == (1, 0, 0, 1):
                tag = f"field({i})"
            else:
                tag = "composed"
            out.append((images, tag))
    return out


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def compute_aut(G: GroupTable, strategy: str = "auto") -> AutGroup:
    """Aut(G) via 'brute' (|G| <= 512), 'psl2_structured', or 'product'
    (direct product with coprime factor orders).

    An explicit strategy whose precondition fails raises StrategyError;
    'auto' on a valid group that no strategy covers raises CapExceededError,
    since only the brute-force cap stands in the way."""
    if strategy == "auto":
        if G.kind == "PSL2":
            strategy = "psl2_structured"
        elif G.n <= BRUTE_CAP:
            strategy = "brute"
        elif G.kind == "product" and math.gcd(*(H.n for H in G.meta["factors"])) == 1:
            strategy = "product"
        else:
            raise CapExceededError(
                f"{G.name}: order {G.n} exceeds the brute Aut search cap {BRUTE_CAP}, "
                "and no structured strategy applies"
            )
    if strategy == "brute":
        if G.n > BRUTE_CAP:
            raise StrategyError(f"brute Aut search capped at order {BRUTE_CAP}, got {G.n}")
        ident = np.arange(G.n, dtype=np.int32)
        autos = [
            Automorphism(G, row, provenance="inner(0)" if np.array_equal(row, ident) else "raw")
            for row in _brute_aut_images(G)
        ]
        return AutGroup(G, autos)
    if strategy == "psl2_structured":
        if G.kind != "PSL2":
            raise StrategyError("psl2_structured needs a group built as PSL2(q)")
        G.require_table()
        autos = [Automorphism(G, img, provenance=tag) for img, tag in _psl2_structured_images(G)]
        return AutGroup(G, autos)
    if strategy == "product":
        return _product_aut(G)
    raise StrategyError(f"unknown Aut strategy {strategy!r}")


def _product_aut(G: GroupTable) -> AutGroup:
    if G.kind != "product":
        raise StrategyError("product strategy needs a direct product")
    G1, G2 = G.meta["factors"]
    if math.gcd(G1.n, G2.n) != 1:
        raise StrategyError(
            "product Aut strategy requires coprime factor orders; "
            f"got {G1.n} and {G2.n}"
        )
    A1 = compute_aut(G1)
    A2 = compute_aut(G2)
    n2 = G2.n
    autos = []
    for a1 in A1.all:
        for a2 in A2.all:
            images = (a1.images.astype(np.int64)[:, None] * n2 + a2.images[None, :]).reshape(-1)
            autos.append(Automorphism(G, images, provenance="composed"))
    return AutGroup(G, autos)
