"""Automorphisms, inner automorphism groups, and full Aut(G) computation.

An automorphism is stored as a full index bijection over its parent group,
which makes every downstream bijectivity scan a flat table lookup.  Aut(G) is
held once, as one read-only (r x n) image matrix, one row per Inn(G)-coset
and validated in one pass per generator, together with the conjugations
x -> c x c^-1, one c per coset of Z(G); its rows alpha o iota_c are addressed
by position and formed, images included, each time they are read.  The
representatives are found either

  * by brute backtracking over the images of ``G.generators``, for any
    group, the generating set every automorphism is validated on: candidate
    images are filtered by element order and conjugacy class size, and
    partial assignments are closed level by level into partial
    homomorphisms through ``mul_many``, pruning conflicts; only one tuple of
    images per Inn(G)-orbit is searched, so exactly one automorphism per
    coset is found.  Its one bound is ``BRUTE_CAP`` cells of expansion;
  * or, for PSL2(q), structurally: every automorphism is
    M -> N * frob^i(M) * N^-1 with N ranging over PGL2(q) and i < f, and
    N over PGL2(q)/PSL2(q) gives one per coset.

Composition order matches function composition: (a*b)(g) = a(b(g)).
"""

from __future__ import annotations

import numpy as np

from .errors import AutomorphismError, CapExceededError, StrategyError
from .groups import (
    MATERIALIZE_CAP,
    GroupTable,
    blocks,
    center,
    closure_tree,
    conjugacy_classes,
    conjugations,
    element_orders,
    is_homomorphism,
    psl2_map,
    span_mask,
)

# the brute search's one bound: candidate tuples x candidate images x |G|
# cells, no more than the largest table the package holds
BRUTE_CAP = MATERIALIZE_CAP**2
WORK_CELLS = 1 << 18  # cells in each block of the brute search's work arrays


def _validated(parent: GroupTable, images) -> np.ndarray:
    """``images`` as a read-only int32 matrix with n columns, each row of which
    is an automorphism of ``parent``: its entries are integers in 0..n-1, it
    fixes the identity, it is multiplicative, and only the identity maps to
    the identity.  Multiplicativity is checked exactly, phi(x*g) =
    phi(x)*phi(g) for every x and every g in the parent's generating set
    (a homomorphism by induction on word length), for all rows at once; a
    homomorphism of a finite group with trivial kernel is a bijection."""
    n = parent.n
    try:
        rows = np.asarray(images)
    except ValueError:  # rows of uneven lengths
        raise AutomorphismError("rows of images have uneven shapes") from None
    if rows.ndim != 2 or rows.shape[1] != n or not len(rows):
        raise AutomorphismError(f"expected rows of {n} images, got shape {rows.shape}")
    if not np.issubdtype(rows.dtype, np.integer):
        raise AutomorphismError(f"images are not integers: {rows.dtype}")
    if rows.min() < 0 or rows.max() >= n:
        raise AutomorphismError(f"images outside 0..{n - 1}")
    rows = rows.astype(np.int32)
    if np.any(rows[:, 0] != 0):
        raise AutomorphismError("identity is not fixed")
    if not is_homomorphism(parent, parent, rows):
        raise AutomorphismError("map is not multiplicative")
    if np.any(np.count_nonzero(rows == 0, axis=1) != 1):
        raise AutomorphismError("images are not a bijection")
    rows.setflags(write=False)
    return rows


class Automorphism:
    """A multiplicative index bijection fixing the identity, validated on
    construction (see ``_validated``)."""

    def __init__(self, parent: GroupTable, images, provenance: str = "raw"):
        self.parent = parent
        self.images = _validated(parent, [images])[0]
        self.provenance = provenance

    # -- basic queries ------------------------------------------------------

    @property
    def key(self) -> bytes:
        return self.images.astype(">i4").tobytes()

    def __call__(self, x: int) -> int:
        return int(self.images[x])

    def prefix(self, count: int | None) -> np.ndarray:
        """The images of elements 0..count-1 (all of them for None)."""
        return self.images[:count]

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
        images = self.images
        ident = np.arange(self.parent.n)
        k = 1
        cur = images
        while not np.array_equal(cur, ident):
            cur = images[cur]
            k += 1
        return k

    def __repr__(self):
        return f"Automorphism({self.parent.name}, {self.provenance})"


def identity_automorphism(G: GroupTable) -> Automorphism:
    return Automorphism(G, np.arange(G.n, dtype=np.int32), provenance="inner(0)")


def inner_automorphism(G: GroupTable, g: int) -> Automorphism:
    """Conjugation x -> g x g^-1."""
    return Automorphism(G, _conjugation(G, g), provenance=f"inner({g})")


def fixed_points(alpha: Automorphism) -> list[int]:
    """{x : alpha(x) = x}; always a subgroup containing the identity."""
    G = alpha.parent
    member = alpha.images == np.arange(G.n)
    fixed = np.flatnonzero(member)
    # closed exactly when the subgroup it generates is itself
    if not np.array_equal(span_mask(G, fixed)[0], member):
        raise AutomorphismError("fixed-point set is not closed under multiplication")
    return [int(x) for x in fixed]


class _Row(Automorphism):
    """``rep`` o iota_c, an automorphism by construction (``rep`` is one, and
    conjugation is one by the group axioms), so it is not re-checked.  Its
    images, or a prefix of them, are formed on each read."""

    def __init__(self, parent: GroupTable, rep: np.ndarray, c: int, provenance: str):
        self.parent = parent
        self.provenance = provenance
        self._rep = rep
        self._c = c

    @property
    def images(self) -> np.ndarray:
        return self.prefix(None)

    def prefix(self, count: int | None) -> np.ndarray:
        return self._rep.take(_conjugation(self.parent, self._c, count))


def _conjugation(G: GroupTable, c: int, count: int | None = None) -> np.ndarray:
    """x -> c x c^-1 over the elements 0..count-1 (all of G for None).  On a
    table it is read as c (c x^-1)^-1, which touches row c alone."""
    table = G.table
    if table is None:
        return conjugations(G, [c], np.arange(G.n)[:count])[0]
    row = table[c]
    return row.take(G.inv.take(row.take(G.inv[:count])))


def _conjugators(G: GroupTable) -> np.ndarray:
    """The least element of each coset of Z(G), ascending: conjugation by
    each gives every inner automorphism exactly once."""
    idx = np.arange(G.n, dtype=np.int64)
    least = idx
    for z in center(G):
        least = np.minimum(least, G.mul_many(idx, z))
    return np.flatnonzero(np.bincount(least))


def _key_columns(G: GroupTable) -> np.ndarray:
    """The identity and ``G.generators``: automorphisms compare on these
    columns exactly as on their full images.  Let two of them first differ
    on g_j; they agree on <g_1..g_j-1>, which holds every index below g_j,
    since g_j is the least index outside it.  So g_j is also the first
    column where their images differ.  The proof needs greedy generators."""
    return np.array([0, *G.generators], dtype=np.int64)


class AutGroup:
    """Aut(G) held as its Inn(G)-cosets: ``reps``, a read-only (r x n) image
    matrix with one validated representative per coset, times Inn(G) as
    conjugation rows.  It is the sequence of its rows, sorted by image
    sequence and addressed by position: ``parts(j)`` names row j as (row of
    ``reps``, c), and ``aut[j]`` forms a handle for rep_r o iota_c on each
    read (an IndexError past the last row ends iteration), whose images are
    formed only when they are read.  ``coset_rows`` holds the position of
    each coset's lexicographically least row, row 0 (the identity) among
    them; ``all`` is the AutGroup itself.

    Constructed from every automorphism of G, in any order (anything with
    ``images`` and ``provenance``, such as another AutGroup), each row keeps
    its given provenance; ``from_reps`` takes an image matrix with one row
    per coset and a naming rule.  Either way the representatives are
    validated here, exactly, in one pass per generator over the whole
    matrix, and only they are: every other row is one of them composed with
    a conjugation.
    """

    def __init__(self, parent: GroupTable, all_autos):
        autos = list(all_autos)
        images = np.stack([a.images for a in autos])
        cs = _conjugators(parent)
        cols = _key_columns(parent)
        inner_keys = conjugations(parent, cs, cols)
        order = np.lexsort(images[:, cols[::-1]].T).tolist()
        # in image order the first row met of each coset is its least; it
        # becomes a representative, and the keys of its coset are covered
        covered, reps = set(), []
        for i in order:
            if images[i, cols].tobytes() not in covered:
                reps.append(i)
                covered.update(key.tobytes() for key in images[i][inner_keys])
        names = np.array([autos[i].provenance for i in order])  # row j is given row order[j]
        self._setup(parent, images[reps], cs, lambda j, r, c: str(names[j]))
        if len(self) != len(autos) or not all(
            np.array_equal(row.images, images[i]) for row, i in zip(self, order)
        ):
            raise AutomorphismError("given rows are not whole Inn(G)-cosets without duplicates")

    @classmethod
    def from_reps(cls, parent: GroupTable, images, tag) -> "AutGroup":
        """Aut(G) from one automorphism per Inn(G)-coset, the rows of the
        (r x n) matrix ``images``; ``tag(r, c)`` names the row formed from
        representative r and conjugator c, and ``tag(r, 0)`` representative r."""
        self = cls.__new__(cls)
        self._setup(parent, images, _conjugators(parent), lambda j, r, c: tag(r, c))
        return self

    def _setup(self, parent, images, cs, name):
        self.parent = parent
        self.reps = _validated(parent, images)
        cols = _key_columns(parent)
        # row (r, c) is keyed on rep_r o iota_c at the key columns
        keys = self.reps[:, conjugations(parent, cs, cols)].reshape(-1, len(cols))
        order = np.lexsort(keys[:, ::-1].T)
        keys = keys[order]
        if np.any((keys[1:] == keys[:-1]).all(axis=1)):
            raise AutomorphismError("cosets of Inn(G) are not disjoint")
        if not np.array_equal(keys[0], cols):
            raise AutomorphismError("Inn(G) is not contained in the computed Aut(G)")
        self._rep_of, c_pos = np.divmod(order, len(cs))
        self._c_of = cs[c_pos]
        self._name = name  # name(j, r, c): row j, formed from reps[r] and conjugator c
        self.coset_rows = np.sort(np.unique(self._rep_of, return_index=True)[1]).tolist()

    all = property(lambda self: self, doc="The AutGroup itself, the sequence of its rows.")

    def parts(self, j: int) -> tuple[int, int]:
        return int(self._rep_of[j]), int(self._c_of[j])

    def __getitem__(self, j: int) -> _Row:
        r, c = self.parts(j)
        return _Row(self.parent, self.reps[r], c, self._name(j, r, c))

    def __len__(self):
        return len(self._rep_of)

    def __repr__(self):
        cosets = len(self.coset_rows)
        return (
            f"AutGroup({self.parent.name}, |Aut|={len(self)}, "
            f"|Inn|={len(self) // cosets}, cosets={cosets})"
        )


def compute_inner(G: GroupTable) -> AutGroup:
    """Inn(G), one row per distinct conjugation, sorted by images: the coset
    of the identity, whose row 0 is the identity.  A conjugation is an
    automorphism by the group axioms, so only the identity is checked."""
    return AutGroup.from_reps(G, np.arange(G.n)[None], lambda r, c: f"inner({c})")


# ---------------------------------------------------------------------------
# brute-force Aut(G)
# ---------------------------------------------------------------------------


def _consistent_tuples(G, tuples, members, tree):
    """Which candidate generator-image tuples extend to an injective
    homomorphism on the subgroup spanned by ``members``; returns that mask
    and the survivors' images.  ``members`` and ``tree`` are the discovery
    order and BFS tree from ``closure_tree``; each level of the tree is
    imaged in one product, for a block of tuples at a time, and each
    member's product by each generator is checked against the images."""
    src, genpos, levels, prods = tree
    targets = members[1:]
    oks, images_out = [], []
    for block in blocks(len(tuples), G.n, WORK_CELLS):
        blk = tuples[block]
        phi = np.full((len(blk), G.n), -1, dtype=np.int32)
        phi[:, 0] = 0
        for lv in levels:
            phi[:, targets[lv]] = G.mul_many(phi[:, src[lv]], blk[:, genpos[lv]])
        mapped = phi[:, members]
        ok = (mapped == 0).sum(axis=1) == 1
        for k, xg in enumerate(prods.T):
            ok &= (phi[:, xg] == G.mul_many(mapped, blk[:, k : k + 1])).all(axis=1)
        oks.append(ok)
        images_out.append(phi[ok])
    return np.concatenate(oks), np.concatenate(images_out)


def _orbit_least(G: GroupTable, masks: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Row k: which of ``ys`` are the least of their orbit under conjugation
    by the subgroup ``masks[k]``."""
    out = np.empty((len(masks), len(ys)), dtype=bool)
    for k, cs in enumerate(map(np.flatnonzero, masks)):
        least = ys
        for block in blocks(len(cs), len(ys), WORK_CELLS):
            least = np.minimum(least, conjugations(G, cs[block], ys).min(axis=0))
        out[k] = least == ys
    return out


def _brute_aut_images(G: GroupTable) -> np.ndarray:
    """The images of one automorphism per Inn(G)-coset, the identity among
    them, searched as tuples of images of ``G.generators``.  iota_c o alpha
    sends each generator g to c alpha(g) c^-1, so the search keeps only the
    tuples whose j-th image is the least of its orbit under C_G of the images
    before it: one tuple per orbit of Inn(G).  The identity's tuple is the
    one kept from Inn(G): g_j is the least element outside <g_1..g_j-1>, and
    a conjugate of g_j by the centralizer of g_1..g_j-1 lies outside that
    subgroup too, so it is no less than g_j.  Products go through
    ``mul_many``; the table is read once, to build it where it can be."""
    G.table
    gens = list(G.generators)
    if not gens:
        return np.arange(1, dtype=np.int32).reshape(1, 1)
    # an automorphism keeps each element's order and conjugacy class size
    orders, size = element_orders(G), np.empty(G.n, dtype=np.int64)
    for cls in conjugacy_classes(G):
        size[cls] = len(cls)
    cand_lists = [np.flatnonzero((orders == orders[g]) & (size == size[g])) for g in gens]
    tuples = np.empty((1, 0), dtype=np.int64)
    # each tuple's common centralizer of its images, as a row of ``masks``
    masks, cid = np.ones((1, G.n), dtype=bool), np.zeros(1, dtype=np.int64)
    for j, cands in enumerate(cand_lists):
        if len(tuples) * len(cands) * G.n > BRUTE_CAP:
            raise CapExceededError(
                f"{G.name}: the brute Aut search would expand {len(tuples)} x {len(cands)} "
                f"candidate images, over {BRUTE_CAP} cells"
            )
        if j:
            # C(t_1..t_j) = C(t_1..t_j-1) & C(t_j), once per distinct pair
            pairs, cid = np.unique(cid * G.n + tuples[:, -1], return_inverse=True)
            ys = pairs % G.n
            fixing = [conjugations(G, np.arange(G.n), ys[b]).T == ys[b, None]
                      for b in blocks(len(ys), G.n, WORK_CELLS)]
            masks, inv = np.unique(
                masks[pairs // G.n] & np.concatenate(fixing), axis=0, return_inverse=True
            )
            cid = inv.reshape(-1)[cid]
        rows, cols = np.nonzero(_orbit_least(G, masks, cands)[cid])
        mask, members, tree = closure_tree(G, gens[: j + 1])
        expanded = np.hstack([tuples[rows], cands[cols, None]])
        ok, images = _consistent_tuples(G, expanded, members, tree)
        tuples, cid = expanded[ok], cid[rows[ok]]
    if not mask.all():
        raise AutomorphismError("generators do not generate the group")
    return images


# ---------------------------------------------------------------------------
# structured Aut(PSL2(q))
# ---------------------------------------------------------------------------


def frobenius_field_aut(G: GroupTable, i: int) -> Automorphism:
    """The field automorphism of PSL2(q): entrywise p^i-th power."""
    if G.kind != "PSL2":
        raise StrategyError("frobenius_field_aut needs a PSL2(q) group")
    return Automorphism(G, psl2_map(G, (1, 0, 0, 1), i), provenance=f"field({i})")


def _psl2_structured_images(G: GroupTable) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """One automorphism per Inn(G)-coset of Aut(PSL2(q)) = PGL2(q) x| Gal:
    conj_N o frob^i for i < f, N the identity or (q odd) diag(nu, 1) with
    nu a non-square.  Returns their images, one row each, and each one's
    (N is diagonal, i)."""
    F = G.meta["field"]
    nmats = [(1, 0, 0, 1)]
    nonsquares = np.nonzero(~F.square_mask)[0]
    if len(nonsquares):
        nmats.append((int(nonsquares[0]), 0, 0, 1))
    keys = [(diagonal, i) for diagonal in range(len(nmats)) for i in range(F.f)]
    return np.stack([psl2_map(G, nmats[d], i) for d, i in keys]), keys


def _psl2_tag(diagonal: bool, i: int, c: int) -> str:
    """Name of conj_N o frob^i o iota_c = conj_{N*frob^i(c)} o frob^i, as the
    enumeration of PGL2(q) x Gal by (N', i) names it: inner(N') when i = 0
    and N' is in PSL2, diagonal when i = 0 otherwise, field(i) when N' = 1."""
    if i == 0:
        return "diagonal" if diagonal else f"inner({c})"
    return f"field({i})" if not diagonal and c == 0 else "composed"


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def compute_aut(G: GroupTable, strategy: str = "auto") -> AutGroup:
    """Aut(G) via 'brute', or 'psl2_structured' (StrategyError on a group not
    built as PSL2(q)); 'auto' takes the one that applies.  A brute search
    that would expand more than ``BRUTE_CAP`` cells raises CapExceededError."""
    if strategy == "auto":
        strategy = "psl2_structured" if G.kind == "PSL2" else "brute"
    if strategy == "brute":
        images = _brute_aut_images(G)
        ident = (images == np.arange(G.n)).all(axis=1)
        return AutGroup.from_reps(
            G, images, lambda r, c: "inner(0)" if c == 0 and ident[r] else "raw"
        )
    if strategy == "psl2_structured":
        if G.kind != "PSL2":
            raise StrategyError("psl2_structured needs a group built as PSL2(q)")
        images, keys = _psl2_structured_images(G)
        return AutGroup.from_reps(G, images, lambda r, c: _psl2_tag(*keys[r], c))
    raise StrategyError(f"unknown Aut strategy {strategy!r}")
