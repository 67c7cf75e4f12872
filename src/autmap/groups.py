"""Finite groups on dense indices, with product tables built on first read.

Conventions shared by the whole package:
  * an element is its index, dense in 0..n-1, and index 0 is always the
    identity.  ``GroupTable.labels[i]`` is its one printed form; its
    canonical form is the array its builder multiplies with, row i of
    ``meta["perm_array"]`` for S_m and A_m and entry i of each of the four
    ``meta["codes"]`` arrays for SL2, PSL2 and PGL2;
  * enumeration order is canonical: identity first, then ascending canonical
    form (lexicographic image tuples for permutations, packed entry codes for
    matrices, pair order for products);
  * permutations compose right-to-left, (p*q)(x) = p(q(x)), matching the
    composition order used for automorphisms;
  * the full n x n multiplication table is built on first read of
    ``GroupTable.table``, for n <= 4096; until then, and always for larger
    groups, products are multiplied on demand through vectorized arithmetic
    on the canonical representations;
  * tables, the index lookups that fill them and the on-demand products of
    the builders here are int16 (``TABLE_DTYPE``): every index is below
    ``ORDER_CAP`` < 2^15, so a table takes half the bytes of int32, and a
    product has one dtype whether it was read from a table or multiplied on
    demand.  Values read from one are widened before arithmetic that could
    leave that range, as ``GroupTable.mul_many`` widens to int64;
  * a table is filled a block of rows at a time, by the same row-block
    routine whose blocks the self-check covered, and read as one flat array,
    products a*b as ``table.ravel().take(a*n + b)``: a 1-D take is numpy's
    fast gather, where 2-D fancy indexing is its slow one.  The on-demand
    kernels gather the same way, from the flat permutation array and the
    flat row-product table;
  * a 2x2 matrix product over GF(q) is exact, through the field's tables, but
    regrouped by rows: ``rowprod[u*q + v, y]`` packs the row vector (u, v)
    times matrix y, so the product of x and y packs as
    rowprod[top row of x, y] * q^2 + rowprod[bottom row of x, y], and one
    lookup of that code, filled at every nonzero scalar multiple of each
    projective representative, gives its index without canonicalization.
    Row x of the table is thus two whole rows of rowprod, combined and
    looked up, and a pair product reads the same two entries and lookup;
  * a matrix group's codes, lookup and rowprod are built a slice at a time,
    so beyond what it keeps it holds at most q^3 codes or O(q*n) entries;
  * outside its builder, a packed matrix code is read only through
    ``matrix_index``;
  * every group carries a generating set (``GroupTable.generators``), on which
    homomorphisms (automorphisms, quotient projections) are validated
    exactly.

Every constructed group is self-checked: two-sided identity and inverses,
and associativity.  Associativity is exact for every group: (xy)s = x(ys)
for all x, y and every generator s extends to every z = w*s by induction on
word length, (xy)(ws) = ((xy)w)s = (x(yw))s = x((yw)s) = x(y(ws)) (Light's
test), checked a block of rows at a time by 1-D takes from that block's
products, made by the group's row-block routine.  Together the three make
the products a group's, and a group's table is a Latin square, so that
needs no check of its own.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import AutomorphismError, CapExceededError, GroupBuildError
from .fields import FieldParams, field_for, prime_power

ORDER_CAP = 10_000
MATERIALIZE_CAP = 4096
TABLE_DTYPE = np.int16  # holds every index, since ORDER_CAP < 2**15
PERM_DEGREE_CAP = 8
MIN_PROJECTIVE_Q = 4


def perm_label(images) -> str:
    """Cycle notation on 1-based points; the identity prints as 'id'."""
    m = len(images)
    seen = [False] * m
    cycles = []
    for start in range(m):
        if seen[start] or images[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = images[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = images[x]
        cycles.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
    return "".join(cycles) if cycles else "id"


class GroupTable:
    """A fully constructed finite group on indices 0..n-1.

    All queries are pure.  The table is a cache of the checked products,
    built on first read of ``table`` from the row blocks the self-check
    covered.  ``row_block_fn(rows)`` gives the products x*y for x in the
    slice ``rows`` and every y; without one, it is ``mul_many_fn`` on those
    rows and all columns.
    """

    def __init__(self, *, kind, name, labels, mul_many_fn, inv, meta=None, row_block_fn=None):
        self.kind = kind
        self.name = name
        self.labels = labels
        self.n = len(labels)
        self.meta = meta or {}
        self._mul_many_fn = mul_many_fn
        self._table = None
        idx = np.arange(self.n, dtype=np.int64)
        self._row_block = row_block_fn or (lambda rows: mul_many_fn(idx[rows, None], idx))
        self.inv = np.asarray(inv, dtype=np.int32)
        _verify_group(self)

    # -- multiplication -----------------------------------------------------

    @property
    def table(self) -> np.ndarray | None:
        """The n x n product table, filled a row block at a time on first
        read; None above ``MATERIALIZE_CAP``."""
        if self._table is None and self.n <= MATERIALIZE_CAP:
            table = np.empty((self.n, self.n), dtype=TABLE_DTYPE)
            for rows in blocks(self.n, self.n):
                table[rows] = self._row_block(rows)
            self._table = table
        return self._table

    @property
    def is_materialized(self) -> bool:
        """Whether the table has been built."""
        return self._table is not None

    def require_table(self) -> np.ndarray:
        if self.table is None:
            raise CapExceededError(
                f"{self.name}: order {self.n} exceeds the materialization cap "
                f"{MATERIALIZE_CAP}; this operation needs the full table"
            )
        return self.table

    def mul_many(self, a, b) -> np.ndarray:
        """Elementwise products of two broadcastable index arrays."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self._table is not None:
            return self._table.ravel().take(a * self.n + b)
        return self._mul_many_fn(a, b)

    def mul(self, i: int, j: int) -> int:
        return int(self.mul_many(i, j))

    def inverse(self, i: int) -> int:
        return int(self.inv[i])

    @functools.cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set: repeatedly the least index outside the span of
        the generators taken so far."""
        return tuple(span_mask(self, range(self.n))[1])

    def power(self, i: int, k: int) -> int:
        if k < 0:
            i, k = int(self.inv[i]), -k
        r = 0
        x = i
        while k:
            if k & 1:
                r = self.mul(r, x)
            k >>= 1
            if k:
                x = self.mul(x, x)
        return r

    def power_vec(self, k: int, count: int | None = None) -> np.ndarray:
        """x^k for every element x, or for the first ``count``, as one vector."""
        count = self.n if count is None else count
        if k == 0:
            return np.zeros(count, dtype=np.int32)
        cur = np.arange(count, dtype=np.int32) if k > 0 else self.inv[:count].copy()
        k = abs(k)
        result = None
        while k:
            if k & 1:
                result = cur if result is None else np.asarray(self.mul_many(result, cur), np.int32)
            k >>= 1
            if k:
                cur = np.asarray(self.mul_many(cur, cur), np.int32)
        return result

    def __repr__(self):
        return f"GroupTable({self.name}, order={self.n})"


# ---------------------------------------------------------------------------
# construction core
# ---------------------------------------------------------------------------


def blocks(count: int, width: int, cells: int = 16_384):
    """Slices of range(count), as many items each as keep ``width`` cells per
    item within ``cells`` (one item at least).  The default suits the rows of
    a product table: one block's temporaries stay in cache and are reused by
    the allocator rather than mapped afresh."""
    step = max(1, cells // max(width, 1))
    return (slice(start, min(start + step, count)) for start in range(0, count, step))


def _verify_group(gt: GroupTable):
    n = gt.n
    idx = np.arange(n, dtype=np.int64)
    if not (np.array_equal(gt.mul_many(0, idx), idx) and np.array_equal(gt.mul_many(idx, 0), idx)):
        raise GroupBuildError(f"{gt.name}: index 0 is not a two-sided identity")
    if np.any(gt.mul_many(idx, gt.inv)) or np.any(gt.mul_many(gt.inv, idx)):
        raise GroupBuildError(f"{gt.name}: inverse table is wrong")
    rights = [gt.mul_many(idx, g) for g in gt.generators]  # z -> zg
    for rows in blocks(n, n):
        # (xy)g == x(yg) for x in rows, every y and every generator g; the
        # block is widened to an index once, not once per generator inside
        # the take, and stays narrow where it is the source
        block = gt._row_block(rows)
        index = block.astype(np.intp)
        for right_g in rights:
            if not np.array_equal(right_g.take(index), block.take(right_g, axis=1)):
                raise GroupBuildError(f"{gt.name}: multiplication is not associative")


def closure_tree(G: GroupTable, gens):
    """Breadth-first closure of ``gens`` from the identity under right
    multiplication (inverses come for free in a finite group).  Multiplies
    through ``mul_many``, so no table is needed.

    Returns ``(mask, members, (src, genpos))``: the membership mask of the
    generated subgroup, its members in discovery order (identity first), and
    the BFS tree, members[i] = src[i-1] * gens[genpos[i-1]] with every src
    discovered before its target."""
    mask = np.zeros(G.n, dtype=bool)
    mask[0] = True
    garr = np.asarray([int(g) for g in gens], dtype=np.int64)
    m = len(garr)
    frontier = np.zeros(1, dtype=np.int64)
    members, src, genpos = [frontier], [frontier[:0]], [frontier[:0]]
    while len(frontier) and m:
        # np.unique's first index of each product is the first edge into it
        prods, first = np.unique(
            G.mul_many(np.repeat(frontier, m), np.tile(garr, len(frontier))),
            return_index=True,
        )
        new = ~mask[prods]
        first = first[new]
        src.append(frontier[first // m])
        genpos.append(first % m)
        frontier = prods[new]
        mask[frontier] = True
        members.append(frontier)
    return mask, np.concatenate(members), (np.concatenate(src), np.concatenate(genpos))


def span_mask(G: GroupTable, elements) -> tuple[np.ndarray, list[int]]:
    """Membership mask of the subgroup generated by ``elements``, and the
    generators it was closed over: in the given order, each element outside
    the span of those taken before it."""
    gens: list[int] = []
    mask = closure_tree(G, gens)[0]
    for x in map(int, elements):
        if not mask[x]:
            gens.append(x)
            mask = closure_tree(G, gens)[0]
    return mask, gens


def is_homomorphism(G: GroupTable, H: GroupTable, images) -> bool:
    """Whether x -> images[..., x] is a homomorphism G -> H, for the one map
    or every row of a matrix of them, decided exactly: images[x*g] ==
    images[x]*images[g] for every x and every generator g of G extends to
    all of G by induction on word length.  One pair of products per
    generator covers all rows."""
    images = np.asarray(images)
    idx = np.arange(G.n, dtype=np.int64)
    for g in G.generators:
        lhs = images[..., G.mul_many(idx, g)]
        rhs = H.mul_many(images, images[..., g, None])
        if not np.array_equal(lhs, rhs):
            return False
    return True


def check_order_cap(name: str, order: int, cap: int = ORDER_CAP) -> int:
    """``order``, unless it exceeds ``cap``."""
    if order > cap:
        raise CapExceededError(
            f"{name}: predicted order {order} exceeds cap {cap}", predicted=order
        )
    return order


# ---------------------------------------------------------------------------
# atomic constructors
# ---------------------------------------------------------------------------


def build_cyclic(n: int) -> GroupTable:
    check_order_cap(f"C{n}", predicted_atomic_order("C", n))

    def mul_many(a, b):
        return ((a + b) % n).astype(TABLE_DTYPE)

    inv = [(n - i) % n for i in range(n)]
    return GroupTable(
        kind="cyclic",
        name=f"C{n}",
        labels=[str(i) for i in range(n)],
        mul_many_fn=mul_many,
        inv=inv,
    )


def build_dihedral(n: int) -> GroupTable:
    """Dihedral group of order 2n: rotations r^k and reflections r^k s."""
    check_order_cap(f"D{n}", predicted_atomic_order("D", n))
    pairs = [(r, s) for r in range(n) for s in range(2)]  # index = 2r + s

    def mul_many(a, b):
        r1, s1 = a // 2, a % 2
        r2, s2 = b // 2, b % 2
        r = np.where(s1 == 0, r1 + r2, r1 - r2) % n
        return (2 * r + (s1 ^ s2)).astype(TABLE_DTYPE)

    def lab(r, s):
        if s == 0:
            return "e" if r == 0 else f"r{r}"
        return "s" if r == 0 else f"r{r}s"

    inv = [2 * ((n - r) % n) if s == 0 else 2 * r + 1 for (r, s) in pairs]
    return GroupTable(
        kind="dihedral",
        name=f"D{n}",
        labels=[lab(r, s) for (r, s) in pairs],
        mul_many_fn=mul_many,
        inv=inv,
    )


_Q8_AXES = {(1, 2): (1, 3), (2, 1): (-1, 3), (2, 3): (1, 1), (3, 2): (-1, 1), (3, 1): (1, 2), (1, 3): (-1, 2)}


def _q8_mul(x, y):
    s1, a1 = x
    s2, a2 = y
    if a1 == 0:
        return (s1 * s2, a2)
    if a2 == 0:
        return (s1 * s2, a1)
    if a1 == a2:
        return (-s1 * s2, 0)
    e, a = _Q8_AXES[(a1, a2)]
    return (e * s1 * s2, a)


def build_quaternion8() -> GroupTable:
    """The order-8 quaternion group, by its explicit table."""
    units = [(1, 0), (-1, 0), (1, 1), (-1, 1), (1, 2), (-1, 2), (1, 3), (-1, 3)]
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    pos = {u: k for k, u in enumerate(units)}
    table = np.array(
        [[pos[_q8_mul(x, y)] for y in units] for x in units], dtype=TABLE_DTYPE
    )

    def mul_many(a, b):
        return table[a, b]

    inv = [pos[(s, 0)] if a == 0 else pos[(-s, a)] for (s, a) in units]
    return GroupTable(
        kind="quaternion8",
        name="Q8",
        labels=labels,
        mul_many_fn=mul_many,
        inv=inv,
    )


def _build_perm_group(kind: str, m: int) -> GroupTable:
    letter = "S" if kind == "symmetric" else "A"
    name = f"{letter}{m}"
    check_order_cap(name, predicted_atomic_order(letter, m))
    # lexicographic order puts the identity first already
    arr = np.array(list(itertools.permutations(range(m))), dtype=np.int8)
    if kind == "alternating":
        i, j = np.triu_indices(m, 1)  # even: an even number of inversions
        arr = arr[(arr[:, i] > arr[:, j]).sum(axis=1) % 2 == 0]
    pows = (m ** np.arange(m)).astype(np.int64)
    codes = arr.astype(np.int64) @ pows
    lookup = np.full(m**m, -1, dtype=TABLE_DTYPE)
    lookup[codes] = np.arange(len(arr))

    def mul_many(a, b):
        comp = arr.ravel().take(np.asarray(a)[..., None] * m + arr[b])  # (p*q)(t) = p(q(t))
        return lookup[comp.astype(np.int64) @ pows]

    inv_arr = np.argsort(arr, axis=1)
    inv = lookup[inv_arr.astype(np.int64) @ pows]
    return GroupTable(
        kind=kind,
        name=name,
        labels=[perm_label(p) for p in arr.tolist()],
        mul_many_fn=mul_many,
        inv=inv,
        meta={"perm_array": arr},
    )


def build_symmetric(m: int) -> GroupTable:
    return _build_perm_group("symmetric", m)


def build_alternating(m: int) -> GroupTable:
    return _build_perm_group("alternating", m)


# -- 2x2 matrix groups over GF(q) -------------------------------------------


def _pack(a, b, c, d, q):
    return ((a * q + b) * q + c) * q + d


def _matrix_mul_codes(F: FieldParams):
    MUL = F.mul_table.astype(np.int64)
    ADD = F.add_table.astype(np.int64)

    def mul(m1, m2):
        a1, b1, c1, d1 = m1
        a2, b2, c2, d2 = m2
        return (
            ADD[MUL[a1, a2], MUL[b1, c2]],
            ADD[MUL[a1, b2], MUL[b1, d2]],
            ADD[MUL[c1, a2], MUL[d1, c2]],
            ADD[MUL[c1, b2], MUL[d1, d2]],
        )

    return mul


def _matrix_codes(kind: str, F: FieldParams) -> tuple[np.ndarray, ...]:
    """Entry codes (A, B, C, D) of every element, identity first and the rest
    by ascending packed code: of all 2x2 matrices, SL2 keeps determinant 1.
    The projective kinds keep one representative per class of nonzero scalar
    multiples, the one whose first nonzero entry is 1: scaling by s != 1
    moves that entry off 1, so each class has exactly one.  PSL2 keeps those
    of square determinant."""
    q = F.q
    MUL, ADD, NEG = F.mul_table, F.add_table, F.neg_table
    # one first entry a at a time: its q^3 codes are a*q^3 + rest, in order
    rest = np.arange(q**3, dtype=np.int32)
    b, c, d = rest // q**2, rest // q % q, rest % q
    chunks = []
    for a in range(q):
        det = ADD[MUL[a, d], NEG[MUL[b, c]]]
        if kind == "SL2":
            keep = det == 1
        else:
            lead = a if a else np.where(b != 0, b, np.where(c != 0, c, d))
            keep = (det != 0) & (lead == 1)
            if kind == "PSL2":
                keep &= F.square_mask[det]
        chunks.append(rest[keep] + np.int64(a * q**3))
    id_code = _pack(1, 0, 0, 1, q)
    kept = np.concatenate(chunks)
    kept = np.concatenate(([id_code], kept[kept != id_code]))
    return kept // q**3, kept // q**2 % q, kept // q % q, kept % q


def _matrix_group(kind: str, q: int) -> GroupTable:
    name = f"{kind}({q})"
    order = check_order_cap(name, predicted_atomic_order(kind, q))
    F = field_for(q)
    MUL, NEG = (t.astype(np.int64) for t in (F.mul_table, F.neg_table))
    A, B, C, D = _matrix_codes(kind, F)
    if len(A) != order:
        raise GroupBuildError(f"{name}: enumerated {len(A)} elements, expected {order}")

    # code_lookup maps the packed code of every matrix that stands for an
    # element to that element's index (-1 elsewhere): for the projective
    # kinds every nonzero scalar multiple of the representative, so a
    # product needs no canonicalization; for SL2 the matrix itself.
    lookup = np.full(q**4, -1, dtype=TABLE_DTYPE)
    for s in range(1, q) if kind != "SL2" else (1,):
        lookup[_pack(*(MUL[x, s] for x in (A, B, C, D)), q)] = np.arange(order)

    # rowprod[u*q + v, y] packs the row vector (u, v) times matrix y, below
    # q^2 so int16, a (q, n) slice per u: (u*a + v*c)*q, then + (u*b + v*d)
    M16, A16 = F.mul_table, F.add_table
    rowprod = np.empty((q, q, order), dtype=TABLE_DTYPE)
    v_times = M16[:, C]  # v*c for every v and every element
    for u, out in enumerate(rowprod):
        np.multiply(A16[M16[u, A], v_times], q, out=out)
    v_times = M16[:, D]
    for u, out in enumerate(rowprod):
        out += A16[M16[u, B], v_times]
    del v_times  # not held through the self-check
    rowprod = rowprod.reshape(q * q, order)
    top, bottom = A * q + B, C * q + D

    def product_index(top_prods, bottom_prods):
        return lookup.take(top_prods.astype(np.int32) * (q * q) + bottom_prods)

    # on demand, x*y reads rowprod at (top[x], y) and (bottom[x], y) by 1-D takes
    flat, top_at, bottom_at = rowprod.ravel(), top * order, bottom * order

    def mul_many(x, y):
        return product_index(flat.take(top_at[x] + y), flat.take(bottom_at[x] + y))

    def row_block(rows):
        # row x is rowprod's whole rows top[x] and bottom[x], combined: the
        # same entries and lookup that mul_many reads pair by pair
        return product_index(rowprod.take(top[rows], axis=0), rowprod.take(bottom[rows], axis=0))

    # inverse of [a b; c d] is the adjugate [d -b; -c a], up to a scalar
    # (exactly, in SL2)
    inv = lookup[_pack(D, NEG[B], NEG[C], A, q)]

    names = np.array([F.label(c) for c in range(q)], dtype=object)
    return GroupTable(
        kind=kind,
        name=name,
        labels=list(map("[{} {}; {} {}]".format, names[A], names[B], names[C], names[D])),
        mul_many_fn=mul_many,
        inv=inv,
        meta={"q": q, "field": F, "codes": (A, B, C, D), "code_lookup": lookup},
        row_block_fn=row_block,
    )


def matrix_index(G: GroupTable, codes) -> np.ndarray:
    """Index of the element of matrix group G that each matrix stands for,
    the matrices given by their entry codes (a, b, c, d), scalars or arrays."""
    idx = G.meta["code_lookup"][_pack(*codes, G.meta["q"])]
    if np.any(idx < 0):
        raise AutomorphismError("matrix outside the enumerated group")
    return idx


def psl2_map(G: GroupTable, nmat: tuple[int, int, int, int], i: int) -> np.ndarray:
    """Index map M -> N frob^i(M) N^-1 of PSL2(q), for N in PGL2(q) given by
    entry codes and frob^i the entrywise p^i-th power: one code lookup."""
    F = G.meta["field"]
    if not 0 <= i < F.f:
        raise ValueError(f"field power index {i} out of range 0..{F.f - 1}")
    fr = np.array([F.pow(x, F.p**i) for x in range(F.q)], dtype=np.int64)
    matmul = _matrix_mul_codes(F)
    NEG = F.neg_table.astype(np.int64)
    na, nb, nc, nd = (np.int64(x) for x in nmat)
    ninv = (nd, NEG[nb], NEG[nc], na)  # adjugate: projective inverse
    left = matmul((na, nb, nc, nd), tuple(fr[x] for x in G.meta["codes"]))
    return matrix_index(G, matmul(left, ninv))


def build_sl2(q: int) -> GroupTable:
    return _matrix_group("SL2", q)


def build_psl2(q: int) -> GroupTable:
    return _matrix_group("PSL2", q)


def build_pgl2(q: int) -> GroupTable:
    return _matrix_group("PGL2", q)


_ATOMIC_BUILDERS = {
    "C": build_cyclic,
    "D": build_dihedral,
    "Q8": lambda _=None: build_quaternion8(),
    "S": build_symmetric,
    "A": build_alternating,
    "SL2": build_sl2,
    "PSL2": build_psl2,
    "PGL2": build_pgl2,
}


def predicted_atomic_order(kind: str, param: int | None) -> int:
    """Symbolic order of an atomic group; validates the parameter."""
    if kind == "Q8":
        return 8
    if param is None:
        raise GroupBuildError(f"{kind} needs a parameter")
    if kind == "C":
        if param < 1:
            raise GroupBuildError(f"cyclic order must be >= 1, got {param}")
        return param
    if kind == "D":
        if param < 1:
            raise GroupBuildError(f"dihedral parameter must be >= 1, got {param}")
        return 2 * param
    if kind in ("S", "A"):
        if param < 1:
            raise GroupBuildError(f"permutation degree must be >= 1, got {param}")
        if param > PERM_DEGREE_CAP:
            raise CapExceededError(f"{kind}{param}: degree {param} exceeds cap {PERM_DEGREE_CAP}")
        n = math.factorial(param)
        return n // 2 if kind == "A" and param >= 2 else n
    if kind in ("SL2", "PSL2", "PGL2"):
        # any q above ORDER_CAP is over every cap: skip factoring it up to sqrt(q)
        if param <= ORDER_CAP:
            prime_power(param)  # raises for non prime powers
        if kind in ("PSL2", "PGL2") and param < MIN_PROJECTIVE_Q:
            raise GroupBuildError(f"{kind} requires q >= {MIN_PROJECTIVE_Q}, got {param}")
        n = param * (param * param - 1)
        return n // math.gcd(2, param - 1) if kind == "PSL2" else n
    raise GroupBuildError(f"unknown atomic group kind {kind!r}")


def build_atomic(kind: str, param: int | None = None) -> GroupTable:
    """Build an atomic group; each builder validates its parameter and
    checks the order cap."""
    if kind not in _ATOMIC_BUILDERS:
        raise GroupBuildError(f"unknown atomic group kind {kind!r}")
    return _ATOMIC_BUILDERS[kind](param)


# ---------------------------------------------------------------------------
# products and derived groups
# ---------------------------------------------------------------------------


def direct_product(G: GroupTable, H: GroupTable) -> GroupTable:
    """Componentwise product; element (i, j) gets index i*|H| + j."""
    n1, n2 = G.n, H.n
    name = f"{G.name} x {H.name}"
    check_order_cap(name, n1 * n2)
    labels = [f"({G.labels[i]},{H.labels[j]})" for i in range(n1) for j in range(n2)]
    # the self-check alone multiplies in each factor (n1*n2)^2 times, more
    # than the n1^2 and n2^2 products of the factors' tables: build those
    G.table, H.table

    def mul_many(x, y):
        x1, x2 = x // n2, x % n2
        y1, y2 = y // n2, y % n2
        # exact in a factor's dtype: the sum is an index below n1 * n2 <= ORDER_CAP
        return G.mul_many(x1, y1) * n2 + H.mul_many(x2, y2)

    inv = (G.inv.astype(np.int64)[:, None] * n2 + H.inv[None, :]).reshape(-1)
    return GroupTable(
        kind="product",
        name=name,
        labels=labels,
        mul_many_fn=mul_many,
        inv=inv,
        meta={"factors": (G, H)},
    )


# ---------------------------------------------------------------------------
# structural queries
# ---------------------------------------------------------------------------


def element_orders(G: GroupTable) -> np.ndarray:
    """The order of every element: the least divisor d of |G| with x^d the
    identity.  Raises if some element has none (Lagrange's theorem fails)."""
    n = G.n
    orders = np.zeros(n, dtype=np.int64)
    for d in (k for k in range(1, n + 1) if n % k == 0):
        hits = (G.power_vec(d) == 0) & (orders == 0)
        orders[hits] = d
        if orders.all():
            return orders
    raise RuntimeError(f"{G.name}: some element order does not divide {n}")


def conjugations(G: GroupTable, cs, cols) -> np.ndarray:
    """Row i: x -> c_i x c_i^-1 over the elements ``cols``."""
    cs = np.asarray(cs, dtype=np.int64)[:, None]
    return np.asarray(G.mul_many(G.mul_many(cs, cols), G.inv[cs]), dtype=np.int32)


def conjugacy_classes(G: GroupTable) -> list[list[int]]:
    """Disjoint conjugacy classes, each sorted, ordered by least member."""
    n = G.n
    everyone = np.arange(n)
    unseen = np.ones(n, dtype=bool)
    classes = []
    for x in range(n):
        if not unseen[x]:
            continue
        orbit = np.flatnonzero(np.bincount(conjugations(G, everyone, [x]).ravel()))
        unseen[orbit] = False
        classes.append([int(v) for v in orbit])
    return classes


def center(G: GroupTable) -> list[int]:
    """The elements that commute with every generator."""
    gens = np.asarray(G.generators, dtype=np.int64)
    idx = np.arange(G.n, dtype=np.int64)[:, None]
    return np.nonzero(np.all(G.mul_many(idx, gens) == G.mul_many(gens, idx), axis=1))[0].tolist()


def sylow2_profile(G: GroupTable) -> tuple[int, bool]:
    """(two_part, cyclic): the 2-part of |G|, and whether a Sylow 2-subgroup
    is cyclic (equivalently: some element has order two_part)."""
    n = G.n
    two_part = 1
    while n % 2 == 0:
        two_part *= 2
        n //= 2
    if two_part == 1:
        return 1, True  # trivial subgroup counts as cyclic
    full = G.power_vec(two_part) == 0
    half = G.power_vec(two_part // 2) == 0
    return two_part, bool(np.any(full & ~half))
