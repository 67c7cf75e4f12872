import math
import types

import numpy as np
import pytest

from autmap import groups
from autmap.catalog import NONSOLVABLE_ENTRIES
from autmap.errors import CapExceededError, GroupBuildError
from autmap.fields import field_for
from autmap.groups import (
    build_alternating,
    build_atomic,
    build_cyclic,
    build_dihedral,
    build_psl2,
    build_pgl2,
    build_quaternion8,
    build_sl2,
    build_symmetric,
    center,
    closure_tree,
    conjugacy_classes,
    direct_product,
    element_orders,
    orbits,
    sylow2_profile,
)
from helpers import (
    built,
    closure,
    conjugacy_classes_reference,
    element_order,
    find_isomorphism,
    perm_parity,
)

# ---------------------------------------------------------------------------
# orders of the atomic constructors
# ---------------------------------------------------------------------------


def test_atomic_orders():
    assert build_alternating(5).n == 60
    assert build_psl2(7).n == 168
    assert build_psl2(4).n == 60
    assert build_sl2(5).n == 120
    assert build_pgl2(5).n == 120
    assert build_symmetric(4).n == 24
    assert build_dihedral(4).n == 8
    assert build_quaternion8().n == 8


@pytest.mark.parametrize("m", range(1, 8))
def test_alternating_group_is_the_even_permutations(m):
    # degrees 1 and 2 have no pair of points to invert: A1 = A2 = {id}
    S, A = built(f"S{m}"), built(f"A{m}")
    assert S.n == math.factorial(m)
    assert A.n == max(1, math.factorial(m) // 2)
    even = [p for p in S.meta["perm_array"].tolist() if perm_parity(p) == 0]
    assert A.meta["perm_array"].tolist() == even


@pytest.mark.parametrize("m", range(1, 8))
def test_permutation_products_are_compositions(m):
    # each group looks its elements up by their images of a base of m - 1
    # points, or m - 2 in A_m
    for G in (built(f"S{m}"), built(f"A{m}")):
        arr = G.meta["perm_array"]
        a, b = np.random.default_rng(m).integers(0, G.n, (2, 200))
        assert np.array_equal(arr[G.mul_many(a, b)], np.take_along_axis(arr[a], arr[b], axis=1))
        assert np.array_equal(arr[G.inv], np.argsort(arr, axis=1))


def test_alternating_7_keeps_a_small_lookup():
    # its lookup has 7^5 entries on base images, where an m^m one had 823,543
    import tracemalloc

    tracemalloc.start()
    try:
        G = build_alternating(7)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert G.n == 2520 and kept < 2**20


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27])
def test_psl2_order_formula_vs_enumeration(q):
    G = built(f"PSL2({q})")
    assert G.n == q * (q * q - 1) // math.gcd(2, q - 1)


def test_parameter_validation():
    with pytest.raises(GroupBuildError):
        build_psl2(6)  # not a prime power
    with pytest.raises(GroupBuildError):
        build_psl2(3)  # q >= 4 required
    with pytest.raises(CapExceededError):
        build_symmetric(8)  # 40320 over the order cap
    with pytest.raises(CapExceededError):
        build_alternating(9)  # degree over PERM_DEGREE_CAP
    with pytest.raises(GroupBuildError):
        build_symmetric(0)
    with pytest.raises(CapExceededError):
        build_psl2(29)  # 12180 over the order cap
    with pytest.raises(GroupBuildError):
        build_cyclic(0)
    with pytest.raises(GroupBuildError):
        build_atomic("X", 3)


def test_direct_builder_keeps_order_cap():
    # psl2_witness calls build_psl2 directly, not through build_atomic
    with pytest.raises(CapExceededError) as info:
        build_psl2(29)
    assert info.value.predicted == 12180


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def test_direct_product_orders():
    A5 = build_alternating(5)
    C2 = build_cyclic(2)
    assert direct_product(A5, C2).n == 120


def test_product_with_trivial_group_is_a_relabeling():
    G = build_symmetric(3)
    P = direct_product(G, build_cyclic(1))
    assert np.array_equal(P.require_table(), G.require_table())


def test_a5_x_a5_componentwise_orders():
    A5 = build_alternating(5)
    P = direct_product(A5, A5)
    assert P.n == 3600
    orders, a5_orders = element_orders(P), element_orders(A5)
    for g in (0, 1, 7, 30, 59):
        assert orders[g * 60] == a5_orders[g]


def test_product_cap():
    A5 = build_alternating(5)
    with pytest.raises(CapExceededError):
        direct_product(direct_product(A5, A5), A5)


# ---------------------------------------------------------------------------
# element orders
# ---------------------------------------------------------------------------


def test_element_order_examples():
    S4 = build_symmetric(4)
    assert element_orders(S4)[0] == 1
    four_cycle = S4.labels.index("(1 2 3 4)")
    assert element_orders(S4)[four_cycle] == 4

    PGL = build_pgl2(5)
    # the class of diag(-1, 1) squares to the identity projectively; its
    # canonical form scales diag(-1,1) by -1 to diag(1,-1)
    target = PGL.labels.index("[1 0; 0 4]")
    assert element_orders(PGL)[target] == 2


def test_all_element_orders_divide_group_order():
    for G in (build_dihedral(6), build_quaternion8(), build_psl2(5)):
        orders = element_orders(G)
        for x in range(G.n):
            assert G.n % orders[x] == 0


def test_element_orders_match_repeated_multiplication():
    for G in (build_symmetric(4), build_quaternion8(), build_psl2(7), build_sl2(5)):
        assert element_orders(G).tolist() == [element_order(G, x) for x in range(G.n)]


def test_element_orders_refuse_an_order_that_does_not_divide():
    # a stand-in whose element 1 never powers to the identity
    fake = types.SimpleNamespace(
        name="fake", n=4, power_vec=lambda d: np.array([0, 1, 0, 0]) if d else np.zeros(4)
    )
    with pytest.raises(RuntimeError, match="does not divide"):
        element_orders(fake)


# ---------------------------------------------------------------------------
# conjugacy classes, center, Sylow-2 profile
# ---------------------------------------------------------------------------


def test_conjugacy_class_examples():
    assert [len(c) for c in conjugacy_classes(build_cyclic(5))] == [1] * 5
    s3_sizes = sorted(len(c) for c in conjugacy_classes(build_symmetric(3)))
    assert s3_sizes == [1, 2, 3]
    a5_sizes = sorted(len(c) for c in conjugacy_classes(build_alternating(5)))
    assert a5_sizes == [1, 12, 12, 15, 20]


def test_classes_partition_and_identity_singleton():
    for G in (build_symmetric(4), build_quaternion8(), build_psl2(5)):
        classes = conjugacy_classes(G)
        assert classes[0] == [0]
        everything = sorted(x for c in classes for x in c)
        assert everything == list(range(G.n))


@pytest.mark.parametrize(
    "text",
    ["C1", "C2 x C2 x C2", "Q8 x Q8", "D256", *(e.expr for e in NONSOLVABLE_ENTRIES),
     "PSL2(16)", "S7", "A5 x A5"],
)
def test_conjugacy_classes_match_the_per_class_walk(text):
    G = built(text)
    assert conjugacy_classes(G) == conjugacy_classes_reference(G)


def test_orbits_close_one_long_cycle_in_logarithmic_rounds(monkeypatch):
    # x -> x + 1 on C4096 is one 4096-cycle: pulled along it alone, the least
    # label moves one point a round; its 2^r-th powers close it in ~2 log2(n)
    rounds = []

    class CountingNumpy:  # one fixed-point test per round
        def __getattr__(self, name):
            return getattr(np, name)

        def array_equal(self, a, b):
            rounds.append(1)
            return np.array_equal(a, b)

    G = built("C4096")
    translation = G.mul_many(np.arange(G.n), np.array(G.generators)[:, None])
    monkeypatch.setattr(groups, "np", CountingNumpy())
    least = orbits(translation)
    assert G.generators == (1,) and not least.any()
    assert len(rounds) <= 2 * 12 + 2


def test_center():
    assert center(build_quaternion8()) == [0, 1]  # +-1
    assert len(center(build_sl2(5))) == 2
    assert center(build_alternating(5)) == [0]


def test_sylow2_profile_examples():
    assert sylow2_profile(build_symmetric(3)) == (2, True)
    assert sylow2_profile(build_dihedral(4)) == (8, False)
    assert sylow2_profile(build_cyclic(3)) == (1, True)
    assert sylow2_profile(build_quaternion8()) == (8, False)
    assert sylow2_profile(build_cyclic(8)) == (8, True)


# ---------------------------------------------------------------------------
# matrix groups
# ---------------------------------------------------------------------------


def _reference_mul(G):
    """Pure-Python product of two element indices of a matrix group: the
    representative matrices multiplied entry by entry with the field's
    product and sum tables (read into lists over element codes), the result
    scaled to canonical form (first nonzero entry 1) for the projective
    kinds.  It shares no code with rowprod or code_lookup."""
    F = G.meta["field"]
    mul = F.mul_table.tolist()
    add = F.add_table.tolist()
    inv = F.inv_table.tolist()
    projective = G.kind != "SL2"
    mats = list(zip(*(x.tolist() for x in G.meta["codes"])))
    index = {m: i for i, m in enumerate(mats)}

    def product(i, j):
        a1, b1, c1, d1 = mats[i]
        a2, b2, c2, d2 = mats[j]
        m = (
            add[mul[a1][a2]][mul[b1][c2]],
            add[mul[a1][b2]][mul[b1][d2]],
            add[mul[c1][a2]][mul[d1][c2]],
            add[mul[c1][b2]][mul[d1][d2]],
        )
        if projective:
            s = inv[next(x for x in m if x)]
            m = tuple(mul[x][s] for x in m)
        return index[m]

    return product


@pytest.mark.parametrize(
    "build, q",
    [(build_psl2, 4), (build_psl2, 5), (build_psl2, 7), (build_psl2, 8), (build_psl2, 9),
     (build_sl2, 5), (build_pgl2, 5)],
)
def test_matrix_table_matches_reference(build, q):
    G = build(q)
    product = _reference_mul(G)
    expected = np.array([[product(i, j) for j in range(G.n)] for i in range(G.n)])
    assert np.array_equal(G.require_table(), expected)


@pytest.mark.parametrize("build, q", [(build_psl2, 23), (build_sl2, 17), (build_pgl2, 19)])
def test_on_demand_matrix_products_match_reference(build, q):
    G = built(f"{build.__name__.removeprefix('build_').upper()}({q})")
    assert G.table is None and not G.is_materialized
    product = _reference_mul(G)
    x, y = np.random.default_rng(q).integers(0, G.n, size=(2, 2000))
    expected = [product(int(i), int(j)) for i, j in zip(x, y)]
    assert G.mul_many(x, y).tolist() == expected


@pytest.mark.parametrize(
    "build, q",
    [
        (build_psl2, 7),
        (build_psl2, 8),
        (build_psl2, 9),
        (build_pgl2, 5),
        (build_sl2, 5),
        (build_psl2, 16),
        (build_psl2, 17),
        (build_psl2, 19),
        (build_sl2, 19),
        (build_pgl2, 19),
    ],
)
def test_code_lookup_is_scalar_invariant(build, q):
    from autmap.groups import _pack

    G = build(q)
    MUL = G.meta["field"].mul_table.astype(np.int64)
    lookup = G.meta["code_lookup"]
    idx = np.arange(G.n)
    scalars = range(1, q) if G.kind != "SL2" else [1]
    for lam in scalars:
        codes = [MUL[x, lam] for x in G.meta["codes"]]
        assert np.array_equal(lookup[_pack(*codes, q)], idx)
    # every other code is outside the group
    assert np.count_nonzero(lookup >= 0) == G.n * len(scalars)
    if G.kind != "SL2":
        # each projective class is represented by its member whose first
        # nonzero entry is 1
        entries = np.stack(G.meta["codes"], axis=1)
        assert np.all(entries[np.arange(G.n), np.argmax(entries != 0, axis=1)] == 1)


def test_psl2_4_isomorphic_to_a5():
    images = find_isomorphism(build_psl2(4), build_alternating(5))
    assert images is not None


def test_psl2_dets_are_squares():
    G = build_psl2(9)
    F = field_for(9)
    for a, b, c, d in zip(*(x.tolist() for x in G.meta["codes"])):
        det = F.add_table[F.mul_table[a, d], F.neg_table[F.mul_table[b, c]]]
        assert F.square_mask[det] and det != 0


# ---------------------------------------------------------------------------
# table sanity on a non-materialized group
# ---------------------------------------------------------------------------


def test_on_demand_multiplication():
    G = built("S7")  # 5040 > materialization cap
    assert G.table is None and not G.is_materialized  # reading it builds nothing
    with pytest.raises(CapExceededError):
        G.require_table()
    assert not G.is_materialized
    # spot-check associativity and inverses through the on-demand path
    rng = np.random.default_rng(1)
    xs, ys = rng.integers(0, G.n, size=(2, 50))
    for x, y in zip(xs, ys):
        assert G.mul(int(x), G.inverse(int(x))) == 0
        assert G.mul(G.mul(int(x), int(y)), G.inverse(int(y))) == int(x)
        assert G.mul(int(x), int(y)) == G.mul_many(x, y)


def test_permutation_products_broadcast_a_scalar_operand():
    # on demand (S7) the permutation product itself runs; on a materialized
    # group (A5) the table answers, and the product function must agree
    S7 = built("S7")
    xs = np.arange(5)
    assert S7.mul_many(xs, 3).tolist() == [S7.mul(int(x), 3) for x in xs]
    assert S7.mul_many(3, xs).tolist() == [S7.mul(3, int(x)) for x in xs]
    A5 = built("A5")
    T = A5.require_table()
    assert np.array_equal(A5._mul_many_fn(np.arange(A5.n), 7), T[:, 7])
    assert np.array_equal(A5._mul_many_fn(7, np.arange(A5.n)), T[7])
    assert np.array_equal(A5.mul_many(np.arange(A5.n), 7), T[:, 7])


def test_on_demand_direct_product():
    G = built("PSL2(7) x C25")  # 4200 > materialization cap
    assert not G.is_materialized
    H = built("PSL2(7)")
    # componentwise: (i, j) has index i*25 + j
    for i, j in ((3, 7), (100, 24), (167, 0)):
        x = i * 25 + j
        assert G.inverse(x) == H.inverse(i) * 25 + (25 - j) % 25
        assert element_orders(G)[x] % element_orders(H)[i] == 0


# ---------------------------------------------------------------------------
# labels: an element's one printed form
# ---------------------------------------------------------------------------

_IDENTITY_LABELS = {
    "cyclic": "0", "dihedral": "e", "quaternion8": "1", "symmetric": "id", "alternating": "id",
    "SL2": "[1 0; 0 1]", "PSL2": "[1 0; 0 1]", "PGL2": "[1 0; 0 1]",
}


def _identity_label(G):
    if G.kind == "product":
        return "({},{})".format(*map(_identity_label, G.meta["factors"]))
    return _IDENTITY_LABELS[G.kind]


def _labelled_groups():
    from autmap.catalog import CATALOG, EXTENDED_ENTRIES
    from autmap.structure import Subgroup, derived_series, quotient, subgroup_table

    texts = [e.expr for e in CATALOG + EXTENDED_ENTRIES]
    texts += ["S7", "PGL2(9)", "Q8 x Q8", "D4 x (C2 x C3)", "PSL2(7) x C25"]
    for text in texts:
        G = built(text)
        yield text, G, _identity_label(G)
    SL = built("SL2(5)")
    Q = quotient(SL, Subgroup(SL, tuple(center(SL))))[0]
    yield "SL2(5)/Z", Q, "[[1 0; 0 1]]"
    S4 = built("S4")
    yield "A4 in S4", subgroup_table(S4, derived_series(S4)[1])[0], "id"


def test_labels_identify_elements():
    for text, G, identity in _labelled_groups():
        assert len(set(G.labels)) == G.n, text
        assert G.labels[0] == identity, text


# ---------------------------------------------------------------------------
# generating sets
# ---------------------------------------------------------------------------


def test_generators_generate_every_catalog_group():
    from autmap.catalog import CATALOG, catalog_group

    for entry in CATALOG:
        G = catalog_group(entry.name)
        gens = G.generators
        assert closure_tree(G, gens)[0].all(), entry.name
        # greedy: each g_j is the least index outside <g_1..g_j-1>, which
        # Aut(G)'s row order rests on
        for j, g in enumerate(gens):
            assert np.argmin(closure_tree(G, gens[:j])[0]) == g, entry.name


@pytest.mark.parametrize("text", ["S7", "PSL2(7) x C25"])
def test_generators_generate_on_demand_groups(text):
    G = built(text)
    assert not G.is_materialized
    assert G.generators[0] == 1  # the least non-identity index comes first
    assert closure_tree(G, G.generators)[0].all()
    assert not closure_tree(G, G.generators[:-1])[0].all()
    assert len(closure(G, list(G.generators))) == G.n  # pure-Python reference


def test_construction_rejects_broken_multiplication():
    from autmap.groups import GroupTable

    # a non-associative, non-Latin "multiplication" must be refused
    def bad_mul(a, b):
        return np.zeros(len(np.atleast_1d(a)), dtype=np.int32)

    with pytest.raises(GroupBuildError):
        GroupTable(
            kind="cyclic",
            name="broken",
            labels=["0", "1", "2"],
            mul_many_fn=bad_mul,
            inv=[0, 2, 1],
        )


def test_construction_rejects_nonassociative_loop():
    from autmap.groups import GroupTable

    # a Latin square with identity 0 and every element its own inverse: it
    # passes the identity and inverse checks, so only the associativity
    # check can refuse it
    table = np.array(
        [[int(c) for c in row] for row in ("01234", "10342", "24013", "32401", "43120")],
        dtype=np.int32,
    )
    with pytest.raises(GroupBuildError, match="not associative"):
        GroupTable(
            kind="loop",
            name="loop5",
            labels=[str(i) for i in range(5)],
            mul_many_fn=lambda a, b: table[a, b],
            inv=list(range(5)),
        )


# A5's 60 rows fit in one row block of the self-check; PSL2(7)'s 168 and
# PSL2(8)'s 504 span several, so the swap in the last row tests a later block
@pytest.mark.parametrize("text", ["A5", "PSL2(7)", "PSL2(8)"])
def test_construction_rejects_swapped_table_entries(text):
    from autmap.groups import GroupTable
    from autmap.parser import elaborate_text

    G = elaborate_text(text)
    table = G.require_table().copy()
    last = G.n - 1
    table[last, [10, 20]] = table[last, [20, 10]]  # the row stays a permutation
    with pytest.raises(GroupBuildError):
        GroupTable(
            kind=G.kind,
            name="swapped",
            labels=G.labels,
            mul_many_fn=lambda a, b: table[a, b],
            inv=G.inv,
        )


@pytest.mark.parametrize("text", ["S7", "PSL2(7) x C25"])
def test_construction_rejects_swapped_on_demand_products(text):
    # products (5, 10) and (5, 30) swapped: 10 and 30 are not 5's inverse
    # and no row or column is the identity's, so only associativity can fail
    from autmap.groups import GroupTable

    G = built(text)
    assert not G.is_materialized and G.inverse(5) not in (10, 30)
    base = G._mul_many_fn

    def swapped(a, b):
        a, b = np.broadcast_arrays(a, b)
        return base(a, np.where(a == 5, np.select([b == 10, b == 30], [30, 10], b), b))

    with pytest.raises(GroupBuildError, match="not associative"):
        GroupTable(
            kind=G.kind,
            name="swapped",
            labels=G.labels,
            mul_many_fn=swapped,
            inv=G.inv,
        )


def _table_group(G, table, name):
    from autmap.groups import GroupTable

    return GroupTable(
        kind=G.kind,
        name=name,
        labels=G.labels,
        mul_many_fn=lambda a, b: table[a, b],
        inv=G.inv,
    )


@pytest.mark.parametrize("text", ["S3", "Q8", "C2 x C2"])
def test_construction_rejects_every_non_latin_neighbour(text):
    # identity, inverses and exact associativity are the whole self-check;
    # each table below breaks the Latin property, so it is no group's table,
    # and those checks alone must refuse it
    from autmap.parser import elaborate_text

    G = elaborate_text(text)
    T = G.require_table()
    n = G.n
    for x in range(n):
        for y in range(n):
            for v in range(n):
                if v != T[x, y]:
                    table = T.copy()
                    table[x, y] = v
                    with pytest.raises(GroupBuildError):
                        _table_group(G, table, "one entry changed")
        for y in range(n):
            for z in range(y + 1, n):
                table = T.copy()
                table[x, [y, z]] = T[x, [z, y]]
                with pytest.raises(GroupBuildError):
                    _table_group(G, table, "two entries swapped")


# sha256 prefixes of np.stack(G.meta["codes"]) as little-endian int64: the
# element order of every matrix group, as enumerated before this check
MATRIX_CODE_HASHES = {
    "SL2(4)": "0ac931a8a22c9fd6",
    "SL2(5)": "31f0939db1d6b77f",
    "SL2(7)": "409a66019069ea16",
    "SL2(8)": "314f1f7c45b000b8",
    "SL2(9)": "4660c1eef3f5ee0a",
    "PSL2(4)": "104067640ab7f3bf",
    "PSL2(5)": "a8715a36104884ba",
    "PSL2(7)": "f0940cf432e2d3b1",
    "PSL2(8)": "322e73d240c8b5e4",
    "PSL2(9)": "ac901c1fb27e405a",
    "PGL2(4)": "104067640ab7f3bf",
    "PGL2(5)": "e4166fe0e3371a2e",
    "PGL2(7)": "a2be3ec9041e8390",
    "PGL2(8)": "322e73d240c8b5e4",
    "PGL2(9)": "916ce13b6492e762",
    "PSL2(11)": "1b3e33f464b26127",
    "PSL2(13)": "64f3addf9ad3599a",
    "PSL2(16)": "78fcf1a2de9dc7af",
    "PSL2(17)": "1d142871745c25d4",
    "PSL2(19)": "5e484b20991e636d",
    "PSL2(23)": "5f7619348c87f541",
    "PSL2(25)": "fb618afe8ddb6e68",
    "PSL2(27)": "ba464183870105b1",
    "SL2(19)": "2398302ea4524255",
    "PGL2(19)": "40660ea68afeb3ea",
}


@pytest.mark.parametrize("name", sorted(MATRIX_CODE_HASHES))
def test_matrix_enumeration_is_pinned(name):
    import hashlib

    codes = np.ascontiguousarray(np.stack(built(name).meta["codes"]), dtype="<i8")
    assert hashlib.sha256(codes.tobytes()).hexdigest()[:16] == MATRIX_CODE_HASHES[name]


# sha256 prefixes of G.table as little-endian int32: every product of the
# largest tables, as filled before the row-gather fill
TABLE_HASHES = {
    "PSL2(16)": "af2be5a44f8f767b",
    "PSL2(17)": "5ea227b0bbc922c8",
    "PSL2(19)": "34ab4c43308305ec",
    "SL2(9)": "e02414b1fe1fb6d2",
    "PGL2(9)": "8443473776590818",
    "SL2(16)": "a7a9ea9b7c2a8784",
    "A5 x A5": "a7e4b2fd3cc9a6a5",
}


@pytest.mark.parametrize("name", sorted(TABLE_HASHES))
def test_table_is_pinned(name):
    import hashlib

    from autmap.parser import elaborate_text

    table = elaborate_text(name).require_table().astype("<i4")
    assert hashlib.sha256(table.tobytes()).hexdigest()[:16] == TABLE_HASHES[name]


@pytest.mark.parametrize(
    "q, kind",
    [(q, k) for q in (4, 5, 7, 8, 9) for k in ("SL2", "PSL2", "PGL2")]
    + [(16, "PSL2"), (17, "PSL2"), (19, "PSL2")],
)
def test_matrix_table_matches_on_demand_products(kind, q):
    # the table is filled by row gathers; the on-demand pair products read
    # the same rowprod entries and lookup, compared a row block at a time
    from autmap.groups import blocks

    G = built(f"{kind}({q})")
    idx = np.arange(G.n, dtype=np.int64)
    T = G.require_table()
    for rows in blocks(G.n, G.n):
        assert np.array_equal(T[rows], G._mul_many_fn(idx[rows, None], idx[None, :]))


@pytest.mark.parametrize("text", ["S4", "PSL2(7)", "A5 x C2", "A5"])
def test_table_mul_many_matches_indexing(text):
    from autmap.parser import elaborate_text

    G = elaborate_text(text)
    n = G.n
    idx = np.arange(n)

    def mul_is_mul_many():
        scalar = [[G.mul(i, j) for j in range(n)] for i in range(n)]
        return scalar == G.mul_many(idx[:, None], idx).tolist()

    assert not G.is_materialized and mul_is_mul_many()  # multiplied on demand
    T = G.require_table()
    assert mul_is_mul_many()  # read from the table
    rng = np.random.default_rng(1)
    a, b = rng.integers(0, n, size=(2, 200))
    assert G.mul_many(int(a[0]), int(b[0])) == T[a[0], b[0]]
    assert G.mul_many(np.array(a[1]), np.array(b[1])) == T[a[1], b[1]]
    assert np.array_equal(G.mul_many(a, b), T[a, b])
    rows, cols = a[:7, None], np.arange(n)[None, :]
    assert np.array_equal(G.mul_many(rows, cols), T[rows, cols])


# PSL2(23) has no table, so its products come from the on-demand kernel;
# C1 has no generators, so its tree has no levels
@pytest.mark.parametrize("text", ["PSL2(7)", "S7", "PSL2(23)", "C1"])
def test_closure_tree_invariants(text):
    G = built(text)
    gens = np.asarray(G.generators, dtype=np.int64)
    mask, members, (src, genpos, levels, prods) = closure_tree(G, gens)
    assert members[0] == 0
    assert len(src) == len(genpos) == len(members) - 1
    assert np.array_equal(members[1:], G.mul_many(src, gens[genpos]))
    position = np.empty(G.n, dtype=np.int64)
    position[members] = np.arange(len(members))
    assert np.all(position[src] < np.arange(1, len(members)))
    # the levels slice the targets members[1:] in order with no gaps, and
    # every source of a level is discovered before the level starts
    bounds = [0] + [lv.stop for lv in levels]
    assert [lv.start for lv in levels] == bounds[:-1]
    assert bounds[-1] == len(members) - 1
    for lv in levels:
        assert lv.start < lv.stop
        assert np.all(position[src[lv]] <= lv.start)
    assert np.array_equal(prods, G.mul_many(members[:, None], gens[None, :]))
    assert set(members.tolist()) == closure(G, gens.tolist())
    assert len(members) == mask.sum()
    assert np.array_equal(np.nonzero(mask)[0], np.sort(members))


# ---------------------------------------------------------------------------
# int16 tables
# ---------------------------------------------------------------------------


def test_every_index_fits_int16():
    from autmap.groups import MATERIALIZE_CAP, ORDER_CAP

    assert ORDER_CAP < 2**15 and MATERIALIZE_CAP < 2**15


def _catalog_exprs():
    from autmap.catalog import CATALOG

    return [entry.expr for entry in CATALOG]


@pytest.mark.parametrize(
    "text", _catalog_exprs() + [f"PSL2({q})" for q in (11, 13, 16, 17, 19)] + ["SL2(5)/Z"]
)
def test_tables_hold_int16(text):
    if text == "SL2(5)/Z":
        from autmap.structure import quotient, subgroup_closure

        S = built("SL2(5)")
        G = quotient(S, subgroup_closure(S, center(S)))[0]
    else:
        G = built(text)
    assert G.table.dtype == np.int16
    assert G.table.nbytes == 2 * G.n * G.n


def test_mul_many_widens_int16_operands():
    # a * n + b overflows int16 at these indices, so mul_many must widen first
    G = built("PSL2(16)")
    T = G.require_table()
    a, b = T[0, -64:], T[-64:, 0]  # int16 reads of the 64 largest indices
    assert a.dtype == np.int16 and int(a[-1]) == G.n - 1
    expected = [[int(T[int(x), int(y)]) for y in b] for x in a]
    assert G.mul_many(a[:, None], b[None, :]).tolist() == expected
    assert G.mul_many(a, b[::-1]).tolist() == [int(T[int(x), int(y)]) for x, y in zip(a, b[::-1])]


def test_on_demand_product_over_an_int16_factor():
    G, H, C = built("PSL2(8) x C19"), built("PSL2(8)"), built("C19")
    assert not G.is_materialized and H.table.dtype == np.int16
    rows, cols = np.arange(G.n - 19, G.n), np.arange(G.n)
    expected = H.table.astype(np.int64)[rows // 19][:, cols // 19] * 19 + C.table[
        (rows % 19)[:, None], cols % 19
    ]
    assert np.array_equal(G.mul_many(rows[:, None], cols), expected)


def test_psl2_16_build_peak_memory():
    # the build no longer fills the 31.8 MiB int16 table (it is built on first
    # read) and peaks near 3.4 MiB; the bound dates from when it filled it
    import tracemalloc

    tracemalloc.start()
    try:
        build_psl2(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


@pytest.mark.parametrize(
    "kind, q", [("PSL2", 16), ("PSL2", 17), ("PSL2", 19), ("PSL2", 27), ("SL2", 19), ("PGL2", 19)]
)
def test_matrix_group_construction_is_bounded(kind, q):
    # the enumeration, the code lookup and rowprod are each built a slice at
    # a time, so the peak exceeds what the group keeps by well under the
    # 1.8-17.4 MiB of whole-array construction
    import tracemalloc

    from autmap.groups import _matrix_group

    field_for(q)
    tracemalloc.start()
    try:
        G = _matrix_group(kind, q)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.n == len(G.labels) and not G.is_materialized
    assert peak - kept < 1.5 * 2**20


def test_table_is_built_on_first_read():
    G = build_psl2(16)
    assert not G.is_materialized
    idx = np.arange(G.n, dtype=np.int64)
    on_demand = G.mul_many(idx[-5:, None], idx)
    T = G.table
    assert G.is_materialized and G.table is T and G.require_table() is T
    assert T.dtype == np.int16 and T.shape == (G.n, G.n)
    assert np.array_equal(T[-5:], on_demand)
    assert np.array_equal(G.mul_many(idx[-5:, None], idx), on_demand)


def test_quaternion8_table_is_built_on_first_read():
    G = build_quaternion8()
    assert not G.is_materialized
    idx = np.arange(G.n)
    products = G.mul_many(idx[:, None], idx)
    assert np.array_equal(G.table, products) and G.is_materialized


def test_direct_product_builds_its_factors_tables():
    # the product's kernels multiply in each factor (n1*n2)^2 times over
    G = direct_product(build_psl2(7), build_cyclic(25))
    assert not G.is_materialized
    assert all(F.is_materialized for F in G.meta["factors"])
