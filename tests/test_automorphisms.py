from types import SimpleNamespace

import numpy as np
import pytest

from autmap.automorphisms import (
    BRUTE_CAP,
    AutGroup,
    Automorphism,
    _brute_aut_images,
    compute_aut,
    compute_inner,
    fixed_points,
    frobenius_field_aut,
    identity_automorphism,
    inner_automorphism,
)
from autmap.errors import AutomorphismError, CapExceededError, StrategyError
from autmap.groups import (
    ORDER_CAP,
    build_alternating,
    build_cyclic,
    build_psl2,
    build_symmetric,
    center,
    conjugations,
    direct_product,
)
from autmap.parser import elaborate_text
import helpers

# ---------------------------------------------------------------------------
# single automorphisms
# ---------------------------------------------------------------------------


def test_inner_by_identity_is_identity():
    G = build_symmetric(3)
    assert inner_automorphism(G, 0).is_identity()


def test_inner_on_abelian_group_is_identity():
    G = build_cyclic(6)
    for g in range(G.n):
        assert inner_automorphism(G, g).is_identity()


def test_inner_s3_example():
    G = build_symmetric(3)
    t = G.labels.index("(1 2)")
    c = G.labels.index("(1 2 3)")
    target = G.labels.index("(1 3 2)")
    assert inner_automorphism(G, t)(c) == target


def test_non_multiplicative_map_rejected():
    G = build_cyclic(5)
    with pytest.raises(AutomorphismError):
        Automorphism(G, [0, 2, 1, 3, 4])
    with pytest.raises(AutomorphismError):
        Automorphism(G, [1, 0, 2, 3, 4])  # does not fix identity


MALFORMED_C5_IMAGES = {
    "negative": ([0, -1, 2, 3, 4], "outside"),
    "out of range": ([0, 1, 2, 3, 5], "outside"),
    "repeated": ([0, 0, 0, 0, 0], "bijection"),  # the trivial homomorphism
    "short": ([0, 2, 4, 1], "shape"),
    "nested": ([[0, 2, 4, 1, 3]], "shape"),
    "non-integer": ([0, 1.5, 2, 3, 4], "integers"),
    "moved identity": ([1, 0, 2, 3, 4], "identity"),
    "non-multiplicative": ([0, 2, 1, 3, 4], "multiplicative"),
}


@pytest.mark.parametrize("as_rep", [False, True], ids=["Automorphism", "from_reps"])
@pytest.mark.parametrize("case", MALFORMED_C5_IMAGES)
def test_malformed_images_are_automorphism_errors(case, as_rep):
    G = build_cyclic(5)
    images, reason = MALFORMED_C5_IMAGES[case]
    with pytest.raises(AutomorphismError, match=reason):
        if as_rep:
            # the first row, the identity, is good
            AutGroup.from_reps(G, [list(range(5)), images], lambda r, c: "raw")
        else:
            Automorphism(G, images)


@pytest.mark.parametrize("swap", [(1, 2), (4000, 5039)])
def test_generator_check_on_demand_group(swap):
    G = helpers.built("S7")  # 5040: checked without a table
    assert not G.is_materialized
    alpha = inner_automorphism(G, 100)
    assert not alpha.is_identity()
    images = np.array(alpha.images)
    images[list(swap)] = images[list(swap[::-1])]
    with pytest.raises(AutomorphismError):
        Automorphism(G, images)


def test_compose_and_inverse():
    G = build_cyclic(7)
    sq = Automorphism(G, [(2 * x) % 7 for x in range(7)])
    assert sq.compose(sq).images.tolist() == [(4 * x) % 7 for x in range(7)]
    assert sq.compose(sq.inverse()).is_identity()
    assert sq.order() == 3  # 2^3 = 1 mod 7


# ---------------------------------------------------------------------------
# Aut(G) computation
# ---------------------------------------------------------------------------


def test_aut_of_c5():
    A = compute_aut(build_cyclic(5), "brute")
    assert len(A) == 4
    assert len(helpers.inner_rows(A)) == 1


def test_aut_of_a5():
    A = compute_aut(build_alternating(5), "brute")
    assert len(A) == 120
    assert len(helpers.inner_rows(A)) == 60
    assert len(A.coset_rows) == 2


def test_aut_of_a5_x_c2():
    A = compute_aut(elaborate_text("A5 x C2"), "brute")
    assert len(A) == 120


def test_aut_psl2_8_structured():
    A = compute_aut(build_psl2(8), "psl2_structured")
    assert len(A) == 1512  # 504 * 3
    assert len(helpers.inner_rows(A)) == 504
    assert len(A.coset_rows) == 3


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25])
def test_brute_and_structured_agree_on_psl2(q):
    # the same cosets, compared by their least rows: every row's key would
    # be about 1 GB for PSL2(25)
    G = helpers.built(f"PSL2({q})")
    brute = compute_aut(G, "brute")
    structured = compute_aut(G, "psl2_structured")
    assert len(brute) == len(structured)
    assert [brute[j].key for j in brute.coset_rows] == [
        structured[j].key for j in structured.coset_rows
    ]


BRUTE_GROUPS = [
    # the catalog groups the brute strategy covers
    "A5", "S5", "SL2(5)", "A5 x C2", "A5 x C3", "SL2(7)", "A6",
    # abelian (the orbit filter keeps everything) or with a nontrivial centre
    "C2 x C2 x C2", "C5 x C5", "Q8", "D8", "SL2(3)", "Q8 x C3", "S3 x S3", "D128",
]


@pytest.mark.parametrize("text", BRUTE_GROUPS)
def test_brute_matches_full_enumeration(text):
    G = elaborate_text(text)
    A = compute_aut(G, "brute")
    ref = helpers.full_brute_aut(G)
    assert len(A) == len(ref)
    assert [a.images.tolist() for a in A.all] == [a.images.tolist() for a in ref.all]
    assert [a.provenance for a in A.all] == [a.provenance for a in ref.all]
    assert [A[j].key for j in A.coset_rows] == [ref[j].key for j in ref.coset_rows]
    assert [a.key for a in helpers.inner_rows(A)] == [a.key for a in helpers.inner_rows(ref)]


@pytest.mark.parametrize(
    "text, cosets, order",
    [("A6", 4, 1440), ("D256", 128, 32768), ("Q8 x Q8", 1152, 18432),
     ("C2 x C2 x C2", 168, 168), ("C2 x D64", 256, 16384)],
)
def test_brute_search_keeps_one_tuple_per_coset(text, cosets, order):
    G = elaborate_text(text)
    survivors = _brute_aut_images(G)
    A = compute_aut(G, "brute")
    assert len(survivors) == len(A.coset_rows) == len(A.reps)
    assert len(survivors) == cosets
    assert len(A) == order
    # the identity is kept as the representative of Inn(G)
    assert (survivors == np.arange(G.n)).all(axis=1).sum() == 1


def test_inner_size_is_order_over_center():
    for text in ("S4", "Q8", "SL2(5)", "A5"):
        G = elaborate_text(text)
        assert len(compute_inner(G)) == G.n // len(center(G))


def test_coset_decomposition_covers_without_repeats():
    A = compute_aut(build_alternating(5), "brute")
    inner_mat = np.stack([i.images for i in helpers.inner_rows(A)])
    seen = set()
    for j in A.coset_rows:
        for row in A[j].images[inner_mat]:
            k = row.tobytes()
            assert k not in seen
            seen.add(k)
    assert len(seen) == len(A)
    # every row names the representative of its coset, and coset_rows holds
    # the first row of each coset
    coset_keys = [{row.tobytes() for row in rep[inner_mat]} for rep in A.reps]
    rep_of = [A.parts(j)[0] for j in range(len(A))]
    for j, row in enumerate(A.all):
        assert row.images.tobytes() in coset_keys[rep_of[j]]
    assert A.coset_rows == sorted(rep_of.index(r) for r in range(len(A.reps)))
    # and that row is the least of its coset
    for j in A.coset_rows:
        assert A[j].key == min(A[i].key for i in range(len(A)) if rep_of[i] == rep_of[j])


def test_inner_closed_under_composition():
    A = compute_aut(build_symmetric(4), "brute")
    inner = helpers.inner_rows(A)
    keys = {a.key for a in inner}
    for a in inner[:6]:
        for b in inner[:6]:
            assert Automorphism(A.parent, a.images[b.images]).key in keys


def test_product_strategy_coprime():
    # coprime direct products go through the brute search like any group
    assert len(compute_aut(elaborate_text("C3 x C4"))) == 4  # Aut(C3) x Aut(C4) = 2 x 2
    assert len(compute_aut(helpers.built("A5 x C11"))) == 1200  # Aut(A5) x Aut(C11) = 120 x 10


def test_auto_strategy_uncovered_group_is_a_cap():
    # the brute search's one bound is its expansion guard, in cells
    with pytest.raises(CapExceededError, match="336 x 120 candidate images"):
        compute_aut(elaborate_text("A5 x C2 x C2 x C2"))
    with pytest.raises(CapExceededError, match=f"over {BRUTE_CAP} cells"):
        compute_aut(elaborate_text(" x ".join(["C2"] * 10)))
    # no group the builders allow is over BRUTE_CAP by its order alone, so
    # bench/traced.py, which names a non-PSL2 search "brute" while
    # G.n <= BRUTE_CAP, names it truly
    assert BRUTE_CAP >= ORDER_CAP


def test_strategy_preconditions():
    with pytest.raises(StrategyError):
        compute_aut(build_symmetric(3), "psl2_structured")
    A = compute_aut(direct_product(build_alternating(5), build_cyclic(10)), "brute")
    assert len(A) == 480  # Aut(A5) x Aut(C10) = 120 x 4


# ---------------------------------------------------------------------------
# fixed points and the Frobenius automorphism
# ---------------------------------------------------------------------------


def test_fixed_points_of_identity():
    G = build_symmetric(3)
    assert fixed_points(identity_automorphism(G)) == list(range(G.n))


def test_frobenius_basics():
    G = build_psl2(4)
    assert frobenius_field_aut(G, 0).is_identity()
    fr = frobenius_field_aut(G, 1)
    assert fr.order() == 2
    with pytest.raises(ValueError):
        frobenius_field_aut(G, 2)


@pytest.mark.parametrize("q", [4, 8, 16])
def test_frobenius_fixed_point_count_is_six(q):
    G = build_psl2(q)
    assert len(fixed_points(frobenius_field_aut(G, 1))) == 6


def test_every_aut_multiplicative_exhaustively():
    # spot re-verification on top of the construction-time check
    A = compute_aut(build_psl2(5), "psl2_structured")
    T = A.parent.require_table()
    for a in list(A)[:20]:
        assert np.array_equal(a.images[T], T[np.ix_(a.images, a.images)])


# ---------------------------------------------------------------------------
# Aut(G) as coset representatives x Inn(G)
# ---------------------------------------------------------------------------


def _assert_same_autgroup(B, A):
    assert [a.key for a in B.all] == [a.key for a in A.all]
    assert [a.provenance for a in B.all] == [a.provenance for a in A.all]
    assert [B[j].key for j in B.coset_rows] == [A[j].key for j in A.coset_rows]
    assert [a.key for a in helpers.inner_rows(B)] == [a.key for a in helpers.inner_rows(A)]


@pytest.mark.parametrize("text", ["A5", "PSL2(7)", "SL2(5)", "C3 x C3"])
def test_autgroup_rebuilt_from_its_rows(text):
    A = compute_aut(elaborate_text(text))
    _assert_same_autgroup(AutGroup(A.parent, A.all), A)


@pytest.mark.parametrize("text", ["A6", "PSL2(8)", "C3 x C3"])
def test_autgroup_rebuilt_from_rows_in_any_order(text):
    A = compute_aut(elaborate_text(text))
    rows = list(A.all)
    shuffled = [rows[i] for i in np.random.default_rng(7).permutation(len(rows))]
    for given in (shuffled, rows[::-1]):
        _assert_same_autgroup(AutGroup(A.parent, given), A)


# PSL2(8)'s generators are 1, 2, 3; the others' leave gaps, so their rows
# are sorted on columns other than a prefix of the images
@pytest.mark.parametrize("text", ["PSL2(8)", "S5", "A6", "A5 x C3", "S6", "A6 x C2"])
def test_rows_are_sorted_and_formed_from_their_parts(text):
    A = compute_aut(helpers.built(text))
    keys = [a.key for a in A.all]  # the full images
    assert keys == sorted(keys) and len(set(keys)) == len(A)
    G = A.parent
    # the representatives are one read-only image matrix, a row per coset
    assert A.reps.shape == (len(A.coset_rows), G.n) and not A.reps.flags.writeable
    for j in (0, 1, len(A) // 2, len(A) - 1):
        r, c = A.parts(j)
        row = A.all[j]
        conj = [G.mul(G.mul(c, x), G.inverse(c)) for x in range(G.n)]
        # single images, a prefix and the full images agree
        assert [row(x) for x in range(5)] == A.reps[r][conj[:5]].tolist()
        assert row.prefix(9).tolist() == A.reps[r][conj[:9]].tolist()
        assert row.images.tolist() == A.reps[r][conj].tolist()


def test_row_images_are_formed_on_each_read():
    A = compute_aut(build_alternating(6))
    G = A.parent
    for j in (0, 1, 700, len(A) - 1):
        row = A.all[j]
        keys = set(vars(row))
        first, second = row.images, row.images
        r, c = A.parts(j)
        expected = A.reps[r].take(conjugations(G, [c], np.arange(G.n))[0])
        assert np.array_equal(first, second) and np.array_equal(first, expected)
        assert set(vars(row)) == keys  # nothing is cached on the handle


def test_whole_row_images_build_no_table():
    # a fresh PSL2(13): a shared one may have had its table built elsewhere
    G = build_psl2(13)
    A = compute_aut(G)
    everyone = np.arange(G.n)
    for j in (0, 1, len(A) // 2, len(A) - 1):
        r, c = A.parts(j)
        conj = conjugations(G, [c], everyone)[0]
        assert np.array_equal(A[j].images, A.reps[r][conj])
        assert np.array_equal(inner_automorphism(G, c).images, conj)
    assert not G.is_materialized
    # the row scan reads prefixes, and a prefix read builds the table
    assert np.array_equal(A[1].prefix(70), A[1].images[:70])
    assert G.is_materialized


def test_autgroup_consistency_checks():
    G = build_alternating(5)
    A = compute_aut(G)
    ident, outer = (A[j] for j in A.coset_rows)
    inner_rep = A.parts(0)[0]
    same_coset = next(A.all[j] for j in range(1, len(A)) if A.parts(j)[0] == inner_rep)
    with pytest.raises(AutomorphismError, match="disjoint"):
        AutGroup.from_reps(
            G, np.stack([ident.images, same_coset.images, outer.images]), lambda r, c: "raw"
        )
    with pytest.raises(AutomorphismError, match="Inn"):
        AutGroup.from_reps(G, outer.images[None], lambda r, c: "raw")
    with pytest.raises(AutomorphismError, match="cosets"):
        AutGroup(G, list(A.all)[:-1])
    with pytest.raises(AutomorphismError, match="duplicate"):
        AutGroup(G, list(A.all) + [A.all[3]])
    # keys name rows only among automorphisms: a forged row that matches a
    # true one on every key column is caught by the row-by-row comparison
    A = compute_aut(build_alternating(6))
    rows = list(A.all)
    j = next(j for j in range(1, len(A)) if j not in A.coset_rows)
    images = rows[j].images.copy()
    x, y = [x for x in range(1, A.parent.n) if x not in A.parent.generators][:2]
    images[[x, y]] = images[[y, x]]
    rows[j] = SimpleNamespace(images=images, provenance="forged")
    with pytest.raises(AutomorphismError, match="cosets"):
        AutGroup(A.parent, rows)


def test_setup_holds_one_key_buffer():
    # rows are keyed on their images of the identity and the generators,
    # |Aut| x 7 int32 for A5 x A5 (0.8 MiB), so Aut(G) is computed within
    # 16 MiB above the built group
    import tracemalloc

    G = elaborate_text("A5 x A5")
    G.table
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        A = compute_aut(G)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(A) == 28800 and len(G.generators) == 6
    assert peak <= 16 * 2**20


# ---------------------------------------------------------------------------
# Aut(G) held once: rows formed on read
# ---------------------------------------------------------------------------


def test_autgroup_holds_no_object_per_row():
    A = compute_aut(helpers.built("D256"))
    assert len(A) == 32768 and len(A.reps) == 128
    for key, value in vars(A).items():
        if isinstance(value, (list, tuple, dict)):
            assert len(value) <= len(A.reps), key
    assert not hasattr(A, "inner") and not hasattr(A, "coset_reps")
    assert A.all is A


# (position, provenance) of sampled rows, as the eager row list named them
SAMPLED_ROWS = {
    "A6": [(0, "inner(0)"), (1, "raw"), (2, "raw"), (23, "raw"), (59, "raw"), (108, "raw"),
           (388, "raw"), (443, "raw"), (736, "raw"), (917, "raw"), (1224, "raw"),
           (1439, "raw")],
    "PSL2(8)": [(0, "inner(0)"), (1, "field(1)"), (2, "field(2)"), (24, "composed"),
                (61, "composed"), (113, "composed"), (407, "composed"), (465, "composed"),
                (772, "inner(219)"), (963, "inner(361)"), (1286, "composed"),
                (1511, "inner(88)")],
}


@pytest.mark.parametrize("text", SAMPLED_ROWS)
def test_rows_formed_on_read_keep_images_and_names(text):
    A = compute_aut(helpers.built(text))
    G = A.parent
    for j, provenance in SAMPLED_ROWS[text]:
        r, c = A.parts(j)
        expected = A.reps[r].take(conjugations(G, [c], np.arange(G.n))[0])
        assert np.array_equal(A[j].images, expected)
        assert A[j].provenance == provenance
        assert A[j] is not A[j]  # a fresh handle on each read


def test_autgroup_iterates_its_rows_in_order():
    A = compute_aut(build_psl2(7))
    rows = list(A)
    assert len(rows) == len(A) == 336
    assert [a.key for a in rows] == [A[j].key for j in range(len(A))]
    with pytest.raises(IndexError):
        A[len(A)]
