from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from autmap.automorphisms import (
    Automorphism,
    compute_aut,
    identity_automorphism,
    inner_automorphism,
)
from autmap.completeness import (
    CompletenessVerdict,
    first_inverted,
    image_ratio,
    inversion_criterion,
    inverted_set,
    is_antisymmetric,
    is_fixed_point_free_equiv,
    is_k_complete,
    is_splitting,
    iterate_map_bijective,
    power_map_bijective,
    suzuki_order,
)
from autmap.errors import TheoremViolationError
from autmap.groups import (
    build_alternating,
    build_cyclic,
    build_dihedral,
    build_symmetric,
    conjugacy_classes,
)
from helpers import built, first_inverted_reference, inner_rows


def _power_map_aut(G, m):
    return Automorphism(G, [G.power(x, m) for x in range(G.n)])


def _inversion_aut(G):
    return Automorphism(G, G.inv)


# ---------------------------------------------------------------------------
# k-completeness
# ---------------------------------------------------------------------------


def test_identity_on_c3_is_1_complete():
    v = is_k_complete(identity_automorphism(build_cyclic(3)), 1)
    assert v.verdict
    assert sorted(v.image.tolist()) == [0, 1, 2]


def test_identity_on_c2_fails_with_certificate():
    v = is_k_complete(identity_automorphism(build_cyclic(2)), 1)
    assert not v.verdict
    g, h = v.collision
    assert v.image[g] == v.image[h] == 0  # both elements square to 1


def test_no_aut_of_a5_is_1_complete():
    A = compute_aut(build_alternating(5), "brute")
    assert all(not is_k_complete(a, 1).verdict for a in A.all)


def test_negative_k():
    G = build_cyclic(5)
    sq = _power_map_aut(G, 2)
    assert is_k_complete(sq, -1).verdict  # g^-1 g^2 = g
    assert is_k_complete(identity_automorphism(G), -1).verdict is False


# ---------------------------------------------------------------------------
# inversion criterion (coset reformulation)
# ---------------------------------------------------------------------------


def test_inverted_set_examples():
    C2 = build_cyclic(2)
    assert inverted_set(identity_automorphism(C2)) == [0, 1]
    C5 = build_cyclic(5)
    assert inverted_set(identity_automorphism(C5)) == [0]
    assert inverted_set(_inversion_aut(C5)) == [0, 1, 2, 3, 4]


def test_inversion_criterion_examples():
    C3 = build_cyclic(3)
    assert inversion_criterion(identity_automorphism(C3))
    C2 = build_cyclic(2)
    assert not inversion_criterion(identity_automorphism(C2))


@pytest.mark.parametrize("text_order", [("C6", 6), ("S3", None), ("Q8", None)])
def test_criterion_agrees_with_direct_scan(text_order):
    from autmap.parser import elaborate_text

    G = elaborate_text(text_order[0])
    A = compute_aut(G, "brute")
    for a in A.all:
        assert inversion_criterion(a) == is_k_complete(a, 1).verdict


def test_criterion_false_on_all_of_aut_a5():
    A = compute_aut(build_alternating(5), "brute")
    for a in A.all:
        assert not inversion_criterion(a)


@pytest.mark.parametrize(
    "text, complete",
    [("S3", 0), ("Q8", 0), ("A4", 0), ("A5", 0), ("PSL2(7)", 0), ("C2 x C2", 2), ("C3 x C3", 27)],
)
def test_first_inverted_matches_the_coset_walk(text, complete):
    G = built(text)
    rows = compute_aut(G, "auto").all
    found = [first_inverted(G, a.images) for a in rows]
    assert found == [first_inverted_reference(G, a.images) for a in rows]
    assert [f is None for f in found] == [is_k_complete(a, 1).verdict for a in rows]
    assert found.count(None) == complete


# ---------------------------------------------------------------------------
# (-1)-completeness == fixed-point-freeness
# ---------------------------------------------------------------------------


def test_fpf_equivalence_examples():
    S3 = build_symmetric(3)
    assert is_fixed_point_free_equiv(identity_automorphism(S3)) == (False, False)
    C5 = build_cyclic(5)
    assert is_fixed_point_free_equiv(_power_map_aut(C5, 2)) == (True, True)
    t = S3.labels.index("(1 2)")
    assert is_fixed_point_free_equiv(inner_automorphism(S3, t)) == (False, False)


def test_fpf_equivalence_across_aut_groups():
    for builder in (build_symmetric(4), build_cyclic(9), build_alternating(5)):
        A = compute_aut(builder, "brute")
        for a in A.all:
            fpf, minus1 = is_fixed_point_free_equiv(a)
            assert fpf == minus1


# ---------------------------------------------------------------------------
# iterate maps, splitting, anti-symmetry
# ---------------------------------------------------------------------------


def test_iterate_map_examples():
    assert iterate_map_bijective(identity_automorphism(build_cyclic(5)), 2)
    assert not iterate_map_bijective(identity_automorphism(build_cyclic(3)), 2)
    G = build_symmetric(3)
    for a in compute_aut(G, "brute").all:
        assert iterate_map_bijective(a, 1) == is_k_complete(a, 1).verdict


def test_splitting_examples():
    assert is_splitting(_inversion_aut(build_cyclic(3)))
    assert not is_splitting(identity_automorphism(build_cyclic(2)))
    assert is_splitting(_power_map_aut(build_cyclic(7), 2))  # g g^2 g^4 = g^7


def test_antisymmetric_examples():
    S3 = build_symmetric(3)
    assert not is_antisymmetric(identity_automorphism(S3), conjugacy_classes(S3))
    C7 = build_cyclic(7)
    assert is_antisymmetric(_power_map_aut(C7, 2), conjugacy_classes(C7))
    A5 = build_alternating(5)
    classes = conjugacy_classes(A5)
    for a in compute_aut(A5, "brute").all:
        assert not is_antisymmetric(a, classes)


# ---------------------------------------------------------------------------
# image ratios and power maps
# ---------------------------------------------------------------------------


def test_image_ratio_examples():
    C3 = build_cyclic(3)
    assert image_ratio(identity_automorphism(C3), "product") == 1
    G = build_symmetric(3)
    assert image_ratio(identity_automorphism(G), "commutator") == Fraction(1, 6)
    A5 = build_alternating(5)
    ratio = image_ratio(identity_automorphism(A5), "product")
    # independent brute count of {x^2}
    squares = {A5.mul(x, x) for x in range(60)}
    assert ratio == Fraction(len(squares), 60) == Fraction(3, 4)


def test_power_map_law():
    from autmap.parser import elaborate_text

    for text in ("C3", "C12", "S4", "Q8", "A5"):
        G = elaborate_text(text)
        for m in range(-3, 14):
            assert power_map_bijective(G, m) == (gcd(m, G.n) == 1)


def test_power_map_trivial_cases():
    G = build_cyclic(3)
    assert not power_map_bijective(G, 3)
    assert power_map_bijective(G, -1)


def test_suzuki_order_check():
    assert suzuki_order(8) == 29120  # 8^2 * (8^2+1) * 7
    assert gcd(3, suzuki_order(8)) == 1
    with pytest.raises(ValueError):
        suzuki_order(16)  # exponent must be odd
    with pytest.raises(ValueError):
        suzuki_order(2)  # m >= 1


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_certificates_reverify():
    G = build_cyclic(4)
    for a in compute_aut(G, "brute").all:
        for k in range(-2, 4):
            v = is_k_complete(a, k)
            if v.verdict:
                assert len(set(v.image.tolist())) == G.n
            else:
                g, h = v.collision
                lhs = G.mul(G.power(g, k), a(g))
                rhs = G.mul(G.power(h, k), a(h))
                assert lhs == rhs


def test_forged_certificates_are_theorem_violations():
    # only a bug can build a certificate that fails its self-check
    with pytest.raises(TheoremViolationError, match="not a bijection"):
        CompletenessVerdict(True, np.array([0, 1, 1]))
    with pytest.raises(TheoremViolationError, match="does not collide"):
        CompletenessVerdict(False, np.array([0, 2, 1]), collision=(1, 2))


def test_1_completeness_is_constant_on_inn_cosets():
    # a consequence of the coset reformulation: composing with an inner
    # automorphism cannot change the k = 1 verdict
    A5 = build_alternating(5)
    A = compute_aut(A5, "brute")
    for j in A.coset_rows:
        verdicts = {
            is_k_complete(Automorphism(A5, A[j].images[i.images]), 1).verdict
            for i in inner_rows(A)[:10]
        }
        assert len(verdicts) == 1


# ---------------------------------------------------------------------------
# rows alpha o iota_c and the prefix scan
# ---------------------------------------------------------------------------


def _reference_first_collision(image):
    """First (g, h), h least, with image[g] == image[h], by a full scan."""
    first = {}
    for h, v in enumerate(image):
        if v in first:
            return first[v], h
        first[v] = h
    return None


@pytest.mark.parametrize("name", ["A6", "PSL2(8)", "SL2(7)"])
def test_collisions_transport_along_inn_cosets(name):
    # D_{alpha o iota_c}(c^-1 g) = c^-1 D_alpha(g) alpha(c)^-1, so a collision
    # (g, h) of the representative alpha moves to (c^-1 g, c^-1 h)
    from autmap.catalog import catalog_aut

    aut = catalog_aut(name)
    G = aut.parent
    rep_verdicts = [is_k_complete(Automorphism(G, rep), 1) for rep in aut.reps]
    for j, row in enumerate(aut.all):
        r, c = aut.parts(j)
        rep_v = rep_verdicts[r]
        assert is_k_complete(row, 1).verdict == rep_v.verdict
        g, h = (G.mul(G.inverse(c), x) for x in rep_v.collision)
        assert G.mul(g, row(g)) == G.mul(h, row(h))


def test_coset_constancy_fails_at_k2():
    G = build_dihedral(5)
    A = compute_aut(G, "brute")
    verdicts = [is_k_complete(a, 2).verdict for a in A.all]
    assert sum(verdicts) == 15 and len(verdicts) == 20
    by_coset = {}
    for j, v in enumerate(verdicts):
        by_coset.setdefault(A.parts(j)[0], set()).add(v)
    assert any(len(vs) == 2 for vs in by_coset.values())


def test_prefix_scan_matches_full_width_reference():
    from autmap.catalog import CATALOG, catalog_aut

    for entry in CATALOG:
        aut = catalog_aut(entry.name)
        G = aut.parent
        T = G.require_table()
        for alpha in aut.all:
            image = T[np.arange(G.n), alpha.images].tolist()
            expected = _reference_first_collision(image)
            v = is_k_complete(alpha, 1)
            assert v.collision == expected, entry.name
            assert v.verdict == (expected is None)
            if v.verdict:
                assert v.image.tolist() == image


def test_prefix_scan_widens_past_the_first_prefix():
    v = is_k_complete(identity_automorphism(build_cyclic(150)), 1)
    assert not v.verdict
    assert v.collision == (0, 75)  # 2*75 = 0 in C150, beyond the first prefix
    # in C_{2m} the identity first collides at (0, m): on each side of the
    # widths 70, 140 and 280 the image stops at the first width holding m
    for m, width in [(69, 70), (70, 140), (71, 140), (139, 140), (140, 280),
                     (141, 280), (279, 280), (280, 560)]:
        v = is_k_complete(identity_automorphism(build_cyclic(2 * m)), 1)
        assert (v.verdict, v.collision, len(v.image)) == (False, (0, m), width), m


def test_prefix_scan_certifies_a_complete_row_with_its_full_image():
    G = build_cyclic(141)
    v = is_k_complete(identity_automorphism(G), 1)
    assert v.verdict
    assert v.image.tolist() == [2 * g % 141 for g in range(141)]
