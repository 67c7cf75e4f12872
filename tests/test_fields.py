import hashlib

import numpy as np
import pytest

from autmap.errors import FieldDomainError, GroupBuildError, UnsupportedQueryError
from autmap.fields import FieldParams, default_modulus, field_for, prime_power

# ---------------------------------------------------------------------------
# construction and moduli
# ---------------------------------------------------------------------------


def test_prime_power_decomposition():
    assert prime_power(4) == (2, 2)
    assert prime_power(27) == (3, 3)
    assert prime_power(17) == (17, 1)
    assert prime_power(1_000_000_007) == (1_000_000_007, 1)
    assert prime_power(2**31 - 1) == (2**31 - 1, 1)
    assert prime_power(3**20) == (3, 20)
    for bad in (1, 6, 12, 15):
        with pytest.raises(GroupBuildError):
            prime_power(bad)


def test_default_moduli_are_the_classical_ones():
    # first irreducible in ascending code order of the lower coefficients
    assert default_modulus(2, 2) == (1, 1, 1)  # t^2+t+1
    assert default_modulus(2, 3) == (1, 1, 0, 1)  # t^3+t+1
    assert default_modulus(2, 4) == (1, 1, 0, 0, 1)  # t^4+t+1
    assert default_modulus(2, 5) == (1, 0, 1, 0, 0, 1)  # t^5+t^2+1
    assert default_modulus(3, 2) == (1, 0, 1)  # t^2+1
    assert default_modulus(5, 2) == (2, 0, 1)  # t^2+2


def test_size_cap_and_bad_modulus():
    with pytest.raises(GroupBuildError):
        FieldParams(2, 6)  # 64 > 32
    assert FieldParams(2, 2).modulus == default_modulus(2, 2)  # the only modulus
    with pytest.raises(GroupBuildError):
        FieldParams(4, 1)  # 4 not prime


# ---------------------------------------------------------------------------
# pinned tables
# ---------------------------------------------------------------------------

# sha256 of the modulus and of the add, mul, neg, inv and square tables (each
# with its dtype) of every field under the size cap
TABLE_DIGESTS = {
    2: "eba1a79fd3526026c69996f06dbff57e28dd0c5dd7ddc012f39cfeeeddf42a11",
    3: "0d3942c4395e7e174e5680e538adace5d704eb6f8e85006924efcfe1cbb1a974",
    4: "ad030ea76c63bbc3747545fb628d8bcb5a871c89b55a035294c5d15bdfa917e5",
    5: "21889edc226f85c045146b1b8d8577187ab46dd4308db5ed3735cdb6b55bd153",
    7: "659b3296b8123415ad88be43c296866c3109077b4bcddca9cc5338911bb90f3d",
    8: "14587bd8ca1d8a37c79cee25b8a4151b66c036e81a08a30819100e37478bb826",
    9: "abb2107cdf64d88d91ce48e05bc56f025dfe9f2e55c2860eb8d3b12479143c99",
    11: "7f76f796060b12b70985ccbf9de8f269157d07e2f44a7a891d7b23ebc2d213ad",
    13: "af9ed6dc269074f3b07010145bc6f59dc9d8c66c0b5715f93b84e84eec1811a6",
    16: "968858135e71f099364ea1867cf6612a74a13525a7a4701ca07709d20755b82a",
    17: "a98854288130d1efb870a7f3be65b6d06ce6365ff168e13f91b20815dd7fa973",
    19: "915c187351f64b117750e6c785fb505ddcd8cdba245bf140cf0c6a7155944cac",
    23: "592860dc1c33e17dd193eafd810966a8537f4f7ebcb06e11f8099335af2bfb03",
    25: "b333a4bf5bfbe47b021ad0921d39d37463b035e10f84b8b03f8a20b27a085815",
    27: "be471a323668b9b72cfac84d55d947e13c9359fef5e25fe222d28006238d221b",
    29: "1d5261c453786f383f33bac3f3cb6df67c04a87c37f55f15b59a4b6f7d05ca4f",
    31: "61a216b0971ce57cf3491aa6826f9fb717fa91961dc162bbe72194daf0e5ada0",
    32: "c69d37a95f30f42ee58a0402d8f0547e7515e65d45d98e84670034d434ec20e9",
}


@pytest.mark.parametrize("q", sorted(TABLE_DIGESTS))
def test_field_tables_are_pinned(q):
    F = FieldParams(*prime_power(q))
    h = hashlib.sha256(repr(F.modulus).encode())
    for t in (F.add_table, F.mul_table, F.neg_table, F.inv_table, F.square_mask):
        h.update(t.dtype.str.encode() + t.tobytes())
    assert h.hexdigest() == TABLE_DIGESTS[q]


# ---------------------------------------------------------------------------
# arithmetic examples
# ---------------------------------------------------------------------------


def test_f4_multiplication_example():
    F = field_for(4)
    t = F.element((0, 1))
    t1 = F.element((1, 1))
    assert F.mul(t, t1) == F.one  # t*(t+1) = t^2+t = 1 under t^2+t+1


def test_f5_inverse_example():
    F = field_for(5)
    assert F.inv(F.scalar(2)) == F.scalar(3)
    with pytest.raises(FieldDomainError):
        F.inv(F.zero)


def test_mul_identity_everywhere():
    for q in (2, 3, 4, 5, 8, 9):
        F = field_for(q)
        for a in F.elements():
            assert F.mul(a, F.one) == a


# ---------------------------------------------------------------------------
# field axioms, exhaustively for q <= 16
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_field_axioms_exhaustive(q):
    F = field_for(q)
    A, M = F.add_table, F.mul_table
    n = F.q
    idx = np.arange(n)
    # commutativity
    assert np.array_equal(A, A.T)
    assert np.array_equal(M, M.T)
    # associativity of both operations, all triples
    assert np.array_equal(A[A], A[:, A])
    assert np.array_equal(M[M], M[:, M])
    # distributivity a*(b+c) = a*b + a*c, all triples
    left = M[idx[:, None, None], A[None, :, :]]
    right = A[M[idx[:, None], idx[None, :]][:, :, None], M[idx[:, None], idx[None, :]][:, None, :]]
    assert np.array_equal(left, right)
    # inverses
    for a in range(1, n):
        assert M[a, F.inv_table[a]] == 1
        assert A[a, F.neg_table[a]] == 0


# ---------------------------------------------------------------------------
# frobenius
# ---------------------------------------------------------------------------


def test_frobenius_f4_example():
    F = field_for(4)
    t = F.element((0, 1))
    assert F.frobenius(t, 1) == F.element((1, 1))  # t^2 = t+1
    for a in F.elements():
        assert F.frobenius(a, 0) == a
        assert F.frobenius(a, F.f) == a


def test_frobenius_fixes_prime_field_of_char2():
    for q in (4, 8, 16, 32):
        F = field_for(q)
        for i in range(F.f):
            assert F.frobenius(F.one, i) == F.one


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_frobenius_is_a_field_automorphism_with_prime_fixed_field(q):
    F = field_for(q)
    els = F.elements()
    fixed = 0
    for a in els:
        fa = F.frobenius(a, 1)
        if fa == a:
            fixed += 1
        for b in els:
            assert F.frobenius(F.add(a, b), 1) == F.add(fa, F.frobenius(b, 1))
            assert F.frobenius(F.mul(a, b), 1) == F.mul(fa, F.frobenius(b, 1))
    assert fixed == F.p


# ---------------------------------------------------------------------------
# generator and squares
# ---------------------------------------------------------------------------


def test_generator_examples():
    assert field_for(5).to_code(field_for(5).generator()) == 2
    assert field_for(7).to_code(field_for(7).generator()) == 3  # 2 has order 3
    F4 = field_for(4)
    assert F4.generator() == F4.element((0, 1))  # t, under enumeration 0,1,t,t+1


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 25, 27, 31, 32])
def test_generator_powers_enumerate_all_units(q):
    F = field_for(q)
    g = F.generator()
    seen = set()
    x = F.one
    for _ in range(q - 1):
        x = F.mul(x, g)
        seen.add(F.to_code(x))
    assert seen == set(range(1, q))


def test_is_square_examples():
    F7 = field_for(7)
    assert not F7.is_square(F7.scalar(-1))  # 7 = 3 mod 4
    F5 = field_for(5)
    assert F5.is_square(F5.scalar(-1))  # 4 = 2^2
    for q in (3, 5, 7, 9, 11, 13):
        F = field_for(q)
        assert F.is_square(F.one)
        assert F.is_square(F.zero)
        # exactly (q-1)/2 nonzero squares
        assert sum(F.is_square(a) for a in F.elements()) == 1 + (q - 1) // 2


def test_is_square_rejected_in_char2():
    F = field_for(4)
    with pytest.raises(UnsupportedQueryError):
        F.is_square(F.one)


def test_labels():
    F9 = field_for(9)
    labels = [F9.label(a) for a in F9.elements()]
    assert labels[:4] == ["0", "1", "2", "t"]
    assert F9.label(F9.element((1, 2))) == "2t+1"
