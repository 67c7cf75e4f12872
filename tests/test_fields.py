import hashlib

import numpy as np
import pytest

from autmap.errors import CapExceededError, FieldDomainError, GroupBuildError
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
    # a field over the size cap is a cap, not an input error
    with pytest.raises(CapExceededError):
        FieldParams(2, 6)  # 64 > 32
    for q in (37, 64):
        with pytest.raises(CapExceededError):
            field_for(q)
    assert FieldParams(2, 2).modulus == default_modulus(2, 2)  # the only modulus
    with pytest.raises(GroupBuildError):
        FieldParams(4, 1)  # 4 not prime
    with pytest.raises(GroupBuildError):
        FieldParams(2, 0)


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


# sha256 of the q labels in code order, joined by newlines, and the code of
# the generator, for every field under the size cap; field labels reach every
# matrix-group label
LABEL_PINS = {
    2: ("1e9987e996a1c529f61f4339797481b7b1138b15f18a44e06dde45eabbc67921", 1),
    3: ("c4276dce1d5952cafea6aebd872c389f0945e4a2400859fa3998138d2e006f34", 2),
    4: ("4a6adcd5d1df1ee22c430ed7fa16881262602f7be75a34fca7fa580464420a5d", 2),
    5: ("2965d24b80b4f692ecd619cf932ebd8bcefbf39e062b0fbb079eaa01b0e2b00a", 2),
    7: ("fd97ce4cb9fb0aed56be8628d8326ec6610c893630b8b826915080e8434606cc", 3),
    8: ("eee8bfd88ece51f4e1a1a0fff7a8499cccf0b1b286c7a979b0b2925772691e0e", 2),
    9: ("7eed653c4a6e53295744d5d79a04cc211b6bcda7762ccab7cc28460e971c48ee", 4),
    11: ("85e31dd21bd6e8e6be6f0f6f41d3df582aaf689b58f3417d84f6c61b56d6b057", 2),
    13: ("33d2b9cd4ccfefb90196b6aaffcc6c1118888a27bc581dfeeb26b0d6f9d8c144", 2),
    16: ("323d51fcbfa9934c3ee64f54ead72332e7708714af3e8b24f010bf1c15d1691e", 2),
    17: ("1c52a0d6313842f90afd45619ef477c9fc5acb4831f7080f4dc707125f33ab71", 3),
    19: ("ffe5ff2de51421612ebdcc878db99e0bdd639de7f923ab115d3c9aeabcce6c3a", 2),
    23: ("37bf5969d8fd94627f8964dc22198cd8f61680b7a7a54d7f65e9a14ec3da7650", 5),
    25: ("f23c0deba82ec26ff5657c50bd47d0b4f88349802564156bf5f9d70e6558763c", 6),
    27: ("f12957fde312a33525ca90efe3780aab5915747aca1d02ba8c6bf258d7a574b3", 3),
    29: ("735ed70ae057223c92922836a9ba65c27e5d5b8a0f00800eacbe4718006500d6", 2),
    31: ("c8c1b7bc157fa497e8dcb8b07c17cb840b8b3c42bef52a65a03c314f6791f73d", 3),
    32: ("cd5b3b3bf2710dc348a585742bca5e49cdee0c0895b74d40257616db687d9e84", 2),
}


@pytest.mark.parametrize("q", sorted(LABEL_PINS))
def test_field_labels_and_generator_are_pinned(q):
    F = field_for(q)
    labels = "\n".join(F.label(c) for c in range(q))
    assert (hashlib.sha256(labels.encode()).hexdigest(), F.generator()) == LABEL_PINS[q]


# ---------------------------------------------------------------------------
# arithmetic examples
# ---------------------------------------------------------------------------


def test_f4_multiplication_example():
    F = field_for(4)
    # codes 0, 1, t, t+1; t*(t+1) = t^2+t = 1 under t^2+t+1
    assert F.mul_table[2, 3] == 1


def test_f5_inverse_example():
    F = field_for(5)
    assert F.inv_table[2] == 3
    assert F.pow(2, -1) == 3


def test_pow_on_codes():
    F = field_for(9)
    for c in range(F.q):
        assert F.pow(c, 0) == 1
        assert F.pow(c, 1) == c
        assert F.pow(c, 3) == F.mul_table[c, F.mul_table[c, c]]
    for c in range(1, F.q):
        assert F.pow(c, -2) == F.inv_table[F.mul_table[c, c]]
        assert F.pow(c, F.q - 1) == 1
    assert F.pow(0, 5) == 0
    with pytest.raises(FieldDomainError):
        F.pow(0, -1)
    for bad in (-1, F.q):
        with pytest.raises(FieldDomainError):
            F.pow(bad, 2)
        with pytest.raises(FieldDomainError):
            F.label(bad)


# ---------------------------------------------------------------------------
# field axioms, exhaustively for q <= 16
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_field_axioms_exhaustive(q):
    F = field_for(q)
    A, M = F.add_table, F.mul_table
    n = F.q
    idx = np.arange(n)
    # identities: code 0 for addition, code 1 for multiplication
    assert np.array_equal(A[:, 0], idx)
    assert np.array_equal(M[:, 1], idx)
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
# frobenius: the p-th power map
# ---------------------------------------------------------------------------


def test_frobenius_f4_example():
    F = field_for(4)
    assert F.pow(2, F.p) == 3  # t^2 = t+1
    for a in range(F.q):
        assert F.pow(a, F.p**0) == a
        assert F.pow(a, F.p**F.f) == a


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32])
def test_frobenius_is_a_field_automorphism_with_prime_fixed_field(q):
    F = field_for(q)
    fr = np.array([F.pow(a, F.p) for a in range(q)])
    for table in (F.add_table, F.mul_table):
        assert np.array_equal(fr[table], table[fr[:, None], fr[None, :]])
    assert np.count_nonzero(fr == np.arange(q)) == F.p


# ---------------------------------------------------------------------------
# generator and squares
# ---------------------------------------------------------------------------


def test_generator_examples():
    assert field_for(5).generator() == 2
    assert field_for(7).generator() == 3  # 2 has order 3
    assert field_for(4).generator() == 2  # t, under enumeration 0, 1, t, t+1


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 25, 27, 31, 32])
def test_generator_powers_enumerate_all_units(q):
    F = field_for(q)
    g = F.generator()
    seen = set()
    x = 1
    for _ in range(q - 1):
        x = int(F.mul_table[x, g])
        seen.add(x)
    assert seen == set(range(1, q))


def test_is_square_examples():
    F7 = field_for(7)
    assert not F7.square_mask[F7.neg_table[1]]  # 7 = 3 mod 4
    F5 = field_for(5)
    assert F5.square_mask[F5.neg_table[1]]  # 4 = 2^2
    for q in (3, 5, 7, 9, 11, 13):
        F = field_for(q)
        assert F.square_mask[0] and F.square_mask[1]
        # exactly (q-1)/2 nonzero squares, the a with a^((q-1)/2) = 1
        assert np.count_nonzero(F.square_mask) == 1 + (q - 1) // 2
        assert all(F.square_mask[a] == (F.pow(a, (q - 1) // 2) == 1) for a in range(1, q))
    # in characteristic 2 every element is a square
    assert field_for(8).square_mask.all()


def test_labels():
    F9 = field_for(9)
    labels = [F9.label(c) for c in range(F9.q)]
    assert labels[:4] == ["0", "1", "2", "t"]
    assert F9.label(7) == "2t+1"  # code 1 + 2*3
