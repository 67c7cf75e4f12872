"""Bijectivity predicates on automorphisms: k-completeness and its relatives.

The map under test is g -> g^k * a(g) for an automorphism a; k = 1 is the
complete-mapping case, k = -1 the orthomorphism/fixed-point-free case.  On a
finite group injectivity already gives bijectivity, so every predicate is an
injectivity scan over power vectors; k-completeness scans a growing prefix
of G, each element once, and captures the first collision as a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import numpy as np

from .automorphisms import Automorphism
from .errors import TheoremViolationError
from .groups import GroupTable, conjugations


@dataclass
class CompletenessVerdict:
    """Outcome of one (automorphism, k) check, with its certificate.

    On success the certificate is the full displacement image; on failure it
    is a colliding pair (g, h) with g^k a(g) = h^k a(h), and ``image`` is the
    displacement over a prefix of G that contains both.  Both are re-checked
    at construction time; a certificate that fails is a bug.
    """

    verdict: bool
    image: np.ndarray = field(repr=False)
    collision: tuple[int, int] | None = None

    def __post_init__(self):
        n = len(self.image)
        if self.verdict:
            if self.collision is not None or np.count_nonzero(np.bincount(self.image)) != n:
                raise TheoremViolationError("success certificate is not a bijection")
        else:
            g, h = self.collision
            if g == h or self.image[g] != self.image[h]:
                raise TheoremViolationError("failure certificate does not collide")


SCAN_PREFIX = 70  # the first collision of a failing row usually falls this early


def displacement_image(alpha: Automorphism, k: int, count: int | None = None) -> np.ndarray:
    """The vector g^k * a(g) over all g, or over the first ``count``."""
    G = alpha.parent
    return np.asarray(G.mul_many(G.power_vec(k, count), alpha.prefix(count)), dtype=np.int32)


def is_k_complete(alpha: Automorphism, k: int) -> CompletenessVerdict:
    """Is g -> g^k * a(g) bijective?  k may be negative (inverse powers).

    The image is formed on a prefix of SCAN_PREFIX elements, and the prefix
    doubles until a collision is found or it covers the group.  A map from
    each value to the first h that gave it is kept across widenings, so each
    h is read once, and the certificate is the least h whose value came
    earlier, with that value's first position.  On failure ``image`` holds
    the scanned prefix, on success the full image."""
    n = alpha.parent.n
    first: dict[int, int] = {}
    start, width = 0, min(SCAN_PREFIX, n)
    while True:
        image = displacement_image(alpha, k, width)
        for h, v in enumerate(image[start:].tolist(), start):
            g = first.setdefault(v, h)
            if g != h:
                return CompletenessVerdict(False, image, (g, h))
        if width == n:
            return CompletenessVerdict(True, image)
        start, width = width, min(2 * width, n)


def inverted_set(beta: Automorphism) -> list[int]:
    """{g : beta(g) = g^-1}; always contains the identity."""
    return [int(x) for x in np.nonzero(beta.images == beta.parent.inv)[0]]


def first_inverted(G: GroupTable, images: np.ndarray) -> tuple[int, int] | None:
    """The least c, then the least x != 1, such that images o iota_c inverts
    x, where iota_c is x -> c x c^-1; None when no member of the coset
    images*Inn(G) inverts a nontrivial element.  One conjugation at a time."""
    everyone = np.arange(G.n)
    for c in range(G.n):
        hits = np.flatnonzero(images[conjugations(G, [c], everyone)[0]] == G.inv)
        if len(hits) > 1:  # hits[0] is the identity
            return c, int(hits[1])
    return None


def inversion_criterion(alpha: Automorphism) -> bool:
    """True iff no member of the coset alpha*Inn(G) inverts a nontrivial
    element (the reformulation of 1-completeness)."""
    return first_inverted(alpha.parent, alpha.images) is None


def is_fixed_point_free_equiv(alpha: Automorphism) -> tuple[bool, bool]:
    """(fixed-point-free?, (-1)-complete?), computed independently."""
    fpf = bool(np.count_nonzero(alpha.images == np.arange(alpha.parent.n)) == 1)
    minus1 = is_k_complete(alpha, -1).verdict
    return fpf, minus1


def iterate_map_bijective(alpha: Automorphism, k: int) -> bool:
    """Is g -> g * a(g) * a^2(g) * ... * a^k(g) bijective?  (k >= 1; at k = 1
    this is the same map as is_k_complete(alpha, 1).)"""
    if k < 1:
        raise ValueError(f"iterate length must be >= 1, got {k}")
    return bool(np.count_nonzero(np.bincount(iterate_product_vec(alpha, k))) == alpha.parent.n)


def iterate_product_vec(alpha: Automorphism, k: int) -> np.ndarray:
    """The vector g * a(g) * ... * a^k(g) (k >= 0)."""
    G = alpha.parent
    acc = np.arange(G.n, dtype=np.int32)
    images = power = alpha.images
    for _ in range(k):
        acc = np.asarray(G.mul_many(acc, power), dtype=np.int32)
        power = images[power]
    return acc


def is_splitting(alpha: Automorphism) -> bool:
    """True iff g * a(g) * ... * a^(ord(a)-1)(g) = 1 for every g."""
    return bool(np.all(iterate_product_vec(alpha, alpha.order() - 1) == 0))


def is_antisymmetric(alpha: Automorphism, classes: list[list[int]]) -> bool:
    """True iff the only conjugacy class left invariant is {identity}."""
    for cls in classes:
        if cls == [0]:
            continue
        if sorted(int(x) for x in alpha.images[cls]) == cls:
            return False
    return True


def image_ratio(alpha: Automorphism, mode: str) -> Fraction:
    """|{s * a(s)}| / |G| ('product') or |{s^-1 * a(s)}| / |G| ('commutator'),
    as an exact rational."""
    G = alpha.parent
    if mode == "product":
        left = np.arange(G.n, dtype=np.int64)
    elif mode == "commutator":
        left = G.inv
    else:
        raise ValueError(f"unknown image_ratio mode {mode!r}")
    image = G.mul_many(left, alpha.images)
    return Fraction(int(np.count_nonzero(np.bincount(image))), G.n)


def power_map_bijective(G: GroupTable, m: int) -> bool:
    """Is g -> g^m bijective?  Cross-checked against gcd(m, |G|) = 1 on every
    call; a mismatch would be an implementation bug."""
    image = G.power_vec(m)
    bijective = bool(np.count_nonzero(np.bincount(image)) == G.n)
    if bijective != (gcd(m, G.n) == 1):
        raise RuntimeError(
            f"power map law violated on {G.name}: m={m}, bijective={bijective}"
        )
    return bijective


def suzuki_order(q: int) -> int:
    """Order q^2 (q^2 + 1) (q - 1) of the Suzuki group for q = 2^(2m+1)."""
    e = q.bit_length() - 1
    if q != 2**e or e < 3 or e % 2 == 0:
        raise ValueError(f"Suzuki parameter must be 2^(2m+1) with m >= 1, got {q}")
    return q * q * (q * q + 1) * (q - 1)
