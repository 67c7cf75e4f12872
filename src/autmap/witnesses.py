"""Constructive inverted-element witnesses.

Two families:

  * wreath-type automorphisms (a_1, ..., a_n) sigma of S^n (S nonabelian
    simple): find_inverted_witness produces a nontrivial tuple that the
    automorphism maps to its componentwise inverse, following the two
    cycle-parity constructions (even cycles use a nontrivial fixed point of
    the cycle composite; odd cycles scan the composite's inner coset for a
    member that inverts something nontrivial and fold that twist back into
    the last coordinate);

  * explicit order-2 elements of PSL2(q) inverted by a chosen representative
    of each outer coset: the unipotent [1 1; 0 1] in characteristic 2, the
    class of diag(-1, 1) as a power of diag(xi, 1)*frob^i when q = 1 mod 4,
    and the class of [0 1; -1 0] conjugated by the antidiagonal when
    q = 3 mod 4.

S^n is never materialized; everything runs componentwise on index tuples.
A WreathAut needs no multiplicativity check of its own: (a_1, ..., a_n) sigma
is an automorphism of S^n whenever sigma is a permutation and every a_i is an
Automorphism of S, each of which was validated exactly on construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .automorphisms import Automorphism, frobenius_field_aut
from .completeness import first_inverted
from .errors import GroupBuildError, TheoremViolationError
from .groups import GroupTable, build_psl2, conjugacy_classes, conjugations, matrix_index, psl2_map
from .structure import subgroup_closure

WITNESS_MAX_COPIES = 6


def is_nonabelian_simple(S: GroupTable) -> bool:
    """Fewer conjugacy classes than elements (nonabelian), and each
    nontrivial class's normal closure, the subgroup it generates, is S."""
    classes = conjugacy_classes(S)
    return len(classes) < S.n and all(len(subgroup_closure(S, c)) == S.n for c in classes[1:])


@dataclass(frozen=True)
class WreathAut:
    """(a_1, ..., a_n) sigma acting on S^n: component i of the image is
    a_i applied to component sigma^-1(i) of the argument."""

    base: GroupTable
    n: int
    alphas: tuple[Automorphism, ...]
    sigma: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n <= WITNESS_MAX_COPIES:
            raise GroupBuildError(
                f"wreath witness needs 1 <= n <= {WITNESS_MAX_COPIES}, got {self.n}"
            )
        if len(self.alphas) != self.n or len(self.sigma) != self.n:
            raise GroupBuildError("wreath automorphism needs n alphas and an n-point sigma")
        if sorted(self.sigma) != list(range(self.n)):
            raise GroupBuildError("sigma is not a permutation")
        for a in self.alphas:
            if not isinstance(a, Automorphism):
                raise GroupBuildError("alpha is not an Automorphism")
            if a.parent is not self.base:
                raise GroupBuildError("alpha does not act on the base group")

    @property
    def sigma_inv(self) -> tuple[int, ...]:
        inv = [0] * self.n
        for i, v in enumerate(self.sigma):
            inv[v] = i
        return tuple(inv)

    def apply(self, v: tuple[int, ...]) -> tuple[int, ...]:
        if len(v) != self.n:
            raise GroupBuildError(f"expected a {self.n}-tuple, got {len(v)}")
        si = self.sigma_inv
        return tuple(int(self.alphas[i].images[v[si[i]]]) for i in range(self.n))


@dataclass(frozen=True)
class InvertedWitness:
    """A nontrivial tuple mapped to its componentwise inverse by ``wreath``
    (the input automorphism, with any inner twist folded in)."""

    wreath: WreathAut
    vector: tuple[int, ...]
    cycle_used: tuple[int, ...]
    twisted_coord: int | None
    verified: bool = field(init=False, default=False)

    def __post_init__(self):
        S = self.wreath.base
        if all(x == 0 for x in self.vector):
            raise TheoremViolationError("witness tuple is trivial")
        image = self.wreath.apply(self.vector)
        expected = tuple(int(S.inv[x]) for x in self.vector)
        if image != expected:
            raise TheoremViolationError("witness tuple is not inverted by the map")
        object.__setattr__(self, "verified", True)


def _sigma_cycle(w: WreathAut) -> list[int]:
    """The sigma-cycle containing the least moved coordinate (the fixed
    cycle (0) when sigma is the identity)."""
    moved = [i for i in range(w.n) if w.sigma[i] != i]
    start = min(moved) if moved else 0
    cycle = [start]
    x = w.sigma[start]
    while x != start:
        cycle.append(x)
        x = w.sigma[x]
    return cycle


def find_inverted_witness(w: WreathAut) -> InvertedWitness:
    """A nontrivial element of S^n inverted by a member of w's inner coset.

    Even cycle length: the composite of the alphas along the cycle has a
    nontrivial fixed point (a fixed-point-free automorphism would make S
    solvable), and the fixed point propagates around the cycle with
    alternating inversion.  Odd cycle length: some member of the composite's
    coset modulo Inn(S) inverts a nontrivial element (S admits no 1-complete
    automorphism); the found twist is folded into the last cycle coordinate.
    """
    S = w.base
    if not is_nonabelian_simple(S):
        raise GroupBuildError("witness construction needs a nonabelian simple base")
    cycle = _sigma_cycle(w)
    everyone = np.arange(S.n)
    prefix = everyone  # the composite of the alphas along the cycle but its last
    for c in cycle[:-1]:
        prefix = w.alphas[c].images[prefix]
    gamma = w.alphas[cycle[-1]].images[prefix]

    twisted_coord = None
    alphas = list(w.alphas)
    if len(cycle) % 2 == 0:
        fixed = np.nonzero(gamma == everyone)[0]
        fixed = fixed[fixed != 0]
        if len(fixed) == 0:
            raise TheoremViolationError(
                f"composite along an even cycle has no nontrivial fixed point on {S.name}"
            )
        s_k = int(fixed[0])
    else:
        found = first_inverted(S, gamma)
        if found is None:
            raise TheoremViolationError(
                f"no member of the composite's inner coset inverts anything on {S.name}"
            )
        g, s_k = found
        # fold the twist gamma o iota_g into the last cycle coordinate:
        # beta_k = alpha_k o iota_prefix(g), so beta_k o prefix = gamma o iota_g
        twisted_coord = cycle[-1]
        conj = conjugations(S, [g, prefix[g]], everyone)
        beta_k = Automorphism(S, alphas[twisted_coord].images[conj[1]], provenance="composed")
        if not np.array_equal(beta_k.images[prefix], gamma[conj[0]]):
            raise TheoremViolationError("folded twist does not give the found coset member")
        alphas[twisted_coord] = beta_k

    vector = [0] * w.n
    vector[cycle[-1]] = val = s_k
    for i, c in enumerate(cycle[:-1], start=1):
        val = int(alphas[c].images[val])
        vector[c] = int(S.inv[val]) if i % 2 == 1 else val

    effective = (
        w if twisted_coord is None else WreathAut(S, w.n, tuple(alphas), w.sigma)
    )
    return InvertedWitness(
        wreath=effective,
        vector=tuple(vector),
        cycle_used=tuple(cycle),
        twisted_coord=twisted_coord,
    )


# ---------------------------------------------------------------------------
# PSL2(q) witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Psl2Witness:
    group: GroupTable
    q: int
    i: int
    variant: str
    element: int
    coset_rep: Automorphism
    exponent: int | None
    transcript: dict[str, bool]  # each check the witness makes, and its outcome
    verified: bool


def psl2_variant(q: int) -> str:
    """The witness construction for PSL2(q), q a prime power: by the
    characteristic 2, else by q mod 4."""
    if q % 2 == 0:
        return "char2"
    return "q1mod4" if q % 4 == 1 else "q3mod4"


def psl2_witness(q: int, i: int, variant: str, group: GroupTable | None = None) -> Psl2Witness:
    """An order-2 element of PSL2(q) inverted by the chosen representative of
    the coset indexed by (variant, i).  A check that fails is recorded in the
    transcript, and the witness is then not verified."""
    G = group if group is not None else build_psl2(q)
    if G.kind != "PSL2" or G.meta["q"] != q:
        raise GroupBuildError("group argument must be PSL2(q) for the same q")
    F = G.meta["field"]
    expected = psl2_variant(q)
    if variant != expected:
        raise ValueError(f"variant {variant!r} does not match q={q} (expected {expected!r})")
    minus1 = int(F.neg_table[1])

    exponent = None
    if variant == "char2":
        elem = int(matrix_index(G, (1, 1, 0, 1)))
        rep = frobenius_field_aut(G, i)
    elif variant == "q1mod4":
        xi = F.generator()
        if F.square_mask[xi]:
            raise TheoremViolationError(
                "generator of F_q^* is a square; diag(xi,1) would lie in PSL2"
            )
        rep = Automorphism(G, psl2_map(G, (xi, 0, 0, 1), i), provenance="composed")
        g = math.gcd(F.f, i)
        exponent = (F.f // g) * (F.p**g - 1) // 2
        elem = int(matrix_index(G, (minus1, 0, 0, 1)))
        # PGammaL2(q) acts faithfully on PSL2(q), so the power of (diag(xi, 1),
        # frob^i) is the class of diag(-1, 1) iff rep's power is conjugation by it
        power = everyone = np.arange(G.n)
        for _ in range(exponent):
            power = rep.images[power]
        if not np.array_equal(power, conjugations(G, [elem], everyone)[0]):
            raise TheoremViolationError(
                "the representative's power is not conjugation by the class of diag(-1,1)"
            )
        # cross-check against direct exponentiation of xi in the field
        if F.pow(xi, (q - 1) // 2) != minus1:
            raise TheoremViolationError("xi^((q-1)/2) != -1 in the field")
    else:  # q3mod4
        if F.square_mask[minus1]:
            raise TheoremViolationError(
                "[0 1; 1 0] lies in PSL2 although q = 3 mod 4; -1 should be a non-square"
            )
        rep = Automorphism(G, psl2_map(G, (0, 1, 1, 0), i), provenance="composed")
        elem = int(matrix_index(G, (0, 1, minus1, 0)))

    transcript = {
        "element_is_nontrivial": elem != 0,
        "element_order_2": G.mul(elem, elem) == 0,
        "rep_inverts_element": int(rep.images[elem]) == int(G.inv[elem]),
    }
    return Psl2Witness(
        group=G,
        q=q,
        i=i,
        variant=variant,
        element=elem,
        coset_rep=rep,
        exponent=exponent,
        transcript=transcript,
        verified=all(transcript.values()),
    )
