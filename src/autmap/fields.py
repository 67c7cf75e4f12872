"""Exact arithmetic in GF(p^f) on a polynomial basis.

Elements are coefficient vectors over F_p reduced modulo a fixed monic
irreducible polynomial.  Every field here is tiny (q <= 32), so all
arithmetic is table-driven: addition, multiplication, negation and inversion
are dense numpy tables over integer element *codes*, which the matrix-group
builders index in bulk.

Conventions:
  * an element with coefficients (c0, c1, ..., c_{f-1}) represents
    c0 + c1*t + ... + c_{f-1}*t^(f-1);
  * its code is the little-endian base-p integer c0 + c1*p + ... ;
  * elements are enumerated by ascending code, so 0, 1, ..., p-1, t, t+1, ...
    This order fixes every "smallest/first" tie-break downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FieldDomainError, GroupBuildError, UnsupportedQueryError

MAX_FIELD_SIZE = 32


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p^f with p prime, or raise GroupBuildError."""
    if q < 2:
        raise GroupBuildError(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if not is_prime(p):
            continue
        if q % p == 0:
            f = 0
            m = q
            while m % p == 0:
                m //= p
                f += 1
            if m == 1:
                return p, f
            raise GroupBuildError(f"{q} is not a prime power")
    raise GroupBuildError(f"{q} is not a prime power")


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# polynomial helpers (coefficient tuples over F_p, little-endian, no
# trailing-zero normalization beyond what the callers maintain)
# ---------------------------------------------------------------------------


def _poly_mod(num: list[int], den: tuple[int, ...], p: int) -> list[int]:
    """Remainder of num modulo the monic polynomial den, over F_p."""
    num = [c % p for c in num]
    dd = len(den) - 1
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            for j in range(dd + 1):
                num[k - dd + j] = (num[k - dd + j] - c * den[j]) % p
    return num[:dd]


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    if deg < 1 or poly[-1] != 1:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for code in range(p**d):
            div = _decode_coeffs(code, d, p) + (1,)
            if not any(_poly_mod(list(poly), div, p)):
                return False
    return True


def _decode_coeffs(code: int, length: int, p: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        out.append(code % p)
        code //= p
    return tuple(out)


def _encode_coeffs(coeffs, p: int) -> int:
    code = 0
    for c in reversed(list(coeffs)):
        code = code * p + int(c) % p
    return code


def default_modulus(p: int, f: int) -> tuple[int, ...]:
    """The first monic irreducible of degree f in ascending code order."""
    for code in range(p**f):
        poly = _decode_coeffs(code, f, p) + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise AssertionError("no irreducible polynomial found")  # unreachable


@dataclass(frozen=True)
class FieldElement:
    """An element of GF(p^f): exactly f coefficients, each reduced mod p."""

    coeffs: tuple[int, ...]


class FieldParams:
    """A concrete GF(p^f) with dense code-level operation tables.

    Immutable after construction; instances are shared freely.
    """

    def __init__(self, p: int, f: int):
        if not is_prime(p):
            raise GroupBuildError(f"characteristic {p} is not prime")
        if f < 1:
            raise GroupBuildError(f"extension degree must be >= 1, got {f}")
        q = p**f
        if q > MAX_FIELD_SIZE:
            raise GroupBuildError(f"field size {q} exceeds cap {MAX_FIELD_SIZE}")
        self.p = p
        self.f = f
        self.q = q
        self.modulus = default_modulus(p, f)
        self._build_tables()

    def _build_tables(self):
        p, f, q = self.p, self.f, self.q
        coeff_rows = np.array([_decode_coeffs(c, f, p) for c in range(q)], dtype=np.int64)
        self.add_table = np.zeros((q, q), dtype=np.int16)
        self.mul_table = np.zeros((q, q), dtype=np.int16)
        for a in range(q):
            for b in range(q):
                s = (coeff_rows[a] + coeff_rows[b]) % p
                self.add_table[a, b] = _encode_coeffs(s, p)
                prod = np.convolve(coeff_rows[a], coeff_rows[b]) % p
                rem = _poly_mod(list(int(c) for c in prod), self.modulus, p)
                self.mul_table[a, b] = _encode_coeffs(rem, p)
        self.neg_table = np.array(
            [_encode_coeffs((-coeff_rows[a]) % p, p) for a in range(q)], dtype=np.int16
        )
        # inverse: the unique partner with product 1 (code 0 left at 0, unused)
        self.inv_table = np.zeros(q, dtype=np.int16)
        for a in range(1, q):
            self.inv_table[a] = int(np.nonzero(self.mul_table[a] == 1)[0][0])
        if q % 2 == 1:
            sq = {int(self.mul_table[a, a]) for a in range(1, q)}
            self.square_mask = np.zeros(q, dtype=bool)
            self.square_mask[0] = True
            for c in sq:
                self.square_mask[c] = True
        else:
            self.square_mask = np.ones(q, dtype=bool)

    # -- element construction / enumeration --------------------------------

    def element(self, coeffs) -> FieldElement:
        c = tuple(int(x) % self.p for x in coeffs)
        if len(c) != self.f:
            raise FieldDomainError(f"expected {self.f} coefficients, got {len(c)}")
        return FieldElement(c)

    def scalar(self, k: int) -> FieldElement:
        return FieldElement((k % self.p,) + (0,) * (self.f - 1))

    @property
    def zero(self) -> FieldElement:
        return self.scalar(0)

    @property
    def one(self) -> FieldElement:
        return self.scalar(1)

    def elements(self) -> list[FieldElement]:
        return [self.from_code(c) for c in range(self.q)]

    def to_code(self, a: FieldElement) -> int:
        return _encode_coeffs(a.coeffs, self.p)

    def from_code(self, code: int) -> FieldElement:
        if not 0 <= code < self.q:
            raise FieldDomainError(f"code {code} out of range for q={self.q}")
        return FieldElement(_decode_coeffs(code, self.f, self.p))

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return self.from_code(int(self.add_table[self.to_code(a), self.to_code(b)]))

    def sub(self, a: FieldElement, b: FieldElement) -> FieldElement:
        nb = int(self.neg_table[self.to_code(b)])
        return self.from_code(int(self.add_table[self.to_code(a), nb]))

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return self.from_code(int(self.mul_table[self.to_code(a), self.to_code(b)]))

    def inv(self, a: FieldElement) -> FieldElement:
        c = self.to_code(a)
        if c == 0:
            raise FieldDomainError("cannot invert zero")
        return self.from_code(int(self.inv_table[c]))

    def pow(self, a: FieldElement, e: int) -> FieldElement:
        c = self.to_code(a)
        if e < 0:
            if c == 0:
                raise FieldDomainError("cannot invert zero")
            c = int(self.inv_table[c])
            e = -e
        return self.from_code(self._pow_code(c, e))

    def _pow_code(self, c: int, e: int) -> int:
        if c == 0:
            return 0 if e else 1
        r = 1
        base = c
        while e:
            if e & 1:
                r = int(self.mul_table[r, base])
            base = int(self.mul_table[base, base])
            e >>= 1
        return r

    def frobenius(self, a: FieldElement, i: int) -> FieldElement:
        """a^(p^i); i = f is the identity again."""
        if i < 0:
            raise FieldDomainError("frobenius power index must be >= 0")
        return self.pow(a, self.p ** (i % self.f))

    def is_square(self, a: FieldElement) -> bool:
        """True iff a = 0 or a^((q-1)/2) = 1.  Odd q only."""
        if self.q % 2 == 0:
            raise UnsupportedQueryError(
                "squareness is not a useful query in characteristic 2 "
                "(every element is a square)"
            )
        return bool(self.square_mask[self.to_code(a)])

    def generator(self) -> FieldElement:
        """Smallest element (in code order) of multiplicative order q-1.

        The order is certified by checking x^((q-1)/r) != 1 for every prime
        r dividing q-1.
        """
        n = self.q - 1
        rs = prime_factors(n)
        for c in range(1, self.q):
            if all(self._pow_code(c, n // r) != 1 for r in rs):
                return self.from_code(c)
        raise AssertionError("no generator found")  # unreachable: F_q^* is cyclic

    # -- display ------------------------------------------------------------

    def label(self, a: FieldElement) -> str:
        if self.f == 1:
            return str(a.coeffs[0])
        terms = []
        for i in range(self.f - 1, -1, -1):
            c = a.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "t" if i == 1 else f"t^{i}"
                terms.append(var if c == 1 else f"{c}{var}")
        return "+".join(terms) if terms else "0"

    def __repr__(self):
        return f"FieldParams(p={self.p}, f={self.f}, q={self.q})"


@lru_cache(maxsize=None)
def field_for(q: int) -> FieldParams:
    """Shared FieldParams for a prime power q (default modulus)."""
    p, f = prime_power(q)
    return FieldParams(p, f)
