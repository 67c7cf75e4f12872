"""Exact arithmetic in GF(p^f) on a polynomial basis.

An element is its code, as a group element is its index: an integer in
0..q-1 standing for a coefficient vector over F_p reduced modulo a fixed
monic irreducible polynomial.  Every field here is tiny (q <= 32), so all
arithmetic is table-driven: ``FieldParams`` holds dense numpy tables for
addition, multiplication, negation and inversion, and a mask of the
squares, which the matrix-group builders index in bulk.  Beyond the tables
it offers three methods on codes: ``pow``, ``generator`` and ``label``.

Conventions:
  * an element with coefficients (c0, c1, ..., c_{f-1}) represents
    c0 + c1*t + ... + c_{f-1}*t^(f-1);
  * its code is the little-endian base-p integer c0 + c1*p + ... ;
  * elements are enumerated by ascending code, so 0, 1, ..., p-1, t, t+1, ...
    This order fixes every "smallest/first" tie-break downstream.

The tables are computed on the (q x f) array of every code's digits:
addition and negation digit by digit mod p; multiplication as
a*b = sum_k b_k (a t^k), where a t^(k+1) is a t^k shifted up one degree,
less its top coefficient times the modulus; the inverse of a is the position
of 1 in row a; the squares are the diagonal.  The modulus is the first monic
polynomial of degree f, in code order, whose product table has no zero
divisors.  That is the first irreducible one: a factor g of the modulus with
0 < deg g < f gives two nonzero residues whose product is 0, and a finite
commutative ring without zero divisors is a field.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import CapExceededError, FieldDomainError, GroupBuildError

MAX_FIELD_SIZE = 32


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division."""
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


def prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p^f with p prime, or raise GroupBuildError."""
    factors = prime_factors(q)
    if len(factors) != 1:
        raise GroupBuildError(f"{q} is not a prime power")
    p, f = factors[0], 1
    while p**f < q:
        f += 1
    return p, f


def _digits(p: int, f: int) -> np.ndarray:
    """The (p^f x f) coefficient digits of every code, in code order."""
    return np.arange(p**f)[:, None] // p ** np.arange(f) % p


def _encode_digits(digits: np.ndarray, p: int) -> np.ndarray:
    """Codes of digit arrays along the last axis, each digit reduced mod p,
    as int16, the dtype of every table."""
    return (digits % p @ p ** np.arange(digits.shape[-1])).astype(np.int16)


def _mul_table(digits: np.ndarray, modulus: tuple[int, ...], p: int) -> np.ndarray:
    """The product table modulo the monic ``modulus``, built as the module
    docstring describes."""
    q, f = digits.shape
    low = np.asarray(modulus[:f])
    shifted = digits  # a t^k for every a
    prod = np.zeros((q, q, f), dtype=np.int64)
    for k in range(f):
        prod += digits[None, :, k, None] * shifted[:, None, :]
        top = shifted[:, -1:]
        shifted = (np.pad(shifted[:, :-1], ((0, 0), (1, 0))) - top * low) % p
    return _encode_digits(prod, p)


def default_modulus(p: int, f: int) -> tuple[int, ...]:
    """The first monic polynomial of degree f, in ascending code order of its
    lower coefficients, whose product table has no zero divisors: the first
    irreducible one."""
    digits = _digits(p, f)
    for low in digits:
        modulus = tuple(int(c) for c in low) + (1,)
        if _mul_table(digits, modulus, p)[1:, 1:].all():
            return modulus
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldParams:
    """A concrete GF(p^f) with dense code-level operation tables.

    Immutable after construction; instances are shared freely.
    """

    def __init__(self, p: int, f: int):
        if prime_factors(p) != [p]:
            raise GroupBuildError(f"characteristic {p} is not prime")
        if f < 1:
            raise GroupBuildError(f"extension degree must be >= 1, got {f}")
        q = p**f
        if q > MAX_FIELD_SIZE:
            raise CapExceededError(f"field size {q} exceeds cap {MAX_FIELD_SIZE}")
        self.p = p
        self.f = f
        self.q = q
        self.modulus = default_modulus(p, f)
        self.digits = _digits(p, f)
        self.add_table = _encode_digits(self.digits[:, None] + self.digits, p)
        self.mul_table = _mul_table(self.digits, self.modulus, p)
        self.neg_table = _encode_digits(-self.digits, p)
        # inverse: the position of 1 in each row (code 0 has none and keeps 0, unused)
        self.inv_table = np.argmax(self.mul_table == 1, axis=1).astype(np.int16)
        self.square_mask = np.zeros(q, dtype=bool)
        self.square_mask[np.diagonal(self.mul_table)] = True

    def _check(self, c: int) -> None:
        if not 0 <= c < self.q:
            raise FieldDomainError(f"code {c} out of range for q={self.q}")

    def pow(self, c: int, e: int) -> int:
        """The code of c^e, by square-and-multiply; a negative e inverts c."""
        self._check(c)
        if e < 0:
            if c == 0:
                raise FieldDomainError("cannot invert zero")
            c, e = int(self.inv_table[c]), -e
        r = 1
        while e:
            if e & 1:
                r = int(self.mul_table[r, c])
            c = int(self.mul_table[c, c])
            e >>= 1
        return r

    def generator(self) -> int:
        """The least code of multiplicative order q-1.

        The order is certified by checking x^((q-1)/r) != 1 for every prime
        r dividing q-1.
        """
        n = self.q - 1
        rs = prime_factors(n)
        for c in range(1, self.q):
            if all(self.pow(c, n // r) != 1 for r in rs):
                return c
        raise AssertionError("no generator found")  # unreachable: F_q^* is cyclic

    def label(self, c: int) -> str:
        """The polynomial in t that code c stands for, highest degree first."""
        self._check(c)
        coeffs = self.digits[c].tolist()
        terms = []
        for i in range(self.f - 1, -1, -1):
            d = coeffs[i]
            if d == 0:
                continue
            if i == 0:
                terms.append(str(d))
            else:
                var = "t" if i == 1 else f"t^{i}"
                terms.append(var if d == 1 else f"{d}{var}")
        return "+".join(terms) if terms else "0"

    def __repr__(self):
        return f"FieldParams(p={self.p}, f={self.f}, q={self.q})"


@lru_cache(maxsize=None)
def field_for(q: int) -> FieldParams:
    """Shared FieldParams for a prime power q (default modulus)."""
    p, f = prime_power(q)
    return FieldParams(p, f)
