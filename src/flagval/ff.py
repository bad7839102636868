"""Arithmetic in finite fields of order at most 49.

Elements of the field with q = p**e elements are plain ints in range(q).
For prime q the int is the residue itself.  For prime powers the int
encodes base-p digits, n = sum(d[i] * p**i), read as the coefficient
vector of a polynomial in the canonical generator.  The canonical
modulus is the monic irreducible of degree e over F_p with the least
code sum(c_i * p**i), so two fields of the same order are literally
identical.

All arithmetic is exact table lookup, for prime and extension fields
alike: each field builds its add, sub, mul, neg and inverse tables once,
when it is first constructed, so no operation goes back to base-p
digits.  There is no floating point here.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from .errors import InvalidInput, UnsupportedField

MAX_ORDER = 49


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, as {prime: exponent}."""
    if n <= 0:
        raise InvalidInput(f"cannot factor {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power_decomposition(q: int) -> tuple[int, int]:
    """Return (p, e) with q == p**e, or raise InvalidInput."""
    f = factorize(q)
    if len(f) != 1:
        raise InvalidInput(f"{q} is not a prime power")
    ((p, e),) = f.items()
    return p, e


@lru_cache(maxsize=None)
def canonical_modulus(p: int, e: int) -> tuple[int, ...]:
    """Non-leading coefficients (c_0, ..., c_{e-1}) of the canonical modulus.

    The modulus is the monic irreducible of degree e over F_p with the
    least code sum(c_i * p**i), so the top coefficient compares first:
    the first of that degree that `poly.monic_irreducibles` lists.
    """
    from .poly import monic_irreducibles  # poly imports ff when it loads

    first = next(g for g in monic_irreducibles(p, "t", e) if g.degree() == e)
    return tuple(first.to_dense()[:-1])


def power(ring, a, n: int):
    """a^n by square and multiply in a field or residue ring with `one`,
    `mul` and `inv`.  A negative n inverts a first, so it needs a unit:
    `inv` raises ZeroDivisionError on zero.  0^0 = 1 and 0^n = 0."""
    if n < 0:
        a = ring.inv(a)
        n = -n
    out = ring.one
    while n:
        if n & 1:
            out = ring.mul(out, a)
        a = ring.mul(a, a)
        n >>= 1
    return out


class FiniteField:
    """The field with q elements, q a prime power at most 49.

    There is one instance per order: construction is cached, so
    FiniteField(9) is FiniteField(9) holds, and equality is identity.
    An order that is refused caches nothing.
    """

    _cache: dict[int, "FiniteField"] = {}

    def __new__(cls, q: int) -> "FiniteField":
        if not isinstance(q, int) or q < 2:
            raise InvalidInput(f"field order must be an int >= 2, got {q!r}")
        self = cls._cache.get(q)
        if self is None:
            if q > MAX_ORDER:
                raise UnsupportedField(f"order {q} exceeds the supported bound {MAX_ORDER}")
            p, e = prime_power_decomposition(q)
            self = super().__new__(cls)
            self.q, self.p, self.e = q, p, e
            self.modulus = canonical_modulus(p, e) if e > 1 else ()
            self._build_tables()
            cls._cache[q] = self  # only a finished field
        return self

    def _build_tables(self) -> None:
        # tables indexed [a][b]; an extension field adds digit vectors
        # and reduces their product by the modulus, once per pair b >= a
        p, q = self.p, self.q
        if self.e == 1:
            add = [[(a + b) % p for b in range(q)] for a in range(q)]
            mul = [[a * b % p for b in range(q)] for a in range(q)]
        else:
            from .poly import _dense_mul, _divrem  # poly imports ff when it loads

            Fp = FiniteField(p)
            mod = [*self.modulus, 1]
            weights = [p**i for i in range(self.e)]
            digits = [[n // w % p for w in weights if n >= w] for n in range(q)]  # trimmed
            add = [[0] * q for _ in range(q)]
            mul = [[0] * q for _ in range(q)]
            for a in range(q):
                for b in range(a, q):
                    add[a][b] = add[b][a] = sum((a // w + b // w) % p * w for w in weights)
                    prod = _divrem(Fp, _dense_mul(Fp, digits[a], digits[b]), mod)[1]
                    mul[a][b] = mul[b][a] = sum(map(operator.mul, prod, weights))
        neg = [row.index(0) for row in add]
        self._add = add
        self._mul = mul
        self._neg = neg
        self._sub = [[row[nb] for nb in neg] for row in add]
        self._inv = [0] + [mul[a].index(1) for a in range(1, q)]

    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise InvalidInput(f"{a!r} is not an element of F_{self.q}")
        return a

    def from_int(self, n: int) -> int:
        """Coerce an integer literal to a field element.

        Values already in range(q) are taken verbatim (digit codes for
        extension fields); anything else reduces into the prime subfield.
        """
        if 0 <= n < self.q:
            return n
        return n % self.p

    one = 1

    def elements(self) -> range:
        return range(self.q)

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.q}")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    pow = power

    def norm(self, a: int) -> int:
        """The norm from F_q to itself: the identity.  With `one`, it lets
        the field serve as the residue field of a degree-one place."""
        return a

    def __repr__(self) -> str:
        return f"FiniteField({self.q})"
