"""Arithmetic in finite fields of order at most 49.

Elements of the field with q = p**e elements are plain ints in range(q).
For prime q the int is the residue itself.  For prime powers the int
encodes base-p digits, n = sum(d[i] * p**i), read as the coefficient
vector of a polynomial in the canonical generator.  The canonical
modulus is the lexicographically least monic irreducible of degree e
over F_p, so two fields of the same order are literally identical.

All arithmetic is exact table lookup, for prime and extension fields
alike: each field builds its add, sub, mul, neg and inverse tables once,
when it is first constructed, so no operation goes back to base-p
digits.  There is no floating point here.
"""

from __future__ import annotations

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


def _fp_poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    # a, b, mod: dense coefficient lists over F_p, mod monic.
    deg_m = len(mod) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, deg_m - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(deg_m):
                prod[i - deg_m + j] = (prod[i - deg_m + j] - c * mod[j]) % p
    out = prod[:deg_m]
    while len(out) < deg_m:
        out.append(0)
    return out


def _fp_poly_is_irreducible(coeffs: list[int], p: int) -> bool:
    """Trial division of a monic polynomial by every monic of degree <= deg//2."""
    deg = len(coeffs) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    if coeffs[0] == 0:
        return False
    for d in range(1, deg // 2 + 1):
        for code in range(p**d):
            div = [0] * (d + 1)
            n = code
            for i in range(d):
                div[i] = n % p
                n //= p
            div[d] = 1
            rem = list(coeffs)
            for i in range(deg, d - 1, -1):
                c = rem[i]
                if c:
                    rem[i] = 0
                    for j in range(d):
                        rem[i - d + j] = (rem[i - d + j] - c * div[j]) % p
            if not any(rem):
                return False
    return True


@lru_cache(maxsize=None)
def canonical_modulus(p: int, e: int) -> tuple[int, ...]:
    """Non-leading coefficients (c_0, ..., c_{e-1}) of the canonical modulus.

    The modulus is the lexicographically least monic irreducible of
    degree e over F_p, ordering candidates by their coefficient tuple.
    """
    for code in range(p**e):
        c = []
        n = code
        for _ in range(e):
            c.append(n % p)
            n //= p
        if _fp_poly_is_irreducible(c + [1], p):
            return tuple(c)
    raise InvalidInput(f"no irreducible of degree {e} over F_{p}")


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

    Instances of the same order share their tables; construction is
    cached, so FiniteField(9) is FiniteField(9) holds.
    """

    _cache: dict[int, "FiniteField"] = {}

    def __new__(cls, q: int) -> "FiniteField":
        if q in cls._cache:
            return cls._cache[q]
        self = super().__new__(cls)
        cls._cache[q] = self
        return self

    def __init__(self, q: int) -> None:
        if getattr(self, "q", None) == q:
            return
        if not isinstance(q, int) or q < 2:
            raise InvalidInput(f"field order must be an int >= 2, got {q!r}")
        if q > MAX_ORDER:
            raise UnsupportedField(f"order {q} exceeds the supported bound {MAX_ORDER}")
        p, e = prime_power_decomposition(q)
        self.q = q
        self.p = p
        self.e = e
        self.modulus = canonical_modulus(p, e) if e > 1 else ()
        self._build_tables()

    def _build_tables(self) -> None:
        # tables indexed [a][b], built from the digit form; for e == 1
        # the modulus is t and every element is a constant
        p, q = self.p, self.q
        mod = list(canonical_modulus(p, self.e)) + [1]
        digits = [self._digits(n) for n in range(q)]
        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            da = digits[a]
            for b in range(a, q):
                db = digits[b]
                s = self._undigits([(x + y) % p for x, y in zip(da, db)])
                add[a][b] = add[b][a] = s
                m = self._undigits(_fp_poly_mulmod(da, db, mod, p))
                mul[a][b] = mul[b][a] = m
        neg = [row.index(0) for row in add]
        self._add = add
        self._mul = mul
        self._neg = neg
        self._sub = [[row[nb] for nb in neg] for row in add]
        self._inv = [0] + [mul[a].index(1) for a in range(1, q)]

    def _digits(self, n: int) -> list[int]:
        out = []
        for _ in range(self.e):
            out.append(n % self.p)
            n //= self.p
        return out

    def _undigits(self, d: list[int]) -> int:
        n = 0
        for c in reversed(d):
            n = n * self.p + c
        return n

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

    def __hash__(self) -> int:
        return hash(("FiniteField", self.q))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteField) and other.q == self.q
