"""Exact polynomials in one or two variables over a small finite field.

A Poly is an immutable finitely supported mapping from exponent tuples
to nonzero field elements.  Term order is graded lexicographic (total
degree first, then the exponent tuple), which is all the canonical
normalization below relies on.

Validation happens at the API edge only.  The public constructors
(`Poly(...)`, `parse`, `from_dense`, `constant`) check every
coefficient and exponent tuple.  Results of the ring operations and the
kernels below are built with `Poly._make`, which trusts its input: a
coefficient dict of in-range, nonzero field elements that the kernel
built itself through the field's op tables.  The hash is computed
lazily, on the first `hash()`, and `sort_key` is memoised per object.

Univariate arithmetic (product, division, gcd, multiplicity, factoring)
runs on dense coefficient lists, constant term first, through the
field's op tables, in one product, one division kernel and one
synthetic-division (Horner) helper.  `gcd_univariate`,
`divmod_univariate` and `factor_univariate` take dense lists, so a
caller that holds dense parts (a one-variable `RationalFn`) never
converts them; the factoring routes build Poly objects only for their
results, and `factor` is the one entry that takes a one-variable Poly.
Univariate factorization is complete and goes by roots first (see
`factor_univariate`); an input of degree d is refused with SizeBound
when q^(d//2) exceeds `FACTOR_CANDIDATE_CAP`, whether or not it has
roots.  Bivariate inputs keep the sparse grlex division; their
factorization is deliberately windowed to total degree <= 3, where
reducibility is equivalent to having a linear factor; larger elements
must arrive pre-factored.

This module owns the factorization caches, which hold immutable
(factor, multiplicity) pairs; `factor` hands each caller a fresh dict.
The bivariate cache, keyed by the Poly, holds at most
`FACTOR_CACHE_SIZE` (4,096) answers.  The univariate one is keyed by
(field, variable, dense tuple), so a Poly and the dense parts of a
`RationalFn` share its entries, and holds at most
`UNIVARIATE_CACHE_SIZE` (256), which already catches most repeats of
the small-field suites at a fraction of the memory.  Refusals
(SizeBound) are raised before the cache and never stored.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Sequence
from functools import lru_cache

from .errors import FactoringWindowExceeded, InvalidInput, SizeBound
from .ff import FiniteField


def _grlex(e: tuple[int, ...]) -> tuple:
    return (sum(e), e)


FACTOR_CACHE_SIZE = 4096  # bound of the bivariate factorization cache
UNIVARIATE_CACHE_SIZE = 256  # bound of the univariate factorization cache


class Poly:
    """Immutable polynomial over a FiniteField in named variables.

    `coeffs` maps exponent tuples to nonzero field elements.  The
    constructor validates every entry and drops zeros; `_make` is the
    trusted internal route for results built from table ops, which must
    already hold only nonzero in-range coefficients.  The hash is
    computed on the first `hash()` and `sort_key` on its first call.
    """

    __slots__ = ("field", "vars", "coeffs", "_hash", "_sort_key")

    def __init__(self, field: FiniteField, vars: tuple[str, ...], coeffs: dict) -> None:
        if not 1 <= len(vars) <= 2:
            raise InvalidInput("only 1 or 2 variables are supported")
        clean: dict[tuple[int, ...], int] = {}
        for exp, c in coeffs.items():
            exp = tuple(exp)
            if len(exp) != len(vars) or any(not isinstance(x, int) or x < 0 for x in exp):
                raise InvalidInput(f"bad exponent tuple {exp!r}")
            c = field.check(c)
            if c:
                clean[exp] = c
        _init(self, field, tuple(vars), clean)

    @classmethod
    def _make(cls, field: FiniteField, vars: tuple[str, ...], clean: dict) -> "Poly":
        """Trusted construction: clean holds only nonzero elements of field."""
        self = object.__new__(cls)
        _init(self, field, vars, clean)
        return self

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, field: FiniteField, vars: tuple[str, ...]) -> "Poly":
        return cls(field, vars, {})

    def _one(self) -> "Poly":
        return Poly._make(self.field, self.vars, {(0,) * len(self.vars): 1})

    @classmethod
    def constant(cls, field: FiniteField, vars: tuple[str, ...], c: int) -> "Poly":
        return cls(field, vars, {(0,) * len(vars): c})

    _FACTOR_RE = re.compile(r"(?:(\d+)|([A-Za-z]\w*)(?:\^(\d+))?)")

    @classmethod
    def parse(cls, field: FiniteField, text: str, vars: tuple[str, ...]) -> "Poly":
        """Parse `c*x^a*y^b` terms joined by `+` (a leading or joining `-`
        negates the following term).  Integer literals outside range(q)
        reduce into the prime subfield.  Every term must be nonempty:
        `+x`, `x++y`, `x+-y` and `x+` are refused, as is a sign with no
        term after it.
        """
        s = text.replace(" ", "")
        if not s:
            raise InvalidInput("empty polynomial text")
        terms = s.replace("-", "+-").split("+")
        if s.startswith("-"):
            terms = terms[1:]  # the empty term before a leading "-"
        coeffs: dict[tuple[int, ...], int] = {}
        for term in terms:
            if not term:
                raise InvalidInput(f"empty term in {text!r}")
            neg = term.startswith("-")
            if neg:
                term = term[1:]
            if not term:
                raise InvalidInput(f"dangling sign in {text!r}")
            c = 1
            exp = [0] * len(vars)
            for factor in term.split("*"):
                m = cls._FACTOR_RE.fullmatch(factor)
                if not m:
                    raise InvalidInput(f"bad factor {factor!r} in {text!r}")
                lit, name, power = m.groups()
                try:
                    n = int(lit or power or 1)
                except ValueError:  # more digits than int() accepts
                    raise InvalidInput(f"integer too long in {text[:40]!r}...") from None
                if lit is not None:
                    c = field.mul(c, field.from_int(n))
                else:
                    if name not in vars:
                        raise InvalidInput(f"unknown variable {name!r} in {text!r}")
                    exp[vars.index(name)] += n
            if neg:
                c = field.neg(c)
            key = tuple(exp)
            prev = coeffs.get(key, 0)
            coeffs[key] = field.add(prev, c)
        return cls(field, vars, coeffs)

    # -- presentation ------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for exp in sorted(self.coeffs, key=_grlex, reverse=True):
            c = self.coeffs[exp]
            pieces = []
            if c != 1 or all(e == 0 for e in exp):
                pieces.append(str(c))
            for v, e in zip(self.vars, exp):
                if e == 1:
                    pieces.append(v)
                elif e > 1:
                    pieces.append(f"{v}^{e}")
            parts.append("*".join(pieces))
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.field.q, self.vars, tuple(sorted(self.coeffs.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other: object) -> bool:
        # coeffs never hold zeros, so equal dicts mean equal polynomials
        return isinstance(other, Poly) and (
            self is other
            or (self.field.q == other.field.q and self.vars == other.vars and self.coeffs == other.coeffs)
        )

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- ring structure ----------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.field is not self.field or other.vars != self.vars:
                raise InvalidInput("mixed polynomial domains")
            return other
        if isinstance(other, int):
            c = self.field.from_int(other)
            return Poly._make(self.field, self.vars, {(0,) * len(self.vars): c} if c else {})
        return NotImplemented

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        add = self.field._add
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            v = add[out.get(exp, 0)][c]
            if v:
                out[exp] = v
            else:
                del out[exp]
        return Poly._make(self.field, self.vars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        neg = self.field._neg
        return Poly._make(self.field, self.vars, {e: neg[c] for e, c in self.coeffs.items()})

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        F = self.field
        add, mul = F._add, F._mul
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        other_items = other.coeffs.items()
        # exponent addition unrolled for the two supported arities
        if len(self.vars) == 1:
            for (a,), c1 in self.coeffs.items():
                m1 = mul[c1]
                for (b,), c2 in other_items:
                    e = (a + b,)
                    out[e] = add[get(e, 0)][m1[c2]]
        else:
            for (a1, a2), c1 in self.coeffs.items():
                m1 = mul[c1]
                for (b1, b2), c2 in other_items:
                    e = (a1 + b1, a2 + b2)
                    out[e] = add[get(e, 0)][m1[c2]]
        return Poly._make(F, self.vars, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise InvalidInput("negative power of a polynomial")
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return self._one() if out is None else out

    # -- structure queries -------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(map(sum, self.coeffs))

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.coeffs)

    def constant_value(self) -> int:
        if not self.is_constant():
            raise InvalidInput(f"{self} is not constant")
        return self.coeffs.get((0,) * len(self.vars), 0)

    def leading_exp(self) -> tuple[int, ...]:
        if not self.coeffs:
            raise InvalidInput("zero polynomial has no leading term")
        return max(self.coeffs, key=_grlex)

    def leading_coeff(self) -> int:
        return self.coeffs[self.leading_exp()]

    def make_canonical(self) -> tuple[int, "Poly"]:
        """Split off the leading coefficient: (unit, poly with lead 1)."""
        if not self.coeffs:
            raise InvalidInput("zero polynomial has no canonical form")
        u = self.leading_coeff()
        if u == 1:
            return 1, self
        F = self.field
        scale = F._mul[F._inv[u]]
        return u, Poly._make(F, self.vars, {e: scale[c] for e, c in self.coeffs.items()})

    def map_vars(self, new_vars: tuple[str, ...], where: dict[int, int]) -> "Poly":
        """Reinterpret over a new variable tuple; old index i lands at where[i]."""
        out: dict[tuple[int, ...], int] = {}
        for exp, c in self.coeffs.items():
            new = [0] * len(new_vars)
            for i, e in enumerate(exp):
                if e:
                    new[where[i]] = e
            key = tuple(new)
            if key in out:
                raise InvalidInput("variable collision in map_vars")
            out[key] = c
        return Poly(self.field, new_vars, out)

    def sort_key(self) -> tuple:
        """Canonical (degree, coefficient tuple) key for generator ordering."""
        key = self._sort_key
        if key is None:
            d = self.degree()
            exps = sorted(_exponents_upto(len(self.vars), max(d, 0)), key=_grlex)
            key = (d, tuple(self.coeffs.get(e, 0) for e in exps))
            object.__setattr__(self, "_sort_key", key)
        return key

    # -- univariate kernels ------------------------------------------

    def to_dense(self) -> list[int]:
        if len(self.vars) != 1:
            raise InvalidInput("dense form is univariate-only")
        coeffs = self.coeffs
        if not coeffs:
            return []
        out = [0] * (max(coeffs)[0] + 1)
        for (e,), c in coeffs.items():
            out[e] = c
        return out

    @classmethod
    def from_dense(cls, field: FiniteField, var: str, dense: list[int]) -> "Poly":
        return cls(field, (var,), {(i,): c for i, c in enumerate(dense) if c})


def _init(p: Poly, field: FiniteField, vars: tuple[str, ...], clean: dict) -> None:
    object.__setattr__(p, "field", field)
    object.__setattr__(p, "vars", vars)
    object.__setattr__(p, "coeffs", clean)
    object.__setattr__(p, "_hash", None)
    object.__setattr__(p, "_sort_key", None)


def _from_dense(F: FiniteField, var: str, dense: Sequence[int]) -> Poly:
    """Trusted from_dense for coefficient lists a kernel built from table ops."""
    return Poly._make(F, (var,), {(i,): c for i, c in enumerate(dense) if c})


def _exponents_upto(arity: int, d: int):
    if arity == 1:
        for a in range(d + 1):
            yield (a,)
    else:
        for a in range(d + 1):
            for b in range(d + 1 - a):
                yield (a, b)


def _divrem(F: FiniteField, a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of dense coefficient lists, constant term first.

    b must have a nonzero last entry; a is left unchanged.  Both results
    are trimmed, so [] is the zero polynomial.  All GF(q) work goes
    through the field's op tables.
    """
    db = len(b) - 1
    if len(a) <= db:
        return [], list(a)
    mul, sub = F._mul, F._sub
    lead_inv = F._inv[b[-1]]
    low = b[:db]
    r = list(a)
    quo = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = r[i]
        if c:
            c = mul[c][lead_inv]
            quo[i - db] = c
            mc = mul[c]
            k = i - db
            # r[i] cancels exactly; only positions below it change
            r[k:i] = [sub[x][mc[y]] for x, y in zip(r[k:i], low)]
    del r[db:]
    while r and not r[-1]:
        r.pop()
    return quo, r


def _dense_mul(F: FiniteField, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of dense coefficient lists, constant term first; nonzero
    trimmed inputs give a trimmed product."""
    add, mul = F._add, F._mul
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            mx = mul[x]
            for j, y in enumerate(b):
                if y:
                    prod[i + j] = add[prod[i + j]][mx[y]]
    return prod


def divmod_univariate(F: FiniteField, a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of dense coefficient lists, constant term
    first; b must be trimmed and nonzero, and both results are trimmed."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    return _divrem(F, a, b)


def gcd_univariate(F: FiniteField, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Monic gcd of trimmed dense coefficient lists; gcd(0, 0) = []."""
    while b:
        a, b = b, _divrem(F, a, b)[1]
    if a and a[-1] != 1:
        inv = F._mul[F._inv[a[-1]]]
        return [inv[c] for c in a]
    return list(a)


def divide_exact(f: Poly, g: Poly) -> Poly | None:
    """Exact quotient f/g, or None when g does not divide f.

    Single-divisor graded-lex division: sound because the leading term
    of a product is the product of leading terms.  This sparse route
    serves bivariate inputs.
    """
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    F = f.field
    mul, sub = F._mul, F._sub
    rem = dict(f.coeffs)
    get = rem.get
    out: dict[tuple[int, ...], int] = {}
    ge = g.leading_exp()
    to_quo = mul[F._inv[g.coeffs[ge]]]
    g_items = list(g.coeffs.items())
    while rem:
        re = max(rem, key=_grlex)
        diff = tuple(a - b for a, b in zip(re, ge))
        if min(diff) < 0:
            return None
        # the leading monomial falls at every step, so each diff is new
        c = to_quo[rem[re]]
        out[diff] = c
        mc = mul[c]
        for e2, c2 in g_items:
            e = tuple(map(operator.add, diff, e2))
            v = sub[get(e, 0)][mc[c2]]
            if v:
                rem[e] = v
            else:
                del rem[e]
    return Poly._make(F, f.vars, out)


def _root_multiplicity(F: FiniteField, a: list[int], root: int) -> tuple[int, list[int], int]:
    """(k, b, c): (t - root)^k exactly divides the nonzero dense list a,
    b is the cofactor a / (t - root)^k as a dense list (a itself when
    k = 0), and c = b(root) != 0.

    Synthetic division (Horner) from the leading coefficient down: the
    running values are the quotient's coefficients and the last one is
    the remainder a(root), so no inverse is taken.
    """
    add = F._add
    at = F._mul[root]
    k = 0
    while True:
        acc = 0
        quo = []
        for c in reversed(a):
            acc = add[c][at[acc]]
            quo.append(acc)
        if acc:
            return k, a, acc
        quo.pop()
        quo.reverse()
        a = quo
        k += 1


def _multiplicity_dense(F: FiniteField, a: list[int], b: Sequence[int]) -> tuple[int, list[int], list[int]]:
    """(k, c, r) on dense lists: b**k exactly divides a, c = a / b**k, and
    r = c mod b is the last, nonzero remainder of the division pass."""
    k = 0
    while True:
        q, r = _divrem(F, a, b)
        if r:
            return k, a, r
        a = q
        k += 1


def multiplicity(f: Poly, g: Poly) -> tuple[int, Poly]:
    """Largest k with g**k dividing f, plus the cofactor f / g**k."""
    if not f:
        raise InvalidInput("zero polynomial has no multiplicity")
    if g.degree() < 1:
        raise InvalidInput("multiplicity needs a nonconstant divisor")
    if len(f.vars) == 1:
        k, a, _ = _multiplicity_dense(f.field, f.to_dense(), g.to_dense())
        return k, (_from_dense(f.field, f.vars[0], a) if k else f)
    k = 0
    while True:
        nxt = divide_exact(f, g)
        if nxt is None:
            return k, f
        f = nxt
        k += 1


# -- irreducible enumeration and factorization -----------------------


@lru_cache(maxsize=None)
def _split_quadratics(q: int) -> dict[tuple[int, int], tuple[int, int]]:
    """(c1*c2, c1 + c2) -> (c1, c2) for every pair of codes c1 <= c2.

    (t + c1)(t + c2) has the dense list [c1*c2, c1 + c2, 1], so a monic
    quadratic [a0, a1, 1] splits exactly when (a0, a1) is a key, and the
    value names its linear factors in code order.  q(q+1)/2 entries, in
    every characteristic, with no discriminant or square root.
    """
    F = FiniteField(q)
    add, mul = F._add, F._mul
    return {(mul[c1][c2], add[c1][c2]): (c1, c2) for c1 in range(q) for c2 in range(c1, q)}


@lru_cache(maxsize=None)
def monic_irreducibles(q: int, var: str, max_deg: int) -> tuple[Poly, ...]:
    """All monic irreducibles of degree 1..max_deg, in (degree, code)
    order, where the code of t^d + sum(c_i t^i) is sum(c_i * q**i).

    A quadratic is irreducible exactly when `_split_quadratics` lacks
    it; a cubic when Horner finds no root at any field element; from
    degree 4 on a candidate is trial-divided by the irreducibles up to
    half its degree.
    """
    F = FiniteField(q)
    split = _split_quadratics(q)
    found: list[Poly] = []
    for d in range(1, max_deg + 1):
        lower = [g for g in found if g.degree() <= d // 2]
        for code in range(q**d):
            dense = []
            n = code
            for _ in range(d):
                dense.append(n % q)
                n //= q
            dense.append(1)
            if d == 1:
                irreducible = True
            elif d == 2:
                irreducible = (dense[0], dense[1]) not in split
            elif d == 3:
                irreducible = not any(_root_multiplicity(F, dense, r)[0] for r in range(q))
            else:
                irreducible = all(divmod_univariate(F, dense, g.to_dense())[1] for g in lower)
            if irreducible:
                found.append(_from_dense(F, var, dense))
    return tuple(found)


# a root-free cofactor of degree d >= 4 is trial-divided by about
# q^(d//2) enumerated candidates; the cap bounds that count at the
# input's degree, so degree 8 over GF(49), which could need 5.8M
# quartics, is refused before any work
FACTOR_CANDIDATE_CAP = 10_000


def factor_univariate(F: FiniteField, var: str, a: tuple[int, ...]) -> tuple[int, tuple[tuple[Poly, int], ...]]:
    """Complete factorization of the nonzero trimmed dense tuple a in
    `var`, as the cached (unit, ((monic irreducible, multiplicity), ...)).

    Linear factors come from the roots, found by Horner at each field
    element down to a quadratic cofactor, which one table lookup splits
    or proves irreducible; a root-free cubic is irreducible, and a
    root-free cofactor of degree >= 4 is trial-divided by the monic
    irreducibles of degree 2 up to half its degree.  The factors are
    listed in the order of monic_irreducibles (degree, then code), with
    a leftover irreducible last.  Raises SizeBound when
    q^(deg a // 2) exceeds FACTOR_CANDIDATE_CAP (10,000), the candidate
    divisors trial division could need (degree 6 and up over GF(49)).
    """
    _refuse_past_cap(F.q, len(a) - 1)
    return _factor_univariate_cached(F, var, a)


def _refuse_past_cap(q: int, d: int) -> None:
    # q >= 2, so q^k > FACTOR_CANDIDATE_CAP once k reaches its bit length;
    # clamping k keeps the power small for huge degrees
    if q ** min(d // 2, FACTOR_CANDIDATE_CAP.bit_length()) > FACTOR_CANDIDATE_CAP:
        raise SizeBound(
            f"factoring degree {d} over GF({q}) could need {q}^{d // 2} candidate divisors; "
            f"the cap is {FACTOR_CANDIDATE_CAP}"
        )


@lru_cache(maxsize=UNIVARIATE_CACHE_SIZE)
def _factor_univariate_cached(F: FiniteField, var: str, a: tuple[int, ...]) -> tuple[int, tuple[tuple[Poly, int], ...]]:
    # the route factor_univariate describes; t + c divides a exactly
    # when -c is a root, so Horner at each -c strips linear factors in
    # code order, and the roots a quadratic lookup finds come after them
    unit = a[-1]
    scale = F._mul[F._inv[unit]]
    a = [scale[c] for c in a]
    q = F.q
    linear = monic_irreducibles(q, var, 1)
    out: dict[Poly, int] = {}
    neg = F._neg
    for c in range(q):
        if len(a) < 4:  # degree <= 2: the lookup below, or the leftover, or done
            break
        k, a, _ = _root_multiplicity(F, a, neg[c])
        if k:
            out[linear[c]] = k
    if len(a) == 3:
        roots = _split_quadratics(q).get((a[0], a[1]))
        if roots is not None:
            for c in roots:  # c1 <= c2; one factor of multiplicity 2 when equal
                out[linear[c]] = out.get(linear[c], 0) + 1
            a = [1]
    elif len(a) > 4:  # root-free and of degree >= 4
        for g in monic_irreducibles(q, var, (len(a) - 1) // 2)[q:]:
            b = g.to_dense()
            if len(a) < 2 * len(b) - 1:  # deg a < 2 deg g
                break
            k, a, _ = _multiplicity_dense(F, a, b)
            if k:
                out[g] = k
    if len(a) > 1:
        out[_from_dense(F, var, a)] = 1
    return unit, tuple(out.items())


@lru_cache(maxsize=None)
def linear_canonicals(q: int, vars: tuple[str, ...]) -> tuple[Poly, ...]:
    """All canonical (leading coefficient 1) bivariate linear polynomials."""
    F = FiniteField(q)
    out = []
    for b in F.elements():
        for c in F.elements():
            out.append(Poly(F, vars, {(1, 0): 1, (0, 1): b, (0, 0): c}))
    for c in F.elements():
        out.append(Poly(F, vars, {(0, 1): 1, (0, 0): c}))
    return tuple(out)


def factor_bivariate(f: Poly) -> tuple[int, dict[Poly, int]]:
    """Factor a bivariate polynomial of total degree <= 3.

    In this window reducibility is equivalent to having a linear factor,
    so trial division against the canonical linear list is complete.
    Answers come from a bounded per-input cache; each call gets its own
    dict, which the caller may change.
    """
    if not f:
        raise InvalidInput("cannot factor the zero polynomial")
    if f.degree() > 3:
        raise FactoringWindowExceeded(
            f"total degree {f.degree()} exceeds the bivariate window (3); "
            "supply the element in factored form"
        )
    unit, parts = _factor_bivariate_cached(f)
    return unit, dict(parts)


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _factor_bivariate_cached(f: Poly) -> tuple[int, tuple[tuple[Poly, int], ...]]:
    # the answer as immutable (factor, multiplicity) pairs, in factor order
    unit, f = f.make_canonical()
    out: dict[Poly, int] = {}
    for g in linear_canonicals(f.field.q, f.vars):
        if f.degree() < 1:
            break
        k, f = multiplicity(f, g)
        if k:
            out[g] = k
    if f.degree() >= 1:
        # no linear factor and degree <= 3: irreducible
        out[f] = out.get(f, 0) + 1
    return unit, tuple(out.items())


def factor(f: Poly) -> tuple[int, dict[Poly, int]]:
    """(unit, {irreducible: multiplicity}) of a nonzero Poly in a fresh
    dict; in one variable refused past the cap before any dense list."""
    if len(f.vars) != 1:
        return factor_bivariate(f)
    if not f:
        raise InvalidInput("cannot factor the zero polynomial")
    _refuse_past_cap(f.field.q, max(f.coeffs)[0])
    unit, parts = factor_univariate(f.field, f.vars[0], tuple(f.to_dense()))
    return unit, dict(parts)


def is_irreducible(f: Poly) -> bool:
    """Irreducibility over the coefficient field (bivariate: window <= 3)."""
    if f.degree() < 1:
        return False
    _, parts = factor(f)
    return len(parts) == 1 and next(iter(parts.values())) == 1


@lru_cache(maxsize=None)
def irreducible_canonicals_bivariate(q: int, vars: tuple[str, ...], max_deg: int) -> tuple[Poly, ...]:
    """Canonical irreducible bivariate polynomials of total degree <= max_deg.

    Enumeration window: max_deg <= 2 (quadratics are checked by linear
    trial division; the list is used as an arena generator table).
    """
    if max_deg > 2:
        raise FactoringWindowExceeded("generator enumeration is bounded by degree 2")
    F = FiniteField(q)
    out = list(linear_canonicals(q, vars))
    if max_deg == 2:
        lead_choices = [(2, 0), (1, 1), (0, 2)]
        exps = [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]
        for lead in lead_choices:
            tail = exps[exps.index(lead) + 1 :]
            for code in range(q ** len(tail)):
                coeffs = {lead: 1}
                n = code
                for e in tail:
                    coeffs[e] = n % q
                    n //= q
                f = Poly(F, vars, coeffs)
                if all(divide_exact(f, g) is None for g in linear_canonicals(q, vars)):
                    out.append(f)
    return tuple(sorted(out, key=Poly.sort_key))
