"""Exact polynomials in one or two variables over a small finite field.

A Poly is an immutable finitely supported mapping from exponent tuples
to nonzero field elements.  Term order is graded lexicographic (total
degree first, then the exponent tuple), which is all the canonical
normalization below relies on.

Univariate arithmetic (division, gcd, multiplicity, factoring) runs on
dense coefficient lists through the field's op tables, in one division
kernel, and builds Poly objects only for its results.  Univariate
factorization is complete: trial division of the dense list against the
enumerated monic irreducibles.  Bivariate inputs keep the sparse grlex
division; their factorization is deliberately windowed to total degree
<= 3, where reducibility is equivalent to having a linear factor; larger
elements must arrive pre-factored.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from functools import lru_cache

from .errors import FactoringWindowExceeded, InvalidInput
from .ff import FiniteField


def _grlex(e: tuple[int, ...]) -> tuple:
    return (sum(e), e)


class Poly:
    """Immutable polynomial over a FiniteField in named variables."""

    __slots__ = ("field", "vars", "coeffs", "_key")

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
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "vars", tuple(vars))
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "_key", (field.q, self.vars, tuple(sorted(clean.items()))))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, field: FiniteField, vars: tuple[str, ...]) -> "Poly":
        return cls(field, vars, {})

    @classmethod
    def constant(cls, field: FiniteField, vars: tuple[str, ...], c: int) -> "Poly":
        return cls(field, vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, field: FiniteField, vars: tuple[str, ...], name: str) -> "Poly":
        i = vars.index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(field, vars, {exp: 1})

    _FACTOR_RE = re.compile(r"^(?:(\d+)|([A-Za-z]\w*)(?:\^(\d+))?)$")

    @classmethod
    def parse(cls, field: FiniteField, text: str, vars: tuple[str, ...]) -> "Poly":
        """Parse `c*x^a*y^b` terms joined by `+` (a leading or joining `-`
        negates the following term).  Integer literals outside range(q)
        reduce into the prime subfield.
        """
        s = text.replace(" ", "")
        if not s:
            raise InvalidInput("empty polynomial text")
        s = s.replace("-", "+-")
        coeffs: dict[tuple[int, ...], int] = {}
        for term in s.split("+"):
            if not term:
                continue
            neg = term.startswith("-")
            if neg:
                term = term[1:]
            if not term:
                raise InvalidInput(f"dangling sign in {text!r}")
            c = 1
            exp = [0] * len(vars)
            for factor in term.split("*"):
                m = cls._FACTOR_RE.match(factor)
                if not m:
                    raise InvalidInput(f"bad factor {factor!r} in {text!r}")
                lit, name, power = m.groups()
                if lit is not None:
                    c = field.mul(c, field.from_int(int(lit)))
                else:
                    if name not in vars:
                        raise InvalidInput(f"unknown variable {name!r} in {text!r}")
                    exp[vars.index(name)] += int(power) if power else 1
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
        return hash(self._key)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self._key == other._key

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- ring structure ----------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.field is not self.field or other.vars != self.vars:
                raise InvalidInput("mixed polynomial domains")
            return other
        if isinstance(other, int):
            return Poly.constant(self.field, self.vars, self.field.from_int(other))
        return NotImplemented

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        F = self.field
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = F.add(out.get(exp, 0), c)
        return Poly(F, self.vars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        F = self.field
        return Poly(F, self.vars, {e: F.neg(c) for e, c in self.coeffs.items()})

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
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = F.add(out.get(e, 0), F.mul(c1, c2))
        return Poly(F, self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise InvalidInput("negative power of a polynomial")
        out = Poly.constant(self.field, self.vars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure queries -------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(sum(e) for e in self.coeffs)

    def deg_in(self, i: int) -> int:
        if not self.coeffs:
            return -1
        return max(e[i] for e in self.coeffs)

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
        inv = F.inv(u)
        return u, Poly(F, self.vars, {e: F.mul(c, inv) for e, c in self.coeffs.items()})

    def evaluate(self, point: tuple[int, ...]) -> int:
        F = self.field
        if len(point) != len(self.vars):
            raise InvalidInput("wrong number of coordinates")
        total = 0
        for exp, c in self.coeffs.items():
            v = c
            for x, e in zip(point, exp):
                if e:
                    v = F.mul(v, F.pow(x, e))
            total = F.add(total, v)
        return total

    def substitute(self, images: dict[str, "Poly"]) -> "Poly":
        """Replace each variable by a polynomial (all images share one domain)."""
        some = next(iter(images.values()))
        out = Poly.zero(some.field, some.vars)
        for exp, c in self.coeffs.items():
            term = Poly.constant(some.field, some.vars, c)
            for v, e in zip(self.vars, exp):
                if e:
                    term = term * (images[v] ** e)
            out = out + term
        return out

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
        d = self.degree()
        exps = sorted(
            (e for e in _exponents_upto(len(self.vars), max(d, 0))), key=_grlex
        )
        return (d, tuple(self.coeffs.get(e, 0) for e in exps))

    # -- univariate kernels ------------------------------------------

    def to_dense(self) -> list[int]:
        if len(self.vars) != 1:
            raise InvalidInput("dense form is univariate-only")
        d = self.degree()
        out = [0] * (d + 1 if d >= 0 else 0)
        for (e,), c in self.coeffs.items():
            out[e] = c
        return out

    @classmethod
    def from_dense(cls, field: FiniteField, var: str, dense: list[int]) -> "Poly":
        return cls(field, (var,), {(i,): c for i, c in enumerate(dense) if c})


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


def divmod_univariate(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of univariate polynomials, g nonzero."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    F = f.field
    var = f.vars[0]
    q, r = _divrem(F, f.to_dense(), g.to_dense())
    return Poly.from_dense(F, var, q), Poly.from_dense(F, var, r)


def gcd_univariate(f: Poly, g: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0."""
    F = f.field
    a, b = f.to_dense(), g.to_dense()
    while b:
        a, b = b, _divrem(F, a, b)[1]
    if a:
        inv = F._mul[F._inv[a[-1]]]
        a = [inv[c] for c in a]
    return Poly.from_dense(F, f.vars[0], a)


def divide_exact(f: Poly, g: Poly) -> Poly | None:
    """Exact quotient f/g, or None when g does not divide f.

    Single-divisor graded-lex division: sound because the leading term
    of a product is the product of leading terms.  This sparse route
    serves bivariate inputs.
    """
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    F = f.field
    rem = dict(f.coeffs)
    out: dict[tuple[int, ...], int] = {}
    ge = g.leading_exp()
    gc_inv = F.inv(g.leading_coeff())
    while rem:
        re = max(rem, key=_grlex)
        diff = tuple(a - b for a, b in zip(re, ge))
        if any(d < 0 for d in diff):
            return None
        c = F.mul(rem[re], gc_inv)
        out[diff] = F.add(out.get(diff, 0), c)
        for e2, c2 in g.coeffs.items():
            e = tuple(a + b for a, b in zip(diff, e2))
            v = F.sub(rem.get(e, 0), F.mul(c, c2))
            if v:
                rem[e] = v
            else:
                rem.pop(e, None)
    return Poly(F, f.vars, out)


def _multiplicity_dense(F: FiniteField, a: list[int], b: Sequence[int]) -> tuple[int, list[int]]:
    """Largest k with b**k dividing a, plus the quotient, on dense lists."""
    k = 0
    while True:
        q, r = _divrem(F, a, b)
        if r:
            return k, a
        a = q
        k += 1


def multiplicity(f: Poly, g: Poly) -> tuple[int, Poly]:
    """Largest k with g**k dividing f, plus the cofactor f / g**k."""
    if not f:
        raise InvalidInput("zero polynomial has no multiplicity")
    if g.degree() < 1:
        raise InvalidInput("multiplicity needs a nonconstant divisor")
    if len(f.vars) == 1:
        k, a = _multiplicity_dense(f.field, f.to_dense(), g.to_dense())
        return k, (Poly.from_dense(f.field, f.vars[0], a) if k else f)
    k = 0
    while True:
        nxt = divide_exact(f, g)
        if nxt is None:
            return k, f
        f = nxt
        k += 1


# -- irreducible enumeration and factorization -----------------------


@lru_cache(maxsize=None)
def monic_irreducibles(q: int, var: str, max_deg: int) -> tuple[Poly, ...]:
    """All monic irreducibles of degree 1..max_deg, in (degree, lex) order."""
    F = FiniteField(q)
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
            f = Poly.from_dense(F, var, dense)
            if all(divmod_univariate(f, g)[1] for g in lower):
                found.append(f)
    return tuple(found)


@lru_cache(maxsize=None)
def _dense_irreducibles(q: int, var: str, max_deg: int) -> tuple[tuple[Poly, tuple[int, ...]], ...]:
    """monic_irreducibles paired with their dense coefficient tuples."""
    return tuple((g, tuple(g.to_dense())) for g in monic_irreducibles(q, var, max_deg))


def factor_univariate(f: Poly) -> tuple[int, dict[Poly, int]]:
    """Complete factorization (unit, {monic irreducible: multiplicity})."""
    if not f:
        raise InvalidInput("cannot factor the zero polynomial")
    unit, f = f.make_canonical()
    F = f.field
    var = f.vars[0]
    a = f.to_dense()
    d = len(a) - 1
    out: dict[Poly, int] = {}
    for g, b in _dense_irreducibles(F.q, var, max(d // 2, 1) if d else 0):
        if len(a) < 2 * len(b) - 1:  # deg a < 2 deg g
            break
        k, a = _multiplicity_dense(F, a, b)
        if k:
            out[g] = k
    if len(a) > 1:
        rest = f if len(a) == d + 1 else Poly.from_dense(F, var, a)
        out[rest] = out.get(rest, 0) + 1
    return unit, out


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
    """
    if not f:
        raise InvalidInput("cannot factor the zero polynomial")
    if f.degree() > 3:
        raise FactoringWindowExceeded(
            f"total degree {f.degree()} exceeds the bivariate window (3); "
            "supply the element in factored form"
        )
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
    return unit, out


def factor(f: Poly) -> tuple[int, dict[Poly, int]]:
    if len(f.vars) == 1:
        return factor_univariate(f)
    return factor_bivariate(f)


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
