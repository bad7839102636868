"""Rational functions and their divisor form over F_q(t) or F_q(x,y).

DivisorRep models the free abelian group K*/k* on canonical irreducible
generators (plus the formal symbol "inf" in one variable), with the
scalar unit retained so K* itself is recoverable.  Conversion in both
directions is exact; the bivariate direction is subject to the degree-3
factoring window of the poly layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fqlin
from .errors import InvalidInput
from .ff import FiniteField
from .poly import Poly, divmod_univariate, factor, gcd_univariate

INF = "inf"
_RESERVED_NAMES = (INF, "unit")


class RationalFn:
    """Quotient of two polynomials, denominator nonzero.

    Canonical form: common factors cancelled (always in one variable;
    in two variables only when both parts fit the factoring window) and
    the denominator's leading coefficient moved into the numerator.
    """

    __slots__ = ("num", "den")
    __hash__ = None  # equality is cross-multiplication; no canonical hash

    def __init__(self, num: Poly, den: Poly) -> None:
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num.field is not den.field or num.vars != den.vars:
            raise InvalidInput("numerator and denominator domains differ")
        if any(v in _RESERVED_NAMES for v in num.vars):
            raise InvalidInput(f"variable names {_RESERVED_NAMES} are reserved")
        F = num.field
        if num:
            if len(num.vars) == 1:
                g = gcd_univariate(num, den)
                if g.degree() > 0:
                    num = divmod_univariate(num, g)[0]
                    den = divmod_univariate(den, g)[0]
            else:
                if num.degree() <= 3 and den.degree() <= 3:
                    nu, nparts = factor(num)
                    du, dparts = factor(den)
                    for p in list(nparts):
                        if p in dparts:
                            k = min(nparts[p], dparts[p])
                            nparts[p] -= k
                            dparts[p] -= k
                    # nu and du are the nonzero units factor split off
                    num = Poly._make(F, num.vars, {(0, 0): nu})
                    for p, k in nparts.items():
                        if k:
                            num = num * p**k
                    den = Poly._make(F, den.vars, {(0, 0): du})
                    for p, k in dparts.items():
                        if k:
                            den = den * p**k
        lc = den.leading_coeff()
        if lc != 1:
            inv = F.inv(lc)
            num = num * inv
            den = den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("RationalFn is immutable")

    @property
    def field(self) -> FiniteField:
        return self.num.field

    @property
    def vars(self) -> tuple[str, ...]:
        return self.num.vars

    @classmethod
    def from_poly(cls, p: Poly) -> "RationalFn":
        return cls(p, p._one())

    @classmethod
    def constant(cls, field: FiniteField, vars: tuple[str, ...], c: int) -> "RationalFn":
        return cls.from_poly(Poly.constant(field, vars, c))

    @classmethod
    def parse(cls, field: FiniteField, text: str, vars: tuple[str, ...]) -> "RationalFn":
        """`num/den` with both sides in the polynomial grammar (no parens)."""
        if text.count("/") > 1:
            raise InvalidInput(f"at most one '/' allowed: {text!r}")
        if "/" in text:
            n, d = text.split("/")
            return cls(Poly.parse(field, n, vars), Poly.parse(field, d, vars))
        return cls.from_poly(Poly.parse(field, text, vars))

    def __str__(self) -> str:
        if self.den.is_constant() and self.den.constant_value() == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RationalFn({self})"

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def _coerce(self, other) -> "RationalFn":
        if isinstance(other, RationalFn):
            return other
        if isinstance(other, Poly):
            return RationalFn.from_poly(other)
        if isinstance(other, int):
            return RationalFn.constant(self.field, self.vars, self.field.from_int(other))
        return NotImplemented

    def __add__(self, other) -> "RationalFn":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RationalFn(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFn":
        return RationalFn(-self.num, self.den)

    def __sub__(self, other) -> "RationalFn":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "RationalFn":
        return (-self) + other

    def __mul__(self, other) -> "RationalFn":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RationalFn(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFn":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> "RationalFn":
        return self.inverse() * other

    def inverse(self) -> "RationalFn":
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        return RationalFn(self.den, self.num)

    def __pow__(self, n: int) -> "RationalFn":
        if n < 0:
            return self.inverse() ** (-n)
        return RationalFn(self.num**n, self.den**n)

    def is_constant(self) -> bool:
        if not self.num:
            return True
        if self.num.degree() != self.den.degree():
            return False
        F = self.field
        c = F.div(self.num.leading_coeff(), self.den.leading_coeff())
        return self.num == self.den * c

    def constant_value(self) -> int:
        if not self.num:
            return 0
        if not self.is_constant():
            raise InvalidInput(f"{self} is not constant")
        return self.field.div(self.num.leading_coeff(), self.den.leading_coeff())

    def evaluate(self, point: tuple[int, ...]) -> int | None:
        """Value at a point, or None when the denominator vanishes there."""
        d = self.den.evaluate(point)
        if d == 0:
            return None
        F = self.field
        return F.div(self.num.evaluate(point), d)


class DivisorRep:
    """Element of K* as integer exponents over canonical irreducible
    generators, plus a retained scalar unit.

    The univariate formal symbol INF participates as an extra generator;
    for reps produced by to_divisor it always carries deg(den)-deg(num).
    Modulo-k* comparisons go through class_key(), which ignores the unit.
    """

    __slots__ = ("field", "vars", "exps", "unit", "_key")

    def __init__(self, field: FiniteField, vars: tuple[str, ...], exps: dict, unit: int = 1) -> None:
        if unit == 0:
            raise InvalidInput("unit must be nonzero")
        clean = {}
        for g, e in exps.items():
            if not isinstance(e, int):
                raise InvalidInput(f"exponent {e!r} is not an integer")
            if e == 0:
                continue
            if g == INF:
                if len(vars) != 1:
                    raise InvalidInput("the infinite generator is univariate-only")
            elif isinstance(g, Poly):
                if g.vars != tuple(vars) or g.field is not field:
                    raise InvalidInput(f"generator {g!r} has the wrong domain")
                if g.leading_coeff() != 1 or g.degree() < 1:
                    raise InvalidInput(f"generator {g} is not canonical")
            else:
                raise InvalidInput(f"bad generator {g!r}")
            clean[g] = e
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "vars", tuple(vars))
        object.__setattr__(self, "exps", clean)
        object.__setattr__(self, "unit", field.check(unit))
        object.__setattr__(self, "_key", (field.q, self.vars, self._sorted_items(), unit))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("DivisorRep is immutable")

    def _sorted_items(self) -> tuple:
        return tuple(sorted(self.exps.items(), key=lambda kv: _gen_order(kv[0])))

    @classmethod
    def one(cls, field: FiniteField, vars: tuple[str, ...]) -> "DivisorRep":
        return cls(field, vars, {}, 1)

    def __hash__(self) -> int:
        return hash(self._key)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DivisorRep) and self._key == other._key

    def class_key(self) -> tuple:
        """Identity as an element of K*/k* (unit discarded)."""
        return (self.field.q, self.vars, self._sorted_items())

    def is_trivial(self) -> bool:
        """Trivial as a class in K*/k* (a constant)."""
        return not self.exps

    def exponent(self, g) -> int:
        return self.exps.get(g, 0)

    def support(self) -> list:
        return [g for g, _ in self._sorted_items()]

    def __mul__(self, other: "DivisorRep") -> "DivisorRep":
        if not isinstance(other, DivisorRep):
            return NotImplemented
        if other.field is not self.field or other.vars != self.vars:
            raise InvalidInput("mixed divisor domains")
        exps = dict(self.exps)
        for g, e in other.exps.items():
            exps[g] = exps.get(g, 0) + e
        return DivisorRep(self.field, self.vars, exps, self.field.mul(self.unit, other.unit))

    def inverse(self) -> "DivisorRep":
        return DivisorRep(
            self.field, self.vars, {g: -e for g, e in self.exps.items()}, self.field.inv(self.unit)
        )

    def __truediv__(self, other: "DivisorRep") -> "DivisorRep":
        return self * other.inverse()

    def __pow__(self, n: int) -> "DivisorRep":
        return DivisorRep(
            self.field,
            self.vars,
            {g: e * n for g, e in self.exps.items()},
            self.field.pow(self.unit, n),
        )

    def deg_sum(self) -> int:
        """Sum of deg(g) * exponent over the finite generators."""
        return sum(g.degree() * e for g, e in self.exps.items() if g != INF)

    def __str__(self) -> str:
        if not self.exps:
            return str(self.unit)
        body = " ".join(
            f"({g})^{e}" if e != 1 else f"({g})" for g, e in self._sorted_items()
        )
        return body if self.unit == 1 else f"{self.unit} {body}"

    def __repr__(self) -> str:
        return f"DivisorRep({self})"

    def to_json_obj(self) -> dict:
        out = {}
        for g, e in self._sorted_items():
            out[str(g) if g != INF else INF] = e
        out["unit"] = self.unit
        return out


def _gen_order(g) -> tuple:
    # (degree, lex) canonical order with the infinite generator last
    if g == INF:
        return (1 << 30, ())
    return g.sort_key()


def to_divisor(f: RationalFn) -> DivisorRep:
    """Exact divisor form of a nonzero rational function."""
    if not f:
        raise InvalidInput("zero has no divisor")
    nu, nparts = factor(f.num)
    du, dparts = factor(f.den)
    exps: dict = {g: k for g, k in nparts.items()}
    for g, k in dparts.items():
        exps[g] = exps.get(g, 0) - k
    if len(f.vars) == 1:
        exps[INF] = f.den.degree() - f.num.degree()
    return DivisorRep(f.field, f.vars, exps, f.field.div(nu, du))


def from_divisor(d: DivisorRep) -> RationalFn:
    """Multiply the divisor form back out; checks INF consistency."""
    F = d.field
    num = Poly._make(F, d.vars, {(0,) * len(d.vars): d.unit})  # the unit is validated and nonzero
    den = num._one()
    for g, e in d.exps.items():
        if g == INF:
            continue
        if e > 0:
            num = num * g**e
        else:
            den = den * g ** (-e)
    stored = d.exponent(INF)
    if len(d.vars) == 1 and stored != den.degree() - num.degree():
        raise InvalidInput(
            f"infinite exponent {stored} contradicts degree bookkeeping "
            f"({den.degree() - num.degree()})"
        )
    return RationalFn(num, den)


# -- algebraic dependence ---------------------------------------------


@dataclass(frozen=True)
class DependenceVerdict:
    dependent: bool
    bound: int
    witness: Poly | None = None  # annihilator in variables (U, V)

    def __bool__(self) -> bool:
        return self.dependent


def algebraically_dependent(f: RationalFn, g: RationalFn, bound: int) -> DependenceVerdict:
    """Search for a nonzero annihilator P of bidegree <= (bound, bound)
    with P(f, g) = 0, by exact nullspace computation after clearing
    denominators.  The witness is re-verified by rational substitution.
    """
    if bound < 1:
        raise InvalidInput("dependence bound must be >= 1")
    if f.is_constant() or g.is_constant():
        raise InvalidInput("dependence test needs nonconstant inputs")
    F = f.field
    D = bound
    fn_pows = [f.num**i for i in range(D + 1)]
    fd_pows = [f.den**i for i in range(D + 1)]
    gn_pows = [g.num**j for j in range(D + 1)]
    gd_pows = [g.den**j for j in range(D + 1)]
    terms: list[Poly] = []
    for i in range(D + 1):
        for j in range(D + 1):
            terms.append(fn_pows[i] * fd_pows[D - i] * gn_pows[j] * gd_pows[D - j])
    monomials = sorted({e for t in terms for e in t.coeffs}, key=lambda e: e)
    rows = [[t.coeffs.get(m, 0) for t in terms] for m in monomials]
    basis = fqlin.nullspace(F, rows)
    if not basis:
        return DependenceVerdict(False, D)
    vec = basis[0]
    UV = ("U", "V")
    coeffs = {}
    k = 0
    for i in range(D + 1):
        for j in range(D + 1):
            if vec[k]:
                coeffs[(i, j)] = vec[k]
            k += 1
    witness = Poly(F, UV, coeffs)
    # independent verification through plain rational arithmetic
    total = RationalFn.constant(F, f.vars, 0)
    for (i, j), c in witness.coeffs.items():
        total = total + (f**i) * (g**j) * c
    if total:
        raise InvalidInput("internal: annihilator failed substitution check")
    return DependenceVerdict(True, D, witness)


def compose_rational(p: Poly, h: RationalFn) -> RationalFn:
    """P(h) for a univariate polynomial P and a rational argument h."""
    if len(p.vars) != 1:
        raise InvalidInput("compose_rational needs a univariate polynomial")
    if not p:
        return RationalFn.constant(h.field, h.vars, 0)
    dense = p.to_dense()
    d = len(dense) - 1
    F = h.field
    num = Poly.zero(F, h.vars)
    for i, c in enumerate(dense):
        if c:
            num = num + (h.num**i) * (h.den ** (d - i)) * c
    return RationalFn(num, h.den**d)
