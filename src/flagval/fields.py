"""Rational functions and their divisor form over F_q(t) or F_q(x,y).

DivisorRep models the free abelian group K*/k* on canonical irreducible
generators (plus the formal symbol "inf" in one variable), with the
scalar unit retained so K* itself is recoverable.  Conversion in both
directions is exact; the bivariate direction is subject to the degree-3
factoring window of the poly layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from . import fqlin
from .errors import InvalidInput
from .ff import FiniteField
from .poly import Poly, _dense_mul, _from_dense, divmod_univariate, factor, gcd_univariate

INF = "inf"
_RESERVED_NAMES = (INF, "unit")


class RationalFn:
    """Quotient of two polynomials, denominator nonzero.

    Canonical form: common factors cancelled (always in one variable;
    in two variables only when both parts fit the factoring window) and
    the denominator monic.  `_make` is the trusted route for a quotient
    its caller knows to be canonical.  `==` compares dense parts in one
    variable, where every function is canonical, and cross-multiplies
    in two.

    In one variable the function lives on dense coefficient tuples,
    constant term first, kept as `dense_parts()`.  `_of_dense` reduces
    them to lowest terms (gcd_univariate, exact division by
    divmod_univariate, a monic denominator) for the validating
    constructor, products and sums; a `_make`-built function converts
    its Polys to them once, on first use.  num and den are made only when read
    (printing, factoring a Poly, substitution).  Three routes skip the
    gcd and keep d monic: p/1 (`from_poly`, `constant`, an int
    operand), -n/d, and n/d + p = (n + p d)/d, one product, since
    gcd(n + p d, d) = gcd(n, d) = 1.  The zero has the one form 0/1.
    """

    __slots__ = ("field", "vars", "_num", "_den", "_dense")
    __hash__ = None  # two-variable equality cross-multiplies; no canonical hash

    def __init__(self, num: Poly, den: Poly) -> None:
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num.field is not den.field or num.vars != den.vars:
            raise InvalidInput("numerator and denominator domains differ")
        if any(v in _RESERVED_NAMES for v in num.vars):
            raise InvalidInput(f"variable names {_RESERVED_NAMES} are reserved")
        F = num.field
        if len(num.vars) == 1:
            _init_dense(self, F, num.vars[0], num.to_dense(), den.to_dense())
            return
        if num and num.degree() <= 3 and den.degree() <= 3:
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
        _init_fn(self, F, num.vars, num, den, None)

    @classmethod
    def _make(cls, num: Poly, den: Poly) -> "RationalFn":
        """Trusted construction: num/den is already in canonical form."""
        self = object.__new__(cls)
        _init_fn(self, num.field, num.vars, num, den, None)
        return self

    @classmethod
    def _of_dense(cls, F: FiniteField, var: str, n, d, coprime: bool = False) -> "RationalFn":
        """n/d in F_q(var) from dense lists of field codes, d nonzero and
        trailing zeros allowed, in lowest terms; no gcd when `coprime`."""
        self = object.__new__(cls)
        _init_dense(self, F, var, n, d, coprime)
        return self

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("RationalFn is immutable")

    @property
    def num(self) -> Poly:
        """The numerator; a dense-built function makes it on first read."""
        if self._num is None:
            object.__setattr__(self, "_num", _from_dense(self.field, self.vars[0], self._dense[0]))
        return self._num

    @property
    def den(self) -> Poly:
        """The denominator; a dense-built function makes it on first read."""
        if self._den is None:
            object.__setattr__(self, "_den", _from_dense(self.field, self.vars[0], self._dense[1]))
        return self._den

    def dense_parts(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(num, den) as dense coefficient tuples, constant term first;
        univariate only, built on first use and kept."""
        parts = self._dense
        if parts is None:
            parts = (tuple(self._num.to_dense()), tuple(self._den.to_dense()))
            object.__setattr__(self, "_dense", parts)
        return parts

    @classmethod
    def from_poly(cls, p: Poly) -> "RationalFn":
        if len(p.vars) == 1 and p.vars[0] not in _RESERVED_NAMES:
            return cls._make(p, p._one())
        return cls(p, p._one())  # two variables, or a reserved name to refuse

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
        parts = self._dense
        return bool(self._num if parts is None else parts[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFn):
            return NotImplemented
        if len(self.vars) == 1 and other.vars == self.vars and other.field is self.field:
            return self.dense_parts() == other.dense_parts()  # both canonical
        return self.num * other.den == other.num * self.den

    def _coerce(self, other) -> "RationalFn":
        if isinstance(other, RationalFn):
            if other.field is not self.field or other.vars != self.vars:
                raise InvalidInput("mixed rational function domains")
            return other
        if isinstance(other, Poly):
            return RationalFn.from_poly(other)
        if isinstance(other, int):
            c = self.field.from_int(other)
            if len(self.vars) == 1:
                return RationalFn._of_dense(self.field, self.vars[0], [c], [1], True)
            return RationalFn.constant(self.field, self.vars, c)
        return NotImplemented

    def __add__(self, other) -> "RationalFn":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if len(self.vars) == 1:
            F, add = self.field, self.field._add
            (a, b), (c, d) = self.dense_parts(), o.dense_parts()
            if len(b) == 1:
                (a, b), (c, d) = (c, d), (a, b)
            poly = len(d) == 1  # n/b + p = (n + p b)/b is in lowest terms (class docstring)
            ad, bd = (a, b) if poly else (_dense_mul(F, a, d), _dense_mul(F, b, d))
            num = [add[x][y] for x, y in zip_longest(ad, _dense_mul(F, c, b), fillvalue=0)]
            return RationalFn._of_dense(F, self.vars[0], num, bd, poly)
        return RationalFn(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFn":
        if len(self.vars) == 1:
            n, d = self.dense_parts()
            return RationalFn._of_dense(self.field, self.vars[0], [self.field._neg[c] for c in n], d, True)
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
        if len(self.vars) == 1:
            F = self.field
            (a, b), (c, d) = self.dense_parts(), o.dense_parts()
            return RationalFn._of_dense(F, self.vars[0], _dense_mul(F, a, c), _dense_mul(F, b, d))
        return RationalFn(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFn":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

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


def _init_fn(f: RationalFn, F: FiniteField, vars: tuple[str, ...], num, den, dense) -> None:
    object.__setattr__(f, "field", F)
    object.__setattr__(f, "vars", vars)
    object.__setattr__(f, "_num", num)
    object.__setattr__(f, "_den", den)
    object.__setattr__(f, "_dense", dense)


def _init_dense(f: RationalFn, F: FiniteField, var: str, n, d, coprime: bool = False) -> None:
    """Set f to n/d in lowest terms, from dense lists of field codes with
    d nonzero and trailing zeros allowed: the gcd cancelled unless n and
    d are coprime already, d monic, the zero 0/1, and the reduced lists
    kept as the dense parts."""
    n, d = list(n), list(d)
    for a in (n, d):
        while a and not a[-1]:
            a.pop()
    if not n:
        d = [1]
    else:
        g = [1] if coprime else gcd_univariate(F, n, d)
        if len(g) > 1:
            n = divmod_univariate(F, n, g)[0]
            d = divmod_univariate(F, d, g)[0]
        if d[-1] != 1:
            s = F._mul[F._inv[d[-1]]]
            n = [s[c] for c in n]
            d = [s[c] for c in d]
    _init_fn(f, F, (var,), None, None, (tuple(n), tuple(d)))


class DivisorRep:
    """Element of K* as integer exponents over canonical irreducible
    generators, plus a retained scalar unit.

    The univariate formal symbol INF participates as an extra generator;
    for reps produced by to_divisor it always carries deg(den)-deg(num).
    Modulo-k* comparisons go through class_key(), which ignores the unit.

    The constructor validates every generator and exponent and drops
    zero exponents; `_make` is the trusted route of to_divisor, products
    and inverses, whose exponents are already nonzero and whose
    generators are canonical.  The class key is an unordered set of the
    exponent items, built on first use and kept; hash and == read it
    together with the unit.  Only `__str__` sorts the generators.
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
        _init_divisor(self, field, tuple(vars), clean, field.check(unit))

    @classmethod
    def _make(cls, field: FiniteField, vars: tuple[str, ...], exps: dict, unit: int) -> "DivisorRep":
        """Trusted construction: exps maps canonical generators of this
        domain (or INF in one variable) to nonzero ints; unit is nonzero."""
        self = object.__new__(cls)
        _init_divisor(self, field, vars, exps, unit)
        return self

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("DivisorRep is immutable")

    def class_key(self) -> tuple:
        """Identity as an element of K*/k* (unit discarded): the field,
        the variables and the frozenset of exponent items, in no order,
        built on first use and kept."""
        key = self._key
        if key is None:
            key = (self.field.q, self.vars, frozenset(self.exps.items()))
            object.__setattr__(self, "_key", key)
        return key

    def _ident(self) -> tuple:
        return (self.class_key(), self.unit)

    def __hash__(self) -> int:
        return hash(self._ident())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DivisorRep) and self._ident() == other._ident()

    def is_trivial(self) -> bool:
        """Trivial as a class in K*/k* (a constant)."""
        return not self.exps

    def exponent(self, g) -> int:
        return self.exps.get(g, 0)

    def __mul__(self, other: "DivisorRep") -> "DivisorRep":
        if not isinstance(other, DivisorRep):
            return NotImplemented
        if other.field is not self.field or other.vars != self.vars:
            raise InvalidInput("mixed divisor domains")
        exps = dict(self.exps)
        for g, e in other.exps.items():
            e += exps.get(g, 0)
            if e:
                exps[g] = e
            else:
                del exps[g]
        F = self.field
        return DivisorRep._make(F, self.vars, exps, F._mul[self.unit][other.unit])

    def inverse(self) -> "DivisorRep":
        F = self.field
        return DivisorRep._make(F, self.vars, {g: -e for g, e in self.exps.items()}, F._inv[self.unit])

    def __truediv__(self, other: "DivisorRep") -> "DivisorRep":
        return self * other.inverse()

    def deg_sum(self) -> int:
        """Sum of deg(g) * exponent over the finite generators."""
        return sum(g.degree() * e for g, e in self.exps.items() if g != INF)

    def __str__(self) -> str:
        if not self.exps:
            return str(self.unit)
        items = sorted(self.exps.items(), key=lambda kv: _gen_order(kv[0]))
        body = " ".join(f"({g})^{e}" if e != 1 else f"({g})" for g, e in items)
        return body if self.unit == 1 else f"{self.unit} {body}"

    def __repr__(self) -> str:
        return f"DivisorRep({self})"


def _init_divisor(d: DivisorRep, field: FiniteField, vars: tuple[str, ...], exps: dict, unit: int) -> None:
    object.__setattr__(d, "field", field)
    object.__setattr__(d, "vars", vars)
    object.__setattr__(d, "exps", exps)
    object.__setattr__(d, "unit", unit)
    object.__setattr__(d, "_key", None)


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
    exps = nparts  # factor hands each caller a fresh dict
    for g, k in dparts.items():
        e = exps.get(g, 0) - k
        if e:
            exps[g] = e
        else:
            del exps[g]
    if len(f.vars) == 1:
        e = f.den.degree() - f.num.degree()
        if e:
            exps[INF] = e
    F = f.field
    return DivisorRep._make(F, f.vars, exps, F._mul[nu][F._inv[du]])


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
    denominators.

    With D = bound, P(f, g) = 0 iff the terms fn^i fd^(D-i) gn^j gd^(D-j)
    are linearly dependent.  Each term is the product of two power rows,
    A_i = fn^i fd^(D-i) and B_j = gn^j gd^(D-j), built once per call
    with every power one step from the last.  The columns of the matrix
    are the terms in (i, j) order and its rows their monomials.  The
    witness is the first vector of `fqlin.nullspace`, the one of its
    first free column: of all annihilators, the one whose last term in
    that order is earliest, with coefficient 1 there.  It is checked
    again without the term table or the matrix, by `_annihilates`.
    """
    if bound < 1:
        raise InvalidInput("dependence bound must be >= 1")
    if f.is_constant() or g.is_constant():
        raise InvalidInput("dependence test needs nonconstant inputs")
    F = f.field
    D = bound
    # exponent tuples packed into one int each, so a product adds keys;
    # no exponent of a term reaches `base`
    base = D * (max(f.num.degree(), f.den.degree()) + max(g.num.degree(), g.den.degree())) + 1
    A = _power_rows(F, _packed(f.num, base), _packed(f.den, base), D)
    B = _power_rows(F, _packed(g.num, base), _packed(g.den, base), D)
    ncols = (D + 1) ** 2
    by_monomial: dict[int, list[int]] = {}
    k = 0
    for a in A:
        for b in B:
            for e, c in _mul_packed(F, a, b).items():
                row = by_monomial.get(e)
                if row is None:
                    row = by_monomial[e] = [0] * ncols
                row[k] = c
            k += 1
    basis = fqlin.nullspace(F, list(by_monomial.values()))
    if not basis:
        return DependenceVerdict(False, D)
    coeffs = {divmod(k, D + 1): c for k, c in enumerate(basis[0]) if c}
    if not _annihilates(f, g, coeffs):
        raise InvalidInput("internal: annihilator failed substitution check")
    return DependenceVerdict(True, D, Poly._make(F, ("U", "V"), coeffs))


def _packed(p: Poly, base: int) -> dict[int, int]:
    if len(p.vars) == 1:
        return {e: c for (e,), c in p.coeffs.items()}
    return {a * base + b: c for (a, b), c in p.coeffs.items()}


def _mul_packed(F: FiniteField, p: dict[int, int], r: dict[int, int]) -> dict[int, int]:
    add, mul = F._add, F._mul
    out: dict[int, int] = {}
    get = out.get
    r_items = r.items()
    for ep, cp in p.items():
        m = mul[cp]
        for er, cr in r_items:
            e = ep + er
            out[e] = add[get(e, 0)][m[cr]]
    return {e: c for e, c in out.items() if c}


def _power_rows(F: FiniteField, num: dict, den: dict, D: int) -> list[dict]:
    """num^i den^(D-i) for i = 0..D, each power one product from the last."""
    npow, dpow = [num], [den]
    for _ in range(D - 1):
        npow.append(_mul_packed(F, npow[-1], num))
        dpow.append(_mul_packed(F, dpow[-1], den))
    middle = [_mul_packed(F, npow[i - 1], dpow[D - i - 1]) for i in range(1, D)]
    return [dpow[-1]] + middle + [npow[-1]]


def _annihilates(f: RationalFn, g: RationalFn, coeffs: dict) -> bool:
    """P(f, g) == 0 for P = sum c_ij U^i V^j, by homogeneous Horner.

    With (du, dv) the bidegree of P this computes, in Poly arithmetic
    and from f.num, f.den, g.num and g.den alone,
        fd^du gd^dv P(f, g) = sum_i fn^i fd^(du-i) sum_j c_ij gn^j gd^(dv-j),
    each sum as (..(s_d x + s_(d-1) y) x + s_(d-2) y^2 ..) x + s_0 y^d.
    The denominators are nonzero, so the result is zero iff P(f, g) is.
    """
    du = max(i for i, _ in coeffs)
    dv = max(j for _, j in coeffs)
    fd_pows = _powers(f.den, du)
    gd_pows = _powers(g.den, dv)
    total = zero = Poly._make(f.field, f.vars, {})
    for i in range(du, -1, -1):
        inner = zero
        for j in range(dv, -1, -1):
            if inner:
                inner = inner * g.num
            c = coeffs.get((i, j))
            if c:
                inner = inner + gd_pows[dv - j] * c
        if total:
            total = total * f.num
        if inner:
            total = total + inner * fd_pows[du - i]
    return not total


def _powers(y: Poly, d: int) -> list[Poly]:
    out = [y._one()]
    for _ in range(d):
        out.append(out[-1] * y)
    return out


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
