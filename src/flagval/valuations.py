"""Valuations of F_q(t) and F_q(x,y) that are trivial on the constants.

Four kinds of places: finite and infinite places of the rational
function field in one variable, divisorial valuations of the plane
cut out by an irreducible curve, and rank-two composites (curve first,
then a place of the residue field, values in Z x Z ordered
lexicographically).  Residues are computed concretely: on F_q(t), from
the unit part f / pi^v that repeated division leaves (for a degree-one
place, synthetic division by t - root, whose last remainder is the
unit part's value at the root; F_q[t]/(pi) for higher degree), as a
leading-coefficient ratio at infinity, and by substitution along graph
curves.
"""

from __future__ import annotations

from .errors import (
    InvalidInput,
    NotAUnit,
    UnsupportedResidue,
)
from .ff import FiniteField
from .fields import INF, DivisorRep, RationalFn, to_divisor
from .flagkit import FlagVerdict, is_flag_map
from .poly import Poly, _divrem, _multiplicity_dense, is_irreducible, multiplicity
from .projspace import EmbeddedSubspace


def _root_multiplicity(F: FiniteField, a: list[int], root: int) -> tuple[int, int]:
    """(k, c): (t - root)^k exactly divides the nonzero dense list a, and
    c != 0 is the value at root of the cofactor a / (t - root)^k.

    Synthetic division (Horner) from the leading coefficient down: the
    running values are the quotient's coefficients and the last one is
    the remainder a(root), so no inverse is taken.
    """
    add = F._add
    at = F._mul[root]
    hi = a[::-1]  # leading coefficient first
    k = 0
    while True:
        acc = 0
        quo = []
        for c in hi:
            acc = add[c][at[acc]]
            quo.append(acc)
        if acc:
            return k, acc
        quo.pop()
        hi = quo
        k += 1


def _dense_mul(F: FiniteField, a, b) -> list[int]:
    """Product of dense coefficient lists, constant term first."""
    add, mul = F._add, F._mul
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            mx = mul[x]
            for j, y in enumerate(b):
                if y:
                    prod[i + j] = add[prod[i + j]][mx[y]]
    return prod


class QuotientRing:
    """F_q[t]/(pi) for a monic irreducible pi; elements are coefficient
    tuples of length deg(pi)."""

    def __init__(self, modulus: Poly) -> None:
        if len(modulus.vars) != 1:
            raise InvalidInput("quotient modulus must be univariate")
        if modulus.leading_coeff() != 1 or not is_irreducible(modulus):
            raise InvalidInput("quotient modulus must be monic irreducible")
        self._set(modulus)

    @classmethod
    def _of_factor(cls, modulus: Poly) -> "QuotientRing":
        """Trusted construction: modulus is a monic irreducible that the
        caller has proved or took from factor_univariate."""
        self = object.__new__(cls)
        self._set(modulus)
        return self

    def _set(self, modulus: Poly) -> None:
        self.field = modulus.field
        self.modulus = modulus
        self.d = modulus.degree()
        self.order = self.field.q**self.d
        self._mod_dense = modulus.to_dense()

    def __repr__(self) -> str:  # pragma: no cover
        return f"QuotientRing(F{self.field.q}[{self.modulus.vars[0]}]/({self.modulus}))"

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * self.d

    @property
    def one(self) -> tuple[int, ...]:
        return tuple([1] + [0] * (self.d - 1))

    def _reduce(self, dense: list[int]) -> tuple[int, ...]:
        r = _divrem(self.field, dense, self._mod_dense)[1]
        return tuple(r) + (0,) * (self.d - len(r))

    def from_poly(self, p: Poly) -> tuple[int, ...]:
        return self._reduce(p.to_dense())

    def is_constant(self, a: tuple[int, ...]) -> bool:
        return all(c == 0 for c in a[1:])

    def mul(self, a, b) -> tuple[int, ...]:
        return self._reduce(_dense_mul(self.field, a, b))

    def pow(self, a, n: int) -> tuple[int, ...]:
        """a^n for any integer n; a negative n needs a unit."""
        if a == self.zero:
            if n < 0:
                raise ZeroDivisionError("zero has no inverse")
            return self.zero if n else self.one
        # units form a group of order q^d - 1
        n %= self.order - 1
        out = self.one
        base = a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def inv(self, a) -> tuple[int, ...]:
        """Inverse by the extended Euclidean algorithm on dense lists.

        Each step keeps s * a = r (mod pi).  pi is irreducible, so the
        remainders end at a nonzero constant c, and s / c is the inverse.
        """
        if a == self.zero:
            raise ZeroDivisionError("zero has no inverse")
        F = self.field
        sub = F._sub
        r0, r1 = self._mod_dense, list(a)
        while not r1[-1]:
            r1.pop()
        s0, s1 = [], [1]
        while len(r1) > 1:
            quo, rem = _divrem(F, r0, r1)
            qs = _dense_mul(F, quo, s1)
            s0 = s0 + [0] * (len(qs) - len(s0))  # deg(quo * s1) > deg(s0)
            r0, r1, s0, s1 = r1, rem, s1, [sub[x][y] for x, y in zip(s0, qs)]
        scale = F._mul[F._inv[r1[0]]]
        return self._reduce([scale[x] for x in s1])

    def frobenius(self, a) -> tuple[int, ...]:
        return self.pow(a, self.field.q)

    def norm_to_base(self, a) -> int:
        """Product of the Frobenius conjugates; lands in F_q."""
        if a == self.zero:
            return 0
        out = a
        b = a
        for _ in range(self.d - 1):
            b = self.frobenius(b)
            out = self.mul(out, b)
        if not self.is_constant(out):
            raise AssertionError("norm left the base field")
        return out[0]


# -- places ------------------------------------------------------------


def _as_rational(f) -> RationalFn:
    if isinstance(f, RationalFn):
        return f
    if isinstance(f, DivisorRep):
        from .fields import from_divisor

        return from_divisor(f)
    raise InvalidInput(f"expected RationalFn or DivisorRep, got {type(f).__name__}")


class FinitePlace:
    """Place of F_q(t) cut out by a monic irreducible polynomial.

    `FinitePlace(pi)` proves pi monic irreducible; `_of_factor` trusts a
    factor that factor_univariate returned.  Either way the residue ring
    is built without a second proof.  A degree-one place keeps its root
    and divides by Horner; a higher-degree place keeps its residue ring,
    whose dense modulus is pi's dense list, converted once.
    """

    def __init__(self, pi: Poly) -> None:
        if len(pi.vars) != 1:
            raise InvalidInput("finite places are univariate")
        if pi.leading_coeff() != 1 or not is_irreducible(pi):
            raise InvalidInput(f"{pi} is not monic irreducible")
        self._set(pi)

    @classmethod
    def _of_factor(cls, pi: Poly) -> "FinitePlace":
        """Trusted construction: pi is a monic irreducible factor that
        factor_univariate returned."""
        self = object.__new__(cls)
        self._set(pi)
        return self

    def _set(self, pi: Poly) -> None:
        self.field = pi.field
        self.vars = pi.vars
        self.pi = pi
        self.degree = pi.degree()
        if self.degree == 1:
            self.root = self.field.neg(pi.coeffs.get((0,), 0))
            self.ring = None
        else:
            self.root = None
            self.ring = QuotientRing._of_factor(pi)

    def __eq__(self, other) -> bool:
        return isinstance(other, FinitePlace) and self.pi == other.pi

    def __hash__(self) -> int:
        return hash(("finite", self.pi))

    def __repr__(self) -> str:
        return f"Place(finite:{self.pi})"

    def _split(self, p: Poly) -> tuple:
        """(k, u): pi^k exactly divides the nonzero p, and u is the cofactor
        p / pi^k, as its value at the root for a degree-one place and as a
        dense list otherwise.  p is converted to a dense list once."""
        if self.ring is None:
            return _root_multiplicity(self.field, p.to_dense(), self.root)
        return _multiplicity_dense(self.field, p.to_dense(), self.ring._mod_dense)

    def val(self, f) -> int:
        if isinstance(f, DivisorRep):
            return f.exponent(self.pi)
        f = _as_rational(f)
        if not f:
            raise InvalidInput("the zero element has no value")
        return self._split(f.num)[0] - self._split(f.den)[0]

    def unit_residue(self, f) -> tuple:
        """(v, r): the value v of f and the residue r of its unit part
        f / pi^v, read from the cofactors that repeated division leaves."""
        f = _as_rational(f)
        if not f:
            raise InvalidInput("the zero element has no value")
        a, num = self._split(f.num)
        b, den = self._split(f.den)
        ring = self.ring
        if ring is None:
            return a - b, self.field.div(num, den)
        return a - b, ring.mul(ring._reduce(num), ring.inv(ring._reduce(den)))


class InfinitePlace:
    """The degree place of F_q(t): val = deg(den) - deg(num)."""

    degree = 1

    def __init__(self, field: FiniteField, var: str) -> None:
        self.field = field
        self.vars = (var,)
        self.ring = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InfinitePlace)
            and self.field.q == other.field.q
            and self.vars == other.vars
        )

    def __hash__(self) -> int:
        return hash(("infinite", self.field.q, self.vars))

    def __repr__(self) -> str:
        return "Place(infinite)"

    def val(self, f) -> int:
        if isinstance(f, DivisorRep):
            return f.exponent(INF)
        f = _as_rational(f)
        if not f:
            raise InvalidInput("the zero element has no value")
        return f.den.degree() - f.num.degree()

    def unit_residue(self, f) -> tuple[int, int]:
        """(v, r): the value of f and the residue lc(num)/lc(den) of its
        unit part f * t^v."""
        f = _as_rational(f)
        return self.val(f), self.field.div(f.num.leading_coeff(), f.den.leading_coeff())


class DivisorialCurve:
    """Divisorial valuation of F_q(x,y): order of vanishing along an
    irreducible plane curve."""

    def __init__(self, pi: Poly) -> None:
        if len(pi.vars) != 2:
            raise InvalidInput("divisorial places need a bivariate curve")
        if pi.degree() < 1:
            raise InvalidInput("constant curve")
        # scalars do not change the valuation: keep the canonical scaling
        _, pi = pi.make_canonical()
        if pi.degree() <= 3 and not is_irreducible(pi):
            raise InvalidInput(f"{pi} is reducible")
        self.field = pi.field
        self.vars = pi.vars
        self.pi = pi

    def __eq__(self, other) -> bool:
        return isinstance(other, DivisorialCurve) and self.pi == other.pi

    def __hash__(self) -> int:
        return hash(("curve", self.pi))

    def __repr__(self) -> str:
        return f"Place(curve:{self.pi})"

    def val(self, f) -> int:
        if isinstance(f, DivisorRep):
            return f.exponent(self.pi)
        f = _as_rational(f)
        if not f:
            raise InvalidInput("the zero element has no value")
        a, _ = multiplicity(f.num, self.pi)
        b, _ = multiplicity(f.den, self.pi)
        return a - b

    def _graph(self) -> tuple[int, Poly]:
        """Substitution killing the curve: returns (eliminated variable
        index, its image in the other variable).  Only graph curves
        c*v + h(w) support residues."""
        for i in (0, 1):
            if self.pi.deg_in(i) != 1:
                continue
            lin = {}
            rest = {}
            for exp, c in self.pi.coeffs.items():
                if exp[i] == 1:
                    lin[exp] = c
                elif exp[i] == 0:
                    rest[exp] = c
                else:
                    lin = None
                    break
            if lin is None or list(lin) != [tuple(1 if j == i else 0 for j in (0, 1))]:
                continue
            c = next(iter(lin.values()))
            h = Poly(self.field, self.vars, rest)
            image = h * self.field.neg(self.field.inv(c))
            return i, image
        raise UnsupportedResidue(
            f"residues along {self.pi} need a graph curve (linear in one variable)"
        )

    @property
    def residue_var(self) -> str:
        i, _ = self._graph()
        return self.vars[1 - i]

    def residue(self, f) -> RationalFn:
        """Restriction of a unit to the curve, as an element of F_q(w)
        for the surviving coordinate w."""
        f = _as_rational(f)
        if not f:
            raise InvalidInput("the zero element has no value")
        a, num = multiplicity(f.num, self.pi)
        b, den = multiplicity(f.den, self.pi)
        if a != b:
            raise NotAUnit(f"{f} has nonzero value along {self.pi}")
        i, image = self._graph()
        keep = 1 - i
        images = {
            self.vars[i]: image,
            self.vars[keep]: Poly.variable(self.field, self.vars, self.vars[keep]),
        }
        num2 = num.substitute(images)
        den2 = den.substitute(images)
        if not den2:
            raise AssertionError("curve divides the denominator after cancellation")
        rvar = self.vars[keep]
        proj = {keep: 0}
        return RationalFn(
            num2.map_vars((rvar,), proj), den2.map_vars((rvar,), proj)
        )


class CompositePlace:
    """Rank-two valuation: order along a curve, then a place of the
    curve's residue field.  Values are lexicographic pairs."""

    def __init__(self, curve: DivisorialCurve, point: "FinitePlace | InfinitePlace") -> None:
        rvar = curve.residue_var  # raises UnsupportedResidue for non-graph curves
        if point.vars != (rvar,):
            raise InvalidInput(
                f"point place must live on the residue field variable {rvar!r}"
            )
        if point.field.q != curve.field.q:
            raise InvalidInput("curve and point place have different constants")
        self.curve = curve
        self.point = point
        self.field = curve.field
        self.vars = curve.vars

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CompositePlace)
            and self.curve == other.curve
            and self.point == other.point
        )

    def __hash__(self) -> int:
        return hash(("composite", self.curve, self.point))

    def __repr__(self) -> str:
        return f"Place(composite:{self.curve.pi}|{_point_text(self.point)})"

    def val(self, f) -> tuple[int, int]:
        f = _as_rational(f)
        if not f:
            raise InvalidInput("the zero element has no value")
        m = self.curve.val(f)
        u = f * RationalFn.from_poly(self.curve.pi) ** (-m)
        r = self.curve.residue(u)
        return (m, self.point.val(r))


Place = FinitePlace | InfinitePlace | DivisorialCurve | CompositePlace


# -- shared operations -------------------------------------------------


def valuation_flag_structure(place, S: EmbeddedSubspace) -> FlagVerdict:
    """The valuation restricted to a finite subspace, judged as a map."""
    values = [place.val(f) for f in S.functions]
    return is_flag_map(S.geometry, values)


def ultrametric_ok(place, f: RationalFn, g: RationalFn) -> bool | None:
    """Triangle inequality for one pair; None when f+g = 0 (no value)."""
    s = f + g
    if not s:
        return None
    vf, vg, vs = place.val(f), place.val(g), place.val(s)
    if vs < min(vf, vg):
        return False
    if vf != vg and vs != min(vf, vg):
        return False
    return True


def degree_sum(f: RationalFn) -> int:
    """Sum of deg(place) * val(place, f) over all places of F_q(t).

    Recomputed place by place with repeated exact division, so it
    cross-checks the factorization route; 0 for every nonzero f.
    """
    if len(f.vars) != 1:
        raise InvalidInput("the degree formula is univariate-only")
    if not f:
        raise InvalidInput("the zero element has no divisor")
    total = 0
    for g in to_divisor(f).support():
        if g == INF:
            place = InfinitePlace(f.field, f.vars[0])
        else:
            place = FinitePlace._of_factor(g)
        total += place.degree * place.val(f)
    return total


# -- serialization -----------------------------------------------------


def _point_text(point) -> str:
    return "infinite" if isinstance(point, InfinitePlace) else str(point.pi)


def serialize_place(place) -> str:
    if isinstance(place, FinitePlace):
        return f"finite:{place.pi}"
    if isinstance(place, InfinitePlace):
        return "infinite"
    if isinstance(place, DivisorialCurve):
        return f"curve:{place.pi}"
    if isinstance(place, CompositePlace):
        return f"composite:{place.curve.pi}|{_point_text(place.point)}"
    raise InvalidInput(f"not a place: {place!r}")


def parse_place(field: FiniteField, text: str, vars: tuple[str, ...]):
    """Inverse of serialize_place, e.g. `finite:t^2+1` or `composite:x|y`."""
    text = text.strip()
    if text == "infinite":
        if len(vars) != 1:
            raise InvalidInput("the infinite place is univariate-only")
        return InfinitePlace(field, vars[0])
    if ":" not in text:
        raise InvalidInput(f"bad place spec {text!r}")
    kind, _, body = text.partition(":")
    if kind == "finite":
        return FinitePlace(Poly.parse(field, body, vars))
    if kind == "curve":
        return DivisorialCurve(Poly.parse(field, body, vars))
    if kind == "composite":
        if "|" not in body:
            raise InvalidInput("composite places are written curve|point")
        curve_text, _, point_text = body.partition("|")
        curve = DivisorialCurve(Poly.parse(field, curve_text, vars))
        rvar = curve.residue_var
        if point_text.strip() == "infinite":
            point = InfinitePlace(field, rvar)
        else:
            point = FinitePlace(Poly.parse(field, point_text, (rvar,)))
        return CompositePlace(curve, point)
    raise InvalidInput(f"unknown place kind {kind!r}")
