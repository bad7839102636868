"""Valuations of F_q(t) and F_q(x,y) that are trivial on the constants.

Four kinds of places: finite and infinite places of the rational
function field in one variable, divisorial valuations of the plane
cut out by an irreducible curve, and rank-two composites (curve first,
then a place of the residue field, values in Z x Z ordered
lexicographically).  A place of F_q(t) splits a dense part a of f,
`_split(a) -> (k, u)`: the value of a and the residue of its unit part
in the place's residue field `ring`.  At a finite place that is one
repeated-division pass, whose last remainder is the residue (Horner by
t - root at degree one, division by pi into F_q[t]/(pi) above); at
infinity it is (-deg a, lc(a)).  `val_dense(num, den)` is two splits.
A graph curve answers `unit_residue(f) -> (v, r)`: the value of f and
the restriction of its unit part to the curve.  The checks at places
of F_q(t) read the dense parts that `RationalFn.dense_parts()` keeps;
the two axiom checks read the values of a sum or a product off its
unreduced parts, since a value does not depend on the representative.

This module owns the places of F_q(t) and their memos: `place_of(pi)`
keeps one FinitePlace per modulus, the last 64, for the suites' fixed
places, `degree_sum` and `milnork.support_places`, and each finite
place keeps the splits of the last SPLIT_MEMO_SIZE (128) parts it met.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce

from .errors import InvalidInput, UnsupportedResidue
from .ff import FiniteField, power
from .fields import RationalFn, _dense_sum
from .flagkit import FlagVerdict, is_flag_map
from .poly import Poly, _dense_mul, _divrem, _multiplicity_dense, _root_multiplicity
from .poly import factor_univariate, is_irreducible, multiplicity
from .projspace import EmbeddedSubspace


class QuotientRing:
    """F_q[t]/(pi); elements are coefficient tuples of length deg(pi).

    The modulus is trusted to be monic irreducible: every ring is built
    by `FinitePlace`, which trusts its pi too.
    """

    def __init__(self, modulus: Poly) -> None:
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

    def _pad(self, r: list[int]) -> tuple[int, ...]:
        """The element of a trimmed dense list of degree < deg(pi)."""
        return tuple(r) + (0,) * (self.d - len(r))

    def _reduce(self, dense: list[int]) -> tuple[int, ...]:
        return self._pad(_divrem(self.field, dense, self._mod_dense)[1])

    def mul(self, a, b) -> tuple[int, ...]:
        return self._reduce(_dense_mul(self.field, a, b))

    pow = power

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

    def neg(self, a) -> tuple[int, ...]:
        neg = self.field._neg
        return tuple(neg[c] for c in a)

    def norm(self, a) -> int:
        """The norm to F_q, as the resultant Res(pi, a) by Euclid.

        pi is monic, so Res(pi, a) is the product of a over the roots of
        pi, which is the product of the Frobenius conjugates of a.
        Euclid starts at (f, g) = (pi, a).  With m = deg f, n = deg g and
        r = f mod g of degree k, each step uses Res(f, g) =
        (-1)^(mn) lc(g)^(m-k) Res(g, r), and Res(f, c) = c^m ends it at a
        constant c.  pi is irreducible, so no remainder of a nonzero a
        vanishes.
        """
        F = self.field
        g = list(a)
        while g and not g[-1]:
            g.pop()
        if not g:
            return 0
        mul, fpow = F._mul, F.pow
        f = self._mod_dense
        out = 1
        while len(g) > 1:
            r = _divrem(F, f, g)[1]
            m, n = len(f) - 1, len(g) - 1
            out = mul[out][fpow(g[-1], m - len(r) + 1)]
            if m * n % 2:
                out = F._neg[out]
            f, g = g, r
        return mul[out][fpow(g[0], len(f) - 1)]


# -- places ------------------------------------------------------------


class _Place:
    """A place: its repr is its `serialize_place` spec."""

    def __repr__(self) -> str:
        return f"Place({serialize_place(self)})"


class _PlaceOfLine(_Place):
    """The value of f at a place of F_q(t), from `_split(a) -> (k, u)`:
    the value of a nonzero dense list a and the residue of its unit
    part, in the residue field `ring`."""

    def val_dense(self, num, den) -> int:
        """The value of num/den from the nonzero dense lists of its parts."""
        return self._split(num)[0] - self._split(den)[0]

    def val(self, f: RationalFn) -> int:
        if not f:
            raise InvalidInput("the zero element has no value")
        return self.val_dense(*f.dense_parts())


class FinitePlace(_PlaceOfLine):
    """Place of F_q(t) cut out by a monic irreducible polynomial.

    `FinitePlace(pi)` trusts pi: the suites' fixed places,
    `monic_irreducibles` and the factors that factor_univariate returned
    are proved already, and `parse_place` proves a modulus from outside
    input before it builds the place.  `ring` is the residue field: at a
    degree-one place the FiniteField itself, and the place keeps its
    root and divides by Horner; at a higher-degree place a QuotientRing,
    whose dense modulus is pi's dense list, converted once.  The checks
    that meet the same factor again and again ask `place_of(pi)`, and
    share its split memo.
    """

    def __init__(self, pi: Poly) -> None:
        self.field = pi.field
        self.vars = pi.vars
        self.pi = pi
        self.degree = pi.degree()
        self._memo: dict[tuple, tuple] = {}
        if self.degree == 1:
            self.root = self.field.neg(pi.coeffs.get((0,), 0))
            self.ring = self.field
        else:
            self.root = None
            self.ring = QuotientRing(pi)

    def __eq__(self, other) -> bool:
        return isinstance(other, FinitePlace) and self.pi == other.pi

    def __hash__(self) -> int:
        return hash(("finite", self.pi))

    def _split(self, a) -> tuple:
        """(k, u): pi^k exactly divides the nonzero dense list a, and u is
        the residue of the cofactor a / pi^k: its value at the root for a
        degree-one place, and otherwise its class in the residue ring,
        the last remainder of the division pass; memoised, oldest out first."""
        a = tuple(a)
        memo = self._memo
        out = memo.get(a)
        if out is None:
            if self.degree == 1:
                k, _, u = _root_multiplicity(self.field, a, self.root)
            else:
                k, _, r = _multiplicity_dense(self.field, a, self.ring._mod_dense)
                u = self.ring._pad(r)
            if len(memo) >= SPLIT_MEMO_SIZE:
                del memo[next(iter(memo))]  # insertion order, not the hash seed, picks it
            out = memo[a] = k, u
        return out


SPLIT_MEMO_SIZE = 128  # split memo of one place; unbounded, it held about 1 MB more on small-field

# more than the distinct moduli of the small-field suites (about 40);
# over GF(49) most moduli are fresh, and a larger cache would only hold
# more memory
PLACE_CACHE_SIZE = 64


@lru_cache(maxsize=PLACE_CACHE_SIZE)
def place_of(pi: Poly) -> FinitePlace:
    """The one FinitePlace of the monic irreducible pi, built on first
    use and kept in a bounded cache; pi is trusted as FinitePlace
    trusts it."""
    return FinitePlace(pi)


class InfinitePlace(_PlaceOfLine):
    """The degree place of F_q(t): val = deg(den) - deg(num), and the
    residue of the unit part is lc(num)/lc(den).  Its residue field
    `ring` is the FiniteField itself."""

    degree = 1

    def __init__(self, field: FiniteField, var: str) -> None:
        self.field = field
        self.vars = (var,)
        self.ring = field

    def __eq__(self, other) -> bool:
        return isinstance(other, InfinitePlace) and (self.field.q, self.vars) == (other.field.q, other.vars)

    def __hash__(self) -> int:
        return hash(("infinite", self.field.q, self.vars))

    def _split(self, a) -> tuple[int, int]:
        """(k, u): the value -deg(a) of the nonzero dense list a and its
        leading coefficient, the residue of the unit part a * t^deg(a)."""
        return 1 - len(a), a[-1]


class DivisorialCurve(_Place):
    """Divisorial valuation of F_q(x,y): order of vanishing along an
    irreducible plane curve.  A graph curve c*v + h(w) also answers unit
    residues: the cofactors are restricted to it on dense lists in w,
    with the powers of v's image kept beside `_graph`."""

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

    def val(self, f: RationalFn) -> int:
        if not f:
            raise InvalidInput("the zero element has no value")
        a, _ = multiplicity(f.num, self.pi)
        b, _ = multiplicity(f.den, self.pi)
        return a - b

    @cached_property
    def _graph(self) -> tuple[int, list[list[int]]]:
        """The curve as a graph c*v + h(w): (index of the eliminated
        variable v, the powers 1, g, g^2, ... of its image g = -h(w)/c as
        dense lists in w), made on first read and kept; `_restrict`
        extends the powers as it needs them.  Only graph curves support
        residues; any other curve raises on every read."""
        F = self.field
        for i in (0, 1):
            v = (1, 0) if i == 0 else (0, 1)
            if [exp for exp in self.pi.coeffs if exp[i]] == [v]:
                rest = {exp[1 - i]: c for exp, c in self.pi.coeffs.items() if not exp[i]}
                scale = F._mul[F.neg(F.inv(self.pi.coeffs[v]))]
                g = [scale[rest.get(k, 0)] for k in range(max(rest, default=-1) + 1)]
                return i, [[1], g]
        raise UnsupportedResidue(
            f"residues along {self.pi} need a graph curve (linear in one variable)"
        )

    @property
    def residue_var(self) -> str:
        i, _ = self._graph
        return self.vars[1 - i]

    def _restrict(self, p: Poly) -> list[int]:
        """p on the curve, as a dense list in w: each term c*v^a*w^b adds
        c*g^a, shifted by b."""
        i, powers = self._graph
        F = self.field
        add, mul = F._add, F._mul
        out = [0] * (max(len(powers[1]) - 1, 1) * p.degree() + 1)  # trailing zeros allowed
        for exp, c in p.coeffs.items():
            a, b = exp[i], exp[1 - i]
            while len(powers) <= a:
                powers.append(_dense_mul(F, powers[-1], powers[1]))
            mc = mul[c]
            for k, x in enumerate(powers[a], b):
                if x:
                    out[k] = add[out[k]][mc[x]]
        return out

    def unit_residue(self, f: RationalFn) -> tuple[int, RationalFn]:
        """(v, r): the value v of f and the restriction r of its unit part
        f / pi^v to the curve, an element of F_q(w) for the surviving
        coordinate w.  One multiplicity pass on num and den leaves the
        cofactors, and r is the quotient of their restrictions, reduced
        on dense lists."""
        if not f:
            raise InvalidInput("the zero element has no value")
        a, num = multiplicity(f.num, self.pi)
        b, den = multiplicity(f.den, self.pi)
        den = self._restrict(den)
        if not any(den):
            raise AssertionError("curve divides the denominator after cancellation")
        return a - b, RationalFn._of_dense(self.field, self.residue_var, self._restrict(num), den)


class CompositePlace(_Place):
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
        return isinstance(other, CompositePlace) and (self.curve, self.point) == (other.curve, other.point)

    def __hash__(self) -> int:
        return hash(("composite", self.curve, self.point))

    def val(self, f: RationalFn) -> tuple[int, int]:
        m, r = self.curve.unit_residue(f)
        return (m, self.point.val(r))


# -- shared operations -------------------------------------------------


def valuation_flag_structure(place, S: EmbeddedSubspace) -> FlagVerdict:
    """The valuation restricted to a finite subspace, judged as a map."""
    values = [place.val(f) for f in S.functions]
    return is_flag_map(S.geometry, values)


def ultrametric_ok(places, f: RationalFn, g: RationalFn) -> list[bool | None]:
    """Triangle inequality for one pair of nonzero functions at each place
    of F_q(t); None at every place when f+g = 0 (no value).  f+g is read
    as the unreduced (a d + c b)/(b d) of the dense parts a/b of f and c/d
    of g, the parts `RationalFn.__add__` reduces: a value does not depend
    on the representative, so no gcd is taken.  Every place reads the
    three quotients through `val_dense`."""
    if not (f and g):
        raise InvalidInput("the zero element has no value")
    f._coerce(g)  # refuses mixed domains
    (a, b), (c, d) = f.dense_parts(), g.dense_parts()
    s = _dense_sum(f.field, a, b, c, d)
    if not s[0]:
        return [None] * len(places)
    values = ([place.val_dense(num, den) for num, den in ((a, b), (c, d), s)] for place in places)
    return [vs >= min(vf, vg) and (vf == vg or vs == min(vf, vg)) for vf, vg, vs in values]


def degree_sum(f: RationalFn, *more: RationalFn) -> int:
    """Sum of deg(place) * val(place, h) over all places of F_q(t), for h
    the product of f and `more`; 0 for every nonzero h.

    Recomputed place by place with repeated exact division, so it
    cross-checks the factorization route.  h is read as the unreduced
    quotient of the products of the dense numerators and denominators,
    with no gcd, and the sum is D(num) - D(den) for D(a) = -deg a + the
    sum of deg P * v_P(a) over the places P of a's irreducible factors:
    each part is split at its own places alone.
    """
    if len(f.vars) != 1:
        raise InvalidInput("the degree formula is univariate-only")
    if not (f and all(more)):
        raise InvalidInput("the zero element has no divisor")
    F, var = f.field, f.vars[0]
    parts = [f._coerce(g).dense_parts() for g in (f, *more)]  # refuses mixed domains
    total = 0
    for sign, dense in zip((1, -1), zip(*parts)):
        a = reduce(lambda x, y: tuple(_dense_mul(F, x, y)), dense)
        total += sign * (1 - len(a))  # -deg a, the value of a at infinity
        for pi, _ in factor_univariate(F, var, a)[1]:
            place = place_of(pi)
            total += sign * place.degree * place._split(a)[0]
    return total


# -- serialization -----------------------------------------------------


def serialize_place(place) -> str:
    if isinstance(place, FinitePlace):
        return f"finite:{place.pi}"
    if isinstance(place, InfinitePlace):
        return "infinite"
    if isinstance(place, DivisorialCurve):
        return f"curve:{place.pi}"
    if isinstance(place, CompositePlace):
        return f"composite:{place.curve.pi}|{serialize_place(place.point).removeprefix('finite:')}"
    raise InvalidInput(f"not a place: {place!r}")


def parse_place(field: FiniteField, text: str, vars: tuple[str, ...]):
    """Inverse of serialize_place, e.g. `finite:t^2+1` or `composite:x|y`.

    The one route from outside input to a finite place: the modulus of a
    `finite:` spec, and of the point of a `composite:` spec, is proved
    univariate, monic and irreducible here.
    """
    text = text.strip()
    if text == "infinite":
        if len(vars) != 1:
            raise InvalidInput("the infinite place is univariate-only")
        return InfinitePlace(field, vars[0])
    if ":" not in text:
        raise InvalidInput(f"bad place spec {text!r}")
    kind, _, body = text.partition(":")
    curve = None
    if kind == "finite":
        pi = Poly.parse(field, body, vars)
    elif kind == "curve":
        return DivisorialCurve(Poly.parse(field, body, vars))
    elif kind == "composite":
        if "|" not in body:
            raise InvalidInput("composite places are written curve|point")
        curve_text, _, point_text = body.partition("|")
        curve = DivisorialCurve(Poly.parse(field, curve_text, vars))
        rvar = curve.residue_var
        if point_text.strip() == "infinite":
            return CompositePlace(curve, InfinitePlace(field, rvar))
        pi = Poly.parse(field, point_text, (rvar,))
    else:
        raise InvalidInput(f"unknown place kind {kind!r}")
    if len(pi.vars) != 1:
        raise InvalidInput("finite places are univariate")
    if pi.leading_coeff() != 1 or not is_irreducible(pi):
        raise InvalidInput(f"{pi} is not monic irreducible")
    point = FinitePlace(pi)
    return point if curve is None else CompositePlace(curve, point)
