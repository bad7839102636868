"""Places, valuations, residues, serialization."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagval.errors import FlagvalError, InvalidInput, NotAUnit, UnsupportedResidue
from flagval.ff import FiniteField
from flagval.fields import INF, RationalFn, to_divisor
from flagval.poly import (
    Poly,
    divide_exact,
    factor_univariate,
    is_irreducible,
    monic_irreducibles,
    multiplicity,
)
from flagval.projspace import EmbeddedSubspace
from flagval.valuations import (
    CompositePlace,
    DivisorialCurve,
    FinitePlace,
    InfinitePlace,
    QuotientRing,
    degree_sum,
    parse_place,
    serialize_place,
    ultrametric_ok,
    valuation_flag_structure,
)

F3 = FiniteField(3)
F5 = FiniteField(5)
T = ("t",)
XY = ("x", "y")


def rt(text, field=F3):
    return RationalFn.parse(field, text, T)


def rxy(text, field=F3):
    return RationalFn.parse(field, text, XY)


def test_finite_place_values():
    p = FinitePlace(Poly.parse(F3, "t", T))
    assert p.val(rt("t^2+t")) == 1
    assert p.val(rt("t^2/t+1")) == 2
    assert p.val(rt("t+1/t^2")) == -2
    assert p.val(rt("t+1")) == 0
    assert p.degree == 1
    with pytest.raises(InvalidInput):
        p.val(RationalFn.constant(F3, T, 0))


def test_finite_place_residue():
    p = FinitePlace(Poly.parse(F3, "t", T))
    # a unit's residue is its value at the point
    assert p.unit_residue(rt("t+2/t+1")) == (0, 2)
    assert p.unit_residue(rt("t")) == (1, 1)


def _ring_cases():
    """Residue rings with an exhaustive (None) or seeded pair sample."""
    F49 = FiniteField(49)
    yield FinitePlace(Poly.parse(F3, "t^2+1", T)).ring, None
    yield FinitePlace(Poly.parse(FiniteField(2), "t^3+t+1", T)).ring, None
    quadratics = (Poly.from_dense(F49, "t", [c, 0, 1]) for c in range(1, 49))
    yield FinitePlace(next(p for p in quadratics if is_irreducible(p))).ring, random.Random(49)


def test_quotient_ring_matches_polynomial_arithmetic():
    # ring products and reductions lifted to Poly differ from the plain
    # polynomial product by a multiple of the modulus
    for ring, rng in _ring_cases():
        F, d, pi = ring.field, ring.d, ring.modulus
        elems = [tuple(c) for c in itertools.product(F.elements(), repeat=d)]
        if rng is None:
            pairs = [(a, b) for a in elems for b in elems]
        else:
            pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(300)]

        def lift(a):
            return Poly.from_dense(F, "t", list(a))

        for a, b in pairs:
            c = ring.mul(a, b)
            assert len(c) == d
            assert divide_exact(lift(a) * lift(b) - lift(c), pi) is not None, (a, b, c)
            big = lift(a) * lift(b) * lift(b)
            r = ring.from_poly(big)
            assert len(r) == d
            assert divide_exact(big - lift(r), pi) is not None, (a, b, r)


def test_finite_place_deg2():
    pi = Poly.parse(F3, "t^2+1", T)
    p = FinitePlace(pi)
    assert p.degree == 2
    assert p.val(rt("t^2+1/t")) == 1
    assert p.val(rt("t^4+2*t^2+1")) == 2
    # the residue of t generates the quadratic residue ring
    v, r = p.unit_residue(rt("t"))
    assert v == 0 and p.ring is not None
    assert p.ring.mul(r, r) == (2, 0)  # t^2 = -1 mod t^2+1
    with pytest.raises(InvalidInput):
        FinitePlace(Poly.parse(F3, "t^2+2", T))  # reducible
    with pytest.raises(InvalidInput):
        FinitePlace(Poly.parse(F3, "2*t+1", T))  # not monic


def test_unit_residues():
    p = FinitePlace(Poly.parse(F3, "t", T))
    # t^2 (t+2) / (t+1): value 2, unit part (t+2)/(t+1) = 2 at t = 0
    assert p.unit_residue(rt("t^3+2*t^2/t+1")) == (2, 2)
    assert p.unit_residue(rt("t+1/t")) == (-1, 1)
    q2 = FinitePlace(Poly.parse(F3, "t^2+1", T))
    v, r = q2.unit_residue(rt("t^3+t/t+1"))  # t (t^2+1) / (t+1)
    assert (v, r) == (1, q2.unit_residue(rt("t/t+1"))[1])
    inf = InfinitePlace(F3, "t")
    assert inf.unit_residue(rt("2*t^2+1/t+2")) == (-1, 2)
    with pytest.raises(InvalidInput):
        inf.unit_residue(RationalFn.constant(F3, T, 0))


def test_quotient_ring_pow_of_zero():
    ring = QuotientRing(Poly.parse(F3, "t^2+1", T))
    zero = ring.zero
    # 8 = order - 1: the unit-group reduction must not turn 0^8 into 1
    for n in (1, 2, 8, 16):
        assert ring.pow(zero, n) == zero
    assert ring.pow(zero, 0) == ring.one
    with pytest.raises(ZeroDivisionError):
        ring.pow(zero, -1)
    t = ring.from_poly(Poly.parse(F3, "t", T))
    assert ring.pow(t, 8) == ring.one
    assert ring.mul(ring.pow(t, -1), t) == ring.one


def _inv_agrees(ring, a):
    inv = ring.inv(a)
    assert len(inv) == ring.d
    assert ring.mul(a, inv) == ring.one
    # Euclid against the exponentiation it replaced: a^(q^d - 2)
    assert inv == ring.pow(a, ring.order - 2)


@pytest.mark.parametrize("q,modulus", [(3, "t^2+1"), (2, "t^3+t+1")])
def test_quotient_ring_inv_every_unit(q, modulus):
    ring = QuotientRing(Poly.parse(FiniteField(q), modulus, T))
    units = [a for a in itertools.product(range(q), repeat=ring.d) if a != ring.zero]
    assert len(units) == ring.order - 1
    for a in units:
        _inv_agrees(ring, a)
    with pytest.raises(ZeroDivisionError):
        ring.inv(ring.zero)


def test_quotient_ring_inv_gf49_quadratics():
    rng = random.Random(49)
    moduli = [pi for pi in monic_irreducibles(49, "t", 2) if pi.degree() == 2]
    for _ in range(300):
        ring = QuotientRing._of_factor(rng.choice(moduli))
        a = (rng.randrange(49), rng.randrange(1, 49))  # nonzero: a unit
        _inv_agrees(ring, a)


@pytest.mark.parametrize("q,max_deg", [(2, 3), (3, 3), (4, 3), (49, 2)])
def test_trusted_place_equals_validated(q, max_deg):
    for pi in monic_irreducibles(q, "t", max_deg):
        _, parts = factor_univariate(pi)
        (g,) = parts
        a, b = FinitePlace(pi), FinitePlace._of_factor(g)
        assert a == b
        assert (a.pi, a.degree, a.root) == (b.pi, b.degree, b.root)
        if a.degree == 1:
            assert a.ring is None and b.ring is None
            assert pi.evaluate((a.root,)) == 0
        else:
            assert a.root is None and b.root is None
            assert a.ring.modulus == b.ring.modulus == pi
            assert (a.ring.d, a.ring.order) == (b.ring.d, b.ring.order) == (pi.degree(), q ** pi.degree())


def _first_route(pi, f, residue_of):
    """(v, r) of f at the place pi by the first route: multiplicity on
    num and den, then residue_of the cofactors' quotient."""
    a, num = multiplicity(f.num, pi)
    b, den = multiplicity(f.den, pi)
    return a - b, residue_of(num, den)


def _first_route_residues(pi):
    """The first route's residue map at pi: the cofactors evaluated at a
    root found by search (degree one), or reduced in a validated ring."""
    F = pi.field
    if pi.degree() == 1:
        (root,) = [(x,) for x in F.elements() if pi.evaluate((x,)) == 0]
        return lambda num, den: F.div(num.evaluate(root), den.evaluate(root))
    ring = QuotientRing(pi)
    return lambda num, den: ring.mul(ring.from_poly(num), ring.inv(ring.from_poly(den)))


def _same_as_first_route(places, fns):
    for place in places:
        residue_of = _first_route_residues(place.pi)
        for f in fns:
            v, r = place.unit_residue(f)
            assert (v, r) == _first_route(place.pi, f, residue_of), (str(f), str(place.pi))
            assert place.val(f) == v


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_place_values_match_repeated_division_exhaustive(q):
    """Horner at degree-one places and dense division at degree two,
    against the first route, at every place of degree <= 2: every nonzero
    p of degree <= 5 as a numerator (p / 1) and every monic one as a
    denominator (1 / p; 1 / cp has the same denominator)."""
    F = FiniteField(q)
    places = [FinitePlace._of_factor(pi) for pi in monic_irreducibles(q, "t", 2)]
    one = Poly.constant(F, T, 1)
    fns = []
    for dense in itertools.product(range(q), repeat=6):
        p = Poly.from_dense(F, "t", list(dense))
        if p:
            fns.append(RationalFn(p, one))
            if p.leading_coeff() == 1:
                fns.append(RationalFn(one, p))
    _same_as_first_route(places, fns)


def test_place_values_match_repeated_division_sampled_f49():
    F = FiniteField(49)
    rng = random.Random(49)
    for pi in rng.sample(monic_irreducibles(49, "t", 2), 12):
        fns = []
        for _ in range(15):
            num, den = (
                pi ** rng.randint(0, 2) * Poly.from_dense(F, "t", [rng.randrange(49) for _ in range(4)])
                for _ in "nd"
            )
            if num and den:
                fns.append(RationalFn(num, den))
        _same_as_first_route([FinitePlace._of_factor(pi)], fns)


def test_place_and_ring_refuse_bad_moduli():
    for text in ["t^2+2", "2*t+1", "2*t^2+2", "1"]:  # reducible, non-monic, constant
        m = Poly.parse(F3, text, T)
        with pytest.raises(InvalidInput):
            FinitePlace(m)
        with pytest.raises(InvalidInput):
            QuotientRing(m)
    m = Poly.parse(F3, "x+y", XY)
    with pytest.raises(InvalidInput):
        FinitePlace(m)
    with pytest.raises(InvalidInput):
        QuotientRing(m)


def test_validated_place_factors_once(monkeypatch):
    from flagval import poly

    calls = []
    real = poly.factor_univariate

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(poly, "factor_univariate", counting)
    p = FinitePlace(Poly.parse(F3, "t^2+1", T))
    assert p.ring is not None
    assert len(calls) == 1


def test_infinite_place():
    p = InfinitePlace(F3, "t")
    assert p.val(rt("t")) == -1
    assert p.val(rt("1/t^3")) == 3
    assert p.val(rt("t+1/t+2")) == 0
    assert p.unit_residue(rt("2*t+1/t+2")) == (0, 2)  # leading coefficient ratio
    assert p.degree == 1


def test_divisorial_curve_graph():
    c = DivisorialCurve(Poly.parse(F3, "x", XY))
    assert c.residue_var == "y"
    assert c.val(rxy("x^2*y+x^2")) == 2
    assert c.val(rxy("y+1")) == 0
    assert c.val(rxy("1/x")) == -1
    r = c.residue(rxy("y+1"))
    assert r == RationalFn.parse(F3, "y+1", ("y",))
    c2 = DivisorialCurve(Poly.parse(F3, "x^2+2*y", XY))
    assert c2.residue_var == "x"  # solves for y = x^2 (graph over x)
    assert c2.val(rxy("x^2+2*y")) == 1
    # substitute y -> x^2: y + 1 restricts to x^2 + 1
    assert c2.residue(rxy("y+1")) == RationalFn.parse(F3, "x^2+1", ("x",))
    with pytest.raises(NotAUnit):
        c.residue(rxy("x"))


def test_divisorial_curve_rejects_nongraph():
    with pytest.raises(UnsupportedResidue):
        DivisorialCurve(Poly.parse(F3, "x^2+y^2+1", XY)).residue(rxy("y"))


def test_composite_place_lex():
    c = DivisorialCurve(Poly.parse(F3, "x", XY))
    pt = FinitePlace(Poly.parse(F3, "y", ("y",)))
    comp = CompositePlace(c, pt)
    assert comp.val(rxy("x")) == (1, 0)
    assert comp.val(rxy("y")) == (0, 1)
    assert comp.val(rxy("x*y^2")) == (1, 2)
    # lexicographic comparison puts any curve-positive below point-positive
    assert comp.val(rxy("y")) < comp.val(rxy("x"))
    assert comp.val(rxy("y+1")) == (0, 0)


def test_ultrametric_fixed():
    p = FinitePlace(Poly.parse(F3, "t", T))
    assert ultrametric_ok(p, rt("t"), rt("t^2")) is True
    assert ultrametric_ok(p, rt("t"), rt("2*t")) is None  # sum is zero
    assert ultrametric_ok(p, rt("t+1"), rt("t+2")) is True


@settings(max_examples=60)
@given(st.data())
def test_ultrametric_random(data):
    places = [
        FinitePlace(Poly.parse(F3, "t", T)),
        FinitePlace(Poly.parse(F3, "t^2+1", T)),
        InfinitePlace(F3, "t"),
    ]
    dense = st.lists(st.integers(0, 2), min_size=1, max_size=4)

    def fn():
        n = Poly.from_dense(F3, "t", data.draw(dense))
        d = Poly.from_dense(F3, "t", data.draw(dense))
        if not n or not d:
            return None
        return RationalFn(n, d)

    f, g = fn(), fn()
    if f is None or g is None:
        return
    for p in places:
        assert ultrametric_ok(p, f, g) is not False
        # strict version: equality whenever the two values differ
        s = f + g
        if s and p.val(f) != p.val(g):
            assert p.val(s) == min(p.val(f), p.val(g))


def test_degree_sum_zero():
    for text in ["t", "t+1/t^2", "2*t^3+t/t+2", "t^2+1"]:
        assert degree_sum(rt(text)) == 0
        assert degree_sum(rt(text, F5)) == 0
    with pytest.raises(InvalidInput):
        degree_sum(rxy("x"))
    with pytest.raises(InvalidInput):
        degree_sum(RationalFn.constant(F3, T, 0))


def _check_places_against_divisor(f):
    d = to_divisor(f)
    for g in d.support():
        place = InfinitePlace(f.field, f.vars[0]) if g == INF else FinitePlace(g)
        assert place.val(f) == d.exponent(g), (str(f), str(g))
    assert degree_sum(f) == d.deg_sum() + d.exponent(INF) == 0, str(f)


def test_place_values_match_divisor_exhaustive_f3():
    # repeated division at each place against the factorisation route,
    # on every a/b with a, b nonzero of degree <= 2 over GF(3)
    polys = [Poly.from_dense(F3, "t", [a, b, c]) for a in range(3) for b in range(3) for c in range(3)]
    polys = [p for p in polys if p]
    for a in polys:
        for b in polys:
            _check_places_against_divisor(RationalFn(a, b))


def test_place_values_match_divisor_sampled_f4():
    import random

    F4 = FiniteField(4)
    rng = random.Random(4)
    for _ in range(200):
        parts = []
        while len(parts) < 2:
            p = Poly.from_dense(F4, "t", [rng.randrange(4) for _ in range(rng.randint(1, 4))])
            if p:
                parts.append(p)
        _check_places_against_divisor(RationalFn(*parts))


def test_valuation_flag_structure():
    one = RationalFn.constant(F3, XY, 1)
    x = rxy("x")
    y = rxy("y")
    c = DivisorialCurve(Poly.parse(F3, "x", XY))
    v = valuation_flag_structure(c, EmbeddedSubspace([one, x]))
    assert v.is_flag and v.chain is not None
    v = valuation_flag_structure(c, EmbeddedSubspace([one, x, y]))
    assert v.is_flag
    p = FinitePlace(Poly.parse(F3, "t", T))
    lt = EmbeddedSubspace([RationalFn.constant(F3, T, 1), rt("t")])
    assert valuation_flag_structure(p, lt).is_flag


def test_place_serialization_roundtrip():
    places = [
        FinitePlace(Poly.parse(F3, "t", T)),
        FinitePlace(Poly.parse(F3, "t^2+1", T)),
        InfinitePlace(F3, "t"),
    ]
    for p in places:
        assert parse_place(F3, serialize_place(p), T) == p
    c = DivisorialCurve(Poly.parse(F3, "x^2+2*y", XY))
    assert serialize_place(c) == "curve:x^2+2*y"
    assert parse_place(F3, "curve:x^2+2*y", XY) == c
    comp = CompositePlace(
        DivisorialCurve(Poly.parse(F3, "x", XY)),
        FinitePlace(Poly.parse(F3, "y+1", ("y",))),
    )
    assert serialize_place(comp) == "composite:x|y+1"
    assert parse_place(F3, "composite:x|y+1", XY) == comp
    comp_inf = parse_place(F3, "composite:x|infinite", XY)
    assert isinstance(comp_inf.point, InfinitePlace)


_PARSE_TOKENS = list("xyt0123456789+-^*:|() ") + ["finite:", "curve:", "composite:", "infinite"]


@settings(max_examples=400, deadline=2000)
@given(
    st.lists(st.sampled_from(_PARSE_TOKENS), max_size=16).map("".join),
    st.sampled_from([2, 3, 4]),
    st.sampled_from([T, XY]),
)
def test_parse_fuzz_returns_or_refuses(text, q, vars):
    # any text either parses or is refused with a FlagvalError, promptly:
    # another exception, or a hang on a huge exponent, is a bug
    F = FiniteField(q)
    for parse in (Poly.parse, parse_place):
        try:
            parse(F, text, vars)
        except FlagvalError:
            pass


def test_parse_place_errors():
    with pytest.raises(InvalidInput):
        parse_place(F3, "nowhere", T)
    with pytest.raises(InvalidInput):
        parse_place(F3, "orbit:t", T)
    with pytest.raises(InvalidInput):
        parse_place(F3, "infinite", XY)  # univariate-only
    with pytest.raises(InvalidInput):
        parse_place(F3, "composite:x", XY)  # missing point part
