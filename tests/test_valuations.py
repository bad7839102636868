"""Places, valuations, residues, splittings, serialization."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagval.errors import FlagvalError, InvalidInput, NotAUnit, UnsupportedResidue, UnsupportedValueGroup
from flagval.ff import FiniteField
from flagval.fields import INF, RationalFn, to_divisor
from flagval.poly import Poly, divide_exact, is_irreducible
from flagval.projspace import EmbeddedSubspace
from flagval.valuations import (
    CompositePlace,
    DivisorialCurve,
    FinitePlace,
    InfinitePlace,
    degree_sum,
    make_splitting,
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
    assert p.val(p.uniformizer()) == 1
    with pytest.raises(InvalidInput):
        p.val(RationalFn.constant(F3, T, 0))


def test_finite_place_residue():
    p = FinitePlace(Poly.parse(F3, "t", T))
    # a unit's residue is its value at the point
    assert p.residue(rt("t+2/t+1")) == 2
    with pytest.raises(NotAUnit):
        p.residue(rt("t"))


def _ring_cases():
    """Residue rings with an exhaustive (None) or seeded pair sample."""
    import random

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
    r = p.residue(rt("t"))
    assert p.ring is not None
    assert p.ring.mul(r, r) == p.ring.constant(2)  # t^2 = -1 mod t^2+1
    with pytest.raises(InvalidInput):
        FinitePlace(Poly.parse(F3, "t^2+2", T))  # reducible
    with pytest.raises(InvalidInput):
        FinitePlace(Poly.parse(F3, "2*t+1", T))  # not monic


def test_infinite_place():
    p = InfinitePlace(F3, "t")
    assert p.val(rt("t")) == -1
    assert p.val(rt("1/t^3")) == 3
    assert p.val(rt("t+1/t+2")) == 0
    assert p.residue(rt("2*t+1/t+2")) == 2  # leading coefficient ratio
    assert p.val(p.uniformizer()) == 1
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


def test_make_splitting():
    p = FinitePlace(Poly.parse(F3, "t^2+1", T))
    s = make_splitting(p)
    assert p.val(s.section(5)) == 5
    assert s.section(2) * s.section(3) == s.section(5)
    c = DivisorialCurve(Poly.parse(F3, "x", XY))
    pt = FinitePlace(Poly.parse(F3, "y", ("y",)))
    with pytest.raises(UnsupportedValueGroup):
        make_splitting(CompositePlace(c, pt))


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
