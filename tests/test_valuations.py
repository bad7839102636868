"""Places, valuations, residues, serialization."""

import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagval.errors import FlagvalError, InvalidInput, UnsupportedResidue
from flagval.ff import FiniteField
from flagval.fields import INF, RationalFn, to_divisor
from flagval import poly as poly_module
from flagval.poly import (
    Poly,
    _multiplicity_dense,
    _root_multiplicity,
    divide_exact,
    factor,
    is_irreducible,
    monic_irreducibles,
    multiplicity,
)
from flagval.projspace import EmbeddedSubspace
from flagval.valuations import (
    SPLIT_MEMO_SIZE,
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

from conftest import assert_counts_under_hash_seeds, evaluate, reduce_poly, unit_residue

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
    assert unit_residue(p, rt("t+2/t+1")) == (0, 2)
    assert unit_residue(p, rt("t")) == (1, 1)


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
            r = reduce_poly(ring, big)
            assert len(r) == d
            assert divide_exact(big - lift(r), pi) is not None, (a, b, r)


def test_finite_place_deg2():
    pi = Poly.parse(F3, "t^2+1", T)
    p = FinitePlace(pi)
    assert p.degree == 2
    assert p.val(rt("t^2+1/t")) == 1
    assert p.val(rt("t^4+2*t^2+1")) == 2
    # the residue of t generates the quadratic residue ring
    v, r = unit_residue(p, rt("t"))
    assert v == 0 and isinstance(p.ring, QuotientRing)
    assert p.ring.mul(r, r) == (2, 0)  # t^2 = -1 mod t^2+1
    with pytest.raises(InvalidInput, match="is not monic irreducible"):
        parse_place(F3, "finite:t^2+2", T)  # reducible
    with pytest.raises(InvalidInput, match="is not monic irreducible"):
        parse_place(F3, "finite:2*t+1", T)  # not monic


def test_unit_residues():
    p = FinitePlace(Poly.parse(F3, "t", T))
    # t^2 (t+2) / (t+1): value 2, unit part (t+2)/(t+1) = 2 at t = 0
    assert unit_residue(p, rt("t^3+2*t^2/t+1")) == (2, 2)
    assert unit_residue(p, rt("t+1/t")) == (-1, 1)
    q2 = FinitePlace(Poly.parse(F3, "t^2+1", T))
    v, r = unit_residue(q2, rt("t^3+t/t+1"))  # t (t^2+1) / (t+1)
    assert (v, r) == (1, unit_residue(q2, rt("t/t+1"))[1])
    inf = InfinitePlace(F3, "t")
    assert unit_residue(inf, rt("2*t^2+1/t+2")) == (-1, 2)
    with pytest.raises(InvalidInput):
        inf.val(RationalFn.constant(F3, T, 0))


def test_quotient_ring_pow_of_zero():
    ring = QuotientRing(Poly.parse(F3, "t^2+1", T))
    zero = ring.zero
    # 8 = order - 1: the unit-group reduction must not turn 0^8 into 1
    for n in (1, 2, 8, 16):
        assert ring.pow(zero, n) == zero
    assert ring.pow(zero, 0) == ring.one
    with pytest.raises(ZeroDivisionError):
        ring.pow(zero, -1)
    t = reduce_poly(ring, Poly.parse(F3, "t", T))
    assert ring.pow(t, 8) == ring.one
    assert ring.mul(ring.pow(t, -1), t) == ring.one


def test_residue_fields_share_one_interface():
    # every place of F_q(t) carries its residue field as `ring`, with one,
    # mul, pow, neg and norm: F_q itself at degree-one and infinite places
    F9 = FiniteField(9)
    assert InfinitePlace(F9, "t").ring is F9
    assert FinitePlace(Poly.parse(F9, "t+3", T)).ring is F9
    assert F9.one == 1 and [F9.norm(a) for a in F9.elements()] == list(F9.elements())
    ring = QuotientRing(Poly.parse(F3, "t^2+1", T))
    elements = list(itertools.product(range(3), repeat=2))
    for a in elements:
        assert tuple(F3.add(x, y) for x, y in zip(a, ring.neg(a))) == ring.zero
        for b in elements:
            assert ring.norm(ring.mul(a, b)) == F3.mul(ring.norm(a), ring.norm(b))
    assert [ring.norm((c, 0)) for c in range(3)] == [0, 1, 1]  # c^2
    assert ring.norm((0, 1)) == 1  # t * t^3 = t^4 = 1 mod t^2+1


def _frobenius_norm(ring, a):
    """The norm as the product of the d Frobenius conjugates a^(q^i),
    each a q-th power by repeated squaring: the route that
    `QuotientRing.norm` replaced."""
    if a == ring.zero:
        return 0
    out = b = a
    for _ in range(ring.d - 1):
        b = ring.pow(b, ring.field.q)
        out = ring.mul(out, b)
    assert not any(out[1:]), "norm left the base field"
    return out[0]


def _norm_and_residue_agree(place, a):
    """Res(pi, a) against the Frobenius product, and the residue that
    `_split` reads off its last remainder against the cofactor reduced
    by one more division."""
    ring = place.ring
    F = ring.field
    norm = ring.norm(a)
    assert norm == _frobenius_norm(ring, a) and norm in range(F.q), (str(place.pi), a)
    if a == ring.zero:
        return
    # a cofactor of class a that is not reduced yet, times pi^k
    cofactor = Poly.from_dense(F, "t", list(a)) + place.pi * Poly.from_dense(F, "t", [a[0], 1])
    k = sum(a) % 3
    k_split, residue = place._split((cofactor * place.pi**k).to_dense())
    assert (k_split, residue) == (k, ring._reduce(cofactor.to_dense()))
    assert residue == a


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_norm_is_the_frobenius_product_every_element(q):
    # every element of every residue ring of degree 2 and 3
    for pi in monic_irreducibles(q, "t", 3):
        if pi.degree() >= 2:
            place = FinitePlace(pi)
            for a in itertools.product(range(q), repeat=pi.degree()):
                _norm_and_residue_agree(place, a)


def test_norm_is_the_frobenius_product_gf49_quadratics():
    rng = random.Random(4900)
    moduli = [pi for pi in monic_irreducibles(49, "t", 2) if pi.degree() == 2]
    for pi in rng.sample(moduli, 20):
        place = FinitePlace(pi)
        for _ in range(20):
            _norm_and_residue_agree(place, (rng.randrange(49), rng.randrange(49)))


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
        ring = QuotientRing(rng.choice(moduli))
        a = (rng.randrange(49), rng.randrange(1, 49))  # nonzero: a unit
        _inv_agrees(ring, a)


def _negative_powers_agree(ring, a):
    # inverse first, against the Fermat route a^(order - 1 - n), the
    # exponent k = 1 of (order - 1) k - n: every ring here has order > 5
    for n in range(1, 5):
        assert ring.pow(a, -n) == ring.pow(a, ring.order - 1 - n)


@pytest.mark.parametrize("q,modulus", [(3, "t^2+1"), (2, "t^3+t+1"), (7, "t^2+1")])
def test_quotient_ring_negative_powers_every_unit(q, modulus):
    ring = QuotientRing(Poly.parse(FiniteField(q), modulus, T))
    for a in itertools.product(range(q), repeat=ring.d):
        if a != ring.zero:
            _negative_powers_agree(ring, a)
    for n in range(1, 5):
        with pytest.raises(ZeroDivisionError):
            ring.pow(ring.zero, -n)


def test_quotient_ring_negative_powers_gf49_quadratics():
    rng = random.Random(4949)
    moduli = [pi for pi in monic_irreducibles(49, "t", 2) if pi.degree() == 2]
    for _ in range(200):
        ring = QuotientRing(rng.choice(moduli))
        _negative_powers_agree(ring, (rng.randrange(49), rng.randrange(1, 49)))
    with pytest.raises(ZeroDivisionError):
        ring.pow(ring.zero, -1)


@pytest.mark.parametrize("q,max_deg", [(2, 3), (3, 3), (4, 3), (49, 2)])
def test_trusted_place_equals_validated(q, max_deg):
    # the trusted place of a factor against the place parse_place proves
    for pi in monic_irreducibles(q, "t", max_deg):
        _, parts = factor(pi)
        (g,) = parts
        a, b = parse_place(FiniteField(q), f"finite:{pi}", T), FinitePlace(g)
        assert a == b
        assert (a.pi, a.degree, a.root) == (b.pi, b.degree, b.root)
        if a.degree == 1:
            assert a.ring is b.ring is FiniteField(q)
            assert evaluate(pi, (a.root,)) == 0
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
        (root,) = [(x,) for x in F.elements() if evaluate(pi, (x,)) == 0]
        return lambda num, den: F.div(evaluate(num, root), evaluate(den, root))
    ring = QuotientRing(pi)
    return lambda num, den: ring.mul(reduce_poly(ring, num), ring.inv(reduce_poly(ring, den)))


def _same_as_first_route(places, fns):
    for place in places:
        residue_of = _first_route_residues(place.pi)
        for f in fns:
            v, r = unit_residue(place, f)
            assert (v, r) == _first_route(place.pi, f, residue_of), (str(f), str(place.pi))
            assert place.val(f) == v


def _exhaustive_fns(F):
    """Every nonzero p of degree <= 5 as a numerator (p / 1) and every
    monic one as a denominator (1 / p; 1 / cp has the same denominator)."""
    one = Poly.constant(F, T, 1)
    fns = []
    for dense in itertools.product(range(F.q), repeat=6):
        p = Poly.from_dense(F, "t", list(dense))
        if p:
            fns.append(RationalFn(p, one))
            if p.leading_coeff() == 1:
                fns.append(RationalFn(one, p))
    return fns


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_place_values_match_repeated_division_exhaustive(q):
    """Horner at degree-one places and dense division at degree two,
    against the first route, at every place of degree <= 2."""
    places = [FinitePlace(pi) for pi in monic_irreducibles(q, "t", 2)]
    _same_as_first_route(places, _exhaustive_fns(FiniteField(q)))


@pytest.mark.parametrize("q", [3, 5])
def test_dense_value_route_matches_repeated_division(q):
    """val and val_dense against the value by repeated division on the
    Polys (multiplicity on num and den; deg den - deg num at infinity), at
    every finite place of degree <= 2 and at the infinite place."""
    F = FiniteField(q)
    fns = _exhaustive_fns(F)
    for pi in monic_irreducibles(q, "t", 2):
        place = FinitePlace(pi)
        for f in fns:
            v = multiplicity(f.num, pi)[0] - multiplicity(f.den, pi)[0]
            assert place.val(f) == place.val_dense(f.num.to_dense(), f.den.to_dense()) == v
    place = InfinitePlace(F, "t")
    for f in fns:
        v = f.den.degree() - f.num.degree()
        assert place.val(f) == place.val_dense(f.num.to_dense(), f.den.to_dense()) == v


def _cold_split(place, a):
    """(k, u) of the nonzero dense list a by one division pass, with no
    memo: the kernels a cold place calls."""
    F = place.field
    if place.degree == 1:
        k, _, value = _root_multiplicity(F, list(a), place.root)
        return k, value
    k, _, r = _multiplicity_dense(F, list(a), place.ring._mod_dense)
    return k, place.ring._pad(r)


def _memo_agrees(pi, parts):
    """The memoised split of every part at the place of pi equals the cold
    one on first use, on a repeat (asked with a list) and after the part
    has been evicted; the memo never holds more than SPLIT_MEMO_SIZE."""
    place = FinitePlace(pi)
    q = place.field.q
    want = [_cold_split(place, a) for a in parts]
    assert [place._split(a) for a in parts] == want
    assert len(place._memo) <= SPLIT_MEMO_SIZE
    assert [place._split(list(a)) for a in parts] == want
    # SPLIT_MEMO_SIZE fresh parts of degree 8 push every earlier one out
    filler = [tuple(n // q**i % q for i in range(8)) + (1,) for n in range(SPLIT_MEMO_SIZE)]
    for a in filler:
        place._split(a)
    assert list(place._memo) == filler
    assert [place._split(a) for a in parts] == want
    assert len(place._memo) == SPLIT_MEMO_SIZE


@pytest.mark.parametrize("q", [2, 3])
def test_split_memo_matches_cold_splits_exhaustive(q):
    # every nonzero dense list of degree <= 4, at every place of degree <= 2
    parts = [
        a + (c,)
        for d in range(5)
        for a in itertools.product(range(q), repeat=d)
        for c in range(1, q)
    ]
    assert len(parts) == q**5 - 1
    for pi in monic_irreducibles(q, "t", 2):
        _memo_agrees(pi, parts)


def test_split_memo_matches_cold_splits_sampled_f49():
    # seeded parts of degree <= 4, many with a planted power of an
    # irreducible, at every place of degree <= 2 over GF(49)
    rng = random.Random(4949)
    places = monic_irreducibles(49, "t", 2)
    parts = []
    for _ in range(30):
        a = [rng.randrange(49) for _ in range(rng.randint(0, 2))] + [rng.randrange(1, 49)]
        while len(a) < 4:
            a = poly_module._dense_mul(FiniteField(49), a, rng.choice(places).to_dense())
        parts.append(tuple(a))
    for pi in places:
        _memo_agrees(pi, parts)


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
        _same_as_first_route([FinitePlace(pi)], fns)


def test_place_and_ring_refuse_bad_moduli():
    for text in ["t^2+2", "2*t+1", "2*t^2+2", "1"]:  # reducible, non-monic, constant
        with pytest.raises(InvalidInput, match="is not monic irreducible"):
            parse_place(F3, f"finite:{text}", T)
    # the point of a composite place is proved the same way
    with pytest.raises(InvalidInput, match="is not monic irreducible"):
        parse_place(F3, "composite:x|y^2+2", XY)
    with pytest.raises(InvalidInput, match="finite places are univariate"):
        parse_place(F3, "finite:x+y", XY)


def test_validated_place_factors_once(monkeypatch):
    from flagval import poly

    calls = []
    real = poly.factor_univariate

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(poly, "factor_univariate", counting)
    p = parse_place(F3, "finite:t^2+1", T)
    assert isinstance(p.ring, QuotientRing)
    assert len(calls) == 1
    comp = parse_place(F3, "composite:x|y^2+1", XY)
    assert isinstance(comp.point.ring, QuotientRing)
    assert len(calls) == 2


def test_infinite_place():
    p = InfinitePlace(F3, "t")
    assert p.val(rt("t")) == -1
    assert p.val(rt("1/t^3")) == 3
    assert p.val(rt("t+1/t+2")) == 0
    assert unit_residue(p, rt("2*t+1/t+2")) == (0, 2)  # leading coefficient ratio
    assert p.degree == 1


def test_divisorial_curve_graph():
    c = DivisorialCurve(Poly.parse(F3, "x", XY))
    assert c.residue_var == "y"
    assert c.val(rxy("x^2*y+x^2")) == 2
    assert c.val(rxy("y+1")) == 0
    assert c.val(rxy("1/x")) == -1
    assert c.unit_residue(rxy("y+1")) == (0, RationalFn.parse(F3, "y+1", ("y",)))
    c2 = DivisorialCurve(Poly.parse(F3, "x^2+2*y", XY))
    assert c2.residue_var == "x"  # solves for y = x^2 (graph over x)
    assert c2._graph is c2._graph  # made once per place
    assert c2.val(rxy("x^2+2*y")) == 1
    # substitute y -> x^2: y + 1 restricts to x^2 + 1
    assert c2.unit_residue(rxy("y+1")) == (0, RationalFn.parse(F3, "x^2+1", ("x",)))
    # a non-unit answers its value and the residue of its unit part
    assert c.unit_residue(rxy("x^2*y/y+1")) == (2, RationalFn.parse(F3, "y/y+1", ("y",)))
    with pytest.raises(InvalidInput):
        c.unit_residue(RationalFn.constant(F3, XY, 0))


def test_divisorial_curve_rejects_nongraph():
    # the curve constructs, and every residue read refuses
    c = DivisorialCurve(Poly.parse(F3, "x^2+y^2+1", XY))
    for _ in range(2):
        with pytest.raises(UnsupportedResidue):
            c.unit_residue(rxy("y"))


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
    assert ultrametric_ok([p], rt("t"), rt("t^2")) == [True]
    assert ultrametric_ok([p], rt("t"), rt("2*t")) == [None]  # sum is zero
    assert ultrametric_ok([p], rt("t+1"), rt("t+2")) == [True]
    with pytest.raises(InvalidInput):  # f+g = g is nonzero, but f has no value
        ultrametric_ok([p], rt("0"), rt("t"))


def _ultrametric_one_place(place, f, g):
    """The per-place check kept as the oracle: f+g built at each place."""
    s = f + g
    if not s:
        return None
    vf, vg, vs = place.val(f), place.val(g), place.val(s)
    if vs < min(vf, vg):
        return False
    if vf != vg and vs != min(vf, vg):
        return False
    return True


class _NumeratorDegree:
    """Not a valuation (deg num of 1/t + t is 2), so the check can fail."""

    def val(self, f):
        return f.num.degree()

    def val_dense(self, num, den):
        return len(num) - 1


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_ultrametric_matches_the_per_place_oracle(q):
    F = FiniteField(q)
    deg2 = next(p for p in monic_irreducibles(q, "t", 2) if p.degree() == 2)
    places = [
        FinitePlace(Poly.parse(F, "t", T)),
        FinitePlace(Poly.parse(F, "t+1", T)),
        FinitePlace(deg2),
        InfinitePlace(F, "t"),
        _NumeratorDegree(),
    ]
    rng = random.Random(1400 + q)

    def fn():
        parts = []
        while len(parts) < 2:
            p = Poly.from_dense(F, "t", [rng.randrange(q) for _ in range(rng.randint(1, 4))])
            if p:
                parts.append(p)
        return RationalFn(*parts)

    seen = set()
    for _ in range(150):
        f, g = fn(), fn()
        for a, b in ((f, g), (f, f), (f, -f), (f, f * g)):
            got = ultrametric_ok(places, a, b)
            assert got == [_ultrametric_one_place(p, a, b) for p in places]
            seen.update(got)
        assert ultrametric_ok(places, f, -f) == [None] * len(places)
    assert seen == {True, False, None}
    assert ultrametric_ok(places[-1:], rt("1/t"), rt("t")) == [False]


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
    for p, ok in zip(places, ultrametric_ok(places, f, g)):
        assert ok is not False
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
    for g in d.exps:
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


# -- curve residues against the uniformizer route -------------------------

# graph curve -> (eliminated variable, its image in the kept variable)
GRAPHS = {
    "x": ("x", "0", "y"),
    "x^2+y": ("y", "-x^2", "x"),
    "y^2+x": ("x", "-y^2", "y"),
    "x^2+x+y": ("y", "-x^2-x", "x"),
    "x^2+2*y": ("y", "x^2", "x"),  # over GF(3) only: 2y = -x^2
}


def _uniformizer_route(curve, text, f):
    """The first route to a curve residue: split the value off with the
    curve's equation as uniformizer, u = f * pi^-v, cancel pi from both
    parts of u (a product beyond the bivariate factoring window is not
    reduced), and restrict them to the curve by substituting the graph,
    written out by hand."""
    F = curve.field
    v = curve.val(f)
    u = f * RationalFn.from_poly(curve.pi) ** (-v)
    a, num = multiplicity(u.num, curve.pi)
    b, den = multiplicity(u.den, curve.pi)
    assert a == b
    gone, image, kept = GRAPHS[text]
    w = (kept,)
    images = {gone: Poly.parse(F, image, w), kept: Poly.variable(F, w, kept)}
    return v, RationalFn(num.substitute(images), den.substitute(images))


def _check_curve_residues(F, texts, fns):
    for text in texts:
        curve = DivisorialCurve(Poly.parse(F, text, XY))
        w = curve.residue_var
        points = [FinitePlace(Poly.parse(F, p, (w,))) for p in (w, f"{w}+1")] + [InfinitePlace(F, w)]
        composites = [CompositePlace(curve, p) for p in points]
        for k, f in enumerate(fns):
            v, r = _uniformizer_route(curve, text, f)
            assert curve.unit_residue(f) == (v, r), (text, str(f))
            # the composite's old route: the point's value on that residue
            comp = composites[k % 3]
            assert comp.val(f) == (v, comp.point.val(r)), (text, str(f), repr(comp))


def _bivariate_fractions(F, polys):
    seen = {}
    for a in polys:
        for b in polys:
            f = RationalFn(a, b)
            seen.setdefault((f.num, f.den), f)
    return list(seen.values())


def test_curve_residues_match_uniformizer_route_f2():
    # every a/b with a, b nonzero of total degree <= 2 over GF(2)
    F2 = FiniteField(2)
    monos = ["1", "x", "y", "x^2", "x*y", "y^2"]
    polys = [
        Poly.parse(F2, "+".join(m for m, bit in zip(monos, bits) if bit), XY)
        for bits in itertools.product((0, 1), repeat=6)
        if any(bits)
    ]
    fns = _bivariate_fractions(F2, polys)
    assert len(polys) == 63 and len(fns) > 1000
    _check_curve_residues(F2, ["x", "x^2+y", "y^2+x", "x^2+x+y"], fns)


def test_curve_residues_match_uniformizer_route_f3_sampled():
    # seeded a/b of total degree <= 2 over GF(3), times pi^k with k in -2..2
    rng = random.Random(3)
    monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def draw():
        while True:
            p = Poly(F3, XY, {m: rng.randrange(3) for m in monos})
            if p:
                return p

    for text in GRAPHS:
        pi = RationalFn.from_poly(Poly.parse(F3, text, XY))
        fns = [RationalFn(draw(), draw()) * pi ** rng.randint(-2, 2) for _ in range(60)]
        _check_curve_residues(F3, [text], fns)


@pytest.mark.parametrize("text", ["x^2+y", "y^2+x", "x^2+x+y"])
def test_psi_formula_matches_uniformizer_route(text):
    # the round-trip psi's residue formula against the first route, on
    # every catalog generator (polynomials and ratios) of the q=2
    # degree-2 arena
    from flagval.reconstruct import build_psi_from_valuation
    from flagval.suites import _arena

    F2 = FiniteField(2)
    curve = DivisorialCurve(Poly.parse(F2, text, XY))
    w = curve.residue_var
    psi = build_psi_from_valuation(curve, {w: w}, F2, (w, "z"))
    arena = _arena(F2, XY, 2)
    assert len(arena.gens) == 41 and len(arena.line_gens) == 281
    for f in arena.line_gens:
        want = psi._embed_residue(_uniformizer_route(curve, text, f)[1])
        got = psi.formula(f)
        assert got == want and str(got) == str(want), str(f)


def _axiom_work_counts(patch) -> dict:
    """Exact work of one seeded valuation-axioms run, counted by wrappers
    that `patch(owner, name, wrapper)` installs.

    The draws, products and sums reduce on dense lists without the
    validating constructor, each modulus has one place, every place
    splits a part once while its memo keeps it ("splits" counts the
    division passes, the memo misses), and a Poly part is made only
    when something reads it.  A first run builds the arena, whose
    functions keep their dense parts, and the irreducible table; the
    counted run starts with cold factor and place caches.
    """
    from flagval import fields, poly, suites, valuations

    cfg = suites.SuiteConfig(suite="valuation-axioms", q=5, seed=7, samples=1000)
    suites.run_suite(cfg)
    poly._factor_univariate_cached.cache_clear()
    valuations.place_of.cache_clear()
    counts = {}

    def counted(name, fn):
        counts[name] = 0

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    patch(FinitePlace, "__init__", counted("FinitePlace", FinitePlace.__init__))
    patch(Poly, "to_dense", counted("to_dense", Poly.to_dense))
    patch(RationalFn, "__init__", counted("RationalFn", RationalFn.__init__))
    patch(fields, "gcd_univariate", counted("gcd", poly.gcd_univariate))
    from_dense = counted("_from_dense", poly._from_dense)
    patch(poly, "_from_dense", from_dense)
    patch(fields, "_from_dense", from_dense)
    for name in ("_root_multiplicity", "_multiplicity_dense"):  # both add to one count
        patch(valuations, name, counted("splits", getattr(poly, name)))
    assert suites.run_suite(cfg)["violations"] == 0
    return counts


AXIOM_WORK_COUNTS = {"FinitePlace": 15, "to_dense": 759, "RationalFn": 0, "gcd": 3825, "_from_dense": 836, "splits": 15147}


def test_valuation_axioms_work_counts(monkeypatch):
    assert _axiom_work_counts(monkeypatch.setattr) == AXIOM_WORK_COUNTS


def _ktheory_work_counts(patch) -> dict:
    """Exact work of one seeded ktheory run over GF(49), as in
    `_axiom_work_counts`: a first run builds the irreducible tables, and
    the counted run starts with cold factor and place caches.  Each
    counted function is patched in every flagval module that binds it.

    The symbols read the dense parts each function keeps: the support
    comes from factoring them, with no divisor; f = 1 and the sums
    1 - f compare and add dense tuples.  A Poly is made for a factor
    (and the worked example's printout), and converted to a dense list
    for a new place's modulus.
    """
    from flagval import fields, poly, suites, valuations

    cfg = suites.SuiteConfig(suite="ktheory", q=49, seed=7, samples=400)
    suites.run_suite(cfg)
    poly._factor_univariate_cached.cache_clear()
    valuations.place_of.cache_clear()
    counts = {}
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("flagval.")]
    for owner, name in ((fields, "to_divisor"), (poly, "_from_dense"), (poly, "_dense_mul")):
        fn = getattr(owner, name)
        counts[name] = 0

        def wrapper(*args, fn=fn, name=name):
            counts[name] += 1
            return fn(*args)

        for m in modules:
            if vars(m).get(name) is fn:
                patch(m, name, wrapper)
    counts["to_dense"] = 0
    to_dense = Poly.to_dense

    def counted_to_dense(p):
        counts["to_dense"] += 1
        return to_dense(p)

    patch(Poly, "to_dense", counted_to_dense)
    assert suites.run_suite(cfg)["violations"] == 0
    return counts


KTHEORY_WORK_COUNTS = {"to_divisor": 0, "_from_dense": 1003, "_dense_mul": 2974, "to_dense": 904}


def test_ktheory_work_counts(monkeypatch):
    assert _ktheory_work_counts(monkeypatch.setattr) == KTHEORY_WORK_COUNTS


def test_valuation_axioms_work_counts_do_not_depend_on_the_hash_seed():
    # the split memos evict in insertion order and every cache is keyed
    # by value, so the counts are the same under every string-hash seed
    assert_counts_under_hash_seeds("test_valuations:_axiom_work_counts", AXIOM_WORK_COUNTS)


def test_ktheory_work_counts_do_not_depend_on_the_hash_seed():
    assert_counts_under_hash_seeds("test_valuations:_ktheory_work_counts", KTHEORY_WORK_COUNTS)
