"""Rational functions, divisor representations, algebraic dependence."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagval import fqlin
from flagval.errors import FactoringWindowExceeded, InvalidInput
from flagval.ff import FiniteField
from flagval.fields import (
    INF,
    DependenceVerdict,
    DivisorRep,
    RationalFn,
    algebraically_dependent,
    compose_rational,
    from_divisor,
    to_divisor,
)
from flagval.poly import Poly, divmod_univariate, factor, gcd_univariate, monic_irreducibles
from flagval.projspace import EmbeddedSubspace
from flagval.suites import _random_rational
from flagval.valuations import FinitePlace, InfinitePlace, ultrametric_ok
from conftest import bivariate_polys
from test_fqlin import rref

F3 = FiniteField(3)
F5 = FiniteField(5)
T = ("t",)
XY = ("x", "y")


def rt(text, field=F3):
    return RationalFn.parse(field, text, T)


def rxy(text, field=F3):
    return RationalFn.parse(field, text, XY)


def test_construction_normalizes():
    # common factors cancel and the denominator is made monic
    f = RationalFn(Poly.parse(F3, "t^2+2", T), Poly.parse(F3, "t+1", T))
    assert str(f.num) == "t+2" and str(f.den) == "1"  # t^2-1 over t+1
    g = RationalFn(Poly.parse(F3, "t", T), Poly.parse(F3, "2*t+2", T))
    assert str(g.den) == "t+1"  # unit pulled into the numerator
    assert g * rt("t+1") == rt("2*t")
    # the zero has one form, whatever denominator it came from
    h = rt("t/t+1")
    assert str(h - h) == "0" and str(g * 0) == "0"


def test_construction_errors():
    with pytest.raises(ZeroDivisionError):
        RationalFn(Poly.parse(F3, "1", T), Poly.zero(F3, T))
    with pytest.raises(InvalidInput):
        RationalFn(Poly.parse(F3, "t", T), Poly.parse(F5, "t", T))
    with pytest.raises(InvalidInput):
        RationalFn.parse(F3, "inf+1", ("inf",))


@pytest.mark.parametrize("name", ["inf", "unit"])
def test_trusted_routes_refuse_reserved_names(name):
    # from_poly and constant skip the gcd in one variable, not the check
    with pytest.raises(InvalidInput):
        RationalFn.from_poly(Poly.parse(F3, name, (name,)))
    with pytest.raises(InvalidInput):
        RationalFn.constant(F3, (name,), 1)
    with pytest.raises(InvalidInput):
        RationalFn.constant(F3, (name, "y"), 1)


def test_field_ops_fixed():
    f = rt("t+1/t+2")
    g = rt("t/t+2")
    assert f + g == rt("2*t+1/t+2")
    assert f * f.inverse() == RationalFn.constant(F3, T, 1)
    assert (f / g) == rt("t+1/t")
    assert f - f == RationalFn.constant(F3, T, 0)
    assert f**2 == f * f
    assert 1 - rt("t") == rt("1+2*t")


@settings(max_examples=40)
@given(st.data())
def test_field_laws_random(data):
    dense = st.lists(st.integers(0, 2), min_size=1, max_size=4)

    def fn(d1, d2):
        n = Poly.from_dense(F3, "t", d1)
        d = Poly.from_dense(F3, "t", d2)
        if not n or not d:
            return None
        return RationalFn(n, d)

    f = fn(data.draw(dense), data.draw(dense))
    g = fn(data.draw(dense), data.draw(dense))
    if f is None or g is None:
        return
    assert (f + g) - g == f
    assert (f * g) / g == f
    if f + g:
        assert (f + g) * (f + g).inverse() == RationalFn.constant(F3, T, 1)


def test_bivariate_reduction_window():
    # reducible inside the window: cancels
    num = Poly.parse(F3, "x^2+2*y^2", XY)  # (x+y)(x+2y)
    den = Poly.parse(F3, "x+y", XY)
    f = RationalFn(num, den)
    assert str(f.num) == "x+2*y" and str(f.den) == "1"
    # a degree-4 numerator is kept unreduced rather than factored
    big = RationalFn(Poly.parse(F3, "x^4+x^2+1", XY), Poly.parse(F3, "x^2+1", XY))
    assert big.num.degree() == 4 or big.den.degree() == 0


def test_to_divisor_univariate():
    f = rt("t+1/t^2")
    d = to_divisor(f)
    assert d.exponent(Poly.parse(F3, "t+1", T)) == 1
    assert d.exponent(Poly.parse(F3, "t", T)) == -2
    assert d.exponent(INF) == 1  # deg den - deg num
    assert d.unit == 1
    g = rt("2*t")
    assert to_divisor(g).unit == 2
    assert to_divisor(g).exponent(INF) == -1


def test_divisor_roundtrip():
    for text in ["t+1/t^2", "2*t^3", "t^2+1/t^2+t+2", "2/t+2"]:
        f = rt(text)
        assert from_divisor(to_divisor(f)) == f


def test_divisor_roundtrip_random():
    import random

    rng = random.Random(7)
    for _ in range(60):
        num = Poly.from_dense(F5, "t", [rng.randrange(5) for _ in range(rng.randint(1, 5))])
        den = Poly.from_dense(F5, "t", [rng.randrange(5) for _ in range(rng.randint(1, 5))])
        if not num or not den:
            continue
        f = RationalFn(num, den)
        assert from_divisor(to_divisor(f)) == f


def test_principal_divisor_degree_zero():
    # finite degrees plus the infinite exponent always cancel
    import random

    rng = random.Random(3)
    for _ in range(40):
        num = Poly.from_dense(F3, "t", [rng.randrange(3) for _ in range(rng.randint(1, 5))])
        den = Poly.from_dense(F3, "t", [rng.randrange(3) for _ in range(rng.randint(1, 5))])
        if not num or not den:
            continue
        d = to_divisor(RationalFn(num, den))
        assert d.deg_sum() + d.exponent(INF) == 0


def test_class_key_ignores_unit():
    f = rt("t+1/t")
    d1 = to_divisor(f)
    d2 = to_divisor(f * 2)
    assert d1.class_key() == d2.class_key()
    assert d1 != d2 and d1.unit == 1 and d2.unit == 2
    assert to_divisor(RationalFn.constant(F3, T, 2)).is_trivial()
    assert not d1.is_trivial()


def test_divisor_group_ops():
    f = to_divisor(rt("t"))
    g = to_divisor(rt("t+1"))
    assert (f * g).exponent(Poly.parse(F3, "t", T)) == 1
    assert (f * g) / g == f
    assert f * f.inverse() == DivisorRep(F3, T, {})
    with pytest.raises(InvalidInput):
        f * to_divisor(rxy("x"))


def test_divisor_validation():
    t = Poly.parse(F3, "t", T)
    with pytest.raises(InvalidInput):
        DivisorRep(F3, T, {t: 1}, 0)  # zero unit
    with pytest.raises(InvalidInput):
        DivisorRep(F3, T, {Poly.parse(F3, "2*t", T): 1})  # not monic
    with pytest.raises(InvalidInput):
        DivisorRep(F3, XY, {INF: 1})  # infinite generator is univariate-only
    d = DivisorRep(F3, T, {t: 0}, 2)
    assert d.is_trivial()  # zero exponents are dropped


def test_divisor_str():
    d = to_divisor(rt("2*t+2/t^2"))
    assert str(d) == "2 (t)^-2 (t+1) (inf)"


def test_bivariate_divisor_window():
    d = to_divisor(rxy("x^2+2*y"))
    assert d.exponent(Poly.parse(F3, "x^2+2*y", XY)) == 1
    with pytest.raises(FactoringWindowExceeded):
        to_divisor(RationalFn(Poly.parse(F3, "x^2+1", XY) * Poly.parse(F3, "y^2+1", XY),
                              Poly.parse(F3, "1", XY)))


def _old_normal_form(num, den):
    """The first univariate normalisation, on Polys: gcd_univariate and
    the exact divisions by divmod_univariate on the to_dense lists, then
    both parts times the inverse of den's leading coefficient; the zero
    is 0/1."""
    F, var = num.field, num.vars[0]
    if not num:
        return num, den._one()
    a, b = num.to_dense(), den.to_dense()
    g = gcd_univariate(F, a, b)
    if len(g) > 1:
        num = Poly.from_dense(F, var, divmod_univariate(F, a, g)[0])
        den = Poly.from_dense(F, var, divmod_univariate(F, b, g)[0])
    lc = den.leading_coeff()
    if lc != 1:
        inv = F.inv(lc)
        num, den = num * inv, den * inv
    return num, den


def _dense_poly(F, rng, deg):
    return Poly.from_dense(F, "t", [rng.randrange(F.q) for _ in range(deg + 1)])


@pytest.mark.parametrize("q", [2, 3, 4, 9, 49])
def test_univariate_normalisation_matches_the_old_route(q):
    """Seeded num/den pairs, many with a planted common factor, a zero
    numerator and non-monic denominators."""
    F = FiniteField(q)
    rng = random.Random(100 + q)
    cancelled = rescaled = 0
    for _ in range(150):
        common = _dense_poly(F, rng, rng.randint(0, 2))
        num = _dense_poly(F, rng, rng.randint(0, 4)) * common
        den = _dense_poly(F, rng, rng.randint(0, 3)) * common
        if not den:
            continue
        f = RationalFn(num, den)
        old_num, old_den = _old_normal_form(num, den)
        assert f.num.coeffs == old_num.coeffs and f.den.coeffs == old_den.coeffs, (num, den)
        cancelled += bool(num) and len(gcd_univariate(F, num.to_dense(), den.to_dense())) > 1
        rescaled += den.leading_coeff() != 1
    assert cancelled > 20 and (q == 2 or rescaled > 20)


def _full_route(num, den):
    """The parts of num/den in the oracle's normal form."""
    num, den = _old_normal_form(num, den)
    return num.coeffs, den.coeffs


def _parts(f):
    # compared part by part: == cross-multiplies and accepts any pair
    return f.num.coeffs, f.den.coeffs


def _canonical_quotients(F, max_deg=2):
    """(polys, fs): every polynomial of degree <= max_deg over F, and
    every canonical n/d with deg n, deg d <= max_deg, the zero 0/1
    included."""
    polys = [Poly.from_dense(F, "t", list(c)) for c in itertools.product(range(F.q), repeat=max_deg + 1)]
    dens = [d for d in polys if d and d.leading_coeff() == 1]
    fs = [RationalFn._make(n, d) for n in polys for d in dens if _full_route(n, d) == (n.coeffs, d.coeffs)]
    return polys, fs


# every (f, p) and (f, c) pair over GF(2) and GF(3); over GF(4) and
# GF(5), where that is 67k and 394k pairs, a seeded draw per f
SHORTCUT_DRAWS = {2: None, 3: None, 4: (6, 3), 5: (3, 2)}


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_univariate_shortcuts_match_the_full_route(q):
    """p/1, -f, f + p, p + f, f - c and c - f skip the gcd in one
    variable; each must give the parts the oracle's normal form gives.
    f ranges over every canonical n/d with deg n, deg d <= 2, the zero
    0/1 included, p over the polynomials of degree <= 2, c over 0..q."""
    F = FiniteField(q)
    polys, fs = _canonical_quotients(F)
    assert sum(not f for f in fs) == 1
    for p in polys:
        assert _parts(RationalFn.from_poly(p)) == _full_route(p, p._one())
    for c in range(q):
        one = Poly.constant(F, T, 1)
        assert _parts(RationalFn.constant(F, T, c)) == _full_route(Poly.constant(F, T, c), one)
    rng = random.Random(500 + q)
    draws = SHORTCUT_DRAWS[q]
    ints = range(q + 1)
    for f in fs:
        n, d = f.num, f.den
        assert _parts(-f) == _full_route(-n, d)
        for c in ints if draws is None else rng.sample(ints, draws[1]):
            assert _parts(f - c) == _full_route(n - d * c, d)
            assert _parts(c - f) == _full_route(d * c - n, d)
        for p in polys if draws is None else rng.sample(polys, draws[0]):
            want = _full_route(n + p * d, d)
            assert _parts(f + p) == want and _parts(p + f) == want
            assert _parts(RationalFn.from_poly(p) + f) == want
        g = rng.choice(fs)  # a general sum keeps the full route
        assert _parts(f + g) == _full_route(n * g.den + g.num * d, d * g.den)


# every n/d over GF(2); over GF(3), where the n/d number 530k, a seeded
# draw of them
BIVARIATE_INVERSE_DRAWS = {2: None, 3: 3000}


@pytest.mark.parametrize("q", [2, 3])
def test_bivariate_trusted_routes_match_the_constructor(q):
    """from_poly(p) is _make(p, 1) and f.inverse() swaps the parts of a
    canonical f with a monic denominator, in two variables as in one;
    each must give the parts the validating constructor gives, for every
    p of degree <= 2 (the zero included) and n/d with n, d of degree <= 2."""
    F = FiniteField(q)
    polys = bivariate_polys(F, 2)
    for p in polys + [Poly.zero(F, XY)]:
        assert _parts(RationalFn.from_poly(p)) == _parts(RationalFn(p, p._one()))
    draws = BIVARIATE_INVERSE_DRAWS[q]
    rng = random.Random(600 + q)
    pairs = itertools.product(polys, polys) if draws is None else ((rng.choice(polys), rng.choice(polys)) for _ in range(draws))
    rescaled = 0
    for n, d in pairs:
        f = RationalFn(n, d)
        assert _parts(f.inverse()) == _parts(RationalFn(f.den, f.num))
        rescaled += f.num.leading_coeff() != 1
    assert q == 2 or rescaled > draws // 2


def test_bivariate_trusted_routes_beyond_the_window():
    # parts of degree 4 over GF(4): the constructor neither factors nor
    # cancels them, and only makes the denominator monic
    F = FiniteField(4)
    rng = random.Random(604)
    for _ in range(60):
        p = _random_poly(F, rng, XY, 4)
        assert _parts(RationalFn.from_poly(p)) == _parts(RationalFn(p, p._one()))
        f = RationalFn(_random_poly(F, rng, XY, 4), p)
        assert max(f.num.degree(), f.den.degree()) > 3
        assert _parts(f.inverse()) == _parts(RationalFn(f.den, f.num))


def _old_is_constant(f):
    """The first is_constant: equal degrees, then num == den * c."""
    n, d = f.num, f.den
    if not n:
        return True
    if n.degree() != d.degree():
        return False
    return n == d * f.field.div(n.leading_coeff(), d.leading_coeff())


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_univariate_inverse_and_is_constant_match_the_constructor(q):
    """In one variable inverse() swaps the dense parts and makes the new
    denominator monic with no gcd, and is_constant() reads the dense
    parts; both against the validating route on every canonical n/d with
    deg n, deg d <= 2, the zero 0/1 included, built both ways."""
    F = FiniteField(q)
    _, fs = _canonical_quotients(F)
    constants = 0
    for f in fs + [RationalFn(f.num, f.den) for f in fs]:
        assert f.is_constant() == _old_is_constant(f)
        constants += f.is_constant()
        if f:
            assert _parts(f.inverse()) == _parts(RationalFn(f.den, f.num))
    assert constants == 2 * q


def _cross_equal(f, g):
    """The first equality: f = g iff f.num g.den = g.num f.den."""
    return f.num * g.den == g.num * f.den


def _assert_equality_matches(fns):
    for f in fns:
        for g in fns:
            assert (f == g) == _cross_equal(f, g), (str(f), str(g))


@pytest.mark.parametrize("q,max_deg", [(2, 1), (3, 1), (4, 1), (2, 2)])
def test_univariate_equality_matches_cross_multiplication(q, max_deg):
    """== compares dense parts in one variable, so every route must give
    canonical parts: the trusted quotients (the zero 0/1 included), p/1
    from from_poly, the points of projspace lines l(1, g) made by
    _make, and the same values built again by the validating
    constructor, by sums and by int coercions."""
    F = FiniteField(q)
    polys, fs = _canonical_quotients(F, max_deg)
    fns = fs + [RationalFn.from_poly(p) for p in polys]
    fns += [RationalFn(f.num, f.den) for f in fs] + [f + 0 for f in fs] + [1 - (1 - f) for f in fs]
    for g in fs[::3]:
        if not g.is_constant():
            fns += EmbeddedSubspace.line(g).functions
    _assert_equality_matches(fns)


def test_univariate_equality_matches_cross_multiplication_sampled_f49():
    # 300 pairs drawn as the ktheory suite draws them, each function with
    # a second copy from the validating constructor
    rng = random.Random(4949)
    F49 = FiniteField(49)
    for _ in range(300):
        f, g = _random_rational(rng, F49, "t"), _random_rational(rng, F49, "t")
        _assert_equality_matches([f, g, RationalFn(f.num, f.den), g - f + f, f - f])


def _assert_oracle_parts(h, num, den):
    """h has the oracle's parts of num/den, dense_parts() holds their
    dense lists, and a zero is 0/1 and prints 0."""
    want_num, want_den = _old_normal_form(num, den)
    assert _parts(h) == (want_num.coeffs, want_den.coeffs), (num, den)
    assert h.dense_parts() == (tuple(want_num.to_dense()), tuple(want_den.to_dense()))
    if not h:
        assert h.dense_parts() == ((), (1,)) and str(h) == "0"


def _assert_dense_route(f, g):
    # f*g and f+g are checked once per unordered pair, f-g both ways
    (n1, d1), (n2, d2) = (f.num, f.den), (g.num, g.den)
    _assert_oracle_parts(f * g, n1 * n2, d1 * d2)
    _assert_oracle_parts(f + g, n1 * d2 + n2 * d1, d1 * d2)
    _assert_oracle_parts(f - g, n1 * d2 - n2 * d1, d1 * d2)
    _assert_oracle_parts(g - f, n2 * d1 - n1 * d2, d1 * d2)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 49])
def test_dense_route_matches_the_poly_level_oracle(q):
    """RationalFn(num, den), f*g, f+g and f-g reduce on dense lists; each
    must give the parts the Poly-level normalisation gives.  Over GF(2)
    and GF(3) every pair of polynomials of degree <= 2 and every pair
    of canonical f, g with deg num, deg den <= 2; above, a seeded draw."""
    F = FiniteField(q)
    if q <= 3:
        polys, fs = _canonical_quotients(F)
        pairs = itertools.product(polys, [d for d in polys if d])
        fn_pairs = itertools.combinations_with_replacement(fs, 2)
    else:
        rng = random.Random(900 + q)
        polys = [_dense_poly(F, rng, rng.randint(0, 2)) for _ in range(400)]
        pairs = [(n, d) for n, d in zip(polys, polys[1:]) if d]
        fs = [RationalFn(n, d) for n, d in pairs]
        fn_pairs = [(f, rng.choice(fs)) for f in fs] + [(f, f) for f in fs[:20]]
    zeros = 0
    for n, d in pairs:
        _assert_oracle_parts(RationalFn(n, d), n, d)
    for f, g in fn_pairs:
        _assert_dense_route(f, g)
        zeros += not (f - g)
    assert zeros >= 20


def _count_from_dense(monkeypatch):
    """A list that grows by one for every Poly made from a dense list,
    by the lazy parts or by the factoring kernel."""
    from flagval import fields, poly

    made = []
    real = poly._from_dense

    def counted(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(fields, "_from_dense", counted)
    monkeypatch.setattr(poly, "_from_dense", counted)
    return made


@pytest.mark.parametrize("q", [2, 3])
def test_dense_built_functions_make_their_parts_on_first_read(q, monkeypatch):
    """A function built from dense lists makes num and den only when they
    are read, and they are the Polys of its dense parts.  field, vars,
    bool, -f, f + g and the checks of ultrametric_ok read the dense parts
    and make no Poly; str, == and to_divisor give what the same quotient
    built from Polys gives, and the zero prints 0."""
    F = FiniteField(q)
    _, fs = _canonical_quotients(F)
    places = [FinitePlace(pi) for pi in monic_irreducibles(q, "t", 2)] + [InfinitePlace(F, "t")]
    made = _count_from_dense(monkeypatch)
    dense = [RationalFn._of_dense(F, "t", *f.dense_parts()) for f in fs]
    for f in dense:
        assert f.field is F and f.vars == T and not f + (-f)
        for g in dense[::7]:
            if f and g and f + g:
                ultrametric_ok(places, f, g)
    assert made == [] and sum(not f for f in dense) == 1
    for f, by_polys in zip(dense, fs):
        assert bool(f) == bool(by_polys)
        n, d = f.dense_parts()
        before = len(made)
        assert f.num == Poly.from_dense(F, "t", list(n)) and f.den == Poly.from_dense(F, "t", list(d))
        assert f.num is f.num and f.den is f.den and len(made) == before + 2  # made once and kept
        assert str(f) == str(by_polys) and f == by_polys and by_polys == f
        if f:
            _same_divisor(to_divisor(f), to_divisor(by_polys))
        else:
            assert str(f) == "0"


def _old_to_divisor(f):
    """The first to_divisor: every exponent, zeros included, through the
    validating constructor."""
    nu, nparts = factor(f.num)
    du, dparts = factor(f.den)
    exps = dict(nparts)
    for g, k in dparts.items():
        exps[g] = exps.get(g, 0) - k
    if len(f.vars) == 1:
        exps[INF] = f.den.degree() - f.num.degree()
    return DivisorRep(f.field, f.vars, exps, f.field.div(nu, du))


def _same_divisor(d, oracle):
    assert d.exps == oracle.exps and d.unit == oracle.unit
    assert d == oracle and hash(d) == hash(oracle)
    assert d.class_key() == oracle.class_key() and str(d) == str(oracle)


@pytest.mark.parametrize("q,vars", [(3, T), (4, T), (49, T), (3, XY)])
def test_trusted_divisors_match_validated(q, vars):
    """to_divisor, products and inverses, each against the validating
    constructor on the same data; products include full and partial
    cancellation and f with deg num == deg den."""
    F = FiniteField(q)
    rng = random.Random(q)
    fns = []
    while len(fns) < 12:
        num = _random_poly(F, rng, vars, rng.randint(0, 2))
        f = RationalFn(num, _random_poly(F, rng, vars, num.degree()))
        if not f.is_constant():
            fns.append(f)
    assert any(f.num.degree() == f.den.degree() for f in fns)
    divs = []
    for f in fns:
        d = to_divisor(f)
        _same_divisor(d, _old_to_divisor(f))
        divs.append(d)
    for d in divs:
        _same_divisor(d.inverse(), DivisorRep(F, vars, {g: -e for g, e in d.exps.items()}, F.inv(d.unit)))
    pairs = list(itertools.combinations(divs, 2)) + [(d, d.inverse()) for d in divs]
    pairs += [(d * e, e.inverse()) for d, e in itertools.combinations(divs, 2)]
    for d, e in pairs:
        exps = dict(d.exps)
        for g, k in e.exps.items():
            exps[g] = exps.get(g, 0) + k
        _same_divisor(d * e, DivisorRep(F, vars, exps, F.mul(d.unit, e.unit)))
    assert all((d * d.inverse()).is_trivial() for d in divs)


def test_class_key_is_kept():
    # the sorted class key is built on first use and kept; == and hash
    # read it together with the unit
    for text, vars in [("t^2+2*t/t+1", T), ("x*y+1/x^2", XY)]:
        d = to_divisor(RationalFn.parse(F3, text, vars))
        assert d.class_key() is d.class_key()
        same = DivisorRep(F3, vars, dict(d.exps), d.unit)
        assert same == d and hash(same) == hash(d)
        scaled = DivisorRep(F3, vars, dict(d.exps), F3.mul(d.unit, 2))
        assert scaled.class_key() == d.class_key() and scaled != d
        assert (d * d.inverse()).class_key() == DivisorRep(F3, vars, {}).class_key()


def test_algebraic_dependence_positive():
    t = rt("t")
    v = algebraically_dependent(t, t * t, 2)
    assert v.dependent and v.witness is not None
    assert bool(v)
    # the witness really annihilates: re-verified internally, but check
    # the bidegree contract here
    assert all(i <= 2 and j <= 2 for i, j in v.witness.coeffs)


def test_algebraic_dependence_negative_is_bound_relative():
    x = rxy("x")
    y = rxy("y")
    assert not algebraically_dependent(x, y, 3).dependent
    # x^3 and x^6 + x^4 are dependent, but the annihilator needs bidegree
    # beyond 4: negative answers certify only the searched window
    a = rxy("x^3")
    b = rxy("x^6") + rxy("x^4")
    assert not algebraically_dependent(a, b, 4).dependent
    assert algebraically_dependent(a, b, 8).dependent


def test_algebraic_dependence_validation():
    with pytest.raises(InvalidInput):
        algebraically_dependent(rt("t"), rt("t"), 0)
    with pytest.raises(InvalidInput):
        algebraically_dependent(rt("t"), RationalFn.constant(F3, T, 1), 2)


def _oracle_dependence(f, g, bound):
    """The dependence search as first written: each term a chain of three
    products of powers raised from scratch, the kernel read off rref,
    and the witness checked by rational substitution."""
    F, D = f.field, bound
    fn = [f.num**i for i in range(D + 1)]
    fd = [f.den**i for i in range(D + 1)]
    gn = [g.num**j for j in range(D + 1)]
    gd = [g.den**j for j in range(D + 1)]
    terms = [fn[i] * fd[D - i] * gn[j] * gd[D - j] for i in range(D + 1) for j in range(D + 1)]
    monomials = sorted({e for t in terms for e in t.coeffs})
    rows = [[t.coeffs.get(m, 0) for t in terms] for m in monomials]
    red, pivots = rref(F, rows)
    free = [c for c in range(len(terms)) if c not in pivots]
    if not free:
        return False, None
    vec = [0] * len(terms)
    vec[free[0]] = 1
    for row, pc in zip(red, pivots):
        vec[pc] = F.neg(row[free[0]])
    witness = {divmod(k, D + 1): c for k, c in enumerate(vec) if c}
    total = RationalFn.constant(F, f.vars, 0)
    for (i, j), c in witness.items():
        total = total + (f**i) * (g**j) * c
    assert not total
    return True, witness


def _random_poly(F, rng, vars, max_deg):
    while True:
        coeffs = {
            e: rng.randrange(F.q)
            for e in itertools.product(range(max_deg + 1), repeat=len(vars))
            if sum(e) <= max_deg
        }
        p = Poly(F, vars, coeffs)
        if p:
            return p


def _random_fn(F, rng, vars):
    """A nonconstant f: a polynomial, or a quotient with a linear or
    quadratic denominator."""
    while True:
        num = _random_poly(F, rng, vars, 2)
        den = _random_poly(F, rng, vars, rng.choice([0, 1, 2]))
        f = RationalFn(num, den)
        if not f.is_constant():
            return f


def _dependence_pairs(F, rng):
    """Seeded pairs: independent ones, and g = P(f) / Q(f) for small P, Q."""
    for vars in (XY, XY, T):
        f = _random_fn(F, rng, vars)
        yield f, _random_fn(F, rng, vars)
        for _ in range(2):
            top = compose_rational(_random_poly(F, rng, ("s",), rng.choice([1, 2])), f)
            bottom = compose_rational(_random_poly(F, rng, ("s",), rng.choice([0, 1])), f)
            if bottom and not (top / bottom).is_constant():
                yield f, top / bottom


@pytest.mark.parametrize("q", [2, 3, 4])
def test_dependence_matches_the_first_route(q):
    """Verdict and witness equal the product chain, rref kernel and
    rational substitution on seeded pairs, at bounds 1-4 and 8."""
    F = FiniteField(q)
    rng = random.Random(q)
    pairs = list(_dependence_pairs(F, rng))
    pairs.append((rxy("x^3", F), rxy("x^6", F) + rxy("x^4", F)))
    assert any(f.den.degree() > 0 for f, _ in pairs) and any(g.den.degree() > 0 for _, g in pairs)

    def same_as_oracle(f, g, bound):
        v = algebraically_dependent(f, g, bound)
        got = (v.dependent, dict(v.witness.coeffs) if v.witness else None)
        assert got == _oracle_dependence(f, g, bound), (f, g, bound)
        return v.dependent

    verdicts = {same_as_oracle(f, g, bound) for f, g in pairs for bound in (1, 2, 3, 4)}
    assert verdicts == {True, False}
    for f, g in [pairs[1], pairs[-2], pairs[-1]]:
        same_as_oracle(f, g, 8)


def test_corrupted_witness_fails_the_check(monkeypatch):
    real = fqlin.nullspace

    def corrupted(field, rows):
        basis = real(field, rows)
        vec = list(basis[0])
        k = next(i for i, c in enumerate(vec) if c)
        vec[k] = field.add(vec[k], 1)
        return [vec] + basis[1:]

    t = rt("t")
    assert algebraically_dependent(t, t * t, 2).dependent
    monkeypatch.setattr(fqlin, "nullspace", corrupted)
    with pytest.raises(InvalidInput, match="substitution check"):
        algebraically_dependent(t, t * t, 2)


def test_compose_rational():
    P = Poly.parse(F3, "s^2+1", ("s",))
    h = rt("t+1/t")
    out = compose_rational(P, h)
    # ((t+1)/t)^2 + 1 = (t^2+2t+1+t^2) / t^2
    assert out == rt("2*t^2+2*t+1/t^2")
    assert compose_rational(Poly.zero(F3, ("s",)), h) == RationalFn.constant(F3, T, 0)
    with pytest.raises(InvalidInput):
        compose_rational(Poly.parse(F3, "x+y", XY), h)
