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
from flagval.fqlin import rref
from flagval.poly import Poly, divmod_univariate, factor, gcd_univariate

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


def test_construction_errors():
    with pytest.raises(ZeroDivisionError):
        RationalFn(Poly.parse(F3, "1", T), Poly.zero(F3, T))
    with pytest.raises(InvalidInput):
        RationalFn(Poly.parse(F3, "t", T), Poly.parse(F5, "t", T))
    with pytest.raises(InvalidInput):
        RationalFn.parse(F3, "inf+1", ("inf",))


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
    """The first univariate normalisation: gcd, exact divisions by
    divmod_univariate, then both parts times the inverse of den's
    leading coefficient."""
    F = num.field
    if num:
        g = gcd_univariate(num, den)
        if g.degree() > 0:
            num = divmod_univariate(num, g)[0]
            den = divmod_univariate(den, g)[0]
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
        cancelled += bool(num) and gcd_univariate(num, den).degree() > 0
        rescaled += den.leading_coeff() != 1
    assert cancelled > 20 and (q == 2 or rescaled > 20)


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
