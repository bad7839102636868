"""Polynomial layer: parsing, grlex order, division, factoring."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagval.errors import FactoringWindowExceeded, InvalidInput
from flagval.ff import FiniteField
from flagval.poly import (
    Poly,
    divide_exact,
    divmod_univariate,
    factor,
    factor_bivariate,
    factor_univariate,
    gcd_univariate,
    irreducible_canonicals_bivariate,
    is_irreducible,
    linear_canonicals,
    monic_irreducibles,
    multiplicity,
)

F2 = FiniteField(2)
F3 = FiniteField(3)
F5 = FiniteField(5)
T = ("t",)
XY = ("x", "y")


def t_(text, field=F3):
    return Poly.parse(field, text, T)


def xy(text, field=F3):
    return Poly.parse(field, text, XY)


def test_parse_str_roundtrip():
    for s in ["0", "1", "t", "t^2+2*t+1", "2*t^3+t"]:
        assert str(t_(s)) == s
    for s in ["x^2+2*y", "x*y+x+1", "2*x^2+x*y+y^2"]:
        assert str(xy(s)) == s


def test_parse_rejects_garbage():
    with pytest.raises(InvalidInput):
        Poly.parse(F3, "t^-1", T)
    with pytest.raises(InvalidInput):
        Poly.parse(F3, "u+1", T)  # unknown variable


def test_grlex_leading_term():
    f = xy("x^2+x*y+y^2+x+1")
    assert f.leading_exp() == (2, 0)
    assert f.degree() == 2
    assert xy("y^3+x^2").leading_exp() == (0, 3)
    assert xy("x*y+y^2").leading_exp() == (1, 1) or xy("x*y+y^2").leading_exp() == (0, 2)
    # grlex within equal total degree: x*y before y^2
    assert xy("x*y+y^2").leading_exp() == (1, 1)


def test_ring_ops_fixed():
    f = t_("t+1")
    g = t_("t+2")
    assert str(f * g) == "t^2+2"
    assert str(f + g) == "2*t"
    assert str(f - f) == "0"
    assert str(f**3) == "t^3+1"  # freshman's dream in characteristic 3
    assert f * 0 == Poly.zero(F3, T)
    assert (f * 1) == f


@settings(max_examples=40)
@given(st.data())
def test_ring_laws_random(data):
    q = data.draw(st.sampled_from([2, 3, 5]))
    F = FiniteField(q)
    dense = st.lists(st.integers(0, q - 1), min_size=1, max_size=5)
    f = Poly.from_dense(F, "t", data.draw(dense))
    g = Poly.from_dense(F, "t", data.draw(dense))
    h = Poly.from_dense(F, "t", data.draw(dense))
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert f + (g + h) == (f + g) + h


def test_degree_and_constants():
    assert Poly.zero(F3, T).degree() == -1
    assert Poly.constant(F3, T, 2).degree() == 0
    assert Poly.constant(F3, T, 2).constant_value() == 2
    assert Poly.variable(F3, XY, "y").deg_in(1) == 1
    assert xy("x^2+y").deg_in(0) == 2
    assert xy("x^2+y").deg_in(1) == 1


def test_make_canonical():
    c, mon = t_("2*t+2").make_canonical()
    assert c == 2 and str(mon) == "t+1"
    c2, mon2 = xy("2*x^2+y").make_canonical()
    assert c2 == 2 and str(mon2) == "x^2+2*y"


def test_evaluate_substitute_map_vars():
    f = xy("x^2+2*y+1")
    assert f.evaluate((1, 1)) == (1 + 2 + 1) % 3
    g = f.substitute({"x": xy("x"), "y": xy("x^2")})
    assert str(g) == "1"  # x^2 + 2x^2 + 1 = 3x^2 + 1 = 1
    h = t_("t^2+2").map_vars(XY, {0: 1})
    assert str(h) == "y^2+2"


def test_divmod_univariate():
    f = t_("t^4+t+1")
    g = t_("t^2+1")
    q, r = divmod_univariate(f, g)
    assert q * g + r == f
    assert r.degree() < g.degree()
    with pytest.raises(ZeroDivisionError):
        divmod_univariate(f, Poly.zero(F3, T))


@settings(max_examples=40)
@given(st.data())
def test_divmod_property(data):
    dense = st.lists(st.integers(0, 1), min_size=1, max_size=6)
    f = Poly.from_dense(F2, "t", data.draw(dense))
    g = Poly.from_dense(F2, "t", data.draw(dense))
    if not g:
        return
    q, r = divmod_univariate(f, g)
    assert q * g + r == f
    assert not r or r.degree() < g.degree()


def test_gcd_univariate():
    f = t_("t+1") * t_("t+2")
    assert gcd_univariate(f, t_("t+1")) == t_("t+1")
    assert gcd_univariate(f, t_("t")) == t_("1")
    sq = t_("t+1") ** 2 * t_("t")
    assert gcd_univariate(sq, t_("t+1") * t_("t")) == t_("t+1") * t_("t")


def test_divide_exact_and_multiplicity():
    f = xy("x+y") * xy("x+2*y") * xy("x+y")
    assert divide_exact(f, xy("x+y")) == xy("x+y") * xy("x+2*y")
    assert divide_exact(xy("x+1"), xy("y+1")) is None
    m, rest = multiplicity(f, xy("x+y"))
    assert m == 2 and rest == xy("x+2*y")


def test_monic_irreducibles_f3_deg2():
    irr = monic_irreducibles(3, "t", 2)
    assert [str(p) for p in irr if p.degree() == 1] == ["t", "t+1", "t+2"]
    quads = [p for p in irr if p.degree() == 2]
    # independent route: a monic quadratic over F_3 is irreducible iff it
    # has no root
    assert len(quads) == 3
    for p in quads:
        assert all(p.evaluate((a,)) != 0 for a in range(3))
    assert str(quads[0]) == "t^2+1"


def test_monic_irreducibles_f2_deg3():
    irr = monic_irreducibles(2, "t", 3)
    assert [str(p) for p in irr] == ["t", "t+1", "t^2+t+1", "t^3+t+1", "t^3+t^2+1"]


def test_factor_univariate():
    unit, parts = factor_univariate(t_("t^3+1"))
    assert unit == 1 and parts == {t_("t+1"): 3}
    unit, parts = factor_univariate(t_("2*t^2+2"))
    assert unit == 2 and parts == {t_("t^2+1"): 1}
    # reassembly
    f = t_("t^5+t^3+2*t+1")
    unit, parts = factor_univariate(f)
    out = Poly.constant(F3, T, unit)
    for g, e in parts.items():
        assert is_irreducible(g)
        out = out * g**e
    assert out == f


def test_factor_bivariate_window():
    unit, parts = factor_bivariate(xy("x^2+2*y"))
    assert unit == 1 and parts == {xy("x^2+2*y"): 1}
    f = xy("x+y") * xy("x+2*y+1")
    unit, parts = factor_bivariate(f)
    assert parts == {xy("x+y"): 1, xy("x+2*y+1"): 1}
    big = xy("x^2+1") * xy("y^2+1")
    with pytest.raises(FactoringWindowExceeded):
        factor_bivariate(big)


def test_factor_dispatch():
    assert factor(t_("t^2+2*t+1")) == (1, {t_("t+1"): 2})
    assert factor(xy("2*x*y")) == (2, {xy("x"): 1, xy("y"): 1})


def test_is_irreducible():
    assert is_irreducible(t_("t^2+1"))
    assert not is_irreducible(t_("t^2+2"))  # (t+1)(t+2)
    assert is_irreducible(xy("x^2+2*y"))
    assert not is_irreducible(xy("x^2+2*x+1"))


def test_linear_canonicals_count():
    lin = linear_canonicals(3, XY)
    # monic-lead representatives of all lines a*x + b*y + c, (a, b) != 0
    assert len(lin) == 12
    assert all(p.degree() == 1 for p in lin)
    assert len(set(lin)) == 12


def test_irreducible_canonicals_bivariate_counts():
    deg1 = irreducible_canonicals_bivariate(3, XY, 1)
    assert len(deg1) == 12
    deg2 = irreducible_canonicals_bivariate(3, XY, 2)
    assert len(deg2) == 285
    assert all(is_irreducible(p) for p in deg2[:20])
    assert len(set(deg2)) == 285


def test_from_dense_to_dense():
    f = Poly.from_dense(F5, "t", [1, 0, 3])
    assert str(f) == "3*t^2+1"
    assert f.to_dense() == [1, 0, 3]
    assert Poly.from_dense(F5, "t", [0, 0]) == Poly.zero(F5, ("t",))


# -- dense univariate kernels against the sparse reference ---------------


def _monics(F, max_deg):
    """Every monic polynomial over F of degree 0..max_deg."""
    for d in range(max_deg + 1):
        for code in range(F.q**d):
            dense = []
            for _ in range(d):
                dense.append(code % F.q)
                code //= F.q
            yield Poly.from_dense(F, "t", dense + [1])


def _gf49_sample():
    """Seeded monic sample over GF(49): random ones and products with repeats."""
    F = FiniteField(49)
    rng = random.Random(49)
    lin = monic_irreducibles(49, "t", 1)
    out = []
    for _ in range(40):
        d = rng.randint(1, 4)
        out.append(Poly.from_dense(F, "t", [rng.randrange(49) for _ in range(d)] + [1]))
    for _ in range(40):
        # degree <= 5 keeps the trial divisors at degree <= 2
        f = rng.choice(lin) ** rng.randint(1, 3) * rng.choice(lin) ** rng.randint(0, 2)
        out.append(f)
    return out


def _multiplicity_reference(f, g):
    k = 0
    while (nxt := divide_exact(f, g)) is not None:
        f, k = nxt, k + 1
    return k


def _is_irreducible_reference(g):
    """No monic irreducible of degree <= deg(g)/2 divides g (sparse division)."""
    lower = monic_irreducibles(g.field.q, "t", g.degree() // 2) if g.degree() > 1 else ()
    return g.degree() >= 1 and all(divide_exact(g, h) is None for h in lower)


def _derivative(f):
    F = f.field
    dense = f.to_dense()
    return Poly.from_dense(F, "t", [F.mul(F.from_int(i % F.p), c) for i, c in enumerate(dense)][1:])


DENSE_CASES = [(2, 5), (3, 4), (4, 3), (9, 3), (49, None)]


@pytest.mark.parametrize("q,max_deg", DENSE_CASES)
def test_dense_kernels_match_sparse_reference(q, max_deg):
    F = FiniteField(q)
    polys = list(_monics(F, max_deg)) if max_deg is not None else _gf49_sample()
    divisors = monic_irreducibles(q, "t", 2 if q < 9 else 1)
    prev = Poly.constant(F, T, 1)
    for f in polys:
        unit, parts = factor_univariate(f)
        assert unit == 1
        # the factors multiply back to the input
        back = Poly.constant(F, T, 1)
        for g, e in parts.items():
            back = back * g**e
        assert back == f
        # each factor is one of the enumerated irreducibles (the same
        # object, in enumeration order) or irreducible by the reference
        bound = max(f.degree() // 2, 1)
        table = monic_irreducibles(q, "t", bound)
        index = [next((i for i, h in enumerate(table) if h is g), None) for g in parts]
        listed = [i for i in index if i is not None]
        assert listed == sorted(listed)
        for g, i in zip(parts, index):
            assert i is not None or _is_irreducible_reference(g), g
            assert parts[g] == _multiplicity_reference(f, g)
            assert multiplicity(f, g) == (parts[g], divide_exact(f, g ** parts[g]))
        # divmod agrees with the sparse exact quotient
        for h in divisors:
            quo, rem = divmod_univariate(f, h)
            exact = divide_exact(f, h)
            assert (rem == Poly.zero(F, T)) == (exact is not None)
            if exact is not None:
                assert quo == exact
            assert quo * h + rem == f
        # the gcd is monic, divides both inputs and has the degree of the
        # common part of the two factorizations
        assert gcd_univariate(f, prev * f) == f
        for other in (_derivative(f), prev):
            g = gcd_univariate(f, other)
            assert g.leading_coeff() == 1
            assert divide_exact(f, g) is not None
            if not other:
                assert g == f
                continue
            assert divide_exact(other, g) is not None
            _, oparts = factor_univariate(other)
            common = sum(h.degree() * min(e, oparts[h]) for h, e in parts.items() if h in oparts)
            assert g.degree() == common
        prev = f


def test_gcd_univariate_of_zero():
    zero = Poly.zero(F3, T)
    assert gcd_univariate(zero, zero) == zero
    assert gcd_univariate(zero, t_("2*t+1")) == t_("t+2")
