"""Polynomial layer: parsing, grlex order, division, factoring."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagval.errors import FactoringWindowExceeded, InvalidInput, SizeBound
from flagval import poly as poly_module
from flagval.ff import FiniteField
from flagval.poly import (
    Poly,
    divide_exact,
    divmod_univariate,
    factor,
    factor_bivariate,
    gcd_univariate,
    irreducible_canonicals_bivariate,
    is_irreducible,
    linear_canonicals,
    monic_irreducibles,
    multiplicity,
)

from conftest import evaluate, substitute

F2 = FiniteField(2)
F3 = FiniteField(3)
F5 = FiniteField(5)
T = ("t",)
XY = ("x", "y")


def t_(text, field=F3):
    return Poly.parse(field, text, T)


def xy(text, field=F3):
    return Poly.parse(field, text, XY)


def _divmod(f, g):
    """divmod_univariate on the dense lists of f and g, as Polys."""
    F, var = f.field, f.vars[0]
    q, r = divmod_univariate(F, f.to_dense(), g.to_dense())
    return Poly.from_dense(F, var, q), Poly.from_dense(F, var, r)


def _gcd(f, g):
    """gcd_univariate on the dense lists of f and g, as a Poly."""
    return Poly.from_dense(f.field, f.vars[0], gcd_univariate(f.field, f.to_dense(), g.to_dense()))


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
    with pytest.raises(InvalidInput):
        Poly.parse(F3, "t\n+1", T)  # a factor ends at the end of its text, not at a newline


@pytest.mark.parametrize("text", ["+", "x+y+", "x++y", "+x", "x+-y", "x-", "-", "--x", "x*-y"])
def test_parse_rejects_empty_terms(text):
    with pytest.raises(InvalidInput):
        xy(text)


def test_parse_leading_and_joining_minus():
    assert xy("-x") == xy("2*x")
    assert xy("-x-y") == xy("2*x+2*y")
    assert xy(" - x + y") == xy("2*x+y")
    assert xy("x-y+y") == xy("x")


def test_parse_refuses_overlong_integers():
    # Python refuses to convert integer strings past 4300 digits
    for text in ["1" * 5000, "t^" + "1" * 5000]:
        with pytest.raises(InvalidInput):
            t_(text)


@settings(max_examples=60)
@given(st.data())
def test_parse_str_roundtrip_drawn(data):
    F = FiniteField(data.draw(st.sampled_from([2, 3, 4])))
    terms = data.draw(
        st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(1, F.q - 1), max_size=6
        )
    )
    p = Poly(F, XY, terms)
    assert Poly.parse(F, str(p), XY) == p


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


def test_make_canonical():
    c, mon = t_("2*t+2").make_canonical()
    assert c == 2 and str(mon) == "t+1"
    c2, mon2 = xy("2*x^2+y").make_canonical()
    assert c2 == 2 and str(mon2) == "x^2+2*y"


def test_evaluate_substitute_map_vars():
    f = xy("x^2+2*y+1")
    assert evaluate(f, (1, 1)) == (1 + 2 + 1) % 3
    g = substitute(f, {"x": xy("x"), "y": xy("x^2")})
    assert str(g) == "1"  # x^2 + 2x^2 + 1 = 3x^2 + 1 = 1
    h = t_("t^2+2").map_vars(XY, {0: 1})
    assert str(h) == "y^2+2"


def test_divmod_univariate():
    f = t_("t^4+t+1")
    g = t_("t^2+1")
    q, r = _divmod(f, g)
    assert q * g + r == f
    assert r.degree() < g.degree()
    with pytest.raises(ZeroDivisionError):
        _divmod(f, Poly.zero(F3, T))


@settings(max_examples=40)
@given(st.data())
def test_divmod_property(data):
    dense = st.lists(st.integers(0, 1), min_size=1, max_size=6)
    f = Poly.from_dense(F2, "t", data.draw(dense))
    g = Poly.from_dense(F2, "t", data.draw(dense))
    if not g:
        return
    q, r = _divmod(f, g)
    assert q * g + r == f
    assert not r or r.degree() < g.degree()


def test_gcd_univariate():
    f = t_("t+1") * t_("t+2")
    assert _gcd(f, t_("t+1")) == t_("t+1")
    assert _gcd(f, t_("t")) == t_("1")
    sq = t_("t+1") ** 2 * t_("t")
    assert _gcd(sq, t_("t+1") * t_("t")) == t_("t+1") * t_("t")


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
        assert all(evaluate(p, (a,)) != 0 for a in range(3))
    assert str(quads[0]) == "t^2+1"


def test_monic_irreducibles_f2_deg3():
    irr = monic_irreducibles(2, "t", 3)
    assert [str(p) for p in irr] == ["t", "t+1", "t^2+t+1", "t^3+t+1", "t^3+t^2+1"]


def test_factor_univariate():
    unit, parts = factor(t_("t^3+1"))
    assert unit == 1 and parts == {t_("t+1"): 3}
    unit, parts = factor(t_("2*t^2+2"))
    assert unit == 2 and parts == {t_("t^2+1"): 1}
    # reassembly
    f = t_("t^5+t^3+2*t+1")
    unit, parts = factor(f)
    out = Poly.constant(F3, T, unit)
    for g, e in parts.items():
        assert is_irreducible(g)
        out = out * g**e
    assert out == f


def test_factor_univariate_candidate_cap():
    import time

    F49 = FiniteField(49)
    # degree 8 would enumerate 49^4 candidate divisors: refused at once
    f8 = Poly.from_dense(F49, "t", [3, 1, 0, 5, 0, 0, 0, 0, 1])
    refused = [
        f8,
        Poly.from_dense(F49, "t", [1] * 7),  # degree 6: 49^3
        t_("t^99999999+1"),  # refused before a dense list is built
    ]
    before = poly_module._factor_univariate_cached.cache_info()
    start = time.perf_counter()
    for f in refused + refused:  # a refusal is not cached: the repeat is refused again
        with pytest.raises(SizeBound):
            factor(f)
    assert time.perf_counter() - start < 1.0
    assert poly_module._factor_univariate_cached.cache_info() == before
    # degree 5 (49^2 candidates) still factors completely
    f5 = Poly.from_dense(F49, "t", [7, 0, 1]) * Poly.from_dense(F49, "t", [2, 30, 0, 1])
    unit, parts = factor(f5)
    out = Poly.constant(F49, T, unit)
    for g, e in parts.items():
        assert is_irreducible(g)
        out = out * g**e
    assert out == f5


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
        unit, parts = factor(f)
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
            quo, rem = _divmod(f, h)
            exact = divide_exact(f, h)
            assert (rem == Poly.zero(F, T)) == (exact is not None)
            if exact is not None:
                assert quo == exact
            assert quo * h + rem == f
        # the gcd is monic, divides both inputs and has the degree of the
        # common part of the two factorizations
        assert _gcd(f, prev * f) == f
        for other in (_derivative(f), prev):
            g = _gcd(f, other)
            assert g.leading_coeff() == 1
            assert divide_exact(f, g) is not None
            if not other:
                assert g == f
                continue
            assert divide_exact(other, g) is not None
            _, oparts = factor(other)
            common = sum(h.degree() * min(e, oparts[h]) for h, e in parts.items() if h in oparts)
            assert g.degree() == common
        prev = f


def test_gcd_univariate_of_zero():
    zero = Poly.zero(F3, T)
    assert _gcd(zero, zero) == zero
    assert _gcd(zero, t_("2*t+1")) == t_("t+2")


def test_dense_kernels_take_and_give_lists():
    # t^4+t+1 = (t^2+2)(t^2+1) + t+2 over GF(3), constant term first
    assert divmod_univariate(F3, [1, 1, 0, 0, 1], [1, 0, 1]) == ([2, 0, 1], [2, 1])
    assert divmod_univariate(F3, [1, 1], [0, 0, 2]) == ([], [1, 1])
    with pytest.raises(ZeroDivisionError):
        divmod_univariate(F3, [1, 1], [])
    assert gcd_univariate(F3, [], []) == []
    assert gcd_univariate(F3, [2, 2], [1, 0, 2]) == [1, 1]  # (t+1)(2t+1)


# -- trusted internal construction against the validating constructor ----


def _bivariate_upto(F, max_deg):
    """Every bivariate polynomial over F of total degree <= max_deg."""
    exps = [(a, d - a) for d in range(max_deg + 1) for a in range(d + 1)]
    for code in range(F.q ** len(exps)):
        coeffs = {}
        for e in exps:
            coeffs[e] = code % F.q
            code //= F.q
        yield Poly(F, XY, coeffs)


def _random_bivariate(F, rng, max_deg):
    return Poly(
        F, XY, {(a, b): rng.randrange(F.q) for a in range(max_deg + 1) for b in range(max_deg + 1 - a)}
    )


def _reference_mul(f, g):
    """Sparse product through the field's methods and the validating constructor."""
    F = f.field
    out = {}
    for e1, c1 in f.coeffs.items():
        for e2, c2 in g.coeffs.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = F.add(out.get(e, 0), F.mul(c1, c2))
    return Poly(F, f.vars, out)


def _assert_validated(p):
    """p equals, and hashes like, its rebuild through the validating constructor."""
    again = Poly(p.field, p.vars, dict(p.coeffs))
    assert p == again and again == p
    assert hash(p) == hash(again)
    assert all(p.coeffs.values()), p.coeffs  # no stored zero


def _trusted_results(a, b):
    out = [a + b, a - b, a * b, -a, a * 2, b * 0]
    out += [a**k for k in range(4)]
    if a:
        out.append(a.make_canonical()[1])
    if b:
        out.append(divide_exact(a * b, b))
    return out


def _trusted_pairs():
    every = list(_bivariate_upto(F2, 2))
    yield from ((a, b) for a in every for b in every)
    for q in (3, 4, 49):
        F = FiniteField(q)
        rng = random.Random(q)
        for _ in range(60):
            yield _random_bivariate(F, rng, 2), _random_bivariate(F, rng, rng.randint(0, 2))


def test_trusted_results_match_validated_constructor():
    for a, b in _trusted_pairs():
        results = _trusted_results(a, b)
        for p in results:
            _assert_validated(p)
        assert results[2] == _reference_mul(a, b)
        if b:
            assert results[-1] == a


def test_public_constructors_still_validate():
    bad_coeffs = [3, -1, "1", 1.0]
    for c in bad_coeffs:
        with pytest.raises(InvalidInput):
            Poly(F3, XY, {(1, 0): c})
        with pytest.raises(InvalidInput):
            Poly.constant(F3, T, c)
        with pytest.raises(InvalidInput):
            Poly.from_dense(F3, "t", [1, c])
    for exp in [(1,), (1, 0, 0), (-1, 0), (1.0, 0), ("1", 0)]:
        with pytest.raises(InvalidInput):
            Poly(F3, XY, {exp: 1})
    with pytest.raises(InvalidInput):
        Poly(F3, ("x", "y", "z"), {})


# -- the factorization caches --------------------------------------------


def _uncached_factor(f):
    unit, parts = poly_module._factor_bivariate_cached.__wrapped__(f)
    return unit, dict(parts)


def test_factor_cache_hands_out_fresh_dicts():
    cases = (
        (factor_bivariate, xy("x*y^2+x*y")),
        (factor, xy("x*y^2+x*y")),
        (factor, t_("t^3+t")),
        (factor, t_("t^3+t")),
    )
    for fn, f in cases:
        unit, parts = fn(f)
        expected = dict(parts)
        parts.clear()
        parts[xy("x+1")] = 7
        assert fn(f) == (unit, expected)


def _factor_cases():
    yield from (f for f in _bivariate_upto(F2, 3) if f)
    rng = random.Random(3)
    lin = linear_canonicals(3, XY)
    for _ in range(150):
        f = _random_bivariate(F3, rng, rng.randint(1, 3))
        if f:
            yield f
    for _ in range(50):
        f = Poly.constant(F3, XY, rng.randint(1, 2))
        for _ in range(rng.randint(1, 3)):
            f = f * rng.choice(lin)
        yield f


def test_factor_cache_matches_uncached_and_multiplies_back():
    for f in _factor_cases():
        first = factor_bivariate(f)
        cached = factor_bivariate(f)
        uncached = _uncached_factor(f)
        assert cached == first == uncached
        assert list(cached[1].items()) == list(uncached[1].items())  # same factor order
        unit, parts = cached
        back = Poly.constant(f.field, XY, unit)
        for g, e in parts.items():
            assert g.leading_coeff() == 1 and g.degree() >= 1
            back = back * g**e
        assert back == f


def _univariate_upto(F, max_deg):
    """Every nonzero univariate polynomial over F of degree <= max_deg."""
    for dense in itertools.product(range(F.q), repeat=max_deg + 1):
        if any(dense):
            yield Poly.from_dense(F, "t", list(dense))


def _univariate_cases():
    for q, max_deg in ((2, 5), (3, 4), (4, 3), (9, 3)):
        yield from _univariate_upto(FiniteField(q), max_deg)
    F49 = FiniteField(49)
    rng = random.Random(49)
    for _ in range(200):
        f = Poly.from_dense(F49, "t", [rng.randrange(49) for _ in range(rng.randint(1, 6))])
        if f:
            yield f


def test_univariate_cache_matches_uncached_and_multiplies_back():
    for f in _univariate_cases():
        first = factor(f)
        cached = factor(f)
        unit, parts = _KERNEL(f)
        assert cached == first == (unit, dict(parts))
        assert list(cached[1].items()) == list(parts)  # same factors, same order
        unit, parts = cached
        back = Poly.constant(f.field, T, unit)
        for g, e in parts.items():
            assert g.leading_coeff() == 1 and g.degree() >= 1
            back = back * g**e
        assert back == f


def test_univariate_cache_is_bounded():
    cached = poly_module._factor_univariate_cached
    cached.cache_clear()
    for f in itertools.islice(_univariate_upto(F3, 5), 300):
        factor(f)
    info = cached.cache_info()
    assert info.misses == 300
    assert info.currsize == info.maxsize == poly_module.UNIVARIATE_CACHE_SIZE == 256


# -- roots-then-trial factoring against trial division --------------------


@functools.lru_cache(maxsize=None)
def _irreducibles_by_division(q, max_deg):
    """Monic irreducibles of degree 1..max_deg by trial division against
    every lower irreducible, in (degree, code) order, with dense tuples."""
    F = FiniteField(q)
    found = []
    for d in range(1, max_deg + 1):
        lower = [(g, b) for g, b in found if len(b) - 1 <= d // 2]
        for code in range(q**d):
            dense = [code // q**i % q for i in range(d)] + [1]
            if all(poly_module._divrem(F, dense, b)[1] for _, b in lower):
                found.append((Poly.from_dense(F, "t", dense), tuple(dense)))
    return tuple(found)


def _trial_factor(f):
    """The trial-division kernel: the monic irreducibles up to half the
    degree in enumeration order, each divided out with its multiplicity,
    then the leftover factor.  Answers (unit, ((factor, mult), ...))."""
    unit, f = f.make_canonical()
    F = f.field
    a = f.to_dense()
    d = len(a) - 1
    out = {}
    for g, b in _irreducibles_by_division(F.q, max(d // 2, 1) if d else 0):
        if len(a) < 2 * len(b) - 1:  # deg a < 2 deg g
            break
        k, a, _ = poly_module._multiplicity_dense(F, a, b)
        if k:
            out[g] = k
    if len(a) > 1:
        rest = Poly.from_dense(F, "t", a)
        out[rest] = out.get(rest, 0) + 1
    return unit, tuple(out.items())


def _kernel_mismatches(kernel, polys):
    """Inputs whose (unit, pairs) differ from trial division, order included."""
    return [f for f in polys if kernel(f) != _trial_factor(f)]


def _every_univariate(q, max_deg):
    """Every nonzero polynomial over GF(q) of degree <= max_deg."""
    F = FiniteField(q)
    return [
        Poly.from_dense(F, "t", list(dense))
        for dense in itertools.product(range(q), repeat=max_deg + 1)
        if any(dense)
    ]


def _gf49_factor_sample(n=500):
    """Seeded GF(49) inputs of degree <= 5: random ones and products of
    linears and quadratics with repeats, scaled by a random unit."""
    F = FiniteField(49)
    rng = random.Random(4949)
    irr = monic_irreducibles(49, "t", 2)
    out = []
    for _ in range(n):
        if rng.random() < 0.5:
            dense = [rng.randrange(49) for _ in range(rng.randint(1, 5))] + [rng.randrange(1, 49)]
            out.append(Poly.from_dense(F, "t", dense))
            continue
        f = Poly.constant(F, T, rng.randrange(1, 49))
        while True:
            g = rng.choice(irr)
            if f.degree() + g.degree() > 5:
                break
            f = f * g
        out.append(f)
    return out


def _KERNEL(f):
    """The uncached factoring kernel, on the dense tuple of the Poly f."""
    return poly_module._factor_univariate_cached.__wrapped__(f.field, f.vars[0], tuple(f.to_dense()))


def test_monic_irreducibles_match_trial_division():
    for q, max_deg in ((49, 2), (25, 2), (9, 3), (7, 3), (8, 3), (2, 6), (3, 4), (5, 4)):
        assert monic_irreducibles(q, "t", max_deg) == tuple(g for g, _ in _irreducibles_by_division(q, max_deg))


@pytest.mark.parametrize("q,max_deg", [(2, 10), (3, 5), (4, 4), (5, 4), (7, 3), (8, 3), (9, 3)])
def test_factor_matches_trial_division_exhaustive(q, max_deg):
    # every polynomial, any leading coefficient; over GF(2) this holds
    # every input of degree 7 and 8, the largest the round trips factor
    assert _kernel_mismatches(_KERNEL, _every_univariate(q, max_deg)) == []


def test_factor_matches_trial_division_gf49_sampled():
    sample = _gf49_factor_sample()
    assert max(f.degree() for f in sample) == 5
    assert _kernel_mismatches(_KERNEL, sample) == []


QUADRATIC_FIELDS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49]


def _irreducible_quadratics_by_roots(q):
    """The monic quadratics with no root, found by Horner at every field
    element, after the linears: the route the lookup table replaced."""
    F = FiniteField(q)
    out = list(monic_irreducibles(q, "t", 1))
    for a1, a0 in itertools.product(range(q), repeat=2):  # code a0 + a1*q
        dense = [a0, a1, 1]
        if not any(poly_module._root_multiplicity(F, dense, r)[0] for r in range(q)):
            out.append(Poly.from_dense(F, "t", dense))
    return tuple(out)


@pytest.mark.parametrize("q", QUADRATIC_FIELDS)
def test_every_monic_quadratic_splits_by_lookup(q, monkeypatch):
    # a monic quadratic is settled by one lookup in the split table, with
    # no Horner pass, and factors as trial division does, pairs in order
    F = FiniteField(q)
    quadratics = [Poly.from_dense(F, "t", [a0, a1, 1]) for a1 in range(q) for a0 in range(q)]
    expected = [_trial_factor(f) for f in quadratics]
    monkeypatch.setattr(poly_module, "_root_multiplicity", None)
    assert [_KERNEL(f) for f in quadratics] == expected
    monkeypatch.undo()
    assert monic_irreducibles(q, "t", 2) == _irreducible_quadratics_by_roots(q)
    assert len(poly_module._split_quadratics(q)) == q * (q + 1) // 2


def _reversed_roots(f):
    unit, pairs = _KERNEL(f)
    linear = [p for p in pairs if p[0].degree() == 1]
    return unit, tuple(linear[::-1]) + pairs[len(linear) :]


def _one_more(f):
    unit, pairs = _KERNEL(f)
    return unit, tuple((g, k + 1 if i == 0 else k) for i, (g, k) in enumerate(pairs))


def test_trial_division_oracle_catches_order_and_multiplicity(monkeypatch):
    polys = _every_univariate(3, 4)
    # roots in the wrong order leave the factor dict as it is: only the
    # ordered pairs tell the two answers apart
    caught = _kernel_mismatches(_reversed_roots, polys)
    assert caught and all(dict(_reversed_roots(f)[1]) == dict(_KERNEL(f)[1]) for f in caught)
    assert _kernel_mismatches(_one_more, polys)
    # faults inside the kernel, through its Horner helper: an off-by-one
    # multiplicity, and roots taken with the wrong sign
    real = poly_module._root_multiplicity

    def off_by_one(F, a, root):
        k, b, c = real(F, a, root)
        return (k + 1 if k else 0), b, c

    monkeypatch.setattr(poly_module, "_root_multiplicity", off_by_one)
    assert _kernel_mismatches(_KERNEL, polys)
    monkeypatch.setattr(poly_module, "_root_multiplicity", lambda F, a, root: real(F, a, F.neg(root)))
    assert _kernel_mismatches(_KERNEL, polys)


def test_candidates_are_enumerated_only_for_a_root_free_cofactor(monkeypatch):
    # a split input asks only for the linear table; degrees >= 2 are
    # enumerated only when a root-free cofactor of degree >= 4 is left,
    # and then up to half that cofactor's degree, not the input's
    asked = []
    real = poly_module.monic_irreducibles

    def spy(q, var, max_deg):
        asked.append(max_deg)
        return real(q, var, max_deg)

    monkeypatch.setattr(poly_module, "monic_irreducibles", spy)
    F49 = FiniteField(49)
    linears = [Poly.from_dense(F49, "t", [c, 1]) for c in (3, 3, 17, 40, 48)]
    split = functools.reduce(lambda a, b: a * b, linears)  # degree 5 over GF(49)
    square = t_("t") * t_("t^2+1") ** 2  # root-free cofactor of degree 4 over GF(3)
    gf2 = t_("t^3", FiniteField(2)) * t_("t^4+t+1", FiniteField(2))  # degree 7, cofactor of degree 4
    for f, want, factors in ((split, [1], 4), (square, [1, 2], 2), (gf2, [1, 2], 2)):
        asked.clear()
        unit, pairs = _KERNEL(f)
        assert asked == want, str(f)
        assert len(pairs) == factors
        out = Poly.constant(f.field, T, unit)
        for g, e in pairs:
            out = out * g**e
        assert out == f
