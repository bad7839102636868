"""Tame symbols, Steinberg relation and reciprocity."""

import itertools
import random

import numpy as np
import pytest

from flagval import milnork, suites
from flagval.errors import InvalidInput
from flagval.ff import FiniteField
from flagval.fields import INF, RationalFn, to_divisor
from flagval.milnork import steinberg_check, support_places, tame_symbol, weil_reciprocity_check
from flagval.poly import Poly, monic_irreducibles
from flagval.suites import SuiteConfig, run_suite
from flagval.valuations import FinitePlace, InfinitePlace, QuotientRing, serialize_place

from conftest import unit_residue

F3 = FiniteField(3)
F5 = FiniteField(5)
t3 = RationalFn.parse(F3, "t", ("t",))
t5 = RationalFn.parse(F5, "t", ("t",))
PT = FinitePlace(Poly.parse(F3, "t", ("t",)))


def rand_fn(F, rng, dmax=4):
    while True:
        num = Poly.from_dense(F, "t", [int(c) for c in rng.integers(0, F.q, rng.integers(1, dmax + 2))])
        den = Poly.from_dense(F, "t", [int(c) for c in rng.integers(0, F.q, rng.integers(1, dmax + 2))])
        if num and den:
            return RationalFn(num, den)


def test_steinberg_worked():
    assert tame_symbol(t3, 1 - t3, PT) == 1


def test_worked_example_residues():
    assert tame_symbol(t3, t3 - 1, PT) == 2
    places = support_places(t3, t3 - 1)
    assert [serialize_place(p) for p in places] == ["finite:t", "finite:t+2", "infinite"]
    residues = [tame_symbol(t3, t3 - 1, p) for p in places]
    assert residues == [2, 1, 2]
    prod = 1
    for r in residues:
        prod = F3.mul(prod, r)
    assert prod == 1
    assert weil_reciprocity_check(t3, t3 - 1)


def test_symbol_pair_rejects_zero():
    zero = RationalFn.constant(F3, ("t",), 0)
    with pytest.raises(InvalidInput):
        support_places(t3, zero)
    with pytest.raises(InvalidInput):
        tame_symbol(zero, t3, PT)
    for place in (PT, InfinitePlace(F3, "t")):  # never an IndexError from an empty part
        with pytest.raises(InvalidInput):
            tame_symbol(t3, zero, place)


def test_support_places_refuses_bivariate_entries():
    # support generators are trusted as univariate factors
    x = RationalFn.parse(F3, "x", ("x", "y"))
    with pytest.raises(InvalidInput):
        support_places(x, x + 1)
    with pytest.raises(InvalidInput):
        steinberg_check(x)


def test_self_pairing_sign_pattern():
    # {f, f} has residue (-1)^m at a place of value m
    f = t3**2 * (t3 - 1)
    for p in support_places(f, f):
        m = p.val(f)
        want = p.ring.one if m % 2 == 0 else p.ring.neg(p.ring.one)
        assert tame_symbol(f, f, p) == want, serialize_place(p)


def test_antisymmetry_inverts():
    a = t3 + 1
    b = t3**2 + 1
    for p in support_places(a, b):
        x = tame_symbol(a, b, p)
        y = tame_symbol(b, a, p)
        assert p.ring.mul(x, y) == p.ring.one


def test_pair_with_own_negative_trivial():
    g = (t3 + 1) / (t3**2 + 1)
    for p in support_places(g, -1 * g):
        assert tame_symbol(g, -1 * g, p) == p.ring.one


def test_steinberg_fixed_and_random():
    assert steinberg_check(t3)
    assert steinberg_check((t5**2 + 1) / t5)
    with pytest.raises(InvalidInput):
        steinberg_check(RationalFn.constant(F3, ("t",), 1))
    rng = np.random.default_rng(11)
    one5 = RationalFn.constant(F5, ("t",), 1)
    checked = 0
    while checked < 25:
        h = rand_fn(F5, rng)
        if not h or h == one5:
            continue
        assert steinberg_check(h)
        checked += 1


def test_bilinearity_and_reciprocity_random():
    rng = np.random.default_rng(11)
    for _ in range(15):
        a, b, c = (rand_fn(F5, rng) for _ in range(3))
        for p in dict.fromkeys(support_places(a, b) + support_places(c, b)):
            lhs = tame_symbol(a * c, b, p)
            r1 = tame_symbol(a, b, p)
            r2 = tame_symbol(c, b, p)
            assert lhs == p.ring.mul(r1, r2)
        assert weil_reciprocity_check(a, b)


def test_support_is_canonically_ordered():
    names = [serialize_place(p) for p in support_places(t3 * (t3 + 1), (t3 + 2) / t3)]
    finite = [n for n in names if n.startswith("finite")]
    assert names == sorted(finite) + [n for n in names if n == "infinite"]


def _tame_oracle(f, g, place, power=pow, val=None):
    """The defining formula: the residue of (-1)^(mn) f^n / g^m, formed
    as a rational function first; `power(h, k)` gives h^k and `val(h)`
    the value of h at the place."""
    val = val or place.val
    m, n = val(f), val(g)
    h = power(f, n) * power(g, -m)
    if (m * n) % 2:
        h = -h
    v, r = unit_residue(place, h)
    assert v == 0
    return r


def _draw_fn(F, rng, dmax=3):
    while True:
        num, den = (
            Poly.from_dense(F, "t", [rng.randrange(F.q) for _ in range(rng.randint(1, dmax + 1))])
            for _ in range(2)
        )
        if num and den:
            return RationalFn(num, den)


# degree <= 2 over GF(49) keeps f*g inside the factoring cap
@pytest.mark.parametrize("q,draws,dmax", [(2, 60, 3), (3, 60, 3), (4, 50, 3), (5, 50, 3), (9, 40, 3), (49, 40, 2)])
def test_tame_symbol_matches_formula(q, draws, dmax):
    # unit residues r_f^n r_g^(-m) against the formula on the rational
    # function itself, on every support place of seeded symbols
    import random

    F = FiniteField(q)
    rng = random.Random(q)
    checked = odd = 0
    for _ in range(draws):
        f, g = _draw_fn(F, rng, dmax), _draw_fn(F, rng, dmax)
        pairs = [(f, g), (f, f), (g, f * g)]
        if f - 1:
            pairs.append((f, 1 - f))
        for a, b in pairs:
            for place in support_places(a, b):
                assert tame_symbol(a, b, place) == _tame_oracle(a, b, place), (q, str(a), str(b), place)
                checked += 1
                odd += place.val(a) * place.val(b) % 2
    assert checked > 300 and odd > 100, (checked, odd)


def _unit_residue_route(ring, m, rf, n, rg):
    """The route the symbol took before it split parts:
    (-1)^(mn) r_f^n r_g^(-m) from the unit residues (m, r_f) of f and
    (n, r_g) of g."""
    r = ring.mul(ring.pow(rf, n), ring.pow(rg, -m))
    if (m * n) % 2:
        r = ring.neg(r)
    return r


def _canonical_fns(q, max_deg):
    """Every nonzero canonical n/d with deg n, deg d <= max_deg."""
    F = FiniteField(q)
    polys = [Poly.from_dense(F, "t", list(c)) for c in itertools.product(range(q), repeat=max_deg + 1)]
    dens = [d for d in polys if d and d.leading_coeff() == 1]
    out = []
    for n in polys:
        for d in dens:
            if n:
                f = RationalFn(n, d)
                if (f.num, f.den) == (n, d):
                    out.append(f)
    return out


def _support_oracle(f, g):
    """The divisor route of the support: the generators of to_divisor(f)
    and to_divisor(g), finite ones by Poly.sort_key, infinity last."""
    finite, inf = {}, False
    for h in (f, g):
        for gen in to_divisor(h).exps:
            if gen == INF:
                inf = True
            else:
                finite[gen] = None
    places = [FinitePlace(pi) for pi in sorted(finite, key=lambda p: p.sort_key())]
    return places + [InfinitePlace(f.field, "t")] * inf


@pytest.mark.parametrize("q,max_deg", [(2, 1), (3, 1), (4, 1), (2, 2)])
def test_support_places_match_the_divisor_route_exhaustive(q, max_deg):
    # every ordered pair of canonical functions: the same places in the
    # same order, and a zero on either side refused as before
    fns = _canonical_fns(q, max_deg)
    for f in fns:
        for g in fns:
            assert support_places(f, g) == _support_oracle(f, g), (str(f), str(g))
    zero = RationalFn.constant(FiniteField(q), ("t",), 0)
    for pair in ((fns[0], zero), (zero, fns[0])):
        with pytest.raises(InvalidInput, match="zero has no divisor"):
            support_places(*pair)


def test_support_places_match_the_divisor_route_sampled_f49():
    # 300 pairs drawn as the ktheory suite draws them, parts of degree <= 2
    rng = random.Random(4949)
    F49 = FiniteField(49)
    for _ in range(300):
        f, g = suites._random_rational(rng, F49, "t"), suites._random_rational(rng, F49, "t")
        assert support_places(f, g) == _support_oracle(f, g), (str(f), str(g))


@pytest.mark.parametrize("q,max_deg", [(2, 1), (3, 1), (4, 1), (2, 2)])
def test_tame_symbol_matches_both_oracles_exhaustive(q, max_deg):
    # every pair of canonical functions, at every support place, the
    # infinite place included; each function's support, unit residues
    # and powers are formed once
    fns = _canonical_fns(q, max_deg)
    support = [support_places(f, f) for f in fns]
    units: dict = {}
    powers: dict = {}

    def unit(i, place):
        if (i, place) not in units:
            units[i, place] = unit_residue(place, fns[i])
        return units[i, place]

    def power(h, k):
        if (id(h), k) not in powers:
            powers[id(h), k] = h**k
        return powers[id(h), k]

    checked = inf = odd = 0
    for i, f in enumerate(fns):
        for j, g in enumerate(fns):
            for place in dict.fromkeys(support[i] + support[j]):
                (m, rf), (n, rg) = unit(i, place), unit(j, place)
                values = {id(f): m, id(g): n}
                r = tame_symbol(f, g, place)
                assert r == _unit_residue_route(place.ring, m, rf, n, rg), (str(f), str(g), place)
                assert r == _tame_oracle(f, g, place, power, lambda h: values[id(h)]), (str(f), str(g), place)
                checked += 1
                inf += isinstance(place, InfinitePlace)
                odd += m * n % 2
    assert checked > len(fns) ** 2 and inf and odd, (checked, inf, odd)


def test_tame_symbol_high_exponents_on_both_sides():
    # exponents >= 2 on both sides, at degree-one, degree-two and
    # infinite places, so every power and the both-nonzero case run
    f, g = t3**3 / (t3 + 1) ** 2, (t3**2 + 1) ** 2 / t3
    f2, g2 = (t3**2 + 1) ** 2 / t3**3, t3**2 / (t3**2 + 1) ** 3
    values = {}
    for a in (f, g, f2, g2):
        for b in (f, g, f2, g2):
            for place in support_places(a, b):
                m, rf = unit_residue(place, a)
                n, rg = unit_residue(place, b)
                r = tame_symbol(a, b, place)
                assert r == _unit_residue_route(place.ring, m, rf, n, rg) == _tame_oracle(a, b, place)
                values[serialize_place(place), str(a), str(b)] = (m, n)
    assert values["finite:t", str(f), str(g)] == (3, -1)
    assert values["finite:t^2+1", str(f), str(g)] == (0, 2)
    assert values["infinite", str(f), str(g)] == (-1, -3)
    assert values["finite:t", str(f2), str(g2)] == (-3, 2)
    assert values["finite:t^2+1", str(f2), str(g2)] == (2, -3)
    assert values["finite:t^2+1", str(g), str(g2)] == (2, -3)


def test_ktheory_inverts_at_most_once_per_symbol(monkeypatch):
    # a seeded q=49 run of the large-field workload's suite: every symbol
    # goes through the kernel, and a residue ring F_49[t]/(pi) inverts at
    # most once per symbol, never when both values are 0
    inv = QuotientRing.inv
    inverses = [0]

    def counted_inv(self, a):
        inverses[0] += 1
        return inv(self, a)

    symbol = milnork.tame_symbol
    symbols = []

    def counted_symbol(f, g, place):
        before = inverses[0]
        r = symbol(f, g, place)
        symbols.append((place.degree, place.val(f), place.val(g), inverses[0] - before))
        return r

    monkeypatch.setattr(QuotientRing, "inv", counted_inv)
    monkeypatch.setattr(milnork, "tame_symbol", counted_symbol)
    monkeypatch.setattr(suites, "tame_symbol", counted_symbol)
    assert run_suite(SuiteConfig(suite="ktheory", q=49, seed=7, samples=400))["violations"] == 0
    assert len(symbols) == 2991
    assert all(k <= 1 for _, _, _, k in symbols)
    above = [k for d, _, _, k in symbols if d >= 2]
    assert len(above) == sum(above) == 919
    # off the support both values are 0, and nothing is inverted
    F49 = FiniteField(49)
    t49 = RationalFn.parse(F49, "t", ("t",))
    pi = next(p for p in monic_irreducibles(49, "t", 2) if p.degree() == 2)
    place = FinitePlace(pi)
    before = inverses[0]
    assert counted_symbol(t49 + 1, t49**2 / (t49 + 3), place) == place.ring.one
    assert symbols[-1] == (2, 0, 0, 0) and inverses[0] == before
