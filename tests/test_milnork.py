"""Tame symbols, Steinberg relation and reciprocity."""

import numpy as np
import pytest

from flagval.errors import InvalidInput
from flagval.ff import FiniteField
from flagval.fields import RationalFn
from flagval.milnork import steinberg_check, support_places, tame_symbol, weil_reciprocity_check
from flagval.poly import Poly
from flagval.valuations import FinitePlace, serialize_place

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


def _tame_oracle(f, g, place):
    """The defining formula: the residue of (-1)^(mn) f^n / g^m, formed
    as a rational function first."""
    m, n = place.val(f), place.val(g)
    h = f**n / g**m
    if (m * n) % 2:
        h = h * place.field.neg(1)
    v, r = place.unit_residue(h)
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
