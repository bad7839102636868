"""Additive characters on K*/k*: inertia solving and c-pairs."""

import pytest

from flagval.errors import InvalidInput, ProportionalPair
from flagval.ff import FiniteField
from flagval.fields import RationalFn
from flagval.intlin import kernel_basis
from flagval.poly import Poly, monic_irreducibles
from flagval.valuations import (
    CompositePlace,
    DivisorialCurve,
    FinitePlace,
    InfinitePlace,
    serialize_place,
)
from flagval.weil import (
    WeilElement,
    c_pair_test,
    find_supporting_valuation,
    is_inertia,
    solve_inertia,
    subfield_generators,
    value_matrix,
)

F3 = FiniteField(3)
T = ("t",)
XY = ("x", "y")


def rt(text):
    return RationalFn.parse(F3, text, T)


def rxy(text):
    return RationalFn.parse(F3, text, XY)


def gens_deg(bound):
    return [RationalFn.from_poly(p) for p in monic_irreducibles(3, "t", bound)]


def test_weil_element_from_valuation():
    w = WeilElement(FinitePlace(Poly.parse(F3, "t", T)))
    assert w.evaluate(rt("t^2")) == 2
    assert w.evaluate(rt("t+1")) == 0
    assert w.evaluate(rt("1/t")) == -1
    assert w.evaluate(rt("t^2+t")) == 1
    assert w.values_on([rt("t"), rt("t+1")]) == (1, 0)
    for f, g in [(rt("t"), rt("t+1")), (rt("t^2"), rt("1/t"))]:
        assert w.evaluate(f * g) == w.evaluate(f) + w.evaluate(g)


def test_character_arity():
    c = DivisorialCurve(Poly.parse(F3, "x", XY))
    pt = FinitePlace(Poly.parse(F3, "y", ("y",)))
    comp = CompositePlace(c, pt)
    w = WeilElement(comp, (1, 0))
    assert w.evaluate(rxy("x*y^2")) == 1
    w2 = WeilElement(comp, (0, 1))
    assert w2.evaluate(rxy("x*y^2")) == 2
    with pytest.raises(InvalidInput):
        WeilElement(comp, (1,))


def test_subfield_generators():
    h = rxy("x/y")
    gens = subfield_generators(h)
    assert len(gens) == len(monic_irreducibles(3, "s", 2))
    # P = s maps to h itself
    P0, fh0 = gens[0]
    assert str(P0) == "s" and fh0 == h
    with pytest.raises(InvalidInput):
        subfield_generators(RationalFn.constant(F3, XY, 1))


def test_subfield_generator_values():
    # nu_x on the generators of k(x): P(x) keeps the multiplicity of the root 0
    w = WeilElement(DivisorialCurve(Poly.parse(F3, "x", XY)))
    by_str = {str(P): w.evaluate(fh) for P, fh in subfield_generators(rxy("x"))}
    assert by_str["s"] == 1
    assert by_str["s+1"] == 0
    assert by_str["s^2+1"] == 0


def test_unit_lattice_and_value_vector():
    p = FinitePlace(Poly.parse(F3, "t", T))
    gens = gens_deg(2)
    rows = value_matrix(p, gens)
    assert rows == [[1], [0], [0], [0], [0], [0]]
    basis = kernel_basis(rows)
    assert len(basis) == len(gens) - 1
    for x in basis:
        assert sum(a * b for a, (b,) in zip(x, rows)) == 0
    # a composite place gives one row of two values per generator
    comp = CompositePlace(
        DivisorialCurve(Poly.parse(F3, "x", XY)), FinitePlace(Poly.parse(F3, "y", ("y",)))
    )
    assert value_matrix(comp, [rxy("x"), rxy("y"), rxy("x*y^2")]) == [[1, 0], [0, 1], [1, 2]]


def test_solve_inertia_every_small_place():
    gens = gens_deg(2)
    places = [FinitePlace(p) for p in monic_irreducibles(3, "t", 2)]
    places.append(InfinitePlace(F3, "t"))
    for place in places:
        rows = value_matrix(place, gens)
        solved = solve_inertia(kernel_basis(rows), len(gens))
        vv = [v for (v,) in rows]
        assert len(solved) == 1, serialize_place(place)
        assert solved[0] == vv or solved[0] == [-x for x in vv], serialize_place(place)
    # no unit directions: every row qualifies
    assert solve_inertia([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_is_inertia():
    gens = gens_deg(2)
    pt = FinitePlace(Poly.parse(F3, "t", T))
    pt1 = FinitePlace(Poly.parse(F3, "t+1", T))
    units = kernel_basis(value_matrix(pt, gens))
    assert is_inertia(WeilElement(pt).values_on(gens), units)
    # the neighbour valuation does not vanish on t+1, a unit at t
    assert not is_inertia(WeilElement(pt1).values_on(gens), units)


def test_c_pair_refutation_frozen():
    gamma = WeilElement(DivisorialCurve(Poly.parse(F3, "x", XY)))
    gamma_p = WeilElement(DivisorialCurve(Poly.parse(F3, "y", XY)))
    v = c_pair_test(gamma, gamma_p, [rxy("x/y")])
    assert not v.cyclic
    h, Pa, Pb, minor = v.witness
    assert (h, Pa, Pb, minor) == ("(x)/(y)", "s", "s+1", -1)
    assert v.rows


def test_c_pair_composite_passes():
    comp = CompositePlace(
        DivisorialCurve(Poly.parse(F3, "x", XY)), FinitePlace(Poly.parse(F3, "y", ("y",)))
    )
    g1 = WeilElement(comp, (1, 0))
    g2 = WeilElement(comp, (0, 1))
    family = [rxy("x"), rxy("y"), rxy("x+y"), rxy("x*y"), rxy("x/y")]
    v = c_pair_test(g1, g2, family)
    assert v.cyclic and v.witness is None


def test_c_pair_proportional_raises():
    gamma = WeilElement(DivisorialCurve(Poly.parse(F3, "x", XY)))
    doubled = WeilElement(gamma.place, (2,))
    with pytest.raises(ProportionalPair):
        c_pair_test(gamma, doubled, [rxy("x/y")])


def test_find_supporting_valuation_frozen():
    gamma = WeilElement(DivisorialCurve(Poly.parse(F3, "x", XY)))
    gamma_p = WeilElement(DivisorialCurve(Poly.parse(F3, "y", XY)))
    gens = [rxy("x"), rxy("y"), rxy("x+1"), rxy("y+1"), rxy("x+y")]
    universe = [
        DivisorialCurve(Poly.parse(F3, "x+y", XY)),
        DivisorialCurve(Poly.parse(F3, "x", XY)),
        DivisorialCurve(Poly.parse(F3, "y", XY)),
    ]
    hit = find_supporting_valuation(gamma, gamma_p, universe, gens)
    assert hit is not None
    place, combo = hit
    assert serialize_place(place) == "curve:x"
    assert combo[1] == 0 and combo[0] != 0
