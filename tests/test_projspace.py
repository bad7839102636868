"""Projective incidence data and function-indexed subspaces.

The geometry built from point masks is held to the construction it
replaced: rref of every (d+1)-tuple of points, the span over every
coefficient vector, and deduplicated frozensets of point indices.
"""

import itertools
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagval.errors import InvalidInput, SizeBound
from flagval.ff import FiniteField
from flagval.fields import RationalFn
from flagval.poly import Poly
from flagval.projspace import EmbeddedSubspace, ProjGeometry, StratumTable, _ids, geometry, normalize_coords
from flagval.reconstruct import Arena
from test_fqlin import rref

F3 = FiniteField(3)
XY = ("x", "y")


def test_normalize_coords():
    F = FiniteField(3)
    assert normalize_coords(F, (0, 0, 0)) is None
    assert normalize_coords(F, (0, 2, 1)) == normalize_coords(F, (0, 1, 2))
    a = normalize_coords(F, (2, 1, 0))
    assert a is not None and a[0] == 1  # first nonzero coordinate scaled to 1


@settings(max_examples=300)
@given(st.integers(0, (1 << 200) - 1))
def test_ids_match_the_bitwise_definition(mask):
    assert _ids(mask) == tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


def test_fano_incidence():
    g = geometry(2, 2)
    assert len(g.points) == 7
    assert len(g.lines) == 7
    assert all(len(L) == 3 for L in g.lines)
    # any two distinct points lie on exactly one common line
    for a in range(7):
        for b in range(a + 1, 7):
            through = [L for L in g.lines if a in L and b in L]
            assert len(through) == 1
    # each point lies on exactly 3 lines
    for a in range(7):
        assert sum(1 for L in g.lines if a in L) == 3


def test_p2_f3_incidence():
    g = geometry(2, 3)
    assert len(g.points) == 13
    assert len(g.lines) == 13
    assert all(len(L) == 4 for L in g.lines)
    for a in range(13):
        for b in range(a + 1, 13):
            assert sum(1 for L in g.lines if a in L and b in L) == 1


def test_p3_f2_incidence():
    g = geometry(3, 2)
    assert len(g.points) == 15
    assert len(g.lines) == 35
    planes = g.subspaces[2]
    assert len(planes) == 15
    assert all(p.bit_count() == 7 for p in planes)


def test_chain_counts():
    # full chains = incident (point, line) pairs for a projective plane
    assert len(geometry(2, 2).chains) == 21
    assert len(geometry(2, 3).chains) == 52
    # P^3: incident point < line < plane triples
    assert len(geometry(3, 2).chains) == 15 * 7 * 3


def test_chain_strata_partition():
    g = geometry(2, 3)
    for chain in g.chains:
        strata = [set(s) for s in chain]
        assert sorted(len(s) for s in strata) == [1, 3, 9]
        seen = set()
        for s in strata:
            assert not (seen & s)
            seen |= s
        assert seen == set(range(13))


def _chains_per_chain_ids(levels, full):
    """The chain route that converts every stratum mask of every chain."""
    chains = []

    def grow(prefix):
        if len(prefix) == len(levels):
            steps = prefix + [full]
            chains.append(tuple(_ids(s ^ prev) for s, prev in zip(steps, [0] + prefix)))
            return
        top = prefix[-1]
        for s in levels[len(prefix)]:
            if s & top == top:
                grow(prefix + [s])

    for p in levels[0]:
        grow([p])
    return chains


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_chains_convert_each_stratum_once(n, q):
    g = ProjGeometry(n, q)
    npts = len(g.points)
    levels = [[1 << i for i in range(npts)]] + [g.subspaces[d] for d in range(1, n)]
    assert g.chains == _chains_per_chain_ids(levels, (1 << npts) - 1)
    # chains through one stratum share its tuple: one conversion per mask
    distinct = {s for chain in g.chains for s in chain}
    assert len({id(s) for chain in g.chains for s in chain}) == len(distinct)


def test_geometry_bounds():
    with pytest.raises(InvalidInput):
        geometry(0, 2)
    with pytest.raises(SizeBound):
        geometry(5, 7)


def _reference_geometry(n, q):
    """P^n(F_q) by spans: every (d+1)-tuple of points reduced by rref,
    its span listed over every coefficient vector, the point sets
    deduplicated, and chains grown over the frozensets."""
    F = FiniteField(q)
    norms = (normalize_coords(F, v) for v in itertools.product(F.elements(), repeat=n + 1))
    points = sorted({p for p in norms if p is not None})
    index = {p: i for i, p in enumerate(points)}

    def span(combo):
        basis, _ = rref(F, [list(points[i]) for i in combo])
        pts = set()
        for coef in itertools.product(F.elements(), repeat=len(basis)):
            vec = [0] * (n + 1)
            for c, row in zip(coef, basis):
                vec = [F.add(v, F.mul(c, x)) for v, x in zip(vec, row)]
            norm = normalize_coords(F, tuple(vec))
            if norm is not None:
                pts.add(index[norm])
        return len(basis) - 1, frozenset(pts)

    subspaces = {}
    for d in range(1, n):
        spans = map(span, itertools.combinations(range(len(points)), d + 1))
        subspaces[d] = sorted({pts for dim, pts in spans if dim == d}, key=sorted)
    lines = [tuple(range(len(points)))] if n == 1 else [tuple(sorted(s)) for s in subspaces[1]]
    levels = [[frozenset([i]) for i in range(len(points))]] + [subspaces[d] for d in range(1, n)]
    everything = frozenset(range(len(points)))
    chains = []

    def grow(prefix):
        if len(prefix) == len(levels):
            steps = [frozenset()] + prefix + [everything]
            chains.append(tuple(tuple(sorted(b - a)) for a, b in zip(steps, steps[1:])))
            return
        for s in levels[len(prefix)]:
            if prefix[-1] < s:
                grow(prefix + [s])

    for p in levels[0]:
        grow([p])
    masks = {d: [sum(1 << i for i in s) for s in subspaces[d]] for d in subspaces}
    return points, lines, masks, chains


@pytest.mark.parametrize(
    "n, q",
    [(1, 2), (1, 7), (1, 49)] + [(2, q) for q in (2, 3, 4, 5, 7, 8)] + [(3, 2), (3, 3)],
)
def test_geometry_matches_the_span_construction(n, q):
    points, lines, subspaces, chains = _reference_geometry(n, q)
    g = ProjGeometry(n, q)
    assert g.points == points
    assert g.lines == lines
    assert g.line_masks == tuple(sum(1 << i for i in line) for line in lines)
    assert g.subspaces == subspaces
    assert g.chains == chains
    assert g.strata == StratumTable.build(chains, lines)


@pytest.mark.parametrize("q", [11, 13])
def test_large_plane_incidence(q):
    # q^2 + q + 1 lines of q + 1 points; through each point a the lines
    # minus a are disjoint and cover every other point, so each pair of
    # points lies on exactly one line
    g = geometry(2, q)
    npts = q * q + q + 1
    full = (1 << npts) - 1
    assert len(g.points) == len(g.lines) == len(g.line_masks) == npts
    assert all(m.bit_count() == q + 1 for m in g.line_masks)
    for a in range(npts):
        through = [m for m in g.line_masks if m >> a & 1]
        assert len(through) == q + 1
        assert sum(m.bit_count() - 1 for m in through) == npts - 1
        assert reduce(or_, through) == full


def test_refusals_come_before_the_build(monkeypatch):
    from flagval import projspace

    def no_build(*args):
        raise AssertionError("a refused geometry must not be built")

    monkeypatch.setattr(projspace, "normalize_coords", no_build)
    with pytest.raises(InvalidInput):
        ProjGeometry(0, 3)
    with pytest.raises(SizeBound):
        ProjGeometry(8, 2)  # 511 points


def _fn(text):
    return RationalFn.parse(F3, text, XY)


def test_embedded_subspace_basic():
    one = RationalFn.constant(F3, XY, 1)
    S = EmbeddedSubspace([one, _fn("x"), _fn("y")])
    assert len(S.functions) == 13  # P^2(F_3) worth of classes
    assert S.geometry is geometry(2, 3)
    # the function at a point index is the matching coordinate combination
    strs = {str(f) for f in S.functions}
    assert "1" in strs and "x" in strs and "x+y" in strs
    # projectivization: 2*x is not listed separately from x
    assert "2*x" not in strs and "x+2*y" in strs


def test_embedded_subspace_line():
    one = RationalFn.constant(F3, XY, 1)
    L = EmbeddedSubspace([one, _fn("x")])
    assert len(L.functions) == 4
    assert {str(f) for f in L.functions} == {"1", "x", "x+1", "2*x+1"}


def test_embedded_subspace_validation():
    one = RationalFn.constant(F3, XY, 1)
    with pytest.raises(InvalidInput):
        EmbeddedSubspace([one])  # needs at least a line
    with pytest.raises(InvalidInput):
        EmbeddedSubspace([one, _fn("x"), _fn("x")])  # dependent generators
    with pytest.raises(InvalidInput):
        EmbeddedSubspace([one, _fn("x"), _fn("2*x")])


def test_trusted_line_basic():
    L = EmbeddedSubspace.line(_fn("x"))
    assert L.geometry is geometry(1, 3)
    assert [str(f) for f in L.functions] == ["x", "1", "x+1", "2*x+1"]


def test_trusted_line_refuses_a_constant():
    for g in ("0", "1", "2", "x+1/x+1", "2*x/x"):
        with pytest.raises(InvalidInput):
            EmbeddedSubspace.line(_fn(g))


@pytest.mark.parametrize(
    "q, vars, deg",
    [(2, XY, 2), (3, XY, 2), (4, XY, 1), (3, ("t",), 2), (5, ("t",), 2), (3, ("t",), 3)],
)
def test_trusted_lines_match_the_normalising_route(q, vars, deg):
    # every arena line, built trusted and by summing and normalising:
    # each point function must be the same (num, den) pair of Polys
    arena = Arena(FiniteField(q), vars, deg)
    one = RationalFn.constant(arena.field, vars, 1)
    for g in arena.line_gens:
        trusted = EmbeddedSubspace.line(g)
        summed = EmbeddedSubspace([one, g])
        assert trusted.geometry is summed.geometry
        assert [(f.num, f.den) for f in trusted.functions] == [(f.num, f.den) for f in summed.functions]
