"""Valuation extraction round trips."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import assert_counts_under_hash_seeds, count_calls, flagval_bindings
from flagval import fields, reconstruct
from flagval.errors import (
    FactoringWindowExceeded,
    InvalidInput,
    PreconditionFailed,
    UnsupportedResidue,
)
from flagval.ff import FiniteField
from flagval.fields import INF, DivisorRep, RationalFn, algebraically_dependent, from_divisor, to_divisor
from flagval.poly import Poly
from flagval.projspace import EmbeddedSubspace
from flagval.reconstruct import (
    Arena,
    PsiMap,
    ReconstructionResult,
    build_psi_from_valuation,
    build_u,
    decompose_subspace,
    extract_valuation,
    verify_theorem_conclusions,
)
from flagval.suites import SuiteConfig, _arena, run_suite
from flagval.valuations import CompositePlace, DivisorialCurve, FinitePlace, InfinitePlace, parse_place

F3 = FiniteField(3)
XY = ("x", "y")
YZ = ("y", "z")
W = ("w",)

CURVE_X = DivisorialCurve(Poly.parse(F3, "x", XY))


@pytest.fixture(scope="module")
def psi_x():
    return build_psi_from_valuation(CURVE_X, {"y": "y"}, F3, YZ)


@pytest.fixture(scope="module")
def res_x(psi_x, arena3):
    return extract_valuation(psi_x, arena3)


def rxy(text):
    return RationalFn.parse(F3, text, XY)


def test_psi_formula(psi_x):
    fx = rxy("x")
    fy = rxy("y")
    img = psi_x.evaluate(fx * (fy + 1))
    assert img.class_key() == to_divisor(RationalFn.parse(F3, "y+1", YZ)).class_key()
    assert psi_x.evaluate(fx).is_trivial()
    g = (fy + 2) / (fy + 1)
    assert psi_x.evaluate((1 + fx) * g).class_key() == psi_x.evaluate(g).class_key()


def test_psi_constructor_validation():
    # psi is built from divisorial curve places only
    for place in (
        CompositePlace(CURVE_X, FinitePlace(Poly.parse(F3, "y", ("y",)))),
        FinitePlace(Poly.parse(F3, "t^2+1", ("t",))),
        InfinitePlace(F3, "t"),
    ):
        with pytest.raises(InvalidInput):
            build_psi_from_valuation(place, {"y": "y"}, F3, YZ)
    with pytest.raises(InvalidInput):
        build_psi_from_valuation(CURVE_X, {"y": "q"}, F3, YZ)
    with pytest.raises(InvalidInput):
        build_psi_from_valuation(CURVE_X, {}, F3, YZ)  # no image for y
    with pytest.raises(InvalidInput):
        build_psi_from_valuation(CURVE_X, {"y": "y"}, FiniteField(5), YZ)
    nongraph = DivisorialCurve(Poly.parse(F3, "x^2+y^2+1", XY))
    with pytest.raises(UnsupportedResidue):
        build_psi_from_valuation(nongraph, {"y": "y"}, F3, YZ)


def test_decompose_plane(psi_x):
    one = RationalFn.constant(F3, XY, 1)
    plane = EmbeddedSubspace([one, rxy("x"), rxy("y")])
    dec = decompose_subspace(psi_x, plane)
    s1 = {str(plane.functions[i]) for i in dec.s1}
    assert s1 == {"1", "x", "x+1", "2*x+1"}
    assert len(dec.classes) == 1
    assert len(dec.classes[0][1]) == 9
    assert dec.l43_ok


def test_arena_describe(arena3):
    d = arena3.describe()
    assert d["field"] == 3
    assert d["vars"] == ["x", "y"]
    assert d["gen_degree"] == 2
    assert d["exp_bound"] == 6
    assert d["generators"] == 285
    assert d["lines"] == 3693
    assert d["planes"] == 2


def test_build_u(psi_x, arena3):
    ur = build_u(arena3, reconstruct._collect_point_classes(psi_x, arena3))
    status = dict(ur.line_status)
    assert status["y"] == "injective"
    assert status["x"] == "flag"
    assert ur.hypothesis_held is False
    assert len(ur.u_classes) == 3790
    assert sum(1 for _, s in ur.line_status if s == "injective") == 3150


def _catalog_classes(arena):
    """One representative function per catalog class."""
    out = {}
    for line in arena.lines:
        for f in line.functions:
            out.setdefault(arena.divisor_of(f).class_key(), f)
    return out


def _roundtrip_psi(field, text):
    # the psi the round-trip suite builds for a curve place
    place = parse_place(field, text, XY)
    rvar = place.residue_var
    fresh = next(v for v in ("z", "w", "u") if v != rvar)
    return build_psi_from_valuation(place, {rvar: rvar}, field, (rvar, fresh))


@pytest.mark.parametrize(
    "q, places, n_classes, n_gens",
    [
        (2, ("curve:x^2+y", "curve:y^2+x", "curve:x^2+x+y"), 381, 41),
        (3, ("curve:x",), 4576, 285),
    ],
)
def test_generator_route_matches_formula(q, places, n_classes, n_gens, arena3):
    # psi as the product of generator images over the divisor against
    # the residue formula on the element itself, on every catalog class
    F = FiniteField(q)
    arena = arena3 if q == 3 else _arena(F, XY, 2)
    classes = _catalog_classes(arena)
    assert len(classes) == n_classes
    for text in places:
        psi = _roundtrip_psi(F, text)
        for f in classes.values():
            d = arena.divisor_of(f)
            assert psi.evaluate(d).class_key() == psi.formula(f).class_key(), (text, str(f))
        assert len(psi.images) == n_gens


@pytest.mark.parametrize("q, place", [(2, "curve:x^2+y"), (3, "curve:x")])
def test_out_of_window_products_take_the_formula(q, place, arena3):
    # degree-4 products have no divisor form in the bivariate window;
    # their images must still multiply like the images of the factors
    F = FiniteField(q)
    arena = arena3 if q == 3 else _arena(F, XY, 2)
    psi = _roundtrip_psi(F, place)
    quads = [g for g in arena.line_gens if g.den.is_constant() and g.num.degree() == 2][:40]
    assert len(quads) >= 30
    for i, a in enumerate(quads):
        b = quads[(7 * i + 3) % len(quads)]
        with pytest.raises(FactoringWindowExceeded):
            to_divisor(a * b)
        want = (psi.evaluate(a) * psi.evaluate(b)).class_key()
        assert psi.evaluate(a * b).class_key() == want, (str(a), str(b))


def test_extraction_verdict(res_x):
    assert res_x.verdict == "valuation" and res_x.case == "main"
    assert res_x.gamma_rank == 1 and res_x.gamma_torsion == ()
    assert res_x.generator == "x"
    assert res_x.orientation == 1
    assert res_x.hypothesis_held is False
    assert res_x.lemma_checks == {"l43": True, "l45": True, "p46": True}
    assert res_x.flags["orientation_stats"] == {"1": 0, "-1": 8, "pairs": 21}


def test_extraction_unit_group_exact(res_x, arena3):
    expected = set()
    seen = set()
    for line in arena3.lines:
        for f in line.functions:
            d = arena3.divisor_of(f)
            key = d.class_key()
            if key in seen:
                continue
            seen.add(key)
            if d.exponent(CURVE_X.pi) == 0:
                expected.add(key)
    assert res_x.o_units_size == len(expected) == 4080
    assert list(res_x.o_units_sample[:4]) == [
        "(1)/(x+1)",
        "(1)/(x+2*y+1)",
        "(1)/(x+y+1)",
        "(1)/(y+1)",
    ]


def test_extraction_nu_matches_valuation(res_x):
    fx = rxy("x")
    fy = rxy("y")
    for fn, want in [(fx, 1), (fy, 0), (fx * fx * (fy + 1), 2), (fx.inverse(), -1)]:
        tors, free = res_x.nu(fn)
        assert not any(tors)
        assert free[0] * res_x.orientation == want, str(fn)


def test_extraction_nu_random_spot(res_x):
    import random

    rng = random.Random(9)
    fx = rxy("x")
    fy = rxy("y")
    pool = [fx, fy, fx + 1, fy + 1, fx + fy, fx * fy + 1]
    for _ in range(25):
        f = rng.choice(pool)
        g = rng.choice(pool)
        h = f * g
        tors, free = res_x.nu(h)
        assert not any(tors)
        assert free[0] * res_x.orientation == CURVE_X.val(h), str(h)


def test_theorem_conclusions(res_x, psi_x, arena3):
    conc = verify_theorem_conclusions(res_x, psi_x, arena3, samples=40)
    assert conc["all_passed"]
    assert conc["conclusion2"]["method"].startswith("distinct residue")
    assert conc["conclusion1"]["samples"] > 0
    assert conc["conclusion2"]["samples"] == 40


def test_conclusions_record_a_non_unit(psi_x, small_arena3):
    # a value map that calls every catalog element a unit: x has value 1
    # along the curve, so conclusion 2 fails and names it
    every_unit = ReconstructionResult("valuation", "main", {}, nu=lambda f: ((), (0,)))
    conc = verify_theorem_conclusions(every_unit, psi_x, small_arena3, samples=10)
    assert conc["all_passed"] is False
    assert conc["conclusion1"]["samples"] == 0
    c2 = conc["conclusion2"]
    assert c2["samples"] == 10 and c2["passes"] == 0
    assert "x is not a unit along x" in c2["failures"]


def test_result_json_shape(res_x):
    obj = res_x.to_json_obj()
    assert list(obj) == [
        "verdict",
        "case",
        "arena",
        "o_units_sample",
        "o_units_size",
        "gamma_rank",
        "gamma_torsion",
        "generator",
        "orientation",
        "hypothesis_held",
        "lemma_checks",
        "flags",
        "notes",
    ]


# -- generator tables ----------------------------------------------------

U1 = ("u",)
UV = ("u", "v")


def _uc(text, vars=U1):
    return to_divisor(RationalFn.parse(F3, text, vars))


# sha256 of the case-B report of the pure value character f -> w^nu(f)
# of curve:x on the q=3 degree-2 arena, taken from the residue formula
# with the residue part killed and the uniformizer sent to w
CASE_B_DIGEST = "5d070f98781c482af95d89c72435114b2ecb5fe616a1e2b83720937d9e695a76"


@pytest.fixture(scope="module")
def psi_b():
    return PsiMap({CURVE_X.pi: _uc("w", W)}, F3, W)


@pytest.fixture(scope="module")
def res_b(psi_b, arena3):
    return extract_valuation(psi_b, arena3)


def test_case_b_value_character(res_b):
    assert hashlib.sha256(json.dumps(res_b.to_json_obj()).encode()).hexdigest() == CASE_B_DIGEST
    assert res_b.verdict == "valuation" and res_b.case == "B"
    assert res_b.gamma_rank == 1 and res_b.gamma_torsion == ()
    assert res_b.orientation == 1
    assert res_b.o_units_size == 4080


def test_case_b_conclusions_take_the_kernel_unit_method(res_b, psi_b, arena3):
    # a table psi has no curve residues, so conclusion 2 asks whether each
    # sampled kernel unit is a constant modulo the maximal ideal; the value
    # character kills y as well, which is no constant modulo x
    conc = verify_theorem_conclusions(res_b, psi_b, arena3, samples=10)
    assert conc["conclusion1"] == {"samples": 10, "passes": 10, "failures": []}
    c2 = conc["conclusion2"]
    assert c2["method"] == "kernel units are constants modulo the maximal ideal"
    assert (c2["samples"], c2["passes"]) == (10, 2)
    assert c2["failures"] == ["y", "x+y", "x+2*y", "y+1", "x+y+1", "x+2*y+1", "y+2", "x+y+2"]
    assert conc["all_passed"] is False


def _constant_value_group(value):
    """A stand-in value group whose nu gives every element one free coordinate."""
    return SimpleNamespace(nu=lambda d: ((), (value,)))


def test_orientation_tie_takes_the_positive_sign(small_arena3):
    # every sampled value 0: both signs pass every pair, and 1 is chosen
    sign, stats = reconstruct._orient_rank_one(_constant_value_group(0), small_arena3)
    assert (sign, stats) == (1, {1: 0, -1: 0, "pairs": 15})


def test_orientation_without_a_good_sign(small_arena3):
    # every sampled value 1: nu(fg) = 1 is not nu(f) + nu(g) under either sign
    sign, stats = reconstruct._orient_rank_one(_constant_value_group(1), small_arena3)
    assert (sign, stats) == (None, {1: 6, -1: 6, "pairs": 6})


def test_extraction_needs_two_variables():
    psi_t = PsiMap({Poly.parse(F3, "t", ("t",)): _uc("w", W)}, F3, W)
    with pytest.raises(InvalidInput):
        extract_valuation(psi_t, Arena(F3, ("t",), gen_degree=1))


def test_degenerate_table_psi(small_arena3):
    gx = Poly.parse(F3, "x", XY)
    gy = Poly.parse(F3, "y", XY)
    psi = PsiMap({gx: _uc("u"), gy: _uc("u+1")}, F3, U1)
    res = extract_valuation(psi, small_arena3)
    assert res.verdict == "inconclusive" and res.case == "A"
    assert any("whole window" in n for n in res.notes)


def test_hypothesis_violation_table_psi(small_arena3):
    gx = Poly.parse(F3, "x", XY)
    gy = Poly.parse(F3, "y", XY)
    psi = PsiMap({gx: _uc("u", UV), gy: _uc("v", UV)}, F3, UV)
    res = extract_valuation(psi, small_arena3)
    assert res.verdict == "inconclusive" and res.case == "A"
    assert any("independent directions" in n for n in res.notes)


def _injective_psi(small):
    images = {}
    for g_pol in small.gens:
        target = g_pol.map_vars(UV, {0: 0, 1: 1})
        images[g_pol] = to_divisor(RationalFn.from_poly(target))
    return PsiMap(images, F3, UV)


def test_injective_table_psi(small_arena3):
    psi = _injective_psi(small_arena3)
    res = extract_valuation(psi, small_arena3)
    assert res.verdict == "injective"


class _Perturbed(PsiMap):
    def __init__(self, inner, bad_key):
        self.inner = inner
        self.bad_key = bad_key
        self.target_field = inner.target_field
        self.target_vars = inner.target_vars

    def evaluate(self, f):
        out = self.inner.evaluate(f)
        key = f.class_key() if hasattr(f, "exps") else to_divisor(f).class_key()
        if key == self.bad_key:
            return out * out
        return out


def test_non_multiplicative_psi_rejected(small_arena3):
    psi = _injective_psi(small_arena3)
    a0 = small_arena3.line_gens[0]
    b0 = small_arena3.line_gens[3]
    bad = _Perturbed(psi, to_divisor(a0 * b0).class_key())
    with pytest.raises(PreconditionFailed):
        extract_valuation(bad, small_arena3)


# -- the image relation --------------------------------------------------

# the round trips pinned in tests/test_golden.py
GOLDEN_TRIPS = [
    {"place": "curve:x", "arena_deg": 1, "samples": 10},
    {"q": 2, "arena_deg": 2, "place": "curve:x^2+y", "samples": 50},
    {"q": 2, "arena_deg": 2, "place": "curve:y^2+x", "samples": 50},
    {"q": 2, "arena_deg": 2, "place": "curve:x^2+x+y", "samples": 50},
]


def test_degree_rule_agrees_with_the_search(monkeypatch, arena3):
    # every pair the degree rule certifies, on the golden round trips and
    # the one-variable target of the case-B psi, is dependent by the search
    search, related = reconstruct.algebraically_dependent, reconstruct._related
    searches = []
    certified: dict = {}

    def counted_search(f, g, bound):
        searches.append(bound)
        return search(f, g, bound)

    def spy(a, b, bound):
        before = len(searches)
        out = related(a, b, bound)
        nontrivial = not (a.is_trivial() or b.is_trivial())
        if out and nontrivial and a.class_key() != b.class_key() and len(searches) == before:
            certified.setdefault((frozenset((a.class_key(), b.class_key())), bound), (a, b, bound))
        return out

    monkeypatch.setattr(reconstruct, "algebraically_dependent", counted_search)
    monkeypatch.setattr(reconstruct, "_related", spy)
    per_source = []
    for cfg in GOLDEN_TRIPS:
        run_suite(SuiteConfig(suite="reconstruct-roundtrip", **cfg))
        per_source.append(len(certified))
    extract_valuation(PsiMap({CURVE_X.pi: _uc("w", W)}, F3, W), arena3)
    per_source.append(len(certified))
    monkeypatch.undo()
    # each source adds pairs of its own; only the case-B target has one variable
    assert all(a < b for a, b in zip([0] + per_source, per_source)), per_source
    for a, b, bound in certified.values():
        assert algebraically_dependent(from_divisor(a), from_divisor(b), bound), (str(a), str(b), bound)


@pytest.mark.parametrize("vars", [UV, W], ids=["two-variable", "one-variable"])
def test_degree_rule_stops_at_the_bound(vars):
    # [k(x):k(x^5)] = 5, so x and x^5 have no annihilator below degree 5 in U
    a = _uc(vars[0], vars)
    b = a * a * a * a * a  # x^5 is beyond the bivariate factoring window
    assert reconstruct._related(a, b, 4) is False
    assert reconstruct._related(a, b, 5) is True
    assert not algebraically_dependent(from_divisor(a), from_divisor(b), 4)
    assert algebraically_dependent(from_divisor(a), from_divisor(b), 5)


def test_degree_rule_needs_one_shared_variable():
    u, v = _uc("u", UV), _uc("v", UV)
    assert reconstruct._related(u, v, 4) is False
    # each generator in one variable, but not the same one
    assert reconstruct._related(_uc("u*v", UV), u, 4) is False
    # a generator in both variables
    assert reconstruct._related(_uc("u+v", UV), u, 4) is False


def test_inconsistent_infinite_exponent_still_raises():
    w = Poly.parse(F3, "w", W)
    for exps in ({w: 1, INF: 2}, {INF: 1}):
        with pytest.raises(InvalidInput):
            reconstruct._related(DivisorRep(F3, W, exps), _uc("w", W), 4)


# -- one evaluation per point ---------------------------------------------

# every round trip pinned in tests/test_golden.py: GOLDEN_TRIPS and the
# three q=3, degree-2 trips of criterion 09
ALL_GOLDEN_TRIPS = GOLDEN_TRIPS + [{"place": p} for p in ("curve:x", "curve:y", "curve:x^2+2*y")]


def _trip_psi_and_arena(cfg):
    F = FiniteField(cfg.get("q", 3))
    return _roundtrip_psi(F, cfg["place"]), _arena(F, XY, cfg.get("arena_deg", 2))


def _decompose_by_evaluation(psi, S):
    """The first decomposition route, kept as the oracle: psi evaluated
    again on every f + c and fi + c*fj of the line checks."""
    dep = reconstruct.DEP_BOUND
    related = reconstruct._related
    images = [psi.evaluate(f) for f in S.functions]
    s1 = [i for i, d in enumerate(images) if d.is_trivial()]
    rest = [i for i, d in enumerate(images) if not d.is_trivial()]
    reps, members = [], {}
    for i in rest:
        hits = [r for r in reps if related(images[i], images[r], dep)]
        assert len(hits) <= 1
        if hits:
            members[hits[0]].append(i)
        else:
            reps.append(i)
            members[i] = [i]
    k_units = range(1, S.field.q)
    violations = {"closure": [], "unit_lines": [], "pair_lines": []}

    def in_part(d, rep):
        return related(d, images[rep], dep) or related(d, images[rep], 2 * dep)

    for r in reps:
        part = s1 + members[r]
        for ai in range(len(part)):
            for bi in range(ai, len(part)):
                if not in_part(images[part[ai]] * images[part[bi]], r):
                    violations["closure"].append(
                        f"({S.functions[part[ai]]})*({S.functions[part[bi]]}) leaves its part"
                    )
    for r in reps:
        for i in members[r]:
            f = S.functions[i]
            for c in k_units:
                if not in_part(psi.evaluate(f + c), r):
                    violations["unit_lines"].append(f"l(1,{f}) at {f}+{c}")
    for ai in range(len(rest)):
        for bi in range(ai + 1, len(rest)):
            i, j = rest[ai], rest[bi]
            if images[i].class_key() == images[j].class_key():
                continue
            fi, fj = S.functions[i], S.functions[j]
            if related(images[i], images[j], dep):
                for c in k_units:
                    if not in_part(psi.evaluate(fi + fj * c), i):
                        violations["pair_lines"].append(f"l({fi},{fj}) at +{c}({fj})")
            else:
                for c in k_units:
                    if psi.evaluate(fi + fj * c).is_trivial():
                        violations["pair_lines"].append(f"l({fi},{fj}) meets the kernel at +{c}({fj})")
    classes = tuple((r, tuple(members[r])) for r in reps)
    return tuple(s1), classes, not any(violations.values()), violations


def _decomposition_agrees(psi, S):
    dec = decompose_subspace(psi, S)
    got = (dec.s1, dec.classes, dec.l43_ok, dec.l43_report)
    assert got == _decompose_by_evaluation(psi, S), [str(f) for f in S.functions[:3]]
    return dec


@pytest.mark.parametrize("cfg", ALL_GOLDEN_TRIPS, ids=lambda c: f"q{c.get('q', 3)}-{c['place']}")
def test_decompose_matches_the_evaluating_route(cfg):
    psi, arena = _trip_psi_and_arena(cfg)
    for plane in arena.planes:
        _decomposition_agrees(psi, plane)


def test_decompose_matches_for_psi_x_and_a_scaled_constant(psi_x, arena3):
    for plane in arena3.planes:
        _decomposition_agrees(psi_x, plane)
    # with 2 at (1:0:0), f + c is the point a_i + (c/2) e_0; the table
    # psi sends x and x+1 to independent classes, so the unit line of x
    # fails, and its report names the c that reaches x+1
    two = RationalFn.constant(F3, XY, 2)
    gx, gx1 = Poly.parse(F3, "x", XY), Poly.parse(F3, "x+1", XY)
    table = PsiMap({gx: _uc("u", UV), gx1: _uc("v", UV)}, F3, UV)
    for S in (EmbeddedSubspace([two, rxy("x"), rxy("y")]), EmbeddedSubspace([two, rxy("x"), rxy("x*y")])):
        _decomposition_agrees(psi_x, S)
        dec = _decomposition_agrees(table, S)
        assert "l(1,x) at x+1" in dec.l43_report["unit_lines"]


def test_decompose_reports_a_related_pair_line_leaving_its_part():
    # x and y go to u and u^2, one dependence class, but x + y goes to v,
    # which is independent of u
    gx, gy, gxy = (Poly.parse(F3, t, XY) for t in ("x", "y", "x+y"))
    table = PsiMap({gx: _uc("u", UV), gy: _uc("u^2", UV), gxy: _uc("v", UV)}, F3, UV)
    S = EmbeddedSubspace([RationalFn.constant(F3, XY, 1), rxy("x"), rxy("y")])
    dec = _decomposition_agrees(table, S)
    assert [len(members) for _, members in dec.classes] == [2, 1]
    assert dec.l43_report == {
        "closure": [],
        "unit_lines": [],
        "pair_lines": ["l(y,x) at +1(x)", "l(y,x+y) meets the kernel at +1(x+y)", "l(x,x+y) meets the kernel at +1(x+y)"],
    }


def test_decompose_reports_a_product_leaving_its_part(monkeypatch):
    # under a relation that holds only between equal or trivial classes,
    # the square of u is outside the class of u
    monkeypatch.setattr(reconstruct, "_related", lambda a, b, bound: a.is_trivial() or b.is_trivial() or a.class_key() == b.class_key())
    table = PsiMap({Poly.parse(F3, "x", XY): _uc("u", UV)}, F3, UV)
    dec = decompose_subspace(table, EmbeddedSubspace([RationalFn.constant(F3, XY, 1), rxy("x"), rxy("y")]))
    assert not dec.l43_ok
    assert dec.l43_report == {"closure": ["(x)*(x) leaves its part"], "unit_lines": [], "pair_lines": []}


def test_decompose_refuses_a_plane_without_a_constant_first_point(psi_x):
    one = RationalFn.constant(F3, XY, 1)
    plane = EmbeddedSubspace([rxy("x"), one, rxy("y")])
    with pytest.raises(InvalidInput, match="not a constant"):
        decompose_subspace(psi_x, plane)


def _build_u_by_evaluation(psi, arena):
    """The first universe route, kept as the oracle: psi evaluated on
    every point of every catalog line.  (line status, u keys, held)"""
    u, status = {}, []
    for gen, line in zip(arena.line_gens, arena.lines):
        divs = [arena.divisor_of(f) for f in line.functions]
        imgs = [psi.evaluate(d) for d in divs]
        keys = [img.class_key() for img in imgs]
        if len(set(keys)) == len(keys):
            status.append((str(gen), "injective"))
            for f, d, img in zip(line.functions, divs, imgs):
                u.setdefault(d.class_key(), (f, img))
        elif reconstruct.line_criterion(line.geometry, keys):
            status.append((str(gen), "flag"))
        else:
            status.append((str(gen), "neither"))
    nontrivial = []
    for fn, img in u.values():
        if img.is_trivial() or fn.is_constant():
            continue
        if img.class_key() not in {i.class_key() for i in nontrivial}:
            nontrivial.append(img)
        if len(nontrivial) >= 25:
            break
    held = any(
        not reconstruct._related(a, b, reconstruct.DEP_BOUND)
        for i, a in enumerate(nontrivial)
        for b in nontrivial[i + 1 :]
    )
    return tuple(status), list(u), held


@pytest.mark.parametrize("cfg", GOLDEN_TRIPS, ids=lambda c: f"q{c.get('q', 3)}-{c['place']}")
def test_build_u_matches_the_evaluating_route(cfg):
    psi, arena = _trip_psi_and_arena(cfg)
    ur = build_u(arena, reconstruct._collect_point_classes(psi, arena))
    assert (ur.line_status, list(ur.u_classes), ur.hypothesis_held) == _build_u_by_evaluation(psi, arena)


def test_build_u_matches_the_evaluating_route_on_arena3(psi_x, arena3):
    ur = build_u(arena3, reconstruct._collect_point_classes(psi_x, arena3))
    assert (ur.line_status, list(ur.u_classes), ur.hypothesis_held) == _build_u_by_evaluation(psi_x, arena3)


def test_roundtrip_evaluates_psi_once_per_point(monkeypatch):
    # the three round trips of the benchmark's roundtrip workload: psi
    # meets the catalog once per class, each plane once per point, and
    # conclusion 2 each unit it samples once
    evaluate = reconstruct.ValuationPsi.evaluate
    callers: dict = {}

    def spy(self, f):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension's own frame
            frame = frame.f_back
        callers[frame.f_code.co_name] = callers.get(frame.f_code.co_name, 0) + 1
        return evaluate(self, f)

    monkeypatch.setattr(reconstruct.ValuationPsi, "evaluate", spy)
    for cfg in GOLDEN_TRIPS[1:]:
        run_suite(SuiteConfig(suite="reconstruct-roundtrip", **cfg))
    assert callers == {
        "check_multiplicative": 144,
        "_collect_point_classes": 1143,
        "decompose_subspace": 42,
        "verify_theorem_conclusions": 303,
    }
    assert sum(callers.values()) == 1632


_COMBINE_COUNT = """
from flagval import intlin
from flagval.suites import SuiteConfig, run_suite

calls = [0]
combine = intlin.RowLattice._combine


def counted(v, p, k):
    calls[0] += 1
    return combine(v, p, k)


intlin.RowLattice._combine = staticmethod(counted)
run_suite(SuiteConfig(suite="reconstruct-roundtrip", q=2, arena_deg=2, place="curve:x^2+y", samples=50))
print(calls[0])
"""


def test_unit_lattice_work_does_not_depend_on_the_hash_seed():
    # the unit classes enter the value-group lattice in catalog order, so
    # the reduction work is the same under every string-hash seed
    src = str(Path(__file__).resolve().parent.parent / "src")
    counts = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", _COMBINE_COUNT], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        counts.add(int(done.stdout.splitlines()[-1]))
    assert len(counts) == 1, counts


# -- the witness search, class keys and names ---------------------------


def _pair_witness_by_division(target, u_divs, u_keys):
    """The first witness route, kept as the oracle: target divided by
    every class of the extended unit universe."""
    if target.class_key() in u_keys:
        return True
    return any((target / d).class_key() in u_keys for d in u_divs)


class _ZeroDraws:
    """A weight source that draws 0 for every generator."""

    def randrange(self, start, stop):
        return 0


@pytest.mark.parametrize("equal_weights", [False, True], ids=["drawn-weights", "equal-weights"])
def test_pair_witness_matches_the_division_scan(monkeypatch, equal_weights):
    # every sampled triple of the benchmark's three round trips and of
    # q=3 at degree 1; with every weight 0, every candidate collides and
    # goes to the exact division
    witness = reconstruct._pair_witness
    verdicts = []

    def spy(target, H, u_ext, u_hashes, u_keys):
        if equal_weights:
            assert u_hashes == {0} and H(target) == 0
        got = witness(target, H, u_ext, u_hashes, u_keys)
        verdicts.append((got, _pair_witness_by_division(target, [d for _, d in u_ext], u_keys)))
        return got

    monkeypatch.setattr(reconstruct, "_pair_witness", spy)
    if equal_weights:
        divisor_hash = reconstruct._divisor_hash
        monkeypatch.setattr(reconstruct, "_divisor_hash", lambda rng: divisor_hash(_ZeroDraws()))
    for cfg in GOLDEN_TRIPS:
        run_suite(SuiteConfig(suite="reconstruct-roundtrip", **cfg))
    assert len(verdicts) == 21 + 35 + 3 * 56
    assert all(got == want for got, want in verdicts)
    assert {want for _, want in verdicts} == {True, False}


def _sorted_items(d):
    return tuple(sorted(d.exps.items(), key=lambda kv: fields._gen_order(kv[0])))


def _text_by_sorted_items(d):
    """The rendering of a divisor from its sorted items, kept as the oracle of `__str__`."""
    if not d.exps:
        return str(d.unit)
    body = " ".join(f"({g})^{e}" if e != 1 else f"({g})" for g, e in _sorted_items(d))
    return body if d.unit == 1 else f"{d.unit} {body}"


def test_class_keys_match_sorted_items_on_the_q2_catalog():
    # the q=2, degree-2 catalog, its pairwise products and their
    # inverses: two keys are equal exactly when the sorted exponent
    # items are, and the renderings are the sorted ones (on every
    # catalog class and inverse, and on every 16th product)
    F2 = FiniteField(2)
    arena = _arena(F2, XY, 2)
    catalog = [arena.divisor_of(f) for f in _catalog_classes(arena).values()]
    products = [a * b for i, a in enumerate(catalog) for b in catalog[i:]]
    divs = catalog + products + [d.inverse() for d in catalog + products]
    pairs = {(d.class_key(), _sorted_items(d)) for d in divs}
    assert len(pairs) == len({k for k, _ in pairs}) == len({t for _, t in pairs})
    assert len(pairs) < len(divs)  # some products coincide as classes
    for d in catalog + [d.inverse() for d in catalog] + products[::16]:
        assert str(d) == _text_by_sorted_items(d)
    assert str(DivisorRep(F2, XY, {})) == "1"


@pytest.mark.parametrize("q, deg", [(2, 2), (3, 1)])
def test_arena_names_are_the_renderings(q, deg):
    arena = _arena(FiniteField(q), XY, deg)
    fns = list(arena.line_gens) + [f for line in arena.lines for f in line.functions]
    assert all(arena.name(f) == str(f) for f in fns)
    assert all(arena.name(f) is arena.name(f) for f in fns)


@pytest.mark.parametrize("q, deg", [(2, 1), (2, 2), (3, 1)])
def test_arena_lines_and_their_divisors(q, deg):
    # push keeps no constancy check: a generator, or g/h for distinct
    # monic irreducibles, is never constant, so every counted line is
    # built; each line's divisors are to_divisor of its points, the very
    # objects of the arena's divisor cache
    from flagval.suites import _arena_line_count

    arena = Arena(FiniteField(q), XY, deg)
    assert len(arena.lines) == _arena_line_count(q, deg)
    assert not any(g.is_constant() for g in arena.line_gens)
    assert len(arena.line_divisors) == len(arena.lines)
    for line, divs in zip(arena.lines, arena.line_divisors):
        assert len(divs) == len(line.functions)
        for f, d in zip(line.functions, divs):
            want = to_divisor(f)
            assert (d.class_key(), d.unit) == (want.class_key(), want.unit), str(f)
            assert arena.divisor_of(f) is d


@pytest.mark.parametrize("place", ["curve:x^2+y", "curve:y^2+x", "curve:x^2+x+y"])
def test_valuation_psi_sums_images_on_the_trusted_route(place):
    # ValuationPsi.evaluate builds with DivisorRep._make; the base
    # PsiMap.evaluate is the validating route on the same image table
    F2 = FiniteField(2)
    arena = _arena(F2, XY, 2)
    curve = parse_place(F2, place, XY)
    w = curve.residue_var
    psi = build_psi_from_valuation(curve, {w: w}, F2, (w, "z"))
    fns = [f for line in arena.lines for f in line.functions]
    assert len(fns) == 3 * len(arena.lines)
    trivial = 0
    for f in fns:
        got, want = psi.evaluate(f), PsiMap.evaluate(psi, f)
        assert (got.exps, got.unit, got.class_key()) == (want.exps, want.unit, want.class_key()), str(f)
        trivial += got.is_trivial()
    assert 0 < trivial < len(fns)


def _roundtrip_work_counts(patch) -> dict:
    """Exact work of the three round trips of the benchmark's roundtrip
    workload on one fresh arena, counted by the wrappers `count_calls`
    installs through patch; a module-level function is patched in every
    flagval module that binds it.

    The witness search divides only where the additive hash of a
    candidate matches, and the arena renders each catalog function once
    for all three trips.  Each line's shared denominator is factored
    once, the conclusions read catalog values from the arena's
    divisors, canonical inverses and polynomials skip the validating
    constructor, and psi's images are summed on the trusted route."""
    from flagval import fields, poly, suites

    arena = Arena(FiniteField(2), XY, 2)
    patch(suites, "_arena", lambda field, vars, deg: arena)
    methods = ((DivisorRep, "__truediv__"), (RationalFn, "__str__"), (RationalFn, "__init__"), (DivisorRep, "__init__"))
    bindings = {f"{owner.__name__}.{name}": [(owner, name)] for owner, name in methods}
    bindings |= {name: flagval_bindings(owner, name) for owner, name in ((fields, "to_divisor"), (poly, "factor"))}
    counts = count_calls(patch, bindings)
    for cfg in GOLDEN_TRIPS[1:]:
        assert run_suite(SuiteConfig(suite="reconstruct-roundtrip", **cfg))["violations"] == 0
    return counts


ROUNDTRIP_WORK_COUNTS = {
    "DivisorRep.__truediv__": 120,
    "RationalFn.__str__": 381,
    "RationalFn.__init__": 538,
    "DivisorRep.__init__": 264,
    "to_divisor": 726,
    "factor": 2577,
}


def test_roundtrip_work_counts(monkeypatch):
    assert _roundtrip_work_counts(monkeypatch.setattr) == ROUNDTRIP_WORK_COUNTS


def test_roundtrip_work_counts_do_not_depend_on_the_hash_seed():
    assert_counts_under_hash_seeds("test_reconstruct:_roundtrip_work_counts", ROUNDTRIP_WORK_COUNTS)
