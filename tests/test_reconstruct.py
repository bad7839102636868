"""Valuation extraction round trips."""

import hashlib
import json

import pytest

from flagval import reconstruct
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
    ur = build_u(psi_x, arena3)
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


def test_case_b_value_character(arena3):
    psi_b = PsiMap({CURVE_X.pi: _uc("w", W)}, F3, W)
    res = extract_valuation(psi_b, arena3)
    assert hashlib.sha256(json.dumps(res.to_json_obj()).encode()).hexdigest() == CASE_B_DIGEST
    assert res.verdict == "valuation" and res.case == "B"
    assert res.gamma_rank == 1 and res.gamma_torsion == ()
    assert res.orientation == 1
    assert res.o_units_size == 4080


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
