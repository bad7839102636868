"""Flag maps, the subset census, the decomposition lemma, collineations."""

import itertools

import numpy as np
import pytest

from flagval import flagkit
from flagval.errors import InvalidInput, SizeBound
from flagval.flagkit import (
    CollineationReport,
    FlagVerdict,
    LemmaVerdict,
    StarMap,
    _bad_strata,
    _flag_chain,
    _greedy_point_order,
    _ones_levels,
    _value_levels,
    _verdicts_bulk,
    check_decomposition_lemma,
    classify_flag_subsets,
    collineation_analyze,
    is_flag_map,
    is_flag_subset,
    line_criterion,
    prop_equivalence_exhaustive,
    prop_equivalence_exhaustive_q2,
    prop_equivalence_random,
    set_partitions,
    star_condition,
    subset_family,
    subset_table,
    sweep_decomposition_lemma,
)
from flagval import projspace
from flagval.projspace import geometry

FANO = geometry(2, 2)


def _mask(points) -> int:
    return sum(1 << i for i in points)


def _points(ones: int) -> frozenset[int]:
    return frozenset(i for i in range(ones.bit_length()) if ones >> i & 1)


def test_census_q2():
    census = classify_flag_subsets(2)
    assert census.total == 70
    assert census.counts == {
        "point": 7,
        "line": 7,
        "punctured-line": 21,
        "plane-minus-point": 7,
        "plane-minus-line": 7,
        "plane-minus-punctured-line": 21,
    }
    assert census.mismatches == []


def test_census_q3():
    census = classify_flag_subsets(3)
    assert census.total == 156
    assert census.counts == {
        "point": 13,
        "line": 13,
        "punctured-line": 52,
        "plane-minus-point": 13,
        "plane-minus-line": 13,
        "plane-minus-punctured-line": 52,
    }
    assert census.mismatches == []


def test_census_size_bound():
    with pytest.raises(SizeBound):
        classify_flag_subsets(4)  # 21 points is past the census window


def test_subset_table_flag_bits_match_census():
    flag = subset_table(2, 2).flag
    flagged = [ones for ones in range(1, 127) if flag[ones]]
    assert len(flagged) == 70
    assert all(subset_family(FANO, ones) is not None for ones in flagged)


# -- reference set routes ------------------------------------------------
#
# The census and the decomposition lemma as they read on frozensets of
# point indices, with flaghood from the chain search on the subset's
# indicator map.  The mask routes of flagkit must agree with them.


def _subset_family_sets(geom, s: frozenset[int]) -> str | None:
    q = geom.q
    lines = [L.points for L in geom.subspaces[1]]
    comp = frozenset(range(len(geom.points))) - s
    if len(s) == 1:
        return "point"
    if s in lines:
        return "line"
    if len(s) == q and any(s < L for L in lines):
        return "punctured-line"
    if len(comp) == 1:
        return "plane-minus-point"
    if comp in lines:
        return "plane-minus-line"
    if len(comp) == q and any(comp < L for L in lines):
        return "plane-minus-punctured-line"
    return None


def _is_flag_subset_sets(geom, s: frozenset[int]) -> bool:
    return is_flag_map(geom, [int(i in s) for i in range(len(geom.points))]).is_flag


def _check_decomposition_lemma_sets(geom, parts: list[frozenset[int]]) -> LemmaVerdict:
    for line in geom.lines:
        lset = set(line)
        if not (lset & parts[0]):
            continue
        if not any(lset <= (parts[0] | parts[j]) for j in range(1, len(parts))):
            return LemmaVerdict("hypothesis-fails", witness_line=line)
    flag_parts = tuple(k for k, p in enumerate(parts) if _is_flag_subset_sets(geom, p))
    rest = tuple(k for k in flag_parts if k != 0)
    if flag_parts:
        return LemmaVerdict("holds", flag_parts=flag_parts, flag_parts_rest=rest)
    return LemmaVerdict("counterexample-candidate")


@pytest.mark.parametrize("q", [2, 3])
def test_subset_masks_match_the_set_route(q):
    # every subset of P^2(F_q), the empty and the full one included
    geom = geometry(2, q)
    npts = len(geom.points)
    assert geom.line_masks == tuple(_mask(L) for L in geom.lines)
    for ones in range(1 << npts):
        s = _points(ones)
        assert _mask(s) == ones
        assert subset_family(geom, ones) == _subset_family_sets(geom, s), sorted(s)
        assert is_flag_subset(geom, ones) == _is_flag_subset_sets(geom, s), sorted(s)


def test_lemma_masks_match_the_set_route():
    # all 3,136 cases of the q = 2 sweep: verdict kind, flag parts and
    # witness line
    cases = 0
    for blocks in set_partitions(7):
        if len(blocks) < 3:
            continue
        for s1 in range(len(blocks)):
            parts = [blocks[s1]] + [b for k, b in enumerate(blocks) if k != s1]
            expected = _check_decomposition_lemma_sets(FANO, [_points(p) for p in parts])
            assert check_decomposition_lemma(FANO, parts) == expected, parts
            cases += 1
    assert cases == 3136


def test_is_flag_map_verdicts():
    # constant map: flag, realized by any chain
    v = is_flag_map(FANO, [1] * 7)
    assert v.is_flag and v.chain is not None
    # indicator of a line: flag
    line = FANO.lines[0]
    v = is_flag_map(FANO, [1 if i in line else 0 for i in range(7)])
    assert v.is_flag
    # two points of a line plus one off it: the line criterion holds but
    # no stratum chain realizes the map, so no witness line exists
    bad = {line[0], line[1], min(i for i in range(7) if i not in line)}
    v = is_flag_map(FANO, [1 if i in bad else 0 for i in range(7)])
    assert not v.is_flag
    assert v.chain is None and v.witness_line is None
    # a line showing three distinct values names itself as the witness
    vals = [0] * 7
    vals[line[1]] = 1
    vals[line[2]] = 2
    v = is_flag_map(FANO, vals)
    assert not v.is_flag
    assert v.witness_line is not None


@pytest.mark.parametrize(
    "n,q,values,chain,witness_line",
    [
        (2, 2, [1] * 7, ((0,), (1, 2), (3, 4, 5, 6)), None),
        (2, 2, [0, 2, 0, 0, 1, 0, 2], ((4,), (1, 6), (0, 2, 3, 5)), None),
        (2, 2, [0, 1, 0, 2, 1, 1, 0], None, (0, 3, 4)),
        (2, 2, [1, 2, 2, 2, 1, 2, 1], None, None),
        (2, 3, [0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1], ((7,), (3, 5, 12), (0, 1, 2, 4, 6, 8, 9, 10, 11)), None),
        (2, 3, [2, 0, 2, 0, 2, 1, 0, 1, 0, 0, 1, 1, 2], None, (0, 1, 2, 3)),
        (
            3,
            2,
            [0, 2, 0, 0, 2, 0, 2, 0, 2, 0, 1, 2, 0, 1, 0],
            ((4,), (10, 13), (1, 6, 8, 11), (0, 2, 3, 5, 7, 9, 12, 14)),
            None,
        ),
        (3, 2, [2, 1, 1, 2, 1, 1, 1, 0, 0, 2, 1, 1, 2, 1, 1], None, (1, 7, 9)),
        (3, 2, [1, 0, 1, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1], None, None),
        (1, 3, [0, 2, 2, 2], ((0,), (1, 2, 3)), None),
        (1, 3, [0, 2, 1, 1], None, (0, 1, 2, 3)),
    ],
)
def test_is_flag_map_first_chain_and_witness(n, q, values, chain, witness_line):
    # the first accepting chain and the first witness line in canonical order
    v = is_flag_map(geometry(n, q), values)
    note = "line criterion holds but no stratum chain exists" if chain is witness_line is None else ""
    assert v == FlagVerdict(chain is not None, chain, witness_line, note)


def _assert_scalar_matches_bulk(geom, maps):
    line_ok, chain_ok = _verdicts_bulk(geom, np.array(maps, dtype=np.int8))
    for row, vals in enumerate(maps):
        assert line_criterion(geom, vals) == line_ok[row], vals
        assert is_flag_map(geom, vals).is_flag == chain_ok[row], vals


@pytest.mark.parametrize("n,q,k", [(2, 2, 3), (2, 2, 4), (1, 3, 3), (1, 3, 4)])
def test_kernel_scalar_and_bulk_agree_exhaustive(n, q, k):
    geom = geometry(n, q)
    maps = list(itertools.product(range(k), repeat=len(geom.points)))
    _assert_scalar_matches_bulk(geom, maps)


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2)])
def test_kernel_scalar_and_bulk_agree_sampled(n, q):
    geom = geometry(n, q)
    rng = np.random.Generator(np.random.PCG64(11))
    maps = rng.integers(0, 3, size=(10_000, len(geom.points)), dtype=np.int8).tolist()
    _assert_scalar_matches_bulk(geom, maps)


@pytest.mark.parametrize("q", [2, 3])
def test_kernel_ones_mask_entry_matches_values(q):
    # the bulk subset table against the scalar kernel and the chain
    # search on every indicator map of P^2(F_q)
    geom = geometry(2, q)
    npts = len(geom.points)
    table = geom.strata
    subsets = subset_table(2, q)
    bad = subsets.bad_masks()
    assert len(bad) == len(subsets.flag) == 1 << npts
    for ones in range(1 << npts):
        indicator = [ones >> i & 1 for i in range(npts)]
        assert bad[ones] == _bad_strata(table, _value_levels(indicator)), ones
        # the scalar ones-mask entry that sampled collineation_analyze
        # uses past SUBSET_WINDOW points
        assert bad[ones] == _bad_strata(table, _ones_levels(npts, ones)), ones
        assert subsets.flag[ones] == is_flag_map(geom, indicator).is_flag, ones
        assert is_flag_subset(geom, ones) == bool(subsets.flag[ones])


def test_subset_table_window():
    assert subset_table(2, 3) is subset_table(2, 3)  # built once per geometry
    with pytest.raises(SizeBound):
        subset_table(2, 4)  # 21 points
    with pytest.raises(SizeBound):
        is_flag_subset(geometry(2, 4), 1)


def test_subset_table_refuses_before_building_the_geometry():
    built = projspace.geometry.cache_info().currsize
    with pytest.raises(SizeBound):
        subset_table(2, 9)  # 91 points
    with pytest.raises(SizeBound):
        classify_flag_subsets(9)
    assert projspace.geometry.cache_info().currsize == built


def test_kernel_pair_verdict_is_the_four_valued_map():
    # collineation_analyze judges the pair (bit 0, bit 1) of a map into
    # {0,1,2,3} through the union of the two coordinates' bad strata
    table = FANO.strata
    bad = subset_table(2, 2).bad_masks()
    for vals in itertools.product(range(4), repeat=7):
        m1 = sum(1 << i for i, v in enumerate(vals) if v & 1)
        m2 = sum(1 << i for i, v in enumerate(vals) if v & 2)
        pair = bad[m1] | bad[m2]
        assert pair == _bad_strata(table, _value_levels(vals))
        assert (_flag_chain(table, pair) is not None) == is_flag_map(FANO, vals).is_flag


def test_is_flag_map_on_projective_line():
    p1 = geometry(1, 3)
    assert is_flag_map(p1, [0, 1, 1, 1]).is_flag
    v = is_flag_map(p1, [0, 0, 1, 1])
    assert not v.is_flag and v.witness_line == (0, 1, 2, 3)


def test_is_flag_subset_families():
    line = _mask(FANO.lines[0])
    assert is_flag_subset(FANO, line)
    assert is_flag_subset(FANO, 1 << 3)
    assert is_flag_subset(FANO, 0b1111111 ^ line)
    punctured = line & line - 1  # the line without its lowest point
    assert is_flag_subset(FANO, punctured)
    assert subset_family(FANO, punctured) == "punctured-line"
    # a triangle (three points not on a line) is not a flag subset
    tri = None
    for combo in itertools.combinations(range(7), 3):
        if not any(set(combo) <= set(L) for L in FANO.lines):
            tri = _mask(combo)
            break
    assert tri is not None
    assert not is_flag_subset(FANO, tri)
    assert subset_family(FANO, tri) is None


def test_line_criterion_agrees_on_flag_maps():
    line = FANO.lines[1]
    values = [1 if i in line else 0 for i in range(7)]
    assert line_criterion(FANO, values)
    assert is_flag_map(FANO, values).is_flag


def test_prop_equivalence_exhaustive_q2_frozen():
    r = prop_equivalence_exhaustive_q2()
    assert r["cases_total"] == 2187
    assert r["line_ok"] == 507
    assert r["chain_flag"] == 339
    assert r["mismatches"] == 168
    assert r["mismatch_direction_line_only"] == 168
    assert r["mismatch_direction_chain_only"] == 0
    assert r["witnesses"][0] == [1, 1, 0, 1, 0, 0, 0]


def test_prop_equivalence_exhaustive_window():
    assert prop_equivalence_exhaustive(2, 2) == prop_equivalence_exhaustive_q2()
    # P^1(F_3): constant maps plus one of 3*2 value pairs off one of 4 points
    line = prop_equivalence_exhaustive(1, 3)
    assert line["cases_total"] == 3**4
    assert line["line_ok"] == line["chain_flag"] == 3 + 4 * 6
    assert line["mismatches"] == 0
    with pytest.raises(SizeBound):
        prop_equivalence_exhaustive(3, 2)  # 15 points: 3^15 maps


def test_prop_equivalence_random_frozen():
    r = prop_equivalence_random(2, 3, 2000, 7)
    assert r["cases_total"] == 2000
    assert r["mismatches"] == 0
    assert r["line_ok"] == 1 and r["chain_flag"] == 1
    # P^3(F_2): the line criterion is strictly weaker on random maps
    r2 = prop_equivalence_random(3, 2, 2000, 7)
    assert r2["mismatches"] == r2["mismatch_direction_line_only"]
    assert r2["mismatch_direction_chain_only"] == 0


def test_set_partitions_bell_numbers():
    assert sum(1 for _ in set_partitions(4)) == 15
    assert sum(1 for _ in set_partitions(5)) == 52
    # each partition covers range(n) disjointly
    for blocks in set_partitions(4):
        seen = 0
        for b in blocks:
            assert b and not (seen & b)
            seen |= b
        assert seen == 0b1111


def test_check_decomposition_lemma_explicit():
    line = _mask(FANO.lines[0])
    rest = sorted(set(range(7)) - set(FANO.lines[0]))
    # distinguished part = line, remaining four points split into singles
    parts = [line] + [1 << i for i in rest]
    v = check_decomposition_lemma(FANO, parts)
    assert v.kind in ("holds", "hypothesis-fails")
    with pytest.raises(InvalidInput):
        check_decomposition_lemma(FANO, [line, _mask(rest)])  # 2 parts
    with pytest.raises(InvalidInput):
        check_decomposition_lemma(FANO, [line, 0, _mask(rest)])
    with pytest.raises(InvalidInput):
        check_decomposition_lemma(
            FANO, [line, _mask(rest[:2]), _mask(rest[:2] + rest[2:])]
        )  # overlap


def test_lemma_sweep_q2_frozen():
    r = sweep_decomposition_lemma(2)
    assert r["cases_total"] == 3136
    assert r["hypothesis_held"] == 77
    assert r["holds"] == 77
    assert r["strict_gap"] == 0
    assert r["counterexample_candidates"] == []
    with pytest.raises(SizeBound):
        sweep_decomposition_lemma(3)


def test_star_condition_explicit():
    # an image inside one affine line of the target always satisfies (*)
    pairs = []
    for pt in geometry(2, 2).points:
        a, b, c = pt.coords
        pairs.append(((a + b) % 2, 1))
    m = StarMap(2, 2, tuple(pairs))
    assert star_condition(m)
    ok, witness = star_condition(m, with_witness=True)
    assert ok and witness is None
    # three collinear points with pairwise distinct images break (*)
    line = geometry(2, 2).lines[0]
    bad_pairs = [(0, 0)] * 7
    bad_pairs[line[0]] = (0, 1)
    bad_pairs[line[1]] = (1, 0)
    bad_pairs[line[2]] = (1, 1)
    bad = StarMap(2, 2, tuple(bad_pairs))
    ok, witness = star_condition(bad, with_witness=True)
    assert not ok and witness is not None
    with pytest.raises(InvalidInput):
        star_condition(StarMap(2, 2, ((0, 0),) * 6))


def test_collineation_p2_frozen():
    rep = collineation_analyze(2)
    assert rep.maps_examined == 4**7
    assert rep.star_maps == 1264
    assert rep.max_image_size == 3
    assert rep.image_size_counts == {1: 4, 2: 756, 3: 504}
    assert rep.image_size_violations == []
    assert rep.no_flag_combo_maps == 0
    # the model failure: (*) maps that are not jointly flag exist
    assert rep.non_flag_star_maps == 336
    assert rep.first_non_flag_star == [0, 0, 0, 0, 1, 1, 1]
    assert rep.flag_combo_violations == []


def _scalar_collineation_report(p: int, order: list[int]) -> CollineationReport:
    """collineation_analyze(p) rebuilt from scalar per-map verdicts.

    Every map P^2(F_p) -> A^2(F_2) is visited, in the sweep's order:
    lexicographic in the values at order[0], order[1], ...  The (*)
    test is star_condition's rank test, the pair verdict is the chain
    search on the 4-valued map, and the combination verdicts are the
    scalar kernel on the indicator maps of bit 0, bit 1 and their sum.
    """
    geom = geometry(2, p)
    npts = len(geom.points)
    table = geom.strata

    def combo_flag(vals, f):
        return _flag_chain(table, _bad_strata(table, _value_levels([f(v) for v in vals]))) is not None

    counts: dict[int, int] = {}
    star = []
    no_combo = []
    non_flag = []
    for code in itertools.product(range(4), repeat=npts):
        vals = [0] * npts
        for pt, v in zip(order, code):
            vals[pt] = v
        if not star_condition(StarMap(p, 2, tuple((v & 1, v >> 1) for v in vals))):
            continue
        star.append(vals)
        img = len(set(vals))
        counts[img] = counts.get(img, 0) + 1
        if not any(combo_flag(vals, f) for f in (lambda v: v & 1, lambda v: v >> 1, lambda v: (v ^ v >> 1) & 1)):
            no_combo.append(vals)
        if not is_flag_map(geom, vals).is_flag:
            non_flag.append(vals)
    return CollineationReport(
        p=p,
        mode="exhaustive",
        maps_examined=4**npts,
        star_maps=len(star),
        max_image_size=max(counts),
        image_size_counts=counts,
        image_size_violations=[v for v in star if len(set(v)) > 3],
        no_flag_combo_maps=len(no_combo),
        first_no_flag_combo=no_combo[0] if no_combo else None,
        flag_combo_violations=no_combo if p != 2 else [],
        non_flag_star_maps=len(non_flag),
        first_non_flag_star=non_flag[0] if non_flag else None,
    )


def test_star_condition_counts_the_collineation_star_maps():
    # every field of the p = 2 report, rebuilt map by map from the scalar
    # verdicts over all 4^7 maps P^2(F_2) -> A^2(F_2)
    order, _ = _greedy_point_order(FANO)
    expected = _scalar_collineation_report(2, order)
    assert expected.star_maps == 1264
    assert collineation_analyze(2) == expected


def test_collineation_scalar_masks_match_the_table(monkeypatch):
    # sampled mode past SUBSET_WINDOW judges the coordinate maps with the
    # scalar kernel; shrinking the window sends the same sweeps there.
    # About 1 in 1,300 maps of P^2(F_3) satisfies (*), so the p = 3 sweep
    # takes 40,000 samples and must reach a real number of (*) maps.
    table_reports = [collineation_analyze(2), collineation_analyze(3, mode="sampled", samples=40_000, seed=9)]
    assert table_reports[1].star_maps >= 20
    assert table_reports[1].non_flag_star_maps >= 10
    monkeypatch.setattr(flagkit, "SUBSET_WINDOW", 0)
    assert collineation_analyze(2) == table_reports[0]
    assert collineation_analyze(3, mode="sampled", samples=40_000, seed=9) == table_reports[1]


def test_collineation_errors():
    with pytest.raises(SizeBound):
        collineation_analyze(5)
    with pytest.raises(InvalidInput):
        collineation_analyze(3, mode="sampled", samples=10)  # seed missing
    with pytest.raises(InvalidInput):
        collineation_analyze(3, mode="nonsense")


def test_collineation_sampled_smoke():
    rep = collineation_analyze(3, mode="sampled", samples=2000, seed=5)
    assert rep.maps_examined == 2000
    assert rep.image_size_violations == []
    assert rep.flag_combo_violations == []
