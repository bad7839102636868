"""Acceptance gate: one test per shipped claim, timed at desk scale.

Each criterion prints one PASS/FAIL line with its wall-clock time; the
time limits are part of the claims and are asserted, not advisory.
"""

import itertools
import time
from contextlib import contextmanager

from flagval import flagkit
from flagval.projspace import geometry
from flagval.suites import SuiteConfig, render_report, run_suite


@contextmanager
def criterion(n, label, limit=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        dt = time.perf_counter() - t0
        print(f"[acceptance] criterion {n:02d} FAIL ({dt:.2f}s): {label}")
        raise
    dt = time.perf_counter() - t0
    if limit is not None and dt >= limit:
        print(f"[acceptance] criterion {n:02d} FAIL ({dt:.2f}s): {label}")
        raise AssertionError(f"criterion {n} took {dt:.2f}s, limit {limit}s")
    print(f"[acceptance] criterion {n:02d} PASS ({dt:.2f}s): {label}")


def test_criterion_01_flag_subset_census():
    with criterion(1, "subset census on the 7-point plane", limit=1.0):
        census = flagkit.classify_flag_subsets(2)
        assert census.total == 70
        assert census.counts == {
            "point": 7,
            "line": 7,
            "punctured-line": 21,
            "plane-minus-point": 7,
            "plane-minus-line": 7,
            "plane-minus-punctured-line": 21,
        }
        assert not census.mismatches


def _flag_map_count(q):
    """Flag maps P^2(F_q) -> {0,1,2}, counted from the subset census.

    The strata of a chain have sizes 1, q and q^2, so a flag map is
    constant (3 maps), two-valued with a flag level set (3 value pairs
    times the flag subsets, which are closed under complement), or
    three-valued with one value per stratum of a single chain (3! per
    chain).
    """
    census = flagkit.classify_flag_subsets(q)
    return 3 + 3 * census.total + 6 * len(geometry(2, q).chains)


def test_criterion_02_chain_vs_line_equivalence():
    label = "line verdict equals chain verdict for q>=3; over F_2 it is necessary only"
    with criterion(2, label, limit=60.0):
        # (a) q >= 3: exact equivalence on every map of P^2(F_3)
        plane3 = flagkit.prop_equivalence_exhaustive(2, 3)
        assert plane3["cases_total"] == 3**13
        assert plane3["mismatches"] == 0, plane3["witnesses"]
        assert plane3["line_ok"] == plane3["chain_flag"] == _flag_map_count(3)

        # (b) q = 2: every flag map passes the line test, and the line test
        # also passes exactly the two-valued maps with a non-flag level set
        fano = geometry(2, 2)
        npts = len(fano.points)
        flag = flagkit.subset_table(2, 2).flag
        census = flagkit.classify_flag_subsets(2)
        line_total = chain_total = gap_total = 0
        for vals in itertools.product(range(3), repeat=npts):
            line = flagkit.line_criterion(fano, vals)
            chain = flagkit.is_flag_map(fano, vals).is_flag
            assert line or not chain, vals
            # flag subsets are closed under complement: either level set will do
            level = sum(1 << i for i, v in enumerate(vals) if v == vals[0])
            gap = len(set(vals)) == 2 and not flag[level]
            assert (line and not chain) == gap, vals
            line_total += line
            chain_total += chain
            gap_total += gap
        assert gap_total == 3 * (2**npts - 2 - census.total)
        assert chain_total == _flag_map_count(2)
        plane2 = flagkit.prop_equivalence_exhaustive_q2()
        assert plane2["cases_total"] == 3**npts
        assert plane2["mismatch_direction_chain_only"] == 0
        assert plane2["mismatches"] == plane2["mismatch_direction_line_only"] == gap_total
        assert (plane2["line_ok"], plane2["chain_flag"]) == (line_total, chain_total)

        # (c) P^3(F_2), sampled: only the F_2 direction is promised
        space = flagkit.prop_equivalence_random(3, 2, 100_000, 20)
        assert space["cases_total"] == 100_000
        assert space["mismatch_direction_chain_only"] == 0
        assert space["mismatches"] == space["mismatch_direction_line_only"]


def test_criterion_03_decomposition_sweep():
    with criterion(3, "three-part colorings always contain a flag part", limit=120.0):
        r = flagkit.sweep_decomposition_lemma(2)
        assert r["cases_total"] == 3136
        assert r["hypothesis_held"] == r["holds"]
        assert r["counterexample_candidates"] == []


def test_criterion_04_collineation_model():
    with criterion(4, "small-image model holds at p=3 and fails at p=2", limit=600.0):
        rep3 = flagkit.collineation_analyze(3)
        assert rep3.maps_examined == 4**13
        assert rep3.max_image_size <= 3
        assert rep3.image_size_violations == []
        assert rep3.no_flag_combo_maps == 0
        rep2 = flagkit.collineation_analyze(2)
        assert rep2.non_flag_star_maps > 0
        assert rep2.first_non_flag_star == [0, 0, 0, 0, 1, 1, 1]


def test_criterion_05_valuation_axioms():
    with criterion(5, "ultrametric, degree sum, and full flag catalog", limit=60.0):
        for q, cases, checks in ((3, 10_088, 88), (5, 10_344, 344)):
            rep = run_suite(
                SuiteConfig(suite="valuation-axioms", q=q, seed=101, samples=10_000)
            )
            assert rep["violations"] == 0, (q, rep["witnesses"])
            assert rep["cases_total"] == cases
            cat = rep["witnesses"]["flag_catalog"]
            assert cat["checks"] == checks and cat["non_flag"] == 0


def test_criterion_06_inertia_exact():
    with criterion(6, "inertia space is exactly the valuation line", limit=60.0):
        rep = run_suite(SuiteConfig(suite="weil-inertia", q=3, arena_deg=3))
        assert rep["cases_total"] == 15
        assert rep["violations"] == 0
        assert rep["witnesses"]["failures"] == []


def test_criterion_07_c_pairs():
    with criterion(7, "refutation minor, subfield family, support search", limit=60.0):
        rep = run_suite(SuiteConfig(suite="c-pairs"))
        assert rep["violations"] == 0
        w = rep["witnesses"]
        assert w["refutation"]["cyclic"] is False
        assert w["refutation"]["witness"][0] == "(x)/(y)"
        assert w["refutation"]["witness"][-1] == -1
        assert w["composite"]["cyclic"] is True
        assert len(w["composite"]["family"]) == 5
        assert w["support"]["place"] == "curve:x"
        assert w["support"]["combination"][1] == 0


def test_criterion_08_ktheory():
    with criterion(8, "Steinberg, reciprocity, and the worked symbol", limit=60.0):
        for q in (3, 5):
            rep = run_suite(SuiteConfig(suite="ktheory", q=q, seed=101, samples=1000))
            assert rep["violations"] == 0, (q, rep["witnesses"]["failures"])
            w = rep["witnesses"]
            assert w["steinberg_samples"] == 1000
            assert w["reciprocity_samples"] == 500
            assert w["worked"]["norm_product"] == 1
            if q == 3:
                assert w["worked"]["residues"] == [2, 1, 2]


def test_criterion_09_reconstruction_round_trip():
    expected = {
        "curve:x": ("x", 4080),
        "curve:y": ("y", 4080),
        "curve:x^2+2*y": ("x^2+2*y", 4563),
    }
    with criterion(9, "valuations are recovered from their divisor maps", limit=300.0):
        for place, (gen, units) in expected.items():
            rep = run_suite(SuiteConfig(suite="reconstruct-roundtrip", place=place))
            assert rep["violations"] == 0, (place, rep["witnesses"]["failures"])
            body = rep["witnesses"]["report"]
            assert body["verdict"] == "valuation", place
            assert body["generator"] == gen
            assert body["o_units_size"] == units
            assert body["gamma_rank"] == 1 and body["gamma_torsion"] == []
            assert body["lemma_checks"] == {"l43": True, "l45": True, "p46": True}
            conc = body["conclusion_checks"]
            assert conc["all_passed"]
            for key in ("conclusion1", "conclusion2"):
                assert conc[key]["samples"] >= 50, (place, key, conc)
                assert conc[key]["passes"] == conc[key]["samples"]


def test_criterion_10_byte_determinism():
    configs = [
        SuiteConfig(suite="flag-classify", q=2),
        SuiteConfig(suite="prop-flag-map", q=3, mode="sampled", seed=101, samples=10_000),
        SuiteConfig(suite="lemma-p2"),
        SuiteConfig(suite="collineation", p=2),
        SuiteConfig(suite="valuation-axioms", q=3, seed=101, samples=1000),
        SuiteConfig(suite="weil-inertia", arena_deg=2),
        SuiteConfig(suite="c-pairs"),
        SuiteConfig(suite="ktheory", seed=101, samples=100),
        SuiteConfig(suite="reconstruct-roundtrip", place="curve:x", arena_deg=1, samples=10),
    ]
    with criterion(10, "identical config and seed give identical bytes"):
        for cfg in configs:
            first = render_report(run_suite(cfg))
            second = render_report(run_suite(cfg))
            assert first == second, cfg.suite
