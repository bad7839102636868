"""Named check suites: report shape, frozen results, CLI behavior."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagval import cli, suites
from flagval.errors import InvalidConfig, SizeBound, UnknownSuite
from flagval.ff import FiniteField
from flagval.suites import SuiteConfig, render_report, run_suite

REPORT_KEYS = [
    "suite",
    "config",
    "cases_total",
    "passes",
    "violations",
    "witnesses",
    "elapsed_ms",
    "version",
]

CONFIG_KEYS = [
    "suite",
    "q",
    "p",
    "mode",
    "seed",
    "arena_deg",
    "samples",
    "check",
    "place",
]


def test_report_shape_and_echo():
    rep = run_suite(SuiteConfig(suite="flag-classify"))
    assert list(rep) == REPORT_KEYS
    assert list(rep["config"]) == CONFIG_KEYS
    assert rep["config"]["suite"] == "flag-classify"
    assert rep["config"]["mode"] == "exhaustive"
    assert rep["config"]["q"] is None  # unset knobs echo as None
    assert rep["elapsed_ms"] is None
    assert rep["version"] == 1
    assert rep["passes"] == rep["cases_total"] - rep["violations"]


def test_flag_classify_q2():
    rep = run_suite(SuiteConfig(suite="flag-classify", q=2))
    assert rep["cases_total"] == 126
    assert rep["violations"] == 0
    w = rep["witnesses"]
    assert w["flag_total"] == 70
    assert w["mismatches"] == []
    assert w["family_counts"] == {
        "point": 7,
        "line": 7,
        "punctured-line": 21,
        "plane-minus-point": 7,
        "plane-minus-line": 7,
        "plane-minus-punctured-line": 21,
    }


def test_flag_classify_q3():
    rep = run_suite(SuiteConfig(suite="flag-classify", q=3))
    assert rep["cases_total"] == 8190
    assert rep["violations"] == 0
    w = rep["witnesses"]
    assert w["flag_total"] == 156
    assert w["family_counts"] == {
        "point": 13,
        "line": 13,
        "punctured-line": 52,
        "plane-minus-point": 13,
        "plane-minus-line": 13,
        "plane-minus-punctured-line": 52,
    }


def test_prop_flag_map_exhaustive():
    rep = run_suite(SuiteConfig(suite="prop-flag-map", mode="exhaustive"))
    assert rep["cases_total"] == 2187
    assert rep["violations"] == 168
    w = rep["witnesses"]
    assert w["line_ok"] == 507
    assert w["chain_flag"] == 339
    assert w["direction_line_only"] == 168
    assert w["direction_chain_only"] == 0
    assert len(w["value_maps"]) == 5
    assert w["value_maps"][0] == [1, 1, 0, 1, 0, 0, 0]


def test_prop_flag_map_sampled_q3():
    rep = run_suite(
        SuiteConfig(suite="prop-flag-map", q=3, mode="sampled", seed=7, samples=2000)
    )
    assert rep["config"]["mode"] == "sampled"
    assert rep["cases_total"] == 2000
    assert rep["violations"] == 0
    w = rep["witnesses"]
    assert w["line_ok"] == 1 and w["chain_flag"] == 1
    assert w["value_maps"] == []


def test_lemma_p2_q2():
    rep = run_suite(SuiteConfig(suite="lemma-p2"))
    assert rep["cases_total"] == 3136
    assert rep["violations"] == 0
    w = rep["witnesses"]
    assert w["hypothesis_held"] == 77
    assert w["holds"] == 77
    assert w["strict_gap"] == 0
    assert w["counterexample_candidates"] == []


def test_collineation_p2():
    rep = run_suite(SuiteConfig(suite="collineation", p=2))
    assert rep["cases_total"] == 4**7
    assert rep["violations"] == 0
    w = rep["witnesses"]
    assert w["star_maps"] == 1264
    assert w["max_image_size"] == 3
    assert w["image_size_counts"] == {"1": 4, "2": 756, "3": 504}
    assert w["image_size_violations"] == []
    assert w["flag_combo_violations"] == []
    mf = w["model_failure"]
    assert mf["exhibited"] is True
    assert mf["count"] == 336
    assert mf["first_map"] == [0, 0, 0, 0, 1, 1, 1]
    assert mf["no_flag_combo_maps"] == 0


def test_valuation_axioms_small():
    rep3 = run_suite(SuiteConfig(suite="valuation-axioms", q=3, seed=5, samples=300))
    assert rep3["cases_total"] == 388
    assert rep3["violations"] == 0
    w3 = rep3["witnesses"]
    assert w3["places"][0] == "finite:t" and w3["places"][-1] == "infinite"
    assert w3["ultrametric_failures"] == []
    assert w3["degree_sum_failures"] == []
    assert w3["flag_catalog"] == {
        "subspaces": 22,
        "checks": 88,
        "non_flag": 0,
        "first_non_flag": None,
    }
    rep5 = run_suite(SuiteConfig(suite="valuation-axioms", q=5, seed=5, samples=300))
    assert rep5["cases_total"] == 644
    assert rep5["violations"] == 0
    assert rep5["witnesses"]["flag_catalog"]["subspaces"] == 86
    assert rep5["witnesses"]["flag_catalog"]["checks"] == 344


def test_valuation_axioms_names_a_non_flag_line_by_its_generator(monkeypatch):
    arena = suites._arena(FiniteField(3), ("t",), 2)
    bad = arena.lines[7]
    real = suites.valuation_flag_structure

    def one_line_fails(place, S):
        return SimpleNamespace(is_flag=False) if S is bad else real(place, S)

    monkeypatch.setattr(suites, "valuation_flag_structure", one_line_fails)
    rep = run_suite(SuiteConfig(suite="valuation-axioms", q=3, seed=5, samples=20))
    cat = rep["witnesses"]["flag_catalog"]
    assert rep["violations"] == cat["non_flag"] == 4  # the line at each of 4 places
    assert str(arena.line_gens[7]) not in ("1", "t")
    assert cat["first_non_flag"] == f"finite:t on {arena.line_gens[7]}"


def test_weil_inertia_default():
    rep = run_suite(SuiteConfig(suite="weil-inertia"))
    assert rep["cases_total"] == 15
    assert rep["violations"] == 0
    w = rep["witnesses"]
    assert w["generators"] == 14
    assert len(w["places"]) == 15
    assert w["places"][0] == "finite:t" and w["places"][-1] == "infinite"
    assert w["failures"] == []


def test_c_pairs():
    rep = run_suite(SuiteConfig(suite="c-pairs"))
    assert rep["cases_total"] == 3
    assert rep["violations"] == 0
    w = rep["witnesses"]
    assert w["refutation"]["cyclic"] is False
    assert w["refutation"]["witness"] == ["(x)/(y)", "s", "s+1", -1]
    assert w["composite"]["cyclic"] is True
    assert w["composite"]["family"] == ["x", "y", "x+y", "x*y", "(x)/(y)"]
    assert w["support"] == {"place": "curve:x", "combination": [1, 0]}
    assert w["failures"] == []


def test_ktheory_seeded():
    rep = run_suite(SuiteConfig(suite="ktheory", seed=11, samples=60))
    assert rep["cases_total"] == 91  # 60 + 30 + the worked example
    assert rep["violations"] == 0
    w = rep["witnesses"]
    assert w["steinberg_samples"] == 60
    assert w["reciprocity_samples"] == 30
    assert w["failures"] == []
    assert w["worked"] == {
        "entries": ["t", "t+2"],
        "support": ["finite:t", "finite:t+2", "infinite"],
        "residues": [2, 1, 2],
        "norm_product": 1,
    }


def test_ktheory_worked_only():
    rep = run_suite(SuiteConfig(suite="ktheory", seed=11, check="worked"))
    assert rep["cases_total"] == 1
    assert rep["witnesses"]["steinberg_samples"] == 0
    assert rep["witnesses"]["reciprocity_samples"] == 0


def test_render_report_deterministic():
    cfg = SuiteConfig(suite="ktheory", seed=11, samples=60)
    a = render_report(run_suite(cfg))
    b = render_report(run_suite(cfg))
    assert a == b
    assert a.endswith("\n")
    cfg2 = SuiteConfig(suite="valuation-axioms", q=3, seed=5, samples=300)
    assert render_report(run_suite(cfg2)) == render_report(run_suite(cfg2))


def test_resolve_alias_and_defaults():
    cfg = suites._resolve(SuiteConfig(suite="reconstruct"))
    assert cfg.suite == "reconstruct-roundtrip"
    assert cfg.mode == "exhaustive"
    assert cfg.samples == 50


def test_suite_table_modes_and_default_samples():
    assert len(suites.SUITES) == 9
    for name, fn in suites.SUITES.items():
        assert fn.modes and set(fn.modes) <= {"exhaustive", "sampled"}, name
        if "sampled" in fn.modes:
            assert fn.default_samples >= 1, name
        cfg = suites._resolve(SuiteConfig(suite=name, seed=1))
        assert cfg.mode == fn.modes[0]
        assert cfg.samples == fn.default_samples


def test_config_validation():
    with pytest.raises(UnknownSuite):
        run_suite(SuiteConfig(suite="no-such-suite"))
    with pytest.raises(InvalidConfig):
        run_suite(SuiteConfig(suite="lemma-p2", mode="sampled"))
    with pytest.raises(InvalidConfig):
        run_suite(SuiteConfig(suite="ktheory"))  # sampled mode, no seed
    with pytest.raises(InvalidConfig):
        run_suite(SuiteConfig(suite="ktheory", seed=1, samples=0))
    with pytest.raises(SizeBound):
        run_suite(SuiteConfig(suite="ktheory", seed=1, samples=3_000_000))
    with pytest.raises(InvalidConfig):
        run_suite(SuiteConfig(suite="ktheory", seed=2**63))
    with pytest.raises(SizeBound):
        run_suite(SuiteConfig(suite="flag-classify", q=4))
    with pytest.raises(InvalidConfig):
        run_suite(SuiteConfig(suite="prop-flag-map", q=5, mode="sampled", seed=1))
    with pytest.raises(InvalidConfig):
        run_suite(SuiteConfig(suite="ktheory", seed=1, check="nonsense"))


@pytest.mark.parametrize(
    "cfg",
    [
        {"suite": "ktheory", "q": 0, "seed": 1},
        {"suite": "ktheory", "q": -1, "seed": 1},
        {"suite": "valuation-axioms", "q": 0, "seed": 1},
        {"suite": "collineation", "p": 0},
        {"suite": "weil-inertia", "arena_deg": 0},
        {"suite": "reconstruct-roundtrip", "arena_deg": -2},
        {"suite": "reconstruct-roundtrip", "arena_deg": 1, "samples": 0},
        {"suite": "reconstruct-roundtrip", "arena_deg": 1, "samples": -5},
    ],
)
def test_non_positive_knobs_refused(cfg):
    # `cfg.q or 3` would run the default while the report echoed the 0,
    # and a round trip on no conclusion samples would pass vacuously
    with pytest.raises(InvalidConfig):
        run_suite(SuiteConfig(**cfg))


def test_valuation_axioms_catalog_window(monkeypatch):
    # the window is read from q before the catalog is built: q=13 passes
    # it, q=16 and q=49 are refused without building anything
    class Built(Exception):
        pass

    def no_build(*args):
        raise Built

    monkeypatch.setattr(suites, "_arena", no_build)
    with pytest.raises(Built):
        run_suite(SuiteConfig(suite="valuation-axioms", q=13, seed=1, samples=1))
    for q in (16, 49):
        with pytest.raises(SizeBound):
            run_suite(SuiteConfig(suite="valuation-axioms", q=q, seed=1, samples=1))


def test_weil_inertia_generator_window(monkeypatch):
    # the generator count is read from q and arena_deg before any
    # irreducible is enumerated: q=9 at degree 3 (285 generators) and
    # q=23 at degree 2 (276) pass it, q=11 at degree 3 (506) and q=25 at
    # degree 2 (325) are refused
    from flagval.poly import monic_irreducibles

    for q, deg in [(2, 3), (3, 2), (4, 3), (5, 1)]:
        assert suites._irreducible_count(q, deg) == len(monic_irreducibles(q, "t", deg))

    class Built(Exception):
        pass

    def no_build(*args):
        raise Built

    monkeypatch.setattr(suites, "monic_irreducibles", no_build)
    for q, deg in [(9, 3), (23, 2), (49, 1)]:
        with pytest.raises(Built):
            run_suite(SuiteConfig(suite="weil-inertia", q=q, arena_deg=deg))
    for q, deg in [(11, 3), (25, 2), (49, 3)]:
        with pytest.raises(SizeBound):
            run_suite(SuiteConfig(suite="weil-inertia", q=q, arena_deg=deg))


def test_roundtrip_arena_window(monkeypatch):
    # the line count is read from q and arena_deg before any generator is
    # enumerated: q=9 at degree 1 (8,100 lines) and q=3 at degree 2
    # (3,693) pass it; q=4 at degree 2 (24,214), q=11 at degree 1
    # (17,424) and the configs that ran past a minute are refused
    from flagval.ff import FiniteField
    from flagval.reconstruct import Arena

    for q, deg in [(2, 1), (3, 1), (2, 2), (4, 1), (5, 1)]:
        assert suites._arena_line_count(q, deg) == len(Arena(FiniteField(q), ("x", "y"), deg).lines)
    assert suites._arena_line_count(3, 2) == 3693  # the criterion 09 arena, pinned in test_reconstruct
    assert suites._arena_line_count(9, 1) == suites.ROUNDTRIP_LINE_CAP

    class Built(Exception):
        pass

    def no_build(*args):
        raise Built

    monkeypatch.setattr(suites, "_arena", no_build)
    for q, deg in [(9, 1), (3, 2), (2, 2)]:
        with pytest.raises(Built):
            run_suite(SuiteConfig(suite="reconstruct-roundtrip", q=q, arena_deg=deg))
    for q, deg in [(4, 2), (11, 1), (5, 2), (13, 1), (49, 1)]:
        with pytest.raises(SizeBound):
            run_suite(SuiteConfig(suite="reconstruct-roundtrip", q=q, arena_deg=deg))


def test_cli_roundtrip_refusals_exit_two_at_once(capsys):
    import time

    for argv in (
        ["reconstruct", "--q", "4", "--arena-deg", "2"],
        ["reconstruct", "--q", "5", "--arena-deg", "2"],
        ["reconstruct", "--q", "13", "--arena-deg", "1"],
        ["reconstruct", "--q", "49", "--arena-deg", "1"],
        ["reconstruct", "--source", "F" + "9" * 5000 + "(x,y)"],
    ):
        t0 = time.monotonic()
        assert cli.main(argv) == 2
        assert time.monotonic() - t0 < 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1, argv
    assert cli.main(["reconstruct", "--q", "49", "--arena-deg", "1"]) == 2
    assert capsys.readouterr().err == (
        "flagval: SizeBound: the round-trip arena holds at most 8100 lines; "
        "q=49 at degree 1 has 6002500\n"
    )


def test_cli_valuation_axioms_q49_exits_two_at_once(capsys):
    import time

    t0 = time.monotonic()
    assert cli.main(["valuation-axioms", "--q", "49", "--seed", "1"]) == 2
    assert time.monotonic() - t0 < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "flagval: SizeBound: the valuation subspace catalog supports q <= 13\n"

    t0 = time.monotonic()
    assert cli.main(["weil-inertia", "--q", "49"]) == 2
    assert time.monotonic() - t0 < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "flagval: SizeBound: the inertia arena holds at most 285 generators; "
        "q=49 at degree 3 has 40425\n"
    )


# -- command line front end ----------------------------------------------


def test_cli_success_and_out(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = cli.main(["lemma-p2", "--suite", "lemma-p2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert out.read_text() == captured.out
    rep = json.loads(captured.out)
    assert rep["suite"] == "lemma-p2"
    assert rep["violations"] == 0
    assert "[lemma-p2]" in captured.err and "ms" in captured.err


def test_cli_violations_exit_one(capsys):
    code = cli.main(["prop-flag-map", "--mode", "exhaustive"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rep["violations"] == 168


@pytest.mark.parametrize("q", ["4", "9"])
def test_flag_classify_refuses_past_the_census_window(capsys, q):
    # 21 and 91 points: refused from the point count, exit status 2
    assert cli.main(["flag-classify", "--q", q]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "SizeBound" in captured.err and "beyond the census window" in captured.err


def test_cli_error_exits(capsys):
    assert cli.main(["no-such-suite"]) == 2
    assert "UnknownSuite" in capsys.readouterr().err
    assert cli.main(["ktheory"]) == 2  # sampled mode needs a seed
    assert "InvalidConfig" in capsys.readouterr().err
    assert cli.main(["lemma-p2", "--suite", "flag-classify"]) == 2
    assert "conflicting" in capsys.readouterr().err
    assert cli.main([]) == 2
    capsys.readouterr()
    assert cli.main(["flag-classify", "--psi", "curve:x"]) == 2
    assert "from-valuation" in capsys.readouterr().err
    assert cli.main(["flag-classify", "--source", "Q(x,y)"]) == 2
    capsys.readouterr()
    assert cli.main(["reconstruct", "--source", "F3(t,u)"]) == 2
    capsys.readouterr()
    assert cli.main(["reconstruct", "--q", "5", "--source", "F3(x,y)"]) == 2
    capsys.readouterr()
    assert cli.main(["reconstruct", "--place", "curve:x", "--psi", "from-valuation:curve:y"]) == 2
    assert "conflicting place specs" in capsys.readouterr().err
    # int() refuses a string of more than 4,300 digits with a ValueError
    assert cli.main(["reconstruct", "--source", "F" + "9" * 5000 + "(x,y)"]) == 2
    assert capsys.readouterr().err == "flagval: InvalidConfig: source field size too large (5000 digits)\n"


def test_cli_report_flag_wrong_suite(tmp_path, capsys, monkeypatch):
    path = tmp_path / "inner.json"

    def must_not_run(cfg):
        raise AssertionError("the suite ran before --report was rejected")

    monkeypatch.setattr(cli, "run_suite", must_not_run)
    code = cli.main(["flag-classify", "--report", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "round-trip suite" in captured.err
    assert not path.exists()
    assert captured.out == ""
    # the alias of the round-trip suite passes the check and fails later
    code = cli.main(["reconstruct", "--report", str(path), "--q", "5", "--source", "F3(x,y)"])
    assert code == 2
    assert "conflicting field sizes" in capsys.readouterr().err


def test_cli_unwritable_out_exits_three(tmp_path, capsys):
    out = tmp_path / "missing" / "rep.json"
    code = cli.main(["lemma-p2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "Traceback" in captured.err
    assert captured.err.splitlines()[-1].startswith("flagval: error: FileNotFoundError")
    assert not out.parent.exists()


def test_cli_out_written_atomically(tmp_path, capsys):
    out = tmp_path / "rep.json"
    out.write_text("old bytes\n")
    assert cli.main(["lemma-p2", "--out", str(out)]) == 0
    assert out.read_text() == capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rep.json"]


def test_cli_internal_error_exits_three(capsys, monkeypatch):
    def broken(cfg):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "run_suite", broken)
    assert cli.main(["lemma-p2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "flagval: error: KeyError: 'boom'"


_FUZZ_CHECKS = ["all", "steinberg", "reciprocity", "worked", "nonsense", ""]


@settings(max_examples=40, deadline=None)
@given(
    suite=st.sampled_from(["ktheory", "valuation-axioms"]),
    q=st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 6, 49, 64]),
    samples=st.integers(-1, 4),
    seed=st.integers(0, 2**20),
    check=st.one_of(st.sampled_from(_FUZZ_CHECKS), st.text(max_size=6)),
)
def test_cli_fuzz_ends_in_a_verdict_or_a_refusal(suite, q, samples, seed, check):
    # every drawn argument list ends in exit 0/1 with a report whose
    # violations match the status, or in exit 2 with a one-line error;
    # exit 3 (a traceback) is a bug
    argv = [suite, f"--q={q}", f"--samples={samples}", f"--seed={seed}", f"--check={check}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("flagval: "), (argv, lines)
    else:
        rep = json.loads(out.getvalue())
        assert rep["config"]["q"] == q
        assert (rep["violations"] == 0) == (code == 0)


def _verdict_or_refusal(argv):
    """The contract of the fuzz above on one argument list; returns the
    report, or None for a refusal."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("flagval: "), (argv, lines)
        return None
    rep = json.loads(out.getvalue())
    assert (rep["violations"] == 0) == (code == 0)
    return rep


# graph, non-graph, reducible, constant, empty and non-curve place specs
_FUZZ_PLACES = [
    "curve:x",
    "curve:x^2+y",
    "curve:y^2+x+1",
    "curve:x^2+x*y+y^2+1",
    "curve:x*y",
    "curve:x^2+y^2",
    "curve:1",
    "curve:",
    "finite:x",
    "finite:t",
    "composite:x|y",
    "infinite",
]
_FUZZ_SOURCES = ["0", "1", "2", "6", "49", "64", "9" * 5000]


def _roundtrip_argv(n, place):
    return ["reconstruct", f"--source=F{n}(x,y)", f"--place={place}", "--arena-deg", "1", "--samples", "2"]


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from(_FUZZ_SOURCES), place=st.sampled_from(_FUZZ_PLACES))
def test_cli_fuzz_roundtrip_arguments(n, place):
    # the same contract on the round trip's --source and --place texts
    rep = _verdict_or_refusal(_roundtrip_argv(n, place))
    if rep is not None:
        assert rep["config"]["q"] == int(n) and rep["config"]["place"] == place


def test_cli_roundtrip_every_place_spec_over_f2():
    # the field where every spec reaches the suite: all of them, not a draw
    verdicts = [_verdict_or_refusal(_roundtrip_argv(2, place)) for place in _FUZZ_PLACES]
    assert [place for place, rep in zip(_FUZZ_PLACES, verdicts) if rep] == _FUZZ_PLACES[:3]


def test_non_flag_suites_do_not_import_numpy():
    # numpy is imported only by the bulk flag kernels and the sampled
    # flag modes, so a cold start that runs no flag sweep never pays for it
    script = (
        "import sys\n"
        "import flagval.suites as suites\n"
        "suites.run_suite(suites.SuiteConfig(suite='ktheory', q=3, samples=20, seed=1))\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
