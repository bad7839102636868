"""Named check suites: report shape, frozen results, CLI behavior."""

import json

import pytest

from flagval import cli, suites
from flagval.errors import InvalidConfig, SizeBound, UnknownSuite
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
