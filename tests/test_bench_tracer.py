"""The benchmark's span tracer still installs over the current code.

bench/tracer.py rebinds each traced function in module globals and in
module-level dicts and lists, and refuses to run when another object
still holds an original.  A renamed function or a suite function held
in some other structure therefore breaks only the traced benchmark
run; this test catches it on a cold import in a fresh interpreter.

Each traced function must also still be called on its home workload.
A cache or a shortcut that stops a layer's function from being called
would make that layer read as zero time; the tests below catch it in
tier-1 for every function whose home is `roundtrip`, on the first round
trip of that workload, and for every function whose home is `flags`,
`small-field` or `large-field`, on small configs of their suites.  The
round trip must still run the dependence search: on the q=2, degree-1
arena the degree rule of `reconstruct._related` decides every pair, so
`algebraically_dependent` and `fqlin.nullspace` would read zero there.
"""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
import flagval.suites as suites
import tracer
from workloads import DISTINCT, LAYERS

t = tracer.install(LAYERS, DISTINCT)
for cfg in json.loads(sys.argv[1]):
    suites.run_suite(suites.SuiteConfig(**cfg))
print(json.dumps({name: calls for name, (calls, _) in t.stats.items()}))
"""


def _traced_calls(*cfgs: dict) -> dict:
    """Calls per traced function for suite runs in one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave bench/ as it is
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(cfgs)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_tracer_installs_on_cold_import():
    calls = _traced_calls({"suite": "lemma-p2"})
    # the suite table's entry was rebound to the traced wrapper
    assert calls["suites.run_suite"] == 1
    assert calls["suites._suite_lemma_p2"] == 1
    assert calls["flagkit.sweep_decomposition_lemma"] == 1


def _homes(*workloads: str) -> list[str]:
    layers = runpy.run_path(str(ROOT / "bench" / "workloads.py"))["LAYERS"]
    return [f"{mod}.{fn}" for mod, fns in layers.items() for fn, home in fns.items() if home in workloads]


def test_roundtrip_reaches_its_home_functions():
    homes = _homes("roundtrip")
    assert homes
    calls = _traced_calls(
        {"suite": "reconstruct-roundtrip", "q": 2, "arena_deg": 2, "place": "curve:x^2+y", "samples": 50}
    )
    assert [name for name in homes if not calls[name]] == []


def test_flags_reaches_its_home_functions():
    homes = _homes("flags")
    assert "flagkit.is_flag_subset" in homes and "projspace.geometry" in homes
    calls = _traced_calls(
        {"suite": "flag-classify", "q": 2},
        {"suite": "prop-flag-map", "q": 2, "mode": "exhaustive"},
        {"suite": "prop-flag-map", "q": 3, "mode": "sampled", "samples": 50, "seed": 1},
        {"suite": "lemma-p2"},
        {"suite": "collineation", "p": 2},
    )
    assert [name for name in homes if not calls[name]] == []


def test_field_workloads_reach_their_home_functions():
    # the suites of `small-field` at small sample counts, and the q=49
    # ktheory of `large-field`
    homes = _homes("small-field", "large-field")
    assert "poly.gcd_univariate" in homes and "milnork.tame_symbol" in homes
    calls = _traced_calls(
        {"suite": "valuation-axioms", "q": 3, "samples": 10, "seed": 1},
        {"suite": "valuation-axioms", "q": 5, "samples": 10, "seed": 1},
        {"suite": "ktheory", "q": 3, "samples": 10, "seed": 1},
        {"suite": "weil-inertia", "q": 3, "arena_deg": 3},
        {"suite": "c-pairs", "q": 3},
        {"suite": "ktheory", "q": 49, "samples": 10, "seed": 1},
    )
    assert [name for name in homes if not calls[name]] == []
