"""The benchmark's span tracer still installs over the current code.

bench/tracer.py rebinds each traced function in module globals and in
module-level dicts and lists, and refuses to run when another object
still holds an original.  A renamed function or a suite function held
in some other structure therefore breaks only the traced benchmark
run; this test catches it on a cold import in a fresh interpreter.

Each traced function must also still be called on its home workload.
A cache or a shortcut that stops a layer's function from being called
would make that layer read as zero time; the round-trip test below
catches it in tier-1 on one small round trip.
"""

import json
import os
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
suites.run_suite(suites.SuiteConfig(**json.loads(sys.argv[1])))
print(json.dumps({name: calls for name, (calls, _) in t.stats.items()}))
"""


def _traced_calls(cfg: dict) -> dict:
    """Calls per traced function for one suite run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave bench/ as it is
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(cfg)],
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


def test_roundtrip_reaches_its_home_functions():
    calls = _traced_calls(
        {"suite": "reconstruct-roundtrip", "q": 2, "place": "curve:x", "arena_deg": 1, "samples": 10}
    )
    for name in (
        "poly.factor_bivariate",
        "poly.divide_exact",
        "fields.RationalFn.__init__",
        "fields.to_divisor",
        "fqlin.nullspace",
    ):
        assert calls[name] > 0, name
