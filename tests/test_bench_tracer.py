"""The benchmark's span tracer still installs over the current code.

bench/tracer.py rebinds each traced function in module globals and in
module-level dicts and lists, and refuses to run when another object
still holds an original.  A renamed function or a suite function held
in some other structure therefore breaks only the traced benchmark
run; this test catches it on a cold import in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json
import flagval.suites as suites
import tracer
from workloads import DISTINCT, LAYERS

t = tracer.install(LAYERS, DISTINCT)
suites.run_suite(suites.SuiteConfig(suite="lemma-p2"))
print(json.dumps({name: calls for name, (calls, _) in t.stats.items()}))
"""


def test_tracer_installs_on_cold_import():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave bench/ as it is
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    calls = json.loads(done.stdout.splitlines()[-1])
    # the suite table's entry was rebound to the traced wrapper
    assert calls["suites.run_suite"] == 1
    assert calls["suites._suite_lemma_p2"] == 1
    assert calls["flagkit.sweep_decomposition_lemma"] == 1
