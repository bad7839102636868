"""Shared fixtures and test-only oracles.

The degree-2 bivariate arena over F_3 is the most expensive fixture
(about two seconds to build on a 2-core box), so it is constructed
once per session through the same cache the check suites use; every
extraction test and the acceptance round trips then share one instance.

The oracles below are routes no suite takes, kept here for the tests
that compare against them.  The work-count ratchets install their
counters with `count_calls` and run again in fresh interpreters
through `assert_counts_under_hash_seeds`.  Test modules import these
from `conftest`.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flagval.ff import FiniteField


@pytest.fixture(scope="session")
def F2():
    return FiniteField(2)


@pytest.fixture(scope="session")
def F3():
    return FiniteField(3)


@pytest.fixture(scope="session")
def F5():
    return FiniteField(5)


@pytest.fixture(scope="session")
def arena3():
    from flagval.suites import _arena

    return _arena(FiniteField(3), ("x", "y"), 2)


@pytest.fixture(scope="session")
def small_arena3():
    from flagval.reconstruct import Arena

    return Arena(FiniteField(3), ("x", "y"), gen_degree=1)


def evaluate(p, point):
    """The value of the Poly p at a point of F_q^n, term by term."""
    F = p.field
    total = 0
    for exp, c in p.coeffs.items():
        for x, e in zip(point, exp):
            if e:
                c = F.mul(c, F.pow(x, e))
        total = F.add(total, c)
    return total


def substitute(p, images):
    """p with each variable replaced by a Poly from images; every image
    lives in one domain."""
    from flagval.poly import Poly

    some = next(iter(images.values()))
    out = Poly.zero(some.field, some.vars)
    for exp, c in p.coeffs.items():
        term = Poly.constant(some.field, some.vars, c)
        for v, e in zip(p.vars, exp):
            if e:
                term = term * (images[v] ** e)
        out = out + term
    return out


def bivariate_polys(F, max_deg):
    """Every nonzero polynomial in x, y of total degree <= max_deg over F."""
    from flagval.poly import Poly

    monos = [e for e in itertools.product(range(max_deg + 1), repeat=2) if sum(e) <= max_deg]
    return [Poly(F, ("x", "y"), dict(zip(monos, c))) for c in itertools.product(range(F.q), repeat=len(monos)) if any(c)]


def reduce_poly(ring, p):
    """The class of the univariate Poly p in the QuotientRing ring."""
    return ring._reduce(p.to_dense())


def unit_residue(place, f):
    """(v, r) at a place of F_q(t): the value v of the nonzero f and the
    residue r of its unit part, the quotient of the residues that
    `_split` takes off f's numerator and denominator."""
    num, den = f.dense_parts()
    a, rn = place._split(num)
    b, rd = place._split(den)
    ring = place.ring
    return a - b, ring.mul(rn, ring.inv(rd))


def flagval_bindings(owner, name: str) -> list:
    """(module, name) for every loaded flagval module that binds name to
    the object owner binds it to."""
    fn = getattr(owner, name)
    return [(m, name) for key, m in sorted(sys.modules.items()) if key.startswith("flagval.") and vars(m).get(name) is fn]


def count_calls(patch, bindings: dict) -> dict:
    """Call counters for the work-count ratchets.  For each key, every
    (owner, name) binding it lists is replaced, through patch(owner,
    name, wrapper), by a wrapper that adds one to counts[key] and calls
    the function bound there; bindings under one key add to one count.
    Returns counts, which the wrappers keep filling."""
    counts = dict.fromkeys(bindings, 0)
    for key, pairs in bindings.items():
        for owner, name in pairs:

            def wrapper(*args, fn=getattr(owner, name), key=key):
                counts[key] += 1
                return fn(*args)

            patch(owner, name, wrapper)
    return counts


_WORK_SCRIPT = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
module, counter = sys.argv[2].split(":")
print(json.dumps(getattr(importlib.import_module(module), counter)(setattr)))
"""


def assert_counts_under_hash_seeds(counter, want):
    """Run a work counter, "test_module:function" called with setattr as
    its patch, in a fresh interpreter under string-hash seeds 0, 1 and 2;
    every run must return want."""
    tests = Path(__file__).resolve().parent
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"), PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", _WORK_SCRIPT, str(tests), counter], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == want, seed
