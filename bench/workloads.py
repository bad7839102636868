"""Workload table and traced-function table of the flagval benchmark.

A workload is a fixed list of suite calls run in one fresh process.
Sampled calls take the benchmark's seed; the rest are the same for
every seed.  Each call names whether the claim it checks holds: a call
that holds must report zero violations, a known-red call must report
some.  A violation verdict is a correct output, not a failure.
"""

from __future__ import annotations

SEED_LIMIT = 2**63  # flagval rejects seeds outside [0, 2**63)


def _call(suite: str, holds: bool = True, **cfg) -> dict:
    return {"suite": suite, "holds": holds, "cfg": cfg}


# Each entry: (why, calls).  "seed" in a cfg is replaced by the run's seed.
WORKLOADS = {
    "flags": (
        "flag kernels over P^n(F_q) only (flagkit, projspace, numpy); no poly or fields work",
        [
            _call("flag-classify", q=3),
            _call("prop-flag-map", holds=False, q=2, mode="exhaustive"),
            _call("prop-flag-map", q=3, mode="sampled", samples=100_000, seed=None),
            _call("prop-flag-map", holds=False, q=2, mode="sampled", samples=100_000, seed=None),
            _call("lemma-p2", q=2),
            _call("collineation", p=2, mode="exhaustive"),
            _call("collineation", p=3, mode="exhaustive"),
        ],
    ),
    "roundtrip": (
        "bivariate arena and three round trips sharing it: heavy reuse of factor and to_divisor inputs",
        [
            _call("reconstruct-roundtrip", q=2, arena_deg=2, place=place, samples=50)
            for place in ("curve:x^2+y", "curve:y^2+x", "curve:x^2+x+y")
        ],
    ),
    "small-field": (
        "univariate work over prime fields (valuations, milnork, weil) on inputs that repeat",
        [
            _call("valuation-axioms", q=3, samples=1000, seed=None),
            _call("valuation-axioms", q=5, samples=1000, seed=None),
            _call("ktheory", q=3, samples=500, seed=None),
            _call("weil-inertia", q=3, arena_deg=3),
            _call("c-pairs", q=3),
        ],
    ),
    "large-field": (
        "the same poly and fields layers over GF(49) on mostly fresh inputs, so caches miss",
        [
            _call("ktheory", q=49, samples=400, seed=None),
        ],
    ),
}


def calls_for(workload: str, seed: int) -> list[dict]:
    """The workload's calls with the seed filled in, each with a stable label."""
    out = []
    for c in WORKLOADS[workload][1]:
        cfg = dict(c["cfg"], suite=c["suite"])
        seeded = "seed" in cfg
        if seeded:
            cfg["seed"] = seed % SEED_LIMIT
        label = " ".join([c["suite"]] + [f"{k}={v}" for k, v in c["cfg"].items() if k != "seed"])
        out.append({"label": label, "cfg": cfg, "holds": c["holds"], "seeded": seeded})
    return out


# Traced public functions per module.  Each is wrapped in the traced
# child process and reports <module>.<name>.calls and .self_s; the ones
# in DISTINCT also report .distinct, the share of calls whose input was
# new.  Each function maps to its home: a workload that must call it at
# least once, so a binding the wrapper missed cannot read as zero time.
# flagval.ff is not traced: its ops run millions of times and a wrapper
# there would mostly measure itself; GF(q) cost shows as self time in
# poly.
LAYERS = {
    "poly": {
        "factor_univariate": "small-field",
        "factor_bivariate": "roundtrip",
        "divide_exact": "roundtrip",
        "divmod_univariate": "small-field",
        "gcd_univariate": "small-field",
        "monic_irreducibles": "small-field",
        "irreducible_canonicals_bivariate": "roundtrip",
    },
    "fields": {
        "RationalFn.__init__": "roundtrip",
        "to_divisor": "roundtrip",
        "from_divisor": "roundtrip",
        "algebraically_dependent": "roundtrip",
    },
    "fqlin": {
        "nullspace": "roundtrip",
        "rank": "roundtrip",
    },
    "intlin": {
        "hermite_normal_form": "small-field",
        "smith_normal_form": "roundtrip",
        "RowLattice.add": "roundtrip",
        "RowLattice.quotient": "roundtrip",
    },
    "projspace": {
        "geometry": "flags",
        "EmbeddedSubspace.__init__": "roundtrip",
    },
    "flagkit": {
        "classify_flag_subsets": "flags",
        "is_flag_subset": "flags",
        "prop_equivalence_exhaustive_q2": "flags",
        "prop_equivalence_random": "flags",
        "sweep_decomposition_lemma": "flags",
        "collineation_analyze": "flags",
    },
    "valuations": {
        "FinitePlace.__init__": "small-field",
        "degree_sum": "small-field",
        "ultrametric_ok": "small-field",
        "valuation_flag_structure": "small-field",
    },
    "milnork": {
        "steinberg_check": "small-field",
        "weil_reciprocity_check": "small-field",
        "tame_symbol": "large-field",
    },
    "weil": {
        "solve_inertia": "small-field",
        "c_pair_test": "small-field",
        "find_supporting_valuation": "small-field",
    },
    "reconstruct": {
        "Arena.__init__": "roundtrip",
        "extract_valuation": "roundtrip",
        "decompose_subspace": "roundtrip",
        "build_u": "roundtrip",
        "verify_theorem_conclusions": "roundtrip",
    },
    "suites": {
        "run_suite": "flags",
        "_suite_flag_classify": "flags",
        "_suite_prop_flag_map": "flags",
        "_suite_lemma_p2": "flags",
        "_suite_collineation": "flags",
        "_suite_valuation_axioms": "small-field",
        "_suite_weil_inertia": "small-field",
        "_suite_c_pairs": "small-field",
        "_suite_ktheory": "large-field",
        "_suite_reconstruct": "roundtrip",
    },
}

DISTINCT = {"poly.factor_univariate", "poly.factor_bivariate", "fields.to_divisor", "fields.algebraically_dependent"}


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in table order."""
    names = []
    for module, fns in LAYERS.items():
        for fn in fns:
            base = f"{module}.{fn}"
            names += [f"{base}.calls", f"{base}.self_s"]
            if base in DISTINCT:
                names.append(f"{base}.distinct")
            if base == "fqlin.nullspace":
                names.append(f"{base}.cells")
    return names + ["trace.overhead_s"]
