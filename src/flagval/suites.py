"""Named check suites with byte-deterministic JSON reports.

Each suite bundles one family of checks behind a common report shape so
results can be archived and diffed.  Report fields appear in a fixed
order: suite, config, cases_total, passes, violations, witnesses,
elapsed_ms, version.  Reports carry exact integers and strings only;
elapsed_ms is always null in the artifact (wall time goes to stderr),
so reruns with the same config and seed produce identical bytes.

violations is a count; witnesses holds the per-suite evidence, with
unbounded lists capped at a small fixed size.  A process exit status of
0 must correspond to violations == 0.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import asdict, dataclass, replace
from functools import lru_cache

from . import flagkit
from .errors import InvalidConfig, SizeBound, UnknownSuite
from .ff import FiniteField
from .fields import RationalFn
from .intlin import kernel_basis
from .milnork import steinberg_check, support_places, tame_symbol, weil_reciprocity_check
from .poly import Poly, monic_irreducibles
from .reconstruct import Arena, build_psi_from_valuation, extract_valuation, verify_theorem_conclusions
from .valuations import (
    CompositePlace,
    DivisorialCurve,
    FinitePlace,
    InfinitePlace,
    degree_sum,
    parse_place,
    place_of,
    serialize_place,
    ultrametric_ok,
    valuation_flag_structure,
)
from .weil import WeilElement, c_pair_test, find_supporting_valuation, is_inertia, solve_inertia
from .weil import value_matrix

REPORT_VERSION = 1
WITNESS_CAP = 5
SAMPLE_CAP = 2_000_000

# name -> suite function; each function carries its allowed modes (the
# first is the default), the knobs it reads and its default sample count
# as attributes, so a wrapper made with functools.update_wrapper keeps them
SUITES: dict = {}

# the SuiteConfig fields a suite may read besides its mode
KNOBS = ("q", "p", "seed", "arena_deg", "samples", "check", "place")


def _suite(name: str, modes: tuple[str, ...], knobs: tuple[str, ...], samples: int | None = None):
    """Register a suite with the knobs it reads; any other knob that is
    set is refused.  Suites that draw randomness must be given a seed in
    sampled mode; samples is the default count for every mode."""

    def register(fn):
        fn.modes = modes
        fn.knobs = knobs
        fn.default_samples = samples
        SUITES[name] = fn
        return fn

    return register


_ALIASES = {"reconstruct": "reconstruct-roundtrip"}


@dataclass(frozen=True)
class SuiteConfig:
    """Resolved run parameters; unset knobs stay None in the echo."""

    suite: str
    q: int | None = None
    p: int | None = None
    mode: str | None = None
    seed: int | None = None
    arena_deg: int | None = None
    samples: int | None = None
    check: str | None = None
    place: str | None = None

    def echo(self) -> dict:
        return asdict(self)


def suite_name(name: str) -> str:
    """The registered name behind a suite name or alias."""
    return _ALIASES.get(name, name)


def _resolve(cfg: SuiteConfig) -> SuiteConfig:
    suite = suite_name(cfg.suite)
    fn = SUITES.get(suite)
    if fn is None:
        raise UnknownSuite(f"no suite named {cfg.suite!r}")
    mode = cfg.mode or fn.modes[0]
    if mode not in fn.modes:
        raise InvalidConfig(f"suite {suite!r} supports modes {fn.modes}, got {mode!r}")
    unread = [k for k in KNOBS if k not in fn.knobs and getattr(cfg, k) is not None]
    if unread:
        raise InvalidConfig(f"suite {suite!r} takes {_flags(fn.knobs)}, not {_flags(unread)}")
    # a zero would read as unset in the suites' `cfg.q or 3` defaults,
    # and no mode runs on fewer than one sample
    for knob in ("q", "p", "arena_deg", "samples"):
        value = getattr(cfg, knob)
        if value is not None and value < 1:
            raise InvalidConfig(f"{knob} must be positive, got {value}")
    samples = cfg.samples if cfg.samples is not None else fn.default_samples
    if mode == "sampled":
        if cfg.seed is None:
            raise InvalidConfig("sampled mode requires an explicit seed")
        if samples > SAMPLE_CAP:
            raise SizeBound(f"samples capped at {SAMPLE_CAP}")
    cfg = replace(cfg, suite=suite, mode=mode, samples=samples)
    if cfg.seed is not None and not 0 <= cfg.seed < 2**63:
        raise InvalidConfig("seed must fit in 63 bits")
    return cfg


def _flags(knobs) -> str:
    return ", ".join("--" + k.replace("_", "-") for k in knobs)


# -- deterministic random elements --------------------------------------


def _random_rational(rng, field: FiniteField, var: str, max_deg: int = 2) -> RationalFn:
    """n/d from two dense draws of max_deg + 1 field codes, numerator
    first, each drawn again while it is all zero.  rng is the stdlib
    Mersenne generator of the config's seed, stable across platforms."""
    parts = []
    for _ in range(2):
        dense = [0]
        while not any(dense):
            dense = [rng.randrange(field.q) for _ in range(max_deg + 1)]
        parts.append(dense)
    return RationalFn._of_dense(field, var, *parts)


# -- individual suites ---------------------------------------------------


@_suite("flag-classify", ("exhaustive",), ("q",))
def _suite_flag_classify(cfg: SuiteConfig) -> dict:
    q = cfg.q or 2
    census = flagkit.classify_flag_subsets(q)
    # one subset table row per subset: all but the empty and the full one
    cases = len(flagkit.subset_table(2, q).flag) - 2
    violations = len(census.mismatches)
    return {
        "cases_total": cases,
        "violations": violations,
        "witnesses": {
            "family_counts": dict(census.counts),
            "flag_total": census.total,
            "mismatches": [list(m) for m in census.mismatches[:WITNESS_CAP]],
        },
    }


@_suite("prop-flag-map", ("exhaustive", "sampled"), ("q", "seed", "samples"), samples=10_000)
def _suite_prop_flag_map(cfg: SuiteConfig) -> dict:
    if cfg.mode == "exhaustive":
        q = cfg.q or 2
        if q != 2:
            raise SizeBound("the exhaustive map sweep is sized for q = 2")
        r = flagkit.prop_equivalence_exhaustive_q2()
    else:
        q = cfg.q or 3
        if q == 3:
            dim = 2
        elif q == 2:
            dim = 3
        else:
            raise InvalidConfig("sampled map sweep runs on P^2(F_3) (q=3) or P^3(F_2) (q=2)")
        r = flagkit.prop_equivalence_random(dim, q, cfg.samples, cfg.seed)
    return {
        "cases_total": r["cases_total"],
        "violations": r["mismatches"],
        "witnesses": {
            "line_ok": r["line_ok"],
            "chain_flag": r["chain_flag"],
            "direction_line_only": r["mismatch_direction_line_only"],
            "direction_chain_only": r["mismatch_direction_chain_only"],
            "value_maps": r["witnesses"][:WITNESS_CAP],
        },
    }


@_suite("lemma-p2", ("exhaustive",), ("q",))
def _suite_lemma_p2(cfg: SuiteConfig) -> dict:
    q = cfg.q or 2
    r = flagkit.sweep_decomposition_lemma(q)
    return {
        "cases_total": r["cases_total"],
        "violations": len(r["counterexample_candidates"]),
        "witnesses": {
            "hypothesis_held": r["hypothesis_held"],
            "holds": r["holds"],
            "strict_gap": r["strict_gap"],
            "counterexample_candidates": r["counterexample_candidates"][:WITNESS_CAP],
        },
    }


@_suite("collineation", ("exhaustive", "sampled"), ("p", "seed", "samples"), samples=10_000)
def _suite_collineation(cfg: SuiteConfig) -> dict:
    p = cfg.p or 3
    rep = flagkit.collineation_analyze(
        p, mode=cfg.mode, samples=cfg.samples or 0, seed=cfg.seed
    )
    violations = len(rep.image_size_violations)
    if p != 2:
        violations += len(rep.flag_combo_violations)
    return {
        "cases_total": rep.maps_examined,
        "violations": violations,
        "witnesses": {
            "star_maps": rep.star_maps,
            "max_image_size": rep.max_image_size,
            "image_size_counts": {str(k): rep.image_size_counts[k] for k in sorted(rep.image_size_counts)},
            "image_size_violations": rep.image_size_violations[:WITNESS_CAP],
            "flag_combo_violations": rep.flag_combo_violations[:WITNESS_CAP],
            "model_failure": {
                "exhibited": rep.non_flag_star_maps > 0,
                "count": rep.non_flag_star_maps,
                "first_map": rep.first_non_flag_star,
                "no_flag_combo_maps": rep.no_flag_combo_maps,
            },
        },
    }


def _axiom_places(field: FiniteField):
    # t, t+1 and the first quadratic, shared with degree_sum by place_of
    irr = monic_irreducibles(field.q, "t", 2)
    return [place_of(irr[0]), place_of(irr[1]), place_of(irr[field.q]), InfinitePlace(field, "t")]


@_suite("valuation-axioms", ("sampled",), ("q", "seed", "samples"), samples=10_000)
def _suite_valuation_axioms(cfg: SuiteConfig) -> dict:
    q = cfg.q or 3
    if q > 13:
        # the degree-2 subspace catalog grows as about q^5
        raise SizeBound("the valuation subspace catalog supports q <= 13")
    field = FiniteField(q)
    places = _axiom_places(field)
    rng = random.Random(cfg.seed)
    ultra_bad = 0
    deg_bad = 0
    ultra_fail: list[str] = []
    degsum_fail: list[str] = []
    for _ in range(cfg.samples):
        f = _random_rational(rng, field, "t")
        g = _random_rational(rng, field, "t")
        for place, ok in zip(places, ultrametric_ok(places, f, g)):
            if ok is False:
                ultra_bad += 1
                if len(ultra_fail) < WITNESS_CAP:
                    ultra_fail.append(f"{serialize_place(place)}: {f} , {g}")
        if not (degree_sum(f) == 0 and degree_sum(g) == 0 and degree_sum(f, g) == 0):
            deg_bad += 1
            if len(degsum_fail) < WITNESS_CAP:
                degsum_fail.append(f"{f} , {g}")

    # the whole subspace catalog must look like a flag map to every place
    arena = _arena(field, ("t",), 2)
    catalog = list(arena.lines) + list(arena.planes)
    flag_checks = 0
    flag_bad = 0
    first_non_flag = None
    for place in places:
        for S in catalog:
            flag_checks += 1
            v = valuation_flag_structure(place, S)
            if not v.is_flag:
                flag_bad += 1
                if first_non_flag is None:
                    # functions[0] is the point (0:..:0:1), the last
                    # generator: g for a line l(1, g), t^2 for the plane
                    first_non_flag = f"{serialize_place(place)} on {S.functions[0]}"
    return {
        "cases_total": cfg.samples + flag_checks,
        "violations": ultra_bad + deg_bad + flag_bad,
        "witnesses": {
            "places": [serialize_place(p) for p in places],
            "ultrametric_failures": ultra_fail,
            "degree_sum_failures": degsum_fail,
            "flag_catalog": {
                "subspaces": len(catalog),
                "checks": flag_checks,
                "non_flag": flag_bad,
                "first_non_flag": first_non_flag,
            },
        },
    }


# the inertia solves cost about the cube of the generator count; 285
# generators is q = 9 at degree 3
INERTIA_GENERATOR_CAP = 285


def _irreducible_count(q: int, deg: int) -> int:
    """Number of monic irreducibles of degree 1..deg over F_q, deg <= 3:
    Gauss's formula gives q, (q^2 - q)/2 and (q^3 - q)/3 per degree."""
    return sum((q, (q * q - q) // 2, (q**3 - q) // 3)[:deg])


@_suite("weil-inertia", ("exhaustive",), ("q", "arena_deg"))
def _suite_weil_inertia(cfg: SuiteConfig) -> dict:
    q = cfg.q or 3
    field = FiniteField(q)
    deg = cfg.arena_deg or 3
    if deg > 3:
        raise SizeBound("inertia arena is sized for generator degree <= 3")
    n = _irreducible_count(q, deg)
    if n > INERTIA_GENERATOR_CAP:
        raise SizeBound(
            f"the inertia arena holds at most {INERTIA_GENERATOR_CAP} generators; "
            f"q={q} at degree {deg} has {n}"
        )
    irr = monic_irreducibles(field.q, "t", deg)
    gens = [RationalFn.from_poly(p) for p in irr]
    places = [FinitePlace(p) for p in irr] + [InfinitePlace(field, "t")]
    bad: list[str] = []
    for place in places:
        values = value_matrix(place, gens)
        units = kernel_basis(values)
        rows = solve_inertia(units, len(gens))
        vv = [v for (v,) in values]
        exact = len(rows) == 1 and (rows[0] == vv or rows[0] == [-x for x in vv])
        if not (exact and is_inertia(vv, units)):
            bad.append(serialize_place(place))
    return {
        "cases_total": len(places),
        "violations": len(bad),
        "witnesses": {
            "generators": len(gens),
            "places": [serialize_place(p) for p in places],
            "failures": bad[:WITNESS_CAP],
        },
    }


@_suite("c-pairs", ("exhaustive",), ("q",))
def _suite_c_pairs(cfg: SuiteConfig) -> dict:
    q = cfg.q or 3
    field = FiniteField(q)
    vars2 = ("x", "y")
    x = RationalFn.parse(field, "x", vars2)
    y = RationalFn.parse(field, "y", vars2)
    curve_x = DivisorialCurve(Poly.parse(field, "x", vars2))
    curve_y = DivisorialCurve(Poly.parse(field, "y", vars2))
    gamma = WeilElement(curve_x)
    gamma_p = WeilElement(curve_y)

    failures: list[str] = []
    # 1. the independent pair is refuted on the ratio subfield
    v1 = c_pair_test(gamma, gamma_p, [x / y])
    if v1.cyclic or v1.witness is None:
        failures.append("independent pair was not refuted")
    refutation = {
        "cyclic": v1.cyclic,
        "witness": list(v1.witness) if v1.witness else None,
    }

    # 2. the two components of one composite place pass a five-subfield family
    comp = _composite(field)
    g1 = WeilElement(comp, (1, 0))
    g2 = WeilElement(comp, (0, 1))
    family = [x, y, x + y, x * y, x / y]
    v2 = c_pair_test(g1, g2, family)
    if not v2.cyclic:
        failures.append("composite pair failed the subfield family")
    composite = {"cyclic": v2.cyclic, "family": [str(h) for h in family]}

    # 3. the supporting valuation of the refuted pair is found by search
    gens = [x, y, x + 1, y + 1, x + y]
    universe = [DivisorialCurve(Poly.parse(field, "x+y", vars2)), curve_x, curve_y]
    hit = find_supporting_valuation(gamma, gamma_p, universe, gens)
    support = None
    if hit is None:
        failures.append("no supporting valuation found")
    else:
        place, combo = hit
        support = {"place": serialize_place(place), "combination": list(combo)}
        if serialize_place(place) != "curve:x" or combo[1] != 0:
            failures.append(f"support search returned {support}")
    return {
        "cases_total": 3,
        "violations": len(failures),
        "witnesses": {
            "refutation": refutation,
            "composite": composite,
            "support": support,
            "failures": failures,
        },
    }


def _composite(field: FiniteField):
    curve = DivisorialCurve(Poly.parse(field, "x", ("x", "y")))
    point = FinitePlace(Poly.parse(field, curve.residue_var, (curve.residue_var,)))
    return CompositePlace(curve, point)


@_suite("ktheory", ("sampled",), ("q", "seed", "samples", "check"), samples=1_000)
def _suite_ktheory(cfg: SuiteConfig) -> dict:
    q = cfg.q or 3
    field = FiniteField(q)
    check = cfg.check or "all"
    if check not in ("all", "steinberg", "reciprocity", "worked"):
        raise InvalidConfig(f"unknown ktheory check {check!r}")
    rng = random.Random(cfg.seed)
    cases = 0
    failures: list[str] = []

    steinberg_n = 0
    if check in ("all", "steinberg"):
        while steinberg_n < cfg.samples:
            f = _random_rational(rng, field, "t")
            if not (f - 1):
                continue
            steinberg_n += 1
            cases += 1
            if not steinberg_check(f):
                failures.append(f"steinberg: {f}")

    reciprocity_n = 0
    if check in ("all", "reciprocity"):
        want = cfg.samples if check == "reciprocity" else cfg.samples // 2
        while reciprocity_n < want:
            f = _random_rational(rng, field, "t")
            g = _random_rational(rng, field, "t")
            reciprocity_n += 1
            cases += 1
            if not weil_reciprocity_check(f, g):
                failures.append(f"reciprocity: {f} , {g}")

    worked = None
    if check in ("all", "worked"):
        cases += 1
        t = RationalFn.parse(field, "t", ("t",))
        t1 = t - 1
        places = support_places(t, t1)
        residues = [tame_symbol(t, t1, pl) for pl in places]
        product = 1
        for pl, r in zip(places, residues):
            product = field.mul(product, pl.ring.norm(r))
        worked = {
            "entries": [str(t), str(t1)],
            "support": [serialize_place(pl) for pl in places],
            "residues": [r if isinstance(r, int) else str(r) for r in residues],
            "norm_product": product,
        }
        if product != 1:
            failures.append("worked reciprocity product is not 1")
    return {
        "cases_total": cases,
        "violations": len(failures),
        "witnesses": {
            "steinberg_samples": steinberg_n,
            "reciprocity_samples": reciprocity_n,
            "worked": worked,
            "failures": failures[:WITNESS_CAP],
        },
    }


# the round trip costs more than linearly in the arena's lines, and
# more per line over a larger field; 8,100 lines is q = 9 at degree 1
ROUNDTRIP_LINE_CAP = 8_100


def _arena_line_count(q: int, deg: int) -> int:
    """Lines of the two-variable arena of degree deg <= 2 over F_q: l(1, g)
    for each of the N generators and l(1, g/h) for each linear h other
    than g, so N * (L + 1) - L.  The L = q^2 + q lines of the plane are
    the linear generators; a degree-2 generator is a conic up to scalars,
    (q^2 + q + 1) q^3 of them, less the L (L + 1) / 2 products of two
    lines."""
    lin = q * q + q
    n = lin if deg == 1 else lin + (q * q + q + 1) * q**3 - lin * (lin + 1) // 2
    return n * (lin + 1) - lin


@lru_cache(maxsize=None)
def _arena(field: FiniteField, vars: tuple[str, ...], deg: int) -> Arena:
    """One arena per (field, vars, deg), built on first use and kept:
    criterion 09's three round trips share one build."""
    return Arena(field, vars, gen_degree=deg)


@_suite("reconstruct-roundtrip", ("exhaustive",), ("q", "arena_deg", "samples", "place"), samples=50)  # conclusion sample budget
def _suite_reconstruct(cfg: SuiteConfig) -> dict:
    q = cfg.q or 3
    field = FiniteField(q)
    deg = cfg.arena_deg or 2
    if deg not in (1, 2):
        raise InvalidConfig("the reconstruction arena supports generator degree 1 or 2")
    n = _arena_line_count(q, deg)
    if n > ROUNDTRIP_LINE_CAP:
        raise SizeBound(
            f"the round-trip arena holds at most {ROUNDTRIP_LINE_CAP} lines; "
            f"q={q} at degree {deg} has {n}"
        )
    place_text = cfg.place or "curve:x"
    vars2 = ("x", "y")
    place = parse_place(field, place_text, vars2)
    if not isinstance(place, DivisorialCurve):
        raise InvalidConfig("the round-trip suite reconstructs divisorial curve valuations")
    arena = _arena(field, vars2, deg)
    rvar = place.residue_var
    fresh = next(v for v in ("z", "w", "u") if v != rvar)
    psi = build_psi_from_valuation(place, {rvar: rvar}, field, (rvar, fresh))
    res = extract_valuation(psi, arena)
    failures: list[str] = []
    if res.verdict != "valuation":
        failures.append(f"verdict {res.verdict}")
    for name, ok in sorted(res.lemma_checks.items()):
        if not ok:
            failures.append(f"lemma check {name} failed")
    if res.gamma_rank != 1 or res.gamma_torsion:
        failures.append(f"value group rank {res.gamma_rank} torsion {list(res.gamma_torsion)}")
    conclusions = None
    if res.verdict == "valuation":
        conclusions = verify_theorem_conclusions(res, psi, arena, samples=cfg.samples)
        if not conclusions["all_passed"]:
            failures.append("conclusion checks failed")
    n_subspaces = len(arena.lines) + len(arena.planes)
    body = res.to_json_obj()
    body.pop("arena")
    if conclusions is not None:
        body["conclusion_checks"] = {
            "conclusion1": {k: conclusions["conclusion1"][k] for k in ("samples", "passes")},
            "conclusion2": {k: conclusions["conclusion2"][k] for k in ("samples", "passes")},
            "all_passed": conclusions["all_passed"],
        }
    return {
        "cases_total": n_subspaces,
        "violations": len(failures),
        "witnesses": {
            "place": place_text,
            "arena": arena.describe(),
            "report": body,
            "failures": failures,
        },
    }


def run_suite(cfg: SuiteConfig) -> dict:
    """Execute one suite and assemble the fixed-order report object."""
    cfg = _resolve(cfg)
    t0 = time.monotonic()
    body = SUITES[cfg.suite](cfg)
    elapsed = time.monotonic() - t0
    print(f"[{cfg.suite}] {elapsed * 1000:.0f} ms", file=sys.stderr)
    cases = body["cases_total"]
    violations = body["violations"]
    return {
        "suite": cfg.suite,
        "config": cfg.echo(),
        "cases_total": cases,
        "passes": cases - violations,
        "violations": violations,
        "witnesses": body["witnesses"],
        "elapsed_ms": None,
        "version": REPORT_VERSION,
    }


def render_report(report: dict) -> str:
    """Canonical bytes: fixed key order, two-space indent, newline end."""
    return json.dumps(report, indent=2) + "\n"
