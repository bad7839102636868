"""Command line front end for the check suites.

Usage:
    flagval SUITE [options]
    flagval --suite SUITE [options]

The report JSON goes to stdout (and to --out when given); wall-clock
timing goes to stderr so the artifact stays byte-deterministic.  Files
are written before stdout, each through a temporary file, so a failed
write leaves neither a partial file nor a printed report.  Exit status:
0 when the suite ran with zero violations, 1 when violations were
found, 2 for unknown suites, bad configuration, or size refusals, and 3
when the program itself failed (the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import traceback

from .errors import FlagvalError, InvalidConfig
from .suites import SuiteConfig, render_report, run_suite, suite_name

_SOURCE_RE = re.compile(r"^F(\d+)\((\w+(?:,\s*\w+)*)\)$")


def _parse_source(text: str) -> tuple[int, tuple[str, ...]]:
    m = _SOURCE_RE.match(text.strip())
    if not m:
        raise InvalidConfig(f"source must look like F3(x,y), got {text!r}")
    try:
        q = int(m.group(1))
    except ValueError:  # past Python's limit on digits in an int() string
        raise InvalidConfig(f"source field size too large ({len(m.group(1))} digits)") from None
    vars = tuple(v.strip() for v in m.group(2).split(","))
    return q, vars


def _parse_psi(text: str) -> str:
    """`from-valuation:<place spec>` -> the place spec."""
    head, _, rest = text.partition(":")
    if head != "from-valuation" or not rest:
        raise InvalidConfig(f"psi spec must look like from-valuation:curve:x, got {text!r}")
    return rest


def _write_atomic(path: str, text: str) -> None:
    """Write text to path through a temporary file in the same directory."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="flagval",
        description="run one named check suite and print its JSON report",
    )
    ap.add_argument("suite_pos", nargs="?", metavar="SUITE", help="suite name")
    ap.add_argument("--suite", help="suite name (alternative to the positional)")
    ap.add_argument("--q", type=int, help="field size for field-parameterized suites")
    ap.add_argument("--p", type=int, help="prime for the collineation sweep")
    ap.add_argument("--mode", choices=["exhaustive", "sampled"])
    ap.add_argument("--seed", type=int, help="PRNG seed; required in sampled mode")
    ap.add_argument("--arena-deg", type=int, dest="arena_deg", help="generator degree bound")
    ap.add_argument("--samples", type=int, help="sample count in sampled mode")
    ap.add_argument("--out", help="also write the report bytes to this path")
    ap.add_argument("--check", help="ktheory sub-check: steinberg | reciprocity | worked | all")
    ap.add_argument("--place", help="place spec for the round-trip suite, e.g. curve:x")
    ap.add_argument("--psi", help="map spec for the round-trip suite, e.g. from-valuation:curve:x")
    ap.add_argument("--source", help="source field spec for the round-trip suite, e.g. F3(x,y)")
    ap.add_argument("--report", help="write the inner reconstruction report to this path")
    return ap


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return _run(ns)
    except FlagvalError as e:
        print(f"flagval: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # a crash must not read as a verdict: exit 1 means "violations found"
        traceback.print_exc()
        print(f"flagval: error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def _run(ns: argparse.Namespace) -> int:
    suite = ns.suite or ns.suite_pos
    if ns.suite and ns.suite_pos and ns.suite != ns.suite_pos:
        raise InvalidConfig("conflicting suite names given")
    if not suite:
        raise InvalidConfig("a suite name is required")
    for flag in ("report", "source"):
        if getattr(ns, flag) and suite_name(suite) != "reconstruct-roundtrip":
            raise InvalidConfig(f"--{flag} applies to the round-trip suite only")
    q = ns.q
    place = ns.place
    if ns.psi:
        place = _parse_psi(ns.psi)
        if ns.place is not None and ns.place != place:
            raise InvalidConfig("conflicting place specs given")
    if ns.source:
        src_q, src_vars = _parse_source(ns.source)
        if sorted(src_vars) != ["x", "y"]:
            raise InvalidConfig("the round-trip suite runs over F_q(x,y)")
        if q is not None and q != src_q:
            raise InvalidConfig("conflicting field sizes given")
        q = src_q
    cfg = SuiteConfig(
        suite=suite,
        q=q,
        p=ns.p,
        mode=ns.mode,
        seed=ns.seed,
        arena_deg=ns.arena_deg,
        samples=ns.samples,
        check=ns.check,
        place=place,
    )
    report = run_suite(cfg)
    text = render_report(report)
    if ns.out:
        _write_atomic(ns.out, text)
    if ns.report:
        _write_atomic(ns.report, json.dumps(report["witnesses"]["report"], indent=2) + "\n")
    sys.stdout.write(text)
    return 0 if report["violations"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
