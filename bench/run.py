"""The flagval benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; flagval is imported from its
src/.  Each repetition is one fresh Python process (bench/child.py), so
every module-level cache starts cold, as for a command-line user.  The
loop is closed: one caller, one suite call at a time.

--trace 0 repeats the workload until S seconds are used and prints the
end-to-end metrics as medians over the repetitions.  --trace 1 runs
untraced/traced pairs instead and prints the per-layer metrics.  The
last stdout line is one JSON object: correct, attempted, failed,
metrics.  The line before it records the machine facts.  See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import LAYERS, WORKLOADS, calls_for, per_layer_names

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
SETUP_ONLY_LAUNCHES = 6  # extra cold starts per run, so setup_s is a median of many
TIME_LIMIT_S = 170  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env(seed: int) -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    # string hashing varies with PYTHONHASHSEED; tie it to the seed so a
    # seed fixes the whole input, and different seeds vary the hash order
    return dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src, PYTHONHASHSEED=str(seed % 2**32))


def run_child(env: dict, job: dict | None, deadline: float) -> tuple[float, dict | None]:
    """Start one cold process; return its set-up time and its result (None for set-up only)."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,  # unbuffered, so readline takes no bytes that communicate must see
        cwd=ROOT,
        env=env,
    )
    try:
        if not select.select([proc.stdout], [], [], max(1.0, deadline - perf_counter()))[0]:
            raise BenchError("child did not finish set-up before the deadline")
        ready = proc.stdout.readline().split()
        setup_s = perf_counter() - t0
        job_line = json.dumps(job).encode() + b"\n" if job else b""
        out, err = proc.communicate(job_line, timeout=max(1.0, deadline - perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if ready[:1] != [b"ready"] or proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-20:]
        raise BenchError(f"child exited with {proc.returncode}:\n" + "\n".join(tail))
    scale, probe_s = map(float, ready[1:])
    return (setup_s - probe_s) * scale, json.loads(out.splitlines()[-1]) if job else None


def _expected(workload: str, seed: int) -> dict:
    """Reference sha256 per call label for this seed; seeded calls may have none."""
    table = json.loads(REFERENCE.read_text())[workload]
    return {label: refs.get("*", refs.get(str(seed))) for label, refs in table.items()}


def check(calls: list[dict], result: dict, expected: dict, first: list | None) -> list[str]:
    """One problem string per failed call of one repetition."""
    problems = []
    for call, got, seen in zip(calls, result["calls"], first or [None] * len(calls)):
        label = call["label"]
        if "error" in got:
            problems.append(f"{label}: raised {got['error']}")
        elif expected.get(label) and got["sha256"] != expected[label]:
            problems.append(f"{label}: report bytes differ from the reference")
        elif seen is not None and got["sha256"] != seen.get("sha256"):
            problems.append(f"{label}: report bytes differ between repetitions")
        elif (got["violations"] == 0) != call["holds"]:
            problems.append(f"{label}: {got['violations']} violations, expected the claim to {'hold' if call['holds'] else 'fail'}")
    return problems


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = perf_counter()
    deadline = start + TIME_LIMIT_S
    env = child_env(seed)
    calls = calls_for(workload, seed)
    expected = _expected(workload, seed)
    job = {"calls": [c["cfg"] for c in calls], "trace": False}

    run_child(env, None, deadline)  # writes bytecode caches; users do not pay that per run
    setups, walls, raw_walls, rss, traced = [], [], [], [], []
    if not trace:
        setups += [run_child(env, None, deadline)[0] for _ in range(SETUP_ONLY_LAUNCHES)]
    first = None
    attempted = failed = 0
    problems: list[str] = []
    t_run = perf_counter()
    while True:
        t_rep = perf_counter()
        setup_s, plain = run_child(env, job, deadline)
        setups.append(setup_s)
        reps = [plain]
        if trace:
            traced.append(run_child(env, dict(job, trace=True), deadline)[1])
            reps.append(traced[-1])
        for result in reps:
            found = check(calls, result, expected, first)
            attempted += len(calls)
            failed += len(found)
            problems += found
            first = first or result["calls"]
        walls.append(plain["wall_s"])
        raw_walls.append(plain["raw_wall_s"])
        rss.append(plain["peak_rss_mb"])
        rep_s = perf_counter() - t_rep
        if perf_counter() + rep_s - t_run > seconds or perf_counter() + rep_s > deadline:
            break

    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    for call, got in zip(calls, first):
        if not expected.get(call["label"]):
            print(f"digest {got.get('sha256')} {call['label']} seed={call['cfg'].get('seed')}")
    print(
        json.dumps(
            {
                "facts": {
                    "workload": workload,
                    "seed": seed,
                    "nproc": os.cpu_count(),
                    "python": plain["python"],
                    "numpy": plain["numpy"],
                    "platform": platform.platform(),
                    "wall_s_per_repetition": walls,
                    "unscaled_wall_s_per_repetition": raw_walls,
                    "setup_s_samples": setups,
                    "samples_per_call": {c["label"]: c["cfg"].get("samples") for c in calls},
                    "call_seconds": {c["label"]: g.get("seconds") for c, g in zip(calls, plain["calls"])},
                }
            }
        )
    )

    if trace:
        metrics = _per_layer(traced, walls)
        missing = [
            f"{module}.{fn}.calls"
            for module, fns in LAYERS.items()
            for fn, home in fns.items()
            if home == workload and metrics[f"{module}.{fn}.calls"]["value"] == 0
        ]
        for n in missing:
            print(f"FAILED {n} is 0 on {workload}, which calls it: a binding was not wrapped", file=sys.stderr)
        correct = failed == 0 and not missing
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
            "pass_share": {"value": 1 - failed / attempted, "unit": "share"},
        }
        correct = failed == 0
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _per_layer(traced: list[dict], walls: list[float]) -> dict:
    spans = [t["trace"] for t in traced]
    metrics = {}
    for name in per_layer_names():
        if name == "trace.overhead_s":
            value = statistics.median(t["wall_s"] for t in traced) - statistics.median(walls)
            unit = "s"
        elif name.endswith(".self_s"):
            value, unit = statistics.median(s[name] for s in spans), "s"
        else:
            value, unit = spans[0][name], "share" if name.endswith(".distinct") else "count"
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "flagval" / "suites.py").is_file():
        print(f"no flagval source under {ROOT / 'src'}; run from a flagval checkout", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
