"""One cold benchmark process.

It imports flagval.suites, writes `ready <scale> <probe_s>` on stdout
(see main), then reads one job line from stdin: {"calls": [SuiteConfig
fields, ...], "trace": bool}.  It runs the calls in order, one at a
time, and writes one JSON line with the time of the calls, each
report's sha256 and violation count, its peak resident memory and, when
traced, the per-function spans.  End of input instead of a job ends the
process after set-up.

Times are scaled to a reference machine speed.  The machine this runs
on is shared: the same work can take 50% longer from one second to the
next, and raw wall times of identical runs spread by as much.  A probe
therefore interrupts the process every PROBE_INTERVAL_S and times a
fixed slice of interpreter work (allocating small objects, reading
attributes, appending to a list: the mix flagval's own code is made
of).  Each interval between probes is scaled by REFERENCE_KERNEL_S over
the probe's time at its end, which tracks the speed the process was
getting.  The probe's own time is left out.
"""

from __future__ import annotations

import hashlib
import json
import resource
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
PROBE_INTERVAL_S = 0.02
# probe time on an unloaded 2.0 GHz Xeon vCPU (Python 3.11), the speed all times are scaled to
REFERENCE_KERNEL_S = 0.0003


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b) -> None:
        self.a = a
        self.b = b


def _kernel() -> int:
    acc = []
    for i in range(800):
        c = _Cell(i, (i, i + 1))
        acc.append(c.a + c.b[1])
    return sum(acc)


class SpeedProbe:
    """Samples the process's speed on a timer signal while it runs."""

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float]] = []  # (start, kernel seconds)

    def _tick(self, signum, frame) -> None:
        t = perf_counter()
        _kernel()
        self.ticks.append((t, perf_counter() - t))

    def start(self) -> None:
        self.ticks = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def own_seconds(self) -> float:
        return sum(k for _, k in self.ticks)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1, without the probe's own time, at reference speed."""
        ticks = [(t, k) for t, k in self.ticks if t0 <= t < t1]
        if not ticks:
            return t1 - t0
        total, prev = 0.0, t0
        for t, k in ticks:
            total += (t - prev) * REFERENCE_KERNEL_S / k
            prev = t + k
        return total + max(0.0, t1 - prev) * REFERENCE_KERNEL_S / ticks[-1][1]


def main() -> int:
    probe = SpeedProbe()
    probe.start()
    t0 = perf_counter()
    try:
        import flagval.suites as suites
    finally:
        t1 = perf_counter()
        probe.stop()
    if Path(suites.__file__).resolve().parent.parent != SRC:
        print(f"flagval was imported from {suites.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    # the parent times set-up from launch to this line; it takes out the
    # probe's own time and scales the rest by the import's speed factor
    own = probe.own_seconds()
    sys.stdout.write(f"ready {probe.scaled(t0, t1) / (t1 - t0 - own)!r} {own!r}\n")
    sys.stdout.flush()

    line = sys.stdin.readline()
    if not line:
        return 0
    job = json.loads(line)
    tracer = None
    if job["trace"]:
        import tracer as tracing
        from workloads import DISTINCT, LAYERS

        tracer = tracing.install(LAYERS, DISTINCT)

    results = []
    probe.start()
    t0 = perf_counter()
    for cfg in job["calls"]:
        t = perf_counter()
        try:
            text = suites.render_report(suites.run_suite(suites.SuiteConfig(**cfg)))
        except Exception as exc:  # a crash is a failed call, reported with its traceback
            traceback.print_exc()
            results.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        seconds = perf_counter() - t
        results.append(
            {
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "violations": json.loads(text)["violations"],
                "seconds": seconds,
            }
        )
    t1 = perf_counter()
    probe.stop()
    numpy = sys.modules.get("numpy")
    out = {
        "wall_s": probe.scaled(t0, t1),
        "raw_wall_s": t1 - t0 - probe.own_seconds(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calls": results,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__ if numpy else None,
        "trace": tracer.summary() if tracer else None,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
