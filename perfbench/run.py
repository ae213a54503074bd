"""Benchmark of mcg-verify: time to verdict on four workloads, in one process.

    python3 perfbench/run.py --workload verify-default --seed 1234 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The run sets the workload up once in its own process, then repeats
passes of the workload for about ``--seconds``, and at least the workload's
minimum number of passes. Each pass is a closed loop with one caller.
Between passes, spread over the run, it times cold starts: a fresh
interpreter that runs this file with ``--setup-only`` (``setup_s``).
``--seed`` changes only the cross-oracle word pairs; the other workloads
replay the shipped scripts and models.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates plain
passes with passes in which the tracer wraps every timed layer, reports each
layer's self time and counters per traced pass plus ``trace.overhead``, and
writes the spans to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a human summary goes
to standard error. Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = Path(__file__).resolve().parent / "out"
COLD_STARTS = 20  # per run, spread over it
MAX_NOTES = 10


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


class Tally:
    """Ops attempted and failed over every pass of a run."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.notes: list[str] = []

    def add(self, res) -> None:
        self.attempted += res.attempted
        self.failed += res.failed
        self.notes += res.notes[: MAX_NOTES - len(self.notes)]


class FastestOps:
    """The fastest time of each op over the passes of a run.

    The host's speed drifts by up to a factor of two for tens of seconds at a
    time, so the median pass of a run mostly tells which speed the host had.
    Each op's fastest repeat is much steadier between runs. The time a pass
    spends outside its ops (parse, report, loop) is kept the same way.
    """

    def __init__(self) -> None:
        self.ops: list[float] | None = None  # fastest ms per op
        self.rest = math.inf  # fastest s outside the ops

    def add(self, latencies_ms: list[float], pass_s: float) -> None:
        if self.ops is not None and len(self.ops) != len(latencies_ms):
            raise RuntimeError(f"a pass gave {len(latencies_ms)} ops, earlier {len(self.ops)}")
        self.ops = latencies_ms if self.ops is None else list(map(min, self.ops, latencies_ms))
        self.rest = min(self.rest, pass_s - sum(latencies_ms) / 1000)

    def pass_s(self) -> float:
        return sum(self.ops) / 1000 + self.rest


def timed_pass(workload, state, index: int, tally: Tally, tracer: Tracer | None = None) -> tuple[float, object]:
    gc.collect()  # garbage of earlier passes is not this pass's cost
    t0 = time.perf_counter()
    res = workload.run_pass(state, index, tracer)
    elapsed = time.perf_counter() - t0
    tally.add(res)
    return elapsed, res


def ends_before(start: float, seconds: float, passes: list[float]) -> bool:
    """Whether one more pass would likely end before ``seconds`` are over
    (counting half a pass), so runs last ``seconds`` on average."""
    return time.perf_counter() - start + statistics.median(passes) / 2 < seconds


def cold_start(args) -> float:
    """Wall time of a fresh interpreter that sets the workload up and exits."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True)
    return time.perf_counter() - t0


def end_to_end(workload, state, args, tally: Tally) -> dict:
    passes: list[float] = []
    setups: list[float] = []
    fastest = FastestOps()
    decided = attempted = peak_rss_kb = 0
    start = time.perf_counter()
    while len(passes) < workload.min_passes or ends_before(start, args.seconds, passes):
        if len(setups) < COLD_STARTS * (time.perf_counter() - start) / args.seconds:
            setups.append(cold_start(args))
        elapsed, res = timed_pass(workload, state, len(passes), tally)
        fastest.add(res.latencies_ms, elapsed - res.surplus_s)
        passes.append(elapsed)
        if len(passes) <= workload.min_passes:
            # read over a fixed pass count, so they do not depend on speed
            decided += res.decided
            attempted += res.attempted
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not setups:
        setups.append(cold_start(args))
    latencies = fastest.ops
    print(f"passes {len(passes)}, ops {len(latencies)}", file=sys.stderr)
    print("pass s: " + " ".join(f"{p:.3f}" for p in passes), file=sys.stderr)
    print("setup s: " + " ".join(f"{p:.3f}" for p in setups), file=sys.stderr)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "verdict_s": (fastest.pass_s(), "s"),
        "op_ms.p50": (percentile(latencies, 50), "ms"),
        "op_ms.p99": (percentile(latencies, 99), "ms"),
        "decided_share": (decided / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


def per_layer(workload, state, seconds: float, tally: Tally, span_file: Path) -> dict:
    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    while not (plain and traced) or ends_before(start, seconds, [a + b for a, b in zip(plain, traced)]):
        index = len(plain)  # both passes of a pair run the same inputs
        plain.append(timed_pass(workload, state, index, tally, tracer)[0])  # not installed yet
        tracer.install()
        try:
            traced.append(timed_pass(workload, state, index, tally, tracer)[0])
        finally:
            tracer.remove()
    print(f"passes {len(plain)} plain, {len(traced)} traced, {len(tracer.spans)} spans", file=sys.stderr)
    tracer.write_spans(span_file)

    out = tracer.metrics(len(traced))
    out["trace.overhead"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1234, help="seed of the cross-oracle word pairs")
    ap.add_argument("--seconds", type=float, default=20.0, help="how long to repeat passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "mcg" / "__init__.py").is_file():
        print(f"error: no mcg package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    state = workload.setup(str(SRC), args.seed)
    if args.setup_only:
        os._exit(0)  # the first pass would be ready now; skip the teardown

    tally = Tally()
    if args.trace:
        span_file = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        metrics = per_layer(workload, state, args.seconds, tally, span_file)
    else:
        metrics = end_to_end(workload, state, args, tally)

    for note in tally.notes:
        print("FAIL " + note, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:32} {value:.6g} {unit}", file=sys.stderr)
    print(f"attempted {tally.attempted}, failed {tally.failed}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
