"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--out FILE] [--against FILE]

For every workload in BENCHMARK.json (or the ones named), runs
``perfbench/run.py`` once per seed (1 .. runs) with ``--trace 0`` and prints,
per end-to-end metric, the median of the runs and the distance between the
first and third quartile as a share of the median, next to a third of the
metric's bound. ``--traced`` adds one ``--trace 1`` run per workload. With
``--out`` the figures are written as JSON. ``--against`` names such a file
from an earlier set of runs and checks that no median got worse than its
median by more than the bound. Exits 1 when a spread reaches a third of its
bound, a median moved too far or a run failed. Run from the root of a
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, check=False)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0, "runs": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--traced", action="store_true", help="add one --trace 1 run per workload")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--against", type=Path, help="spread.py --out file of an earlier set of runs")
    args = ap.parse_args()
    earlier = json.loads(args.against.read_text(encoding="utf-8"))["workloads"] if args.against else {}
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    report = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "date": time.strftime("%Y-%m-%d"),
        },
        "run_seconds": SPEC["run_seconds"],
        "workloads": {},
    }
    all_ok = True
    for name in names:
        runs = [run_once(name, seed, 0) for seed in range(1, args.runs + 1)]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        print(f"{name}: {args.runs} runs, attempted {entry['attempted']}, failed {entry['failed']}")
        all_ok &= entry["failed"] == 0
        for metric, bound in bounds.items():
            s = summarize([r["metrics"][metric]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = s
            steady = s["iqr_share"] < bound / 3
            line = (
                f"  {metric:16} median {s['median']:.6g} {s['unit']:6} "
                f"iqr/median {s['iqr_share']:.4f}  (bound/3 {bound / 3:.4f}){'' if steady else '  TOO WIDE'}"
            )
            if name in earlier:
                before = earlier[name]["end_to_end"][metric]["median"]
                worse = (s["median"] - before) / before * (1 if better[metric] == "lower" else -1)
                steady &= worse <= bound
                line += f"  vs earlier {worse:+.4f}{'' if worse <= bound else '  WORSE THAN BOUND'}"
            all_ok &= steady
            print(line)
        if args.traced:
            traced = run_once(name, 1, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
