"""Run the benchmark over several seeds and report each metric's spread.

    python3 cdcbench/spread.py --workloads jacobi-halo,mcb-dense \\
        --seeds 1-10 [--trace 0] [--out FILE --label TEXT]

For every workload and metric this prints the median of the per-seed values,
the first and third quartiles (``statistics.quantiles(values, n=4)``) and
the spread, (q3 - q1) / median, next to the metric's bound from
BENCHMARK.json. Every run measures for BENCHMARK.json's ``run_seconds``,
and runs go one at a time. ``--out`` appends the set as one
entry to a JSON history file (the baseline record in ``baseline.json``).
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
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout}{done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    entry = {
        "label": args.label,
        "date": time.strftime("%Y-%m-%d"),
        "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} cores",
        "trace": args.trace,
        "seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, seconds, args.trace) for seed in seeds]
        metrics = {}
        print(f"{workload}: {len(seeds)} seeds, {seconds}s runs")
        for name, first in results[0]["metrics"].items():
            stats = summarize([r["metrics"][name]["value"] for r in results])
            metrics[name] = dict(stats, unit=first["unit"])
            bound = bounds.get(name)
            spread = stats["spread"]
            print(
                f"  {name:<36} median {stats['median']:<12.6g} "
                f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} "
                f"spread {'n/a' if spread is None else f'{spread:.4f}':<8} "
                f"bound {bound if bound is not None else '-'}"
            )
        entry["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
    if args.out:
        path = Path(args.out)
        history = json.loads(path.read_text()) if path.exists() else {"entries": []}
        history["entries"].append(entry)
        path.write_text(json.dumps(history, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
