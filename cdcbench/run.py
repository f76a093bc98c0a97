"""CDC benchmark: record → replay → explain of one workload, in one command.

    python3 cdcbench/run.py --workload mcb-dense --seed 1 --seconds 58 --trace 0

``--trace 0`` repeats the pass (see ``pipeline.py``), at least twice, and
reports the end-to-end metrics: median seconds per phase, bytes per
recorded event, peak RSS, and ``setup_s``, the median of several set-ups
in fresh interpreters (``setup_probe.py``) spread over the run. Times are
wall seconds scaled to the reference host speed, sampled inside each timed
phase (``hostspeed.py``), so that the shared host's swings cancel; the
table also prints the unscaled wall seconds.

``--trace 1`` repeats rounds of an untraced and a traced pass
(``layers.py``), at least three, then times one no-recording baseline
run, and reports the per-layer metrics: medians over the traced passes,
and ``trace_overhead``, the median over rounds of traced over untraced
wall time. The spans of the last traced pass go to
``.cdcbench/spans-<workload>.npz``.

Another pass or round starts only while one as long as the median so far
still ends within ``--seconds``, so a run's length does not depend on how
fast the machine is.

Every pass checks its outputs; a failed check counts its phase (and the
phases after it) in ``failed``. The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is 1 when any check failed. A traced run whose measurement cannot be
right (a per-layer metric reading zero, tracing overhead below 1.0)
prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pipeline
import layers

#: end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "record_s": "s",
    "replay_s": "s",
    "explain_s": "s",
    "bytes_per_event": "B/event",
    "peak_rss_mb": "MB",
}
MIN_PASSES = 2
#: plain + traced pairs of a traced run; trace_overhead is their median ratio
MIN_ROUNDS = 3
#: tracing only adds work, so a traced pass that is not slower than an
#: untraced one means the measurement is broken
MIN_TRACE_OVERHEAD = 1.0
SETUP_PROBES = 10
PROBE = Path(__file__).resolve().parent / "setup_probe.py"


def setup_seconds(workload: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(PROBE), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def probes_due(elapsed: float, seconds: float) -> int:
    """Set-up probes that should have run ``elapsed`` seconds into a run."""
    if seconds <= 0:
        return SETUP_PROBES
    return min(SETUP_PROBES, 1 + int(SETUP_PROBES * elapsed / seconds))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def another_fits(t0: float, seconds: float, rounds: list[float]) -> bool:
    return time.perf_counter() - t0 + statistics.median(rounds) <= seconds


def untraced(bench: pipeline.Bench, seconds: float) -> tuple[list, dict]:
    """End-to-end metrics, and each phase's median wall seconds for the table."""
    passes, rounds, setups = [], [], []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or another_fits(t0, seconds, rounds):
        started = time.perf_counter()
        # spread the set-up probes evenly over the run: the host's speed
        # drifts over seconds, and probes run back to back all see one speed
        while len(setups) < probes_due(started - t0, seconds):
            setups.append(setup_seconds(bench.name, bench.seed))
        passes.append(bench.run_pass(f"pass-{len(passes)}"))
        rounds.append(time.perf_counter() - started)
    while len(setups) < SETUP_PROBES:
        setups.append(setup_seconds(bench.name, bench.seed))
    metrics = {"setup_s": statistics.median(setups)}
    for phase in pipeline.PHASES:
        seconds_ok = [p.seconds[phase] for p in passes if phase in p.seconds]
        metrics[f"{phase}_s"] = statistics.median(seconds_ok) if seconds_ok else None
        walls = [p.walls[phase] for p in passes if phase in p.walls]
        metrics[f"{phase}_wall_s"] = statistics.median(walls) if walls else None
    metrics["bytes_per_event"] = bench.bytes_per_event
    metrics["peak_rss_mb"] = peak_rss_mb()
    return passes, metrics


def traced(bench: pipeline.Bench, seconds: float) -> tuple[list, dict]:
    passes, per_pass, ratios, rounds = [], [], [], []
    t0 = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or another_fits(t0, seconds, rounds):
        started = time.perf_counter()
        n = len(rounds)
        walls = {}
        # alternate which side goes first so neither always runs warmer
        for side in ("plain", "traced") if n % 2 == 0 else ("traced", "plain"):
            if side == "plain":
                plain = bench.run_pass(f"plain-{n}")
                passes.append(plain)
                walls[side] = plain.wall
                continue
            with layers.Tracer() as trace:
                traced_pass = bench.run_pass(f"traced-{n}")
            passes.append(traced_pass)
            walls[side] = traced_pass.wall
            if not traced_pass.failures:
                metrics, calls = layers.layer_metrics(trace, traced_pass)
                per_pass.append(metrics)
                trace.save(str(pipeline.WORK / f"spans-{bench.name}.npz"))
            del trace
        if not passes[-1].failures and not passes[-2].failures:
            ratios.append(walls["traced"] / walls["plain"])
        rounds.append(time.perf_counter() - started)
    if not per_pass:
        return passes, {}
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["baseline_s"] = bench.baseline()
    # each round's traced pass over its own untraced pass, so the slow
    # swings of the host's speed cancel within a pair
    metrics["trace_overhead"] = statistics.median(ratios) if ratios else None
    metrics["trace_overhead_by_round"] = ratios
    layers.refuse_silent_zeros(metrics, calls)
    if ratios and metrics["trace_overhead"] < MIN_TRACE_OVERHEAD:
        raise layers.BrokenMeasurement(
            f"trace_overhead {metrics['trace_overhead']:.3f} < {MIN_TRACE_OVERHEAD}: "
            "the traced passes ran no slower than the untraced ones"
        )
    return passes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(pipeline.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pipeline.WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=pipeline.WORK)
    try:
        bench = pipeline.Bench(args.workload, args.seed, workdir, sample=not args.trace)
        measure = traced if args.trace else untraced
        try:
            passes, metrics = measure(bench, args.seconds)
        except layers.BrokenMeasurement as exc:
            print(f"cdcbench: broken measurement, no result: {exc}", file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    else:
        units = END_TO_END
    attempted = len(passes) * len(pipeline.PHASES)
    failed = sum(len(p.failures) for p in passes)
    first = passes[0]
    print(
        f"{args.workload} seed {args.seed}: {len(passes)} passes, "
        f"{first.engine_events:,} engine events, {first.receives:,} receives, "
        f"{first.chunks:,} chunks"
    )
    for p in passes:
        for phase, why in p.failures.items():
            print(f"  FAILED {phase}: {why}")
    for name, unit in units.items():
        value = metrics.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<36} {shown:>14} {unit}")
    print(f"  {'fail_share':<36} {failed / attempted:>14.6g} ratio")
    if not args.trace:
        shown = " ".join(
            f"{phase} {metrics[f'{phase}_wall_s']:.4g}" for phase in pipeline.PHASES
            if metrics[f"{phase}_wall_s"] is not None
        )
        print(f"  unscaled wall s: {shown}")
    if metrics.get("trace_overhead_by_round"):
        shown = " ".join(f"{r:.3f}" for r in metrics["trace_overhead_by_round"])
        print(f"  trace_overhead by round: {shown}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
