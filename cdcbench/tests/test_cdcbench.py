"""Smoke-size tests of the benchmark: the workloads at a few ranks.

    python3 -m pytest cdcbench/tests -q
"""

import json
import re
import time

import numpy as np
import pytest

import hostspeed
import layers
import pipeline
import run

SPEC = json.loads((pipeline.ROOT / "BENCHMARK.json").read_text())

#: same programs as the real workloads, at a few ranks
SMOKE = {
    "jacobi-halo": pipeline.Workload("jacobi", 4, {"iterations": 10}),
    "mcb-dense": pipeline.Workload("mcb", 8, {"particles_per_rank": 4}),
}


@pytest.fixture(autouse=True)
def smoke_workloads(monkeypatch):
    for name, workload in SMOKE.items():
        monkeypatch.setitem(pipeline.WORKLOADS, name, workload)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    # at a few ranks run-to-run noise (fsync latency most of all) exceeds
    # the tracing cost; the traced/untraced floor has its own test below
    monkeypatch.setattr(run, "MIN_TRACE_OVERHEAD", 0.0)


def bench(capsys, workload, trace):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def fail_share(lines):
    return next(float(line.split()[1]) for line in lines if "fail_share" in line)


def test_workloads_are_the_declared_ones():
    assert sorted(pipeline.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_end_to_end_metrics_emitted_with_units(capsys, workload):
    code, lines, result = bench(capsys, workload, trace=0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_PASSES * len(pipeline.PHASES)
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert fail_share(lines) == 0


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_per_layer_metrics_emitted_with_units(capsys, workload):
    code, lines, result = bench(capsys, workload, trace=1)
    assert code == 0 and result["correct"]
    assert result["attempted"] >= run.MIN_ROUNDS * 2 * len(pipeline.PHASES)
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert (pipeline.WORK / f"spans-{workload}.npz").is_file()
    # explain's flow recorder sees each recorded receive once
    receives = int(re.search(r"([\d,]+) receives", lines[0])[1].replace(",", ""))
    assert result["metrics"]["obs.flow_deliveries"]["value"] == receives


def test_setup_probes_spread_over_the_run():
    due = [run.probes_due(elapsed, 50.0) for elapsed in range(0, 60, 5)]
    assert due[0] == 1 and due[-1] == run.SETUP_PROBES
    assert due == sorted(due)
    assert run.probes_due(0.0, 0.0) == run.SETUP_PROBES


def test_trace_overhead_below_minimum_is_refused(capsys, monkeypatch):
    monkeypatch.setattr(run, "MIN_TRACE_OVERHEAD", float("inf"))
    assert run.main(["--workload", "jacobi-halo", "--seed", "3", "--seconds", "0",
                     "--trace", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "broken measurement" in out.err and "trace_overhead" in out.err


def test_broken_replay_makes_fail_share_nonzero(capsys, monkeypatch):
    replay = pipeline.ReplaySession.run

    def broken(self):
        result = replay(self)
        result.app_results[0] = "not what the record computed"
        return result

    monkeypatch.setattr(pipeline.ReplaySession, "run", broken)
    code, lines, result = bench(capsys, "mcb-dense", trace=0)
    assert code == 1
    assert not result["correct"]
    # each pass fails replay, and explain never runs
    assert result["failed"] == 2 * result["attempted"] // len(pipeline.PHASES)
    assert fail_share(lines) > 0
    assert any("application results differ" in line for line in lines)


def test_self_time_subtracts_child_spans():
    # root [0, 10) holds children [1, 4) and [5, 6); [1, 4) holds [2, 3)
    name_id = np.array([0, 1, 1, 2])
    parent = np.array([-1, 0, 0, 1])
    start = np.array([0, 1, 5, 2]) * 10**9
    end = np.array([10, 4, 6, 3]) * 10**9
    own, calls, covered = layers.self_times(name_id, parent, start, end, nnames=3)
    assert own.tolist() == [6.0, 3.0, 1.0]
    assert calls.tolist() == [1, 2, 1]
    assert covered == 10.0


def test_zero_per_layer_metric_is_refused():
    metrics = dict.fromkeys(layers.PER_LAYER, 1.0)
    metrics["replay.durable_store.frames"] = 0
    with pytest.raises(layers.BrokenMeasurement, match="frames reads 0 but its layer ran"):
        layers.refuse_silent_zeros(metrics, {"replay.durable_store.append": 4})


def test_tracer_restores_every_entry_point():
    before = {name: getattr(*where) for name, where in layers.ENTRY_POINTS.items()}
    with layers.Tracer():
        assert all(getattr(*where) is not before[name]
                   for name, where in layers.ENTRY_POINTS.items())
    assert all(getattr(*where) is before[name] for name, where in layers.ENTRY_POINTS.items())


def test_section_scales_wall_to_reference_speed():
    with hostspeed.Section() as section:
        time.sleep(5 * hostspeed.INTERVAL_S)
    # one burst on each side, and the ones the alarm ran inside the block
    assert len(section.bursts) >= 4
    assert 4 * hostspeed.INTERVAL_S < section.wall < 5 * hostspeed.INTERVAL_S + 0.05
    assert section.speed == hostspeed.REFERENCE_BURST_S / hostspeed.typical(section.bursts)
    assert section.seconds == pytest.approx(section.wall * section.speed)
    # the alarm is off once the section ends
    time.sleep(2 * hostspeed.INTERVAL_S)
    assert hostspeed.Section._active is None


def test_unsampled_section_is_plain_wall_time():
    with hostspeed.Section(sample=False) as section:
        time.sleep(2 * hostspeed.INTERVAL_S)
    assert section.bursts == [] and section.speed == 1.0
    assert section.seconds == section.wall >= 2 * hostspeed.INTERVAL_S


def test_typical_burst_is_the_mean_of_the_middle_half():
    assert hostspeed.typical([5.0, 1.0, 2.0, 3.0]) == 2.5
    assert hostspeed.typical([2.0]) == 2.0
