"""Traced run: spans around the public entry points of each ``src/repro`` layer.

The tracer patches each entry point with a wrapper that records one span
(name, start, end, parent) into flat in-memory arrays, and restores the
originals on exit. Nothing under ``src/`` knows it is traced. The run is
single-threaded, so spans nest strictly and a span's children never
overlap: a layer's self time is its span time minus the time its child
spans cover, and the spans with no parent cover the attributed share of
the wall time.
"""

from __future__ import annotations

from array import array
from time import perf_counter_ns

import numpy as np

from pipeline import Pass, critical_path, durable_store

from repro.obs.causal import ColumnarFlowRecorder
from repro.replay import recorder, replayer
from repro.replay.durable_store import DurableArchiveWriter
from repro.replay.recorder import RecordingController
from repro.replay.replayer import ReplayController
from repro.sim import pmpi
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.process import SimProcess

#: span name -> (owner, attribute) of the wrapped entry point. Functions are
#: patched where their caller resolves them (``encode_table`` in the
#: recorder's namespace, ``decode_permutation`` in the replayer's).
ENTRY_POINTS = {
    "sim.engine": (Engine, "run"),
    "sim.pmpi.finalize": (pmpi, "finalize_delivery"),
    "sim.network.delivery": (Network, "delivery_time"),
    "workloads.step": (SimProcess, "step"),
    "replay.recorder.on_outcome": (RecordingController, "on_outcome"),
    "replay.recorder.finalize": (RecordingController, "finalize"),
    "core.encode": (recorder, "encode_table"),
    "core.decode": (replayer, "decode_permutation"),
    "replay.replayer.decide": (ReplayController, "decide"),
    "replay.durable_store.open": (DurableArchiveWriter, "__init__"),
    "replay.durable_store.append": (DurableArchiveWriter, "append"),
    "replay.durable_store.close": (DurableArchiveWriter, "close"),
    "replay.durable_store.load": (durable_store, "load_archive"),
    "obs.flow.send": (ColumnarFlowRecorder, "on_send"),
    "obs.flow.delivery": (ColumnarFlowRecorder, "on_delivery"),
    "analysis.analyze": (critical_path, "analyze_critical_path"),
}

#: per-layer metric -> (unit, spans whose layer it measures). Every layer
#: runs on every workload, so a metric reading zero means the wrapper no
#: longer sees its layer's work: the run refuses to report it.
PER_LAYER = {
    "sim.engine.self_s": ("s", ("sim.engine",)),
    "sim.engine.events": ("count", ("sim.engine",)),
    "sim.engine.mf_calls": ("count", ("sim.engine",)),
    "sim.pmpi.finalize_s": ("s", ("sim.pmpi.finalize",)),
    "sim.pmpi.finalize_calls": ("count", ("sim.pmpi.finalize",)),
    "sim.network.delivery_s": ("s", ("sim.network.delivery",)),
    "sim.network.calls": ("count", ("sim.network.delivery",)),
    "workloads.step_s": ("s", ("workloads.step",)),
    "replay.recorder.on_outcome_s": ("s", ("replay.recorder.on_outcome",)),
    "replay.recorder.on_outcome_calls": ("count", ("replay.recorder.on_outcome",)),
    "replay.recorder.finalize_s": ("s", ("replay.recorder.finalize",)),
    "core.encode_s": ("s", ("core.encode",)),
    "core.encode_chunks": ("count", ("core.encode",)),
    "core.encoded_bytes": ("bytes", ("core.encode",)),
    "core.decode_s": ("s", ("core.decode",)),
    "core.decode_chunks": ("count", ("core.decode",)),
    "replay.replayer.decide_s": ("s", ("replay.replayer.decide",)),
    "replay.replayer.decide_calls": ("count", ("replay.replayer.decide",)),
    "replay.replayer.decide_yield": ("ratio", ("replay.replayer.decide",)),
    "replay.durable_store.open_s": ("s", ("replay.durable_store.open",)),
    "replay.durable_store.append_s": ("s", ("replay.durable_store.append",)),
    "replay.durable_store.append_p99_ms": ("ms", ("replay.durable_store.append",)),
    "replay.durable_store.frames": ("count", ("replay.durable_store.append",)),
    "replay.durable_store.close_s": ("s", ("replay.durable_store.close",)),
    "replay.durable_store.load_s": ("s", ("replay.durable_store.load",)),
    "replay.durable_store.bytes_read": ("bytes", ("replay.durable_store.load",)),
    "obs.flow_s": ("s", ("obs.flow.send", "obs.flow.delivery")),
    "obs.flow_deliveries": ("count", ("obs.flow.delivery",)),
    "analysis.analyze_s": ("s", ("analysis.analyze",)),
    "baseline_s": ("s", ()),
    "unattributed_share": ("ratio", ()),
    "trace_overhead": ("ratio", ()),
}


class BrokenMeasurement(Exception):
    """The traced run measured something that cannot be right."""


class Tracer:
    """Context manager: patch every entry point, keep spans, unpatch."""

    def __init__(self) -> None:
        self.names = list(ENTRY_POINTS)
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.engine_events = 0
        self.engine_mf_calls = 0
        self.decide_yields = 0
        self.bytes_read = 0
        self.flow_deliveries = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for nid, (owner, attr) in enumerate(ENTRY_POINTS.values()):
            self._patch(owner, attr, self._span(nid, getattr(owner, attr)))
        self._patch(durable_store, "_read_bytes", self._count_read(durable_store._read_bytes))
        self._patch(
            ColumnarFlowRecorder,
            "on_delivery",
            self._count_deliveries(ColumnarFlowRecorder.on_delivery),
        )
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, nid: int, fn):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        on_result = {
            "sim.engine": self._count_engine,
            "replay.replayer.decide": self._count_decide,
        }.get(self.names[nid])

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                start[idx] = t0
                stack.pop()

        if on_result is None:
            return traced

        def traced_with_result(*args, **kwargs):
            result = traced(*args, **kwargs)
            on_result(result)
            return result

        return traced_with_result

    def _count_engine(self, stats) -> None:
        self.engine_events += stats.total_events
        self.engine_mf_calls += stats.total_mf_calls

    def _count_decide(self, decision) -> None:
        if decision is not None:
            self.decide_yields += 1

    def _count_read(self, fn):
        def counted(*args, **kwargs):
            data = fn(*args, **kwargs)
            self.bytes_read += len(data)
            return data

        return counted

    def _count_deliveries(self, fn):
        # one call hands over every receive a completed MPI call matched
        def counted(recorder, rank, callsite, kind, t, events):
            self.flow_deliveries += len(events)
            return fn(recorder, rank, callsite, kind, t, events)

        return counted

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(name_id, parent, start_ns, end_ns, nnames: int):
    """Per-name (self seconds, calls) and the seconds covered by root spans."""
    dur = (end_ns - start_ns) / 1e9
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    own = np.bincount(name_id, weights=dur - child, minlength=nnames)
    calls = np.bincount(name_id, minlength=nnames)
    return own, calls, float(dur[~nested].sum())


def layer_metrics(trace: Tracer, traced: Pass) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics of one traced pass (all but baseline_s and
    trace_overhead), and the call count of every span name."""
    spans = trace.arrays()
    own, calls, covered = self_times(**spans, nnames=len(trace.names))
    ids = {name: i for i, name in enumerate(trace.names)}
    s = {name: float(own[i]) for name, i in ids.items()}
    n = {name: int(calls[i]) for name, i in ids.items()}
    append = spans["name_id"] == ids["replay.durable_store.append"]
    append_ms = (spans["end_ns"][append] - spans["start_ns"][append]) / 1e6
    decides = n["replay.replayer.decide"]
    metrics = {
        "sim.engine.self_s": s["sim.engine"],
        "sim.engine.events": trace.engine_events,
        "sim.engine.mf_calls": trace.engine_mf_calls,
        "sim.pmpi.finalize_s": s["sim.pmpi.finalize"],
        "sim.pmpi.finalize_calls": n["sim.pmpi.finalize"],
        "sim.network.delivery_s": s["sim.network.delivery"],
        "sim.network.calls": n["sim.network.delivery"],
        "workloads.step_s": s["workloads.step"],
        "replay.recorder.on_outcome_s": s["replay.recorder.on_outcome"],
        "replay.recorder.on_outcome_calls": n["replay.recorder.on_outcome"],
        "replay.recorder.finalize_s": s["replay.recorder.finalize"],
        "core.encode_s": s["core.encode"],
        "core.encode_chunks": n["core.encode"],
        "core.encoded_bytes": traced.payload_bytes,
        "core.decode_s": s["core.decode"],
        "core.decode_chunks": n["core.decode"],
        "replay.replayer.decide_s": s["replay.replayer.decide"],
        "replay.replayer.decide_calls": decides,
        "replay.replayer.decide_yield": trace.decide_yields / decides if decides else 0.0,
        "replay.durable_store.open_s": s["replay.durable_store.open"],
        "replay.durable_store.append_s": s["replay.durable_store.append"],
        "replay.durable_store.append_p99_ms": (
            float(np.percentile(append_ms, 99)) if append_ms.size else 0.0
        ),
        "replay.durable_store.frames": n["replay.durable_store.append"],
        "replay.durable_store.close_s": s["replay.durable_store.close"],
        "replay.durable_store.load_s": s["replay.durable_store.load"],
        "replay.durable_store.bytes_read": trace.bytes_read,
        "obs.flow_s": s["obs.flow.send"] + s["obs.flow.delivery"],
        "obs.flow_deliveries": trace.flow_deliveries,
        "analysis.analyze_s": s["analysis.analyze"],
        "unattributed_share": max(0.0, 1.0 - covered / traced.wall),
    }
    return metrics, n


def refuse_silent_zeros(metrics: dict[str, float], calls: dict[str, int]) -> None:
    """Raise unless every per-layer metric is nonzero."""
    for metric, (_, spans) in PER_LAYER.items():
        if metrics[metric] != 0:
            continue
        ran = [name for name in spans if calls.get(name)]
        why = (
            f"its layer ran ({', '.join(ran)})" if ran
            else f"its layer never ran ({', '.join(spans) or 'no span'})"
        )
        raise BrokenMeasurement(f"{metric} reads 0 but {why}")
