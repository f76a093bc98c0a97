"""The benchmarked pipeline: record → replay → explain, with its output checks.

One pass is what a user does with the CLI, driven through the library:

* ``record``  — ``RecordSession(..., store_dir=DIR).run()`` streams durable
  CRC'd frames to ``DIR`` and commits the manifest (``repro record --out``);
* ``replay``  — strict ``load_archive`` + ``ReplaySession.run()`` under
  another network seed (``repro replay``), checked with
  ``assert_replay_matches``;
* ``explain`` — ``rehydrate_run`` with a ``ColumnarFlowRecorder`` +
  ``analyze_critical_path`` under a third network seed (``repro explain``).

Replay and explain use network seeds other than the record's, which is
what Theorem 2 says must not matter. Everything runs in one process with
the serial encoder. With ``sample`` on, each phase's seconds are scaled to
the reference host speed (``hostspeed.py``). The repro sources come from ``src/`` of the checkout
this file sits in, never from an installed copy.
"""

from __future__ import annotations

import gc
import os
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space of the benchmark inside the checkout (archives, span files).
WORK = ROOT / ".cdcbench"

if not (SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(f"cdcbench: no repro sources under {SRC}")
sys.path.insert(0, str(SRC))
# measure the default build: process telemetry off
os.environ["REPRO_TELEMETRY"] = "0"

import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"cdcbench: imported repro from {repro.__file__}, not {SRC}")

from repro.analysis import critical_path  # noqa: E402
from repro.analysis.divergence import rehydrate_run  # noqa: E402
from repro.obs import ColumnarFlowRecorder  # noqa: E402
from repro.replay import durable_store  # noqa: E402
from repro.replay.session import (  # noqa: E402
    BaselineSession,
    RecordSession,
    ReplaySession,
    assert_replay_matches,
)
from repro.workloads import make_workload  # noqa: E402


@dataclass(frozen=True)
class Workload:
    program: str
    nprocs: int
    params: dict


#: Why each workload is here is recorded next to its name in BENCHMARK.json.
WORKLOADS = {
    # hidden-deterministic Waitall halo exchange with empty permutation
    # diffs: edit distance and reordering are bypassed and the engine does
    # little per receive, so an optimisation aimed at them must show no
    # change here.
    "jacobi-halo": Workload("jacobi", 128, {"iterations": 100}),
    # MPI_ANY_SOURCE + Testsome with real permutations at ~8 engine events
    # per receive: the engine/pmpi scheduling and the replay controller's
    # reorder path do the most work here.
    "mcb-dense": Workload("mcb", 128, {"particles_per_rank": 60}),
}

PHASES = ("record", "replay", "explain")
REPLAY_SEED_OFFSET = 1_000_003
EXPLAIN_SEED_OFFSET = 2_000_006


class CheckFailed(Exception):
    """An output of the pipeline is wrong."""


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _timed(fn, sample: bool):
    gc.collect()  # keep collection of the previous phase's garbage out of the timing
    with hostspeed.Section(sample) as section:
        value = fn()
    return value, section


@dataclass
class Pass:
    """One record → replay → explain pass."""

    #: phase -> seconds at the reference host speed, for phases that ran
    #: and passed their checks (wall seconds when the speed is not sampled)
    seconds: dict[str, float] = field(default_factory=dict)
    #: phase -> wall seconds, less the host-speed bursts
    walls: dict[str, float] = field(default_factory=dict)
    #: phase -> why it failed (phases after a failed one count as failed)
    failures: dict[str, str] = field(default_factory=dict)
    engine_events: int = 0
    receives: int = 0
    chunks: int = 0
    #: pre-gzip serialized size of the encoded CDC tables
    payload_bytes: int = 0

    @property
    def wall(self) -> float:
        return sum(self.walls.values())

    def timed(self, phase: str, *sections: hostspeed.Section) -> None:
        self.seconds[phase] = sum(s.seconds for s in sections)
        self.walls[phase] = sum(s.wall for s in sections)


class Bench:
    """A workload built for one seed, and the pipeline run over it."""

    def __init__(self, workload: str, seed: int, workdir: str, sample: bool = False) -> None:
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        #: sample the host's speed in each phase (untraced runs only: the
        #: bursts would land in the traced layers' self time)
        self.sample = sample
        self.params = dict(self.workload.params, seed=seed)
        self.program, _ = make_workload(
            self.workload.program, self.workload.nprocs, **self.params
        )
        #: bytes/event of the first pass; every later pass must repeat it
        self.bytes_per_event: float | None = None

    def run_pass(self, tag: str) -> Pass:
        out = Pass()
        directory = os.path.join(self.workdir, tag)
        nprocs = self.workload.nprocs
        phase = "record"
        try:
            record, recorded = _timed(
                lambda: RecordSession(
                    self.program,
                    nprocs=nprocs,
                    network_seed=self.seed,
                    parallel_workers=0,
                    store_dir=directory,
                    telemetry=False,
                    meta={
                        "workload": self.workload.program,
                        "nprocs": nprocs,
                        "network_seed": self.seed,
                        "params": self.params,
                    },
                ).run(),
                self.sample,
            )
            out.timed("record", recorded)
            archive = record.archive
            out.receives = archive.total_events()
            out.engine_events = record.stats.total_events
            out.chunks = sum(len(archive.chunks(r)) for r in range(nprocs))
            _check(out.receives > 0, "record holds no receive events")
            bytes_per_event = archive.total_bytes() / out.receives
            out.payload_bytes = archive.total_payload_bytes()
            if self.bytes_per_event is None:
                self.bytes_per_event = bytes_per_event
            _check(
                bytes_per_event == self.bytes_per_event,
                f"bytes/event {bytes_per_event!r} differs from the first "
                f"pass's {self.bytes_per_event!r} for the same seed",
            )

            phase = "replay"
            loaded, load = _timed(
                lambda: durable_store.load_archive(directory, mode="strict"), self.sample
            )
            loaded_archive, recovery = loaded
            replayed, replay = _timed(
                lambda: ReplaySession(
                    self.program,
                    loaded_archive,
                    network_seed=self.seed + REPLAY_SEED_OFFSET,
                    telemetry=False,
                ).run(),
                self.sample,
            )
            frames = sum(r.frames_kept for r in recovery.ranks.values())
            _check(recovery.clean, f"strict load reported damage: {recovery.render()}")
            _check(
                frames == out.chunks,
                f"strict load kept {frames} frames of {out.chunks} recorded chunks",
            )
            assert_replay_matches(record, replayed)
            out.timed("replay", load, replay)
            del record, replayed, loaded, loaded_archive

            phase = "explain"
            flow = ColumnarFlowRecorder(self.name)

            def explain():
                rehydrate_run(
                    directory,
                    network_seed=self.seed + EXPLAIN_SEED_OFFSET,
                    flow=flow,
                    keep_outcomes=False,
                )
                return critical_path.analyze_critical_path(flow, label=self.name)

            analysis, explained = _timed(explain, self.sample)
            _check(
                analysis.receives == out.receives,
                f"explain saw {analysis.receives} receives, the archive holds "
                f"{out.receives}",
            )
            out.timed("explain", explained)
        except Exception as exc:
            out.seconds.pop(phase, None)
            out.walls.pop(phase, None)
            out.failures[phase] = f"{type(exc).__name__}: {exc}"
            for later in PHASES[PHASES.index(phase) + 1:]:
                out.failures[later] = f"not run: {phase} failed"
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return out

    def baseline(self) -> float:
        """Wall seconds of the same run with no recording (paper Fig. 16)."""
        _, section = _timed(
            lambda: BaselineSession(
                self.program,
                nprocs=self.workload.nprocs,
                network_seed=self.seed,
                telemetry=False,
            ).run(),
            self.sample,
        )
        return section.seconds
