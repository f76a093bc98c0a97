"""What a finished run keeps alive, counted by type over ``gc.get_objects()``.

Each test counts live objects before and after a run of a fixed workload,
so objects held by other tests in the same process cancel out. The counts
are deterministic for a fixed workload and seed.
"""

import gc
from collections import Counter

import pytest

from repro.core.events import ReceiveEvent
from repro.replay.session import BaselineSession, RecordSession, ReplaySession
from repro.sim.datatypes import Message, Request, RequestState
from repro.workloads import make_workload

NPROCS = 8


def live_counts() -> Counter:
    gc.collect()
    counts: Counter = Counter()
    for obj in gc.get_objects():
        cls = type(obj)
        if cls is Request:
            counts["pending Request" if obj.state is RequestState.PENDING else "Request"] += 1
        elif cls is Message or cls is ReceiveEvent:
            counts[cls.__name__] += 1
    return counts


@pytest.fixture(scope="module")
def program():
    return make_workload("mcb", NPROCS, particles_per_rank=20)[0]


@pytest.mark.parametrize("session", [RecordSession, BaselineSession])
def test_finished_run_keeps_no_completed_requests(program, session):
    before = live_counts()
    result = session(program, nprocs=NPROCS, network_seed=3).run()
    after = live_counts()
    assert result.stats.total_messages > 0
    assert after["Request"] - before["Request"] == 0
    assert after["Message"] - before["Message"] == 0


def test_replay_keeps_one_event_per_recorded_receive(program):
    before = live_counts()
    record = RecordSession(program, nprocs=NPROCS, network_seed=3).run()
    receives = record.archive.total_events()
    replay = ReplaySession(program, record.archive, network_seed=77).run()
    del record
    after = live_counts()
    delivered = sum(len(o.matched) for outcomes in replay.outcomes.values() for o in outcomes)
    assert delivered == receives
    assert after["ReceiveEvent"] - before["ReceiveEvent"] == receives
