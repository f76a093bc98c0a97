"""Slot assignment: the greedy fast path agrees with full backtracking."""

from types import SimpleNamespace

from hypothesis import given
from hypothesis import strategies as st

from repro.core.events import ReceiveEvent
from repro.replay.replayer import (
    ReplayController,
    _backtrack_slots,
    _slot_candidates,
    assign_slots,
)
from repro.sim.datatypes import ANY_SOURCE, ANY_TAG, Message, Request

slot_filters = st.tuples(st.sampled_from([ANY_SOURCE, 0, 1, 2]), st.sampled_from([ANY_TAG, 7, 8]))
message_ids = st.tuples(st.integers(0, 2), st.sampled_from([7, 8]))


@given(
    st.lists(slot_filters, min_size=1, max_size=5),
    st.lists(message_ids, min_size=1, max_size=4),
)
def test_greedy_matches_backtracking(slots, messages):
    candidates = _slot_candidates(slots, messages)
    chosen = assign_slots(slots, messages)
    if candidates is None:
        assert chosen is None
        return
    assert chosen == _backtrack_slots(candidates)
    if chosen is not None:
        assert len(set(chosen)) == len(messages)
        for (src, tag), i in zip(messages, chosen):
            fsrc, ftag = slots[i]
            assert fsrc in (ANY_SOURCE, src) and ftag in (ANY_TAG, tag)


def test_greedy_backs_off_on_conflict():
    # (3, 7) prefers the source-specific slot 0, but (3, 8) fits only there
    filters = [(3, ANY_TAG), (ANY_SOURCE, 7)]
    assert _slot_candidates(filters, [(3, 7), (3, 8)]) == [[0, 1], [0]]
    slots = [Request(owner=0, is_recv=True, source=s, tag=t) for s, t in filters]
    events = [ReceiveEvent(3, 1), ReceiveEvent(3, 2)]
    pool = {
        ev.key: Message(src=3, dst=0, tag=tag, payload=None, clock=ev.clock, seq=i)
        for i, (ev, tag) in enumerate(zip(events, (7, 8)))
    }
    chosen = ReplayController._assign_slots(slots, SimpleNamespace(pool=pool), events)
    assert chosen == [slots[1], slots[0]]
