"""Replay mode: decode CDC records and force the recorded receive order.

Architecture (mirrors what a PMPI-level replay tool like ReMPI must do):

**Message pool, not request binding.** During replay, message arrival order
differs from the recorded run, so the MPI-level binding of messages to
wildcard receive requests differs too. The replayer therefore decouples
them per ``(rank, callsite)``:

* completed receives whose requests appear in an MF call at the callsite
  are *stripped*: their message goes into the callsite's pool, the request
  becomes a free slot;
* *unexpected* messages (arrived, no matching posted receive — e.g. the
  recorded next message when the app keeps only one outstanding wildcard
  receive) are drained into the pool through the call's receive filters,
  emulating the internal shadow receives a real tool posts;
* on delivery, each recorded event's message is assigned to a compatible
  undelivered request slot of the *current* call (exact-source slots
  first, then wildcards, with backtracking), completing pending slots
  in place when necessary.

**Membership and gating.** Pool entries feed the active chunk through the
per-sender quota (DESIGN.md §5.2) with the epoch line as a cross-check.
Delivery follows the paper's Axiom 1: the event at observed cursor ``p``
(reference index ``order[p]`` from the stored permutation difference) is
released once its reference position is *certain* — it lies in the prefix
of pooled events whose clocks are below the **Local Minimum Clock**, the
smallest clock any still-missing chunk member could carry (per-sender
last-seen clock + 1; clocks strictly increase per sender over FIFO
channels). ``DeliveryMode.BARRIER`` instead waits for the whole chunk
(Section 4.2's simple reading) and is only safe when all of a chunk's
receives are posted independently of held-back deliveries.

Unmatched-test runs replay recorded matching statuses verbatim: a Test
recorded as unmatched returns ``flag = 0`` even if messages already
arrived, and a Test recorded as matched *waits* for the recorded message.
"""

from __future__ import annotations

import enum
import operator
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.events import MFKind, ReceiveEvent
from repro.core.permutation import decode_permutation
from repro.core.pipeline import CDCChunk, assist_occurrence_indices
from repro.errors import RecordExhausted, ReplayDivergence
from repro.obs import get_registry
from repro.replay.chunk_store import RecordArchive
from repro.sim.communicator import MailBox
from repro.sim.datatypes import ANY_SOURCE, ANY_TAG, Message, Request, RequestState
from repro.sim.pmpi import MFController
from repro.sim.process import MFCall, SimProcess, undelivered_sends


class DeliveryMode(enum.Enum):
    """When a buffered completion may be released to the application."""

    #: Axiom 1 / LMC gating — the paper's online behaviour (default).
    PROGRESSIVE = "progressive"
    #: hold until every chunk member arrived.
    BARRIER = "barrier"


def groups_from_with_next(with_next_indices: Sequence[int], n: int) -> dict[int, int]:
    """Map group-start observed index -> group-end index (inclusive)."""
    with_next = set(with_next_indices)
    groups: dict[int, int] = {}
    i = 0
    while i < n:
        start = i
        while i in with_next and i + 1 < n:
            i += 1
        groups[start] = i
        i += 1
    return groups


def filters_accept(filters: set[tuple[int, int]], msg: Message) -> bool:
    """Does any receive filter ``(source, tag)`` in ``filters`` accept ``msg``?

    State-independent — used for pooling, unlike :meth:`Request.matches`
    which only applies to pending requests. A filter accepts exactly when
    its source is ``msg.src`` or ANY_SOURCE and its tag is ``msg.tag`` or
    ANY_TAG, so four lookups test them all.
    """
    src = msg.src
    tag = msg.tag
    return (
        (src, tag) in filters
        or (ANY_SOURCE, tag) in filters
        or (src, ANY_TAG) in filters
        or (ANY_SOURCE, ANY_TAG) in filters
    )


def _slot_candidates(
    slots: Sequence[tuple[int, int]], messages: Sequence[tuple[int, int]]
) -> list[list[int]] | None:
    """Per message ``(source, tag)``, the indices of the slot filters that
    accept it: specific filters first, wildcards last, then slot order.
    None when some message has no compatible slot."""
    wildness = [(s == ANY_SOURCE, t == ANY_TAG) for s, t in slots]
    order = [(i, *slots[i]) for i in sorted(range(len(slots)), key=wildness.__getitem__)]
    candidates: list[list[int]] = []
    for src, tag in messages:
        accept = [
            i
            for i, s, t in order
            if (s == ANY_SOURCE or s == src) and (t == ANY_TAG or t == tag)
        ]
        if not accept:
            return None
        candidates.append(accept)
    return candidates


def _backtrack_slots(candidates: Sequence[Sequence[int]]) -> list[int] | None:
    """Distinct slot per message by backtracking, in candidate order."""
    used: set[int] = set()
    chosen: list[int] = []

    def backtrack(k: int) -> bool:
        if k == len(candidates):
            return True
        for i in candidates[k]:
            if i in used:
                continue
            used.add(i)
            chosen.append(i)
            if backtrack(k + 1):
                return True
            used.remove(i)
            chosen.pop()
        return False

    return chosen if backtrack(0) else None


def assign_slots(
    slots: Sequence[tuple[int, int]], messages: Sequence[tuple[int, int]]
) -> list[int] | None:
    """Match each message ``(source, tag)`` to a distinct compatible slot.

    Bipartite matching that prefers specific (non-wildcard) slots so
    wildcards stay available for other messages. Returns slot indices, or
    None. The greedy pass (each message takes its first unused candidate)
    is backtracking's first branch, so it gives the same answer whenever it
    succeeds; groups are small and it almost always does.
    """
    candidates = _slot_candidates(slots, messages)
    if candidates is None:
        return None
    used: set[int] = set()
    chosen: list[int] = []
    for accept in candidates:
        for i in accept:
            if i not in used:
                used.add(i)
                chosen.append(i)
                break
        else:
            return _backtrack_slots(candidates)  # conflict
    return chosen


#: floor value used when a sender can provably never send again.
_CLOCK_INFINITY = 1 << 62

#: reference-order key of a receive event (Definition 6): clock, then sender.
_reference_key = operator.attrgetter("clock", "rank")


class _Peek(enum.Enum):
    UNMATCHED = "unmatched"
    GROUP = "group"
    BLOCKED = "blocked"
    EXHAUSTED = "exhausted"


@dataclass
class CallsiteReplayState:
    """Decoder + delivery gate for one (rank, callsite) record stream."""

    rank: int
    callsite: str
    pending_chunks: deque[CDCChunk]
    mode: DeliveryMode = DeliveryMode.PROGRESSIVE
    #: shared per-receiving-rank channel floors: sender -> highest clock the
    #: tool has seen from that sender at this rank, across *all* callsites.
    #: Valid because channels are FIFO and a sender's attached clocks
    #: strictly increase, independent of tag or callsite.
    global_floor: dict[int, int] = field(default_factory=dict)

    chunk: CDCChunk | None = None
    order: list[int] = field(default_factory=list)
    #: with replay assist: per observed position, (sender, k) meaning "the
    #: k-th arrival from sender" — deterministic delivery, no LMC needed.
    assist: list[tuple[int, int]] | None = None
    #: per sender, its chunk arrivals in feed (= clock) order.
    arrived_per_sender: dict[int, list[ReceiveEvent]] = field(default_factory=dict)
    cursor: int = 0
    groups: dict[int, int] = field(default_factory=dict)
    unmatched_before: dict[int, int] = field(default_factory=dict)
    quota: dict[int, int] = field(default_factory=dict)
    #: chunk members in reference order so far: sorted by (clock, sender).
    arrived_sorted: list[ReceiveEvent] = field(default_factory=list)
    #: pooled message payloads for arrived events, keyed by (clock, sender).
    pool: dict[tuple[int, int], Message] = field(default_factory=dict)
    #: per-sender clock of the last event fed into the *active* chunk
    #: (reset at activation; within a chunk a sender's members arrive in
    #: clock order, so this doubles as a regression check and LMC floor).
    last_clock_by_sender: dict[int, int] = field(default_factory=dict)
    #: arrivals beyond the active chunk's quota, for later chunks.
    overflow: deque[tuple[ReceiveEvent, Message]] = field(default_factory=deque)
    #: (rank, clock) pairs claimed by *later* chunks' boundary exceptions —
    #: arrivals that must not be fed into the active chunk even though its
    #: quota and epoch would accept them (DESIGN.md §5.2).
    claimed_later: set[tuple[int, int]] = field(default_factory=set)
    delivered_events: int = 0
    #: virtual time at which this callsite first reported BLOCKED since its
    #: last delivery (telemetry: per-callsite replay wait time).
    blocked_since: float | None = None

    def __post_init__(self) -> None:
        for chunk in self.pending_chunks:
            self.claimed_later.update(chunk.boundary_exceptions)
        self._activate_next()

    # -- chunk lifecycle ------------------------------------------------------

    def _activate_next(self) -> None:
        # every member of the finished chunk was delivered: drop its tables
        self.arrived_per_sender = {}
        self.arrived_sorted = []
        self.last_clock_by_sender = {}
        if not self.pending_chunks:
            self.chunk = None
            return
        chunk = self.pending_chunks.popleft()
        self.chunk = chunk
        # this chunk's boundary exceptions are now *its own* members
        self.claimed_later.difference_update(chunk.boundary_exceptions)
        self.order = decode_permutation(chunk.diff)
        if chunk.sender_sequence is not None:
            occurrences = assist_occurrence_indices(chunk)
            self.assist = list(zip(chunk.sender_sequence, occurrences))
        else:
            self.assist = None
        self.cursor = 0
        self.groups = groups_from_with_next(chunk.with_next_indices, chunk.num_events)
        self.unmatched_before = dict(chunk.unmatched_runs)
        self.quota = dict(chunk.sender_counts)
        backlog = list(self.overflow)
        self.overflow.clear()
        for event, msg in backlog:
            self.feed(event, msg)

    def _chunk_done(self) -> bool:
        assert self.chunk is not None
        return (
            self.cursor >= self.chunk.num_events
            and self.unmatched_before.get(self.chunk.num_events, 0) == 0
        )

    def _maybe_advance(self) -> None:
        while self.chunk is not None and self._chunk_done():
            # note: earlier-chunk ceilings must NOT carry into the next
            # chunk's clock floors — boundary-exception events legitimately
            # sit below them; the per-chunk min-clock hints fill that role.
            self._activate_next()

    # -- arrivals ----------------------------------------------------------------

    def feed(self, event: ReceiveEvent, msg: Message) -> None:
        """Pool a message observed for this callsite."""
        if self.chunk is None:
            self.overflow.append((event, msg))
            return
        remaining = self.quota.get(event.rank, 0)
        if remaining <= 0 or (event.rank, event.clock) in self.claimed_later:
            self.overflow.append((event, msg))
            return
        prev = self.last_clock_by_sender.get(event.rank, -1)
        if prev >= 0 and event.clock <= prev:
            raise ReplayDivergence(
                self.rank,
                f"callsite {self.callsite!r}: per-sender clock order violated "
                f"({event} after clock {prev}); a sender's stream is split "
                "across callsites in a way the record cannot disambiguate",
            )
        ceiling = self.chunk.epoch.max_clock_by_rank.get(event.rank)
        if ceiling is None or event.clock > ceiling:
            raise ReplayDivergence(
                self.rank,
                f"callsite {self.callsite!r}: arrival {event} exceeds the "
                f"chunk epoch line ({ceiling}); record/replay clock mismatch",
            )
        self.quota[event.rank] = remaining - 1
        insort(self.arrived_sorted, event, key=_reference_key)
        self.arrived_per_sender.setdefault(event.rank, []).append(event)
        self.pool[event.key] = msg
        self.last_clock_by_sender[event.rank] = event.clock
        if self.global_floor.get(event.rank, -1) < event.clock:
            self.global_floor[event.rank] = event.clock
        registry = get_registry()
        if registry.enabled:
            registry.counter("replay.pooled_events").add()
            registry.gauge("replay.pool_occupancy").set_max(len(self.pool))

    # -- certainty / LMC ------------------------------------------------------------

    def certainty_horizon(self) -> tuple[int, int] | None:
        """Smallest ``(clock, sender)`` key a missing chunk member could have.

        This is the tie-aware Local Minimum Clock of Axiom 1: an arrived
        event is certain iff its key sorts strictly below the horizon.
        ``None`` means no members are missing. Per pending sender the clock
        bound combines: (a) the recorded first-clock hint when nothing from
        it was pooled into this chunk yet (exact); (b) the last clock
        pooled at this callsite + 1; (c) the per-rank channel floor + 1
        (any arrival or clock beacon from that sender, any callsite — FIFO
        makes clocks channel-monotone).
        """
        assert self.chunk is not None
        pending = [s for s, q in self.quota.items() if q > 0]
        if not pending:
            return None
        counts = dict(self.chunk.sender_counts)
        mins = dict(self.chunk.sender_min_clocks)
        horizon: tuple[int, int] | None = None
        for s in pending:
            bound = max(
                self.last_clock_by_sender.get(s, -1) + 1,
                self.global_floor.get(s, -1) + 1,
            )
            if self.quota[s] == counts[s]:  # nothing pooled yet: exact hint
                bound = max(bound, mins.get(s, 0))
            pair = (bound, s)
            if horizon is None or pair < horizon:
                horizon = pair
        return horizon

    def _certain_count(self) -> int:
        """Length of the finalized prefix of the reference order."""
        assert self.chunk is not None
        horizon = self.certainty_horizon()
        if horizon is None:
            return len(self.arrived_sorted)
        if self.mode is DeliveryMode.BARRIER:
            return 0  # some member missing -> nothing is releasable
        # arrived events keyed strictly below the horizon sort before any
        # possible future arrival
        return bisect_left(self.arrived_sorted, horizon, key=_reference_key)

    # -- the script cursor ------------------------------------------------------------

    def peek(self) -> tuple[_Peek, list[ReceiveEvent]]:
        """What should the next MF call at this callsite do?"""
        self._maybe_advance()
        if self.chunk is None:
            return _Peek.EXHAUSTED, []
        if self.unmatched_before.get(self.cursor, 0) > 0:
            return _Peek.UNMATCHED, []
        if self.cursor >= self.chunk.num_events:  # pragma: no cover - advance handles
            return _Peek.EXHAUSTED, []
        end = self.groups[self.cursor]
        events: list[ReceiveEvent] = []
        if self.assist is not None:
            # deterministic identification: position p is the k-th arrival
            # from its recorded sender
            for pos in range(self.cursor, end + 1):
                sender, k = self.assist[pos]
                got = self.arrived_per_sender.get(sender, ())
                if len(got) < k:
                    return _Peek.BLOCKED, []
                events.append(got[k - 1])
            return _Peek.GROUP, events
        certain = self._certain_count()
        for pos in range(self.cursor, end + 1):
            ref_index = self.order[pos]
            if ref_index >= certain:
                return _Peek.BLOCKED, []
            events.append(self.arrived_sorted[ref_index])
        return _Peek.GROUP, events

    def consume_unmatched(self) -> None:
        remaining = self.unmatched_before[self.cursor]
        if remaining <= 1:
            del self.unmatched_before[self.cursor]
        else:
            self.unmatched_before[self.cursor] = remaining - 1

    def consume_group(self, events: Sequence[ReceiveEvent]) -> list[Message]:
        """Commit a group delivery; returns the pooled messages in order."""
        messages = [self.pool.pop(e.key) for e in events]
        self.cursor += len(events)
        self.delivered_events += len(events)
        return messages


class ReplayController(MFController):
    """Force every MF call to return the recorded outcome."""

    mode = "replay"
    consumes_completion_log = True

    def __init__(
        self,
        archive: RecordArchive,
        delivery_mode: DeliveryMode = DeliveryMode.PROGRESSIVE,
        piggyback: int = 8,
        keep_outcomes: bool = True,
    ) -> None:
        super().__init__()
        self.archive = archive
        self.delivery_mode = delivery_mode
        self._piggyback = piggyback
        self.keep_outcomes = keep_outcomes
        self.outcomes: dict[int, list] = {r: [] for r in range(archive.nprocs)}
        self._states: dict[tuple[int, str], CallsiteReplayState] = {}
        self._floors: dict[int, dict[int, int]] = {
            r: {} for r in range(archive.nprocs)
        }
        #: (sender, receiver) pairs with a clock beacon in flight.
        self._beacons_in_flight: set[tuple[int, int]] = set()
        #: ranks with a pending blocked-retry tick.
        self._retry_pending: set[int] = set()
        #: virtual latency of a tool beacon round (small control message).
        self.beacon_nbytes = 16
        #: re-probe period while blocked (virtual seconds).
        self.beacon_retry_interval = 5.0e-5
        for rank in range(archive.nprocs):
            for callsite, chunks in archive.chunks_by_callsite(rank).items():
                self._states[(rank, callsite)] = CallsiteReplayState(
                    rank,
                    callsite,
                    deque(chunks),
                    mode=delivery_mode,
                    global_floor=self._floors[rank],
                )

    def piggyback_bytes(self) -> int:
        return self._piggyback

    def on_outcome(self, proc: SimProcess, outcome) -> None:
        if self.keep_outcomes:
            self.outcomes[proc.rank].append(outcome)

    # -- decision logic -----------------------------------------------------------

    def decide(self, proc: SimProcess, call: MFCall):
        recvs = [r for r in call.requests if r.is_recv]
        if not recvs:
            return super().decide(proc, call)

        state = self._states.get((proc.rank, call.callsite))
        if state is None:
            raise RecordExhausted(proc.rank, call.callsite)
        mailbox = proc.mailbox
        if mailbox.completion_log or mailbox.unexpected:
            self._absorb_arrivals(mailbox, recvs, state)

        kind, events = state.peek()
        if kind is _Peek.BLOCKED:
            registry = get_registry()
            if registry.enabled:
                registry.counter("replay.blocked_polls").add()
                if state.blocked_since is None:
                    # engine time, not proc.time: a parked rank's local
                    # clock freezes until it resumes.
                    state.blocked_since = (
                        self.engine.now if self.engine is not None else proc.time
                    )
            return None
        if kind is _Peek.EXHAUSTED:
            raise RecordExhausted(proc.rank, call.callsite)
        if kind is _Peek.UNMATCHED:
            if not call.kind.is_test:
                raise ReplayDivergence(
                    proc.rank,
                    f"{call.kind.value} at {call.callsite!r} but the record "
                    "expects an unmatched test",
                )
            state.consume_unmatched()
            return self._unmatched_decision(call, undelivered_sends(call.requests))

        # kind is GROUP: assign recorded messages to request slots
        self._check_group_arity(proc, call, events)
        assignment = self._assign_slots(recvs, state, events)
        if assignment is None:
            return None  # a compatible slot is not available yet
        registry = get_registry()
        if registry.enabled:
            registry.counter("replay.delivered_events").add(len(events))
            if state.blocked_since is not None:
                now = self.engine.now if self.engine is not None else proc.time
                wait = max(0.0, now - state.blocked_since)
                state.blocked_since = None
                registry.histogram(
                    f"replay.wait_us[{state.callsite}]"
                ).observe(int(wait * 1e6))
        messages = state.consume_group(events)
        for slot, msg in zip(assignment, messages):
            self._occupy_slot(proc, slot, msg)
        # the pooled events go into the outcome: one per delivered receive
        return assignment, undelivered_sends(call.requests), True, tuple(events)

    # -- pooling -----------------------------------------------------------------

    def _absorb_arrivals(
        self, mailbox: MailBox, recvs: Sequence[Request], state: CallsiteReplayState
    ) -> None:
        """Strip matching completed receives and drain unexpected ones.

        Attribution is by *filter*, not by request identity: any completed
        receive owned by this rank whose message the current call's filters
        accept belongs to this callsite — the recorded message may have
        been MPI-matched to a sibling request of the same pool, not
        necessarily one in this very call's set. (This is why replayability
        requires callsites to use disjoint receive filters; overlap is
        detected by the per-sender clock checks in ``feed``.)

        Both sources feed the pool in per-sender clock order: completions
        in completion order (FIFO channels keep that clock-ordered per
        sender), then unexpected messages in arrival order.
        """
        filters = {(r.source, r.tag) for r in recvs}

        log = mailbox.completion_log
        if log:
            # No logged request was stripped or delivered, so none needs
            # skipping: a request enters the log only on its one PENDING ->
            # COMPLETED step. Stripping takes it out of the log right here,
            # and _occupy_slot either completes a PENDING slot without
            # logging it or reuses a COMPLETED slot that this call's own
            # filters already stripped (a slot's filter accepts its message).
            fresh: list[Request] = []
            remaining_log: list[Request] = []
            for req in log:
                if filters_accept(filters, req.message):
                    fresh.append(req)
                else:
                    remaining_log.append(req)
            log[:] = remaining_log
            fresh.sort(key=lambda r: (r.completion_time, r.completion_seq))
            for req in fresh:
                msg = req.message
                req.message = None
                state.feed(ReceiveEvent(msg.src, msg.clock), msg)

        unexpected = mailbox.unexpected
        if unexpected:
            kept: list[Message] = []
            for msg in unexpected:
                if filters_accept(filters, msg):
                    state.feed(ReceiveEvent(msg.src, msg.clock), msg)
                else:
                    kept.append(msg)
            unexpected[:] = kept

    # -- slot assignment -----------------------------------------------------------

    @staticmethod
    def _assign_slots(
        recvs: Sequence[Request],
        state: CallsiteReplayState,
        events: Sequence[ReceiveEvent],
    ) -> list[Request] | None:
        """Match each group message to a compatible undelivered request slot
        of the current call (see :func:`assign_slots`)."""
        completed, pending = RequestState.COMPLETED, RequestState.PENDING
        slots = [r for r in recvs if r.state is completed or r.state is pending]
        pool = state.pool
        messages = [pool[e.key] for e in events]
        chosen = assign_slots(
            [(r.source, r.tag) for r in slots], [(m.src, m.tag) for m in messages]
        )
        return None if chosen is None else [slots[i] for i in chosen]

    @staticmethod
    def _occupy_slot(proc: SimProcess, slot: Request, msg: Message) -> None:
        """Complete ``slot`` in place with the recorded message."""
        if slot.state is RequestState.PENDING:
            # cannibalize the posted receive: the tool returns recorded
            # content through it; whatever would have matched it later will
            # surface in the unexpected queue and be drained then.
            proc.mailbox.cancel(slot)
            slot.state = RequestState.COMPLETED
        slot.message = msg

    @staticmethod
    def _unmatched_decision(call: MFCall, sends: list[Request]):
        """Reproduce record-time flag/send behaviour for an unmatched test."""
        if call.kind is MFKind.TESTANY:
            return ([], sends[:1], True, None) if sends else ([], [], False, None)
        if call.kind is MFKind.TESTSOME:
            return [], sends, bool(sends), None
        # TEST, TESTALL: deliver nothing, flag false
        return [], [], False, None

    @staticmethod
    def _check_group_arity(proc: SimProcess, call: MFCall, group: Sequence) -> None:
        single = call.kind in (MFKind.TEST, MFKind.TESTANY, MFKind.WAIT, MFKind.WAITANY)
        if single and len(group) > 1:
            raise ReplayDivergence(
                proc.rank,
                f"record delivers {len(group)} receives to single-completion "
                f"{call.kind.value} at {call.callsite!r}",
            )

    # -- clock beacons (online LMC realization) ---------------------------------------

    def on_blocked(self, proc: SimProcess, call: MFCall) -> None:
        """Launch clock beacons toward senders whose floors block delivery.

        The paper's Axiom 1 gates delivery on the Local Minimum Clock but
        leaves its online computation open. We realize it with tool-level
        *clock beacons*: when rank ``i`` blocks on uncertainty from sender
        ``s``, the tool fetches ``s``'s current Lamport clock over the same
        FIFO channel application messages use. FIFO ordering makes the
        beacon value a sound floor: every ``s → i`` message still in flight
        was scheduled before the beacon (arrives first), and every later
        send attaches a clock at least as large as the beaconed value.
        """
        if self.engine is None:
            return
        state = self._states.get((proc.rank, call.callsite))
        if state is None or state.chunk is None:
            return
        if state.assist is not None:
            return  # deterministic identification: arrivals alone re-arm us
        receiver = proc.rank
        launched = False
        for sender, quota in state.quota.items():
            if quota <= 0 or sender == receiver:
                continue
            key = (sender, receiver)
            if key in self._beacons_in_flight:
                launched = True  # already probing; its arrival re-arms us
                continue
            sender_clock = self._sender_promise(self.engine.procs[sender])
            if sender_clock - 1 <= self._floors[receiver].get(sender, -1):
                continue  # nothing new to learn from this sender yet
            self._beacons_in_flight.add(key)
            launched = True
            arrival = self.engine.network.delivery_time(
                sender, receiver, max(proc.time, self.engine.now), self.beacon_nbytes
            )
            self.engine.schedule_tool_event(
                arrival, self._make_beacon_callback(key, sender_clock, proc)
            )
        if not launched and receiver not in self._retry_pending:
            # No probe could help right now (sender clocks unchanged);
            # re-probe after a tick so progress elsewhere becomes visible.
            self._retry_pending.add(receiver)
            self.engine.schedule_tool_event(
                max(proc.time, self.engine.now) + self.beacon_retry_interval,
                self._make_retry_callback(proc),
            )

    def _make_retry_callback(self, proc):
        def retry(now: float) -> None:
            self._retry_pending.discard(proc.rank)
            if proc.pending_call is not None and self.engine is not None:
                self.engine._try_mf(proc, at_time=now)

        return retry

    def _sender_promise(self, sender_proc: SimProcess) -> int:
        """Lower bound on the clock any *future* send of this rank carries.

        Three regimes, each a sound promise the sender's tool could make:

        * program finished — it never sends again (only in-flight messages
          remain, and FIFO orders them before the beacon): infinity;
        * parked in an MF call — its next send happens only after the
          pending group delivers, and a delivery raises its clock to at
          least ``delivered_clock + 1``. The smallest clock that delivery
          can carry is bounded by the smaller of its pool's smallest
          undelivered key and its own certainty horizon;
        * running — it could send right now with its current clock.
        """
        if sender_proc.done:
            return _CLOCK_INFINITY
        current = sender_proc.clock.value
        call = sender_proc.pending_call
        if call is None:
            return current
        promise = current + 1
        state = self._states.get((sender_proc.rank, call.callsite))
        if (
            state is not None
            and state.chunk is not None
            and state.cursor < state.chunk.num_events
        ):
            # The sender's next delivery is the event at reference slot
            # i* = order[cursor]. Among the chunk's remaining events it is
            # the m-th smallest, where m counts remaining slots <= i*.
            # Replacing every missing event's unknown key by the certainty
            # horizon (a pointwise lower bound) makes the m-th order
            # statistic of the merged multiset a sound lower bound on the
            # delivered clock.
            i_star = state.order[state.cursor]
            delivered_below = sum(
                1 for slot in state.order[: state.cursor] if slot < i_star
            )
            m = i_star + 1 - delivered_below
            pooled = sorted(key[0] for key in state.pool)
            horizon = state.certainty_horizon()
            if horizon is None:
                merged = pooled
            else:
                missing = sum(q for q in state.quota.values() if q > 0)
                merged = sorted(pooled + [horizon[0]] * missing)
            if 0 < m <= len(merged):
                promise = max(promise, merged[m - 1] + 1)
        return promise

    def _make_beacon_callback(self, key: tuple[int, int], sender_clock: int, proc):
        def deliver_beacon(now: float) -> None:
            sender, receiver = key
            self._beacons_in_flight.discard(key)
            floors = self._floors[receiver]
            # future sends from `sender` carry clocks >= sender_clock, so
            # the highest-impossible-clock floor is sender_clock - 1.
            if floors.get(sender, -1) < sender_clock - 1:
                floors[sender] = sender_clock - 1
            if proc.pending_call is not None and self.engine is not None:
                self.engine._try_mf(proc, at_time=now)

        return deliver_beacon

    # -- diagnostics -----------------------------------------------------------------

    def undelivered_summary(self) -> dict[tuple[int, str], int]:
        """Remaining recorded events per callsite (0 everywhere on success)."""
        out = {}
        for key, state in self._states.items():
            remaining = sum(c.num_events for c in state.pending_chunks)
            if state.chunk is not None:
                remaining += state.chunk.num_events - state.cursor
            out[key] = remaining
        return out

    def delivered_summary(self) -> dict[tuple[int, str], tuple[int, int]]:
        """Per (rank, callsite): (events delivered, events recorded).

        The salvage path uses this to report where a recovered record
        ends: a truncated prefix shows delivered < recorded at the
        callsite whose tail was dropped.
        """
        undelivered = self.undelivered_summary()
        out: dict[tuple[int, str], tuple[int, int]] = {}
        for (rank, callsite), remaining in undelivered.items():
            total = sum(
                c.num_events
                for c in self.archive.chunks_by_callsite(rank).get(callsite, [])
            )
            out[(rank, callsite)] = (total - remaining, total)
        return out
