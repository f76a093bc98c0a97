"""PMPI-style interception layer and the matching-function controller.

The paper's tool sits between the application and MPI via the profiling
interface (PMPI), piggybacking Lamport clocks and observing every matching
function. Here the same seam is the :class:`MFController`: the engine
routes every MF call through it, and record/replay modes are controller
subclasses (:mod:`repro.replay.recorder`, :mod:`repro.replay.replayer`).

The base controller implements *natural* (unrecorded) MPI semantics:

====================  ====================================================
``Test``              deliver the single request iff completed, else flag 0
``Testany``           deliver the earliest completion, else flag 0
``Testsome``          deliver everything currently completed, else flag 0
``Testall``           deliver all iff all completed, else flag 0
``Wait``/``Waitall``  block until all completed, deliver all
``Waitany``           block until one completed, deliver the earliest
``Waitsome``          block until one completed, deliver all completed
====================  ====================================================

Send requests complete at post time (buffered sends), so they are always
deliverable; only receive completions are recorded (Section 3: message
sends are deterministic once receives are replayed, Definition 7).

Clocks update, events record, and results present in *delivery* order
(completion order naturally; recorded order in replay), so the application
iterates completions in exactly the replayed sequence.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.events import MFKind, MFOutcome, ReceiveEvent
from repro.sim.communicator import MailBox
from repro.sim.datatypes import Request, RequestState
from repro.sim.process import MFCall, MFResult, SimProcess, undelivered_sends


def finalize_delivery(
    proc: SimProcess,
    call: MFCall,
    recv_order: Sequence[Request],
    sends: Sequence[Request],
    flag: bool,
    events: tuple[ReceiveEvent, ...] | None,
    unmatched: dict[tuple[str, MFKind], MFOutcome],
) -> tuple[MFResult, MFOutcome | None]:
    """Apply a delivery decision: tick clocks, mark state, build results.

    ``recv_order`` is the order in which receive completions are handed to
    the application — the order CDC records and replays. ``events`` are
    their receive events when the controller already holds them (replay
    pools one per arrival); when None they are built from the messages.
    An unmatched test's outcome depends only on (callsite, kind), so it is
    taken from, or added to, the caller's ``unmatched`` table.
    Returns the application-facing result and the MF outcome to record
    (None when the call involves no receive requests at all: pure send
    synchronization is deterministic and outside the record, like the
    paper's sole focus on receives).
    """
    if recv_order:
        if proc.vector_clock is None:
            if len(recv_order) == 1:
                proc.clock.on_receive(recv_order[0].message.clock)
            else:
                proc.clock.on_receive_batch(
                    [req.message.clock for req in recv_order]
                )
        else:
            for req in recv_order:
                proc.clock.on_receive(req.message.clock)
                if req.message.vclock is not None:
                    proc.vector_clock.on_receive(req.message.vclock)

    # Presentation order = delivery order for receives (sends trail, sorted
    # by request position). The application therefore iterates messages in
    # exactly the recorded order during replay. Request *indices* may bind
    # differently between record and replay for wildcard receives — slots
    # are interchangeable; applications must not attach semantics to the
    # raw slot number beyond reposting (MCB-style patterns are fine).
    requests = call.requests
    if sends:
        index_of = {req: i for i, req in enumerate(requests)}
        delivered = list(recv_order) + sorted(sends, key=index_of.__getitem__)
        indices = tuple(index_of[r] for r in delivered)
    elif recv_order:
        delivered = list(recv_order)
        if len(requests) == 1:
            indices = (0,)
        else:
            index_of = {req: i for i, req in enumerate(requests)}
            indices = tuple(index_of[r] for r in delivered)
    else:
        delivered = []
        indices = ()
    MailBox.mark_delivered(delivered)
    result = MFResult(
        flag=flag,
        indices=indices,
        messages=tuple(r.message for r in delivered),
    )

    outcome: MFOutcome | None = None
    if recv_order:
        if events is None:
            events = tuple(
                ReceiveEvent(req.message.src, req.message.clock) for req in recv_order
            )
        outcome = MFOutcome(call.callsite, call.kind, events)
    elif call.kind.is_test and any(r.is_recv for r in requests):
        key = (call.callsite, call.kind)
        outcome = unmatched.get(key)
        if outcome is None:
            outcome = unmatched[key] = MFOutcome(call.callsite, call.kind, ())
    # A wait-family call that delivered only sends produces no outcome:
    # it matched nothing the record cares about and cannot be "unmatched".
    return result, outcome


class MFController:
    """Natural-semantics controller (no recording, no replay)."""

    mode = "passthrough"
    #: whether ``decide`` reads ``MailBox.completion_log`` (the engine only
    #: keeps the log for controllers that do).
    consumes_completion_log = False

    def __init__(self) -> None:
        self.engine = None
        #: one shared frozen outcome per (callsite, kind) for unmatched
        #: tests, the most common outcome of polling loops.
        self._unmatched: dict[tuple[str, MFKind], MFOutcome] = {}

    def attach(self, engine) -> None:
        self.engine = engine

    # -- the seam ----------------------------------------------------------

    def evaluate(self, proc: SimProcess, call: MFCall) -> MFResult | None:
        """Decide what ``call`` returns now, or None to keep it blocked."""
        decision = self.decide(proc, call)
        if decision is None:
            return None
        recv_order, sends, flag, events = decision
        messages = [req.message for req in recv_order]
        result, outcome = finalize_delivery(
            proc, call, recv_order, sends, flag, events, self._unmatched
        )
        if outcome is not None:
            self.on_outcome(proc, outcome)
            if outcome.matched:
                # Causal flow hook lives here rather than in any one
                # controller: every mode (baseline/record/replay) reports
                # matched receives the same way, so merged record+replay
                # timelines come out structurally comparable.
                recorder = getattr(self.engine, "flow_recorder", None)
                if recorder is not None:
                    recorder.on_delivery(
                        proc.rank,
                        call.callsite,
                        call.kind.value,
                        proc.time,
                        outcome.matched,
                    )
        if messages:
            self.on_delivery(proc, call, messages)
        return result

    def decide(
        self, proc: SimProcess, call: MFCall
    ) -> tuple[list[Request], list[Request], bool, None] | None:
        """Natural MPI semantics: (recv delivery order, sends, flag, events)
        or None to block. ``events`` is always None here: the outcome's
        receive events are built from the delivered messages.

        Structured as one branch per MF family so each kind computes only
        the state it needs — ``decide`` runs once per engine MF evaluation,
        including every re-arm of a parked call, so it dominates record-mode
        scheduling cost at high rank counts.
        """
        kind = call.kind
        requests = call.requests
        completed = RequestState.COMPLETED

        if kind is MFKind.TEST or kind is MFKind.WAIT:
            if len(requests) == 1:  # the only shape the Ctx API produces
                req = requests[0]
                if not req.is_recv:
                    sends = [req] if req.state is completed else []
                    return [], sends, True, None
                if req.state is completed:
                    return [req], [], True, None
                return ([], [], False, None) if kind is MFKind.TEST else None
            if not requests[0].is_recv:
                return [], undelivered_sends(requests), True, None
            ready = MailBox.completed_undelivered(
                [r for r in requests if r.is_recv]
            )
            if ready:
                return ready[:1], [], True, None
            return ([], [], False, None) if kind is MFKind.TEST else None

        if kind is MFKind.TESTSOME or kind is MFKind.WAITSOME:
            sends = undelivered_sends(requests)
            ready = MailBox.completed_undelivered(
                [r for r in requests if r.is_recv]
            )
            if ready or sends:
                return ready, sends, True, None
            return ([], [], False, None) if kind is MFKind.TESTSOME else None

        if kind is MFKind.TESTANY or kind is MFKind.WAITANY:
            ready = MailBox.completed_undelivered(
                [r for r in requests if r.is_recv]
            )
            if ready:
                return ready[:1], [], True, None
            sends = undelivered_sends(requests)
            if sends:
                return [], sends[:1], True, None
            return ([], [], False, None) if kind is MFKind.TESTANY else None

        if kind is MFKind.TESTALL or kind is MFKind.WAITALL:
            # The "all" family reports through the statuses array, which
            # MPI fills in request order — so the application observes
            # completions in request-array order, independent of arrival
            # timing. This is what makes Irecv+Waitall halo exchanges
            # *hidden deterministic* (Section 6.3). One pass computes both
            # readiness and the request-order delivery list.
            delivered_state = RequestState.DELIVERED
            ready = []
            all_done = True
            for r in requests:
                state = r.state
                if r.is_recv:
                    if state is completed:
                        ready.append(r)
                    else:
                        all_done = False
                elif state is not completed and state is not delivered_state:
                    all_done = False
            if all_done:
                return ready, undelivered_sends(requests), True, None
            return ([], [], False, None) if kind is MFKind.TESTALL else None
        raise AssertionError(f"unhandled MF kind {kind}")  # pragma: no cover

    # -- hooks for subclasses ----------------------------------------------

    def on_outcome(self, proc: SimProcess, outcome: MFOutcome) -> None:
        """Called after every recordable MF delivery (record mode hooks in)."""

    def on_blocked(self, proc: SimProcess, call: MFCall) -> None:
        """Called when an MF call parks (replay mode launches clock beacons)."""

    def on_delivery(self, proc: SimProcess, call: MFCall, messages) -> None:
        """Called with the delivered messages, in delivery order.

        Gives analysis controllers access to full message metadata (e.g.
        vector-clock piggybacks) that the recorded events intentionally
        drop.
        """

    def overhead(self, proc: SimProcess, call: MFCall, result: MFResult) -> float:
        """Extra virtual time this MF call costs (recording overhead model)."""
        return 0.0

    def piggyback_bytes(self) -> int:
        """Per-message piggyback payload this mode adds (0 when off)."""
        return 0

    def finalize(self, procs: Sequence[SimProcess]) -> None:
        """End of run: flush chunks, close stores."""
