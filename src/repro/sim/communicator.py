"""Per-process MPI-level message matching.

Implements the matching rules CDC's correctness argument leans on:

* **posted-receive queue**: an arriving message matches the first pending
  receive (in post order) whose source/tag accept it;
* **unexpected-message queue**: unmatched arrivals wait in arrival order; a
  newly posted receive takes the earliest matching one;
* **non-overtaking**: channels are FIFO per sender (enforced upstream by
  :class:`repro.sim.network.Network` and asserted here via ``seq``), so two
  same-(source, tag) messages always *match* in send order — even though
  the application may *observe* their completions out of order (Figure 3).

Completion (= match) is distinct from delivery (= an MF call returning the
request to the application); the gap between the two is where the whole
record-and-replay mechanism lives.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

from repro.errors import CommunicatorError
from repro.sim.datatypes import Message, Request, RequestState

_completion_counter = itertools.count()

#: C-level sort key for completion order (hot in every Testsome sweep).
_completion_key = operator.attrgetter("completion_time", "completion_seq")


@dataclass
class MailBox:
    """MPI-level matching state for one process."""

    rank: int
    posted: list[Request] = field(default_factory=list)
    unexpected: list[Message] = field(default_factory=list)
    _last_seq_by_src: dict[int, int] = field(default_factory=dict)
    #: completions since the last sweep by a matching function, in
    #: completion order; consumed by controllers for callsite binding.
    #: None when the controller never reads it (see
    #: ``MFController.consumes_completion_log``): the log would otherwise
    #: keep every completed request alive for the engine's lifetime.
    completion_log: list[Request] | None = field(default_factory=list)

    def post_recv(self, req: Request) -> None:
        """Post a nonblocking receive; may match an unexpected message."""
        if not req.is_recv:
            raise CommunicatorError("post_recv requires a receive request")
        if req.state is not RequestState.PENDING:
            raise CommunicatorError("cannot repost a used request")
        for i, msg in enumerate(self.unexpected):
            if req.matches(msg):
                del self.unexpected[i]
                self._complete(req, msg, msg.arrival_time)
                return
        self.posted.append(req)

    def deliver(self, msg: Message, time: float) -> Request | None:
        """A message arrives: match a posted receive or park it.

        Returns the completed request, or None if the message was
        unexpected.
        """
        last = self._last_seq_by_src.get(msg.src, -1)
        if msg.seq <= last:
            raise CommunicatorError(
                f"FIFO violation from rank {msg.src}: seq {msg.seq} after {last}"
            )
        self._last_seq_by_src[msg.src] = msg.seq
        msg.arrival_time = time
        for i, req in enumerate(self.posted):
            if req.matches(msg):
                del self.posted[i]
                self._complete(req, msg, time)
                return req
        self.unexpected.append(msg)
        return None

    def _complete(self, req: Request, msg: Message, time: float) -> None:
        req.state = RequestState.COMPLETED
        req.message = msg
        req.completion_time = time
        req.completion_seq = next(_completion_counter)
        log = self.completion_log
        if log is not None:
            log.append(req)

    def cancel(self, req: Request) -> None:
        """Remove a pending posted receive (MPI_Cancel analogue)."""
        if req in self.posted:
            self.posted.remove(req)
            req.state = RequestState.INACTIVE

    @staticmethod
    def completed_undelivered(requests) -> list[Request]:
        """Completed-but-undelivered receives of ``requests``, completion order.

        Completion order is deterministic per sender (FIFO channels) and is
        the natural order in which an unrecorded run hands completions to
        the application.
        """
        ready = [r for r in requests if r.state is RequestState.COMPLETED]
        if len(ready) > 1:
            ready.sort(key=_completion_key)
        return ready

    @staticmethod
    def mark_delivered(requests) -> None:
        for req in requests:
            if not req.completed:
                raise CommunicatorError("delivering a non-completed request")
            req.state = RequestState.DELIVERED

    @property
    def has_unexpected(self) -> bool:
        return bool(self.unexpected)
