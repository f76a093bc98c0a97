"""Event model for matching-function (MF) recording — Section 3.1.

Order-replay must capture, for every MF call (the ``MPI_Test`` and
``MPI_Wait`` families), the *matching status*, the *matched message set*,
and a *message identifier*. The paper shows ``(source, tag)`` is not a
valid identifier (Figure 3: application-level out-of-order receives) and
uses ``(source rank, piggybacked Lamport clock)`` instead, which is unique
because a sender's attached clocks strictly increase and MPI channels are
FIFO per sender.

The PMPI layer emits one :class:`MFOutcome` per MF call; the record-table
builder turns the outcome stream into the Figure 4 quintuple table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Sequence


class MFKind(enum.Enum):
    """Which matching function produced an outcome.

    Only the test family can report "no match" (``flag = 0``); the wait
    family blocks until at least one message matches.
    """

    TEST = "test"
    TESTANY = "testany"
    TESTSOME = "testsome"
    TESTALL = "testall"
    WAIT = "wait"
    WAITANY = "waitany"
    WAITSOME = "waitsome"
    WAITALL = "waitall"

    #: set below, once per member — attribute reads, not per-call string
    #: work, because the engine consults these on every MF evaluation.
    is_test: bool
    can_match_multiple: bool


for _kind in MFKind:
    _kind.is_test = _kind.value.startswith("test")
    _kind.can_match_multiple = _kind in (
        MFKind.TESTSOME,
        MFKind.TESTALL,
        MFKind.WAITSOME,
        MFKind.WAITALL,
    )
del _kind


@dataclass(frozen=True, order=True, slots=True)
class ReceiveEvent:
    """Identifier of one matched receive: ``(sender rank, piggybacked clock)``."""

    rank: int
    clock: int

    @property
    def key(self) -> tuple[int, int]:
        """Reference-order sort key per Definition 6: clock, then sender rank."""
        return (self.clock, self.rank)


@dataclass(frozen=True, slots=True)
class MFOutcome:
    """What one MF call returned to the application.

    ``matched`` is empty for an unmatched test (``flag = 0``) and holds the
    completed receives *in delivery order* otherwise. Multi-element outcomes
    correspond to ``with_next`` chains in the Figure 4 table.
    """

    callsite: str
    kind: MFKind
    matched: tuple[ReceiveEvent, ...] = ()

    def __post_init__(self) -> None:
        if not self.matched and not self.kind.is_test:
            raise ValueError(f"{self.kind.value} cannot return without a match")
        if len(self.matched) > 1 and not self.kind.can_match_multiple:
            raise ValueError(f"{self.kind.value} cannot match multiple messages")

    @property
    def flag(self) -> bool:
        """Matching status: did this MF call complete any request?"""
        return bool(self.matched)


@dataclass(frozen=True, slots=True)
class QuintupleRow:
    """One row of the paper's Figure 4 table.

    ``count`` aggregates consecutive identical unmatched-test events;
    matched rows always have ``count == 1``. ``rank``/``clock`` are ``None``
    for unmatched rows (printed as ``--`` in the paper).
    """

    count: int
    flag: bool
    with_next: bool | None
    rank: int | None
    clock: int | None

    #: bit widths the paper uses to size the uncompressed baseline format:
    #: count 64 + flag 1 + with_next 1 + rank 32 + clock 64 = 162 bits.
    BITS_PER_ROW = 162

    def values(self) -> tuple:
        """The quintuple as stored values (for value-count accounting)."""
        return (self.count, self.flag, self.with_next, self.rank, self.clock)


def outcomes_to_rows(outcomes: Sequence[MFOutcome]) -> Iterator[QuintupleRow]:
    """Convert an MF outcome stream into Figure 4 rows.

    Consecutive unmatched tests collapse into a single row with ``count``
    equal to the run length; each matched receive becomes its own row, with
    ``with_next`` set on all but the last receive of a multi-match call.
    """
    unmatched_run = 0
    for outcome in outcomes:
        if not outcome.flag:
            unmatched_run += 1
            continue
        if unmatched_run:
            yield QuintupleRow(unmatched_run, False, None, None, None)
            unmatched_run = 0
        for i, ev in enumerate(outcome.matched):
            with_next = i + 1 < len(outcome.matched)
            yield QuintupleRow(1, True, with_next, ev.rank, ev.clock)
    if unmatched_run:
        yield QuintupleRow(unmatched_run, False, None, None, None)
