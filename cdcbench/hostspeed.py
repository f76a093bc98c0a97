"""Host speed, sampled while the benchmark times a phase.

The benchmark runs on a few cores of a shared host. Other tenants load the
host's shared cache and memory, and its speed swings by 20% and more over
seconds to minutes; a fixed loop's time swings with it, and so does the
pipeline's. A `Section` times a block of code and, every ``INTERVAL_S`` of
it, runs a fixed burst (from a SIGALRM handler, so the bursts interleave
with the block in the one thread). Half of a burst is random reads over a
table larger than a core's L2 cache, half a small event loop of the
simulator's kind: generators step and events pass through a heap. Random
reads alone over-react to the host's swings and the event loop alone
under-reacts; together they track the pipeline's own. Its ``seconds`` is
the block's wall time, less the bursts, scaled to a host on which one
burst takes ``REFERENCE_BURST_S``::

    seconds = (wall - bursts) * REFERENCE_BURST_S / typical burst

The burst does not depend on the program, so a faster or slower program
moves ``seconds`` in full; only the host's speed cancels out of it.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

#: random reads per burst, over a table of 2**19 entries (~20 MB of list
#: slots and int objects: past a core's L2, inside the shared L3)
BURST_READS = 1500
TABLE_BITS = 19
TABLE = list(range(1 << TABLE_BITS))
#: the burst's event loop: generators, and the steps each one takes
LOOP_RANKS = 16
LOOP_STEPS = 20
#: wall seconds between bursts inside a section
INTERVAL_S = 0.04
#: a burst's time on the reference host. It sets the scale of ``seconds``
#: only; it is about a burst's time inside a phase on the 2-core x86_64
#: host that measured baseline.json
REFERENCE_BURST_S = 1.6e-3


class _Event:
    __slots__ = ("time", "rank", "value")

    def __init__(self, time: int, rank: int, value: int) -> None:
        self.time, self.rank, self.value = time, rank, value


def _steps():
    yield from range(LOOP_STEPS)


def burst() -> float:
    """Run one burst; return its wall seconds."""
    mask = (1 << TABLE_BITS) - 1
    table, j, total = TABLE, 1, 0
    t0 = time.perf_counter()
    for _ in range(BURST_READS):
        j = (j * 1103515245 + 12345) & mask
        total += table[j]
    heap, delivered, seq = [], {}, 0
    ranks = [_steps() for _ in range(LOOP_RANKS)]
    for _ in range(LOOP_STEPS):
        for rank, steps in enumerate(ranks):
            seq += 1
            event = _Event((seq * 2654435761) % 1000, rank, next(steps))
            heapq.heappush(heap, (event.time, seq, event))
    while heap:
        event = heapq.heappop(heap)[2]
        delivered.setdefault(event.rank, []).append(event.value)
    return time.perf_counter() - t0


def typical(bursts: list[float]) -> float:
    """Mean of the middle half: a median that keeps the timer's resolution."""
    ordered = sorted(bursts)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter:len(ordered) - quarter])


class Section:
    """Times a ``with`` block; with ``sample`` on, also samples the host's speed.

    ``wall`` is the block's wall time less the bursts run inside it;
    ``seconds`` is ``wall`` at the reference host speed (``wall`` itself when
    not sampling); ``speed`` is the host's speed relative to the reference.
    """

    _active: Section | None = None

    def __init__(self, sample: bool = True) -> None:
        self.sample = sample
        self.bursts: list[float] = []
        self.wall = self.seconds = 0.0
        self.speed = 1.0

    @staticmethod
    def _on_alarm(signum, frame) -> None:
        # a signal that was already pending when its section ended finds
        # no active section and does nothing
        if Section._active is not None:
            Section._active.bursts.append(burst())

    def __enter__(self) -> Section:
        if self.sample:
            # one burst on each side of the block, so a block shorter than
            # the interval still has a speed
            self.bursts.append(burst())
            # the handler stays installed: restoring SIGALRM's default
            # action could let a pending alarm end the process
            signal.signal(signal.SIGALRM, Section._on_alarm)
            Section._active = self
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._t0
        if not self.sample:
            self.wall = self.seconds = elapsed
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        Section._active = None
        inside = self.bursts[1:]
        self.bursts.append(burst())
        self.wall = elapsed - sum(inside)
        self.speed = REFERENCE_BURST_S / typical(self.bursts)
        self.seconds = self.wall * self.speed
