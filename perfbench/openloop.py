"""Due-time open-loop load generation for the serving workload.

Arrivals are fixed before the phase starts: one Poisson process per
endpoint, merged into one schedule.  A single generator coroutine walks
the schedule and issues each request at its due time, or at once when it
is already late because something held the event loop.  Every request is
timed from its **due** time, so a stall that delays the generator is
charged to the requests it delayed; how late the generator ran is
recorded per request as ``issued - due``.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable

import numpy as np

#: Request outcome codes.
OK, REJECTED, ERRORED, PENDING = 0, 1, 2, 3


def poisson_schedule(
    rates: list[float], duration_s: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Merged Poisson arrivals: ``(offsets_s, endpoint_index)`` sorted by
    offset, one independent process per rate in ``rates``."""
    offsets, owners = [], []
    for index, rate in enumerate(rates):
        expected = rate * duration_s
        draws = int(expected + 8 * math.sqrt(expected) + 16)
        gaps = rng.exponential(1.0 / rate, size=draws)
        times = np.cumsum(gaps)
        times = times[times < duration_s]
        offsets.append(times)
        owners.append(np.full(times.size, index, dtype=np.int64))
    offsets_all = np.concatenate(offsets)
    owners_all = np.concatenate(owners)
    order = np.argsort(offsets_all, kind="stable")
    return offsets_all[order], owners_all[order]


@dataclass
class PhaseResult:
    """Per-request timeline of one phase (absolute clock seconds).

    ``digests`` holds ``hash(tuple(answer))`` of each answer rather than
    the answer itself, so that the run does not grow the heap (and the
    garbage collector's pauses) with every answer it has seen.
    """

    due: np.ndarray
    issued: np.ndarray
    done: np.ndarray
    status: np.ndarray
    digests: list = field(repr=False)

    @property
    def latency_s(self) -> np.ndarray:
        """Due-to-answer time of each answered request (NaN otherwise)."""
        return self.done - self.due

    @property
    def lag_s(self) -> np.ndarray:
        """How late the generator issued each request."""
        return self.issued - self.due


def digest(answer: object) -> int:
    """Order-sensitive hash of one answer (a list of ``(id, value)``)."""
    return hash(tuple(answer))


async def run_phase(
    submit: Callable[[str, object], Awaitable[object]],
    offsets: np.ndarray,
    endpoints: list[str],
    queries: list[object],
    rejected: tuple[type[BaseException], ...],
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
    on_issue: Callable[[int, object], None] | None = None,
) -> PhaseResult:
    """Issue request ``i`` (``endpoints[i]``, ``queries[i]``) at
    ``start + offsets[i]`` and wait for every answer.

    ``rejected`` lists the exceptions that mean admission refused the
    request; any other exception counts as an error.  Neither is raised.
    ``on_issue(i, query)`` runs as each request is issued.
    """
    count = len(offsets)
    due = np.empty(count)
    issued = np.empty(count)
    done = np.full(count, np.nan)
    status = np.full(count, PENDING, dtype=np.int8)
    digests: list = [None] * count
    in_flight: set[asyncio.Task] = set()

    async def one(i: int) -> None:
        try:
            answer = await submit(endpoints[i], queries[i])
        except rejected:
            status[i] = REJECTED
            return
        except Exception:  # noqa: BLE001 - an open loop never propagates
            status[i] = ERRORED
            return
        done[i] = clock()
        status[i] = OK
        digests[i] = digest(answer)

    start = clock()
    for i in range(count):
        due_at = start + float(offsets[i])
        now = clock()
        if now < due_at:
            await sleep(due_at - now)
            now = clock()
        due[i] = due_at
        issued[i] = now
        if on_issue is not None:
            on_issue(i, queries[i])
        task = asyncio.ensure_future(one(i))
        in_flight.add(task)
        task.add_done_callback(in_flight.discard)
    while in_flight:
        finished, _ = await asyncio.wait(set(in_flight))
        for task in finished:
            task.result()
    return PhaseResult(due, issued, done, status, digests)
