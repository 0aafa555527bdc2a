"""Admission control: dynamic batching with max-batch / max-wait policies.

The serving layer's core scheduling decision is *when to launch a batch*.
Launching early keeps per-query latency low; waiting accumulates a larger
batch and higher throughput (the batched frontier kernels and the
simulated GPU both amortize launch cost over the batch).  The
:class:`BatchPolicy` knobs expose exactly that tradeoff, the same
batching/query-scheduling lever RTNN identifies as dominating end-to-end
neighbor-search throughput:

* ``max_batch`` — flush as soon as this many queries are pending;
* ``max_wait_s`` — flush when the *oldest* pending query has waited this
  long, whatever the batch size (the tail-latency bound);
* ``max_queue`` — admission control: beyond this many pending queries,
  new submissions are rejected with :class:`AdmissionError` instead of
  growing the queue without bound (open-loop overload protection).

:class:`Batcher` owns one endpoint's pending queue and a single flush
coroutine; every admitted query is answered **exactly once** — its future
resolves with its own answer or its own error, unless its client cancelled
it first, which counts as no answer — and batches preserve submission
order, so batch execution is bit-identical to calling
``query_batch`` on the concatenated query block directly
(``tests/test_serving.py`` property-tests both under concurrent clients).
When the executor raises on a batch, each of its queries is re-run
alone, so one malformed query (a NaN, a wrong shape) fails only its own
request; the re-run happens only after a failure.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ConfigError, ReproError
from repro.serving.metrics import EndpointMetrics


class AdmissionError(ReproError):
    """A query was refused because the endpoint's queue is full."""


@dataclass(frozen=True)
class BatchPolicy:
    """The admission-control knobs of one endpoint (see module docstring)."""

    max_batch: int = 32
    max_wait_s: float = 0.002
    max_queue: int = 4096

    def validate(self) -> "BatchPolicy":
        """Raise :class:`ConfigError` on non-positive knobs; returns self."""
        if self.max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_s < 0.0:
            raise ConfigError(
                f"max_wait_s must be >= 0, got {self.max_wait_s}"
            )
        if self.max_queue < self.max_batch:
            raise ConfigError(
                f"max_queue ({self.max_queue}) must be >= max_batch "
                f"({self.max_batch})"
            )
        return self


def _count_error(answers: Sequence[object], queries: list) -> ReproError:
    return ReproError(
        f"batch executor returned {len(answers)} answers "
        f"for {len(queries)} queries"
    )


class _Pending:
    """One admitted query waiting for its batch."""

    __slots__ = ("query", "future", "submitted")

    def __init__(self, query: object, future: asyncio.Future,
                 submitted: float) -> None:
        self.query = query
        self.future = future
        self.submitted = submitted


class Batcher:
    """One endpoint's pending queue plus its flush loop.

    ``execute`` is the synchronous batch function (the endpoint's
    ``run_batch``): it receives the pending queries *in submission order*
    and must return one answer per query.  ``pace`` optionally charges a
    simulated-GPU service time per batch (see
    :class:`~repro.serving.cost.GpuCostModel`): the flush loop sleeps it
    before resolving the batch, so a saturated endpoint accumulates queue
    depth exactly as a busy device would.
    """

    def __init__(
        self,
        execute: Callable[[list[object]], Sequence[object]],
        policy: BatchPolicy | None = None,
        metrics: EndpointMetrics | None = None,
        pace: Callable[[int], float] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = (policy if policy is not None else BatchPolicy())
        self.policy.validate()
        self._execute = execute
        self._metrics = metrics
        self._pace = pace
        self._clock = clock
        self._pending: deque[_Pending] = deque()
        self._wake = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._closed = False

    # -- client side ------------------------------------------------------

    def submit(self, query: object) -> asyncio.Future:
        """Admit one query; returns the future carrying its answer.

        Raises :class:`AdmissionError` when the queue is full and
        :class:`ConfigError` after :meth:`close`.
        """
        if self._closed:
            raise ConfigError("submit after close")
        if self._metrics is not None:
            self._metrics.on_submit()
        if len(self._pending) >= self.policy.max_queue:
            if self._metrics is not None:
                self._metrics.on_reject()
            raise AdmissionError(
                f"queue full ({self.policy.max_queue} pending)"
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending.append(_Pending(query, future, self._clock()))
        self._ensure_running()
        self._wake.set()
        return future

    @property
    def depth(self) -> int:
        """Currently pending (admitted, unanswered) queries."""
        return len(self._pending)

    async def close(self) -> None:
        """Drain the queue, then stop the flush loop."""
        self._closed = True
        self._wake.set()
        if self._task is not None:
            await self._task
            self._task = None

    # -- flush loop -------------------------------------------------------

    def _ensure_running(self) -> None:
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def _run(self) -> None:
        while True:
            if not self._pending:
                if self._closed:
                    return
                self._wake.clear()
                # Re-check after clear: a submit between the check and the
                # clear must not be lost.
                if self._pending or self._closed:
                    continue
                await self._wake.wait()
                continue
            await self._wait_for_admission()
            await self._flush()

    async def _wait_for_admission(self) -> None:
        """Wait until the batch is full, the oldest query's wait budget is
        spent, or the batcher is closing."""
        policy = self.policy
        while (
            not self._closed
            and len(self._pending) < policy.max_batch
        ):
            deadline = self._pending[0].submitted + policy.max_wait_s
            remaining = deadline - self._clock()
            if remaining <= 0.0:
                return
            self._wake.clear()
            try:
                await asyncio.wait_for(self._wake.wait(), remaining)
            except asyncio.TimeoutError:
                return

    async def _flush(self) -> None:
        batch: list[_Pending] = []
        while self._pending and len(batch) < self.policy.max_batch:
            batch.append(self._pending.popleft())
        if not batch:
            return
        if self._metrics is not None:
            self._metrics.on_batch(len(batch), len(self._pending))
        queries = [pending.query for pending in batch]
        failed: list[bool] | None = None
        try:
            answers = self._execute(queries)
        except Exception as error:  # noqa: BLE001 - forwarded to callers
            if len(batch) == 1:
                self._resolve_error(batch, error)
                return
            # One bad query must not fail the queries batched with it:
            # answer each alone, so each gets its own answer or error.
            answers, failed = self._execute_alone(queries)
        if len(answers) != len(batch):
            self._resolve_error(batch, _count_error(answers, batch))
            return
        if self._pace is not None:
            seconds = self._pace(len(batch))
            if seconds > 0.0:
                await asyncio.sleep(seconds)
        now = self._clock()
        for index, (pending, answer) in enumerate(zip(batch, answers)):
            if failed is not None and failed[index]:
                self._resolve_error([pending], answer)
                continue
            if pending.future.done():
                continue  # cancelled while it waited: not an answer
            pending.future.set_result(answer)
            if self._metrics is not None:
                self._metrics.on_answer(now - pending.submitted)

    def _execute_alone(
        self, queries: list[object]
    ) -> tuple[list[object], list[bool]]:
        """Run each query as its own batch: ``(outcomes, failed)``, where
        an outcome is the query's answer or, if ``failed``, its error."""
        outcomes: list[object] = []
        failed: list[bool] = []
        for query in queries:
            try:
                answers = self._execute([query])
            except Exception as error:  # noqa: BLE001 - this query's own
                outcomes.append(error)
                failed.append(True)
                continue
            wrong = len(answers) != 1
            outcomes.append(
                _count_error(answers, [query]) if wrong else answers[0]
            )
            failed.append(wrong)
        return outcomes, failed

    def _resolve_error(self, batch: list[_Pending], error: Exception) -> None:
        for pending in batch:
            if not pending.future.done():
                pending.future.set_exception(error)
