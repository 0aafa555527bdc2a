"""The asyncio query service: many clients, shared indices, dynamic batches.

:class:`QueryService` is the front door of the serving layer.  Clients
(coroutines in this process, or remote sockets via :func:`serve_tcp`)
``await service.submit(endpoint, query)``; per endpoint, an admission
controller (:class:`~repro.serving.batcher.Batcher`) folds concurrent
submissions into dynamically sized batches and executes them on the
endpoint's shared prebuilt :class:`~repro.search.SearchIndex` through
``query_batch`` — so serving N concurrent clients costs the *batched*
kernels, not N scalar traversals, and every answer is bit-identical to a
direct ``query_batch`` call on the same queries.

Observability: one :class:`~repro.serving.metrics.ServingMetrics` per
service registers ``serving/<endpoint>/...`` counters, latency
percentile probes and sustained-QPS probes on a standard
:class:`~repro.gpusim.observability.MetricsRegistry` (glossary:
``docs/METRICS.md``, "Serving metrics").

The optional per-endpoint :class:`~repro.serving.cost.GpuCostModel`
charges each batch its simulated-GPU service time (calibrated via
``repro.api.simulate``) as batcher pacing, coupling admission-control
policy to modeled device throughput.  ``docs/SERVING.md`` is the
operator guide.
"""

from __future__ import annotations

import asyncio
import contextlib
import json

from repro.errors import ConfigError
from repro.gpusim.observability import MetricsRegistry
from repro.serving.backends import Endpoint
from repro.serving.batcher import Batcher, BatchPolicy
from repro.serving.cost import GpuCostModel
from repro.serving.metrics import ServingMetrics


class _Served:
    """One endpoint's wiring: backend + policy + metrics + batcher."""

    __slots__ = ("endpoint", "policy", "cost", "batcher")

    def __init__(self, endpoint: Endpoint, policy: BatchPolicy,
                 cost: GpuCostModel | None) -> None:
        self.endpoint = endpoint
        self.policy = policy
        self.cost = cost
        self.batcher: Batcher | None = None


class QueryService:
    """Async front-end over shared prebuilt search indices.

    Endpoints are added up front (:meth:`add_endpoint`), each with its
    own :class:`BatchPolicy` and optional cost model; batchers spin up
    lazily on first submit (they need a running event loop).  The service
    is not thread-safe — it lives on one event loop, the asyncio model.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.metrics = ServingMetrics(registry)
        self._served: dict[str, _Served] = {}

    # -- assembly ---------------------------------------------------------

    def add_endpoint(
        self,
        endpoint: Endpoint,
        policy: BatchPolicy | None = None,
        cost: GpuCostModel | None = None,
    ) -> "QueryService":
        """Register ``endpoint`` under its name; returns self for
        chaining.  Raises :class:`ConfigError` on duplicates."""
        if endpoint.name in self._served:
            raise ConfigError(f"endpoint {endpoint.name!r} already added")
        resolved = (policy if policy is not None else BatchPolicy()).validate()
        self._served[endpoint.name] = _Served(endpoint, resolved, cost)
        self.metrics.endpoint(endpoint.name)  # register the scope eagerly
        return self

    def endpoint(self, name: str) -> Endpoint:
        """The backend registered under ``name``."""
        return self._lookup(name).endpoint

    def endpoints(self) -> list[str]:
        """Registered endpoint names, sorted."""
        return sorted(self._served)

    def _lookup(self, name: str) -> _Served:
        try:
            return self._served[name]
        except KeyError:
            raise ConfigError(
                f"unknown endpoint {name!r}; have {self.endpoints()}"
            ) from None

    def _batcher(self, served: _Served) -> Batcher:
        if served.batcher is None:
            ep_metrics = self.metrics.endpoint(served.endpoint.name)
            pace = None
            if served.cost is not None:
                cost = served.cost

                def pace(size: int, _cost=cost, _m=ep_metrics) -> float:
                    seconds = _cost.seconds(size)
                    _m.on_gpu_cost(_cost.cycles(size), seconds)
                    return seconds

            served.batcher = Batcher(
                served.endpoint.run_batch,
                policy=served.policy,
                metrics=ep_metrics,
                pace=pace,
            )
        return served.batcher

    # -- query path -------------------------------------------------------

    async def submit(self, endpoint: str, query: object) -> object:
        """Answer one query through the endpoint's batching pipeline.

        Raises :class:`~repro.serving.batcher.AdmissionError` when the
        endpoint queue is full.
        """
        served = self._lookup(endpoint)
        return await self._batcher(served).submit(query)

    async def submit_many(self, endpoint: str,
                          queries: object) -> list[object]:
        """Submit a client-side burst concurrently; answers in order."""
        served = self._lookup(endpoint)
        batcher = self._batcher(served)
        futures = [batcher.submit(query) for query in queries]
        return list(await asyncio.gather(*futures))

    async def close(self) -> None:
        """Drain every endpoint's queue and stop the flush loops."""
        for served in self._served.values():
            if served.batcher is not None:
                await served.batcher.close()
                served.batcher = None

    # -- read side --------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """Flat serving-metrics snapshot (JSON-serializable)."""
        return self.metrics.as_dict()


async def serve_tcp(
    service: QueryService, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Expose ``service`` over a JSON-lines TCP protocol.

    One request per line: ``{"endpoint": str, "query": list | float}``;
    one response per line: ``{"result": [[id, measure], ...]}`` on
    success, ``{"error": str}`` otherwise.  Requests on one connection
    are pipelined — each is answered as its batch completes, preserving
    per-connection order.  A line longer than the stream reader's limit
    (64 KiB) gets one ``{"error": ...}`` line and ends the connection:
    where that line ends cannot be told from where the next begins.  The
    exemplar shape: a socket front-end streaming live queries to an
    accelerator-backed backend.

    Returns the listening server; the bound address is
    ``server.sockets[0].getsockname()``.  Close with ``server.close()``
    + ``await server.wait_closed()``.
    """

    async def handle(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError as error:  # the line overran the limit
                    await _refuse(reader, writer, f"RequestTooLarge: {error}")
                    break
                if not line:
                    break
                try:
                    request = json.loads(line)
                    answer = await service.submit(
                        request["endpoint"], request["query"]
                    )
                    payload = {
                        "result": [[int(i), float(d)] for i, d in answer]
                    }
                except Exception as error:  # noqa: BLE001 - wire boundary
                    payload = {"error": f"{type(error).__name__}: {error}"}
                writer.write(_reply(payload))
                await writer.drain()
        finally:
            writer.close()

    return await asyncio.start_server(handle, host, port)


def _reply(payload: dict[str, object]) -> bytes:
    """One JSON-lines response."""
    return json.dumps(payload).encode() + b"\n"


async def _refuse(reader: asyncio.StreamReader,
                  writer: asyncio.StreamWriter, error: str) -> None:
    """Send one error line and our end of the stream, then read the
    client's rest to its end: closing with bytes unread would reset the
    connection under the reply."""
    writer.write(_reply({"error": error}))
    writer.write_eof()
    with contextlib.suppress(ConnectionError):
        while await reader.read(1 << 16):
            pass
