"""Online serving layer: async query service over the batched engine.

This package turns the repo's offline search substrates into an *online*
service: many concurrent clients stream point / kNN / ANN / KV queries at
an asyncio front-end, an admission controller folds them into dynamically
sized batches (the batch-size vs. tail-latency tradeoff, exposed as
policy knobs), and each batch executes through a shared prebuilt
:class:`~repro.search.SearchIndex` — so served answers are bit-identical
to a direct ``query_batch`` call while tail latency and sustained QPS are
measured through the standard
:class:`~repro.gpusim.observability.MetricsRegistry`.

The pieces, one module each:

* :mod:`~repro.serving.service` — :class:`QueryService` (the front door)
  and :func:`serve_tcp` (a JSON-lines socket front-end);
* :mod:`~repro.serving.batcher` — :class:`Batcher`, :class:`BatchPolicy`
  (``max_batch`` / ``max_wait_s`` / ``max_queue``), :class:`AdmissionError`;
* :mod:`~repro.serving.backends` — :class:`Endpoint` plus builders for
  the four substrates (``point`` / ``knn`` / ``ann`` / ``kv``) and the
  multi-device ``sharded`` kind (:mod:`repro.sharding`), kept in the
  build store (:mod:`repro.builds`) and artifact-cache backed;
* :mod:`~repro.serving.cost` — :class:`GpuCostModel` / :func:`calibrate`,
  the simulated-GPU service time charged per batch;
* :mod:`~repro.serving.metrics` — :class:`ServingMetrics` /
  :class:`EndpointMetrics`, the ``serving/<endpoint>/...`` scopes;
* :mod:`~repro.serving.traffic` — :class:`TrafficShape`,
  :func:`run_open_loop`, the open-loop Poisson / diurnal / zipfian
  generators.

Operator guide: ``docs/SERVING.md``.  Quickstart::

    import asyncio
    from repro.serving import (BatchPolicy, QueryService, build_endpoint)

    async def main():
        service = QueryService().add_endpoint(
            build_endpoint("knn"), BatchPolicy(max_batch=64, max_wait_s=0.002)
        )
        query = service.endpoint("knn_r10k").sample_queries(1, seed=0)[0]
        print(await service.submit("knn_r10k", query))
        await service.close()

    asyncio.run(main())
"""

from repro.serving.backends import (
    BUILDERS,
    FAMILY_BY_KIND,
    Endpoint,
    ann_endpoint,
    build_endpoint,
    knn_endpoint,
    kv_endpoint,
    metric_endpoint,
    point_endpoint,
    sharded_endpoint,
)
from repro.serving.batcher import AdmissionError, Batcher, BatchPolicy
from repro.serving.cost import DEFAULT_CLOCK_GHZ, GpuCostModel, calibrate
from repro.serving.metrics import (
    PERCENTILES,
    SERVING_PREFIX,
    EndpointMetrics,
    LatencyReservoir,
    ServingMetrics,
    canonical_serving_name,
)
from repro.serving.service import QueryService, serve_tcp
from repro.serving.traffic import (
    LoadReport,
    TrafficShape,
    arrival_times,
    run_open_loop,
    zipf_ranks,
)

__all__ = [
    "AdmissionError",
    "BUILDERS",
    "Batcher",
    "BatchPolicy",
    "DEFAULT_CLOCK_GHZ",
    "Endpoint",
    "EndpointMetrics",
    "FAMILY_BY_KIND",
    "GpuCostModel",
    "LatencyReservoir",
    "LoadReport",
    "PERCENTILES",
    "QueryService",
    "SERVING_PREFIX",
    "ServingMetrics",
    "TrafficShape",
    "ann_endpoint",
    "arrival_times",
    "build_endpoint",
    "calibrate",
    "canonical_serving_name",
    "knn_endpoint",
    "kv_endpoint",
    "metric_endpoint",
    "point_endpoint",
    "run_open_loop",
    "serve_tcp",
    "sharded_endpoint",
    "zipf_ranks",
]
