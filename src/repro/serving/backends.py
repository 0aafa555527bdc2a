"""Serving endpoints: shared prebuilt search indices behind one query shape.

An :class:`Endpoint` binds a prebuilt :class:`~repro.search.SearchIndex`
to a *fixed* query configuration — the deployed-service model: one
endpoint is one index with one parameterization, and every batch the
admission controller flushes runs through ``query_batch`` verbatim, so a
served answer is bit-identical to calling the index directly.

The builders construct the paper's four substrates over the Table II
registry datasets:

* :func:`point_endpoint` — BVH radius search (``bvhnn``), the RTNN shape;
* :func:`knn_endpoint` — bounded-backtracking k-d kNN (``flann``);
* :func:`ann_endpoint` — HNSW best-first ANN (``ggnn``);
* :func:`kv_endpoint` — B+ tree key-value lookups (``btree``);
* :func:`metric_endpoint` — exact non-Euclidean kNN (``arkade``): the
  same k-d substrate under an L1/L-infinity/cosine
  :class:`~repro.search.QuerySpec` (docs/WORKLOADS.md);
* :func:`sharded_endpoint` — the multi-device BVH path: a
  :class:`~repro.sharding.ShardedIndex` over N simulated GPUs, answers
  bit-identical to the unsharded ``point`` endpoint (docs/SHARDING.md).

Every builder goes through the build store (:mod:`repro.builds`), whose
process scope keeps an endpoint built outside a campaign group for the
life of the process: a serving process builds each endpoint once, and
every concurrent client hits the same prebuilt structure.  An endpoint
asks for its index under the same key its workload family builds it
with: the ``bvhnn``, ``flann``, ``arkade``, ``ggnn`` and ``btree``
builders, at the build parameters the family's module names ``BUILD``
and its runner takes as defaults.  So :func:`repro.serving.calibrate`
simulates that family over the endpoint's own index instead of building
a copy.  Expensive derived build inputs go through the campaign's
persistent **artifact cache** — the BVH search radius is the
``bvhnn-radius`` artifact — so a serving process warm-starts from any
prior campaign run (and vice versa).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import builds
from repro.datasets.registry import load_dataset, perturbed_queries
from repro.errors import ConfigError
from repro.search import BvhRadiusIndex, QuerySpec

#: family tag per endpoint kind — the identity the simulated-GPU cost
#: model calibrates against (`repro.serving.cost.calibrate`).
FAMILY_BY_KIND = {
    "point": "bvhnn",
    "knn": "flann",
    "ann": "ggnn",
    "kv": "btree",
    "sharded": "bvhnn",
    "metric": "arkade",
}


@dataclass
class Endpoint:
    """One served index: a name, the shared prebuilt index, fixed query
    parameters, and a query sampler for traffic generation.

    ``run_batch`` is the only execution path the service uses; it must be
    a pure function of the query block (the equivalence tests replay the
    served query set through it directly).
    """

    name: str
    kind: str
    family: str
    abbr: str
    index: object
    #: The fixed query parameterization every batch runs with.
    spec: QuerySpec = field(default_factory=QuerySpec)
    _sampler: Callable[[int, int], np.ndarray] | None = None

    def run_batch(self, queries: list[object]) -> list[object]:
        """Answer one admitted batch: ``query_batch`` over the stacked
        query block, submission order preserved."""
        return self.index.query_batch(queries, spec=self.spec).neighbors

    def sample_queries(self, count: int, seed: int = 0) -> np.ndarray:
        """``count`` workload-realistic queries for traffic generation."""
        if self._sampler is None:
            raise ConfigError(f"endpoint {self.name!r} has no query sampler")
        return self._sampler(count, seed)

    def describe(self) -> dict[str, object]:
        """JSON-friendly identity row (benchmarks embed it)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "family": self.family,
            "dataset": self.abbr,
            "params": self.spec.named_fields(),
            "index": self.index.stats(),
        }


@builds.stored("point-endpoint")
def point_endpoint(abbr: str = "R10K", scale: float = 1.0,
                   seed: int = 0) -> Endpoint:
    """BVH radius search over a 3-D registry dataset (RTNN shape)."""
    from repro.workloads import bvhnn

    dataset, index = bvhnn._build(abbr, scale, seed, **bvhnn.BUILD)
    return Endpoint(
        name=f"point_{abbr.lower().replace('+', '')}",
        kind="point",
        family=FAMILY_BY_KIND["point"],
        abbr=abbr,
        index=index,
        _sampler=lambda n, s: perturbed_queries(dataset, n, noise=0.1, seed=s),
    )


@builds.stored("knn-endpoint")
def knn_endpoint(abbr: str = "R10K", k: int = 5, max_checks: int = 64,
                 scale: float = 1.0, seed: int = 0) -> Endpoint:
    """k-d tree bounded kNN over a 3-D registry dataset (FLANN shape)."""
    from repro.workloads import flann

    dataset, index = flann._build_tree(
        abbr, scale=scale, seed=seed, **flann.BUILD
    )
    return Endpoint(
        name=f"knn_{abbr.lower().replace('+', '')}",
        kind="knn",
        family=FAMILY_BY_KIND["knn"],
        abbr=abbr,
        index=index,
        spec=QuerySpec(k=k, max_checks=max_checks),
        _sampler=lambda n, s: perturbed_queries(dataset, n, noise=0.1, seed=s),
    )


@builds.stored("metric-endpoint")
def metric_endpoint(abbr: str = "R10K", metric: str = "l1", k: int = 5,
                    scale: float = 1.0, seed: int = 0) -> Endpoint:
    """Exact non-Euclidean kNN over a 3-D registry dataset (Arkade shape).

    The same k-d substrate as :func:`knn_endpoint`, built with the
    ``metric`` axis (docs/WORKLOADS.md) and queried exactly
    (``max_checks = num_points``) — the serving face of the ``arkade``
    workload, so served answers match the brute-force per-metric
    reference the campaign verifies against.
    """
    from repro.workloads import arkade

    dataset, index = arkade._build_index(
        abbr, metric, scale=scale, seed=seed, **arkade.BUILD
    )
    return Endpoint(
        name=f"metric_{metric}_{abbr.lower().replace('+', '')}",
        kind="metric",
        family=FAMILY_BY_KIND["metric"],
        abbr=abbr,
        index=index,
        spec=QuerySpec(k=k, max_checks=index.num_points, metric=metric),
        _sampler=lambda n, s: perturbed_queries(dataset, n, noise=0.1, seed=s),
    )


@builds.stored("ann-endpoint")
def ann_endpoint(abbr: str = "S10K", k: int = 10, ef: int = 32,
                 scale: float = 1.0, seed: int = 0) -> Endpoint:
    """HNSW best-first ANN over a high-dimensional dataset (GGNN shape):
    the ``ggnn`` workload's graph, under the dataset's own metric."""
    from repro.workloads import ggnn

    dataset, index = ggnn._build_graph(
        abbr, scale=scale, seed=seed, **ggnn.BUILD
    )
    return Endpoint(
        name=f"ann_{abbr.lower().replace('+', '')}",
        kind="ann",
        family=FAMILY_BY_KIND["ann"],
        abbr=abbr,
        index=index,
        spec=QuerySpec(k=k, ef=ef),
        _sampler=lambda n, s: perturbed_queries(dataset, n, noise=0.05, seed=s),
    )


@builds.stored("kv-endpoint")
def kv_endpoint(abbr: str = "B+10K", branch: int | None = None,
                scale: float = 1.0, seed: int = 0) -> Endpoint:
    """B+ tree key-value lookups over a registry key set (Rodinia shape).

    ``branch`` defaults to the ``btree`` workload's branch factor.  The
    traffic sampler draws **zipfian-skewed** probes over the sorted key
    ranks — the hot-key skew real KV front-ends see — mixed with a fixed
    fraction of guaranteed misses (keys offset by 0.5 never match the
    integer-valued key space).
    """
    from repro.workloads import btree_kv

    if branch is None:
        branch = btree_kv.BUILD["branch"]
    keys, index = btree_kv._build(abbr, branch, scale, seed)

    def sampler(count: int, sample_seed: int) -> np.ndarray:
        from repro.serving.traffic import zipf_ranks

        rng = np.random.default_rng(sample_seed + 12_345)
        hits = int(count * 0.75)
        ranks = zipf_ranks(index.num_keys, hits, s=1.1, rng=rng)
        present = index.sorted_keys[ranks]
        missing = np.floor(
            rng.uniform(keys.min(), keys.max(), size=count - hits)
        ) + 0.5
        probes = np.concatenate([present, missing])
        rng.shuffle(probes)
        return probes

    return Endpoint(
        name=f"kv_{abbr.lower().replace('+', '')}",
        kind="kv",
        family=FAMILY_BY_KIND["kv"],
        abbr=abbr,
        index=index,
        _sampler=sampler,
    )


@builds.stored("sharded-endpoint")
def sharded_endpoint(abbr: str = "R10K", shards: int = 2,
                     scale: float = 1.0, seed: int = 0) -> Endpoint:
    """BVH radius search partitioned across ``shards`` simulated GPUs.

    The multi-device drop-in for :func:`point_endpoint`: a
    :class:`~repro.sharding.ShardedIndex` over the same dataset, radius
    artifact and Morton partition the sharded ``bvhnn`` campaign jobs use,
    so served answers stay bit-identical to the unsharded endpoint while
    the index accounts scatter/gather/merge costs per batch
    (``index.stats()["interconnect"]``; docs/SHARDING.md).
    """
    from repro.sharding import ShardedIndex
    from repro.workloads.bvhnn import _cached_radius

    dataset = load_dataset(abbr, num_queries=1, scale=scale, seed=seed)
    points = dataset.points.astype(np.float64)
    radius = _cached_radius(abbr, scale, seed, points)
    index = ShardedIndex(
        BvhRadiusIndex, shards, name=f"point_{abbr.lower().replace('+', '')}"
    ).build(points, radius=radius)
    return Endpoint(
        name=f"sharded_{abbr.lower().replace('+', '')}_n{shards}",
        kind="sharded",
        family=FAMILY_BY_KIND["sharded"],
        abbr=abbr,
        index=index,
        _sampler=lambda n, s: perturbed_queries(dataset, n, noise=0.1, seed=s),
    )


#: kind -> builder, for config-driven service assembly.
BUILDERS = {
    "point": point_endpoint,
    "knn": knn_endpoint,
    "ann": ann_endpoint,
    "kv": kv_endpoint,
    "sharded": sharded_endpoint,
    "metric": metric_endpoint,
}


def build_endpoint(kind: str, **kwargs: object) -> Endpoint:
    """Construct (or fetch the cached) endpoint of ``kind``."""
    try:
        builder = BUILDERS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown endpoint kind {kind!r}; want one of {sorted(BUILDERS)}"
        ) from None
    return builder(**kwargs)
