"""The Table II dataset registry.

Every evaluation dataset of the paper, with its original dimension and
distance metric, a scaled point count for tractable simulation, and the
synthetic generator standing in for the original data.  Queries are drawn
from the same generator with a different seed (held out from the index).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import builds
from repro.datasets import pointcloud, synthetic
from repro.errors import DatasetError

#: Distance metric tags used in Table II.
METRIC_EUCLID = "E"
METRIC_ANGULAR = "A"
METRIC_NONE = "N/A"


@dataclass(frozen=True)
class DatasetSpec:
    """Registry entry: paper metadata plus our scaled substitute."""

    abbr: str
    name: str
    dim: int
    paper_points: int
    repro_points: int
    metric: str
    generator: Callable[[int, int], np.ndarray]
    #: Which workload families evaluate this dataset (per Fig. 9).
    workloads: tuple[str, ...]


def _gen_high_dim(kind: str, dim: int) -> Callable[[int, int], np.ndarray]:
    if kind == "clustered":
        return lambda n, seed: synthetic.clustered_unit_features(n, dim, seed=seed)
    if kind == "image":
        return lambda n, seed: synthetic.image_like_features(n, dim, seed=seed)
    if kind == "embedding":
        return lambda n, seed: synthetic.embedding_features(n, dim, seed=seed)
    if kind == "descriptor":
        return lambda n, seed: synthetic.descriptor_features(n, dim, seed=seed)
    raise DatasetError(f"unknown generator kind {kind!r}")


_SPECS: tuple[DatasetSpec, ...] = (
    DatasetSpec("D1B", "deep1b", 96, 9_900_000, 20_000, METRIC_ANGULAR,
                _gen_high_dim("clustered", 96), ("ggnn",)),
    DatasetSpec("FMNT", "fashion-mnist", 784, 60_000, 2_000, METRIC_EUCLID,
                _gen_high_dim("image", 784), ("ggnn",)),
    DatasetSpec("MNT", "mnist", 784, 60_000, 2_000, METRIC_EUCLID,
                _gen_high_dim("image", 784), ("ggnn",)),
    DatasetSpec("GST", "gist", 960, 1_000_000, 1_600, METRIC_EUCLID,
                _gen_high_dim("descriptor", 960), ("ggnn",)),
    DatasetSpec("GLV", "glove", 200, 1_180_000, 6_000, METRIC_ANGULAR,
                _gen_high_dim("embedding", 200), ("ggnn",)),
    DatasetSpec("LFM", "last-fm", 65, 292_000, 6_000, METRIC_ANGULAR,
                _gen_high_dim("embedding", 65), ("ggnn",)),
    DatasetSpec("NYT", "nytimes", 256, 290_000, 5_000, METRIC_ANGULAR,
                _gen_high_dim("embedding", 256), ("ggnn",)),
    DatasetSpec("S1M", "sift1m", 128, 1_000_000, 6_000, METRIC_EUCLID,
                _gen_high_dim("descriptor", 128), ("ggnn",)),
    DatasetSpec("S10K", "sift10k", 128, 10_000, 2_000, METRIC_EUCLID,
                _gen_high_dim("descriptor", 128), ("ggnn",)),
    DatasetSpec("R10K", "random10k", 3, 10_000, 10_000, METRIC_EUCLID,
                lambda n, seed: synthetic.uniform_points(n, 3, seed=seed),
                ("flann", "bvhnn")),
    DatasetSpec("BUN", "bunny", 3, 35_900, 6_000, METRIC_EUCLID,
                lambda n, seed: pointcloud.bunny_like(n, seed=seed),
                ("flann", "bvhnn")),
    DatasetSpec("DRG", "dragon", 3, 437_000, 8_000, METRIC_EUCLID,
                lambda n, seed: pointcloud.dragon_like(n, seed=seed),
                ("flann", "bvhnn")),
    DatasetSpec("BUD", "buddha", 3, 543_000, 8_000, METRIC_EUCLID,
                lambda n, seed: pointcloud.buddha_like(n, seed=seed),
                ("flann", "bvhnn")),
    DatasetSpec("COS", "cosmos", 3, 100_000, 8_000, METRIC_EUCLID,
                lambda n, seed: pointcloud.cosmos_like(n, seed=seed),
                ("flann", "bvhnn")),
    DatasetSpec("B+1M", "btree-1m", 1, 1_000_000, 100_000, METRIC_NONE,
                lambda n, seed: synthetic.btree_keys(n, seed=seed),
                ("btree",)),
    DatasetSpec("B+10K", "btree-10k", 1, 10_000, 10_000, METRIC_NONE,
                lambda n, seed: synthetic.btree_keys(n, seed=seed),
                ("btree",)),
)

_BY_ABBR = {entry.abbr: entry for entry in _SPECS}
ALL_ABBREVIATIONS = tuple(entry.abbr for entry in _SPECS)


def spec(abbr: str) -> DatasetSpec:
    """Registry entry for ``abbr``; raises :class:`DatasetError` if unknown."""
    try:
        return _BY_ABBR[abbr]
    except KeyError:
        raise DatasetError(
            f"unknown dataset {abbr!r}; known: {', '.join(ALL_ABBREVIATIONS)}"
        ) from None


@dataclass(frozen=True)
class Dataset:
    """A materialized dataset: index points plus held-out queries."""

    spec: DatasetSpec
    points: np.ndarray
    queries: np.ndarray

    @property
    def abbr(self) -> str:
        return self.spec.abbr

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def metric(self) -> str:
        return self.spec.metric


def load_dataset(
    abbr: str, num_queries: int = 32, scale: float = 1.0, seed: int = 0
) -> Dataset:
    """Materialize a dataset.

    The index points come from the build store, keyed without
    ``num_queries``, so every query count shares one point set; the
    ``num_queries`` held-out queries are drawn per call.  ``scale``
    multiplies the registry's scaled point count (bounded below at 64
    points) for quick tests or deeper sweeps.
    """
    entry = spec(abbr)
    if num_queries < 1:
        raise DatasetError("num_queries must be >= 1")
    if scale <= 0.0:
        raise DatasetError("scale must be positive")
    queries = entry.generator(num_queries, _seed(abbr, seed) + 10_000)
    return Dataset(spec=entry, points=_points(abbr, scale, seed),
                   queries=queries)


def _seed(abbr: str, seed: int) -> int:
    # Offset the seed per dataset so same-shaped datasets (e.g. mnist and
    # fashion-mnist) do not come out byte-identical.
    return seed + zlib.crc32(abbr.encode("ascii")) % 100_000


@builds.stored("dataset")
def _points(abbr: str, scale: float, seed: int) -> np.ndarray:
    """The dataset's index points."""
    entry = spec(abbr)
    count = max(64, int(entry.repro_points * scale))
    return entry.generator(count, _seed(abbr, seed))


def perturbed_queries(
    dataset: Dataset, num_queries: int, noise: float = 0.1, seed: int = 0
) -> np.ndarray:
    """Queries drawn from the data distribution itself.

    Real ANN benchmark queries come from the same distribution as the index
    (held-out digits, held-out words); perturbed index points model that —
    and give concurrent queries the shared hot set real batches have.
    """
    if num_queries < 1:
        raise DatasetError("num_queries must be >= 1")
    rng = np.random.default_rng(seed + 77_777)
    points = dataset.points
    picks = rng.choice(points.shape[0], size=num_queries, replace=True)
    scale = points.std(axis=0, keepdims=True) * noise
    queries = points[picks] + rng.normal(size=(num_queries, points.shape[1])) * scale
    return queries.astype(points.dtype)


def dataset_table() -> list[dict[str, object]]:
    """Rows reproducing Table II, extended with our scaled counts."""
    return [
        {
            "dataset": entry.name,
            "abbr": entry.abbr,
            "dimensions": entry.dim,
            "paper_points": entry.paper_points,
            "repro_points": entry.repro_points,
            "dist": entry.metric,
            "workloads": "/".join(entry.workloads),
        }
        for entry in _SPECS
    ]
