"""The Arkade workload family: exactness, lowering, and the metric axis.

End-to-end contracts for the non-Euclidean kNN family
(docs/WORKLOADS.md): every metric's answers equal the brute-force
reference (``run_arkade`` enforces this internally — these tests pin the
surface), the lowered traces carry the right TDist metric codes and are
reproducible from run to run, the campaign ``metric`` axis keeps
default-Euclidean run-ids byte-identical, and the serving layer's
``metric`` endpoint kind answers exactly.
"""

import pytest

from repro.errors import ConfigError
from repro.metrics.transforms import ARKADE_METRICS, QUERY_METRICS
from repro.workloads import run_arkade, to_traces

QUERIES = 32


@pytest.fixture(scope="module", params=QUERY_METRICS)
def metric(request):
    return request.param


@pytest.fixture(scope="module")
def run(metric):
    return run_arkade("R10K", num_queries=QUERIES, metric=metric)


class TestRunArkade:
    def test_metadata(self, run, metric):
        assert run.style == "parallel"
        assert run.extras["metric"] == metric
        assert run.extras["num_queries"] == QUERIES
        assert run.name == f"arkade-{metric}-R10K"
        assert len(run.warp_ops) == 1  # 32 queries == one warp

    def test_every_query_verified_against_brute_force(self, run):
        """run_arkade raises TraceError on any mismatch, so a returned
        run certifies exactness; the extras record the count."""
        assert run.extras["verified_queries"] == QUERIES

    def test_metric_search_counters(self, run, metric):
        scope = run.extras["metric_search"]
        prefix = f"metric_search/{metric}"
        assert scope[f"{prefix}/queries"] == QUERIES
        assert scope[f"{prefix}/verified_queries"] == QUERIES
        assert scope[f"{prefix}/plane_tests"] > 0
        assert scope[f"{prefix}/dist_tests"] > 0
        if metric == "cosine":
            # Build normalizes the point set, query time the queries.
            assert scope[f"{prefix}/transform_rows"] >= QUERIES
        else:
            assert scope[f"{prefix}/transform_rows"] == 0

    def test_traces_pair_and_simulate(self, run):
        from repro.gpusim import VOLTA_V100, simulate

        bundle = to_traces(run)
        assert bundle.baseline.num_warps == bundle.hsu.num_warps == 1
        base = simulate(VOLTA_V100.scaled(1), bundle.baseline)
        hsu = simulate(VOLTA_V100.scaled(1), bundle.hsu)
        assert 0 < hsu.cycles < base.cycles  # HSU must win on every metric

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigError, match="run_arkade"):
            run_arkade("R10K", num_queries=4, metric="l2")


class TestLoweringMetricCodes:
    """Only cosine lowers its leaf tests as ``POINT_ANGULAR``; the
    filter metrics keep the Euclidean beat kernel (docs/WORKLOADS.md)."""

    def _tdist_metas(self, metric) -> set[str]:
        run = run_arkade("R10K", num_queries=QUERIES, metric=metric)
        return {
            op.meta
            for ops in run.warp_ops
            for op in ops
            if op.kind == "TDist"
        }

    def test_cosine_lowers_as_point_angular(self):
        assert self._tdist_metas("cosine") == {"angular"}

    @pytest.mark.parametrize("metric", ["euclid", "l1", "linf"])
    def test_filter_metrics_lower_as_point_euclid(self, metric):
        assert self._tdist_metas(metric) == {"euclid"}


class TestReproducibility:
    @pytest.mark.parametrize("metric", ARKADE_METRICS)
    def test_fingerprints_identical_across_runs(self, metric):
        """Two independent runs lower to traces that do not differ by a
        byte."""
        fingerprints = []
        for _ in range(2):
            run = run_arkade("R10K", num_queries=QUERIES, metric=metric)
            bundle = to_traces(run)
            fingerprints.append(
                (bundle.baseline.fingerprint(), bundle.hsu.fingerprint())
            )
        assert fingerprints[0] == fingerprints[1]


class TestCampaignMetricAxis:
    def test_default_run_id_is_byte_identical(self):
        from repro.experiments.campaign import Job

        job = Job("bvhnn", "R10K", "hsu")
        assert job.run_id == "bvhnn-r10k-hsu-wb8-ew16"

    def test_metric_suffix_lands_after_the_variant(self):
        from repro.experiments.campaign import Job

        job = Job("arkade", "R10K", "hsu", queries=64, metric="l1")
        assert job.run_id == "arkade-r10k-hsu-wb8-ew16-l1-q64"

    def test_job_rejects_unknown_metric(self):
        from repro.experiments.campaign import Job

        with pytest.raises(ConfigError, match="campaign Job"):
            Job("arkade", "R10K", "hsu", metric="l2")

    def test_metrics_family_expands_to_the_sweep(self):
        from repro.experiments.campaign import (
            METRIC_SWEEP,
            metrics_jobs,
        )

        jobs = metrics_jobs(smoke=True)
        assert len(jobs) == len(METRIC_SWEEP) * 2
        assert {j.metric for j in jobs} == set(METRIC_SWEEP)
        assert {j.variant for j in jobs} == {"baseline", "hsu"}
        assert all(j.family == "arkade" and j.queries == 64 for j in jobs)

    def test_api_rejects_metric_on_non_arkade_families(self):
        from repro import api

        with pytest.raises(ConfigError, match="arkade"):
            api.run_workload("flann", "R10K", 16, "l1")


class TestServingMetricEndpoint:
    def test_metric_endpoint_answers_exactly(self):
        from repro.metrics.transforms import brute_force_metric_knn
        from repro.serving import metric_endpoint

        endpoint = metric_endpoint("R10K", metric="linf", k=3)
        assert endpoint.kind == "metric"
        assert endpoint.family == "arkade"
        assert endpoint.spec.metric == "linf"
        queries = endpoint.sample_queries(5, seed=3)
        neighbors = endpoint.run_batch(queries)
        truth_ids, _ = brute_force_metric_knn(
            endpoint.index.points, queries, 3, metric="linf"
        )
        for qi, row in enumerate(neighbors):
            assert [pid for pid, _ in row] == truth_ids[qi].tolist()

    def test_describe_is_json_friendly(self):
        import json

        from repro.serving import metric_endpoint

        endpoint = metric_endpoint("R10K", metric="l1", k=3)
        json.dumps(endpoint.describe())
