"""The ``repro.api.simulate`` facade.

A named simulation is one campaign ``Job``: ``simulate`` accepts only a
``(family, abbr)`` tuple, hands its keyword axes to ``Job`` (which checks
them before any workload runs), matches the recorded-trace path
(``campaign.cached_simulate``) bit for bit, and scopes its ``cache=``
override to the call.
"""

import pytest

from repro import api
from repro.compiler.ops import WarpOp, WarpOps
from repro.errors import ConfigError
from repro.experiments import campaign, common
from repro.gpusim import KernelTrace, WarpInstr, WarpTrace
from repro.workloads import TraceBundle, WorkloadRun, to_trace

FAMILY, ABBR, QUERIES = "btree", "B+10K", 32


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    campaign.set_cache_mode("on")
    api.clear_caches()
    yield tmp_path
    campaign.set_cache_mode("on")
    api.clear_caches()


@pytest.fixture
def no_workload():
    """Fail the test if any workload executes (undone before
    ``isolated_cache`` clears the memoized ``run_workload``)."""

    def never(*args, **kwargs):
        raise AssertionError("a workload ran past validation")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(api, "run_workload", never)
        yield


def _probe_kernel():
    return KernelTrace(
        warps=[WarpTrace(instructions=[WarpInstr("alu", repeat=8)])],
        name="api-probe",
    )


class TestWorkloadSpecs:
    def test_queries_kwarg_overrides_spec(self):
        """``queries=`` reaches the Job: the call warms exactly the cache
        entry of the campaign job with that query budget."""
        job = campaign.Job(FAMILY, ABBR, "baseline", queries=QUERIES)
        via_api = api.simulate((FAMILY, ABBR), variant="baseline",
                               queries=QUERIES)
        outcome = campaign.run_job(job)
        assert outcome.cached and outcome.stats == via_api

    def test_unrecognized_spec_is_rejected(self):
        with pytest.raises(ConfigError):
            api.simulate(12345)
        with pytest.raises(ConfigError):
            api.simulate("no-slash-here")

    def test_only_a_family_abbr_tuple_is_accepted(self, no_workload):
        """Every other input shape and keyword fails before a workload runs."""
        run = WorkloadRun(
            "probe", "parallel",
            WarpOps.from_records([[WarpOp("TAlu", (), 32, a=1)]]),
        )
        kernel = _probe_kernel()
        for workload in (
            kernel, TraceBundle(kernel, kernel), run, f"{FAMILY}/{ABBR}",
            [FAMILY, ABBR], (FAMILY, ABBR, QUERIES),
        ):
            with pytest.raises(ConfigError, match="tuple"):
                api.simulate(workload, variant="hsu")
        for extra in (
            {"config": common.config_for(FAMILY)},
            {"label": (FAMILY, ABBR)},
            {"turbo": True},
        ):
            with pytest.raises(TypeError):
                api.simulate((FAMILY, ABBR), **extra)


class TestInputShapeEquivalence:
    def test_named_path_matches_recorded_path(self):
        named = api.simulate((FAMILY, ABBR), variant="baseline",
                             queries=QUERIES)
        trace = to_trace(api.run_workload(FAMILY, ABBR, QUERIES), "baseline")
        recorded = campaign.cached_simulate(
            FAMILY, ABBR, "baseline", common.config_for(FAMILY), trace
        )
        assert named == recorded


class TestCacheOverride:
    def test_cache_off_is_scoped_to_the_call(self):
        api.simulate((FAMILY, ABBR), variant="baseline", queries=QUERIES,
                     cache="off")
        assert campaign.cache_mode() == "on"
        assert not list(campaign.cache_dir().rglob("*.json"))

    def test_cache_rebuild_recomputes_but_stores(self):
        cold = api.simulate((FAMILY, ABBR), variant="baseline",
                            queries=QUERIES)
        api.clear_caches()
        before = campaign.cache_stats.snapshot()
        rebuilt = api.simulate((FAMILY, ABBR), variant="baseline",
                               queries=QUERIES, cache="rebuild")
        assert campaign.cache_stats.delta(before).hits == 0
        assert rebuilt == cold
        assert campaign.cache_mode() == "on"

    def test_invalid_mode_is_rejected(self, no_workload):
        with pytest.raises(ConfigError):
            api.simulate((FAMILY, ABBR), cache="sometimes")
        assert campaign.cache_mode() == "on"

    @pytest.mark.parametrize("width", [0, -4, 7])
    def test_invalid_euclid_width_is_rejected(self, width, no_workload):
        """A width that is not a positive even number fails before any
        workload runs or lowers."""
        with pytest.raises(ConfigError, match="euclid_width"):
            api.simulate(("ggnn", "S10K"), euclid_width=width)


class TestRemovedShims:
    """The historical entry points in ``repro.experiments.common`` are
    gone, the ``trace_bundle`` alias included: call :mod:`repro.api`."""

    @pytest.mark.parametrize("shim", [
        "workload_run", "baseline_stats", "hsu_stats", "simulate_recorded",
        "trace_bundle",
    ])
    def test_shims_are_removed(self, shim):
        assert not hasattr(common, shim)
