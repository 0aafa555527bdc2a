"""The ``repro.api.simulate`` facade.

Covers the api_redesign contract: every input shape (named workload,
``WorkloadRun``, ``TraceBundle``, ``KernelTrace``) simulates to the same
``SimStats``, and the per-call ``cache=`` override is scoped to the
call.
"""

import pytest

from repro import api
from repro.errors import ConfigError
from repro.experiments import campaign, common
from repro.gpusim import KernelTrace, WarpInstr, WarpTrace
from repro.workloads import run_btree, to_traces

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


def _probe_kernel():
    return KernelTrace(
        warps=[WarpTrace(instructions=[WarpInstr("alu", repeat=8)])],
        name="api-probe",
    )


class TestWorkloadSpecs:
    def test_tuple_string_and_dataclass_specs_agree(self):
        via_tuple = api.simulate(
            (FAMILY, ABBR), variant="baseline", queries=QUERIES
        )
        via_string = api.simulate(
            f"{FAMILY}/{ABBR}", variant="baseline", queries=QUERIES
        )
        via_spec = api.simulate(
            api.Workload(FAMILY, ABBR, QUERIES), variant="baseline"
        )
        assert via_tuple == via_string == via_spec

    def test_queries_kwarg_overrides_spec(self):
        small = api.simulate(
            api.Workload(FAMILY, ABBR, 64), variant="baseline", queries=QUERIES
        )
        direct = api.simulate((FAMILY, ABBR), variant="baseline",
                              queries=QUERIES)
        assert small == direct

    def test_unrecognized_spec_is_rejected(self):
        with pytest.raises(ConfigError):
            api.simulate(12345)
        with pytest.raises(ConfigError):
            api.simulate("no-slash-here")

    def test_recorded_trace_requires_config(self):
        with pytest.raises(ConfigError):
            api.simulate(_probe_kernel(), variant="v")


class TestInputShapeEquivalence:
    def test_run_bundle_and_kernel_paths_agree(self):
        run = run_btree(ABBR, num_queries=QUERIES)
        bundle = to_traces(run)
        config = common.config_for(FAMILY)
        via_run = api.simulate(run, variant="hsu", config=config,
                               label=(FAMILY, ABBR))
        via_bundle = api.simulate(bundle, variant="hsu", config=config,
                                  label=(FAMILY, ABBR))
        via_kernel = api.simulate(bundle.hsu, variant="hsu", config=config,
                                  label=(FAMILY, ABBR))
        assert via_run == via_bundle == via_kernel

    def test_named_path_matches_recorded_path(self):
        named = api.simulate((FAMILY, ABBR), variant="baseline",
                             queries=QUERIES)
        bundle = api.trace_bundle(FAMILY, ABBR, QUERIES)
        recorded = api.simulate(
            bundle.baseline, variant="baseline",
            config=common.config_for(FAMILY), label=(FAMILY, ABBR),
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

    def test_invalid_mode_is_rejected(self):
        with pytest.raises(ConfigError):
            api.simulate((FAMILY, ABBR), cache="sometimes")


class TestRemovedShims:
    """The PR-4 deprecation shims are gone; only the infrastructure alias
    survives in ``repro.experiments.common``."""

    @pytest.mark.parametrize("shim", [
        "workload_run", "baseline_stats", "hsu_stats", "simulate_recorded",
    ])
    def test_shims_are_removed(self, shim):
        assert not hasattr(common, shim)

    def test_trace_bundle_alias_survives(self):
        assert common.trace_bundle is api.trace_bundle
