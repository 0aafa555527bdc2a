"""The sharding package and ``docs/SHARDING.md`` must not drift from the code.

Same pattern as ``test_serving_doc.py``: every public class and module in
``repro.sharding`` carries a real docstring, the operator guide exists, is
cross-linked from the top-level docs, and documents every partitioner,
topology, and cost-model knob the code actually exposes.
"""

import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SHARDING_DOC = ROOT / "docs" / "SHARDING.md"

SHARDING_MODULES = (
    "repro.sharding",
    "repro.sharding.index",
    "repro.sharding.interconnect",
    "repro.sharding.metrics",
    "repro.sharding.partition",
    "repro.sharding.simulate",
)


def _public_classes_and_functions(module):
    for name in dir(module):
        if name.startswith("_"):
            continue
        obj = getattr(module, name)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if (getattr(obj, "__module__", "") or "").startswith(
            "repro.sharding"
        ):
            yield name, obj


@pytest.mark.parametrize("module_name", SHARDING_MODULES)
def test_module_docstrings_are_substantial(module_name):
    module = importlib.import_module(module_name)
    doc = (module.__doc__ or "").strip()
    assert len(doc.splitlines()) >= 3, (
        f"{module_name}: module docstring must explain the module's role, "
        "not just name it"
    )


@pytest.mark.parametrize("module_name", SHARDING_MODULES)
def test_every_public_symbol_has_a_docstring(module_name):
    module = importlib.import_module(module_name)
    undocumented = [
        name for name, obj in _public_classes_and_functions(module)
        if not (obj.__doc__ or "").strip()
    ]
    assert not undocumented, (
        f"{module_name}: public symbols without docstrings: {undocumented}"
    )


def test_public_methods_of_core_classes_are_documented():
    from repro.sharding import (
        Interconnect, InterconnectConfig, ShardedIndex, ShardingMetrics,
    )
    from repro.sharding.metrics import IndexMetrics

    undocumented = []
    for cls in (Interconnect, InterconnectConfig, ShardedIndex,
                ShardingMetrics, IndexMetrics):
        for name, member in inspect.getmembers(cls, inspect.isfunction):
            if name.startswith("_"):
                continue
            if not (member.__doc__ or "").strip():
                undocumented.append(f"{cls.__name__}.{name}")
    assert not undocumented, f"undocumented public methods: {undocumented}"


def test_all_exports_resolve():
    sharding = importlib.import_module("repro.sharding")
    for name in sharding.__all__:
        assert getattr(sharding, name, None) is not None, name


class TestShardingGuide:
    def test_doc_exists_and_is_cross_linked(self):
        assert SHARDING_DOC.is_file()
        for linker in ("README.md", "docs/ARCHITECTURE.md",
                       "docs/METRICS.md", "docs/SERVING.md",
                       "EXPERIMENTS.md"):
            text = (ROOT / linker).read_text()
            assert "SHARDING.md" in text, (
                f"{linker} does not link SHARDING.md"
            )

    def test_doc_covers_every_partitioner(self):
        from repro.sharding import (
            HashPartitioner, KeyRangePartitioner, MortonRangePartitioner,
        )

        text = SHARDING_DOC.read_text()
        for cls in (MortonRangePartitioner, HashPartitioner,
                    KeyRangePartitioner):
            assert cls.__name__ in text, (
                f"SHARDING.md must document {cls.__name__}"
            )
            assert f"`{cls.name}`" in text, (
                f"SHARDING.md must name the `{cls.name}` strategy"
            )

    def test_doc_covers_every_topology_and_config_knob(self):
        import dataclasses

        from repro.sharding import TOPOLOGIES, InterconnectConfig

        text = SHARDING_DOC.read_text()
        for topology in TOPOLOGIES:
            assert f"`{topology}`" in text, (
                f"SHARDING.md must document the {topology!r} topology"
            )
        for field in dataclasses.fields(InterconnectConfig):
            assert f"`{field.name}`" in text, (
                f"SHARDING.md must document InterconnectConfig.{field.name}"
            )

    def test_doc_covers_the_key_concepts(self):
        text = SHARDING_DOC.read_text()
        for required in ("bit-identical", "makespan", "scatter", "gather",
                         "merge", "exactness", "load_imbalance",
                         "tests/goldens/gpusim_smoke.json",
                         "python -m repro.experiments.scaling",
                         "`sharded`", "--families scaling"):
            assert required.lower() in text.lower(), (
                f"SHARDING.md must document {required!r}"
            )

    def test_quickstart_names_real_symbols(self):
        """The guide's quickstart imports must exist in the package."""
        sharding = importlib.import_module("repro.sharding")
        text = SHARDING_DOC.read_text()
        for symbol in ("ShardedIndex", "simulate_sharded", "Interconnect",
                       "InterconnectConfig", "ShardingMetrics",
                       "partitioner_for"):
            assert hasattr(sharding, symbol), symbol
            assert symbol in text, (
                f"SHARDING.md must mention {symbol}"
            )

    def test_doc_names_the_sharded_job_axes(self):
        """The guide must document the campaign job axes the sweep uses."""
        text = SHARDING_DOC.read_text()
        for axis in ("`scale`", "`shards`", "`shard`"):
            assert axis in text, f"SHARDING.md must document the {axis} axis"
