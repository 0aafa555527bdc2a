"""The kernels package and ``docs/KERNELS.md`` must not drift from the code.

Same pattern as ``test_sharding_doc.py``: every public symbol in
``repro.kernels`` carries a real docstring, the operator guide exists, is
cross-linked from the top-level docs and documents every kernel the
backend actually exposes, and no doc names a backend or engine knob that
no longer exists.  The layering rule (kernels never imports the layers
that call it) is enforced here too.
"""

import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
KERNELS_DOC = ROOT / "docs" / "KERNELS.md"

KERNELS_MODULES = (
    "repro.kernels",
    "repro.kernels.registry",
    "repro.kernels.reference",
)

#: Every kernel the backend layer owns (methods of ReferenceBackend).
KERNEL_NAMES = (
    "euclid_beats",
    "euclid_beats_rowwise",
    "l1_beats",
    "l1_beats_rowwise",
    "linf_beats",
    "linf_beats_rowwise",
    "normalize_rows",
    "sq_l2_f32",
    "aabb_contains_points",
    "aabb_distance_sq",
    "bvh_point_query",
    "kd_plane_step",
    "segmented_gather",
    "btree_descend",
    "sorted_membership",
    "warp_group_order",
    "coalesce_lines",
)

#: Names of deleted backend/engine selection knobs, kernels and query
#: surfaces.  The docs under :data:`SCANNED_DOCS` must not mention them;
#: ``CHANGES.md`` and ``ROADMAP.md`` record history and are not scanned.
DELETED_SYMBOLS = (
    "REPRO_KERNEL_BACKEND",
    "REPRO_SIM_ENGINE",
    "kernel_backend",
    "use_backend",
    "register_backend",
    "engine_drain",
    "engine_advance",
    "with_engine",
    "[jit]",
    "simulate(backend=",
    "bvh_radius_query",
    "last_events",
    "legacy keyword",
)

SCANNED_DOCS = (
    "README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md", ".claude/**/*.md",
)


def _public_classes_and_functions(module):
    for name in dir(module):
        if name.startswith("_"):
            continue
        obj = getattr(module, name)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if (getattr(obj, "__module__", "") or "").startswith(
            "repro.kernels"
        ):
            yield name, obj


@pytest.mark.parametrize("module_name", KERNELS_MODULES)
def test_module_docstrings_are_substantial(module_name):
    module = importlib.import_module(module_name)
    doc = (module.__doc__ or "").strip()
    assert len(doc.splitlines()) >= 3, (
        f"{module_name}: module docstring must explain the module's role, "
        "not just name it"
    )


@pytest.mark.parametrize("module_name", KERNELS_MODULES)
def test_every_public_symbol_has_a_docstring(module_name):
    module = importlib.import_module(module_name)
    undocumented = [
        name for name, obj in _public_classes_and_functions(module)
        if not (obj.__doc__ or "").strip()
    ]
    assert not undocumented, (
        f"{module_name}: public symbols without docstrings: {undocumented}"
    )


def test_every_kernel_method_is_documented():
    from repro.kernels.reference import ReferenceBackend

    undocumented = []
    for name in KERNEL_NAMES:
        member = getattr(ReferenceBackend, name)
        if not (member.__doc__ or "").strip():
            undocumented.append(f"ReferenceBackend.{name}")
    assert not undocumented, f"undocumented kernels: {undocumented}"


def test_all_exports_resolve():
    kernels = importlib.import_module("repro.kernels")
    for name in kernels.__all__:
        assert getattr(kernels, name, None) is not None, name


def test_kernels_layer_imports_no_call_site_layers():
    """``repro.kernels`` is below search/compiler/gpusim: it must never
    import them (the call sites import *it*), or selection would cycle."""
    import sys
    import subprocess

    probe = (
        "import sys\n"
        "import repro.kernels\n"
        "import repro.kernels.reference\n"
        "banned = [m for m in sys.modules if m.startswith((\n"
        "    'repro.search', 'repro.bvh', 'repro.kdtree', 'repro.graph',\n"
        "    'repro.btree', 'repro.compiler', 'repro.gpusim',\n"
        "    'repro.workloads', 'repro.serving', 'repro.sharding',\n"
        "    'repro.experiments'))]\n"
        "print(','.join(sorted(banned)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=60,
        cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin"},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "", (
        f"repro.kernels pulled in call-site layers: {out.stdout.strip()}"
    )


class TestKernelsGuide:
    def test_doc_exists_and_is_cross_linked(self):
        assert KERNELS_DOC.is_file()
        for linker in ("README.md", "docs/ARCHITECTURE.md",
                       "docs/CAMPAIGN.md"):
            text = (ROOT / linker).read_text()
            assert "KERNELS.md" in text, (
                f"{linker} does not link KERNELS.md"
            )

    def test_doc_covers_every_kernel(self):
        text = KERNELS_DOC.read_text()
        for kernel in KERNEL_NAMES:
            assert f"`{kernel}`" in text, (
                f"KERNELS.md must document the `{kernel}` kernel"
            )

    def test_doc_covers_the_key_concepts(self):
        text = KERNELS_DOC.read_text()
        for required in ("bit-identical", "get_backend",
                         "resolve_backend_name", "ReferenceBackend",
                         "stable_hash", "fingerprint", "golden",
                         "CACHE_SCHEMA_VERSION", "BENCH_simcore.json"):
            assert required.lower() in text.lower(), (
                f"KERNELS.md must document {required!r}"
            )

    def test_docs_name_no_deleted_symbol(self):
        stale = [
            f"{path.relative_to(ROOT)}: {symbol}"
            for pattern in SCANNED_DOCS
            for path in sorted(ROOT.glob(pattern))
            for symbol in DELETED_SYMBOLS
            if symbol in path.read_text()
        ]
        assert not stale, f"docs name deleted symbols: {stale}"
