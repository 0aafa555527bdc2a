"""The example scripts run end-to-end (scaled-down where needed)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, tmp_path: Path, *args: str) -> str:
    """Run one example with its manifests and campaign cache under
    ``tmp_path``, so a run neither writes into the checkout nor reads
    cache entries an earlier run left there."""
    env = dict(os.environ)
    env["REPRO_RESULTS_DIR"] = str(tmp_path / "results")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=900,
        env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self, tmp_path):
        out = run_example("quickstart.py", tmp_path)
        assert "POINT_EUCLID beats" in out
        assert "speedup" in out

    def test_btree_kvstore(self, tmp_path):
        out = run_example("btree_kvstore.py", tmp_path)
        assert "lookup(4242) = 42420.0" in out
        assert "range_scan" in out

    def test_raytrace_scene(self, tmp_path):
        target = tmp_path / "scene.pgm"
        out = run_example("raytrace_scene.py", tmp_path, str(target))
        assert target.exists()
        header = target.read_bytes()[:2]
        assert header == b"P5"
        assert "primary rays" in out

    def test_rtindex_comparison(self, tmp_path):
        out = run_example("rtindex_comparison.py", tmp_path)
        assert "speedup" in out.lower()
        for kind in ("point", "triangle"):
            manifest = f"rtindex-k8192-{kind}-keys.json"
            assert (tmp_path / "results" / manifest).is_file(), manifest

    def test_ann_search(self, tmp_path):
        out = run_example("ann_search.py", tmp_path)
        assert "recall@10" in out
        assert "recall@5" in out
        assert "Speedup" in out
