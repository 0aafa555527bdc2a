"""Shared benchmark configuration.

Each benchmark regenerates one paper table or figure and asserts its shape.
Heavy paired simulations are cached per process
(``repro.experiments.common``), so the full suite shares one
trace-collection campaign across figures, exactly like the paper's
methodology.  The quantity of interest is the regenerated figure, not a
harness's timing of it, so the suite needs only pytest:
``python -m pytest -q benchmarks/``.
"""

import pytest


@pytest.fixture
def once():
    """Run a figure computation exactly once and return its result."""

    def runner(func, *args, **kwargs):
        return func(*args, **kwargs)

    return runner
