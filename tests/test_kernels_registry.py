"""The kernel-backend accessor: one cached numpy backend.

``get_backend()`` hands every call site the same
:class:`~repro.kernels.reference.ReferenceBackend` instance (a profiler
patches the class to time every kernel at once), and
``resolve_backend_name()`` reports its name for benchmark records.
"""

from __future__ import annotations

from repro.kernels import get_backend, resolve_backend_name
from repro.kernels.reference import ReferenceBackend


class TestResolution:
    def test_default_is_reference(self):
        assert resolve_backend_name() == "reference"
        assert get_backend().name == "reference"

    def test_get_backend_is_cached(self):
        backend = get_backend()
        assert isinstance(backend, ReferenceBackend)
        assert get_backend() is backend
