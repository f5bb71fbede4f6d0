"""Tests for the kernel-backend registry and selection semantics."""

import pytest

from repro.errors import PartitioningError
from repro.kernels import (
    BACKEND_CHOICES,
    KernelBackend,
    available_backends,
    get_backend,
    native_error,
    resolve_backend,
)
from repro.partitioner.config import PartitionerConfig


class TestRegistry:
    def test_python_always_available(self):
        assert "python" in available_backends()
        assert get_backend("python").name == "python"

    def test_available_matches_native_build(self):
        names = available_backends()
        assert ("native" in names) == (native_error() is None)

    def test_get_backend_unknown_raises(self):
        with pytest.raises(PartitioningError, match="unknown kernel backend"):
            get_backend("fortran")

    def test_get_backend_native_is_strict(self):
        # The strict lookup either returns the compiled backend or says
        # why it is unavailable; it never falls back.
        if native_error() is None:
            assert get_backend("native").name == "native"
        else:
            with pytest.raises(PartitioningError, match="native"):
                get_backend("native")

    def test_resolve_auto(self):
        backend = resolve_backend("auto")
        expected = "native" if native_error() is None else "python"
        assert backend.name == expected

    def test_resolve_native_falls_back_silently(self):
        # Explicit "native" must degrade to the reference backend rather
        # than raise when the library cannot be built.
        backend = resolve_backend("native")
        expected = "native" if native_error() is None else "python"
        assert backend.name == expected

    def test_resolve_passthrough_instance(self):
        backend = get_backend("python")
        assert resolve_backend(backend) is backend

    def test_resolve_unknown_raises(self):
        with pytest.raises(PartitioningError, match="unknown kernel backend"):
            resolve_backend("cython")

    def test_resolve_default_is_auto(self):
        assert resolve_backend().name == resolve_backend("auto").name

    def test_backends_are_singletons(self):
        assert get_backend("python") is get_backend("python")

    def test_choices_cover_config_values(self):
        assert set(BACKEND_CHOICES) == {"auto", "python", "native"}

    def test_base_class_is_abstract(self):
        kb = KernelBackend()
        with pytest.raises(NotImplementedError):
            kb.merge_identical(None, None, None)


class TestConfigKnob:
    def test_default_is_auto(self):
        assert PartitionerConfig().kernel_backend == "auto"

    def test_explicit_backend_accepted(self):
        assert PartitionerConfig(kernel_backend="python").kernel_backend == (
            "python"
        )

    def test_bad_backend_rejected(self):
        with pytest.raises(PartitioningError, match="kernel backend"):
            PartitionerConfig(kernel_backend="gpu")
