"""Unit tests for the kernel dispatch registry."""

import numpy as np
import pytest

from repro import kernels
from repro.kernels import registry
from repro.kernels.registry import (
    BACKEND_CHOICES,
    ENV_VAR,
    available_backends,
    backend_info,
    get_backend,
    get_kernel,
    jit_active,
    kernel_names,
    register,
    resolve_backend,
    set_backend,
    use_backend,
)

ALL_KERNELS = (
    "expand_frontier",
    "bfs_level_transform",
    "effective_degrees",
    "trim_decrement",
    "wcc_hook_round",
    "trim2_pattern_pairs",
    "dfs_collect_colored",
    "ms_expand_frontier",
    "ms_fwbw_intersect",
)


@pytest.fixture(autouse=True)
def _clean_backend():
    """Every test starts and ends with no backend pinned."""
    set_backend(None)
    yield
    set_backend(None)


class TestResolution:
    def test_default_is_auto_resolving_to_numba(self):
        assert resolve_backend("auto") == "numba"
        assert get_backend() in ("numpy", "numba")

    def test_numpy_resolves_to_itself(self):
        assert resolve_backend("numpy") == "numpy"

    def test_unknown_request_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("cuda")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            set_backend("cuda")

    def test_set_backend_pins_and_clears(self):
        set_backend("numpy")
        assert get_backend() == "numpy"
        set_backend(None)
        assert registry._override is None

    def test_env_var_respected(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        assert get_backend() == "numpy"

    def test_explicit_pin_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        set_backend("numba")
        assert get_backend() == "numba"

    def test_use_backend_restores_previous(self):
        set_backend("numba")
        with use_backend("numpy"):
            assert get_backend() == "numpy"
        assert get_backend() == "numba"

    def test_use_backend_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_backend("numpy"):
                raise RuntimeError("boom")
        assert registry._override is None


class TestRegistryContents:
    def test_all_hot_kernels_have_a_reference(self):
        for name in ALL_KERNELS:
            assert name in kernel_names()
            assert "numpy" in available_backends(name)

    def test_get_kernel_unknown_name(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            get_kernel("warp_drive")

    def test_per_kernel_fallback_to_reference(self):
        # A kernel registered only under numpy must still dispatch when
        # the accelerated backend is active.
        @register("only_numpy_test_kernel", "numpy")
        def impl():
            return "reference"

        try:
            with use_backend("numba"):
                assert get_kernel("only_numpy_test_kernel")() == "reference"
        finally:
            registry._REGISTRY.pop("only_numpy_test_kernel")

    def test_reregistration_replaces(self):
        @register("replace_test_kernel", "numpy")
        def first():
            return 1

        @register("replace_test_kernel", "numpy")
        def second():
            return 2

        try:
            assert get_kernel("replace_test_kernel", "numpy")() == 2
        finally:
            registry._REGISTRY.pop("replace_test_kernel")

    def test_register_rejects_virtual_backends(self):
        with pytest.raises(ValueError):
            register("x", "auto")

    def test_backend_info_shape(self):
        info = backend_info()
        assert set(info) == {
            "requested", "resolved", "numba_available", "jit_active",
            "kernels",
        }
        assert info["resolved"] in ("numpy", "numba", "fastpath")
        assert isinstance(info["numba_available"], bool)
        for name in ALL_KERNELS:
            assert name in info["kernels"]
        if not info["numba_available"]:
            assert info["jit_active"] is False

    def test_backend_info_never_claims_numba_without_numba(self):
        # Regression: backend_info() used to echo the resolved slot
        # name ("numba") even when numba was not importable, so
        # benchmark JSON recorded a JIT run that never happened.  The
        # (resolved, numba_available, jit_active) triple must be
        # consistent: "numba" only ever appears with the JIT active.
        info = backend_info()
        triple = (
            info["resolved"],
            info["numba_available"],
            info["jit_active"],
        )
        if registry.numba_available():
            assert triple == ("numba", True, True)
        else:
            assert triple == ("fastpath", False, False)
        if info["resolved"] == "numba":
            assert info["jit_active"]

    def test_backend_info_numpy_pin_reports_numpy(self):
        with use_backend("numpy"):
            info = backend_info()
        assert info["resolved"] == "numpy"
        assert info["jit_active"] is False

    @pytest.mark.parametrize("importable", [False, True])
    def test_jit_active_needs_numba_and_the_numba_slot(
        self, monkeypatch, importable
    ):
        monkeypatch.setattr(registry, "_numba_available", importable)
        with use_backend("numpy"):
            assert jit_active() is False
        for request in ("numba", "auto"):
            with use_backend(request):
                assert jit_active() is importable
                assert backend_info()["jit_active"] is importable

    def test_numba_request_without_numba_warns_once(self):
        if registry.numba_available():
            pytest.skip("numba installed; fallback warning not reachable")
        registry._warned_missing_numba = False
        with pytest.warns(RuntimeWarning, match="numba is not"):
            assert resolve_backend("numba") == "numba"
        # second resolution is silent
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resolve_backend("numba")


class TestDispatcherValidation:
    def test_transition_targets_may_not_be_sources(self):
        indptr = np.array([0, 1, 1], dtype=np.int64)
        indices = np.array([1], dtype=np.int64)
        color = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError, match="transition targets"):
            kernels.bfs_level_transform(
                indptr, indices, np.array([0]), color, {0: 1, 1: 2}
            )
        with pytest.raises(ValueError, match="transition targets"):
            kernels.dfs_collect_colored(indptr, indices, 0, {0: 1, 1: 2}, color)

    @pytest.mark.parametrize("backend", ["numpy", "numba"])
    def test_chained_transition_map_refused_on_every_backend(self, backend):
        """``{1: 2, 2: 3}``: a target that is also a source is refused
        before any node is recoloured, with one message everywhere."""
        indptr = np.array([0, 1, 2, 2], dtype=np.int64)
        indices = np.array([1, 2], dtype=np.int64)
        color = np.array([1, 2, 1], dtype=np.int64)
        chained = {1: 2, 2: 3}
        want = (
            "transition targets may not also be transition sources: "
            f"{chained}"
        )
        with use_backend(backend):
            with pytest.raises(ValueError) as bfs:
                kernels.bfs_level_transform(
                    indptr, indices, np.array([0]), color, chained
                )
            with pytest.raises(ValueError) as dfs:
                kernels.dfs_collect_colored(indptr, indices, 0, chained, color)
        assert str(bfs.value) == str(dfs.value) == want
        assert color.tolist() == [1, 2, 1]

    def test_dfs_pivot_color_must_be_mapped(self):
        indptr = np.array([0, 1, 1], dtype=np.int64)
        indices = np.array([1], dtype=np.int64)
        color = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError, match="pivot colour"):
            kernels.dfs_collect_colored(indptr, indices, 0, {7: 9}, color)

    def test_expand_unique_excludes_sources(self):
        indptr = np.array([0, 2, 2], dtype=np.int64)
        indices = np.array([1, 1], dtype=np.int64)
        with pytest.raises(ValueError, match="unique"):
            kernels.expand_frontier(
                indptr, indices, np.array([0]),
                return_sources=True, unique=True,
            )
