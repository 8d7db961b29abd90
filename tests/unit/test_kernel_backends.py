"""Unit tests for the kernel-backend registry and its selection rules.

The differential battery (``tests/property/test_prop_backends.py``)
proves the backends bit-identical; this module pins the *plumbing*:
registry resolution order (argument → index → environment → default),
fail-fast validation, and the lazy plain-list mirrors that only the
``python`` reference loop needs.
"""

import numpy as np
import pytest

from repro.core import KDash
from repro.exceptions import InvalidParameterError
from repro.graph import scale_free_digraph
from repro.query.backends import (
    DEFAULT_BACKEND,
    ENV_VAR,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend_name,
)
from repro.query.kernel import pruned_scan


@pytest.fixture
def graph():
    return scale_free_digraph(60, 240, seed=7)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert set(available_backends()) >= {"python", "numpy"}

    def test_backends_are_singletons(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_default_resolution(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_backend_name() == DEFAULT_BACKEND

    def test_env_var_resolution(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        assert resolve_backend_name() == "numpy"
        # An explicit argument always beats the environment.
        assert resolve_backend_name("python") == "python"

    def test_env_var_is_normalised(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "  NumPy ")
        assert resolve_backend_name() == "numpy"

    def test_unknown_name_fails_fast(self, monkeypatch):
        with pytest.raises(InvalidParameterError, match="unknown kernel backend"):
            resolve_backend_name("fortran")
        monkeypatch.setenv(ENV_VAR, "fortran")
        with pytest.raises(InvalidParameterError, match="unknown kernel backend"):
            resolve_backend_name()

    def test_get_backend_passes_through_objects(self):
        backend = get_backend("numpy")
        assert get_backend(backend) is backend

    def test_register_rejects_bad_names(self):
        class Bad:
            name = "NotLower"

        with pytest.raises(InvalidParameterError, match="lowercase"):
            register_backend(Bad())


class TestIndexSelection:
    def test_ctor_choice_sticks(self, graph):
        index = KDash(graph, c=0.9, kernel_backend="numpy").build()
        assert index._prepared.backend == "numpy"

    def test_env_sets_ctor_default(self, graph, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        index = KDash(graph, c=0.9).build()
        assert index._prepared.backend == "numpy"

    def test_invalid_ctor_choice_fails_at_construction(self, graph):
        with pytest.raises(InvalidParameterError, match="unknown kernel backend"):
            KDash(graph, c=0.9, kernel_backend="gpu")

    def test_call_argument_overrides_index_choice(self, graph):
        """``pruned_scan(backend=...)`` wins over the index's backend."""
        index = KDash(graph, c=0.9, kernel_backend="numpy").build()
        prepared = index._prepared
        y = prepared.workspace()
        rows = prepared.scatter_column(y, 0)
        want = pruned_scan(
            prepared,
            y,
            (0,),
            k=5,
            total_mass=prepared.total_mass_of(0),
            backend="python",
        )
        got = pruned_scan(
            prepared, y, (0,), k=5, total_mass=prepared.total_mass_of(0)
        )
        prepared.clear_rows(y, rows)
        assert got == want


class TestLazyPythonMirrors:
    """The plain-list hot-path mirrors only exist for the reference loop."""

    def test_numpy_only_usage_never_materialises_mirrors(self, graph):
        index = KDash(graph, c=0.9, kernel_backend="numpy").build()
        prepared = index._prepared
        assert not prepared.python_mirrors_built
        index.top_k(0, k=5)
        index.above_threshold(1, 1e-6)
        index.top_k_personalized({0: 0.5, 3: 0.5}, 5)
        assert not prepared.python_mirrors_built

    def test_python_usage_builds_mirrors_lazily(self, graph):
        index = KDash(graph, c=0.9, kernel_backend="python").build()
        prepared = index._prepared
        assert not prepared.python_mirrors_built
        index.top_k(0, k=5)
        assert prepared.python_mirrors_built

    def test_mirrors_match_their_arrays(self, graph):
        prepared = KDash(graph, c=0.9).build()._prepared
        assert prepared.amax_col == prepared.amax_col_arr.tolist()
        assert prepared.position == prepared.position_arr.tolist()
        assert prepared.uinv_indptr == prepared.uinv_indptr_arr.tolist()
        assert prepared.python_mirrors_built

