"""Shared fixtures for the test suite."""

import contextlib
import warnings

import numpy as np
import pytest

from repro.graph import from_edges, uniform_random
from repro.sim import ckernels


@pytest.fixture
def paper_example_graph():
    """The paper's running example (Fig. 1): 5 vertices, 10 edges.

    CSR (out-neighbors): 0->{2}, 1->{0,4}, 2->{0,1,3}, 3->{1,4}, 4->{0,2}.
    The paper draws 8 edges; we use the full Fig. 5 matrix (10 non-zeros).
    """
    return from_edges(
        [
            (0, 2),
            (1, 0),
            (1, 4),
            (2, 0),
            (2, 1),
            (2, 3),
            (3, 1),
            (3, 4),
            (4, 0),
            (4, 2),
        ],
        num_vertices=5,
    )


@pytest.fixture
def small_random_graph():
    """A 512-vertex uniform graph for mechanics tests."""
    return uniform_random(512, avg_degree=8.0, seed=3)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def no_ckernels(tmp_path_factory, monkeypatch):
    """Context manager under which ``ckernels.lib()`` returns None.

    Simulates a host without a C toolchain: ``REPRO_CC`` names a failing
    compiler and ``REPRO_CKERNELS_DIR`` an empty directory, so no cached
    library is loaded either. The memoized build outcome is reset on
    entry and on exit, so the compiled library (if any) is back after
    the ``with`` block; runs before the block can serve as the compiled
    baseline.
    """
    @contextlib.contextmanager
    def disabled():
        with monkeypatch.context() as patch:
            patch.setenv(ckernels.CC_ENV, "/bin/false")
            patch.setenv(
                "REPRO_CKERNELS_DIR", str(tmp_path_factory.mktemp("no-cc"))
            )
            ckernels.reset()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    assert ckernels.lib() is None
                yield
            finally:
                ckernels.reset()

    return disabled
