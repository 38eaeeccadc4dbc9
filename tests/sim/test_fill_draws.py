"""BRRIP-family fill draws: numpy's MT19937 against ``random.Random``.

``_fill_draws`` seeds ``random.Random(seed)`` and hands its MT19937
state to ``np.random.RandomState``. The reference policies draw lazily
from ``random.Random(seed).random()``; the oracle below is that loop.
If CPython ever changes the ``getstate()`` layout or its double
construction, these tests fail instead of the replay kernels silently
drifting from the generic path.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernels import _fill_draws


def fill_draws_oracle(seed, n):
    draw = random.Random(seed).random
    return np.fromiter((draw() for _ in range(n)), dtype=np.float64, count=n)


def test_getstate_layout_is_mt19937():
    version, internal, gauss = random.Random(42).getstate()
    assert version == 3, "CPython changed random.Random's state version"
    assert len(internal) == 625, "expected 624 MT19937 words plus position"
    assert gauss is None


@pytest.mark.parametrize("seed", [0, 42, -3, 2**40 + 7])
@pytest.mark.parametrize("n", [0, 1, 623, 624, 625, 10_000])
def test_matches_random_random(seed, n):
    got = _fill_draws(seed, n)
    assert got.dtype == np.float64
    assert got.shape == (n,)
    assert np.array_equal(got, fill_draws_oracle(seed, n))


@settings(max_examples=50, deadline=None)
@given(st.integers(-(2**70), 2**70), st.integers(0, 2000))
def test_matches_random_random_any_seed(seed, n):
    assert np.array_equal(_fill_draws(seed, n), fill_draws_oracle(seed, n))
