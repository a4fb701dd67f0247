"""Property tests: invariants the docstrings promise, checked on random inputs."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from hypercolor import affinity_weights  # noqa: E402

# 8-bit-style guides: distinct levels stay at least one step apart, so an
# affine map cannot round a difference between two pixels away
guides = st.tuples(st.integers(2, 12), st.integers(2, 12)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.integers(0, 255).map(float))
)


@settings(max_examples=60, deadline=None)
@given(
    guide=guides,
    scale=st.floats(0.25, 4.0),
    offset=st.floats(-100.0, 100.0),
)
def test_affinity_rows_sum_to_one_and_ignore_affine_rescale(guide, scale, offset):
    weights = affinity_weights(guide)
    assert np.all(weights >= 0.0)
    np.testing.assert_allclose(weights.sum(axis=0), 1.0, rtol=0, atol=1e-12)
    rescaled = affinity_weights(scale * guide + offset)
    np.testing.assert_allclose(rescaled, weights, rtol=0, atol=1e-7)
