"""Property tests, derandomized so that tier-1 runs are deterministic."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from proxpoint import (
    SplitMix64,
    accelerated_ppm,
    linear_resolvent,
    ppm,
    restarted,
    verify_certificate,
)
from conftest import random_monotone_operator

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=25)
SEEDS = st.integers(min_value=0, max_value=2 ** 64 - 1)


@PROPERTY
@given(n=st.integers(min_value=2, max_value=400))
def test_certificate_passes(n):
    report = verify_certificate(n)
    assert report.passed
    assert report.dual_value == 1.0 / (n * n)


@PROPERTY
@given(seed=SEEDS, n=st.integers(0, 64), m=st.integers(0, 64))
def test_splitmix64_stream_is_consistent_across_batches(seed, n, m):
    split = SplitMix64(seed)
    head, tail = split.integers(n), split.integers(m)
    assert np.array_equal(np.concatenate([head, tail]), SplitMix64(seed).integers(n + m))


def _random_problem(seed, dim):
    rng = SplitMix64(seed)
    op = random_monotone_operator(rng, dim)
    return linear_resolvent(op, 1.0), rng.normals(dim)


@PROPERTY
@given(seed=SEEDS, dim=st.integers(2, 5), iters=st.integers(1, 40))
def test_restart_every_step_is_ppm(seed, dim, iters):
    resolvent, x0 = _random_problem(seed, dim)
    trace_r = restarted(resolvent, x0, 1, iters)
    trace_p = ppm(resolvent, x0, iters)
    assert np.array_equal(trace_r.residuals, trace_p.residuals)


@PROPERTY
@given(seed=SEEDS, dim=st.integers(2, 5), iters=st.integers(1, 40),
       extra=st.integers(0, 5))
def test_restart_beyond_horizon_is_accelerated(seed, dim, iters, extra):
    resolvent, x0 = _random_problem(seed, dim)
    trace_r = restarted(resolvent, x0, iters + extra, iters)
    trace_a = accelerated_ppm(resolvent, x0, iters)
    assert np.array_equal(trace_r.residuals, trace_a.residuals)
    assert trace_r.restarts == []
