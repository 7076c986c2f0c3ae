"""Property tests, derandomized so that tier-1 runs are deterministic."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from proxpoint import (
    AffineConstraint,
    ProxDescriptor,
    SplitMix64,
    accelerated_ppm,
    admm,
    linear_resolvent,
    ppm,
    restarted,
    tv_instance,
    tv_solution,
    verify_certificate,
)
from conftest import random_monotone_operator
from test_problems import assert_tv_kkt

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


# Halpern identity (Lieder 2021): the accelerated method's extrapolated
# points are Halpern iterates of the reflected resolvent 2J - I anchored at
# y_0, y_{k+1} = (k+1)/(k+2) (2 J(y_k) - y_k) + y_0/(k+2). Checked step by
# step on the engine's own iterates, to 1e-15 of the run's largest entry
# (about 1.7e-16 is reached).
HALPERN_RTOL = 1e-15


def _halpern_gap(trace):
    """Largest deviation of the trace's y-sequence from Halpern steps,
    re-anchored at every restart, relative to the largest iterate entry."""
    xs, ys = trace.xs, trace.ys
    anchor, worst = 0, 0.0
    for k in range(len(ys) - 1):
        if k + 1 in trace.restarts:
            assert np.array_equal(ys[k + 1], xs[k + 1])
            anchor = k + 1
            continue
        j = k - anchor
        halpern = (j + 1) / (j + 2) * (2.0 * xs[k + 1] - ys[k]) + ys[anchor] / (j + 2)
        worst = max(worst, float(np.max(np.abs(halpern - ys[k + 1]))))
    return worst / max(np.max(np.abs(xs)), np.max(np.abs(ys)))


@PROPERTY
@given(seed=SEEDS, dim=st.integers(2, 5), iters=st.integers(2, 60))
def test_accelerated_y_sequence_is_halpern(seed, dim, iters):
    resolvent, x0 = _random_problem(seed, dim)
    assert _halpern_gap(accelerated_ppm(resolvent, x0, iters)) <= HALPERN_RTOL


@PROPERTY
@given(seed=SEEDS, dim=st.integers(2, 5), iters=st.integers(2, 60),
       interval=st.integers(2, 12))
def test_restarted_is_re_anchored_halpern(seed, dim, iters, interval):
    resolvent, x0 = _random_problem(seed, dim)
    trace = restarted(resolvent, x0, interval, iters)
    assert len(trace.restarts) == (iters - 1) // interval
    assert _halpern_gap(trace) <= HALPERN_RTOL


@PROPERTY
@given(seed=SEEDS, d1=st.integers(2, 80), p=st.integers(1, 8),
       log_gamma=st.floats(-3.0, 2.0), noise_scale=st.sampled_from([0.0, 0.1, 1.0]))
def test_tv_solution_is_a_kkt_and_admm_fixed_point(seed, d1, p, log_gamma, noise_scale):
    gamma = 10.0 ** log_gamma
    inst = tv_instance(d1, p, seed, noise_scale)
    x_star, nu_star = tv_solution(inst["H"], inst["b"], gamma)
    assert_tv_kkt(inst["H"], inst["b"], gamma, x_star, nu_star)
    # One plain ADMM step from (x*, D x*, nu*) stays put.
    d, rho = inst["D"], 0.05
    cons = AffineConstraint(d, -np.eye(d1 - 1), np.zeros(d1 - 1))
    step = admm(ProxDescriptor.quadratic(inst["H"], inst["b"]),
                ProxDescriptor.l1(d1 - 1, gamma), cons, rho,
                x_star, d @ x_star, nu_star, 1, variant="plain")
    radius = float(np.linalg.norm(nu_star + rho * (d @ x_star)))
    assert math.sqrt(step.residuals[0]) <= 1e-9 * max(1.0, radius)
