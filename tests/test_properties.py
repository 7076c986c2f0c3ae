"""Property tests, derandomized so that tier-1 runs are deterministic."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from proxpoint import (
    AffineConstraint,
    ProxDescriptor,
    SplitMix64,
    DenseLinearOperator,
    QuadraticSaddle,
    accelerated_ppm,
    admm,
    forward_method,
    iterate,
    linear_resolvent,
    ppm,
    preconditioned_resolvent_map,
    restarted,
    rotation_worst_case,
    saddle_resolvent_map,
    tv_instance,
    tv_solution,
    verify_certificate,
    yosida,
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



# Both rates on linear resolvents: a monotone linear operator has the origin
# as a zero, so R = ||x0||. Over 400 such draws the largest residual/bound
# ratio was 0.99996 for either variant, at i = 1, where both bounds are R^2
# and both methods take the same step; the slack is the CLI's bound gate.
@PROPERTY
@given(seed=SEEDS, dim=st.integers(1, 6), log_lam=st.floats(-2.0, 2.0),
       log_strength=st.floats(-3.0, 0.0))
def test_plain_and_accelerated_rates_hold_on_random_monotone_operators(
        seed, dim, log_lam, log_strength):
    rng = SplitMix64(seed)
    resolvent = linear_resolvent(random_monotone_operator(rng, dim, 10.0 ** log_strength),
                                 10.0 ** log_lam)
    x0 = rng.normals(dim)
    for variant in ("plain", "proposed"):
        trace = iterate(resolvent, x0, 60, variant, R=float(np.linalg.norm(x0)))
        assert np.all(trace.residuals <= trace.bounds * (1.0 + 1e-9))

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


# Forward steps (ROADMAP item 2): for a beta-cocoercive M, I - beta*M is
# firmly nonexpansive, so the accelerated rate bounds beta^2 ||M y_{i-1}||^2
# by R^2/i^2, with R the distance to a zero of M. Each linear M has the
# zero 0, so R = ||y0|| is admissible. Three families: symmetric PSD M
# (rank 1..dim) with beta a fraction of 1/||M||; the Yosida map of index
# lam of a random monotone operator whose symmetric part is scaled by
# ``fraction**3`` (down to nearly skew), with beta = lam; and the Yosida
# map of the worst-case rotation for horizon n, on which the bound is
# nearly attained. The slack covers rounding only: the residual is a
# difference of iterates of size up to R, while the plain variant's
# (1-1/i)^(i-1)/i rate overshoots the bound by a factor near i/e.
FORWARD_SLACK = 1e-9


def _cocoercive(family, seed, dim, fraction):
    rng = SplitMix64(seed)
    if family == "psd":
        b = rng.normal_matrix(dim, 1 + seed % dim)
        m = b @ b.T
        return DenseLinearOperator(m), fraction / np.linalg.eigvalsh(m)[-1], rng.normals(dim)
    lam = 0.1 + 2.0 * fraction
    if family == "rotation":
        op, y0 = rotation_worst_case(2 + seed % 199, lam), np.array([1.0, 0.0])
    else:
        op, y0 = random_monotone_operator(rng, dim, fraction ** 3), rng.normals(dim)
    return yosida(linear_resolvent(op, lam), lam), lam, y0


@PROPERTY
@given(family=st.sampled_from(["psd", "yosida", "rotation"]), seed=SEEDS,
       dim=st.integers(1, 6), fraction=st.floats(0.05, 1.0), iters=st.integers(1, 120))
def test_accelerated_forward_steps_keep_the_rate(family, seed, dim, fraction, iters):
    operator, beta, y0 = _cocoercive(family, seed, dim, fraction)
    radius = float(np.linalg.norm(y0))
    trace = forward_method(operator, beta, y0, iters, variant="proposed", R=radius)
    i = np.arange(1, len(trace.residuals) + 1)
    assert np.array_equal(trace.bounds, radius ** 2 / i ** 2)
    # The residual column is beta^2 ||M y_{i-1}||^2, up to the rounding of
    # a difference of iterates, which scales with R.
    steps = beta * np.linalg.norm([operator(y) for y in trace.ys], axis=1)
    assert np.allclose(np.sqrt(trace.residuals), steps, rtol=1e-12, atol=1e-12 * radius)
    assert np.all(trace.residuals <= trace.bounds * (1.0 + FORWARD_SLACK))


# Firm nonexpansiveness (ROADMAP item 2): the resolvent J of a monotone
# operator M satisfies ||Jx - Jy||^2 <= <Jx - Jy, x - y>, and the
# preconditioned resolvent (P + lam M)^{-1} P the same in the P-norm. The
# two sides differ by lam <d, M d> with d = Jx - Jy, which is zero when M
# is skew (``strength`` 0), so the slack covers only the rounding of the
# solve, relative to ||x - y||^2 in the same norm. Over 3,000 random draws
# of these families the largest defect was 1.5e-14.
FIRM_SLACK = 1e-12
STRENGTHS = st.sampled_from([0.0, 1e-3, 1.0])


def _firm_defect(apply, inner, x, y):
    """``(||Jx - Jy||^2 - <Jx - Jy, x - y>) / ||x - y||^2`` in the inner
    product ``inner``: at most 0 for a firmly nonexpansive ``J``."""
    d = apply(x) - apply(y)
    return (inner(d, d) - inner(d, x - y)) / inner(x - y, x - y)


@PROPERTY
@given(seed=SEEDS, d1=st.integers(1, 6), d2=st.integers(1, 6), strength=STRENGTHS,
       log_lam=st.floats(-2.0, 2.0))
def test_saddle_resolvent_is_firmly_nonexpansive(seed, d1, d2, strength, log_lam):
    rng = SplitMix64(seed)
    bu, bv = rng.normal_matrix(d1, d1), rng.normal_matrix(d2, d2)
    phi = QuadraticSaddle(strength * (bu @ bu.T), rng.normal_matrix(d2, d1),
                          strength * (bv @ bv.T), a=rng.normals(d1), b=rng.normals(d2))
    resolvent = saddle_resolvent_map(phi, 10.0 ** log_lam)
    x, y = rng.normals(d1 + d2), rng.normals(d1 + d2)
    assert _firm_defect(resolvent, np.dot, x, y) <= FIRM_SLACK


@PROPERTY
@given(seed=SEEDS, dim=st.integers(1, 6), strength=STRENGTHS,
       log_lam=st.floats(-2.0, 2.0), log_shift=st.floats(-2.0, 1.0))
def test_preconditioned_resolvent_is_firmly_nonexpansive_in_the_p_norm(
        seed, dim, strength, log_lam, log_shift):
    rng = SplitMix64(seed)
    op = random_monotone_operator(rng, dim, strength)
    b = rng.normal_matrix(dim, dim)
    precond = b @ b.T + 10.0 ** log_shift * np.eye(dim)
    resolvent = preconditioned_resolvent_map(op, precond, 10.0 ** log_lam)
    x, y = rng.normals(dim), rng.normals(dim)

    def inner(u, v):
        return u @ (precond @ v)

    assert _firm_defect(resolvent, inner, x, y) <= FIRM_SLACK


def _adaptive_restarts(scores):
    """Iterations after which the adaptive rule restarts, reading a run's
    per-iteration scores (none after the last iteration)."""
    restarts, prev = [], math.inf
    for g, score in enumerate(scores[:-1], 1):
        if score > prev:
            restarts.append(g)
            prev = math.inf
        else:
            prev = score
    return restarts


# ADMM's adaptive restart tests the infeasibility that the loop scores; its
# residual is the rho^2 multiple. The two tests pick the same iterations
# unless two consecutive infeasibilities round to the same multiple, so
# replaying the rule on the residual column must give the trace's restarts.
@PROPERTY
@given(seed=SEEDS, d1=st.integers(5, 40), log_rho=st.floats(-2.0, 1.0),
       log_gamma=st.floats(-1.0, 1.0))
def test_admm_adaptive_restarts_read_the_same_on_the_residual(seed, d1, log_rho,
                                                             log_gamma):
    inst = tv_instance(d1, 3, seed, 0.1)
    cons = AffineConstraint(inst["D"], -np.eye(d1 - 1), np.zeros(d1 - 1))
    trace = admm(ProxDescriptor.quadratic(inst["H"], inst["b"]),
                 ProxDescriptor.l1(d1 - 1, 10.0 ** log_gamma), cons, 10.0 ** log_rho,
                 np.zeros(d1), np.zeros(d1 - 1), np.zeros(d1 - 1), 150, restart="adaptive")
    assert _adaptive_restarts(trace.infeasibility) == trace.restarts
    assert _adaptive_restarts(trace.residuals) == trace.restarts
