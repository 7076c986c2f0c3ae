import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from proxpoint import (
    Momentum,
    accelerated_ppm,
    accelerated_saddle_ppm,
    drs,
    forward_method,
    general_ppm,
    guler,
    linear_resolvent,
    optimal_restart_interval,
    ppm,
    restarted,
    rotation_worst_case,
    strongly_monotone_toy,
    toy_saddle,
    yosida,
)
from proxpoint.methods import (_euclidean_sq, accelerated_rate_bound, iterate,
                               ppm_rate_bound)
from conftest import random_monotone_operator

START = np.array([1.0, 0.0])


def rotation_resolvent(n, lam=1.0):
    return linear_resolvent(rotation_worst_case(n, lam), lam)


class TestPPM:
    def test_rotation_two_steps(self):
        trace = ppm(rotation_resolvent(2), START, 2, R=1.0)
        assert_allclose(trace.xs[1], [0.5, 0.5])
        assert_allclose(trace.xs[2], [0.0, 0.5])
        assert trace.residuals[1] == pytest.approx(0.25, rel=1e-14)
        assert trace.bounds[1] == pytest.approx(0.25, rel=1e-14)

    def test_zero_operator_is_stationary(self):
        trace = ppm(lambda y: y, [2.0, -1.0], 5)
        assert np.all(trace.residuals == 0.0)
        assert_allclose(trace.xs, np.tile([2.0, -1.0], (6, 1)))

    def test_scalar_linear_rate(self):
        trace = ppm(linear_resolvent([[0.02]], 1.0), [1.0], 20)
        ratios = trace.residuals[1:] / trace.residuals[:-1]
        assert_allclose(ratios, (1.0 / 1.02) ** 2, rtol=1e-12)

    def test_exactness_on_worst_case(self):
        for n in (2, 10, 100):
            trace = ppm(rotation_resolvent(n), START, n, R=1.0)
            expected = (1.0 - 1.0 / n) ** (n - 1) / n
            assert trace.residuals[-1] == pytest.approx(expected, rel=1e-8)

    def test_strongly_monotone_contraction(self):
        op = strongly_monotone_toy(100, 1.0, 0.02)
        trace = ppm(linear_resolvent(op, 1.0), START, 100)
        ratios = trace.residuals[1:] / trace.residuals[:-1]
        assert np.all(ratios <= (1.0 / 1.02) ** 2 + 1e-12)


class TestAcceleratedPPM:
    def test_rotation_hand_values(self):
        trace = accelerated_ppm(rotation_resolvent(2), START, 3, R=1.0)
        assert_allclose(trace.ys[1], [0.5, 0.5])
        assert_allclose(trace.xs[2], [0.0, 0.5])
        assert trace.residuals[1] == pytest.approx(0.25, rel=1e-14)
        assert_allclose(trace.ys[2], [0.0, 1.0 / 3.0], rtol=1e-14)
        assert_allclose(trace.xs[3], [-1.0 / 6.0, 1.0 / 6.0], rtol=1e-13)
        assert trace.residuals[2] == pytest.approx(1.0 / 18.0, rel=1e-13)
        assert trace.residuals[2] <= trace.bounds[2]

    def test_zero_operator_is_stationary(self):
        trace = accelerated_ppm(lambda y: y, [1.0, 2.0], 4)
        assert np.all(trace.residuals == 0.0)

    def test_rate_bound_on_random_operators(self, rng):
        for _ in range(20):
            dim = 2 + int(rng.integers_below(9, 1)[0])
            op = random_monotone_operator(rng, dim)
            x0 = rng.normals(dim)
            trace = accelerated_ppm(linear_resolvent(op, 1.0), x0, 100)
            scaled = trace.residuals * np.arange(1, len(trace.residuals) + 1) ** 2
            assert np.all(scaled <= (x0 @ x0) * (1.0 + 1e-9))


class TestGeneralPPM:
    def test_identity_steps_reduce_to_ppm(self, rng):
        op = random_monotone_operator(rng, 4)
        resolvent = linear_resolvent(op, 1.0)
        x0 = rng.normals(4)
        trace_g = general_ppm(resolvent, np.eye(11), x0, 12)
        trace_p = ppm(resolvent, x0, 12)
        assert_allclose(trace_g.xs, trace_p.xs, atol=1e-15)
        assert_allclose(trace_g.ys, trace_p.xs[:-1], atol=1e-15)

    @pytest.mark.parametrize("table, iters", [
        (np.triu(np.ones((2, 2))), 3),
        (np.diag([1.0, np.nan]), 3),
        (np.diag([1.0, np.inf]), 3),
        (np.zeros((2, 3)), 3),
        (np.zeros((0, 0)), 1),
        (np.ones(2), 3),
        (np.eye(2), 4),
    ], ids=["above the diagonal", "nan entry", "inf entry", "non-square", "empty",
            "1-D", "iters beyond rows + 1"])
    def test_bad_table_rejected(self, table, iters):
        with pytest.raises(ValueError):
            general_ppm(lambda y: y, table, [0.0], iters)

    def test_wrong_shape_step_raises_naming_the_iteration(self):
        message = "step returned shape (1,) at iteration 1, expected the start's shape (2,)"
        with pytest.raises(ValueError, match=re.escape(message)):
            general_ppm(lambda y: np.array([1.0]), np.eye(3), [0.0, 0.0], 3)

    def test_overflowing_residual_raises_naming_the_iteration(self):
        with pytest.raises(FloatingPointError,
                           match="non-finite residual or iterate at iteration 1$"):
            general_ppm(lambda y: 1e200 * np.ones(2), np.eye(3), [0.0, 0.0], 3)


class TestGuler:
    def test_t_sequence_start(self):
        trace = guler("first", lambda y: y, [1.0], 1)
        assert len(trace.residuals) == 1  # engine runs; t-sequence checked directly
        t0 = 1.0
        t1 = 0.5 * (1.0 + math.sqrt(5.0))
        assert t1 == pytest.approx(1.6180339887, abs=1e-9)
        assert 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t0 * t0)) == t1

    def test_zero_operator_is_stationary(self):
        trace = guler("second", lambda y: y, [3.0], 6)
        assert np.all(trace.residuals == 0.0)

    def test_first_variant_diverges_on_rotation(self):
        trace = guler("first", rotation_resolvent(100), START, 100)
        assert trace.residuals[99] > trace.residuals[0]

    def test_cost_decrease_on_convex_quadratic(self, rng):
        # With M the gradient of f(x) = x'Qx/2, the first variant keeps the
        # classical 2R^2/(lam (i+1)^2) cost guarantee.
        b = rng.normal_matrix(6, 6)
        q = b @ b.T / 6.0
        lam = 1.3
        x0 = rng.normals(6)
        trace = guler("first", linear_resolvent(q, lam), x0, 100)
        r2 = x0 @ x0
        for i in range(1, 101):
            x = trace.xs[i]
            cost = 0.5 * x @ (q @ x)
            assert cost <= 2.0 * r2 / (lam * (i + 1) ** 2) * (1.0 + 1e-12)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            guler("third", lambda y: y, [0.0], 1)


class TestRestarted:
    def test_interval_at_least_total_matches_plain_accelerated(self):
        resolvent = rotation_resolvent(40)
        trace_r = restarted(resolvent, START, 50, 50)
        trace_a = accelerated_ppm(resolvent, START, 50)
        assert_allclose(trace_r.xs, trace_a.xs, atol=1e-15)
        assert trace_r.restarts == []

    def test_interval_one_reduces_to_ppm(self):
        resolvent = rotation_resolvent(40)
        trace_r = restarted(resolvent, START, 1, 30)
        trace_p = ppm(resolvent, START, 30)
        assert_allclose(trace_r.xs, trace_p.xs, atol=1e-15)

    def test_beats_plain_accelerated_on_toy(self):
        op = strongly_monotone_toy(100, 1.0, 0.02)
        resolvent = linear_resolvent(op, 1.0)
        accel = accelerated_ppm(resolvent, START, 200)
        for k in (17, 34, 68, 136):
            trace = restarted(resolvent, START, k, 200)
            assert trace.residuals[-1] < accel.residuals[-1]
            assert trace.restarts[0] == k

    def test_outer_step_contraction(self):
        lam, mu = 1.0, 0.02
        op = strongly_monotone_toy(100, lam, mu)
        resolvent = linear_resolvent(op, lam)
        for k in (17, 34, 68, 136):
            trace = restarted(resolvent, START, k, 3 * k)
            factor = 1.0 / (lam * mu * k) ** 2
            for j in (1, 2):
                assert (trace.residuals[(j + 1) * k - 1]
                        <= factor * trace.residuals[j * k - 1])

    def test_adaptive_restarts_trigger_on_increase(self):
        op = strongly_monotone_toy(100, 1.0, 0.02)
        trace = restarted(linear_resolvent(op, 1.0), START, None, 200, adaptive=True)
        assert trace.restarts  # the toy run oscillates, so restarts must fire
        accel = accelerated_ppm(linear_resolvent(op, 1.0), START, 200)
        assert trace.residuals[-1] < accel.residuals[-1]

    def test_interval_required_without_adaptive(self):
        with pytest.raises(ValueError):
            restarted(lambda y: y, [0.0], None, 10)


# Unchecked, 2.5 would restart at 3, 6, 9 and True at every step.
BAD_RESTARTS = [True, False, np.True_, 2.5, 3.0, np.float64(4.0), 0, -2, np.int64(0),
                "foo", "Adaptive", "7", [7]]


class TestRestartSetting:
    @pytest.mark.parametrize("restart", BAD_RESTARTS, ids=repr)
    def test_rejected_by_the_loop_the_alias_and_an_engine(self, restart):
        resolvent = rotation_resolvent(10)
        runs = [lambda: iterate(resolvent, START, 10, "proposed", restart),
                lambda: restarted(resolvent, START, restart, 10),
                lambda: drs(resolvent, lambda y: y, 1.0, START, 10, restart=restart)]
        for run in runs:
            with pytest.raises(ValueError, match="restart must be"):
                run()

    @pytest.mark.parametrize("restart", [1, 4, np.int64(4), np.int32(4), np.uint8(4),
                                         "adaptive", None], ids=repr)
    def test_integers_adaptive_and_none_accepted(self, restart):
        op = strongly_monotone_toy(100, 1.0, 0.02)
        trace = iterate(linear_resolvent(op, 1.0), START, 40, "proposed", restart)
        if restart in (None, "adaptive"):
            assert trace.restarts == ([] if restart is None else [33])
        else:
            assert trace.restarts == list(range(int(restart), 40, int(restart)))

    def test_restarted_takes_exactly_one_rule(self):
        with pytest.raises(ValueError, match="exactly one"):
            restarted(lambda y: y, [0.0], 5, 10, adaptive=True)


class TestOptimalRestartInterval:
    def test_full_scale_values(self):
        assert optimal_restart_interval(1.0, 0.02) == 136

    def test_clamped_to_one(self):
        assert optimal_restart_interval(1.0, 10.0) == 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            optimal_restart_interval(1.0, 0.0)


class TestForwardMethod:
    def test_matches_ppm_through_yosida(self):
        lam = 0.7
        resolvent = rotation_resolvent(50, lam)
        approx = yosida(resolvent, lam)
        trace_f = forward_method(approx, lam, START, 40)
        trace_p = ppm(resolvent, START, 40)
        assert np.max(np.abs(trace_f.xs - trace_p.xs)) <= 1e-14

    def test_zero_operator_is_stationary(self):
        trace = forward_method(lambda y: np.zeros_like(y), 1.0, [4.0, 5.0], 3)
        assert np.all(trace.residuals == 0.0)

    def test_scalar_identity_operator(self):
        trace = forward_method(lambda y: y, 1.0, [3.0], 2)
        assert_allclose(trace.xs[1], [0.0])


class TestDivergence:
    def test_overflowing_residual_stops_the_run(self):
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError, match=r"at iteration \d+"):
                guler("first", rotation_resolvent(100), START, 2000)

    def test_non_finite_iterate_stops_before_the_next_step(self):
        calls = []

        def resolvent(y):
            calls.append(y)
            return np.full(2, np.nan) if len(calls) == 3 else 0.5 * y

        with pytest.raises(FloatingPointError, match="iteration 3"):
            accelerated_ppm(resolvent, START, 10)
        assert len(calls) == 3


def first_block_sq(x_new, y):
    return float((x_new[0] - y[0]) ** 2)


class TestOneScanPerIteration:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("variant", ["plain", "proposed"])
    @pytest.mark.parametrize("residual_sq", [_euclidean_sq, first_block_sq])
    def test_bad_entry_stops_the_run_at_its_iteration(self, bad, variant,
                                                      residual_sq):
        # The Euclidean residual is the only scan of x_new: a bad entry
        # makes it inf or nan. The first-block residual never reads the bad
        # entry, so the engine must still scan x_new itself.
        calls = []

        def step(y):
            calls.append(y)
            return np.array([0.5 * y[0], bad]) if len(calls) == 3 else 0.5 * y

        with pytest.raises(FloatingPointError,
                           match="residual or iterate at iteration 3"):
            iterate(step, START, 10, variant, residual_sq=residual_sq)
        assert len(calls) == 3


# The bound radii of the figure CSVs (fig1 and fig2 have R = 1).
CSV_RADII = [1.0, 4.6140828301552661, 3.4701733465433127, 2323.8385264128929,
             211.23626224192009, 17.748458383742907, 11.55333546588386]


def written_out_rule(step, x0, iters, variant, restart, residual_sq):
    """Kim's three-term rule and Guler's t-sequence as the papers state
    them, on the points ``y_{i-1}``: ``(xs, ys, residuals, restarts)``."""
    x = y = y_prev = x0
    i, t = 0, 1.0
    xs, ys, residuals, restarts = [x0], [], [], []
    since, prev_res = 0, math.inf
    for g in range(1, iters + 1):
        x_new = step(y)
        res = residual_sq(x_new, y)
        xs.append(x_new)
        ys.append(y)
        residuals.append(res)
        since += 1
        if g == iters:
            break
        if since == restart or (restart == "adaptive" and res > prev_res):
            x = y = y_prev = x_new
            i, t, since, prev_res = 0, 1.0, 0, math.inf
            restarts.append(g)
            continue
        if variant == "proposed":
            beta = i / (i + 2)
            y_new = x_new + beta * (x_new - x) - beta * (x - y_prev)
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y_new = x_new + ((t - 1.0) / t_next) * (x_new - x)
            if variant == "guler2":
                y_new = y_new + (t / t_next) * (x_new - y)
            t = t_next
        i += 1
        x, y_prev, y = x_new, y, y_new
        prev_res = res
    return np.array(xs), np.array(ys), np.array(residuals), restarts


def euclidean_sq(x_new, y):
    diff = x_new - y
    return float(diff @ diff)


class TestWrittenOutRule:
    # The loop reads each displacement x_{i+1} - y_i once, where the rules
    # subtract the points again: the results must agree bit for bit.
    @pytest.mark.parametrize("custom", [False, True], ids=["euclidean", "custom residual"])
    @pytest.mark.parametrize("restart", [None, 7, "adaptive"])
    @pytest.mark.parametrize("variant", ["proposed", "guler1", "guler2"])
    def test_loop_matches_the_rule_bit_for_bit(self, rng, variant, restart, custom):
        step = linear_resolvent(random_monotone_operator(rng, 3), 0.8)
        x0 = rng.normals(3)
        keywords = {"residual_sq": first_block_sq} if custom else {}
        trace = iterate(step, x0, 60, variant, restart, **keywords)
        xs, ys, residuals, restarts = written_out_rule(
            step, x0, 60, variant, restart, first_block_sq if custom else euclidean_sq)
        assert np.array_equal(trace.xs, xs)
        assert np.array_equal(trace.ys, ys)
        assert np.array_equal(trace.residuals, residuals)
        assert trace.restarts == restarts
        assert restarts or restart is None

    def test_signed_zeros_match_the_rule(self):
        # At i = 0 the rule adds 0 * (x_i - y_{i-1}), so only a signed zero
        # shows whether the loop reads the displacement +0 at a start and
        # after a restart: here y_1[0] and, after the restart at 2, y_3[1]
        # are -0.0.
        def step():
            points = iter([[-0.0, 0.5], [0.0, 0.0], [0.0, -0.0], [1.0, 1.0]])
            return lambda y: np.array(next(points))

        x0 = np.array([0.0, 1.0])
        trace = iterate(step(), x0, 4, "proposed", 2)
        _, ys, _, _ = written_out_rule(step(), x0, 4, "proposed", 2, euclidean_sq)
        assert np.signbit(ys[1, 0]) and np.signbit(ys[3, 1])
        assert trace.ys.tobytes() == ys.tobytes()


class TestBoundColumn:
    @pytest.mark.parametrize("variant, rate", [("plain", ppm_rate_bound),
                                               ("proposed", accelerated_rate_bound)])
    def test_matches_the_numpy_scalar_column_bit_for_bit(self, variant, rate, rng):
        iters = 3000
        radii = CSV_RADII + list(1e3 * rng.uniforms(5)) + [1e-3, 7.0 / 3.0]
        for radius in radii:
            trace = iterate(lambda y: 0.5 * y, START, iters, variant, R=radius)
            expected = np.array([rate(radius, i) for i in np.arange(1, iters + 1)])
            assert np.array_equal(trace.bounds, expected)


class TestResidualDot:
    def test_dot_matches_matmul_bit_for_bit(self, rng):
        for n in range(1, 1001):
            x, y = rng.normals(n), rng.normals(n)
            diff = x - y
            assert _euclidean_sq(x, y) == float(diff @ diff)


@pytest.fixture
def poison_after(monkeypatch):
    """Make the extrapolated point formed after iteration ``g`` infinite."""

    def poison(g):
        update = Momentum.update

        def poisoned(self, x_new, x_old, d_new, d_old):
            y = update(self, x_new, x_old, d_new, d_old)
            return np.full_like(y, np.inf) if self.i == g else y

        monkeypatch.setattr(Momentum, "update", poisoned)

    return poison


class TestExtrapolationDivergence:
    # A non-finite extrapolated point reaches the next step with the
    # Euclidean residual; the error must still name the iteration after
    # which the point was formed, whatever the step does with it.
    @pytest.mark.parametrize("step", [rotation_resolvent(10), lambda y: 0.5 * y],
                             ids=["validating resolvent", "plain step"])
    @pytest.mark.parametrize("residual_sq", [_euclidean_sq, first_block_sq])
    @pytest.mark.parametrize("variant", ["proposed", "guler1", "guler2"])
    def test_same_error_and_iteration(self, poison_after, step, residual_sq, variant):
        poison_after(4)
        with pytest.raises(FloatingPointError) as info:
            iterate(step, START, 10, variant, residual_sq=residual_sq)
        assert str(info.value) == "non-finite extrapolated point after iteration 4"

    def test_final_extrapolation_is_never_formed(self, poison_after):
        poison_after(10)
        trace = accelerated_ppm(rotation_resolvent(10), START, 10, R=1.0)
        assert len(trace.residuals) == 10 and np.all(np.isfinite(trace.residuals))

    def test_a_step_failing_on_a_finite_point_keeps_its_error(self):
        def step(y):
            raise ValueError("step refused")

        with pytest.raises(ValueError, match="step refused"):
            accelerated_ppm(step, START, 3)


TRACE_ARRAYS = ("residuals", "bounds", "xs", "ys", "gaps")


class TestTraceMemory:
    # The trace arrays are the run's only allocation that grows with the
    # iteration count: no per-point objects, no lists copied at the end.
    @pytest.mark.parametrize("run", [
        lambda: accelerated_ppm(rotation_resolvent(100), START, 10_000, R=1.0),
        lambda: accelerated_saddle_ppm(toy_saddle(100), 1.0, [1.0], [0.0], 4_000,
                                       saddle=([0.0], [0.0])),
    ], ids=["accelerated_ppm", "accelerated_saddle_ppm with gaps"])
    def test_peak_is_the_trace_arrays(self, run):
        run()  # untraced first, so one-time set-up is not counted
        tracemalloc.start()
        try:
            trace = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nbytes = sum(getattr(trace, name).nbytes for name in TRACE_ARRAYS
                     if getattr(trace, name) is not None)
        assert peak <= 1.25 * nbytes


class TestStepShape:
    @pytest.mark.parametrize("x0, bad", [(START, [1.0]), (START, [1.0, 2.0, 3.0]),
                                         (np.array([1.0]), 0.5)],
                             ids=["length 1 for d=2", "length 3 for d=2", "0-d for d=1"])
    @pytest.mark.parametrize("variant", ["plain", "proposed"])
    def test_wrong_shape_raises_naming_the_iteration(self, variant, x0, bad):
        calls = []

        def step(y):
            calls.append(y)
            return bad if len(calls) == 3 else 0.5 * y

        message = (f"step returned shape {np.shape(bad)} at iteration 3, "
                   f"expected the start's shape {x0.shape}")
        with pytest.raises(ValueError, match=re.escape(message)):
            iterate(step, x0, 10, variant)
        assert len(calls) == 3
