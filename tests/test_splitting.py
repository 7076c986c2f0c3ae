from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import lu_factor, lu_solve

from proxpoint import (
    AffineConstraint,
    DenseLinearOperator,
    InnerSolverError,
    ProxDescriptor,
    QuadraticSaddle,
    accelerated_ppm,
    accelerated_prox_multipliers,
    accelerated_saddle_ppm,
    admm,
    basis_pursuit_instance,
    basis_pursuit_solution,
    bilinear_game_instance,
    difference_matrix,
    drs,
    fista_strongly_convex,
    forward_method,
    linear_resolvent,
    operator_norm,
    optimal_restart_interval,
    pdhg,
    ppm,
    preconditioned_resolvent_map,
    soft_threshold,
    strongly_monotone_toy,
    toy_saddle,
    tv_instance,
    yosida,
)
from proxpoint import SplitMix64, splitting
from proxpoint.methods import Momentum, _euclidean_sq, iterate
from proxpoint.problems import PRESETS
from conftest import lu_solve_factor, pdhg_matrix, random_monotone_operator


class TestSoftThreshold:
    def test_unit_threshold(self):
        assert_allclose(soft_threshold([2.0, -0.5, 0.0], 1.0), [1.0, 0.0, 0.0])

    def test_zero_threshold_is_identity(self):
        z = np.array([1.5, -2.0, 0.3])
        assert_allclose(soft_threshold(z, 0.0), z)

    def test_half_threshold(self):
        assert_allclose(soft_threshold([1.2, -0.3], 0.5), [0.7, 0.0])

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold([1.0], -0.1)


_W = np.array([1.0, 2.0, 3.0])
_FISTA_PART = (np.eye(3), np.ones(3), 1.0, 1.0)
_ZERO1 = ProxDescriptor.zero(1)


class TestStepAndWeightParameters:
    """A step, weight or tolerance that is nan, inf or negative is refused
    with a ValueError naming it, before it can turn the output into nan."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0],
                             ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("name,call", [
        ("tau", lambda v: soft_threshold([1.0, 2.0], v)),
        ("weight", lambda v: ProxDescriptor.l1(3, v)),
        ("t", lambda v: ProxDescriptor.l1(3, 1.0).prox(_W, v)),
        ("t", lambda v: ProxDescriptor.linear(_W).prox(_W, v)),
        ("beta", lambda v: forward_method(lambda y: y, v, _W, 3)),
        ("lam", lambda v: optimal_restart_interval(v, 1.0)),
        ("mu", lambda v: optimal_restart_interval(1.0, v)),
        ("tol", lambda v: fista_strongly_convex(_FISTA_PART, 0.1, np.zeros(3), tol=v)),
        ("tau", lambda v: pdhg(_ZERO1, _ZERO1, [[1.0]], v, 0.5, [0.0], [0.0], 2)),
        ("sigma", lambda v: pdhg(_ZERO1, _ZERO1, [[1.0]], 0.5, v, [0.0], [0.0], 2)),
        ("rho", lambda v: drs(lambda y: y, lambda y: y, v, _W, 3)),
    ], ids=["soft_threshold", "l1_weight", "l1_prox", "linear_prox", "forward_method",
            "restart_lam", "restart_mu", "fista_tol", "pdhg_tau", "pdhg_sigma", "drs_rho"])
    def test_non_finite_or_negative_is_a_value_error(self, name, call, value):
        with pytest.raises(ValueError, match=f"^{name} must be a (positive|nonnegative) real"):
            call(value)


class TestDifferenceMatrix:
    def test_small(self):
        assert_allclose(difference_matrix(3), [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])

    def test_annihilates_constants(self):
        assert np.all(difference_matrix(20) @ np.ones(20) == 0.0)

    def test_full_scale(self):
        d = difference_matrix(100)
        assert d.shape == (99, 100)
        assert np.all(d.sum(axis=1) == 0.0)


def _preset_matrix(preset):
    """fig3's constraint matrix ``A`` or fig4's coupling ``K`` at the preset."""
    p = PRESETS[preset]
    if preset.startswith("fig3"):
        return basis_pursuit_instance(p["d1"], p["d2"], p["seed"])["A"]
    return bilinear_game_instance(p["d1"], p["d2"], p["seed"])["K"]


class TestOperatorNorm:
    def test_matches_svd(self, rng):
        k = rng.normal_matrix(12, 7)
        assert operator_norm(k) == pytest.approx(
            np.linalg.svd(k, compute_uv=False)[0], rel=1e-8)

    def test_zero_matrix(self):
        assert operator_norm(np.zeros((3, 4))) == 0.0

    # Exact to rounding: the top singular value from SVD, on the shapes the
    # library meets. Difference matrices have close top singular values, on
    # which an iteration that stops on a small change stops short.
    @pytest.mark.parametrize("k", [
        *(pytest.param(difference_matrix(d1), id=f"difference_matrix({d1})")
          for d1 in (10, 40, 100, 400)),
        pytest.param(SplitMix64(60).normal_matrix(60, 40), id="tall 60x40"),
        *(pytest.param(_preset_matrix(preset), id=preset)
          for preset in ("fig3", "fig3-desk", "fig4", "fig4-desk")),
    ])
    def test_equals_the_top_singular_value(self, k):
        top = np.linalg.svd(k, compute_uv=False)[0]
        assert operator_norm(k) == pytest.approx(top, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("shape", [(4, 3), (0, 3), (3, 0)], ids=["4x3", "0x3", "3x0"])
    def test_zero_and_empty_give_zero(self, shape):
        assert operator_norm(np.zeros(shape)) == 0.0


class TestFista:
    def test_unconstrained_quadratic(self):
        q = np.eye(3)
        target = np.array([1.0, 0.0, 0.0])
        x = fista_strongly_convex((q, -target, 1.0, 1.0), 0.0, np.zeros(3))
        assert_allclose(x, target, atol=1e-10)

    def test_large_weight_keeps_origin(self):
        q = np.eye(2)
        qv = np.array([0.3, -0.4])
        x = fista_strongly_convex((q, qv, 1.0, 1.0), 1.0, np.zeros(2))
        assert_allclose(x, np.zeros(2))

    def test_matches_proximal_gradient_oracle(self, rng):
        b = rng.normal_matrix(6, 6)
        q = b @ b.T / 6.0 + 0.5 * np.eye(6)
        qv = rng.normals(6)
        eigs = np.linalg.eigvalsh(q)
        tol = 1e-10
        x = fista_strongly_convex((q, qv, eigs[0], eigs[-1]), 0.7, rng.normals(6),
                                  tol=tol)
        # plain proximal gradient, long run
        y = np.zeros(6)
        for _ in range(20_000):
            y = soft_threshold(y - (q @ y + qv) / eigs[-1], 0.7 / eigs[-1])
        assert np.linalg.norm(x - y) <= 10.0 * tol

    def test_cap_raises_with_achieved_norm(self):
        q = np.diag([1.0, 4.0])
        qv = np.array([5.0, -3.0])
        with pytest.raises(InnerSolverError) as info:
            fista_strongly_convex((q, qv, 1.0, 4.0), 0.1, np.zeros(2),
                                  tol=1e-300, max_iters=3)
        assert info.value.achieved > 0.0

    def test_zero_cap_checks_only_the_start(self):
        q = np.diag([1.0, 4.0])
        qv = np.array([5.0, -3.0])
        # The unregularized minimizer: the mapping norm is exactly zero there.
        x_min = np.array([-5.0, 0.75])
        x = fista_strongly_convex((q, qv, 1.0, 4.0), 0.0, x_min, max_iters=0)
        assert np.array_equal(x, x_min)
        start = np.zeros(2)
        with pytest.raises(InnerSolverError) as info:
            fista_strongly_convex((q, qv, 1.0, 4.0), 0.1, start, max_iters=0)
        mapping = 4.0 * (start - soft_threshold(start - 0.25 * (q @ start + qv),
                                                 0.25 * 0.1))
        assert info.value.achieved == np.linalg.norm(mapping)

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            fista_strongly_convex((np.eye(2), np.ones(2), 1.0, 1.0), 0.1,
                                  np.zeros(2), max_iters=-1)


class TestSaddlePPM:
    def test_matches_linear_operator_run(self):
        phi = toy_saddle(100, 1.0, 0.02)
        op = strongly_monotone_toy(100, 1.0, 0.02)
        trace_s = accelerated_saddle_ppm(phi, 1.0, [1.0], [0.0], 60)
        trace_o = accelerated_ppm(linear_resolvent(op, 1.0), [1.0, 0.0], 60)
        assert np.max(np.abs(trace_s.xs - trace_o.xs)) <= 1e-13
        assert_allclose(trace_s.residuals, trace_o.residuals, rtol=1e-10)

    def test_zero_saddle_is_stationary(self):
        phi = QuadraticSaddle(np.zeros((2, 2)), np.zeros((1, 2)), np.zeros((1, 1)))
        trace = accelerated_saddle_ppm(phi, 1.0, [1.0, 2.0], [3.0], 5)
        assert np.all(trace.residuals == 0.0)

    def test_scalar_bilinear_gap(self):
        phi = QuadraticSaddle([[0.0]], [[1.0]], [[0.0]])
        trace = accelerated_saddle_ppm(phi, 1.0, [1.0], [0.0], 2,
                                       saddle=([0.0], [0.0]))
        # pure bilinear coupling: phi(u, 0) = phi(0, v) = 0 identically
        assert trace.gaps[1] == 0.0
        assert trace.gaps[1] <= 1.0 / (4.0 * 2.0)

    def test_gap_bound_on_strongly_convex_concave(self, rng):
        worst = 0.0
        for trial in range(10):
            d1, d2 = 3, 2
            b1 = rng.normal_matrix(d1, d1)
            b2 = rng.normal_matrix(d2, d2)
            phi = QuadraticSaddle(b1 @ b1.T / d1 + 0.1 * np.eye(d1),
                                  rng.normal_matrix(d2, d1),
                                  b2 @ b2.T / d2 + 0.1 * np.eye(d2),
                                  a=rng.normals(d1), b=rng.normals(d2))
            linear, shift = phi.stacked_operator()
            u_star, v_star = np.split(np.linalg.solve(linear, -shift), [d1])
            lam = (0.2, 1.0, 5.0)[trial % 3]
            u0, v0 = rng.normals(d1), rng.normals(d2)
            trace = accelerated_saddle_ppm(phi, lam, u0, v0, 100,
                                           saddle=(u_star, v_star))
            r2 = np.sum((u0 - u_star) ** 2) + np.sum((v0 - v_star) ** 2)
            scaled = trace.gaps * 4.0 * lam * np.arange(1, len(trace.residuals) + 1)
            worst = max(worst, float(scaled.max()) / r2)
        assert worst <= 1.0 + 1e-6

    def test_restarted_gap_contraction(self):
        lam, mu, k = 1.0, 0.02, 68
        phi = toy_saddle(100, lam, mu)
        trace = accelerated_saddle_ppm(phi, lam, [1.0], [0.0], 3 * k,
                                       restart=k,
                                       saddle=([0.0], [0.0]))
        factor = 1.0 / (2.0 * lam * mu * k)
        for j in (1, 2):
            assert trace.gaps[(j + 1) * k - 1] <= factor * trace.gaps[j * k - 1]


class TestProxMultipliers:
    def test_quadratic_single_solve_obeys_accelerated_bound(self, rng):
        h = rng.normal_matrix(4, 4)
        f = ProxDescriptor.quadratic(h, rng.normals(4))
        a = np.eye(4)
        b = np.zeros(4)
        u0, v0 = np.zeros(4), np.zeros(4)
        oracle = accelerated_prox_multipliers(f, a, b, 1.0, u0, v0, 10_000,
                                              variant="plain")
        x_star = oracle.xs[-1]
        radius = np.linalg.norm(np.concatenate([u0, v0]) - x_star)
        trace = accelerated_prox_multipliers(f, a, b, 1.0, u0, v0, 100)
        scaled = trace.residuals * np.arange(1, len(trace.residuals) + 1) ** 2
        assert np.all(scaled <= radius ** 2 * (1.0 + 1e-6))

    def test_zero_data_stays_at_origin(self):
        f = ProxDescriptor.l1(5, 1.0)
        a = np.zeros((3, 5))
        trace = accelerated_prox_multipliers(f, a, np.zeros(3), 1.0,
                                             np.zeros(5), np.zeros(3), 4)
        assert np.all(trace.residuals == 0.0)

    def test_basis_pursuit_narrative(self):
        # Inertia-only acceleration diverges; the corrected update beats the
        # plain method; restarting every 30 iterations improves it further.
        inst = basis_pursuit_instance(100, 20, 1)
        f = ProxDescriptor.l1(100, 1.0)
        u0, v0 = np.zeros(100), np.zeros(20)
        runs = {
            variant: accelerated_prox_multipliers(
                f, inst["A"], inst["b"], 0.01, u0, v0, 100, variant=variant)
            for variant in ("plain", "proposed", "guler1")
        }
        restarted = accelerated_prox_multipliers(
            f, inst["A"], inst["b"], 0.01, u0, v0, 100,
            variant="proposed", restart=30)
        assert runs["guler1"].residuals[-1] > runs["guler1"].residuals[0]
        assert runs["proposed"].residuals[-1] < runs["plain"].residuals[-1]
        assert restarted.residuals[-1] < runs["proposed"].residuals[-1]

    def test_unsupported_kind_rejected(self):
        f = ProxDescriptor.quadratic(np.eye(2))
        with pytest.raises(ValueError):
            accelerated_prox_multipliers(f, np.eye(3), np.zeros(3), 1.0,
                                         np.zeros(3), np.zeros(3), 2)

    @pytest.mark.parametrize("d1,d2,seed", [(40, 10, 1), (100, 20, 1),
                                            (100, 20, 2), (100, 20, 7919)])
    def test_lp_solution_is_a_fixed_point(self, d1, d2, seed):
        # The basis pursuit LP's KKT pair is a zero of the operator behind
        # the proximal method of multipliers: one plain step stays put,
        # while the opposite multiplier sign moves.
        inst = basis_pursuit_instance(d1, d2, seed)
        u_star, v_star = basis_pursuit_solution(inst["A"], inst["b"])
        f = ProxDescriptor.l1(d1, 1.0)
        step = accelerated_prox_multipliers(f, inst["A"], inst["b"], 0.01,
                                            u_star, v_star, 1, variant="plain")
        assert np.sqrt(step.residuals[0]) <= 1e-12
        wrong = accelerated_prox_multipliers(f, inst["A"], inst["b"], 0.01,
                                             u_star, -v_star, 1, variant="plain")
        assert np.sqrt(wrong.residuals[0]) > 1e-3


class TestPDHG:
    def test_scalar_preconditioner_eigenvalues(self):
        # tau*sigma*||K||^2 = 1/4: P is positive definite, the preconditioned
        # resolvent of the zero operator is the identity, and pdhg runs.
        precond = pdhg_matrix(np.array([[1.0]]), 0.5, 0.5)
        assert_allclose(precond, [[2.0, -1.0], [-1.0, 2.0]])
        assert_allclose(np.linalg.eigvalsh(precond), [1.0, 3.0])
        y = np.array([0.3, -1.7])
        assert_allclose(preconditioned_resolvent_map(np.zeros((2, 2)), precond, 1.0)(y), y)
        pdhg(_ZERO1, _ZERO1, [[1.0]], 0.5, 0.5, [0.0], [0.0], 2)

    def test_zero_coupling_stationary(self):
        f = ProxDescriptor.zero(2)
        g = ProxDescriptor.zero(3)
        trace = pdhg(f, g, np.zeros((3, 2)), 1.0, 1.0, [1.0, 2.0],
                     [0.0, 1.0, 2.0], 4)
        assert np.all(trace.residuals == 0.0)

    def test_step_size_validation(self):
        f = ProxDescriptor.zero(1)
        g = ProxDescriptor.zero(1)
        with pytest.raises(ValueError):
            pdhg(f, g, np.array([[2.0]]), 1.0, 1.0, [0.0], [0.0], 2)

    def test_steps_the_preconditioner_rejects_are_refused(self):
        # tau*sigma*||D||^2 = 1.0002^2 on fig5-desk's D, just outside the
        # step condition; an estimate of ||D|| that reads 5.4e-4 low, as a
        # power iteration stopped on a 1e-10 change does, would accept it.
        d = difference_matrix(40)
        tau = sigma = 1.0002 / np.linalg.svd(d, compute_uv=False)[0]
        with pytest.raises(ValueError, match="positive definite"):
            preconditioned_resolvent_map(np.zeros((79, 79)), pdhg_matrix(d, tau, sigma), 1.0)
        with pytest.raises(ValueError, match="tau\\*sigma"):
            pdhg(ProxDescriptor.zero(40), ProxDescriptor.zero(39), d, tau, sigma,
                 np.zeros(40), np.zeros(39), 2)

    def test_supplied_norm_is_checked(self):
        f = ProxDescriptor.zero(1)
        g = ProxDescriptor.zero(1)
        with pytest.raises(ValueError, match="tau\\*sigma"):
            pdhg(f, g, np.array([[0.5]]), 1.0, 1.0, [0.0], [0.0], 2, norm_k=2.0)

    def test_supplied_norm_gives_the_same_run(self, rng):
        k = rng.normal_matrix(4, 6)
        f = ProxDescriptor.linear(rng.normals(6))
        g = ProxDescriptor.linear(rng.normals(4))
        norm_k = operator_norm(k)
        tau = sigma = 0.9 / norm_k
        u0, v0 = rng.normals(6), rng.normals(4)
        computed = pdhg(f, g, k, tau, sigma, u0, v0, 20)
        supplied = pdhg(f, g, k, tau, sigma, u0, v0, 20, norm_k=norm_k)
        assert np.array_equal(computed.xs, supplied.xs)
        assert np.array_equal(computed.residuals, supplied.residuals)

    def test_equals_preconditioned_proximal_point(self, rng):
        # One accelerated PDHG step is the preconditioned resolvent of the
        # saddle subdifferential followed by the same extrapolation.
        h = rng.normal_matrix(6, 4)
        d = rng.normals(6)
        g_mat = rng.normal_matrix(5, 3)
        e = rng.normals(5)
        k = rng.normal_matrix(3, 4)
        f = ProxDescriptor.quadratic(h, d)
        g = ProxDescriptor.quadratic(g_mat, e)
        tau = sigma = 0.7 / operator_norm(k)
        phi = QuadraticSaddle(h.T @ h, k, g_mat.T @ g_mat,
                              a=-h.T @ d, b=-g_mat.T @ e)
        linear, shift = phi.stacked_operator()
        precond = pdhg_matrix(k, tau, sigma)
        factors = lu_factor(precond + linear)
        u0, v0 = rng.normals(4), rng.normals(3)
        trace = pdhg(f, g, k, tau, sigma, u0, v0, 20)
        mom = Momentum("proposed")
        x = y = y_prev = np.concatenate([u0, v0])
        for i in range(20):
            x_new = lu_solve(factors, precond @ y - shift)
            assert np.max(np.abs(x_new - trace.xs[i + 1])) <= 1e-10
            y_new = mom.update(x_new, x, y, y_prev)
            x, y_prev, y = x_new, y, y_new

    def test_homogeneous_case_uses_preconditioned_resolvent_directly(self, rng):
        # Without linear terms the identity is literally the module's
        # preconditioned resolvent map applied to the stacked operator.
        h = rng.normal_matrix(5, 4)
        g_mat = rng.normal_matrix(4, 3)
        k = rng.normal_matrix(3, 4)
        f = ProxDescriptor.quadratic(h)
        g = ProxDescriptor.quadratic(g_mat)
        tau = sigma = 0.6 / operator_norm(k)
        phi = QuadraticSaddle(h.T @ h, k, g_mat.T @ g_mat)
        linear, _ = phi.stacked_operator()
        resolvent = preconditioned_resolvent_map(linear, pdhg_matrix(k, tau, sigma), 1.0)
        u0, v0 = rng.normals(4), rng.normals(3)
        trace = pdhg(f, g, k, tau, sigma, u0, v0, 15)
        mom = Momentum("proposed")
        x = y = y_prev = np.concatenate([u0, v0])
        for i in range(15):
            x_new = resolvent(y)
            assert np.max(np.abs(x_new - trace.xs[i + 1])) <= 1e-10
            y_new = mom.update(x_new, x, y, y_prev)
            x, y_prev, y = x_new, y, y_new

    def test_bilinear_game_narrative(self):
        inst = bilinear_game_instance(50, 25, 1)
        k = inst["K"]
        tau = sigma = 0.99 / operator_norm(k)
        f = ProxDescriptor.linear(inst["a"])
        g = ProxDescriptor.linear(inst["b"])
        u0, v0 = np.full(50, 10.0), np.full(25, 10.0)
        plain = pdhg(f, g, k, tau, sigma, u0, v0, 100, variant="plain")
        diverging = pdhg(f, g, k, tau, sigma, u0, v0, 100, variant="guler1")
        restarted = pdhg(f, g, k, tau, sigma, u0, v0, 100,
                         variant="proposed", restart=10)
        assert diverging.residuals[-1] > diverging.residuals[0]
        assert restarted.residuals[-1] < plain.residuals[-1]


class TestDRS:
    def test_identity_second_block_reduces_to_ppm(self, rng):
        op = random_monotone_operator(rng, 5)
        resolvent = linear_resolvent(op, 0.8)
        nu0 = rng.normals(5)
        trace_d = drs(resolvent, lambda y: y, 0.8, nu0, 30, variant="plain")
        trace_p = ppm(resolvent, nu0, 30)
        assert np.max(np.abs(trace_d.xs - trace_p.xs)) <= 1e-14

    def test_identity_first_block_reduces_to_ppm_on_second(self, rng):
        # With M1 = 0 the operator collapses to J2: G = (2 J2 - I) + I - J2.
        op = random_monotone_operator(rng, 5)
        resolvent = linear_resolvent(op, 0.8)
        nu0 = rng.normals(5)
        trace_d = drs(lambda y: y, resolvent, 0.8, nu0, 30, variant="plain")
        trace_p = ppm(resolvent, nu0, 30)
        assert np.max(np.abs(trace_d.xs - trace_p.xs)) <= 1e-14

    def test_operator_is_firmly_nonexpansive(self, rng):
        op1 = random_monotone_operator(rng, 5)
        op2 = random_monotone_operator(rng, 5)
        j1 = linear_resolvent(op1, 0.8)
        j2 = linear_resolvent(op2, 0.8)

        def apply(eta):
            mid = j2(eta)
            return j1(2.0 * mid - eta) + eta - mid

        for _ in range(100):
            x, y = rng.normals(5), rng.normals(5)
            d = apply(x) - apply(y)
            assert d @ (x - y) >= d @ d - 1e-10

    def test_accelerated_bound_against_oracle_fixed_point(self, rng):
        op1 = random_monotone_operator(rng, 4)
        op2 = random_monotone_operator(rng, 4)
        j1 = linear_resolvent(op1, 0.8)
        j2 = linear_resolvent(op2, 0.8)
        nu0 = rng.normals(4)
        oracle = drs(j1, j2, 0.8, nu0, 10_000, variant="plain")
        nu_star = oracle.xs[-1]
        radius2 = float(np.sum((nu0 - nu_star) ** 2))
        trace = drs(j1, j2, 0.8, nu0, 100)
        scaled = trace.residuals * np.arange(1, len(trace.residuals) + 1) ** 2
        assert np.all(scaled <= radius2 * (1.0 + 1e-6))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("which", ["first", "second"])
    def test_non_finite_resolvent_output_names_the_iteration(self, which, bad):
        # A non-finite output of the second resolvent becomes the first
        # one's input, which a validating resolvent refuses with its own
        # ValueError; both resolvents here are plain contractions.
        calls = []

        def poisoned(y):
            calls.append(None)
            return np.full_like(y, bad) if len(calls) == 3 else 0.5 * y

        def plain(y):
            return 0.5 * y

        j1, j2 = (poisoned, plain) if which == "first" else (plain, poisoned)
        with pytest.raises(FloatingPointError,
                           match="non-finite residual or iterate at iteration 3"):
            drs(j1, j2, 0.8, np.ones(3), 10)

    def test_non_finite_second_output_refused_by_the_first_is_a_divergence(self):
        # The validating J1 refuses J2's bad output with a ValueError, a
        # configuration-class error; drs reports the divergence instead.
        calls = []

        def j2(y):
            calls.append(None)
            return np.full_like(y, np.nan) if len(calls) == 3 else 0.5 * y

        j1 = linear_resolvent(DenseLinearOperator(np.eye(3)), 0.8)
        with pytest.raises(FloatingPointError,
                           match="non-finite output of resolvent2 at iteration 3"):
            drs(j1, j2, 0.8, np.ones(3), 10)

    def test_first_resolvent_failing_on_a_finite_point_keeps_its_error(self):
        def j1(y):
            raise ValueError("J1 refused")

        with pytest.raises(ValueError, match="J1 refused"):
            drs(j1, lambda y: 0.5 * y, 0.8, np.ones(3), 10)


def tv_setup(d1=40, seed=7, gamma=3.0):
    inst = tv_instance(d1, 5, seed)
    d2 = d1 - 1
    f = ProxDescriptor.quadratic(inst["H"], inst["b"])
    g = ProxDescriptor.l1(d2, gamma)
    cons = AffineConstraint(inst["D"], -np.eye(d2), np.zeros(d2))
    return inst, f, g, cons, np.zeros(d1), np.zeros(d2), np.zeros(d2)


class TestADMM:
    def test_plain_mode_matches_textbook_admm(self):
        inst, f, g, cons, x0, z0, nu0 = tv_setup()
        rho, gamma = 0.05, 3.0
        trace = admm(f, g, cons, rho, x0, z0, nu0, 60, variant="plain")
        h, b, d = inst["H"], inst["b"], inst["D"]
        factors = lu_factor(h.T @ h + rho * (d.T @ d))
        x, z, nu = x0, z0, nu0
        for i in range(60):
            x = lu_solve(factors, d.T @ (rho * z - nu) + h.T @ b)
            z = soft_threshold(d @ x + nu / rho, gamma / rho)
            nu = nu + rho * (d @ x - z)
            assert np.max(np.abs(x - trace.iterates["x"][i + 1])) <= 1e-12
            assert np.max(np.abs(z - trace.iterates["z"][i + 1])) <= 1e-12
            assert np.max(np.abs(nu - trace.iterates["nu_hat"][i + 1])) <= 1e-12

    def test_feasible_start_is_stationary(self):
        f = ProxDescriptor.zero(3)
        g = ProxDescriptor.zero(3)
        cons = AffineConstraint(np.eye(3), -np.eye(3), np.zeros(3))
        trace = admm(f, g, cons, 1.0, np.zeros(3), np.zeros(3), np.zeros(3), 5)
        assert np.all(trace.infeasibility == 0.0)
        assert np.all(trace.residuals == 0.0)

    def test_residual_identity(self):
        # nu_i - eta_{i-1} reconstructed from the hat variables equals
        # rho * (A x_{i+1} + B z_i - c) along the whole run.
        _, f, g, cons, x0, z0, nu0 = tv_setup()
        rho = 0.05
        trace = admm(f, g, cons, rho, x0, z0, nu0, 100, variant="proposed")
        xs = trace.iterates["x"]
        zs = trace.iterates["z"]
        nu_hat = trace.iterates["nu_hat"]
        eta_hat = trace.iterates["eta_hat"]
        for i in range(1, 100):
            nu_i = nu_hat[i] + rho * (cons.A @ xs[i + 1] - cons.c)
            eta_prev = eta_hat[i - 1] + rho * (cons.A @ xs[i] - cons.c)
            gap = nu_i - eta_prev - rho * cons.residual(xs[i + 1], zs[i])
            assert np.linalg.norm(gap) <= 1e-10

    def test_infeasibility_bounds_against_dual_oracle(self):
        _, f, g, cons, x0, z0, nu0 = tv_setup()
        rho = 0.05
        oracle = admm(f, g, cons, rho, x0, z0, nu0, 10_000, variant="plain")
        nu_star = (oracle.iterates["nu_hat"][-1]
                   + rho * (cons.A @ oracle.iterates["x"][-1] - cons.c))
        eta0 = nu0 + rho * (cons.A @ x0 - cons.c)
        radius2 = float(np.sum((eta0 - nu_star) ** 2))
        accel = admm(f, g, cons, rho, x0, z0, nu0, 200, variant="proposed")
        plain = admm(f, g, cons, rho, x0, z0, nu0, 200, variant="plain")
        idx = np.arange(1, len(accel.residuals) + 1)
        assert np.all(accel.infeasibility * rho ** 2 * idx ** 2
                      <= radius2 * (1.0 + 1e-9))
        plain_factor = idx / (1.0 - 1.0 / idx) ** (idx - 1.0)
        assert np.all(plain.infeasibility * rho ** 2 * plain_factor
                      <= radius2 * (1.0 + 1e-9))

    def test_tv_narrative(self):
        # Paper-scale figure: restarting the accelerated run every 20
        # iterations reaches a much smaller residual than plain ADMM, while
        # the un-restarted accelerated run oscillates above it.
        inst = tv_instance(100, 5, 1)
        d2 = 99
        f = ProxDescriptor.quadratic(inst["H"], inst["b"])
        g = ProxDescriptor.l1(d2, 3.0)
        cons = AffineConstraint(inst["D"], -np.eye(d2), np.zeros(d2))
        x0, z0, nu0 = np.zeros(100), np.zeros(d2), np.zeros(d2)
        plain = admm(f, g, cons, 0.05, x0, z0, nu0, 500, variant="plain")
        restarted = admm(f, g, cons, 0.05, x0, z0, nu0, 500, variant="proposed",
                         restart=20)
        assert restarted.residuals[-1] < plain.residuals[-1]

    def test_l1_z_requires_signed_identity(self):
        f = ProxDescriptor.quadratic(np.eye(3))
        g = ProxDescriptor.l1(2, 1.0)
        cons = AffineConstraint(np.ones((2, 3)), np.ones((2, 2)) * 2.0, np.zeros(2))
        with pytest.raises(ValueError):
            admm(f, g, cons, 1.0, np.zeros(3), np.zeros(2), np.zeros(2), 2)

    def test_singular_subproblem_system_raises(self):
        from proxpoint import SingularSystemError
        f = ProxDescriptor.zero(3)
        g = ProxDescriptor.zero(2)
        cons = AffineConstraint(np.ones((2, 3)), -np.eye(2), np.zeros(2))
        with pytest.raises(SingularSystemError):
            admm(f, g, cons, 1.0, np.zeros(3), np.zeros(2), np.zeros(2), 2)

    def test_finite_infeasibility_whose_residual_overflows_raises(self, monkeypatch):
        # The loop scores the infeasibility, 3e20 here and finite; its rho^2
        # multiple overflows, which must stop the run, not be written as inf.
        loop, scored = splitting.iterate, []

        def recording(*args, **kwargs):
            trace = loop(*args, **kwargs)
            scored.append(trace.residuals.copy())
            return trace

        monkeypatch.setattr(splitting, "iterate", recording)
        f = ProxDescriptor.quadratic(np.eye(3), 1e160 * np.ones(3))
        cons = AffineConstraint(np.eye(3), -np.eye(3), np.zeros(3))
        start = np.zeros(3)
        with pytest.raises(FloatingPointError, match="at iteration 1$"):
            admm(f, ProxDescriptor.zero(3), cons, 1e150, start, start, start, 5,
                 variant="plain")
        assert np.all(np.isfinite(scored[0]))

    @pytest.mark.parametrize("variant", ["guler1", "guler2", "bogus"])
    def test_variants_other_than_plain_and_proposed_raise(self, variant):
        _, f, g, cons, x0, z0, nu0 = tv_setup()
        with pytest.raises(ValueError, match=repr(variant)):
            admm(f, g, cons, 0.05, x0, z0, nu0, 2, variant=variant)

    def test_inner_cap_propagates(self, monkeypatch):
        inst = basis_pursuit_instance(12, 4, 3)
        f = ProxDescriptor.l1(12, 1.0)
        u0, v0 = np.zeros(12), np.zeros(4)
        monkeypatch.setattr(splitting, "INNER_TOL", 1e-14)
        monkeypatch.setattr(splitting, "INNER_MAX_ITERS", 1)
        with pytest.raises(InnerSolverError):
            accelerated_prox_multipliers(f, inst["A"], 50.0 * inst["b"], 1.0,
                                         u0, v0, 5)


class TestSharedEngine:
    @pytest.mark.parametrize("restart", [{"restart": 20}, {"restart": "adaptive"}])
    def test_accelerated_admm_is_momentum_on_the_dual_point(self, restart):
        # Accelerated ADMM extrapolates the dual Douglas-Rachford point
        # w = nu_hat + rho (A x - c); drive that map by hand with Momentum.
        inst, f, g, cons, x0, z0, nu0 = tv_setup()
        rho, gamma, iters = 0.05, 3.0, 100
        trace = admm(f, g, cons, rho, x0, z0, nu0, iters, variant="proposed",
                     **restart)
        h, b, d = inst["H"], inst["b"], inst["D"]
        factors = lu_factor(h.T @ h + rho * (d.T @ d))

        def solve_x(nu, z):
            return lu_solve(factors, d.T @ (rho * z - nu) + h.T @ b)

        def dual_step(w):
            z = soft_threshold(w / rho, gamma / rho)
            nu = w - rho * z
            return nu + rho * (d @ solve_x(nu, z))

        mom = Momentum("proposed")
        w = y = y_prev = nu0 + rho * (d @ solve_x(nu0, z0))
        restarts, prev_res, since = [], None, 0
        dual = trace.iterates["nu_hat"] + rho * (trace.iterates["x"][1:] @ d.T)
        for i in range(1, iters + 1):
            w_new = dual_step(y)
            res = float((w_new - y) @ (w_new - y))
            assert np.max(np.abs(w_new - dual[i])) <= 1e-10
            assert res == pytest.approx(trace.residuals[i - 1], rel=1e-10, abs=1e-20)
            since += 1
            if i < iters and (since == restart["restart"]
                              or (restart["restart"] == "adaptive"
                                  and prev_res is not None and res > prev_res)):
                mom.reset()
                w = y = y_prev = w_new
                restarts.append(i)
                since, prev_res = 0, None
            else:
                y_new = mom.update(w_new, w, y, y_prev)
                w, y_prev, y = w_new, y, y_new
                prev_res = res
        assert restarts and trace.restarts == restarts

    def test_pdhg_interval_beyond_horizon_keeps_bound(self):
        inst = bilinear_game_instance(10, 5, 1)
        k = inst["K"]
        tau = sigma = 0.9 / operator_norm(k)
        f = ProxDescriptor.linear(inst["a"])
        g = ProxDescriptor.linear(inst["b"])
        trace = pdhg(f, g, k, tau, sigma, np.ones(10), np.ones(5), 30,
                     restart=30, R=2.0)
        assert trace.restarts == []
        assert_allclose(trace.bounds, 4.0 / np.arange(1, len(trace.residuals) + 1) ** 2,
                        rtol=0, atol=0)

    def test_saddle_interval_beyond_horizon_keeps_bound(self):
        phi = toy_saddle(100, 1.0, 0.02)
        trace = accelerated_saddle_ppm(phi, 1.0, [1.0], [0.0], 40,
                                       restart=50, R=1.0)
        assert_allclose(trace.bounds, 1.0 / np.arange(1, len(trace.residuals) + 1) ** 2,
                        rtol=0, atol=0)
        assert np.all(trace.residuals <= trace.bounds * (1.0 + 1e-9))


class TestFactoredSolves:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2, 7, 100])
    def test_engines_match_lu_solve(self, dim, seed, monkeypatch):
        # Every factored solve in the splitting engines (quadratic prox,
        # prox-multiplier u-update, ADMM x- and z-updates) is bit-identical
        # to scipy's lu_solve on the same factors.
        rng = SplitMix64(seed)
        m = dim + 1
        h_f, b_f = rng.normal_matrix(m, dim), rng.normals(m)
        h_g, b_g = rng.normal_matrix(m, dim), rng.normals(m)
        a_mat, rhs = rng.normal_matrix(m, dim), rng.normals(m)
        cons = AffineConstraint(a_mat, rng.normal_matrix(m, dim), rng.normals(m))
        u0, v0, w = rng.normals(dim), rng.normals(m), rng.normals(dim)

        def outputs():
            # Fresh descriptors, so no factorization is cached across runs.
            f = ProxDescriptor.quadratic(h_f, b_f)
            g = ProxDescriptor.quadratic(h_g, b_g)
            multipliers = accelerated_prox_multipliers(f, a_mat, rhs, 0.8,
                                                       u0, v0, 5)
            run = admm(f, g, cons, 1.3, u0, np.zeros(dim), v0, 5)
            return [g.prox(w, 0.4), multipliers.xs, run.xs, run.iterates["z"]]

        direct = outputs()
        monkeypatch.setattr(splitting, "_factor", lu_solve_factor)
        reference = outputs()
        for got, want in zip(direct, reference):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dim", [1, 2, 7, 100])
    def test_singular_subproblems_still_raise(self, dim):
        from proxpoint import SingularSystemError
        zero = ProxDescriptor.zero(dim)
        start = np.zeros(dim)
        singular_x = AffineConstraint(np.zeros((dim, dim)), np.eye(dim), start)
        singular_z = AffineConstraint(np.eye(dim), np.zeros((dim, dim)), start)
        for cons in (singular_x, singular_z):
            with pytest.raises(SingularSystemError):
                admm(zero, zero, cons, 1.0, start, start, start, 2)


class TestSubproblemRule:
    # The rule's outputs for every kind are pinned by the trace files
    # trace.admm.csv and trace.prox-multipliers.csv (test_golden.py).

    def test_l1_x_subproblem_needs_full_column_rank(self):
        # A'A = diag(5, 0) is singular, so FISTA has no strong convexity.
        a_mat = np.array([[1.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
        cons = AffineConstraint(a_mat, -np.eye(3), np.zeros(3))
        with pytest.raises(ValueError, match="positive definite"):
            admm(ProxDescriptor.l1(2, 1.0), ProxDescriptor.zero(3), cons, 1.0,
                 np.zeros(2), np.zeros(3), np.zeros(3), 2)

    def test_l1_x_subproblem_rejects_every_rank_deficient_a(self):
        # A 2 x 3 A has rank at most 2, yet the smallest computed eigenvalue
        # of A'A is a rounding-level number of either sign; a 5 x 3 Gaussian
        # A has full column rank.
        f = ProxDescriptor.l1(3, 1.0)
        for seed in range(200):
            wide = SplitMix64(seed).normal_matrix(2, 3)
            cons = AffineConstraint(wide, -np.eye(2), np.zeros(2))
            with pytest.raises(ValueError, match="positive definite"):
                splitting._admm_x_solver(f, cons, 0.7)
            tall = SplitMix64(seed).normal_matrix(5, 3)
            splitting._admm_x_solver(
                f, AffineConstraint(tall, -np.eye(5), np.zeros(5)), 0.7)

    def test_l1_x_spectrum_takes_one_eigendecomposition(self, monkeypatch):
        # (m, L) both come from the one eigvalsh of A'A.
        real, calls = np.linalg.eigvalsh, []

        def spy(m):
            calls.append(m.shape)
            return real(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        a_mat = SplitMix64(4).normal_matrix(8, 5)
        cons = AffineConstraint(a_mat, -np.eye(8), np.zeros(8))
        admm(ProxDescriptor.l1(5, 1.0), ProxDescriptor.zero(8), cons, 0.7,
             np.zeros(5), np.zeros(8), np.zeros(8), 1)
        assert calls == [(5, 5)]

    def test_unknown_kind_rejected_by_both_engines(self):
        huber = SimpleNamespace(kind="huber", dim=3)
        zero = ProxDescriptor.zero(3)
        cons = AffineConstraint(np.eye(3), -np.eye(3), np.zeros(3))
        start = np.zeros(3)
        with pytest.raises(ValueError, match="unsupported prox kind"):
            accelerated_prox_multipliers(huber, np.eye(3), start, 1.0,
                                         start, start, 2)
        for f, g in ((huber, zero), (zero, huber)):
            with pytest.raises(ValueError, match="unsupported prox kind"):
                admm(f, g, cons, 1.0, start, start, start, 2)


def engine_cases():
    """``name -> (engine, problem, start)`` for every engine on the loop's
    calling convention ``engine(*problem, *start, iters, variant, restart, R)``."""
    rng = SplitMix64(11)
    resolvent = linear_resolvent(random_monotone_operator(rng, 3), 0.8)
    second = linear_resolvent(random_monotone_operator(rng, 3), 0.8)
    game = bilinear_game_instance(6, 4, 2)
    tau = sigma = 0.9 / operator_norm(game["K"])
    bp = basis_pursuit_instance(12, 4, 3)
    _, f, g, cons, x0, z0, nu0 = tv_setup(d1=12)
    return {
        "iterate": (iterate, (resolvent,), (rng.normals(3),)),
        "forward_method": (forward_method, (yosida(resolvent, 0.8), 0.8),
                           (rng.normals(3),)),
        "accelerated_saddle_ppm": (accelerated_saddle_ppm, (toy_saddle(20), 1.0),
                                   ([1.0], [0.0])),
        "accelerated_prox_multipliers": (
            accelerated_prox_multipliers,
            (ProxDescriptor.l1(12, 1.0), bp["A"], bp["b"], 0.5),
            (np.zeros(12), np.zeros(4))),
        "pdhg": (pdhg, (ProxDescriptor.linear(game["a"]),
                        ProxDescriptor.linear(game["b"]), game["K"], tau, sigma),
                 (np.ones(6), np.ones(4))),
        "drs": (drs, (resolvent, second, 0.8), (rng.normals(3),)),
        "admm": (admm, (f, g, cons, 0.05), (x0, z0, nu0)),
    }


TRACE_FIELDS = ("residuals", "bounds", "xs", "ys", "gaps", "infeasibility")


class TestOneSignature:
    @pytest.mark.parametrize("name", list(engine_cases()))
    @pytest.mark.parametrize("variant,restart,R", [("proposed", None, 2.0),
                                                   ("plain", "adaptive", None),
                                                   ("proposed", 5, 1.0)])
    def test_positional_call_is_the_keyword_call(self, name, variant, restart, R):
        engine, problem, start = engine_cases()[name]
        got = engine(*problem, *start, 30, variant, restart, R)
        want = engine(*problem, *start, iters=30, variant=variant, restart=restart, R=R)
        for field in TRACE_FIELDS:
            a, b = getattr(got, field, None), getattr(want, field, None)
            if b is None:
                assert a is None, field
            else:
                assert a.tobytes() == b.tobytes(), field
        assert got.restarts == want.restarts
        assert (got.bounds is not None) == (R is not None and restart is None)

    def test_extra_arguments_are_keyword_only(self):
        cases = engine_cases()
        engine, problem, start = cases["accelerated_saddle_ppm"]
        with pytest.raises(TypeError):
            engine(*problem, *start, 5, "proposed", None, None, ([0.0], [0.0]))
        engine, problem, start = cases["pdhg"]
        with pytest.raises(TypeError):
            engine(*problem, *start, 5, "proposed", None, None,
                   operator_norm(problem[2]))
        engine, problem, start = cases["iterate"]
        with pytest.raises(TypeError):
            engine(*problem, *start, 5, "plain", None, None, _euclidean_sq)


BAD_STEPS = [float("nan"), float("inf"), 0.0, -1.0]


class TestStepParameters:
    @pytest.mark.parametrize("value", BAD_STEPS, ids=["nan", "inf", "zero", "negative"])
    @pytest.mark.parametrize("name,param,index", [
        ("accelerated_prox_multipliers", "lam", 3),
        ("pdhg", "tau", 3),
        ("pdhg", "sigma", 4),
        ("drs", "rho", 2),
        ("admm", "rho", 3),
    ])
    def test_rejected_before_any_step(self, name, param, index, value, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("the engine ran its loop")

        engine, problem, start = engine_cases()[name]
        problem = problem[:index] + (value,) + problem[index + 1:]
        monkeypatch.setattr(splitting, "iterate", no_step)
        with pytest.raises(ValueError, match=f"^{param} must be a positive real"):
            engine(*problem, *start, 5)
