import numpy as np
import pytest
from numpy.testing import assert_allclose

from proxpoint import (
    SplitMix64,
    basis_pursuit_instance,
    basis_pursuit_solution,
    bilinear_game_instance,
    difference_matrix,
    linear_resolvent,
    rotation_worst_case,
    strongly_monotone_toy,
    toy_saddle,
    tv_instance,
    tv_solution,
)
from proxpoint import problems
from proxpoint.problems import PRESETS
from conftest import run_fresh


def assert_tv_kkt(h, b, gamma, x, nu, tol=1e-9):
    """KKT conditions of ``min ||H x - b||^2/2 + gamma ||D x||_1`` with the
    multiplier ``nu`` of ``z = D x``, the support read from ``x`` itself."""
    d = difference_matrix(x.size)
    stationarity = h.T @ (h @ x - b) + d.T @ nu
    assert np.max(np.abs(stationarity)) <= tol * max(1.0, np.max(np.abs(h.T @ b)))
    jumps = d @ x
    support = jumps != 0.0
    assert np.max(np.abs(nu), initial=0.0) <= gamma * (1.0 + tol)
    assert_allclose(nu[support], gamma * np.sign(jumps[support]), rtol=0,
                    atol=tol * max(1.0, gamma))


def assert_bp_kkt(a, b, u, v, tol=1e-9):
    """Optimality of ``u`` for ``min ||u||_1 s.t. A u = b`` with the
    multiplier ``v``: feasibility, ``-A'v`` in ``d||u||_1`` and zero
    duality gap."""
    assert_allclose(a @ u, b, rtol=0, atol=1e-12)
    slope = a.T @ v
    assert np.max(np.abs(slope)) <= 1.0 + tol
    support = u != 0.0
    assert_allclose(slope[support], -np.sign(u[support]), rtol=0, atol=tol)
    assert abs(np.abs(u).sum() + b @ v) <= tol * max(1.0, np.abs(u).sum())


def highs_basis_pursuit(a, b):
    """Test-only oracle: the basis pursuit LP solved by scipy's HiGHS, with
    the multiplier in the library's sign convention."""
    from scipy.optimize import linprog

    d1 = a.shape[1]
    res = linprog(np.ones(2 * d1), A_eq=np.hstack([a, -a]), b_eq=b,
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.x[:d1] - res.x[d1:], -res.eqlin.marginals


class TestSplitMix64:
    def test_reference_words(self):
        # Canonical splitmix64 stream for seed 0; pins the generator so
        # instances can be re-derived outside Python.
        words = SplitMix64(0).integers(3)
        assert [int(w) for w in words] == [0xE220A8397B1DCDAF,
                                           0x6E789E6AA1B965F4,
                                           0x06C45D188009454F]

    def test_deterministic(self):
        a = SplitMix64(7).normals(64)
        b = SplitMix64(7).normals(64)
        assert_allclose(a, b, rtol=0)

    def test_integers_below_in_range(self):
        draws = SplitMix64(2).integers_below(7, 1000)
        assert draws.min() >= 0 and draws.max() <= 6

    def test_batch_split_invariance(self):
        whole = SplitMix64(3).integers(10)
        rng = SplitMix64(3)
        parts = np.concatenate([rng.integers(4), rng.integers(6)])
        assert np.array_equal(whole, parts)

    def test_normals_roughly_standard(self):
        x = SplitMix64(11).normals(200_000)
        assert abs(x.mean()) < 0.01
        assert abs(x.std() - 1.0) < 0.01

    def test_uniforms_in_unit_interval(self):
        u = SplitMix64(5).uniforms(10_000)
        assert np.all((0.0 <= u) & (u < 1.0))

    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
    def test_block_generated_normals_keep_the_stream(self, seed):
        # normals(n) is Box-Muller on integers(2 * ((n + 1) // 2)) in one
        # piece, whatever block size it draws in; sizes at and around the
        # block boundary, and the next draw, pin values and state advance.
        b = problems._NORMAL_BLOCK
        for n in (1, 2 * b - 1, 2 * b, 2 * b + 1, 4 * b + 3):
            rng, ref = SplitMix64(seed), SplitMix64(seed)
            bits = ref.integers(2 * ((n + 1) // 2))
            u1 = ((bits[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
            u2 = (bits[1::2] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
            radius = np.sqrt(-2.0 * np.log(u1))
            angle = 2.0 * np.pi * u2
            want = np.empty(bits.size)
            want[0::2] = radius * np.cos(angle)
            want[1::2] = radius * np.sin(angle)
            assert np.array_equal(rng.normals(n), want[:n])
            assert np.array_equal(rng.normals(5), ref.normals(5))


class TestOperators:
    def test_rotation_n2(self):
        assert_allclose(rotation_worst_case(2, 1.0).entries,
                        [[0.0, 1.0], [-1.0, 0.0]])

    def test_rotation_n5_resolvent(self):
        op = rotation_worst_case(5, 1.0)
        assert_allclose(op.entries, [[0.0, 0.5], [-0.5, 0.0]])
        assert_allclose(linear_resolvent(op, 1.0)([1.0, 0.0]), [0.8, 0.4],
                        rtol=1e-14)

    def test_rotation_symmetric_part_vanishes(self):
        for n in (2, 17, 100):
            op = rotation_worst_case(n, 1.0)
            assert np.all(op.entries + op.entries.T == 0.0)

    def test_toy_full_scale_entries(self):
        op = strongly_monotone_toy(100, 1.0, 0.02)
        s = 1.0 / np.sqrt(99.0)
        assert_allclose(op.entries, [[0.02, s], [-s, 0.02]])
        assert np.linalg.eigvalsh(op.entries + op.entries.T)[0] >= 2 * 0.02 - 2e-10

    def test_toy_matches_saddle_subdifferential(self):
        op = strongly_monotone_toy(100, 1.0, 0.02)
        linear, shift = toy_saddle(100, 1.0, 0.02).stacked_operator()
        assert_allclose(linear, op.entries)
        assert np.all(shift == 0.0)

    @pytest.mark.parametrize("args", [(1,), (10, 0.0), (10, 1.0, 0.0)],
                             ids=["horizon 1", "lam 0", "mu 0"])
    def test_toy_saddle_rejects_what_the_toy_rejects(self, args):
        for build in (strongly_monotone_toy, toy_saddle):
            with pytest.raises(ValueError):
                build(*args)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0],
                             ids=["nan", "inf", "zero", "negative"])
    @pytest.mark.parametrize("build,name", [
        (rotation_worst_case, "lam"),
        (strongly_monotone_toy, "lam"),
        (strongly_monotone_toy, "mu"),
        (toy_saddle, "lam"),
        (toy_saddle, "mu"),
    ])
    def test_step_parameters_are_positive_reals(self, build, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a positive real"):
            build(10, **{name: value})

    def test_toy_saddle_blocks_are_the_closed_form(self):
        for n, lam, mu in [(2, 1.0, 0.02), (100, 1.0, 0.02), (37, 0.3, 5.0)]:
            phi = toy_saddle(n, lam, mu)
            s = 1.0 / (lam * np.sqrt(n - 1.0))
            assert (phi.q_uu[0, 0], phi.k[0, 0], phi.q_vv[0, 0]) == (mu, s, mu)

    def test_large_mu_dominates(self):
        op = strongly_monotone_toy(10, 1.0, 1e6)
        x = linear_resolvent(op, 1.0)([1.0, 0.0])
        assert_allclose(x, np.array([1.0, 0.0]) / (1.0 + 1e6),
                        rtol=1e-6, atol=1e-9)


class TestBasisPursuit:
    def test_feasible_by_construction(self):
        inst = basis_pursuit_instance(100, 20, 3)
        assert np.all(inst["b"] - inst["A"] @ inst["u_true"] == 0.0)

    def test_sparsity_rule(self):
        inst = basis_pursuit_instance(100, 20, 5)
        assert np.count_nonzero(inst["u_true"]) <= 10

    def test_deterministic(self):
        a = basis_pursuit_instance(50, 10, 9)
        b = basis_pursuit_instance(50, 10, 9)
        assert np.array_equal(a["A"], b["A"])
        assert np.array_equal(a["u_true"], b["u_true"])

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            basis_pursuit_instance(10, 10, 0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 7919])
    def test_percentile_is_numpys_quantile(self, seed):
        # The sparsity threshold is np.quantile(|raw|, 0.9) bit for bit, at
        # every size from 1 up, the fig3 sizes 40 and 100 among them.
        for d1 in range(1, 258):
            values = np.abs(SplitMix64(seed * 1000 + d1).normals(d1))
            ours = problems._percentile90(values)
            assert np.float64(ours).tobytes() == np.quantile(values, 0.9).tobytes(), d1

    @pytest.mark.parametrize("d1,d2,seed", [(40, 10, 1), (40, 10, 2), (100, 20, 1),
                                            (100, 20, 3), (100, 20, 7919)])
    def test_lp_solution_satisfies_kkt(self, d1, d2, seed):
        # 0 in d||u*||_1 + A'v*: |A'v*| <= 1 everywhere, and A'v* = -sign(u*)
        # on the support.
        inst = basis_pursuit_instance(d1, d2, seed)
        u_star, v_star = basis_pursuit_solution(inst["A"], inst["b"])
        assert_allclose(inst["A"] @ u_star, inst["b"], rtol=0, atol=1e-12)
        slope = inst["A"].T @ v_star
        assert np.max(np.abs(slope)) <= 1.0 + 1e-9
        support = u_star != 0.0
        assert support.any()
        assert_allclose(slope[support], -np.sign(u_star[support]), rtol=0, atol=1e-9)

    # (100, 20) at seeds 1-20 and at the instance seeds the benchmark derives
    # from its seeds 1 and 7919; (40, 10) at seeds 1-30, five of them (8, 14,
    # 18, 20, 26) with a degenerate vertex.
    @pytest.mark.parametrize("d1,d2,seeds,degenerate", [
        (100, 20, [*range(1, 21), 2554964596, 267651378], 0),
        (40, 10, range(1, 31), 5),
    ])
    def test_matches_highs(self, d1, d2, seeds, degenerate):
        found = 0
        for seed in seeds:
            inst = basis_pursuit_instance(d1, d2, seed)
            a, b = inst["A"], inst["b"]
            u_star, v_star = basis_pursuit_solution(a, b)
            u_ref, v_ref = highs_basis_pursuit(a, b)
            assert np.linalg.norm(u_star - u_ref) <= 1e-12 * np.linalg.norm(u_ref)
            assert_bp_kkt(a, b, u_star, v_star)
            if np.count_nonzero(u_star) == d2:
                # A nondegenerate vertex has a unique multiplier.
                assert np.linalg.norm(v_star - v_ref) <= 1e-11 * np.linalg.norm(v_ref)
            else:
                # Degenerate: the multiplier is not unique, the objective is.
                found += 1
                assert (abs(np.abs(u_star).sum() - np.abs(u_ref).sum())
                        <= 1e-12 * np.abs(u_ref).sum())
        assert found == degenerate

    def test_zero_data_gives_the_zero_solution(self):
        # Every pivot is degenerate: phase one swaps the artificials out at
        # level zero and phase two moves only the multiplier.
        a = basis_pursuit_instance(40, 10, 1)["A"]
        u_star, v_star = basis_pursuit_solution(a, np.zeros(10))
        assert np.all(u_star == 0.0)
        assert_bp_kkt(a, np.zeros(10), u_star, v_star)

    def test_infeasible_lp_raises(self):
        with pytest.raises(ArithmeticError, match="infeasible"):
            basis_pursuit_solution(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))

    def test_dependent_rows_raise(self):
        a = basis_pursuit_instance(40, 10, 1)["A"][:3]
        a = np.vstack([a, a[0] + a[1]])
        with pytest.raises(ArithmeticError, match="full row rank"):
            basis_pursuit_solution(a, a @ np.arange(40.0))

    def test_simplex_pivot_cap_raises(self):
        inst = basis_pursuit_instance(40, 10, 1)
        e = np.hstack([inst["A"], -inst["A"], np.eye(10)])
        b = np.abs(inst["b"])
        with pytest.raises(ArithmeticError, match="did not terminate"):
            problems._simplex(e, np.r_[np.zeros(80), np.ones(10)], b,
                              list(range(80, 90)), max_iters=1)

    def test_unbounded_lp_raises(self):
        # min -x s.t. x - y = 0, x, y >= 0.
        with pytest.raises(ArithmeticError, match="unbounded"):
            problems._simplex(np.array([[1.0, -1.0]]), np.array([-1.0, 0.0]),
                              np.zeros(1), [0], max_iters=10)

    def test_non_optimal_basis_fails_the_gates(self, monkeypatch):
        # Phase two stops where phase one left off: a feasible vertex whose
        # multiplier violates |A'v*| <= 1.
        simplex = problems._simplex
        calls = []

        def phase_one_only(e, c, b, basis, max_iters):
            calls.append(None)
            return simplex(e, c, b, basis, max_iters) if len(calls) == 1 else basis

        monkeypatch.setattr(problems, "_simplex", phase_one_only)
        inst = basis_pursuit_instance(40, 10, 1)
        with pytest.raises(ArithmeticError, match="optimality gates"):
            basis_pursuit_solution(inst["A"], inst["b"])


class TestBilinearGame:
    def test_deterministic(self):
        a = bilinear_game_instance(30, 12, 2)
        b = bilinear_game_instance(30, 12, 2)
        assert np.array_equal(a["K"], b["K"])
        assert np.array_equal(a["a"], b["a"])
        assert np.array_equal(a["b"], b["b"])

    def test_shapes_and_nondegeneracy(self):
        inst = bilinear_game_instance(50, 25, 1)
        assert inst["K"].shape == (25, 50)
        assert np.linalg.norm(inst["K"]) > 0.0

    @pytest.mark.parametrize("d1,d2,seed", [(50, 25, 1), (1000, 500, 1), (7, 9, 3)])
    def test_planted_saddle(self, d1, d2, seed):
        # Saddle conditions of a'u + <K u, v> - b'v: K'v* = -a and K u* = b.
        inst = bilinear_game_instance(d1, d2, seed)
        k = inst["K"]
        assert inst["u_star"].shape == (d1,) and inst["v_star"].shape == (d2,)
        assert_allclose(k.T @ inst["v_star"], -inst["a"], rtol=1e-12, atol=1e-12)
        assert_allclose(k @ inst["u_star"], inst["b"], rtol=1e-12, atol=1e-12)


class TestTV:
    def test_instance_loads_no_engine(self):
        # difference_matrix lives here, so the instances need only operators.
        proc = run_fresh(
            "-c", "import sys; from proxpoint.problems import tv_instance; "
            "tv_instance(8, 3, 1); print(sorted(m for m in "
            "('proxpoint.methods', 'proxpoint.splitting') if m in sys.modules))",
            check=True)
        assert proc.stdout.strip() == "[]"

    def test_piecewise_constant_structure(self):
        inst = tv_instance(100, 5, 1)
        jumps = inst["D"] @ inst["x_true"]
        assert np.count_nonzero(np.abs(jumps) > 1e-12) <= 4

    def test_noise_free_consistency(self):
        inst = tv_instance(60, 4, 2, noise_scale=0.0)
        assert_allclose(inst["b"], inst["H"] @ inst["x_true"], rtol=0, atol=0)

    def test_deterministic(self):
        a = tv_instance(40, 5, 7)
        b = tv_instance(40, 5, 7)
        assert np.array_equal(a["H"], b["H"])
        assert np.array_equal(a["b"], b["b"])

    def test_full_scale_shapes(self):
        inst = tv_instance(100, 5, 1)
        assert inst["H"].shape == (5, 100)
        assert inst["D"].shape == (99, 100)

    @pytest.mark.parametrize("preset", ["fig5", "fig5-desk"])
    def test_solution_satisfies_kkt(self, preset):
        p = PRESETS[preset]
        inst = tv_instance(p["d1"], p["p"], p["seed"], p["noise_scale"])
        x_star, nu_star = tv_solution(inst["H"], inst["b"], p["gamma"])
        assert_tv_kkt(inst["H"], inst["b"], p["gamma"], x_star, nu_star)
        # At most p - 1 breaks, or the pieces would not fix x* uniquely.
        breaks = np.count_nonzero(inst["D"] @ x_star)
        assert 1 <= breaks <= p["p"] - 1

    def test_wrong_support_fails_the_gates(self, monkeypatch):
        # An empty active set makes x* constant, so |nu_j| exceeds gamma.
        monkeypatch.setattr(problems, "_nnls", lambda e, f, max_iters: np.zeros(e.shape[1]))
        inst = tv_instance(40, 5, 1)
        with pytest.raises(ArithmeticError, match="KKT gates"):
            tv_solution(inst["H"], inst["b"], 3.0)

    def test_nnls_matches_scipy(self):
        from scipy.optimize import nnls

        rng = SplitMix64(11)
        for rows, cols in [(5, 30), (8, 8), (3, 50)]:
            e, f = rng.normal_matrix(rows, cols), rng.normals(rows)
            assert_allclose(problems._nnls(e, f, 3 * cols), nnls(e, f)[0],
                            rtol=0, atol=1e-12)

    def test_nnls_iteration_cap_raises(self):
        e = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ArithmeticError, match="did not terminate"):
            problems._nnls(e, np.array([1.0, 1.0]), max_iters=1)
