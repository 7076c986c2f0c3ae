import contextlib
import sys
import threading
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import lu_factor

from proxpoint import (
    DenseLinearOperator,
    QuadraticSaddle,
    SingularSystemError,
    SplitMix64,
    linear_resolvent,
    preconditioned_resolvent_map,
    saddle_resolvent_map,
    strongly_monotone_toy,
    tv_instance,
    yosida,
)
from proxpoint import cli, operators, splitting
from proxpoint.operators import as_vector
from proxpoint.pep_cert import verify_certificate
from proxpoint.problems import PRESETS
from conftest import (FailingEigenLapack, lu_solve_factor, random_monotone_operator,
                      reference_saddle_gap, run_fresh)

ROTATION = [[0.0, 1.0], [-1.0, 0.0]]


class TestResolvent:
    def test_rotation_hand_solve(self):
        # (I + M)^{-1} = [[1, -1], [1, 1]] / 2
        assert_allclose(linear_resolvent(ROTATION, 1.0)([1.0, 0.0]), [0.5, 0.5])

    def test_zero_operator_is_identity(self):
        assert_allclose(linear_resolvent(np.zeros((2, 2)), 3.7)([3.0, -2.0]),
                        [3.0, -2.0])

    def test_scalar_strongly_monotone(self):
        assert_allclose(linear_resolvent([[0.02]], 1.0)([1.02]), [1.0], rtol=1e-14)

    def test_residual_of_solve(self, rng):
        op = random_monotone_operator(rng, 7)
        lam = 0.8
        y = rng.normals(7)
        x = linear_resolvent(op, lam)(y)
        residual = np.linalg.norm((np.eye(7) + lam * op.entries) @ x - y)
        assert residual <= 1e-12 * np.linalg.norm(y)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            linear_resolvent(ROTATION, 0.0)
        with pytest.raises(ValueError):
            linear_resolvent(ROTATION, -1.0)

    @pytest.mark.parametrize("make", [DenseLinearOperator, np.asarray])
    def test_empty_operator_refused_quietly(self, capfd, make):
        with pytest.raises(ValueError, match="nonempty square matrix"):
            linear_resolvent(make(np.zeros((0, 0))), 1.0)
        # LAPACK reports a bad argument on stdout, not by an exception.
        assert capfd.readouterr() == ("", "")

    def test_singular_system_raises(self):
        # M = -I makes I + M singular (non-monotone input).
        with pytest.raises(SingularSystemError):
            linear_resolvent(-np.eye(3), 1.0)

    def test_firm_nonexpansiveness(self, rng):
        for _ in range(100):
            op = random_monotone_operator(rng, 4)
            resolvent = linear_resolvent(op, 0.5 + rng.uniforms(1)[0])
            y1, y2 = rng.normals(4), rng.normals(4)
            d = resolvent(y1) - resolvent(y2)
            assert d @ (y1 - y2) >= d @ d - 1e-10


class TestPreconditionedResolvent:
    def test_identity_preconditioner_matches_plain(self, rng):
        op = random_monotone_operator(rng, 5)
        y = rng.normals(5)
        assert_allclose(preconditioned_resolvent_map(op, np.eye(5), 0.9)(y),
                        linear_resolvent(op, 0.9)(y), rtol=1e-13)

    def test_zero_operator_returns_input(self):
        p = [[2.0, -1.0], [-1.0, 2.0]]
        assert_allclose(preconditioned_resolvent_map(np.zeros((2, 2)), p, 1.0)([1.0, 1.0]),
                        [1.0, 1.0], rtol=1e-14)

    def test_hand_solve(self):
        # (P + M) = [[2, 0], [-2, 2]], P y = [2, -1] -> x = [1, 0.5]
        p = [[2.0, -1.0], [-1.0, 2.0]]
        assert_allclose(preconditioned_resolvent_map(ROTATION, p, 1.0)([1.0, 0.0]),
                        [1.0, 0.5], rtol=1e-14)

    def test_preconditioner_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            preconditioned_resolvent_map(np.eye(2), [[1.0, 0.5], [0.4, 1.0]], 1.0)
        with pytest.raises(ValueError, match="positive definite"):
            preconditioned_resolvent_map(np.eye(2), [[1.0, 0.0], [0.0, -0.1]], 1.0)


class TestSaddleResolvent:
    def test_zero_saddle_returns_input(self):
        phi = QuadraticSaddle(np.zeros((2, 2)), np.zeros((3, 2)), np.zeros((3, 3)))
        x = saddle_resolvent_map(phi, 2.0)([1.0, -1.0, 0.0, 2.0, 3.0])
        assert_allclose(x, [1.0, -1.0, 0.0, 2.0, 3.0])

    def test_scalar_bilinear_hand_solve(self):
        phi = QuadraticSaddle([[0.0]], [[1.0]], [[0.0]])
        assert_allclose(saddle_resolvent_map(phi, 1.0)([1.0, 0.0]), [0.5, 0.5])

    def test_matches_equivalent_linear_operator(self):
        # The toy saddle's subdifferential is exactly the 2x2 toy operator.
        phi = QuadraticSaddle([[0.02]], [[1.0 / np.sqrt(99.0)]], [[0.02]])
        op = strongly_monotone_toy(100, 1.0, 0.02)
        assert_allclose(saddle_resolvent_map(phi, 1.0)([1.0, 0.0]),
                        linear_resolvent(op, 1.0)([1.0, 0.0]), rtol=1e-14)

    def test_agrees_with_stacked_resolvent(self, rng):
        b1 = rng.normal_matrix(3, 3)
        b2 = rng.normal_matrix(2, 2)
        phi = QuadraticSaddle(b1 @ b1.T, rng.normal_matrix(2, 3), b2 @ b2.T,
                              a=rng.normals(3), b=rng.normals(2))
        linear, shift = phi.stacked_operator()
        lam = 0.6
        u_hat, v_hat = rng.normals(3), rng.normals(2)
        y = np.concatenate([u_hat, v_hat])
        expected = linear_resolvent(linear, lam)(y - lam * shift)
        assert np.max(np.abs(saddle_resolvent_map(phi, lam)(y) - expected)) <= 1e-10

    def test_requires_psd_blocks(self):
        with pytest.raises(ValueError):
            QuadraticSaddle([[-1.0]], [[1.0]], [[0.0]])


class TestGapScorer:
    @pytest.mark.parametrize("d1, d2", [(1, 1), (2, 3), (5, 4)])
    def test_matches_gap_bit_for_bit(self, rng, d1, d2):
        b1, b2 = rng.normal_matrix(d1, d1), rng.normal_matrix(d2, d2)
        phi = QuadraticSaddle(b1 @ b1.T, rng.normal_matrix(d2, d1), b2 @ b2.T,
                              a=rng.normals(d1), b=rng.normals(d2))
        u_star, v_star = rng.normals(d1), rng.normals(d2)
        score = phi.gap_scorer(u_star, v_star)
        points = [rng.normals(d1 + d2) * 10.0 ** k for k in range(-3, 4)]
        assert np.array_equal([score(x) for x in points],
                              [reference_saddle_gap(phi, x[:d1], x[d1:], u_star, v_star)
                               for x in points])


class TestYosida:
    def test_zero_operator_gives_zero(self):
        resolvent = linear_resolvent(np.zeros((3, 3)), 2.0)
        assert_allclose(yosida(resolvent, 2.0)([1.0, -2.0, 3.0]), np.zeros(3))

    def test_rotation_value(self):
        resolvent = linear_resolvent(ROTATION, 1.0)
        assert_allclose(yosida(resolvent, 1.0)([1.0, 0.0]), [0.5, -0.5])

    def test_scalar_value(self):
        resolvent = linear_resolvent([[0.02]], 1.0)
        assert_allclose(yosida(resolvent, 1.0)([1.02]), [0.02], rtol=1e-12)

    def test_identity_and_cocoercivity(self, rng):
        for _ in range(100):
            op = random_monotone_operator(rng, 3)
            lam = 0.5 + rng.uniforms(1)[0]
            resolvent = linear_resolvent(op, lam)
            approx = yosida(resolvent, lam)
            y = rng.normals(3)
            assert np.linalg.norm(resolvent(y) - (y - lam * approx(y))) <= 1e-12
            y1, y2 = rng.normals(3), rng.normals(3)
            d = approx(y1) - approx(y2)
            assert (y1 - y2) @ d >= lam * (d @ d) - 1e-10


# Every caller of operators._min_eigenvalue.
EIGENVALUE_CHECKS = [
    lambda: preconditioned_resolvent_map(np.zeros((3, 3)), np.eye(3), 1.0),
    lambda: QuadraticSaddle(np.eye(2), np.ones((1, 2)), np.eye(1)),
    lambda: verify_certificate(3),
]


@pytest.fixture
def set_threads():
    """Thread setter of the OpenBLAS behind scipy's LAPACK module."""
    setter = operators._blas_thread_setter()
    if setter is None:
        pytest.skip("scipy's LAPACK is not OpenBLAS here, so there is no "
                    "thread count to pin or restore")
    return setter


def thread_count(set_threads):
    """Current count: the setter returns the count it replaces, which is
    then put back."""
    count = set_threads(1)
    set_threads(count)
    return count


@contextlib.contextmanager
def openblas_threads(set_threads, count):
    previous = set_threads(count)
    try:
        yield
    finally:
        set_threads(previous)


class TestMinEigenvalue:
    @pytest.mark.parametrize("dim", [1, 2, 7, 60])
    def test_matches_eigvalsh(self, dim, rng):
        for _ in range(20):
            b = rng.normal_matrix(dim, dim)
            m = b + b.T
            dense = np.linalg.eigvalsh(m)
            tol = 1e-14 * max(1.0, np.max(np.abs(dense)))
            assert abs(operators._min_eigenvalue(m) - dense[0]) <= tol

    def test_reads_the_lower_triangle_like_eigvalsh(self, rng):
        m = rng.normal_matrix(6, 6)
        assert operators._min_eigenvalue(m) == pytest.approx(np.linalg.eigvalsh(m)[0],
                                                             abs=1e-13)
        mirrored = np.tril(m) + np.tril(m, -1).T
        assert operators._min_eigenvalue(m) == operators._min_eigenvalue(mirrored)

    def test_leaves_its_input_alone(self, rng):
        b = rng.normal_matrix(5, 5)
        m = b + b.T
        before = m.copy()
        operators._min_eigenvalue(m)
        assert np.array_equal(m, before)

    @pytest.mark.parametrize("check", EIGENVALUE_CHECKS)
    def test_lapack_failure_is_an_arithmetic_error(self, check, monkeypatch):
        check()
        monkeypatch.setattr(operators, "_flapack", lambda: FailingEigenLapack(1, 0))
        with pytest.raises(ArithmeticError, match="dsyevr"):
            check()

    @pytest.mark.parametrize("check", EIGENVALUE_CHECKS)
    def test_thread_count_restored_after_success_and_failure(self, check, set_threads,
                                                             monkeypatch):
        # Two threads, not the count the call pins, so a missing restore shows.
        with openblas_threads(set_threads, 2):
            check()
            assert thread_count(set_threads) == 2
            monkeypatch.setattr(operators, "_flapack", lambda: FailingEigenLapack(1, 0))
            with pytest.raises(ArithmeticError, match="dsyevr"):
                check()
            assert thread_count(set_threads) == 2

    def test_thread_count_restored_when_the_lapack_call_raises(self, set_threads):
        with openblas_threads(set_threads, 2):
            # f2py refuses a non-square matrix inside the pinned call, with
            # an error class private to the extension.
            with pytest.raises(Exception, match=r"shape\(a,0\)==shape\(a,1\)"):
                operators._min_eigenvalue(np.ones((2, 3)))
            assert thread_count(set_threads) == 2

    def test_certificate_eigenvalue_ignores_the_thread_count(self, set_threads):
        # Unpinned, two threads on a 2-core host move min_eig at N = 235
        # from -4.18e-16 to -2.88e-16.
        values = []
        for count in (2, 1):
            with openblas_threads(set_threads, count):
                values.append(verify_certificate(235).min_eigenvalue.hex())
        assert values[0] == values[1]

    def test_without_the_setter_the_call_runs_unpinned(self, monkeypatch):
        pinned = verify_certificate(235).min_eigenvalue
        set_threads = operators._blas_thread_setter()
        monkeypatch.setattr(operators, "_blas_thread_setter", lambda: None)
        # At one thread the pin changes nothing, so the result must be the same.
        with (openblas_threads(set_threads, 1) if set_threads
              else contextlib.nullcontext()):
            assert verify_certificate(235).min_eigenvalue == pinned

    def test_concurrent_callers_leave_the_thread_count(self, set_threads, rng):
        b = rng.normal_matrix(60, 60)
        m = b + b.T
        expected = operators._min_eigenvalue(m)
        results, workers = [], 4
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with openblas_threads(set_threads, 2):
                def call():
                    results.extend(operators._min_eigenvalue(m) for _ in range(50))

                threads = [threading.Thread(target=call) for _ in range(workers)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert thread_count(set_threads) == 2
        finally:
            sys.setswitchinterval(switch)
        assert results == [expected] * (50 * workers)


class TestFactoredSolve:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2, 7, 100])
    def test_resolvent_maps_match_lu_solve(self, dim, seed, monkeypatch):
        rng = SplitMix64(seed)
        op = random_monotone_operator(rng, dim)
        b = rng.normal_matrix(dim, dim)
        precond = b @ b.T + np.eye(dim)
        d2 = max(1, dim // 2)
        q_u, q_v = rng.normal_matrix(dim, dim), rng.normal_matrix(d2, d2)
        phi = QuadraticSaddle(q_u @ q_u.T, rng.normal_matrix(d2, dim), q_v @ q_v.T,
                              a=rng.normals(dim), b=rng.normals(d2))
        ys = [rng.normals(dim) for _ in range(3)]
        stacked = [rng.normals(dim + d2) for _ in range(3)]

        def outputs():
            plain = linear_resolvent(op, 0.7)
            pre = preconditioned_resolvent_map(op, precond, 0.7)
            saddle = saddle_resolvent_map(phi, 0.7)
            return ([plain(y) for y in ys] + [pre(y) for y in ys]
                    + [saddle(y) for y in stacked])

        direct = outputs()
        monkeypatch.setattr(operators, "_factor", lu_solve_factor)
        reference = outputs()
        assert len(direct) == len(reference)
        for got, want in zip(direct, reference):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("dim", [1, 2, 7, 100])
    def test_solve_leaves_rhs_untouched(self, dim):
        rng = SplitMix64(dim)
        system = rng.normal_matrix(dim, dim) + dim * np.eye(dim)
        rhs = rng.normals(dim)
        kept = rhs.copy()
        x = operators._factor(system)(rhs)
        assert x is not rhs and np.array_equal(rhs, kept)

    @pytest.mark.parametrize("dim", [1, 2, 7, 100])
    def test_singular_system_still_raises(self, dim):
        with pytest.raises(SingularSystemError):
            operators._factor(np.zeros((dim, dim)))
        with pytest.raises(SingularSystemError):
            linear_resolvent(-np.eye(dim), 1.0)
        with pytest.raises(SingularSystemError):
            preconditioned_resolvent_map(-np.eye(dim), np.eye(dim), 1.0)


def same_factors(system):
    """Whether the bound ``dgetrf`` and ``lu_factor`` give equal ``lu`` and
    ``piv`` arrays of equal dtypes for ``system``."""
    lu, piv, _ = operators._flapack().dgetrf(system)
    want_lu, want_piv = lu_factor(system, check_finite=False)
    return all(got.dtype == want.dtype and np.array_equal(got, want)
               for got, want in ((lu, want_lu), (piv, want_piv)))


# Compares the bound getrf with lu_factor in a fresh interpreter, importing
# proxpoint's LAPACK module and the scipy.linalg package in the given order.
IMPORT_ORDER_SCRIPT = """
import sys
import numpy as np
if sys.argv[1] == "proxpoint-first":
    from proxpoint.operators import _flapack
    getrf = _flapack().dgetrf
    from scipy.linalg import lu_factor
else:
    from scipy.linalg import lu_factor
    from proxpoint.operators import _flapack
    getrf = _flapack().dgetrf
from proxpoint import SplitMix64
same = []
for dim in (1, 2, 7, 100):
    system = SplitMix64(dim).normal_matrix(dim, dim) + dim * np.eye(dim)
    lu, piv, _ = getrf(system)
    want_lu, want_piv = lu_factor(system, check_finite=False)
    same.append(all(got.dtype == want.dtype and np.array_equal(got, want)
                    for got, want in ((lu, want_lu), (piv, want_piv))))
print(same)
"""


class TestBoundLapack:
    # The getrf that _factor calls is the compiled routine lu_factor
    # reaches for a float64 system, so the factors are equal bit for bit.
    @pytest.mark.parametrize("dim", [1, 2, 7, 100])
    def test_getrf_matches_lu_factor(self, dim):
        system = SplitMix64(dim).normal_matrix(dim, dim) + dim * np.eye(dim)
        assert same_factors(system)

    def test_getrf_matches_lu_factor_on_fig5_x_update(self, tmp_path, monkeypatch):
        systems = []

        def recording(system):
            systems.append(system)
            return operators._factor(system)

        monkeypatch.setattr(splitting, "_factor", recording)
        assert cli.main(["--experiment", "fig5", "--iters", "2",
                         "--out", str(tmp_path / "run.csv")]) == 0
        p = PRESETS["fig5"]
        inst = tv_instance(p["d1"], p["p"], p["seed"], p["noise_scale"])
        h, d = inst["H"], inst["D"]
        assert systems
        for system in systems:
            # The ADMM x-update system H'H + rho D'D.
            assert_allclose(system, h.T @ h + p["rho"] * (d.T @ d), rtol=1e-14)
            assert same_factors(system)

    @pytest.mark.parametrize("order", ["proxpoint-first", "scipy-first"])
    def test_either_import_order_gives_the_same_factors(self, order):
        proc = run_fresh("-c", IMPORT_ORDER_SCRIPT, order, check=True)
        assert proc.stdout.strip() == "[True, True, True, True]"


class TestAsVector:
    def test_scalar_becomes_length_one(self):
        v = as_vector(3.0)
        assert v.shape == (1,) and v[0] == 3.0

    def test_int_list_becomes_float64(self):
        v = as_vector([1, 2, 3])
        assert v.dtype == np.float64
        assert np.array_equal(v, [1.0, 2.0, 3.0])

    def test_float_vector_is_not_copied(self):
        x = np.array([1.0, -2.0])
        assert as_vector(x) is x

    def test_matrix_rejected(self):
        with pytest.raises(ValueError, match="expected a vector"):
            as_vector(np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            as_vector([1.0, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_bad_entry_rejected_at_every_position(self, d, bad):
        for pos in range(d):
            v = np.arange(1.0, d + 1.0)
            v[pos] = bad
            assert not np.isfinite(v).all()
            with pytest.raises(ValueError, match="non-finite"):
                as_vector(v)

    @pytest.mark.parametrize("v", [[1e200, -1e200], [1e308], []],
                             ids=["squares overflow", "square overflows", "empty"])
    def test_finite_entries_accepted_without_a_warning(self, v):
        # The sum of squares overflows here, so the entrywise scan decides.
        v = np.array(v, dtype=float)
        assert np.isfinite(v).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert as_vector(v) is v

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_resolvent_rejects_non_finite_input(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            linear_resolvent(ROTATION, 1.0)(np.array([bad, 0.0]))
