from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from proxpoint import (
    build_constraint_matrices,
    build_h,
    certificate_slack,
    equivalence_check,
    general_ppm,
    linear_resolvent,
    ppm,
    rotation_worst_case,
    verify_certificate,
)
from proxpoint import operators
from proxpoint.pep_cert import _assemble_slack, constraint_a, constraint_b, dual_multipliers
from conftest import (
    FailingEigenLapack,
    random_monotone_operator,
    reference_build_h,
    reference_certificate_slack,
    reference_constraint_matrices,
)


class TestBuildH:
    def test_first_row(self):
        assert build_h(2)[0, 0] == 1.0

    def test_second_row(self):
        assert_allclose(build_h(3)[1, :2], [-1.0 / 3.0, 4.0 / 3.0], rtol=1e-15)

    def test_rows_sum_to_one(self):
        table = build_h(101)
        for i in range(1, 101):
            assert table[i - 1, :i].sum() == pytest.approx(1.0, abs=1e-13)

    def test_small_horizon_rejected(self):
        with pytest.raises(ValueError):
            build_h(1)


class TestConstraintMatrices:
    def test_c_matrix(self):
        mats = build_constraint_matrices(build_h(4), 4)
        expected = np.zeros((5, 5))
        expected[4, 4] = 1.0
        assert_allclose(mats.C, expected)

    def test_hand_expanded_a12(self):
        mats = build_constraint_matrices(build_h(2), 2)
        assert_allclose(mats.A[(1, 2)],
                        [[0.0, -0.5, 0.0], [-0.5, 1.0, 0.0], [0.0, 0.0, 0.0]])

    def test_hand_expanded_b2(self):
        mats = build_constraint_matrices(build_h(2), 2)
        assert_allclose(mats.B[2],
                        [[0.0, 0.5, 0.0], [0.5, 1.0, -0.5], [0.0, -0.5, 0.0]])

    def test_table_shorter_than_horizon_rejected(self):
        with pytest.raises(ValueError, match="fewer iterations"):
            build_constraint_matrices(build_h(4), 5)

    def test_a_table_shorter_than_horizon_rejected(self):
        with pytest.raises(ValueError, match="fewer iterations"):
            constraint_a(build_h(3), 5, 1, 5)

    def test_b_table_shorter_than_horizon_rejected(self):
        with pytest.raises(ValueError, match="fewer iterations"):
            constraint_b(build_h(3), 5, 5)

    def test_all_matrices_symmetric(self):
        mats = build_constraint_matrices(build_h(6), 6)
        for mat in list(mats.A.values()) + list(mats.B.values()) + [mats.C]:
            assert_allclose(mat, mat.T)

    def test_accelerated_trace_gram_data_is_feasible(self, rng):
        # Same feasibility check driven by the certified coefficients on a
        # random monotone operator: validates every A and B matrix against
        # genuine operator data, not just the consecutive pairs.
        n = 7
        table = build_h(n)
        op = random_monotone_operator(rng, 5)
        y0 = rng.normals(5)
        trace = general_ppm(linear_resolvent(op, 0.7), table, y0, n)
        radius = np.linalg.norm(y0)  # x* = 0 for a linear operator
        gs = [(trace.ys[i] - trace.xs[i + 1]) / radius for i in range(n)]
        vecs = gs + [y0 / radius]
        gram = np.array([[a @ b for b in vecs] for a in vecs])
        mats = build_constraint_matrices(table, n)
        for mat in list(mats.A.values()) + list(mats.B.values()):
            assert np.trace(mat @ gram) <= 1e-10
        assert np.trace(mats.C @ gram) <= 1.0 + 1e-12

    def test_ppm_trace_gram_data_is_feasible(self):
        # Feed the Gram data of an actual PPM run into the constraints built
        # for the PPM step choice; every constraint value must be <= 0 and
        # the initial-distance constraint must be active at 1.
        n = 8
        resolvent = linear_resolvent(rotation_worst_case(n, 1.0), 1.0)
        trace = ppm(resolvent, [1.0, 0.0], n)
        gs = [trace.ys[i] - trace.xs[i + 1] for i in range(n)]  # lam = R = 1
        vecs = gs + [trace.ys[0]]  # x* = 0
        gram = np.array([[a @ b for b in vecs] for a in vecs])
        mats = build_constraint_matrices(np.eye(n - 1), n)
        for mat in list(mats.A.values()) + list(mats.B.values()):
            assert np.trace(mat @ gram) <= 1e-12
        assert np.trace(mats.C @ gram) == pytest.approx(1.0, rel=1e-12)


class TestCertificate:
    def test_hand_summed_slack_n2(self):
        assert_allclose(certificate_slack(2),
                        [[0.0, 0.0, 0.0], [0.0, 1.0, -0.5], [0.0, -0.5, 0.25]])

    def test_slack_symmetric_and_trace_identity(self):
        for n in (2, 7, 31):
            s = certificate_slack(n)
            assert_allclose(s, s.T)
            assert np.trace(s) == pytest.approx(1.0 + 1.0 / n ** 2, rel=1e-12)

    def test_exact_at_n2(self):
        report = verify_certificate(2)
        assert report.max_rank1_deviation == 0.0
        assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-14)
        assert report.dual_value == 0.25

    def test_n10(self):
        report = verify_certificate(10)
        assert report.max_rank1_deviation <= 1e-13
        assert report.dual_value == 0.01
        assert report.passed

    def test_rank1_identity_through_n60(self):
        for n in range(2, 61):
            report = verify_certificate(n)
            assert report.max_rank1_deviation <= 1e-12
            assert report.min_eigenvalue >= -1e-10
            assert report.dual_value == pytest.approx(1.0 / n ** 2, rel=1e-15)
            assert report.passed

    def test_multipliers_nonnegative(self):
        for n in (2, 13, 60):
            a, b_n, c = dual_multipliers(n)
            assert all(v >= 0 for v in a.values())
            assert b_n >= 0 and c >= 0


BIT_IDENTITY_HORIZONS = [*range(2, 61), 120, 240]


class TestAgainstDenseReference:
    """The O(N^2) assembly equals the dense O(N^3) constraint-matrix sum
    bit for bit, not merely to a tolerance."""

    def test_build_h_table(self):
        for n in BIT_IDENTITY_HORIZONS:
            assert np.array_equal(build_h(n), reference_build_h(n)), n

    def test_certificate_slack(self):
        for n in BIT_IDENTITY_HORIZONS:
            assert certificate_slack(n).tobytes() == reference_certificate_slack(n).tobytes(), n

    def test_full_constraint_family(self):
        for n in range(2, 13):
            mats = build_constraint_matrices(build_h(n), n)
            ref = reference_constraint_matrices(reference_build_h(n), n)
            assert mats.A.keys() == ref.A.keys() and mats.B.keys() == ref.B.keys()
            for key in ref.A:
                assert np.array_equal(mats.A[key], ref.A[key]), (n, key)
            for key in ref.B:
                assert np.array_equal(mats.B[key], ref.B[key]), (n, key)
            assert np.array_equal(mats.C, ref.C)


CROSS_CHECK_HORIZONS = [*range(2, 61), 80, 100, 120, 160, 200, 240]


def rank1_factor(n):
    r = np.zeros(n + 1)
    r[n - 1] = 1.0
    r[n] = -1.0 / n
    return r


class TestCrossCheck:
    """``verify_certificate`` against the dense computations it replaced:
    every eigenvalue of the slack and ``|S - r r'|`` over the whole matrix."""

    def test_min_eigenvalue_matches_eigvalsh(self):
        for n in CROSS_CHECK_HORIZONS:
            dense = np.linalg.eigvalsh(certificate_slack(n))[0]
            assert abs(verify_certificate(n).min_eigenvalue - dense) <= 1e-14, n

    def test_deviation_equals_the_dense_maximum(self):
        for n in CROSS_CHECK_HORIZONS:
            s, r = certificate_slack(n), rank1_factor(n)
            dense = float(np.max(np.abs(s - np.outer(r, r))))
            assert verify_certificate(n).max_rank1_deviation == dense, n

    def test_slack_and_table_bytes_unchanged(self):
        for n in CROSS_CHECK_HORIZONS:
            assert certificate_slack(n).tobytes() == reference_certificate_slack(n).tobytes(), n

    @pytest.mark.parametrize("delta", [1e-6, np.nan])
    def test_deviation_sees_every_entry(self, delta, monkeypatch):
        # A perturbation anywhere, inside or outside the trailing 2x2 block
        # of r r', shows in the deviation, and a NaN is not dropped.
        n = 9
        slack = {}
        monkeypatch.setattr("proxpoint.pep_cert.certificate_slack", lambda _n: slack["s"])
        monkeypatch.setattr("proxpoint.pep_cert._min_eigenvalue", lambda _s: 0.0)
        for p, q in [(0, 0), (3, 5), (n - 1, 2), (2, n), (n - 1, n - 1), (n, n - 1), (n, n)]:
            slack["s"] = certificate_slack(n)
            slack["s"][p, q] += delta
            report = verify_certificate(n)
            if np.isnan(delta):
                assert np.isnan(report.max_rank1_deviation) and not report.passed, (p, q)
            else:
                assert report.max_rank1_deviation >= delta - 1e-15, (p, q)


class TestLapackFailure:
    @pytest.mark.parametrize("info,found", [(1, 0), (-3, 0), (0, 0)])
    def test_is_an_arithmetic_error(self, monkeypatch, info, found):
        monkeypatch.setattr(operators, "_flapack", lambda: FailingEigenLapack(info, found))
        with pytest.raises(ArithmeticError, match="dsyevr"):
            verify_certificate(10)


def exact_h_table(n):
    """The step table in rationals, as an object array of ``Fraction``."""
    table = np.full((n - 1, n - 1), Fraction(0), dtype=object)
    for i in range(1, n):
        for k in range(1, i):
            table[i - 1, k - 1] = Fraction(-2 * k, i * (i + 1))
        table[i - 1, i - 1] = Fraction(2 * i, i + 1)
    return table


def exact_multipliers(n):
    """``dual_multipliers(n)`` in rationals."""
    a = {i: Fraction(2 * (i - 1) * i, n * n) for i in range(2, n + 1)}
    return a, Fraction(2, n), Fraction(1, n * n)


def exact_slack(n, table):
    return _assemble_slack(table, *exact_multipliers(n))


def exact_rank1(n):
    r = np.full(n + 1, Fraction(0), dtype=object)
    r[n - 1] = Fraction(1)
    r[n] = Fraction(-1, n)
    return np.outer(r, r)


class TestExactCertificate:
    """``S = r r'`` with ``r = u_N - u_{N+1}/N`` holds in exact rational
    arithmetic, through the library's own slack assembly."""

    def test_slack_equals_rank1_in_rationals(self):
        for n in [*range(2, 41), 60, 97]:
            s = exact_slack(n, exact_h_table(n))
            assert all(type(v) is Fraction for v in s.flat), n
            assert (s == exact_rank1(n)).all(), n

    def test_perturbed_table_matches_the_dense_constraint_sum(self):
        # On a table that is not the step table, so the slack is not r r',
        # the O(N^2) assembly still equals sum a_i A_{i-1,i} + b_N B_N + c C
        # - u_N u_N' summed densely from the library's own constraint
        # matrices, exactly.
        for n in (3, 6, 17):
            table = exact_h_table(n)
            table[n - 2, :] += Fraction(1, 10 ** 9)
            table[n - 2, n - 2] -= Fraction(3, 10 ** 9)
            a, b_n, c = exact_multipliers(n)
            dense = b_n * constraint_b(table, n, n)
            for i in range(2, n + 1):
                dense += a[i] * constraint_a(table, n, i - 1, i)
            dense[n, n] += c
            dense[n - 1, n - 1] -= 1
            assert (exact_slack(n, table) == dense).all(), n

    def test_float_table_is_the_rounded_rational_table(self):
        for n in (2, 3, 17, 97):
            assert np.array_equal(exact_h_table(n).astype(float), build_h(n))

    def test_perturbed_table_breaks_the_identity(self):
        n = 6
        table = exact_h_table(n)
        table[3, 1] += Fraction(1, 10 ** 9)
        assert not (exact_slack(n, table) == exact_rank1(n)).all()


class TestEquivalence:
    def test_rotation(self):
        resolvent = linear_resolvent(rotation_worst_case(50, 1.0), 1.0)
        assert equivalence_check(resolvent, 50, np.array([1.0, 0.0])) <= 1e-9

    def test_zero_operator(self):
        assert equivalence_check(lambda y: y, 10, np.array([1.0, 2.0])) == 0.0

    def test_random_monotone(self, rng):
        op = random_monotone_operator(rng, 8)
        resolvent = linear_resolvent(op, 1.0)
        assert equivalence_check(resolvent, 100, rng.normals(8)) <= 1e-8
