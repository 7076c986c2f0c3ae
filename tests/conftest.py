import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from proxpoint import DenseLinearOperator, SplitMix64, StepCoeffs
from proxpoint.pep_cert import ConstraintMatrices, constraint_c, dual_multipliers


def random_monotone_operator(rng, dim, strength=1.0, mu=0.0):
    """Random monotone linear operator: PSD part plus a skew part."""
    b = rng.normal_matrix(dim, dim)
    w = rng.normal_matrix(dim, dim)
    m = strength * (b @ b.T) / dim + (w - w.T) + mu * np.eye(dim)
    return DenseLinearOperator(m)


def lu_solve_factor(system):
    """Stand-in for ``operators._factor`` that solves through
    ``scipy.linalg.lu_solve``: the reference for bit-identity checks."""
    factors = lu_factor(system, check_finite=False)
    return lambda rhs: lu_solve(factors, rhs, check_finite=False)


# Dense O(N^3) reference for the certificate: verbatim copies of the
# loop-built step table, the identity-basis constraint matrices and the
# slack sum they replaced. The library's assembly must match them bit for
# bit (np.array_equal).

def reference_build_h(n):
    if n < 2:
        raise ValueError("horizon must be at least 2")
    table = np.zeros((n - 1, n - 1))
    for i in range(1, n):
        for k in range(1, i):
            table[i - 1, k - 1] = -2.0 * k / (i * (i + 1))
        table[i - 1, i - 1] = 2.0 * i / (i + 1)
    return StepCoeffs(n, table)


def _reference_sym_outer(u, v):
    return 0.5 * (np.outer(u, v) + np.outer(v, u))


def _reference_h_combination(coeffs, e, l):
    row = coeffs.row(l + 1)
    return row @ e[:l + 1]


def reference_constraint_a(coeffs, n, i, j):
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    e = np.eye(n + 1)
    d = e[i - 1] - e[j - 1]
    span = np.zeros(n + 1)
    for l in range(i - 1, j - 1):
        span += _reference_h_combination(coeffs, e, l)
    return _reference_sym_outer(d, d) - _reference_sym_outer(d, span)


def reference_constraint_b(coeffs, n, i):
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= {n}, got {i}")
    e = np.eye(n + 1)
    ui = e[i - 1]
    span = np.zeros(n + 1)
    for l in range(i - 1):
        span += _reference_h_combination(coeffs, e, l)
    return np.outer(ui, ui) - _reference_sym_outer(ui, e[n]) + _reference_sym_outer(ui, span)


def reference_constraint_matrices(coeffs, n):
    a = {(i, j): reference_constraint_a(coeffs, n, i, j)
         for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    b = {i: reference_constraint_b(coeffs, n, i) for i in range(1, n + 1)}
    return ConstraintMatrices(n, a, b, constraint_c(n))


def reference_certificate_slack(n):
    coeffs = reference_build_h(n)
    a, b_n, c = dual_multipliers(n)
    s = np.zeros((n + 1, n + 1))
    for i in range(2, n + 1):
        s += a[i] * reference_constraint_a(coeffs, n, i - 1, i)
    s += b_n * reference_constraint_b(coeffs, n, n)
    s += c * constraint_c(n)
    s[n - 1, n - 1] -= 1.0
    return s


@pytest.fixture
def rng():
    return SplitMix64(20240817)
