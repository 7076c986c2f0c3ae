"""Fixtures and cross-checks shared by the tests.

Former outputs of the engines are recorded as data, not code: the CLI's
and the library's golden CSVs under ``tests/golden`` (``test_golden.py``).
What stays here is what data cannot replace: test problems, stand-ins that
make a failure happen (``FailingEigenLapack``), and independent reference
computations that the library must match bit for bit, each written
another way than the library's own (a dense loop, scipy's ``lu_solve``,
the saddle function evaluated directly).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

import proxpoint
from proxpoint import DenseLinearOperator, SplitMix64
from proxpoint.operators import _flapack, as_vector
from proxpoint.pep_cert import ConstraintMatrices, constraint_c, dual_multipliers


def random_monotone_operator(rng, dim, strength=1.0, mu=0.0):
    """Random monotone linear operator: PSD part plus a skew part."""
    b = rng.normal_matrix(dim, dim)
    w = rng.normal_matrix(dim, dim)
    m = strength * (b @ b.T) / dim + (w - w.T) + mu * np.eye(dim)
    return DenseLinearOperator(m)


def run_fresh(*args, env=None, **kwargs):
    """``python *args`` in a fresh interpreter that imports this checkout's
    proxpoint: this suite's own process has numpy and ``scipy.linalg``
    loaded. The child sees no BLAS thread variable unless ``env`` sets one,
    so it runs under the CLI's own thread default."""
    src = str(Path(proxpoint.__file__).resolve().parents[1])
    child = {k: v for k, v in os.environ.items()
             if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    child["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child.update(env or {})
    return subprocess.run([sys.executable, *args], env=child, capture_output=True,
                          text=True, timeout=120, **kwargs)


def pdhg_matrix(k, tau, sigma):
    """PDHG's preconditioner ``[[I/tau, -K'], [-K, I/sigma]]``, positive
    definite exactly when ``tau sigma ||K||^2 < 1``."""
    d2, d1 = k.shape
    return np.block([[np.eye(d1) / tau, -k.T], [-k, np.eye(d2) / sigma]])


def lu_solve_factor(system):
    """Stand-in for ``operators._factor`` that solves through
    ``scipy.linalg.lu_solve``: the reference for bit-identity checks."""
    factors = lu_factor(system, check_finite=False)
    return lambda rhs: lu_solve(factors, rhs, check_finite=False)


class FailingEigenLapack:
    """Stand-in for scipy's LAPACK module whose ``dsyevr`` reports ``info``
    and ``found`` eigenvalues; every other routine is the real one."""

    def __init__(self, info, found):
        self.info, self.found = info, found

    def dsyevr(self, a, **kwargs):
        n = a.shape[0]
        return np.zeros(n), np.zeros((0, 0)), self.found, np.zeros(0, dtype=np.int32), self.info

    def __getattr__(self, name):
        return getattr(_flapack(), name)


# Dense O(N^3) reference for the certificate: the step table built entry by
# entry, each constraint matrix built in the identity basis, and the slack
# summed from them. The library assembles the slack from closed-form
# entries and must match it bit for bit (np.array_equal).

def reference_build_h(n):
    if n < 2:
        raise ValueError("horizon must be at least 2")
    table = np.zeros((n - 1, n - 1))
    for i in range(1, n):
        for k in range(1, i):
            table[i - 1, k - 1] = -2.0 * k / (i * (i + 1))
        table[i - 1, i - 1] = 2.0 * i / (i + 1)
    return table


def _reference_sym_outer(u, v):
    return 0.5 * (np.outer(u, v) + np.outer(v, u))


def _reference_h_combination(table, e, l):
    return table[l, :l + 1] @ e[:l + 1]


def reference_constraint_a(table, n, i, j):
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    e = np.eye(n + 1)
    d = e[i - 1] - e[j - 1]
    span = np.zeros(n + 1)
    for l in range(i - 1, j - 1):
        span += _reference_h_combination(table, e, l)
    return _reference_sym_outer(d, d) - _reference_sym_outer(d, span)


def reference_constraint_b(table, n, i):
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= {n}, got {i}")
    e = np.eye(n + 1)
    ui = e[i - 1]
    span = np.zeros(n + 1)
    for l in range(i - 1):
        span += _reference_h_combination(table, e, l)
    return np.outer(ui, ui) - _reference_sym_outer(ui, e[n]) + _reference_sym_outer(ui, span)


def reference_constraint_matrices(table, n):
    a = {(i, j): reference_constraint_a(table, n, i, j)
         for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    b = {i: reference_constraint_b(table, n, i) for i in range(1, n + 1)}
    return ConstraintMatrices(a, b, constraint_c(n))


def reference_certificate_slack(n):
    table = reference_build_h(n)
    a, b_n, c = dual_multipliers(n)
    s = np.zeros((n + 1, n + 1))
    for i in range(2, n + 1):
        s += a[i] * reference_constraint_a(table, n, i - 1, i)
    s += b_n * reference_constraint_b(table, n, n)
    s += c * constraint_c(n)
    s[n - 1, n - 1] -= 1.0
    return s


# The saddle value and gap, evaluated directly from phi's blocks; the
# library's gap_scorer precomputes their constant parts and must match the
# gap bit for bit (np.array_equal).

def reference_saddle_value(phi, u, v):
    u, v = as_vector(u), as_vector(v)
    return float(0.5 * u @ (phi.q_uu @ u) + phi.a @ u + v @ (phi.k @ u)
                 - 0.5 * v @ (phi.q_vv @ v) - phi.b @ v)


def reference_saddle_gap(phi, u, v, u_star, v_star):
    """Saddle gap ``phi(u, v*) - phi(u*, v)``; nonnegative at a saddle."""
    return reference_saddle_value(phi, u, v_star) - reference_saddle_value(phi, u_star, v)


@pytest.fixture
def rng():
    return SplitMix64(20240817)
