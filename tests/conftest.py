import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

import proxpoint
from proxpoint import (
    DenseLinearOperator,
    SplitMix64,
    StepCoeffs,
    fista_strongly_convex,
    operator_norm,
    soft_threshold,
)
from proxpoint.methods import ResidualTrace
from proxpoint.operators import _factor, as_vector
from proxpoint.pep_cert import (
    ConstraintMatrices,
    _a_entries,
    _b_entries,
    _span,
    _unit,
    _zeros,
    constraint_c,
    dual_multipliers,
)


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


# The general method before it kept its update history in one
# preallocated array: a verbatim copy that rebuilds the history with
# np.asarray every iteration. The library must match it bit for bit
# (np.array_equal).

def reference_general_ppm(resolvent, coeffs, y0, iters):
    if iters < 1:
        raise ValueError("iteration count must be at least 1")
    if iters > coeffs.horizon:
        raise ValueError(f"iters = {iters} exceeds the coefficient horizon {coeffs.horizon}")
    y = as_vector(y0)
    xs, ys, residuals = [y], [], []
    updates = []
    for i in range(iters):
        x_new = as_vector(resolvent(y))
        diff = x_new - y
        ys.append(y)
        xs.append(x_new)
        residuals.append(float(diff @ diff))
        updates.append(diff)
        if i == iters - 1:
            break
        row = coeffs.row(i + 1)
        y = y + row @ np.asarray(updates)
    idx = np.arange(1, iters + 1)
    return ResidualTrace(idx, np.array(residuals), None, np.array(xs), np.array(ys))


# The slack assembly before it wrote one product matrix: a verbatim copy of
# the block-of-rows version. The library's assembly must match it byte for
# byte (tobytes), signs of zero included, for float tables.

_REFERENCE_BLOCK_ROWS = 32


def reference_block_assemble_slack(table, a, b_n, c):
    n = table.shape[0] + 1
    lower = np.tri(n + 1, dtype=bool)
    s = _zeros(table, (n + 1, n + 1))
    for start in range(0, n - 1, _REFERENCE_BLOCK_ROWS):
        # Row j of d and span holds the vectors defining A_{i-1,i} for
        # i = k[j] + 2; rows k and k + 1 of s need columns 0..k+1 only.
        k = np.arange(start, min(start + _REFERENCE_BLOCK_ROWS, n - 1))
        j, width = k - start, k[-1] + 2
        d = _zeros(table, (k.size, width))
        d[j, k] += 1
        d[j, k + 1] -= 1
        span = _zeros(table, (k.size, width))
        cut = min(width, n - 1)
        span[:, :cut] = table[k, :cut]
        weight = np.array([a[i] for i in k + 2], dtype=table.dtype)
        for shift in (1, 0):
            # Row k + shift of A_{i-1,i} (row i-1, then row i-2) adds into
            # the lower triangle of row k + shift of s.
            cols = lower[k + shift, :width]
            dr, sr, w = (np.repeat(v, cols.sum(axis=1))
                         for v in (d[j, k + shift], span[j, k + shift], weight))
            block = s[start + shift:k[-1] + 1 + shift, :width]
            block[cols] += w * _a_entries(dr, d[cols], sr, span[cols])
    u, e = _unit(table, n + 1, n - 1), _unit(table, n + 1, n)
    span_n = _span(table, 0, n - 1, n + 1)
    row = b_n * _b_entries(u[n - 1], u, span_n[n - 1], span_n, e[n - 1], e)
    s[n - 1, :n] += row[:n]
    s[n, n - 1] += row[n]
    s = np.where(lower, s, s.T)
    s[n, n] += c
    s[n - 1, n - 1] -= 1
    return s


# Per-kind subproblem solvers of the splitting engines before they shared
# one subproblem rule: verbatim copies of the proximal method of
# multipliers' u-update and of ADMM's x- and z-updates. The engines must
# match them bit for bit (np.array_equal), apart from the re-associated
# right-hand side of the u-update for quadratic and linear f.

def reference_prox_multipliers_u_solver(f, a_mat, b, lam, u0, inner):
    """``(u_hat, v_hat) -> u`` of ``accelerated_prox_multipliers``."""
    d1 = a_mat.shape[1]
    ata = a_mat.T @ a_mat
    lam_atb = lam * (a_mat.T @ b)

    if f.kind == "l1":
        smooth_q = lam * ata + np.eye(d1) / lam
        big_l = lam * operator_norm(a_mat) ** 2 + 1.0 / lam
        state = {"warm": as_vector(u0).copy()}

        def solve_u(u_hat, v_hat):
            q_vec = a_mat.T @ v_hat - lam_atb - u_hat / lam
            tol = inner.tol * max(1.0, float(np.linalg.norm(q_vec)))
            u = fista_strongly_convex((smooth_q, q_vec, 1.0 / lam, big_l),
                                      f.weight, state["warm"],
                                      tol=tol, max_iters=inner.max_iters)
            state["warm"] = u
            return u
    elif f.kind in ("quadratic", "linear", "zero"):
        system = lam * ata + np.eye(d1) / lam
        base = lam_atb.copy()
        if f.kind == "quadratic":
            system = system + f.h.T @ f.h
            base += f.h.T @ f.b
        elif f.kind == "linear":
            base -= f.a
        solve = _factor(system)

        def solve_u(u_hat, v_hat):
            return solve(base - a_mat.T @ v_hat + u_hat / lam)
    else:
        raise ValueError(f"unsupported f kind {f.kind!r}")
    return solve_u


def reference_admm_x_solver(f, constraint, rho, inner):
    a = constraint.A
    ata = a.T @ a
    if f.kind in ("quadratic", "linear", "zero"):
        system = rho * ata
        base = np.zeros(a.shape[1])
        if f.kind == "quadratic":
            system = system + f.h.T @ f.h
            base = f.h.T @ f.b
        elif f.kind == "linear":
            base = -f.a
        solve_system = _factor(system)

        def solve(nu_hat, z):
            rhs = base + a.T @ (rho * (constraint.c - constraint.B @ z) - nu_hat)
            return solve_system(rhs)

        return solve
    if f.kind == "l1":
        m = rho * float(np.linalg.eigvalsh(ata)[0])
        if m <= 0:
            raise ValueError("l1 x-subproblem needs A'A positive definite")
        big_l = rho * operator_norm(a) ** 2
        smooth_q = rho * ata
        state = {"warm": np.zeros(a.shape[1])}

        def solve(nu_hat, z):
            q_vec = a.T @ (nu_hat - rho * (constraint.c - constraint.B @ z))
            tol = inner.tol * max(1.0, float(np.linalg.norm(q_vec)))
            x = fista_strongly_convex((smooth_q, q_vec, m, big_l), f.weight,
                                      state["warm"], tol=tol,
                                      max_iters=inner.max_iters)
            state["warm"] = x
            return x

        return solve
    raise ValueError(f"unsupported f kind {f.kind!r}")


def reference_admm_z_solver(g, constraint, rho, inner):
    b = constraint.B
    if g.kind == "l1":
        sign = None
        if b.shape[0] == b.shape[1]:
            if np.array_equal(b, -np.eye(b.shape[0])):
                sign = -1.0
            elif np.array_equal(b, np.eye(b.shape[0])):
                sign = 1.0
        if sign is None:
            raise ValueError("l1 z-subproblem requires B = I or B = -I")

        def solve(eta_hat, x):
            anchor = constraint.c - constraint.A @ x - eta_hat / rho
            return soft_threshold(sign * anchor, g.weight / rho)

        return solve
    if g.kind in ("quadratic", "linear", "zero"):
        system = rho * (b.T @ b)
        base = np.zeros(b.shape[1])
        if g.kind == "quadratic":
            system = system + g.h.T @ g.h
            base = g.h.T @ g.b
        elif g.kind == "linear":
            base = -g.a
        solve_system = _factor(system)

        def solve(eta_hat, x):
            rhs = base + b.T @ (rho * (constraint.c - constraint.A @ x) - eta_hat)
            return solve_system(rhs)

        return solve
    raise ValueError(f"unsupported g kind {g.kind!r}")


def reference_drs_step(resolvent1, resolvent2):
    """The Douglas-Rachford step that scans both resolvent outputs with
    ``as_vector``: the reference for the bit-identity of ``drs``."""

    def step(eta):
        j2 = as_vector(resolvent2(eta))
        return as_vector(resolvent1(2.0 * j2 - eta)) + eta - j2

    return step


@pytest.fixture
def rng():
    return SplitMix64(20240817)
