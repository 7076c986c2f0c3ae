import math
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
    splitting,
)
from proxpoint.methods import (
    Momentum,
    ResidualTrace,
    _euclidean_sq,
    _extrapolation_error,
    accelerated_rate_bound,
    ppm_rate_bound,
)
from proxpoint.operators import _factor, _flapack, as_vector
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


# The momentum loop before it wrote its trace into arrays allocated once
# per run: a verbatim copy that appends every point to a list and stacks
# the lists at the end. The library must match it byte for byte (tobytes).

def reference_iterate(step, x0, iters, variant, interval=None, adaptive=False,
                      R=None, residual_sq=_euclidean_sq, gap=None):
    if iters < 1:
        raise ValueError("iteration count must be at least 1")
    if interval is not None and interval < 1:
        raise ValueError("restart interval must be at least 1")
    x0 = as_vector(x0)
    scan = residual_sq is not _euclidean_sq
    mom = Momentum(variant)
    x = y = y_prev = x0
    xs, ys, residuals, gaps, restarts = [x0], [], [], [], []
    since_restart = 0
    prev_res = None
    with np.errstate(over="ignore", invalid="ignore"):
        for g in range(1, iters + 1):
            try:
                x_new = np.asarray(step(y), dtype=float)
            except Exception as exc:
                err = _extrapolation_error(y, g)
                if err is None and isinstance(exc, FloatingPointError):
                    err = FloatingPointError(f"{exc} at iteration {g}")
                if err is None:
                    raise
                raise err from exc
            res = residual_sq(x_new, y)
            if not (math.isfinite(res) and (not scan or np.isfinite(x_new).all())):
                raise _extrapolation_error(y, g) or FloatingPointError(
                    f"non-finite residual or iterate at iteration {g}")
            ys.append(y)
            xs.append(x_new)
            residuals.append(res)
            if gap is not None:
                gaps.append(gap(x_new))
            if g == iters:
                break
            since_restart += 1
            if ((interval is not None and since_restart >= interval)
                    or (adaptive and prev_res is not None and res > prev_res)):
                mom.reset()
                x = y = y_prev = x_new
                restarts.append(g)
                since_restart = 0
                prev_res = None
            else:
                y_new = mom.update(x_new, x, y, y_prev)
                if scan and y_new is not x_new and not np.isfinite(y_new).all():
                    raise FloatingPointError(
                        f"non-finite extrapolated point after iteration {g}")
                x, y_prev, y = x_new, y, y_new
                prev_res = res
    idx = np.arange(1, iters + 1)
    rate = {"plain": ppm_rate_bound, "proposed": accelerated_rate_bound}.get(variant)
    bounds = None
    if (R is not None and rate is not None and not adaptive
            and (interval is None or interval >= iters)):
        # Python ints, not numpy scalars: the same floats, about 8x faster.
        bounds = np.array([rate(R, i) for i in range(1, iters + 1)])
    xs, ys = np.array(xs), np.array(ys)
    return ResidualTrace(idx, np.array(residuals), bounds, xs, ys, restarts,
                         gaps=np.array(gaps) if gap is not None else None,
                         iterates={"x": xs, "y": ys})


# Per-kind subproblem solvers of the splitting engines before they shared
# one subproblem rule: verbatim copies of the proximal method of
# multipliers' u-update and of ADMM's x- and z-updates. The engines must
# match them bit for bit (np.array_equal), apart from the re-associated
# right-hand side of the u-update for quadratic and linear f.

def reference_prox_multipliers_u_solver(f, a_mat, b, lam, u0):
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
            tol = splitting.INNER_TOL * max(1.0, float(np.linalg.norm(q_vec)))
            u = fista_strongly_convex((smooth_q, q_vec, 1.0 / lam, big_l),
                                      f.weight, state["warm"],
                                      tol=tol, max_iters=splitting.INNER_MAX_ITERS)
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


def reference_admm_x_solver(f, constraint, rho):
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
        eigs = np.linalg.eigvalsh(ata)
        m = rho * float(eigs[0])
        if m <= 0:
            raise ValueError("l1 x-subproblem needs A'A positive definite")
        big_l = rho * float(eigs[-1])
        smooth_q = rho * ata
        state = {"warm": np.zeros(a.shape[1])}

        def solve(nu_hat, z):
            q_vec = a.T @ (nu_hat - rho * (constraint.c - constraint.B @ z))
            tol = splitting.INNER_TOL * max(1.0, float(np.linalg.norm(q_vec)))
            x = fista_strongly_convex((smooth_q, q_vec, m, big_l), f.weight,
                                      state["warm"], tol=tol,
                                      max_iters=splitting.INNER_MAX_ITERS)
            state["warm"] = x
            return x

        return solve
    raise ValueError(f"unsupported f kind {f.kind!r}")


def reference_admm_z_solver(g, constraint, rho):
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


# QuadraticSaddle's value and gap, deleted once the test of gap_scorer was
# their only caller: verbatim copies, with ``self`` passed as ``phi``.
# gap_scorer must match the gap bit for bit (np.array_equal).

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
