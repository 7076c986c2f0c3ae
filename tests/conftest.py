import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

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
from proxpoint import methods as mt
from proxpoint import splitting
from proxpoint.cli import FIXED_POINT_TOL, _VARIANT_OF, ConfigError, _fmt, _param, _trace_rows
from proxpoint.methods import (
    Momentum,
    ResidualTrace,
    _euclidean_sq,
    _extrapolation_error,
    accelerated_rate_bound,
    ppm_rate_bound,
)
from proxpoint.operators import _factor, _flapack, as_vector, linear_resolvent
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
from proxpoint.problems import (basis_pursuit_instance, basis_pursuit_solution,
                                bilinear_game_instance, rotation_worst_case, toy_saddle,
                                tv_instance, tv_solution)


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


def reference_step_table(n):
    """Verbatim copy of the vectorized step table ``build_h`` built before
    the certificate took its table without ``StepCoeffs`` validation."""
    idx = np.arange(1, n)
    i, k = idx[:, None], idx[None, :]
    table = np.tril(-2.0 * k / (i * (i + 1)), -1)
    np.fill_diagonal(table, 2.0 * idx / (idx + 1))
    return StepCoeffs(n, table).table


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
        eigs = np.linalg.eigvalsh(ata)
        m = rho * float(eigs[0])
        if m <= 0:
            raise ValueError("l1 x-subproblem needs A'A positive definite")
        big_l = rho * float(eigs[-1])
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


# The CLI's figure runners before they shared one driver: verbatim copies
# of the task expansion, the radius line, the five runners with their
# run(task) closures and the figure branch of run_experiment. ``sp`` is
# the splitting module as they called it: ADMM's old ``accelerate=`` flag
# is mapped onto ``variant``, and every engine's old ``restart_interval=``
# and ``adaptive_restart=`` onto ``restart``; ``_restart_intervals`` stands
# for the old ``RunConfig.restart_intervals``, with None for adaptive.
# The CLI must write the same CSV bytes.

def _restart_keywords(engine):
    def call(*args, restart_interval=None, adaptive_restart=False, **kwargs):
        restart = "adaptive" if adaptive_restart else restart_interval
        return engine(*args, restart=restart, **kwargs)

    return call


sp = SimpleNamespace(**vars(splitting))
for _name in ("accelerated_saddle_ppm", "accelerated_prox_multipliers", "pdhg"):
    setattr(sp, _name, _restart_keywords(getattr(splitting, _name)))
sp.admm = lambda *args, accelerate=True, **kwargs: _restart_keywords(splitting.admm)(
    *args, variant="proposed" if accelerate else "plain", **kwargs)


def _restart_intervals(config):
    if config.restart is not None:
        return (None if config.restart == "adaptive" else config.restart,)
    return tuple(config.preset.get("restarts", ()))


def _restart_label(interval):
    return "adaptive-restart" if interval is None else f"restart@{interval}"


def _expand_methods(config):
    """Resolve method names into (label, variant, interval) tasks."""
    tasks = []
    for name in config.methods:
        if name == "restarted":
            intervals = _restart_intervals(config)
            if not intervals:
                raise ConfigError(
                    "the restarted method needs --restart or --adaptive-restart")
            for k in intervals:
                tasks.append((_restart_label(k), "proposed", k))
        else:
            tasks.append((name, _VARIANT_OF[name], None))
    return tasks


def _radius_line(radius, source, check):
    """Header line for the bound radius ``R``; returns it with the ``R`` to
    bound by, which is ``None`` when the reference point fails its check.

    ``check`` is the root of the engine's own residual after one plain step
    from the reference point: zero, up to rounding, at a true fixed point.
    """
    line = f"# R={_fmt(radius)} R_source={source} fixed_point_check={_fmt(check)}"
    if check <= FIXED_POINT_TOL * max(1.0, radius):
        return line, radius
    return (line + f" bound=empty (fixed_point_check above"
                   f" {FIXED_POINT_TOL:g}*max(1,R))"), None



def _run_operator_experiment(config):
    """fig1: worst-case rotation; methods act through a shared resolvent."""
    n = config.preset["n"]
    lam = _param(config, "lam", config.preset["lam"])
    op = rotation_worst_case(n, lam)
    resolvent = linear_resolvent(op, lam)
    x0 = np.array([1.0, 0.0])
    radius = 1.0
    meta = [f"# problem=rotation n={n} lam={_fmt(lam)} iters={config.iters}"
            f" x0=[1,0] R={_fmt(radius)} R_source=exact"]

    def run(task):
        label, variant, interval = task
        if interval is not None or label == "adaptive-restart":
            return mt.restarted(resolvent, x0, interval, config.iters,
                                adaptive=interval is None, R=radius)
        if variant == "plain":
            return mt.ppm(resolvent, x0, config.iters, R=radius)
        if variant == "proposed":
            return mt.accelerated_ppm(resolvent, x0, config.iters, R=radius)
        return mt.guler("first" if variant == "guler1" else "second",
                        resolvent, x0, config.iters)

    return meta, run


def _run_saddle_experiment(config):
    """fig2: strongly monotone toy problem via its saddle function, so the
    gap column is available alongside the residual."""
    n = config.preset["n"]
    lam = _param(config, "lam", config.preset["lam"])
    mu = _param(config, "mu", config.preset["mu"])
    phi = toy_saddle(n, lam, mu)
    u0, v0 = np.array([1.0]), np.array([0.0])
    saddle = (np.zeros(1), np.zeros(1))
    meta = [f"# problem=strongly_monotone_toy n={n} lam={_fmt(lam)} mu={_fmt(mu)}"
            f" iters={config.iters} x0=[1,0] R=1 R_source=exact"]

    def run(task):
        label, variant, interval = task
        return sp.accelerated_saddle_ppm(
            phi, lam, u0, v0, config.iters, variant=variant,
            restart_interval=interval,
            adaptive_restart=label == "adaptive-restart",
            saddle=saddle, R=1.0)

    return meta, run


def _run_prox_mult_experiment(config):
    """fig3: basis pursuit by the proximal method of multipliers."""
    p = config.preset
    seed = _param(config, "seed", p["seed"])
    lam = _param(config, "lam", p["lam"])
    inst = basis_pursuit_instance(p["d1"], p["d2"], seed)
    f = sp.ProxDescriptor.l1(p["d1"], 1.0)
    u0, v0 = np.zeros(p["d1"]), np.zeros(p["d2"])

    def engine(variant, interval, adaptive, iters, radius=None, u=u0, v=v0):
        return sp.accelerated_prox_multipliers(
            f, inst["A"], inst["b"], lam, u, v, iters, variant=variant,
            restart_interval=interval, adaptive_restart=adaptive, R=radius)

    u_star, v_star = basis_pursuit_solution(inst["A"], inst["b"])
    check = math.sqrt(engine("plain", None, False, 1, u=u_star, v=v_star).residuals[0])
    radius = float(np.linalg.norm(np.concatenate([u0 - u_star, v0 - v_star])))
    line, radius = _radius_line(radius, "exact (KKT point of the basis pursuit LP)",
                                check)
    meta = [f"# problem=basis_pursuit d1={p['d1']} d2={p['d2']} seed={seed}"
            f" lam={_fmt(lam)} iters={config.iters} x0=0", line]

    def run(task):
        label, variant, interval = task
        return engine(variant, interval, label == "adaptive-restart",
                      config.iters, radius)

    return meta, run


def _run_pdhg_experiment(config):
    """fig4: bilinear game by (accelerated) PDHG; preconditioned residuals."""
    p = config.preset
    seed = _param(config, "seed", p["seed"])
    inst = bilinear_game_instance(p["d1"], p["d2"], seed)
    k = inst["K"]
    # ||K|| exactly, from the K K' that the solve for R reuses below.
    kkt = k @ k.T
    norm_k = math.sqrt(np.linalg.eigvalsh(kkt)[-1])
    tau = _param(config, "tau", p["step_fraction"] / norm_k)
    sigma = _param(config, "sigma", p["step_fraction"] / norm_k)
    f = sp.ProxDescriptor.linear(inst["a"])
    g = sp.ProxDescriptor.linear(inst["b"])
    u0 = np.full(p["d1"], 10.0)
    v0 = np.full(p["d2"], 10.0)

    def engine(variant, interval, adaptive, iters, radius=None, u=u0, v=v0):
        return sp.pdhg(f, g, k, tau, sigma, u, v, iters, variant=variant,
                       restart_interval=interval, adaptive_restart=adaptive,
                       R=radius, norm_k=norm_k)

    # The saddle set is (u* + null K) x {v*}. The preconditioned distance
    # to it drops the null-space part of u0 - u*, leaving du = P(u0 - u*)
    # with P = K'(KK')^-1 K the projection onto range(K').
    k_du = k @ (u0 - inst["u_star"])
    du = k.T @ np.linalg.solve(kkt, k_du)
    dv = v0 - inst["v_star"]
    radius = math.sqrt(du @ du / tau - 2.0 * (k_du @ dv) + dv @ dv / sigma)
    check = math.sqrt(engine("plain", None, False, 1, u=u0 - du,
                             v=inst["v_star"]).residuals[0])
    line, radius = _radius_line(
        radius, "exact (nearest point of the planted saddle set)", check)
    meta = [f"# problem=bilinear_game d1={p['d1']} d2={p['d2']} seed={seed}"
            f" tau={_fmt(tau)} sigma={_fmt(sigma)} norm_K={_fmt(norm_k)}"
            f" iters={config.iters} x0=all-tens residual=preconditioned", line]

    def run(task):
        label, variant, interval = task
        return engine(variant, interval, label == "adaptive-restart",
                      config.iters, radius)

    return meta, run


def _run_admm_experiment(config):
    """fig5: total-variation least squares by (accelerated) ADMM."""
    p = config.preset
    seed = _param(config, "seed", p["seed"])
    gamma = _param(config, "gamma", p["gamma"])
    rho = _param(config, "rho", p["rho"])
    inst = tv_instance(p["d1"], p["p"], seed, p["noise_scale"])
    d2 = p["d1"] - 1
    f = sp.ProxDescriptor.quadratic(inst["H"], inst["b"])
    g = sp.ProxDescriptor.l1(d2, gamma)
    cons = sp.AffineConstraint(inst["D"], -np.eye(d2), np.zeros(d2))
    x0, z0, nu0 = np.zeros(p["d1"]), np.zeros(d2), np.zeros(d2)

    def engine(accelerate, interval, adaptive, iters, radius=None, x=x0, z=z0, nu=nu0):
        return sp.admm(f, g, cons, rho, x, z, nu, iters,
                       accelerate=accelerate, restart_interval=interval,
                       adaptive_restart=adaptive, R=radius)

    # R is the distance from the start to the dual Douglas-Rachford fixed
    # point nu* + rho (A x* - c) that ADMM's iterates converge to.
    x_star, nu_star = tv_solution(inst["H"], inst["b"], gamma)
    check = math.sqrt(engine(False, None, False, 1, x=x_star, z=cons.A @ x_star,
                             nu=nu_star).residuals[0])
    eta0 = nu0 + rho * (cons.A @ x0 - cons.c)
    eta_star = nu_star + rho * (cons.A @ x_star - cons.c)
    line, radius = _radius_line(float(np.linalg.norm(eta0 - eta_star)),
                                "exact (KKT point of the TV least-squares problem)", check)
    meta = [f"# problem=tv_least_squares d1={p['d1']} p={p['p']} seed={seed}"
            f" gamma={_fmt(gamma)} rho={_fmt(rho)}"
            f" noise_scale={_fmt(p['noise_scale'])} iters={config.iters} x0=0", line]

    def run(task):
        label, variant, interval = task
        return engine(variant == "proposed", interval,
                      label == "adaptive-restart", config.iters, radius)

    return meta, run



REFERENCE_RUNNERS = {
    "fig1": _run_operator_experiment,
    "fig2": _run_saddle_experiment,
    "fig3": _run_prox_mult_experiment,
    "fig4": _run_pdhg_experiment,
    "fig5": _run_admm_experiment,
}


def reference_figure_csv(config):
    """CSV bytes of a figure experiment, built from the copies above."""
    tasks = _expand_methods(config)
    meta, run = REFERENCE_RUNNERS[config.experiment.split("-")[0]](config)
    labels = [t[0] for t in tasks]
    traces = [run(t) for t in tasks]
    lines = [f"# experiment={config.experiment} methods={'|'.join(labels)}"]
    lines += meta
    for label, trace in zip(labels, traces):
        if trace.restarts:
            lines.append(f"# restarts[{label}]={','.join(map(str, trace.restarts))}")
    lines.append("experiment,method,iteration,residual,bound,infeasibility,gap")
    for label, trace in zip(labels, traces):
        lines += [",".join(row)
                  for row in _trace_rows(config.experiment, label, trace)]
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture
def rng():
    return SplitMix64(20240817)
