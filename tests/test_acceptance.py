"""Acceptance suite: one test per criterion, each printing a pass/fail
line with the measured quantity and asserting at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see the report lines.
"""

import math
import time

import mpmath
import numpy as np
from scipy.linalg import lu_factor, lu_solve

from proxpoint import (
    AffineConstraint,
    DenseLinearOperator,
    ProxDescriptor,
    QuadraticSaddle,
    SplitMix64,
    accelerated_ppm,
    accelerated_saddle_ppm,
    admm,
    bilinear_game_instance,
    equivalence_check,
    guler,
    iterate,
    linear_resolvent,
    operator_norm,
    pdhg,
    ppm,
    restarted,
    rotation_worst_case,
    soft_threshold,
    strongly_monotone_toy,
    tv_instance,
    verify_certificate,
    yosida,
)
from conftest import pdhg_matrix, random_monotone_operator

START = np.array([1.0, 0.0])


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_ppm_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 10, 100):
        trace = ppm(linear_resolvent(rotation_worst_case(n, 1.0), 1.0), START, n)
        expected = (1.0 - 1.0 / n) ** (n - 1) / n
        worst = max(worst, abs(trace.residuals[-1] - expected) / expected)
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-8 and elapsed < 1.0,
           f"PPM worst-case exactness, max rel err {worst:.2e} "
           f"(tol 1e-8), {elapsed:.2f}s (< 1s)")


def test_criterion_02_accelerated_rate():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 10, 100):
        trace = accelerated_ppm(
            linear_resolvent(rotation_worst_case(n, 1.0), 1.0), START, 200)
        worst = max(worst, float(np.max(
            trace.residuals * np.arange(1, len(trace.residuals) + 1) ** 2)))
    for s in range(100):
        rng = SplitMix64(500 + s)
        dim = 2 + int(rng.integers_below(19, 1)[0])
        op = random_monotone_operator(rng, dim)
        lam = 0.2 + 2.0 * rng.uniforms(1)[0]
        x0 = rng.normals(dim)
        trace = accelerated_ppm(linear_resolvent(op, lam), x0, 200)
        scaled = trace.residuals * np.arange(1, len(trace.residuals) + 1) ** 2
        worst = max(worst, float(np.max(scaled)) / (x0 @ x0))
    elapsed = time.perf_counter() - t0
    report(2, worst <= 1.0 + 1e-9 and elapsed < 10.0,
           f"accelerated residual*i^2 <= R^2 on rotations and 100 random "
           f"monotone operators, max ratio {worst:.12f} (tol 1+1e-9), "
           f"{elapsed:.2f}s (< 10s)")


def test_criterion_03_certificate():
    t0 = time.perf_counter()
    max_dev, min_eig = 0.0, 0.0
    dual_exact = True
    for n in range(2, 61):
        rep = verify_certificate(n)
        max_dev = max(max_dev, rep.max_rank1_deviation)
        min_eig = min(min_eig, rep.min_eigenvalue)
        dual_exact = dual_exact and rep.dual_value == 1.0 / (n * n)
    elapsed = time.perf_counter() - t0
    report(3, max_dev <= 1e-12 and min_eig >= -1e-10 and dual_exact
           and elapsed < 5.0,
           f"rank-1 certificate for N in [2,60]: max deviation {max_dev:.2e} "
           f"(tol 1e-12), min eigenvalue {min_eig:.2e} (tol -1e-10), dual "
           f"value exact, {elapsed:.2f}s (< 5s)")


def test_criterion_04_equivalence():
    t0 = time.perf_counter()
    worst = equivalence_check(
        linear_resolvent(rotation_worst_case(100, 1.0), 1.0), 100, START)
    for s in range(10):
        rng = SplitMix64(900 + s)
        dim = 2 + int(rng.integers_below(9, 1)[0])
        op = random_monotone_operator(rng, dim)
        worst = max(worst, equivalence_check(
            linear_resolvent(op, 1.0), 100, rng.normals(dim)))
    elapsed = time.perf_counter() - t0
    report(4, worst <= 1e-8 and elapsed < 5.0,
           f"general method with the certified coefficients equals the "
           f"accelerated method, max coordinate gap {worst:.2e} (tol 1e-8), "
           f"{elapsed:.2f}s (< 5s)")


def test_criterion_05_strong_monotonicity_contraction():
    lam, mu = 1.0, 0.02
    factor = (1.0 / (1.0 + lam * mu)) ** 2
    scalar = ppm(linear_resolvent([[mu]], lam), [1.0], 30)
    ratios = scalar.residuals[1:] / scalar.residuals[:-1]
    exact_gap = float(np.max(np.abs(ratios - factor)))
    toy = ppm(linear_resolvent(strongly_monotone_toy(100, lam, mu), lam),
              START, 100)
    toy_ratios = toy.residuals[1:] / toy.residuals[:-1]
    toy_ok = bool(np.all(toy_ratios <= factor + 1e-12))
    report(5, exact_gap <= 1e-12 and toy_ok,
           f"per-step contraction <= 1/(1+lam*mu)^2: scalar case exact to "
           f"{exact_gap:.2e} (tol 1e-12), toy operator max ratio "
           f"{float(np.max(toy_ratios)):.12f} <= {factor:.12f} + 1e-12")


def test_criterion_06_restart_bound():
    t0 = time.perf_counter()
    lam, mu = 1.0, 0.02
    resolvent = linear_resolvent(strongly_monotone_toy(100, lam, mu), lam)
    accel = accelerated_ppm(resolvent, START, 200)
    contraction_ok = True
    improvement_ok = True
    for k in (17, 34, 68, 136):
        factor = 1.0 / (lam * mu * k) ** 2
        long_run = restarted(resolvent, START, k, 3 * k)
        for j in (1, 2):
            lhs = long_run.residuals[(j + 1) * k - 1]
            contraction_ok &= lhs <= factor * long_run.residuals[j * k - 1]
        short_run = restarted(resolvent, START, k, 200)
        improvement_ok &= short_run.residuals[-1] < accel.residuals[-1]
    elapsed = time.perf_counter() - t0
    report(6, contraction_ok and improvement_ok and elapsed < 5.0,
           f"restart contraction 1/(lam*mu*k)^2 holds at every outer step for "
           f"k in (17,34,68,136) and restarted residual at 200 beats the "
           f"plain accelerated run, {elapsed:.2f}s (< 5s)")


def test_criterion_07_divergence_reproduction():
    resolvent = linear_resolvent(rotation_worst_case(100, 1.0), 1.0)
    diverging = guler("first", resolvent, START, 100)
    plain = ppm(resolvent, START, 100)
    accel = accelerated_ppm(resolvent, START, 100)
    ok = (diverging.residuals[99] > diverging.residuals[0]
          and accel.residuals[99] < plain.residuals[99])
    report(7, ok,
           f"inertia-only method diverges ({diverging.residuals[99]:.2e} > "
           f"{diverging.residuals[0]:.2e}) while the corrected method beats "
           f"PPM ({accel.residuals[99]:.2e} < {plain.residuals[99]:.2e})")


def test_criterion_08_pdhg_preconditioned_bound():
    inst = bilinear_game_instance(50, 25, 1)
    k = inst["K"]
    tau = sigma = 0.99 / operator_norm(k)
    f = ProxDescriptor.linear(inst["a"])
    g = ProxDescriptor.linear(inst["b"])
    u0, v0 = np.full(50, 10.0), np.full(25, 10.0)
    oracle = pdhg(f, g, k, tau, sigma, u0, v0, 10_000, variant="plain")
    p = pdhg_matrix(k, tau, sigma)
    dx = np.concatenate([u0, v0]) - oracle.xs[-1]
    radius2 = dx @ p @ dx
    trace = pdhg(f, g, k, tau, sigma, u0, v0, 200)
    worst = float(np.max(trace.residuals * np.arange(1, len(trace.residuals) + 1) ** 2))
    ratio = worst / radius2
    report(8, ratio <= 1.0 + 1e-6,
           f"preconditioned residual*i^2 <= R_P^2 with the oracle fixed "
           f"point, max ratio {ratio:.3e} (tol 1+1e-6)")


def test_criterion_09_admm_bounds_and_textbook_equality():
    inst = tv_instance(40, 5, 7)
    d2, rho, gamma = 39, 0.05, 3.0
    h, b, d = inst["H"], inst["b"], inst["D"]
    f = ProxDescriptor.quadratic(h, b)
    g = ProxDescriptor.l1(d2, gamma)
    cons = AffineConstraint(d, -np.eye(d2), np.zeros(d2))
    x0, z0, nu0 = np.zeros(40), np.zeros(d2), np.zeros(d2)
    oracle = admm(f, g, cons, rho, x0, z0, nu0, 10_000, variant="plain")
    nu_star = (oracle.iterates["nu_hat"][-1]
               + rho * (d @ oracle.iterates["x"][-1]))
    # R is measured from the run's first dual point, at x_1 = x(nu0, z0).
    eta0 = oracle.iterates["nu_hat"][0] + rho * (d @ oracle.iterates["x"][1])
    radius2 = float(np.sum((eta0 - nu_star) ** 2))
    accel = admm(f, g, cons, rho, x0, z0, nu0, 200, variant="proposed")
    plain = admm(f, g, cons, rho, x0, z0, nu0, 200, variant="plain")
    idx = np.arange(1, len(accel.residuals) + 1)
    accel_worst = float(np.max(accel.infeasibility * rho ** 2 * idx ** 2))
    plain_worst = float(np.max(
        plain.infeasibility * rho ** 2 * idx / (1.0 - 1.0 / idx) ** (idx - 1.0)))

    # independently coded textbook ADMM (scaled dual form)
    factors = lu_factor(h.T @ h + rho * (d.T @ d))
    x, z, nu = x0, z0, nu0
    textbook_gap = 0.0
    for i in range(200):
        x = lu_solve(factors, d.T @ (rho * z - nu) + h.T @ b)
        z = soft_threshold(d @ x + nu / rho, gamma / rho)
        nu = nu + rho * (d @ x - z)
        textbook_gap = max(
            textbook_gap,
            float(np.max(np.abs(x - plain.iterates["x"][i + 1]))),
            float(np.max(np.abs(z - plain.iterates["z"][i + 1]))),
            float(np.max(np.abs(nu - plain.iterates["nu_hat"][i + 1]))))
    ok = (accel_worst <= radius2 and plain_worst <= radius2
          and textbook_gap <= 1e-12)
    report(9, ok,
           f"ADMM infeasibility bounds with oracle dual radius: accelerated "
           f"{accel_worst:.3e} and plain {plain_worst:.3e} <= R^2="
           f"{radius2:.3e}; plain mode matches textbook ADMM to "
           f"{textbook_gap:.2e} (tol 1e-12)")


def test_criterion_10_operator_identities():
    rng = SplitMix64(77)
    yosida_worst = 0.0
    resolvent_defect = 0.0
    for _ in range(100):
        dim = 2 + int(rng.integers_below(5, 1)[0])
        op = random_monotone_operator(rng, dim)
        lam = 0.3 + 2.0 * rng.uniforms(1)[0]
        resolvent = linear_resolvent(op, lam)
        approx = yosida(resolvent, lam)
        y = rng.normals(dim)
        yosida_worst = max(yosida_worst, float(np.linalg.norm(
            resolvent(y) - (y - lam * approx(y)))))
        y1, y2 = rng.normals(dim), rng.normals(dim)
        dj = resolvent(y1) - resolvent(y2)
        resolvent_defect = min(resolvent_defect,
                               float(dj @ (y1 - y2) - dj @ dj))
    op1 = random_monotone_operator(rng, 5)
    op2 = random_monotone_operator(rng, 5)
    j1 = linear_resolvent(op1, 0.9)
    j2 = linear_resolvent(op2, 0.9)
    drs_defect = 0.0
    for _ in range(100):
        x, y = rng.normals(5), rng.normals(5)
        gx = j1(2.0 * j2(x) - x) + x - j2(x)
        gy = j1(2.0 * j2(y) - y) + y - j2(y)
        dgap = gx - gy
        drs_defect = min(drs_defect, float(dgap @ (x - y) - dgap @ dgap))
    ok = (yosida_worst <= 1e-12 and resolvent_defect >= -1e-10
          and drs_defect >= -1e-10)
    report(10, ok,
           f"Yosida identity max error {yosida_worst:.2e} (tol 1e-12); firm "
           f"nonexpansiveness defects: resolvent {resolvent_defect:.2e}, "
           f"splitting operator {drs_defect:.2e} (tol -1e-10)")


def test_criterion_11_saddle_gap_bound():
    worst = 0.0
    violations = []
    for s in range(50):
        rng = SplitMix64(1000 + s)
        d1 = 2 + int(rng.integers_below(6, 1)[0])
        d2 = 2 + int(rng.integers_below(6, 1)[0])
        mu = 0.05 + 0.5 * rng.uniforms(1)[0]
        b1 = rng.normal_matrix(d1, d1)
        b2 = rng.normal_matrix(d2, d2)
        phi = QuadraticSaddle(b1 @ b1.T / d1 + mu * np.eye(d1),
                              rng.normal_matrix(d2, d1),
                              b2 @ b2.T / d2 + mu * np.eye(d2),
                              a=rng.normals(d1), b=rng.normals(d2))
        linear, shift = phi.stacked_operator()
        u_star, v_star = np.split(np.linalg.solve(linear, -shift), [d1])
        lam = (0.1, 1.0, 10.0)[s % 3]
        u0, v0 = rng.normals(d1), rng.normals(d2)
        trace = accelerated_saddle_ppm(phi, lam, u0, v0, 100,
                                       saddle=(u_star, v_star))
        r2 = float(np.sum((u0 - u_star) ** 2) + np.sum((v0 - v_star) ** 2))
        ratio = float(np.max(trace.gaps * 4.0 * lam * np.arange(1, len(trace.residuals) + 1))) / r2
        worst = max(worst, ratio)
        if ratio > 1.0 + 1e-6:
            violations.append((s, ratio))
    if violations:
        # The bound is only conjectured; report any violation explicitly.
        print(f"[criterion 11] conjectured gap bound violated on seeds: "
              f"{violations}")
    report(11, worst <= 1.0 + 1e-6,
           f"saddle gap * 4*lam*i <= initial squared distance on 50 seeded "
           f"strongly-convex-concave quadratics, max ratio {worst:.6f} "
           f"(tol 1+1e-6, conjectured bound)")


def test_criterion_12_accelerated_rate_attained():
    # The rotation by lam*s = tan(pi/(2N)) from [1, 0] is a worst case of
    # the accelerated method at horizon N: N^2 res_N = R^2, and no earlier
    # i^2 res_i exceeds it.
    worst, argmax_ok = 0.0, True
    for n in (2, 3, 5, 10, 37, 100, 240):
        s = math.tan(math.pi / (2 * n))
        resolvent = linear_resolvent(DenseLinearOperator([[0.0, s], [-s, 0.0]]), 1.0)
        trace = iterate(resolvent, START, n, "proposed", R=1.0)
        scaled = trace.residuals * np.arange(1, len(trace.residuals) + 1) ** 2
        worst = max(worst, abs(scaled[-1] - 1.0))
        argmax_ok = argmax_ok and int(np.argmax(scaled)) == n - 1
    report(12, worst <= 1e-13 and argmax_ok,
           f"accelerated bound attained on the tan(pi/(2N)) rotation for N in "
           f"2,3,5,10,37,100,240: max |N^2 res_N / R^2 - 1| {worst:.2e} (tol 1e-13), "
           f"largest i^2 res_i at i = N: {argmax_ok}")


def test_criterion_12_accelerated_rate_attained_in_60_digits():
    # The same worst case in 60-digit arithmetic: the "proposed" recursion
    # of iterate, with the rotation's resolvent in closed form, J(y) =
    # (y0 - s y1, s y0 + y1) / (1 + s^2), so no float64 rounding enters.
    worst, argmax_ok = mpmath.mpf(0), True
    with mpmath.workdps(60):
        for n in (2, 3, 5, 10, 37):
            s = mpmath.tan(mpmath.pi / (2 * n))
            x = y = y_prev = mpmath.matrix([1, 0])
            scaled = []
            for i in range(n):
                x_new = mpmath.matrix([y[0] - s * y[1], s * y[0] + y[1]]) / (1 + s * s)
                scaled.append((i + 1) ** 2 * mpmath.norm(x_new - y) ** 2)
                beta = mpmath.mpf(i) / (i + 2)
                x, y_prev, y = x_new, y, x_new + beta * (x_new - x) - beta * (x - y_prev)
            worst = max(worst, abs(scaled[-1] - 1))
            argmax_ok = argmax_ok and scaled.index(max(scaled)) == n - 1
    report(12, worst <= mpmath.mpf("1e-40") and argmax_ok,
           f"accelerated bound attained on the tan(pi/(2N)) rotation in 60 digits "
           f"for N in 2,3,5,10,37: max |N^2 res_N / R^2 - 1| {mpmath.nstr(worst, 3)} "
           f"(tol 1e-40), largest i^2 res_i at i = N: {argmax_ok}")
