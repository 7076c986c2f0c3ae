"""Inputs, jobs and output checks of the three workloads.

Everything here takes the proxpoint package as an argument and reaches
the library only through its public names, so the same code runs
untraced and, once ``Tracer.install`` has wrapped those names, traced.
"""

import hashlib
import math

import numpy as np

# -- presets: the CLI as a user runs it ------------------------------------

# (preset, extra flags, seeded, data rows at full size = iters x method runs)
PRESETS = [
    ("fig1", [], False, 100 * 3),
    ("fig2", [], False, 200 * 6),
    ("fig3", [], True, 100 * 4),
    ("fig4", [], True, 100 * 4),
    ("fig5", [], True, 500 * 3),
    ("cert", ["--nmax", "60"], False, 59),
]
FIGURE_HEADER = "experiment,method,iteration,residual,bound,infeasibility,gap"
CERT_HEADER = "N,deviation,min_eig,dual_value"
BOUND_SLACK = 1e-9
DEVIATION_TOL = 1e-12


def derived_seed(seed, preset):
    """Instance seed passed to a seeded preset, fixed by the workload seed."""
    digest = hashlib.sha256(f"{seed}:{preset}".encode()).hexdigest()
    return int(digest[:8], 16)


def preset_flags(preset, extra, seeded, seed):
    """CLI flags of one preset job, apart from ``--experiment`` and ``--out``."""
    return [*extra, "--seed", str(derived_seed(seed, preset))] if seeded else list(extra)


def check_csv(preset, text, expected_rows):
    """Output gate for one CLI job; returns an error string or None."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = CERT_HEADER if preset == "cert" else FIGURE_HEADER
    if not lines or lines[0] != header:
        return "missing or wrong column header"
    rows = [ln.split(",") for ln in lines[1:]]
    if len(rows) != expected_rows:
        return f"{len(rows)} data rows, expected {expected_rows}"
    try:
        for row in rows:
            if preset == "cert":
                if not float(row[1]) <= DEVIATION_TOL:
                    return f"certificate deviation {row[1]} at N={row[0]}"
                continue
            residual = float(row[3])
            if not math.isfinite(residual):
                return f"non-finite residual in {row[1]} at iteration {row[2]}"
            if row[4] and not residual <= float(row[4]) * (1.0 + BOUND_SLACK):
                return f"residual above bound in {row[1]} at iteration {row[2]}"
    except (IndexError, ValueError) as exc:
        return f"malformed row: {exc}"
    return None


def setup_presets(pp, seed, clock):
    """What the CLI builds before its first iteration: the preset instances
    and the fig1/fig2 resolvents."""
    presets = pp.problems.PRESETS
    f1, f2, f3, f4, f5 = (presets[f"fig{k}"] for k in range(1, 6))
    t0 = clock()
    rot = pp.rotation_worst_case(f1["n"], f1["lam"])
    phi = pp.toy_saddle(f2["n"], f2["lam"], f2["mu"])
    pp.basis_pursuit_instance(f3["d1"], f3["d2"], derived_seed(seed, "fig3"))
    pp.bilinear_game_instance(f4["d1"], f4["d2"], derived_seed(seed, "fig4"))
    pp.tv_instance(f5["d1"], f5["p"], derived_seed(seed, "fig5"), f5["noise_scale"])
    t1 = clock()
    pp.linear_resolvent(rot, f1["lam"])
    pp.saddle_resolvent_map(phi, f2["lam"])
    t2 = clock()
    return None, {"instance_s": t1 - t0, "factor_s": t2 - t1}


# -- library workloads ------------------------------------------------------

ENGINE_ITERS = 10_000
LAM = 1.0
ROTATION_N = 100
TOY_MU = 0.02
CERT_HORIZONS = list(range(2, 61)) + [80, 100, 120, 160, 200, 240]
EQUIVALENCE_HORIZONS = [20, 60, 120]
EQUIVALENCE_DIM = 5


def _random_monotone(pp, rng, dim):
    """PSD part plus a skew part, drawn from SplitMix64: monotone, zero at 0."""
    b = rng.normal_matrix(dim, dim)
    w = rng.normal_matrix(dim, dim)
    return pp.DenseLinearOperator((b @ b.T) / dim + (w - w.T))


def _random_symmetric(pp, rng, dim):
    """Symmetric positive definite operator (gradient of a convex quadratic),
    where the inertia-only Guler variants are stable."""
    b = rng.normal_matrix(dim, dim)
    return pp.DenseLinearOperator((b @ b.T) / dim + 0.1 * np.eye(dim))


def setup_engine_small(pp, seed, clock):
    """d=2 operators and their factored resolvents; returns the state and
    the seconds spent generating instances and factoring."""
    t0 = clock()
    rng = pp.SplitMix64(seed)
    rot = pp.rotation_worst_case(ROTATION_N, LAM)
    toy = pp.strongly_monotone_toy(ROTATION_N, LAM, TOY_MU)
    phi = pp.toy_saddle(ROTATION_N, LAM, TOY_MU)
    mono = [_random_monotone(pp, rng, 2) for _ in range(3)]
    sym = _random_symmetric(pp, rng, 2)
    precond = _random_symmetric(pp, rng, 2).entries
    t1 = clock()
    state = {
        "phi": phi,
        "rot": pp.linear_resolvent(rot, LAM),
        "toy": pp.linear_resolvent(toy, LAM),
        "mono": [pp.linear_resolvent(m, LAM) for m in mono],
        "sym": pp.linear_resolvent(sym, LAM),
        "precond": pp.preconditioned_resolvent_map(mono[0], precond, LAM),
    }
    t2 = clock()
    return state, {"instance_s": t1 - t0, "factor_s": t2 - t1}


def engine_small_jobs(pp, state):
    """(job name, thunk, iterations) triples, each a library engine run of
    ENGINE_ITERS whose thunk returns an error string or None."""
    n = ENGINE_ITERS
    x0 = np.array([1.0, 0.0])
    r0 = float(np.linalg.norm(x0))
    zero = (np.zeros(1), np.zeros(1))
    restart_k = pp.optimal_restart_interval(LAM, TOY_MU)
    runs = [
        ("ppm.rotation", lambda: pp.ppm(state["rot"], x0, n, R=r0)),
        ("ppm.preconditioned", lambda: pp.ppm(state["precond"], x0, n)),
        ("accelerated_ppm.rotation", lambda: pp.accelerated_ppm(state["rot"], x0, n, R=r0)),
        ("accelerated_ppm.random", lambda: pp.accelerated_ppm(state["mono"][0], x0, n, R=r0)),
        ("guler1.symmetric", lambda: pp.guler("first", state["sym"], x0, n)),
        ("guler2.symmetric", lambda: pp.guler("second", state["sym"], x0, n)),
        ("restarted_fixed.toy", lambda: pp.restarted(state["toy"], x0, restart_k, n)),
        ("restarted_adaptive.random",
         lambda: pp.restarted(state["mono"][1], x0, None, n, adaptive=True)),
        ("forward_yosida.rotation",
         lambda: pp.forward_method(pp.yosida(state["rot"], LAM), LAM, x0, n)),
        ("saddle_ppm.toy",
         lambda: pp.accelerated_saddle_ppm(state["phi"], LAM, x0[:1], x0[1:], n,
                                           saddle=zero, R=r0)),
        ("drs.random", lambda: pp.drs(state["mono"][1], state["mono"][2], LAM, x0, n)),
    ]
    return [(name, lambda name=name, run=run: check_trace(name, run()), n)
            for name, run in runs]


def check_trace(name, trace):
    """Output gate for one engine run; returns an error string or None."""
    res = np.asarray(trace.residuals)
    if len(res) != ENGINE_ITERS:
        return f"{len(res)} residuals, expected {ENGINE_ITERS}"
    if not np.all(np.isfinite(res)):
        return "non-finite residual"
    if trace.bounds is not None and np.any(res > np.asarray(trace.bounds) * (1.0 + BOUND_SLACK)):
        return "residual above bound"
    if name == "accelerated_ppm.rotation":
        i = np.arange(1, ENGINE_ITERS + 1)
        if np.any(res > (1.0 / i**2) * (1.0 + BOUND_SLACK)):
            return "accelerated residual above R^2/i^2 on the rotation"
    gaps = getattr(trace, "gaps", None)
    if gaps is not None and not np.all(np.isfinite(gaps)):
        return "non-finite saddle gap"
    return None


def setup_certificate(pp, seed, clock):
    """Random monotone operator and start point for the equivalence checks."""
    t0 = clock()
    rng = pp.SplitMix64(seed)
    op = _random_monotone(pp, rng, EQUIVALENCE_DIM)
    x0 = rng.normals(EQUIVALENCE_DIM)
    t1 = clock()
    state = {"resolvent": pp.linear_resolvent(op, LAM), "x0": x0}
    t2 = clock()
    return state, {"instance_s": t1 - t0, "factor_s": t2 - t1}


def certificate_jobs(pp, state):
    """(job name, thunk, iterations) triples: the horizon sweep, then the
    equivalence checks. A horizon counts N iterations, an equivalence check
    the 2N engine iterations it runs."""
    jobs = []
    for n in CERT_HORIZONS:
        def verify(n=n):
            rep = pp.verify_certificate(n)
            if not (rep.passed and rep.max_rank1_deviation <= DEVIATION_TOL):
                return f"certificate failed at N={n}: {rep}"
            return None
        jobs.append((f"verify.N{n}", verify, n))
    for n in EQUIVALENCE_HORIZONS:
        def equivalence(n=n):
            dev = pp.equivalence_check(state["resolvent"], n, state["x0"])
            if not dev <= DEVIATION_TOL:
                return f"equivalence deviation {dev:.3e} at N={n}"
            return None
        jobs.append((f"equivalence.N{n}", equivalence, 2 * n))
    return jobs


SETUPS = {"presets": setup_presets, "engine-small": setup_engine_small,
          "certificate": setup_certificate}
