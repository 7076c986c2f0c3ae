"""Experiment runner: reproduces the benchmark figure data and the
certificate report as CSV.

Configuration is flags-only. Exit codes: 0 on success, 1 on a
configuration error, 2 on a numerical failure (singular resolvent
system, inner-solver cap, a basis pursuit reference LP that is
infeasible, does not terminate or fails its optimality gates, an
unsolved TV reference, a run that diverged to a non-finite value, or a
residual above its bound column).
BLAS runs on one thread unless the user sets a count
(``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``). BLAS splits its sums
by thread, so another thread count can move the last digits of ``R`` and
the figure residuals. Where scipy's LAPACK is OpenBLAS, the certificate's
eigenvalue call runs on one thread whatever the setting, so ``cert``
output does not move with it.
Output is byte-identical across reruns of the same configuration, at any
core count, on one machine and BLAS build.
"""

import argparse
import functools
import math
import os
import sys

# Every BLAS call here is small, and a second OpenBLAS thread mostly
# spin-waits. Both OpenBLAS builds (numpy's and scipy's) read this when
# they load, and OPENBLAS_NUM_THREADS still takes precedence. A host
# program that loaded numpy first keeps its own setting.
if "numpy" not in sys.modules:
    os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np

from . import splitting as sp
from .methods import iterate
from .operators import InnerSolverError, SingularSystemError, linear_resolvent
from .pep_cert import verify_certificate
from .problems import (PRESETS, basis_pursuit_instance, basis_pursuit_solution,
                       bilinear_game_instance, rotation_worst_case, toy_saddle,
                       tv_instance, tv_solution)

__all__ = ["ConfigError", "parse_config", "run_experiment", "main"]

FIXED_POINT_TOL = 1e-9
# A residual above bound * (1 + BOUND_SLACK) is a numerical failure. The
# bounds are attained (fig1's ppm row at i = 100 sits 6.9e-15 relative
# below its bound), so rounding in the residual and in R can put a row a
# few ulps either side; 1e-9 covers that with room and is the gate
# perfbench applies to the same CSV column.
BOUND_SLACK = 1e-9
_VARIANT_OF = {"ppm": "plain", "accel": "proposed",
               "guler1": "guler1", "guler2": "guler2"}
METHOD_NAMES = (*_VARIANT_OF, "restarted")
DEFAULT_METHODS = {
    "fig1": ("ppm", "guler1", "accel"),
    "fig2": ("ppm", "accel", "restarted"),
    "fig3": ("ppm", "guler1", "accel", "restarted"),
    "fig4": ("ppm", "guler1", "accel", "restarted"),
    "fig5": ("ppm", "accel", "restarted"),
}
# The optional flags each figure reads besides --iters; --restart is read
# only by the restarted method and --nmax only by cert. Any other
# flag is a configuration error rather than silently ignored.
_FIGURE_FLAGS = {
    "fig1": ("lam",),
    "fig2": ("lam", "mu"),
    "fig3": ("lam", "seed"),
    "fig4": ("tau", "sigma", "seed"),
    "fig5": ("rho", "gamma", "seed"),
}
_FLOAT_FLAGS = ("lam", "mu", "rho", "tau", "sigma", "gamma")
_OPTIONAL_FLAGS = ("iters", *_FLOAT_FLAGS, "seed", "restart", "nmax")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _flag(name):
    """Command-line spelling of the flag stored under ``name``."""
    return "--lambda" if name == "lam" else "--" + name


def _fmt(value):
    return "" if value is None else format(float(value), ".17g")


def _expand_methods(config):
    """Resolve method names into (label, variant, restart) tasks; the
    restarted method runs ``--restart`` or else each preset interval."""
    tasks = []
    for name in config.methods:
        if name != "restarted":
            tasks.append((name, _VARIANT_OF[name], None))
            continue
        restarts = ((config.params["restart"],) if "restart" in config.params
                    else config.params.get("restarts", ()))
        if not restarts:
            raise ConfigError("the restarted method needs --restart")
        tasks += [("adaptive-restart" if k == "adaptive" else f"restart@{k}",
                   "proposed", k) for k in restarts]
    return tasks


def _radius_line(engine, reference, radius, source):
    """Header line for the bound radius ``R = radius()``; returns it with the
    ``R`` to bound by, which is ``None`` when the reference point fails its
    check.

    The check is the root of the engine's own residual after one plain step
    from the reference point: zero, up to rounding, at a true fixed point.
    It runs first, so an engine that refuses its parameters reports that
    before ``radius()`` runs (fig4's norm is indefinite when pdhg's step
    condition fails).
    """
    check = math.sqrt(engine(*reference, 1, "plain").residuals[0])
    radius = radius()
    line = f"# R={_fmt(radius)} R_source={source} fixed_point_check={_fmt(check)}"
    if check <= FIXED_POINT_TOL * max(1.0, radius):
        return line, radius
    return (line + f" bound=empty (fixed_point_check above"
                   f" {FIXED_POINT_TOL:g}*max(1,R))"), None


def _check_bounds(label, trace):
    """Raise ``ArithmeticError`` at the first row of ``trace`` whose residual
    exceeds its bound by more than ``BOUND_SLACK`` relative."""
    if trace.bounds is None:
        return
    above = np.flatnonzero(trace.residuals > trace.bounds * (1.0 + BOUND_SLACK))
    if above.size:
        j = above[0]
        raise ArithmeticError(
            f"{label}: residual {_fmt(trace.residuals[j])} above its bound"
            f" {_fmt(trace.bounds[j])} at iteration {j + 1}")


def _run_method(experiment, engine, start, iters, radius, label, variant, restart):
    """Run one method, check its bound column and format its output: returns
    its ``# restarts[...]`` line (``None`` without restarts) and its CSV rows.

    The trace lives only in this frame, so a figure run holds one method's
    trace at a time.
    """
    trace = engine(*start, iters, variant, restart, radius)
    _check_bounds(label, trace)
    restarts = (f"# restarts[{label}]={','.join(map(str, trace.restarts))}"
                if trace.restarts else None)
    blank = [None] * len(trace.residuals)
    columns = [blank if c is None else c
               for c in (trace.bounds, trace.infeasibility, trace.gaps)]
    return restarts, [f"{experiment},{label},{i},{_fmt(r)},{_fmt(b)},{_fmt(f)},{_fmt(g)}"
                      for i, (r, b, f, g) in enumerate(zip(trace.residuals, *columns), 1)]


# Each runner reads the figure's parameters from config.params, its preset
# with the given flags laid over it, and returns (meta, engine, start, R):
# the header lines, the library engine with the figure's problem bound by
# functools.partial, so that it runs as engine(*start, iters, variant,
# restart, R), its start blocks as a tuple, and the R to bound by (None when
# the reference check fails).

def _run_operator_experiment(config):
    """fig1: worst-case rotation; methods act through a shared resolvent."""
    p = config.params
    n, lam = p["n"], p["lam"]
    resolvent = linear_resolvent(rotation_worst_case(n, lam), lam)
    meta = [f"# problem=rotation n={n} lam={_fmt(lam)} iters={p['iters']}"
            f" x0=[1,0] R=1 R_source=exact"]
    return meta, functools.partial(iterate, resolvent), (np.array([1.0, 0.0]),), 1.0


def _run_saddle_experiment(config):
    """fig2: strongly monotone toy problem via its saddle function, so the
    gap column is available alongside the residual."""
    p = config.params
    n, lam, mu = p["n"], p["lam"], p["mu"]
    engine = functools.partial(sp.accelerated_saddle_ppm, toy_saddle(n, lam, mu), lam,
                               saddle=(np.zeros(1), np.zeros(1)))
    meta = [f"# problem=strongly_monotone_toy n={n} lam={_fmt(lam)} mu={_fmt(mu)}"
            f" iters={p['iters']} x0=[1,0] R=1 R_source=exact"]
    return meta, engine, (np.array([1.0]), np.array([0.0])), 1.0


def _run_prox_mult_experiment(config):
    """fig3: basis pursuit by the proximal method of multipliers."""
    p = config.params
    seed, lam = p["seed"], p["lam"]
    inst = basis_pursuit_instance(p["d1"], p["d2"], seed)
    engine = functools.partial(sp.accelerated_prox_multipliers,
                               sp.ProxDescriptor.l1(p["d1"], 1.0), inst["A"], inst["b"],
                               lam)
    u0, v0 = np.zeros(p["d1"]), np.zeros(p["d2"])
    u_star, v_star = basis_pursuit_solution(inst["A"], inst["b"])
    line, radius = _radius_line(
        engine, (u_star, v_star),
        lambda: float(np.linalg.norm(np.concatenate([u0 - u_star, v0 - v_star]))),
        "exact (KKT point of the basis pursuit LP)")
    meta = [f"# problem=basis_pursuit d1={p['d1']} d2={p['d2']} seed={seed}"
            f" lam={_fmt(lam)} iters={p['iters']} x0=0", line]
    return meta, engine, (u0, v0), radius


def _run_pdhg_experiment(config):
    """fig4: bilinear game by (accelerated) PDHG; preconditioned residuals."""
    p = config.params
    seed = p["seed"]
    inst = bilinear_game_instance(p["d1"], p["d2"], seed)
    k = inst["K"]
    norm_k = sp.operator_norm(k)
    tau = p.get("tau", p["step_fraction"] / norm_k)
    sigma = p.get("sigma", p["step_fraction"] / norm_k)
    engine = functools.partial(sp.pdhg, sp.ProxDescriptor.linear(inst["a"]),
                               sp.ProxDescriptor.linear(inst["b"]), k, tau, sigma,
                               norm_k=norm_k)
    u0 = np.full(p["d1"], 10.0)
    v0 = np.full(p["d2"], 10.0)

    # The saddle set is (u* + null K) x {v*}. The preconditioned distance
    # to it drops the null-space part of u0 - u*, leaving du = P(u0 - u*)
    # with P = K'(KK')^-1 K the projection onto range(K').
    k_du = k @ (u0 - inst["u_star"])
    du = k.T @ np.linalg.solve(k @ k.T, k_du)
    dv = v0 - inst["v_star"]
    line, radius = _radius_line(
        engine, (u0 - du, inst["v_star"]),
        lambda: math.sqrt(du @ du / tau - 2.0 * (k_du @ dv) + dv @ dv / sigma),
        "exact (nearest point of the planted saddle set)")
    meta = [f"# problem=bilinear_game d1={p['d1']} d2={p['d2']} seed={seed}"
            f" tau={_fmt(tau)} sigma={_fmt(sigma)} norm_K={_fmt(norm_k)}"
            f" iters={p['iters']} x0=all-tens residual=preconditioned", line]
    return meta, engine, (u0, v0), radius


def _run_admm_experiment(config):
    """fig5: total-variation least squares by (accelerated) ADMM."""
    p = config.params
    seed, gamma, rho = p["seed"], p["gamma"], p["rho"]
    inst = tv_instance(p["d1"], p["p"], seed, p["noise_scale"])
    d2 = p["d1"] - 1
    cons = sp.AffineConstraint(inst["D"], -np.eye(d2), np.zeros(d2))
    engine = functools.partial(sp.admm, sp.ProxDescriptor.quadratic(inst["H"], inst["b"]),
                               sp.ProxDescriptor.l1(d2, gamma), cons, rho)
    x0, z0, nu0 = np.zeros(p["d1"]), np.zeros(d2), np.zeros(d2)

    # R is the distance from the run's first dual point nu0 + rho (A x_1 - c),
    # x_1 the x-update at (nu0, z0), to the dual Douglas-Rachford fixed point
    # nu* + rho (A x* - c) that ADMM's iterates converge to.
    x_star, nu_star = tv_solution(inst["H"], inst["b"], gamma)
    eta_star = nu_star + rho * (cons.A @ x_star - cons.c)

    def distance():
        first = engine(x0, z0, nu0, 1, "plain").iterates
        eta0 = first["nu_hat"][0] + rho * (cons.A @ first["x"][1] - cons.c)
        return float(np.linalg.norm(eta0 - eta_star))

    line, radius = _radius_line(engine, (x_star, cons.A @ x_star, nu_star), distance,
                                "exact (KKT point of the TV least-squares problem)")
    meta = [f"# problem=tv_least_squares d1={p['d1']} p={p['p']} seed={seed}"
            f" gamma={_fmt(gamma)} rho={_fmt(rho)}"
            f" noise_scale={_fmt(p['noise_scale'])} iters={p['iters']} x0=0", line]
    return meta, engine, (x0, z0, nu0), radius


_RUNNERS = {
    "fig1": _run_operator_experiment,
    "fig2": _run_saddle_experiment,
    "fig3": _run_prox_mult_experiment,
    "fig4": _run_pdhg_experiment,
    "fig5": _run_admm_experiment,
}


def _run_cert(config):
    nmax = config.params["nmax"]
    lines = [f"# certificate report nmax={nmax}", "N,deviation,min_eig,dual_value"]
    for n in range(2, nmax + 1):
        rep = verify_certificate(n)
        if not rep.passed:
            raise ArithmeticError(f"certificate failed at N={n}: {rep}")
        lines.append(f"{n},{_fmt(rep.max_rank1_deviation)},"
                     f"{_fmt(rep.min_eigenvalue)},{_fmt(rep.dual_value)}")
    return lines


def run_experiment(config):
    """Run one experiment and write its CSV to ``config.out``.

    Figure experiments run their methods one after another, in the
    configured method order. Each method's bound column is checked and its
    rows formatted right after it runs, so only one trace is alive at a
    time; the CSV is written once every method has passed, and a failing
    method leaves no file. An ``--out`` that cannot be opened for writing
    raises ``ConfigError``.
    """
    if config.experiment == "cert":
        lines = _run_cert(config)
    else:
        tasks = _expand_methods(config)
        meta, engine, start, radius = _RUNNERS[config.experiment.split("-")[0]](config)
        results = [_run_method(config.experiment, engine, start, config.params["iters"],
                               radius, *task) for task in tasks]
        lines = [f"# experiment={config.experiment}"
                 f" methods={'|'.join(label for label, _, _ in tasks)}"]
        lines += meta
        lines += [restarts for restarts, _ in results if restarts]
        lines.append("experiment,method,iteration,residual,bound,infeasibility,gap")
        for _, rows in results:
            lines += rows
    try:
        with open(config.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write --out {config.out}: {exc.strerror}") from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def parse_config(argv):
    """Parse and check the flags (raises ConfigError).

    Returns the argparse namespace with ``params`` added: the experiment's
    preset (``cert``'s is ``nmax=60``) with the flags it reads that were
    given laid over it, ``--restart`` as an int unless it is ``adaptive``.
    """
    parser = _Parser(prog="proxpoint",
                     description="Reproduce the benchmark figure data and the "
                                 "certificate report as CSV.")
    parser.add_argument("--experiment", required=True,
                        choices=sorted(PRESETS) + ["cert"])
    parser.add_argument("--method", dest="methods", action="append", default=[],
                        help="method to run (repeatable): ppm, accel, guler1, "
                             "guler2, restarted")
    parser.add_argument("--iters", type=int)
    for name in _FLOAT_FLAGS:
        parser.add_argument(_flag(name), dest=name, type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--restart", metavar="K|adaptive",
                        help="restart the restarted method every K iterations, "
                             "or whenever the residual increases")
    parser.add_argument("--nmax", type=int,
                        help="largest horizon for the certificate report "
                             "(default 60)")
    parser.add_argument("--out", default="experiment.csv")
    config = parser.parse_args(argv)

    given = {name: getattr(config, name) for name in _OPTIONAL_FLAGS
             if getattr(config, name) is not None}
    if config.experiment == "cert":
        if config.methods:
            raise ConfigError("the certificate report takes no --method")
        preset, reads = {"nmax": 60}, {"nmax"}
    else:
        base = config.experiment.split("-")[0]
        config.methods = config.methods or list(DEFAULT_METHODS[base])
        for i, m in enumerate(config.methods):
            if m not in METHOD_NAMES:
                raise ConfigError(f"unknown method {m!r}")
            if m in config.methods[:i]:
                raise ConfigError(f"--method {m} is given more than once")
            if base == "fig5" and m.startswith("guler"):
                raise ConfigError("guler variants are not defined for the ADMM experiment")
        preset, reads = PRESETS[config.experiment], {"iters", *_FIGURE_FLAGS[base]}
        if "restarted" in config.methods:
            reads.add("restart")
    for name in given:
        if name not in reads:
            raise ConfigError(
                "--restart is read only by the restarted method" if name == "restart"
                else f"{_flag(name)} is not read by the {config.experiment} experiment")
    if given.get("nmax", 2) < 2:
        raise ConfigError("--nmax must be at least 2")
    if given.get("iters", 1) < 1:
        raise ConfigError("--iters must be positive")
    for name in _FLOAT_FLAGS:
        if name in given and not (math.isfinite(given[name]) and given[name] > 0):
            raise ConfigError(f"{_flag(name)} must be a positive finite number")
    if given.get("restart", "adaptive") != "adaptive":
        if not (given["restart"].isdecimal() and int(given["restart"]) >= 1):
            raise ConfigError("--restart takes an integer K >= 1 or 'adaptive'")
        given["restart"] = int(given["restart"])
    config.params = {**preset, **given}
    return config


def main(argv=None):
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        run_experiment(config)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SingularSystemError, InnerSolverError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
