"""Experiment runner: reproduces the benchmark figure data and the
certificate report as CSV.

Configuration is flags-only. Exit codes: 0 on success, 1 on a
configuration error, 2 on a numerical failure (singular resolvent
system, inner-solver cap, a basis pursuit reference LP that is
infeasible, does not terminate or fails its optimality gates, an
unsolved TV reference, or a run that diverged to a non-finite value).
BLAS runs on one thread unless the user sets a count
(``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``). BLAS splits its sums
by thread, so another thread count can move the last digits of ``R`` and
the residuals. Output is then byte-identical across reruns of the same
configuration, at any core count, on one machine and BLAS build.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass, field

# Every BLAS call here is small, and a second OpenBLAS thread mostly
# spin-waits. Both OpenBLAS builds (numpy's and scipy's) read this when
# they load, and OPENBLAS_NUM_THREADS still takes precedence. A host
# program that loaded numpy first keeps its own setting.
if "numpy" not in sys.modules:
    os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np

from . import methods as mt
from . import splitting as sp
from .operators import InnerSolverError, SingularSystemError, linear_resolvent
from .pep_cert import verify_certificate
from .problems import (PRESETS, basis_pursuit_instance, basis_pursuit_solution,
                       bilinear_game_instance, rotation_worst_case, toy_saddle,
                       tv_instance, tv_solution)

__all__ = ["RunConfig", "ConfigError", "run_experiment", "main"]

FIXED_POINT_TOL = 1e-9
METHOD_NAMES = ("ppm", "accel", "guler1", "guler2", "restarted")
DEFAULT_METHODS = {
    "fig1": ("ppm", "guler1", "accel"),
    "fig2": ("ppm", "accel", "restarted"),
    "fig3": ("ppm", "guler1", "accel", "restarted"),
    "fig4": ("ppm", "guler1", "accel", "restarted"),
    "fig5": ("ppm", "accel", "restarted"),
}
_VARIANT_OF = {"ppm": "plain", "accel": "proposed",
               "guler1": "guler1", "guler2": "guler2"}
# The optional flags each figure reads besides --iters; the restart flags
# are read only by the restarted method and --nmax only by cert. Any other
# flag is a configuration error rather than silently ignored.
_FIGURE_FLAGS = {
    "fig1": ("lam",),
    "fig2": ("lam", "mu"),
    "fig3": ("lam", "seed"),
    "fig4": ("tau", "sigma", "seed"),
    "fig5": ("rho", "gamma", "seed"),
}
_OPTIONAL_FLAGS = ("iters", "lam", "mu", "rho", "tau", "sigma", "gamma", "seed",
                   "restart", "adaptive_restart", "nmax")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _flag(name):
    """Command-line spelling of a :class:`RunConfig` field."""
    return "--" + {"lam": "lambda"}.get(name, name).replace("_", "-")


@dataclass
class RunConfig:
    """Validated CLI configuration for one experiment run."""

    experiment: str
    methods: list
    iters: int | None = None
    lam: float | None = None
    mu: float | None = None
    rho: float | None = None
    tau: float | None = None
    sigma: float | None = None
    gamma: float | None = None
    seed: int | None = None
    restart: int | None = None
    adaptive_restart: bool = False
    nmax: int | None = None
    out: str = "experiment.csv"
    preset: dict = field(default_factory=dict)

    def __post_init__(self):
        base = self.experiment.split("-")[0]
        if self.experiment != "cert":
            if self.experiment not in PRESETS:
                raise ConfigError(f"unknown experiment {self.experiment!r}")
            self.preset = dict(PRESETS[self.experiment])
            allowed = DEFAULT_METHODS[base]
            if not self.methods:
                self.methods = list(allowed)
            for m in self.methods:
                if m not in METHOD_NAMES:
                    raise ConfigError(f"unknown method {m!r}")
                if base == "fig5" and m.startswith("guler"):
                    raise ConfigError(
                        "guler variants are not defined for the ADMM experiment")
            reads = {"iters", *_FIGURE_FLAGS[base]}
            if "restarted" in self.methods:
                reads |= {"restart", "adaptive_restart"}
        else:
            if self.methods:
                raise ConfigError("the certificate report takes no --method")
            reads = {"nmax"}
        for name in _OPTIONAL_FLAGS:
            value = getattr(self, name)
            if name not in reads and value is not None and value is not False:
                raise ConfigError(
                    f"{_flag(name)} is not read by the {self.experiment} experiment")
        if self.experiment == "cert":
            if self.nmax is None:
                self.nmax = 60
            if self.nmax < 2:
                raise ConfigError("--nmax must be at least 2")
        elif self.iters is None:
            self.iters = self.preset["iters"]
        if self.iters is not None and self.iters < 1:
            raise ConfigError("--iters must be positive")
        for name in ("lam", "mu", "rho", "tau", "sigma", "gamma"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigError(f"{_flag(name)} must be positive")
        if self.restart is not None and self.restart < 1:
            raise ConfigError("--restart must be at least 1")
        if self.restart is not None and self.adaptive_restart:
            raise ConfigError("--restart and --adaptive-restart are exclusive")

    def restart_intervals(self):
        """Intervals to run for the ``restarted`` method."""
        if self.restart is not None:
            return (self.restart,)
        if self.adaptive_restart:
            return (None,)
        return tuple(self.preset.get("restarts", ()))


def _fmt(value):
    return "" if value is None else format(float(value), ".17g")


def _param(config, name, default):
    value = getattr(config, name)
    return default if value is None else value


def _restart_label(interval):
    return "adaptive-restart" if interval is None else f"restart@{interval}"


def _expand_methods(config):
    """Resolve method names into (label, variant, interval) tasks."""
    tasks = []
    for name in config.methods:
        if name == "restarted":
            intervals = config.restart_intervals()
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


def _trace_rows(experiment, label, trace):
    infeas, gaps = trace.infeasibility, trace.gaps
    rows = []
    for j, i in enumerate(trace.iterations):
        rows.append((
            experiment, label, str(int(i)),
            _fmt(trace.residuals[j]),
            _fmt(None if trace.bounds is None else trace.bounds[j]),
            _fmt(None if infeas is None else infeas[j]),
            _fmt(None if gaps is None else gaps[j]),
        ))
    return rows


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


_RUNNERS = {
    "fig1": _run_operator_experiment,
    "fig2": _run_saddle_experiment,
    "fig3": _run_prox_mult_experiment,
    "fig4": _run_pdhg_experiment,
    "fig5": _run_admm_experiment,
}


def _run_cert(config):
    lines = [f"# certificate report nmax={config.nmax}",
             "N,deviation,min_eig,dual_value"]
    for n in range(2, config.nmax + 1):
        rep = verify_certificate(n)
        if not rep.passed:
            raise ArithmeticError(f"certificate failed at N={n}: {rep}")
        lines.append(f"{n},{_fmt(rep.max_rank1_deviation)},"
                     f"{_fmt(rep.min_eigenvalue)},{_fmt(rep.dual_value)}")
    return lines


def run_experiment(config):
    """Run one experiment and write its CSV to ``config.out``.

    Figure experiments run their methods one after another, in the
    configured method order, and write the buffered rows at the end.
    """
    if config.experiment == "cert":
        lines = _run_cert(config)
    else:
        tasks = _expand_methods(config)
        meta, run = _RUNNERS[config.experiment.split("-")[0]](config)
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
    with open(config.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="proxpoint",
        description="Reproduce the benchmark figure data and the certificate "
                    "report as CSV.")
    parser.add_argument("--experiment", required=True,
                        choices=sorted(PRESETS) + ["cert"])
    parser.add_argument("--method", action="append", default=[],
                        help="method to run (repeatable): ppm, accel, guler1, "
                             "guler2, restarted")
    parser.add_argument("--iters", type=int)
    parser.add_argument("--lambda", dest="lam", type=float)
    parser.add_argument("--mu", type=float)
    parser.add_argument("--rho", type=float)
    parser.add_argument("--tau", type=float)
    parser.add_argument("--sigma", type=float)
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--restart", type=int,
                        help="restart interval for the restarted method")
    parser.add_argument("--adaptive-restart", action="store_true",
                        help="restart whenever the residual increases")
    parser.add_argument("--nmax", type=int,
                        help="largest horizon for the certificate report "
                             "(default 60)")
    parser.add_argument("--out", default="experiment.csv")
    return parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def parse_config(argv):
    """Parse flags into a validated :class:`RunConfig` (raises ConfigError)."""
    parser = _build_parser()
    parser.__class__ = _Parser
    ns = parser.parse_args(argv)
    return RunConfig(experiment=ns.experiment, methods=ns.method,
                     iters=ns.iters, lam=ns.lam, mu=ns.mu, rho=ns.rho,
                     tau=ns.tau, sigma=ns.sigma, gamma=ns.gamma, seed=ns.seed,
                     restart=ns.restart, adaptive_restart=ns.adaptive_restart,
                     nmax=ns.nmax, out=ns.out)


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
