"""Iteration engines for the proximal point family.

All engines consume a resolvent (any callable ``y -> x``) and return a
:class:`ResidualTrace` holding the iterates, the squared fixed-point
residuals ``||x_i - y_{i-1}||^2``, and, when the initial distance ``R``
to a zero is known, the matching theoretical bound per iteration. Every
engine except :func:`general_ppm` runs on the one momentum loop
:func:`iterate`, as ``iterate(step, x0, iters, variant, restart, R)``;
``ppm``, ``accelerated_ppm``, ``guler`` and ``restarted`` are aliases.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .operators import _check_positive, _square_matrix, as_vector

__all__ = [
    "ResidualTrace",
    "Momentum",
    "iterate",
    "ppm",
    "general_ppm",
    "accelerated_ppm",
    "guler",
    "restarted",
    "optimal_restart_interval",
    "forward_method",
    "ppm_rate_bound",
    "accelerated_rate_bound",
]

_VARIANTS = ("plain", "proposed", "guler1", "guler2")


@dataclass
class ResidualTrace:
    """Per-iteration record of a fixed-point iteration.

    ``residuals[i-1]`` is the squared fixed-point residual of iteration
    ``i``, ``||x_i - y_{i-1}||^2`` unless the engine measures it otherwise
    (preconditioned for PDHG, ``rho^2 * infeasibility`` for ADMM); plain
    runs have ``y_i = x_i``. ``bounds``, ``gaps`` and ``infeasibility``
    share its rows, so row ``i-1`` is always iteration ``i``. ``xs``
    stacks ``x_0..x_n`` and ``ys`` the points fed to the step, so
    ``ys[i-1]`` produced ``xs[i]``.
    ``restarts`` lists the global iteration indices after which the engine
    re-initialized. ``gaps`` holds saddle gaps when a saddle point was
    supplied and ``infeasibility`` the ADMM constraint violation
    ``||A x_{i+1} + B z_i - c||^2``. ``iterates`` is empty except on
    ADMM, which fills it with its primal iterates ``x`` and ``z`` and its
    multipliers ``nu_hat`` and ``eta_hat``.
    """

    residuals: np.ndarray
    bounds: np.ndarray | None
    xs: np.ndarray
    ys: np.ndarray
    restarts: list = field(default_factory=list)
    gaps: np.ndarray | None = None
    infeasibility: np.ndarray | None = None
    iterates: dict = field(default_factory=dict)


class Momentum:
    """Extrapolation state shared by the accelerated engines.

    Variants: ``plain`` (no extrapolation), ``proposed`` (inertia plus the
    correction term that guarantees the 1/i^2 residual rate), ``guler1``
    and ``guler2`` (t-sequence inertia, the second with an extra overshoot
    term). ``reset`` restores the state used at a fresh start.
    """

    def __init__(self, variant):
        if variant not in _VARIANTS:
            raise ValueError(f"unknown variant {variant!r}, expected one of {_VARIANTS}")
        self.variant = variant
        self.reset()

    def reset(self):
        self.i = 0
        self.t = 1.0

    def update(self, x_new, x_old, d_new, d_old):
        """Next extrapolated point from ``x_{i+1}, x_i`` and the displacements
        ``d_new = x_{i+1} - y_i``, ``d_old = x_i - y_{i-1}`` (zero at a start)."""
        i = self.i
        if self.variant == "plain":
            y = x_new
        elif self.variant == "proposed":
            beta = i / (i + 2)
            y = x_new + beta * (x_new - x_old) - beta * d_old
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * self.t * self.t))
            y = x_new + ((self.t - 1.0) / t_next) * (x_new - x_old)
            if self.variant == "guler2":
                y = y + (self.t / t_next) * d_new
            self.t = t_next
        self.i = i + 1
        return y


def _sq_norm(d):
    # The same BLAS dot kernel as ``d @ d``, with less dispatch overhead.
    return float(d.dot(d))


def _euclidean_sq(x_new, y):
    return _sq_norm(x_new - y)


def _extrapolation_error(y, g):
    """The divergence error when the point ``y`` fed to step ``g`` is not
    finite, else None; checked only once step ``g`` has failed."""
    if not np.isfinite(y).all():
        return FloatingPointError(
            f"non-finite extrapolated point after iteration {g - 1}")
    return None


def iterate(step, x0, iters, variant="plain", restart=None, R=None, *,
            residual_sq=_euclidean_sq):
    """The one momentum loop: ``x_{i+1} = step(y_i)`` plus a momentum rule.

    ``step`` maps ``y -> x``, for example the resolvent ``J`` of ``lam*M``.
    ``variant`` is ``"plain"`` (``y_i = x_i``, the proximal point method),
    ``"proposed"`` (inertia plus the correction term) or the inertia-only
    ``"guler1"`` and ``"guler2"``. ``restart`` is ``None``, an integer
    interval of at least 1 (a Python or numpy integer, not a bool), or
    ``"adaptive"``: restart whenever the residual increases; any other
    value raises ``ValueError``. The bound column is filled when ``R``, a
    bound on the distance from ``x0`` to a fixed point, is known, the
    variant has a rate (``plain`` or ``proposed``) and no restart can
    fire. ``residual_sq`` scores the displacement ``(x_{i+1}, y_i)``; the
    Euclidean residual and the momentum rule read one ``x_{i+1} - y_i``.

    The trace is stored in arrays allocated once per run, one row per
    iteration, so a step must return a vector of the start's shape; any
    other shape raises ``ValueError`` at that iteration. A non-finite
    residual, iterate or extrapolated point raises ``FloatingPointError``;
    numpy's own overflow and invalid-value warnings are silenced inside
    the loop, so that error is the only report of a divergence.

    Each point is scanned for non-finite entries once. With the Euclidean
    residual that scan is the residual itself: a non-finite entry of
    ``x_{i+1}`` or of ``y_i`` makes it inf or nan. A step that validates
    its input (every resolvent map does) fails on a non-finite ``y_i``
    first; such a failure, or a non-finite residual, is reported as the
    non-finite extrapolated point after iteration ``i`` whenever ``y_i``
    is not finite; a ``FloatingPointError`` the step raises on a finite
    point is re-raised naming the step's iteration. A custom residual may
    read only part of its arguments, so the engine scans ``x_{i+1}`` and
    each extrapolated point itself.
    The point after the last iteration is never formed.
    """
    if iters < 1:
        raise ValueError("iteration count must be at least 1")
    # The restart test reads an interval, infinite when there is none, and
    # the adaptive flag, both fixed here.
    adaptive = isinstance(restart, str) and restart == "adaptive"
    if restart is None or adaptive:
        interval = math.inf
    elif (isinstance(restart, numbers.Integral) and not isinstance(restart, bool)
          and restart >= 1):
        interval = restart
    else:
        raise ValueError("restart must be None, an integer interval >= 1 or "
                         f"'adaptive', got {restart!r}")
    x0 = as_vector(x0)
    scan = residual_sq is not _euclidean_sq
    mom = Momentum(variant)
    d = zeros = np.zeros_like(x0)  # x_i - y_{i-1} at a start, where y_{i-1} = x_i
    x = y = x0
    xs = np.empty((iters + 1, x0.size))
    xs[0] = x0
    ys = np.empty((iters, x0.size))
    residuals = np.empty(iters)
    restarts = []
    since_restart = 0
    prev_res = math.inf
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
            if x_new.shape != x0.shape:
                raise ValueError(f"step returned shape {x_new.shape} at iteration "
                                 f"{g}, expected the start's shape {x0.shape}")
            d_prev, d = d, x_new - y
            res = residual_sq(x_new, y) if scan else _sq_norm(d)
            if not (math.isfinite(res) and (not scan or np.isfinite(x_new).all())):
                raise _extrapolation_error(y, g) or FloatingPointError(
                    f"non-finite residual or iterate at iteration {g}")
            ys[g - 1] = y
            xs[g] = x_new
            residuals[g - 1] = res
            if g == iters:
                break
            since_restart += 1
            if since_restart >= interval or (adaptive and res > prev_res):
                mom.reset()
                x, y, d = x_new, x_new, zeros
                restarts.append(g)
                since_restart = 0
                prev_res = math.inf
            else:
                y_new = mom.update(x_new, x, d, d_prev)
                if scan and y_new is not x_new and not np.isfinite(y_new).all():
                    raise FloatingPointError(
                        f"non-finite extrapolated point after iteration {g}")
                x, y = x_new, y_new
                prev_res = res
    rate = {"plain": ppm_rate_bound, "proposed": accelerated_rate_bound}.get(variant)
    bounds = None
    if R is not None and rate is not None and not adaptive and interval >= iters:
        # Python ints, not numpy scalars: the same floats, about 8x faster.
        bounds = np.fromiter((rate(R, i) for i in range(1, iters + 1)), float, iters)
    return ResidualTrace(residuals, bounds, xs, ys, restarts)


def ppm_rate_bound(R, i):
    """Worst-case PPM residual bound ``(1 - 1/i)^(i-1) R^2 / i``."""
    return (1.0 - 1.0 / i) ** (i - 1) * R * R / i


def accelerated_rate_bound(R, i):
    """Accelerated residual bound ``R^2 / i^2``."""
    return R * R / (i * i)


def ppm(resolvent, x0, iters, R=None):
    """Proximal point method ``x_{i+1} = J(x_i)``: an alias of
    ``iterate(resolvent, x0, iters, "plain", R=R)``."""
    return iterate(resolvent, x0, iters, "plain", R=R)


def general_ppm(resolvent, table, y0, iters):
    """General proximal point method with arbitrary step coefficients.

    ``table`` is the lower-triangular ``(N-1) x (N-1)`` step table, row
    ``i-1`` holding ``h[i, 1..i]``; it covers at most ``N`` iterations.
    Updates ``x_{i+1} = J(y_i)`` and ``y_{i+1} = y_i + sum_k h[i+1, k+1]
    (x_{k+1} - y_k)``, keeping the whole update history (O(iters * dim)
    memory). Like :func:`iterate`, it records into arrays allocated once
    per run, raises ``ValueError`` when the resolvent returns another shape
    than the start's and ``FloatingPointError`` on a non-finite residual.
    """
    if iters < 1:
        raise ValueError("iteration count must be at least 1")
    table = _square_matrix(table, "step table")
    if np.any(np.triu(table, k=1) != 0.0):
        raise ValueError("entries above the diagonal must be zero")
    if iters > len(table) + 1:
        raise ValueError(f"iters = {iters} exceeds the coefficient horizon {len(table) + 1}")
    y = as_vector(y0)
    xs = np.empty((iters + 1, y.size))
    xs[0] = y
    ys = np.empty((iters, y.size))
    residuals = np.empty(iters)
    updates = np.empty((iters, y.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(iters):
            ys[i] = y
            x_new = np.asarray(resolvent(y), dtype=float)
            if x_new.shape != y.shape:
                raise ValueError(f"step returned shape {x_new.shape} at iteration "
                                 f"{i + 1}, expected the start's shape {y.shape}")
            xs[i + 1] = x_new
            diff = updates[i] = x_new - y
            residuals[i] = diff @ diff
            if not math.isfinite(residuals[i]):
                raise FloatingPointError(
                    f"non-finite residual or iterate at iteration {i + 1}")
            if i == iters - 1:
                break
            y = y + table[i, :i + 1] @ updates[:i + 1]
    return ResidualTrace(residuals, None, xs, ys)


def accelerated_ppm(resolvent, x0, iters, R=None):
    """Accelerated proximal point method with the correction term: an alias
    of ``iterate(resolvent, x0, iters, "proposed", R=R)``.

    Starting from ``x0 = y0 = y_{-1}``, iterates ``x_{i+1} = J(y_i)``,
    ``y_{i+1} = x_{i+1} + i/(i+2) (x_{i+1} - x_i) - i/(i+2) (x_i -
    y_{i-1})``; the residual obeys ``||x_i - y_{i-1}||^2 <= R^2 / i^2``.
    """
    return iterate(resolvent, x0, iters, "proposed", R=R)


def guler(variant, resolvent, x0, iters):
    """Inertia-only accelerated proximal point methods: an alias of
    ``iterate(resolvent, x0, iters, "guler1")`` for ``variant="first"`` and
    of ``"guler2"`` for ``"second"``.

    Both use the t-sequence ``t_{i+1} = (1 + sqrt(1 + 4 t_i^2)) / 2`` with
    ``t_0 = 1``; neither carries a residual guarantee for general monotone
    operators, and the first variant can diverge on rotation-like operators.
    """
    names = {"first": "guler1", "second": "guler2"}
    if variant not in names:
        raise ValueError(f"variant must be 'first' or 'second', got {variant!r}")
    return iterate(resolvent, x0, iters, names[variant])


def restarted(resolvent, x0, interval, iters, adaptive=False, R=None):
    """Accelerated method restarted every ``interval`` iterations, or with
    ``interval=None, adaptive=True`` whenever the residual increases: an
    alias of ``iterate(resolvent, x0, iters, "proposed", restart, R)`` with
    ``restart`` the interval or ``"adaptive"``. Exactly one of the two is
    required.

    Each restart re-initializes ``x = y`` at the last iterate, so
    ``interval = 1`` reduces to the proximal point method and
    ``interval >= iters`` reproduces the un-restarted accelerated run.
    """
    if (interval is None) is not bool(adaptive):
        raise ValueError("restarted takes exactly one of an interval and adaptive=True")
    return iterate(resolvent, x0, iters, "proposed", "adaptive" if adaptive else interval, R)


def optimal_restart_interval(lam, mu):
    """Restart interval minimizing the overall linear rate of the operator
    residual: ``round(e / (lam * mu))``, clamped to >= 1."""
    _check_positive(lam, "lam")
    _check_positive(mu, "mu")
    _check_positive(lam * mu, "lam * mu")
    return max(1, round(math.e / (lam * mu)))


def forward_method(operator, beta, y0, iters, variant="plain", restart=None, R=None):
    """Forward iteration ``y_{i+1} = (I - beta*M) y_i`` for a
    beta-cocoercive single-valued ``M``, run by :func:`iterate` with the
    given ``variant``, ``restart`` and ``R``.

    ``I - beta*M`` is then firmly nonexpansive, so it is the resolvent of a
    maximally monotone operator and every rate of the loop applies: with
    ``variant="proposed"`` and ``R`` the distance from ``y0`` to a zero of
    ``M``, the residual ``beta^2 ||M y_{i-1}||^2`` is at most ``R^2/i^2``.
    Cocoercivity is the caller's responsibility; for the Yosida map of
    index ``lam`` with ``beta = lam`` this reproduces the proximal point
    method, since ``J = I - lam * M_lam``.
    """
    _check_positive(beta, "beta")

    def step(y):
        return y - beta * np.asarray(operator(y))

    return iterate(step, y0, iters, variant, restart, R)
