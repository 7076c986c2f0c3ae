"""Accelerated splitting methods derived from the proximal point family:
the saddle-point solver, the proximal method of multipliers, PDHG,
Douglas-Rachford, and ADMM, plus the proximal building blocks they need.

Each engine is a step on a stacked point run by the shared momentum loop
:func:`proxpoint.methods.iterate`, and each takes that loop's calling
convention: ``engine(*problem, *start, iters, variant, restart, R)``, with
any further argument keyword-only (ADMM takes only the variants
``"plain"`` and ``"proposed"``). Subproblems without a closed form stop at
``INNER_TOL`` relative to their scale or fail at ``INNER_MAX_ITERS``.
They return a :class:`~proxpoint.methods.ResidualTrace` with squared
fixed-point residuals (preconditioned for PDHG), constraint
infeasibility for ADMM, and saddle gaps when a saddle point is supplied.
"""

import math
from dataclasses import dataclass

import numpy as np

from .methods import iterate
from .operators import (InnerSolverError, _check_nonnegative, _check_positive, _factor,
                        as_vector, saddle_resolvent_map)

__all__ = [
    "ProxDescriptor",
    "AffineConstraint",
    "soft_threshold",
    "operator_norm",
    "fista_strongly_convex",
    "accelerated_saddle_ppm",
    "accelerated_prox_multipliers",
    "pdhg",
    "drs",
    "admm",
]

# Mapping-norm tolerance, relative to the subproblem scale, and iteration
# cap of the FISTA runs that solve the l1 subproblems.
INNER_TOL = 1e-10
INNER_MAX_ITERS = 5000


def soft_threshold(z, tau):
    """Elementwise shrinkage ``max(|z| - tau, 0) * sign(z)``."""
    _check_nonnegative(tau, "tau")
    z = np.asarray(z, dtype=float)
    return np.maximum(np.abs(z) - tau, 0.0) * np.sign(z)


def operator_norm(k):
    """Largest singular value of ``k``: the square root of the largest
    eigenvalue of the smaller Gram matrix, ``k k'`` for a wide or square
    ``k`` and ``k'k`` for a tall one. Empty input gives 0.0."""
    k = np.asarray(k, dtype=float)
    if k.size == 0:
        return 0.0
    gram = k @ k.T if k.shape[0] <= k.shape[1] else k.T @ k
    return math.sqrt(np.linalg.eigvalsh(gram)[-1])


class ProxDescriptor:
    """Description of a proximable convex function.

    Kinds: ``l1`` (``weight * ||x||_1``), ``quadratic``
    (``||H x - b||^2 / 2``), ``linear`` (``a'x``), and ``zero``. Exposes
    ``prox``; quadratic prox factorizations are cached per step size.
    """

    def __init__(self, kind, dim, weight=None, h=None, b=None, a=None):
        if kind not in ("l1", "quadratic", "linear", "zero"):
            raise ValueError(f"unknown prox kind {kind!r}")
        self.kind = kind
        self.dim = int(dim)
        if kind == "l1":
            self.weight = _check_nonnegative(weight, "weight")
        elif kind == "quadratic":
            self.h = np.asarray(h, dtype=float)
            if self.h.ndim != 2 or self.h.shape[1] != self.dim:
                raise ValueError("quadratic matrix shape disagrees with dim")
            self.b = as_vector(b) if b is not None else np.zeros(self.h.shape[0])
            if self.b.size != self.h.shape[0]:
                raise ValueError("quadratic offset shape disagrees with matrix")
        elif kind == "linear":
            self.a = as_vector(a)
            if self.a.size != self.dim:
                raise ValueError("linear term shape disagrees with dim")
        self._prox_solvers = {}

    @classmethod
    def l1(cls, dim, weight=1.0):
        return cls("l1", dim, weight=weight)

    @classmethod
    def quadratic(cls, h, b=None):
        h = np.asarray(h, dtype=float)
        return cls("quadratic", h.shape[1], h=h, b=b)

    @classmethod
    def linear(cls, a):
        a = as_vector(a)
        return cls("linear", a.size, a=a)

    @classmethod
    def zero(cls, dim):
        return cls("zero", dim)

    def prox(self, w, t):
        """``argmin_x f(x) + ||x - w||^2 / (2 t)``."""
        _check_positive(t, "t")
        w = as_vector(w)
        if self.kind == "zero":
            return w
        if self.kind == "linear":
            return w - t * self.a
        if self.kind == "l1":
            return soft_threshold(w, t * self.weight)
        solve = self._prox_solvers.get(t)
        if solve is None:
            solve = _factor(np.eye(self.dim) + t * (self.h.T @ self.h))
            self._prox_solvers[t] = solve
        return solve(w + t * (self.h.T @ self.b))


@dataclass
class AffineConstraint:
    """Coupling constraint ``A x + B z = c``."""

    A: np.ndarray
    B: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        self.c = as_vector(self.c)
        if self.A.shape[0] != self.B.shape[0] or self.A.shape[0] != self.c.size:
            raise ValueError("constraint row dimensions disagree")

    def residual(self, x, z):
        return self.A @ x + self.B @ z - self.c


def fista_strongly_convex(quadratic_part, l1_weight, x_init, tol=INNER_TOL,
                          max_iters=INNER_MAX_ITERS):
    """Constant-momentum proximal gradient for
    ``x'Qx/2 + q'x + l1_weight * ||x||_1`` with ``Q >= m I``.

    Parameters
    ----------
    quadratic_part : tuple ``(Q, q, m, L)``
        Smooth quadratic, its strong convexity ``m > 0`` and gradient
        Lipschitz constant ``L >= m``.
    l1_weight : float
        Nonnegative l1 weight.
    x_init : array_like
        Warm start.
    tol : float
        Stop once the prox-gradient mapping norm drops to ``tol``.
    max_iters : int
        Iteration cap.

    Returns
    -------
    ndarray

    Raises
    ------
    InnerSolverError
        If the cap is hit first; carries the best mapping norm reached.
    """
    q_mat, q_vec, m, big_l = quadratic_part
    q_mat = np.asarray(q_mat, dtype=float)
    q_vec = as_vector(q_vec)
    if not (m > 0 and big_l >= m):
        raise ValueError("need strong convexity 0 < m <= L")
    _check_positive(tol, "tol")
    if max_iters < 0:
        raise ValueError("iteration cap must be nonnegative")
    theta = (np.sqrt(big_l) - np.sqrt(m)) / (np.sqrt(big_l) + np.sqrt(m))
    step = 1.0 / big_l
    x = as_vector(x_init).copy()
    y = x.copy()
    best = np.inf
    # max_iters steps take max_iters + 1 mapping evaluations; the last one
    # checks the final iterate.
    for k in range(max_iters + 1):
        grad_x = q_mat @ x + q_vec
        mapping = big_l * (x - soft_threshold(x - step * grad_x, step * l1_weight))
        norm = np.linalg.norm(mapping)
        best = min(best, norm)
        if norm <= tol:
            return x
        if k == max_iters:
            raise InnerSolverError("inner solver cap hit", best, tol)
        x_next = soft_threshold(y - step * (q_mat @ y + q_vec), step * l1_weight)
        y = x_next + theta * (x_next - x)
        x = x_next


def _subproblem(f, q_mat, warm, spectrum):
    """``solve(q) = argmin_x f(x) + x'Qx/2 + q'x`` for the fixed ``Q =
    q_mat``, the one subproblem rule of the splitting engines.

    A quadratic, linear or zero ``f`` adds its own quadratic and linear
    terms, so ``solve`` is one solve with a matrix factored here. An l1
    ``f`` runs strongly convex FISTA warm-started at the previous solution
    (first at ``warm``), with ``(m, L) = spectrum()`` bounding the
    spectrum of ``Q``; ``spectrum`` is called here and may raise
    ``ValueError`` when ``Q`` is not positive definite.
    """
    if f.kind == "l1":
        m, big_l = spectrum()

        def solve(q):
            nonlocal warm
            # Tolerance relative to the subproblem scale: the mapping-norm
            # floor in double precision grows with ||q||, so an absolute
            # tolerance is unattainable once iterates are large.
            tol = INNER_TOL * max(1.0, float(np.linalg.norm(q)))
            warm = fista_strongly_convex((q_mat, q, m, big_l), f.weight, warm,
                                         tol=tol, max_iters=INNER_MAX_ITERS)
            return warm

        return solve
    if f.kind == "quadratic":
        q_mat, q_f = q_mat + f.h.T @ f.h, f.h.T @ f.b
    elif f.kind == "linear":
        q_f = -f.a
    elif f.kind == "zero":
        q_f = 0.0
    else:
        raise ValueError(f"unsupported prox kind {f.kind!r}")
    solve_system = _factor(q_mat)
    return lambda q: solve_system(q_f - q)


def accelerated_saddle_ppm(phi, lam, u0, v0, iters, variant="proposed",
                           restart=None, R=None, *, saddle=None):
    """Proximal point method on a convex-concave saddle function, with the
    accelerated update applied to the stacked iterates.

    Parameters
    ----------
    phi : QuadraticSaddle
    lam : float
        Positive regularization constant.
    u0, v0 : array_like
        Starting primal and dual points.
    iters : int
    variant, restart
        As for :func:`~proxpoint.methods.iterate`.
    R : float, optional
        Known initial distance to a saddle; fills the bound column.
    saddle : tuple, optional
        Known saddle point ``(u*, v*)``; fills the gap column
        ``phi(u_i, v*) - phi(u*, v_i)``.
    """
    resolvent = saddle_resolvent_map(phi, lam)
    x0 = np.concatenate([as_vector(u0), as_vector(v0)])
    trace = iterate(resolvent, x0, iters, variant, restart, R)
    if saddle is not None:
        trace.gaps = phi.gaps(*saddle, trace.xs[1:])
    return trace


def accelerated_prox_multipliers(f, a_mat, b, lam, u0, v0, iters, variant="proposed",
                                 restart=None, R=None):
    """Accelerated proximal method of multipliers for
    ``min f(u) s.t. A u = b``.

    The primal update minimizes the Lagrangian at the extrapolated dual
    point plus the augmented term ``lam ||A u - b||^2 / 2`` and the
    proximal term ``||u - u_hat||^2 / (2 lam)``. That is the subproblem
    ``f(u) + u'Qu/2 + q'u`` with ``Q = lam A'A + I/lam``, solved by the
    rule ADMM's updates share: one linear solve for quadratic, linear or
    zero ``f``, and a warm-started strongly convex FISTA run for l1 ``f``.
    The stacked iterate is
    ``x_{i+1} = (u_{i+1}, v_hat_i + lam (A u_{i+1} - b))``.
    """
    _check_positive(lam, "lam")
    a_mat = np.asarray(a_mat, dtype=float)
    b = as_vector(b)
    d1 = a_mat.shape[1]
    if f.dim != d1 or b.size != a_mat.shape[0]:
        raise ValueError("dimensions of f, A, b disagree")
    lam_atb = lam * (a_mat.T @ b)
    solve_u = _subproblem(
        f, lam * (a_mat.T @ a_mat) + np.eye(d1) / lam, u0,
        lambda: (1.0 / lam, lam * operator_norm(a_mat) ** 2 + 1.0 / lam))

    def step(y):
        u_hat, v_hat = y[:d1], y[d1:]
        u = solve_u(a_mat.T @ v_hat - lam_atb - u_hat / lam)
        v = v_hat + lam * (a_mat @ u - b)
        return np.concatenate([u, v])

    x0 = np.concatenate([as_vector(u0), as_vector(v0)])
    return iterate(step, x0, iters, variant, restart, R)


def pdhg(f, g, k, tau, sigma, u0, v0, iters, variant="proposed", restart=None,
         R=None, *, norm_k=None):
    """Primal-dual hybrid gradient method with the accelerated update.

    Requires ``tau * sigma * ||K||^2 < 1``, which makes the underlying
    preconditioner positive definite; ``||K||`` is ``norm_k`` when given
    and is otherwise :func:`operator_norm`. Residuals are measured in
    the preconditioned norm
    ``<P d, d> = ||du||^2/tau - 2 <K du, dv> + ||dv||^2/sigma``.
    ``R``, when given, is the preconditioned initial distance.
    """
    k = np.asarray(k, dtype=float)
    _check_positive(tau, "tau")
    _check_positive(sigma, "sigma")
    if norm_k is None:
        norm_k = operator_norm(k)
    if tau * sigma * norm_k ** 2 >= 1.0:
        raise ValueError(
            f"need tau*sigma*||K||^2 < 1, got {tau * sigma * norm_k ** 2:.6g}")
    d2, d1 = k.shape
    if f.dim != d1 or g.dim != d2:
        raise ValueError("prox dimensions disagree with K")

    def step(y):
        u_hat, v_hat = y[:d1], y[d1:]
        u = f.prox(u_hat - tau * (k.T @ v_hat), tau)
        v = g.prox(v_hat + sigma * (k @ (2.0 * u - u_hat)), sigma)
        return np.concatenate([u, v])

    def residual_sq(x_new, y):
        du, dv = x_new[:d1] - y[:d1], x_new[d1:] - y[d1:]
        return float(du @ du / tau - 2.0 * (dv @ (k @ du)) + dv @ dv / sigma)

    x0 = np.concatenate([as_vector(u0), as_vector(v0)])
    return iterate(step, x0, iters, variant, restart, R, residual_sq=residual_sq)


def drs(resolvent1, resolvent2, rho, nu0, iters, variant="proposed", restart=None,
        R=None):
    """Douglas-Rachford splitting with the accelerated update.

    ``resolvent1`` and ``resolvent2`` must be the resolvents of
    ``rho * M1`` and ``rho * M2``; one step applies
    ``G = J1(2 J2 - I) + (I - J2)``, itself the resolvent of a maximally
    monotone operator, so every proximal point rate applies verbatim.
    """
    _check_positive(rho, "rho")

    # The resolvents validate their inputs, and the residual catches a
    # non-finite output, so the outputs are not scanned again here. Only
    # when J1 refuses its input is J2's output checked: a non-finite one
    # is a divergence, not a bad argument.
    def step(eta):
        j2 = np.asarray(resolvent2(eta), dtype=float)
        try:
            j1 = resolvent1(2.0 * j2 - eta)
        except Exception as exc:
            if np.isfinite(j2).all():
                raise
            raise FloatingPointError("non-finite output of resolvent2") from exc
        return np.asarray(j1, dtype=float) + eta - j2

    return iterate(step, nu0, iters, variant, restart, R)


def _admm_x_solver(f, constraint, rho):
    a = constraint.A
    ata = a.T @ a

    def spectrum():
        eigs = np.linalg.eigvalsh(ata)
        # A rank-deficient A leaves a rounding-level smallest eigenvalue, of
        # either sign, rather than an exact zero.
        if eigs[0] <= ata.shape[0] * np.finfo(float).eps * eigs[-1]:
            raise ValueError("l1 x-subproblem needs A'A positive definite")
        return rho * float(eigs[0]), rho * float(eigs[-1])

    solve = _subproblem(f, rho * ata, np.zeros(a.shape[1]), spectrum)
    return lambda nu_hat, z: solve(
        a.T @ (nu_hat - rho * (constraint.c - constraint.B @ z)))


def _admm_z_solver(g, constraint, rho):
    b = constraint.B
    eye = np.eye(b.shape[0])
    if g.kind == "l1" and (np.array_equal(b, eye) or np.array_equal(b, -eye)):
        # B = +-I: the z-update is one soft-thresholding.
        sign = 1.0 if np.array_equal(b, eye) else -1.0
        return lambda eta_hat, x: soft_threshold(
            sign * (constraint.c - constraint.A @ x - eta_hat / rho), g.weight / rho)

    def spectrum():
        raise ValueError("l1 z-subproblem requires B = I or B = -I")

    solve = _subproblem(g, rho * (b.T @ b), np.zeros(b.shape[1]), spectrum)
    return lambda eta_hat, x: solve(
        b.T @ (eta_hat - rho * (constraint.c - constraint.A @ x)))


def admm(f, g, constraint, rho, x0, z0, nu0, iters, variant="proposed", restart=None,
         R=None):
    """Alternating direction method of multipliers: ``variant`` is
    ``"plain"`` or the accelerated ``"proposed"``, and any other raises
    ``ValueError``.

    ADMM is Douglas-Rachford splitting on the dual inclusion. One step
    maps the stacked point ``(nu_hat_i, z_i, x_{i+1})`` to ``(nu_hat_{i+1},
    z_{i+1}, x_{i+2})``: the z-update at the given point, the dual ascent
    step, then the x-update minimizing the augmented Lagrangian at the new
    ``nu_hat``. The affine map ``(nu_hat, x) -> nu_hat + rho (A x - c)``
    takes this point to the dual Douglas-Rachford iterate, so extrapolating
    it is the accelerated Douglas-Rachford update (plain ADMM never
    extrapolates); no step reads the extrapolated ``z``. Record ``i`` holds
    the infeasibility ``||A x_{i+1} + B z_i - c||^2``, which an adaptive
    restart tests, and its ``rho^2`` multiple, the fixed-point residual of
    the underlying splitting iteration.

    Both updates are subproblems ``f(x) + x'Qx/2 + q'x`` with ``Q = rho
    A'A`` (``rho B'B`` and ``g`` for z), solved by the rule the proximal
    method of multipliers' primal update uses: one linear solve for
    quadratic, linear or zero functions, and a warm-started strongly
    convex FISTA run for l1 ``f``, which needs ``A'A`` positive definite.
    An l1 ``g`` needs ``B = I`` or ``B = -I`` and is one soft-thresholding.

    Returns a trace whose ``iterates`` hold ``x`` (rows ``x_0 ..
    x_{iters+1}``), ``z``, ``nu_hat`` and ``eta_hat``, the multiplier
    with ``eta_hat_i + rho (A x_{i+1} - c)`` equal to the extrapolated
    dual point (``eta_hat = nu_hat`` on plain runs).
    """
    _check_positive(rho, "rho")
    if variant not in ("plain", "proposed"):
        raise ValueError(f"ADMM takes variant 'plain' or 'proposed', got {variant!r}")
    solve_x = _admm_x_solver(f, constraint, rho)
    solve_z = _admm_z_solver(g, constraint, rho)
    x0, z0, nu0 = as_vector(x0), as_vector(z0), as_vector(nu0)
    # Column ranges of the stacked point: nu_hat [:d2], z [d2:dx], x [dx:].
    d2 = nu0.size
    dx = d2 + z0.size

    def step(s):
        nu_hat, x = s[:d2], s[dx:]
        z = solve_z(nu_hat, x)
        nu_hat = nu_hat + rho * constraint.residual(x, z)
        return np.concatenate([nu_hat, z, solve_x(nu_hat, z)])

    def infeasibility(s_new, s):
        viol = constraint.residual(s_new[dx:], s_new[d2:dx])
        return float(viol @ viol)

    start = np.concatenate([nu0, z0, solve_x(nu0, z0)])
    trace = iterate(step, start, iters, variant, restart, R, residual_sq=infeasibility)
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = rho * rho * trace.residuals
    overflow = np.flatnonzero(~np.isfinite(residuals))
    if overflow.size:
        raise FloatingPointError(
            f"non-finite residual or iterate at iteration {overflow[0] + 1}")
    trace.infeasibility, trace.residuals = trace.residuals, residuals
    xs, ys = trace.xs, trace.ys
    trace.iterates.update(
        x=np.vstack([x0, xs[:, dx:]]), z=xs[:, d2:dx], nu_hat=xs[:, :d2],
        eta_hat=ys[:, :d2] + rho * (ys[:, dx:] - xs[:-1, dx:]) @ constraint.A.T)
    return trace
