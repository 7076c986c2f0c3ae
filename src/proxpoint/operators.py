"""Dense monotone-operator abstractions: resolvents, preconditioned and
saddle resolvents, and Yosida regularization.

Everything here acts on finite-dimensional real coordinate vectors
(1-D float ndarrays). Operators are plain square matrices; an operator
``M`` is monotone exactly when its symmetric part is positive
semidefinite, and mu-strongly monotone when that part dominates
``mu * I``.
"""

import ctypes
import functools
import importlib.util
import math
import os
import threading
from importlib.machinery import PathFinder

import numpy as np

__all__ = [
    "SingularSystemError",
    "InnerSolverError",
    "DenseLinearOperator",
    "QuadraticSaddle",
    "as_vector",
    "linear_resolvent",
    "preconditioned_resolvent_map",
    "saddle_resolvent_map",
    "yosida",
]

# Pivots below this are treated as a singular resolvent system.
PIVOT_TOL = 1e-14
# Largest entrywise asymmetry accepted in a matrix that must be symmetric.
SYMMETRY_TOL = 1e-12
# Rows per block of ``QuadraticSaddle.gaps``.
_GAP_BLOCK = 256


class SingularSystemError(RuntimeError):
    """A resolvent linear system is numerically singular.

    For ``lam > 0`` this cannot happen with a monotone operator, so it
    usually signals a non-monotone input.
    """


class InnerSolverError(RuntimeError):
    """An inner iterative solver hit its iteration cap before reaching
    its tolerance. Carries the best mapping norm achieved."""

    def __init__(self, message, achieved, tol):
        super().__init__(f"{message} (achieved {achieved:.3e}, wanted {tol:.3e})")
        self.achieved = achieved
        self.tol = tol


def as_vector(x):
    """Coerce ``x`` to a finite 1-D float array (a float64 vector is
    returned as is, without a copy)."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        v = np.atleast_1d(v)
        if v.ndim != 1:
            raise ValueError(f"expected a vector, got shape {v.shape}")
    # A non-finite entry makes the sum of squares inf or nan; finite entries
    # whose squares overflow reach the entrywise scan and pass it. ``vdot``
    # is the same BLAS dot as ``v.dot(v)`` without its overflow warning.
    if not math.isfinite(np.vdot(v, v)) and not np.isfinite(v).all():
        raise ValueError("vector has non-finite entries")
    return v


def _check_positive(lam, name="lambda"):
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"{name} must be a positive real, got {lam!r}")
    return float(lam)


def _check_nonnegative(value, name):
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a nonnegative real, got {value!r}")
    return float(value)


def _square_matrix(entries, name="operator"):
    m = np.asarray(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"{name} must be a nonempty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def _entries(op):
    """Matrix of ``op``, accepting either an ndarray or an operator object."""
    return op.entries if hasattr(op, "entries") else _square_matrix(op)


class DenseLinearOperator:
    """Square real matrix used as a single-valued operator ``x -> M x``."""

    def __init__(self, entries):
        self.entries = _square_matrix(entries)

    def __call__(self, x):
        return self.entries @ as_vector(x)


@functools.cache
def _flapack():
    """scipy's compiled LAPACK module ``scipy/linalg/_flapack*.so``, loaded once.

    Only the extension file is loaded, as ``proxpoint._flapack``: neither
    ``scipy/__init__.py`` nor the ``scipy.linalg`` package runs (about
    0.3 s and 28 MB per process), and no ``scipy`` module is registered.
    """
    scipy_spec = PathFinder.find_spec("scipy")
    spec = scipy_spec and PathFinder.find_spec(
        "proxpoint._flapack",
        [os.path.join(d, "linalg") for d in scipy_spec.submodule_search_locations])
    if spec is None:
        raise ImportError("proxpoint needs scipy: its compiled LAPACK module "
                          "scipy.linalg._flapack was not found")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _factor(system):
    """Factor ``system`` once and return ``solve(rhs)`` for ``system x = rhs``.

    The factors come from LAPACK ``dgetrf`` and every solve is one
    ``dgetrs`` on them, both called directly on scipy's compiled module.
    These are the routines ``scipy.linalg.lu_factor`` and ``lu_solve``
    reach for a float64 system after their per-call argument handling,
    so the results are bit-identical to them. ``rhs`` is never
    overwritten.
    """
    lapack = _flapack()
    lu, piv, info = lapack.dgetrf(system)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    # Also catches an exactly zero pivot, which getrf reports as info > 0.
    if np.min(np.abs(np.diag(lu))) < PIVOT_TOL:
        raise SingularSystemError(
            "resolvent system is singular to working precision; "
            "the operator is likely not monotone")
    getrs = lapack.dgetrs

    def solve(rhs):
        x, info = getrs(lu, piv, rhs)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of getrs")
        return x

    return solve


@functools.cache
def _blas_thread_setter():
    """``openblas_set_num_threads_local`` of the OpenBLAS that ``_flapack``
    links, or ``None`` when that LAPACK is not OpenBLAS (MKL, Accelerate).

    The symbol is looked up through the extension's own handle, so it is
    found in that module's dependencies only: in the scipy wheel that is
    ``scipy.libs/libscipy_openblas-*.so``, not numpy's 64-bit build. It
    sets the process-wide thread count and returns the previous one.
    """
    try:
        setter = ctypes.CDLL(_flapack().__file__).openblas_set_num_threads_local
    except (OSError, AttributeError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


# Serializes the pin below: ctypes calls release the GIL, so two callers
# interleaving set(1)/restore would leave the process on one thread.
_BLAS_THREAD_LOCK = threading.Lock()


def _min_eigenvalue(matrix):
    """Smallest eigenvalue of the symmetric ``matrix``, from its lower triangle.

    One LAPACK ``dsyevr`` call with ``range="I", il=iu=1`` on scipy's
    compiled module: it reduces ``matrix`` to tridiagonal form as
    ``eigvalsh`` does, then bisects for the one eigenvalue instead of
    computing all of them. Raises ``ArithmeticError`` when LAPACK reports
    a failure or returns no eigenvalue.

    Where that LAPACK is OpenBLAS, the call runs on one thread and then
    restores the count it found, also on failure: on the few-hundred-row
    matrices passed here a second thread mostly spin-waits, and its split
    of the reduction moves the last bits of the result with the count.
    """
    set_threads = _blas_thread_setter()
    with _BLAS_THREAD_LOCK:
        previous = set_threads and set_threads(1)
        try:
            w, _, found, _, info = _flapack().dsyevr(matrix, compute_v=0, range="I",
                                                    lower=1, il=1, iu=1)
        finally:
            if previous:
                set_threads(previous)
    if info != 0 or found < 1:
        raise ArithmeticError(f"dsyevr failed to find the smallest eigenvalue (info={info})")
    return float(w[0])


def linear_resolvent(op, lam):
    """Resolvent ``J = (I + lam*M)^{-1}`` of a dense linear operator.

    The system matrix is factored once (dense LU with partial
    pivoting) and reused by every application, so the returned callable
    is cheap inside iteration loops.

    Parameters
    ----------
    op : DenseLinearOperator or square ndarray
    lam : float
        Positive step constant.

    Returns
    -------
    callable
        ``y -> x`` solving ``(I + lam*M) x = y``.

    Raises
    ------
    SingularSystemError
        If the factorization meets a pivot below ``PIVOT_TOL``.
    """
    lam = _check_positive(lam)
    m = _entries(op)
    solve = _factor(np.eye(m.shape[0]) + lam * m)

    def apply(y):
        return solve(as_vector(y))

    return apply


def preconditioned_resolvent_map(op, precond, lam):
    """Preconditioned resolvent ``y -> (P + lam*M)^{-1} P y``, factored once;
    ``precond`` is ``P``, a symmetric positive-definite matrix."""
    lam = _check_positive(lam)
    p = _square_matrix(precond, name="preconditioner")
    if np.max(np.abs(p - p.T)) > SYMMETRY_TOL:
        raise ValueError("preconditioner must be symmetric")
    if _min_eigenvalue(0.5 * (p + p.T)) <= 0:
        raise ValueError("preconditioner must be positive definite")
    m = _entries(op)
    if m.shape != p.shape:
        raise ValueError("operator and preconditioner dimensions differ")
    solve = _factor(p + lam * m)

    def apply(y):
        return solve(p @ as_vector(y))

    return apply


class QuadraticSaddle:
    """Convex-concave quadratic ``phi(u, v) = u'Quu u/2 + a'u + v'K u
    - v'Qvv v/2 - b'v``.

    ``Quu`` and ``Qvv`` must be symmetric positive semidefinite so that
    ``phi`` is convex in ``u`` and concave in ``v``.
    """

    PSD_TOL = 1e-10

    def __init__(self, q_uu, k, q_vv, a=None, b=None):
        self.q_uu = _square_matrix(q_uu, name="Quu")
        self.q_vv = _square_matrix(q_vv, name="Qvv")
        self.k = np.asarray(k, dtype=float)
        if self.k.ndim != 2:
            raise ValueError("coupling matrix K must be 2-D")
        d1, d2 = self.q_uu.shape[0], self.q_vv.shape[0]
        if self.k.shape != (d2, d1):
            raise ValueError(f"K must have shape ({d2}, {d1}), got {self.k.shape}")
        for name, q in (("Quu", self.q_uu), ("Qvv", self.q_vv)):
            if np.max(np.abs(q - q.T)) > SYMMETRY_TOL:
                raise ValueError(f"{name} must be symmetric")
            if _min_eigenvalue(q) < -self.PSD_TOL:
                raise ValueError(f"{name} must be positive semidefinite")
        self.a = np.zeros(d1) if a is None else as_vector(a)
        self.b = np.zeros(d2) if b is None else as_vector(b)
        if self.a.size != d1 or self.b.size != d2:
            raise ValueError("linear term dimensions disagree with the blocks")

    def gaps(self, u_star, v_star, xs):
        """``phi(u, v*) - phi(u*, v)`` for each row ``(u, v) = (x[:d1], x[d1:])``
        of ``xs``: the saddle gaps of stacked iterates, nonnegative at a saddle.

        The terms that depend only on ``(u*, v*)`` are computed once, the
        others in the left-to-right order of the formula for ``phi``. Rows
        are taken ``_GAP_BLOCK`` at a time as ``(1, d)`` and ``(d, 1)``
        stacks, on which ``matmul`` runs the BLAS dot and gemv of the 1-D
        products, so each gap is bit-identical to evaluating ``phi`` twice
        and subtracting. The rows are not validated: they must be finite.
        """
        u_star, v_star = as_vector(u_star), as_vector(v_star)
        q_uu, q_vv, k, a, b = self.q_uu, self.q_vv, self.k, self.a[None], self.b[None]
        d1 = q_uu.shape[0]
        # phi(u, v*) subtracts its last two terms one at a time, and
        # phi(u*, v) adds its first two before any iterate term.
        vqv_star = 0.5 * v_star @ (q_vv @ v_star)
        bv_star = self.b @ v_star
        head_u_star = 0.5 * u_star @ (q_uu @ u_star) + self.a @ u_star
        k_u_star, v_star = (k @ u_star)[:, None], v_star[None]
        out = np.empty(len(xs))
        for lo in range(0, len(xs), _GAP_BLOCK):
            rows = xs[lo:lo + _GAP_BLOCK, None]
            u, v = rows[..., :d1], rows[..., d1:]
            u_col, v_col = u.transpose(0, 2, 1), v.transpose(0, 2, 1)
            at_v_star = (0.5 * u @ (q_uu @ u_col) + a @ u_col + v_star @ (k @ u_col)
                         - vqv_star - bv_star)
            at_u_star = head_u_star + v @ k_u_star - 0.5 * v @ (q_vv @ v_col) - b @ v_col
            out[lo:lo + len(rows)] = (at_v_star - at_u_star).ravel()
        return out

    def stacked_operator(self):
        """Saddle subdifferential as ``(matrix, constant shift)``.

        The operator is ``(u, v) -> [[Quu, K'], [-K, Qvv]] (u, v) + (a, b)``,
        which is monotone because its symmetric part is ``diag(Quu, Qvv)``.
        """
        top = np.hstack([self.q_uu, self.k.T])
        bottom = np.hstack([-self.k, self.q_vv])
        return np.vstack([top, bottom]), np.concatenate([self.a, self.b])


def saddle_resolvent_map(phi, lam):
    """Resolvent of the saddle subdifferential, acting on stacked ``(u, v)``.

    Solves ``(I + lam*T) x = y - lam*(a, b)`` with ``T`` the linear part of
    the saddle operator; the factorization is reused across calls.
    """
    lam = _check_positive(lam)
    m, shift = phi.stacked_operator()
    solve = _factor(np.eye(len(m)) + lam * m)
    offset = lam * shift

    def apply(y):
        return solve(as_vector(y) - offset)

    return apply


def yosida(resolvent, lam):
    """Yosida regularization ``(I - J)/lam`` of the operator behind ``resolvent``.

    ``resolvent`` must be the resolvent of ``lam*M``; the returned map is then
    lam-cocoercive and satisfies ``J(y) = y - lam * M_lam(y)`` exactly.
    """
    lam = _check_positive(lam)

    def apply(y):
        y = as_vector(y)
        return (y - resolvent(y)) / lam

    return apply
