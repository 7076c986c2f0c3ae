"""Worst-case certificate machinery for the accelerated step coefficients.

Builds the step-coefficient table that the accelerated method re-derives
in closed form, the Gram-space constraint matrices of the relaxed
worst-case program, and the analytic dual certificate whose slack matrix
collapses to an exact rank-1 outer product (hence is PSD, giving the
``1/N^2`` residual bound without any SDP solver).

Each consecutive constraint ``A_{i-1,i}`` is nonzero only in rows and
columns ``i-2, i-1``, and ``B_N`` only in row and column ``N-1``. Below
the subdiagonal the weighted sum of the ``A`` is therefore one product
matrix ``a_{k+2} h[k] / 2``, added to row ``k+1`` and subtracted from
row ``k``; only the O(N) diagonal and subdiagonal entries and the
``B_N`` row are formed from the full constraint entries. The result is
bit-identical to summing the dense constraint matrices: every entry
receives the same nonzero terms in the same order.
"""

from dataclasses import dataclass

import numpy as np

from .methods import general_ppm, iterate
from .operators import _min_eigenvalue

__all__ = [
    "CertificateReport",
    "ConstraintMatrices",
    "build_h",
    "build_constraint_matrices",
    "constraint_a",
    "constraint_b",
    "constraint_c",
    "dual_multipliers",
    "certificate_slack",
    "verify_certificate",
    "equivalence_check",
]

RANK1_TOL = 1e-12
EIG_TOL = 1e-10


def build_h(n):
    """Step table ``h[i, k] = -2k/(i(i+1))`` off-diagonal and ``2i/(i+1)``
    on the diagonal, as the float ``(n-1) x (n-1)`` array whose row
    ``i-1`` holds ``h[i, 1..i]``.

    Every row sums to one, and the general method driven by this table
    coincides with the accelerated method.
    """
    if n < 2:
        raise ValueError("horizon must be at least 2")
    idx = np.arange(1, n)
    i, k = idx[:, None], idx[None, :]
    table = np.tril(-2.0 * k / (i * (i + 1)), -1)
    np.fill_diagonal(table, 2.0 * idx / (idx + 1))
    return table


# The constraint matrices are formed entry by entry from the entries of
# their defining vectors. The helpers are generic in the scalar type of the
# step table: a float64 table gives the float matrices, an object array of
# ``Fraction`` entries gives the same matrices in exact arithmetic.

def _zeros(table, shape):
    """Zeros in the scalar type of ``table``."""
    return np.full(shape, table.flat[0] * 0, dtype=table.dtype)


def _unit(table, size, index):
    """Unit vector ``e_index`` in the scalar type of ``table``."""
    e = _zeros(table, size)
    e[index] += 1
    return e


def _span(table, first, stop, size):
    """``sum_k h[l+1, k+1] u_{k+1}`` summed over ``l = first..stop-1``.

    The rows of ``h`` are added in ascending ``l``, each zero-padded to
    ``size``; this is a running sum of table rows, O(size) per row.
    """
    span = _zeros(table, size)
    for l in range(first, stop):
        span[:l + 1] += table[l, :l + 1]
    return span


def _sym_outer(up, uq, vp, vq):
    """Entries ``(p, q)`` of ``(u v' + v u') / 2`` from ``u_p, u_q, v_p, v_q``."""
    return (up * vq + vp * uq) / 2


def _a_entries(dp, dq, sp, sq):
    """Entries ``(p, q)`` of ``A = d d' - (d span' + span d') / 2``.

    ``d`` holds only 0 and +-1, so ``d d'`` equals ``(d d' + d d') / 2``
    bit for bit.
    """
    return dp * dq - _sym_outer(dp, dq, sp, sq)


def _b_entries(up, uq, sp, sq, ep, eq):
    """Entries ``(p, q)`` of ``B = u u' - (u e' + e u') / 2 + (u span' + span u') / 2``."""
    return up * uq - _sym_outer(up, uq, ep, eq) + _sym_outer(up, uq, sp, sq)


def constraint_a(table, n, i, j):
    """Monotonicity constraint matrix for the iterate pair ``(i, j)``, ``i < j``."""
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    d = _unit(table, n + 1, i - 1) - _unit(table, n + 1, j - 1)
    span = _span(table, i - 1, j - 1, n + 1)
    return _a_entries(d[:, None], d, span[:, None], span)


def constraint_b(table, n, i):
    """Monotonicity constraint matrix pairing iterate ``i`` with the solution."""
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= {n}, got {i}")
    u, e = _unit(table, n + 1, i - 1), _unit(table, n + 1, n)
    span = _span(table, 0, i - 1, n + 1)
    return _b_entries(u[:, None], u, span[:, None], span, e[:, None], e)


def constraint_c(n):
    """Initial-distance constraint matrix (1 in the last diagonal entry)."""
    c = np.zeros((n + 1, n + 1))
    c[n, n] = 1.0
    return c


@dataclass
class ConstraintMatrices:
    """Constraint matrices of the Gram-space worst-case program.

    ``A[(i, j)]`` and ``B[i]`` are the monotonicity constraints, for every
    pair ``1 <= i < j <= n`` and every ``1 <= i <= n``; ``C`` is the
    initial-distance constraint. The relaxed program that the analytic
    certificate uses keeps only the consecutive ``A[(i-1, i)]`` plus
    ``B[n]``. The horizon is ``C.shape[0] - 1``.
    """

    A: dict
    B: dict
    C: np.ndarray


def build_constraint_matrices(table, n):
    """Construct the constraint matrices of the worst-case program.

    Parameters
    ----------
    table : ndarray
        Step table of at least ``n - 1`` rows, row ``i-1`` holding
        ``h[i, 1..i]``, as :func:`build_h` returns it.
    n : int
        Number of iterations covered by the program.
    """
    if n < 2:
        raise ValueError("horizon must be at least 2")
    if len(table) + 1 < n:
        raise ValueError("step coefficients cover fewer iterations than requested")
    a = {(i, j): constraint_a(table, n, i, j)
         for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    b = {i: constraint_b(table, n, i) for i in range(1, n + 1)}
    return ConstraintMatrices(a, b, constraint_c(n))


def dual_multipliers(n):
    """Closed-form dual multipliers ``(a_2..a_N, b_N, c)``; all nonnegative."""
    if n < 2:
        raise ValueError("horizon must be at least 2")
    a = {i: 2.0 * (i - 1) * i / (n * n) for i in range(2, n + 1)}
    return a, 2.0 / n, 1.0 / (n * n)


def _assemble_slack(table, a, b_n, c):
    """Slack matrix from the step table and the multipliers, in O(N^2).

    ``A_{k+1,k+2}`` (weight ``w_k = a[k+2]``, ``k = 0..N-2``) has ``d =
    e_k - e_{k+1}`` and ``span = h[k]``, so entry ``(p, q)``, ``q <= p``,
    of ``sum a_i A_{i-1,i}`` receives exactly two terms: row ``p`` of
    ``A_{p,p+1}`` (``k = p-1``), then row ``p`` of ``A_{p+1,p+2}`` (``k =
    p``). Below the subdiagonal ``d_q = 0`` and these terms are
    ``w_{p-1} h[p-1, q] / 2`` and ``-w_p h[p, q] / 2``: one product
    matrix, written to rows ``1..N-1`` and subtracted from rows
    ``0..N-2``. The diagonal and subdiagonal take the full constraint
    entries. ``B_N`` then adds to row ``N-1`` and to entry ``(N, N-1)``.
    Every constraint matrix is symmetric bit for bit, so the upper
    triangle is a copy of the lower one. Every entry receives the same
    nonzero terms, in the same order, as the dense sum of the constraint
    matrices; the skipped terms are zeros.
    """
    n = table.shape[0] + 1
    w = np.array([a[i] for i in range(2, n + 1)], dtype=table.dtype)
    s = _zeros(table, (n + 1, n + 1))
    x = table / 2
    x *= w[:, None]
    s[1:n, :n - 1] = x
    s[:n - 1, :n - 1] -= x
    # The diagonal and subdiagonal take the full entries: row p of the
    # k = p-1 term has d_p = -1 and span_p = 0, that of the k = p term
    # d_p = 1 and span_p = h[p, p].
    zero = _zeros(table, n - 1)
    one, h_diag = zero + 1, np.diagonal(table)
    diag, sub = _zeros(table, n), _zeros(table, n - 1)
    diag[1:] += w * _a_entries(-one, -one, zero, zero)
    diag[:-1] += w * _a_entries(one, one, h_diag, h_diag)
    sub += w * _a_entries(-one, one, zero, h_diag)
    sub[:-1] += w[1:] * _a_entries(one[1:], zero[1:], h_diag[1:], np.diagonal(table, -1))
    np.fill_diagonal(s[:n, :n], diag)
    np.fill_diagonal(s[1:n, :n - 1], sub)
    u, e = _unit(table, n + 1, n - 1), _unit(table, n + 1, n)
    span_n = _zeros(table, n + 1)
    span_n[:n - 1] = np.add.reduce(table, axis=0)
    row = b_n * _b_entries(u[n - 1], u, span_n[n - 1], span_n, e[n - 1], e)
    s[n - 1, :n] += row[:n]
    s[n, n - 1] += row[n]
    s = np.where(np.tri(n + 1, dtype=bool), s, s.T)
    s[n, n] += c
    s[n - 1, n - 1] -= 1
    return s


def certificate_slack(n):
    """Dual slack matrix ``sum a_i A_{i-1,i} + b_N B_N + c C - u_N u_N'``.

    Feasibility of the analytic multipliers is equivalent to this matrix
    being PSD; it factors exactly as a rank-1 outer product.
    """
    a, b_n, c = dual_multipliers(n)
    return _assemble_slack(build_h(n), a, b_n, c)


@dataclass
class CertificateReport:
    """Verification summary for one horizon.

    ``max_rank1_deviation`` is the entrywise gap between the slack matrix
    and its predicted rank-1 factor; ``dual_value`` is the certified
    residual bound ``1/N^2``.
    """

    horizon: int
    max_rank1_deviation: float
    min_eigenvalue: float
    dual_value: float

    @property
    def passed(self):
        return (self.max_rank1_deviation <= RANK1_TOL
                and self.min_eigenvalue >= -EIG_TOL)


def verify_certificate(n):
    """Check the analytic dual certificate at horizon ``n``.

    The slack matrix must match ``r r'`` with ``r = u_N - u_{N+1}/N``
    entrywise within 1e-12 and have minimum eigenvalue above -1e-10;
    the certified dual value is ``1/N^2``. The slack is assembled in
    O(N^2), bit-identical to the sum of the dense constraint matrices.
    ``r`` is nonzero only in its last two entries, so the deviation is
    ``max |S|`` outside the trailing 2x2 block and ``max |S - r r'|``
    inside it, the same float as the dense ``max |S - r r'|``. The one
    O(N^3) step is the tridiagonal reduction of the LAPACK call that
    computes only the smallest eigenvalue (``operators._min_eigenvalue``).
    """
    s = certificate_slack(n)
    r = np.array([1.0, -1.0 / n])
    deviation = float(np.max([np.max(np.abs(s[:n - 1])),
                              np.max(np.abs(s[n - 1:, :n - 1])),
                              np.max(np.abs(s[n - 1:, n - 1:] - np.outer(r, r)))]))
    return CertificateReport(n, deviation, _min_eigenvalue(s), 1.0 / (n * n))


def equivalence_check(resolvent, n, x0):
    """Largest coordinate gap between the general method under ``build_h``
    and the accelerated method, over all iterates of an ``n``-step run."""
    trace_g = general_ppm(resolvent, build_h(n), x0, n)
    trace_a = iterate(resolvent, x0, n, "proposed")
    dev_x = np.max(np.abs(trace_g.xs - trace_a.xs))
    dev_y = np.max(np.abs(trace_g.ys - trace_a.ys))
    return float(max(dev_x, dev_y))
