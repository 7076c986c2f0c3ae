"""Benchmark instance generators with a pinned, portable random source.

Instances regenerate bit-identically from ``(parameters, seed)``: the
generator is a splitmix-style 64-bit PRNG with Box-Muller normals, so the
same data can be reproduced outside Python.
"""

import numpy as np

from .operators import DenseLinearOperator, QuadraticSaddle, _check_positive

__all__ = [
    "SplitMix64",
    "rotation_worst_case",
    "strongly_monotone_toy",
    "toy_saddle",
    "difference_matrix",
    "basis_pursuit_instance",
    "basis_pursuit_solution",
    "bilinear_game_instance",
    "tv_instance",
    "tv_solution",
    "PRESETS",
]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TO_UNIT = 2.0 ** -53
# Word pairs per block of SplitMix64.normals: 2^15 pairs keep its
# temporaries near 3 MB whatever the draw.
_NORMAL_BLOCK = 1 << 15


class SplitMix64:
    """splitmix64 stream with Box-Muller standard normals.

    The k-th raw word is ``mix(seed + k * golden)`` over wrapping uint64
    arithmetic, so batches of any size are reproducible and cheap to
    vectorize.
    """

    def __init__(self, seed):
        self._state = np.uint64(int(seed) % (1 << 64))

    def integers(self, n):
        """Next ``n`` raw 64-bit words."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        steps = np.arange(1, n + 1, dtype=np.uint64)
        z = self._state + steps * _GOLDEN
        # Scalar state advance in Python ints: numpy warns on scalar wraparound.
        self._state = np.uint64((int(self._state) + n * int(_GOLDEN)) % (1 << 64))
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))

    def uniforms(self, n):
        """``n`` doubles in ``[0, 1)`` with 53 random bits each."""
        return (self.integers(n) >> np.uint64(11)).astype(np.float64) * _TO_UNIT

    def normals(self, n):
        """``n`` standard normals via Box-Muller on consecutive word pairs.

        The values are Box-Muller applied to ``integers(2 * ((n + 1) // 2))``,
        the second normal of the last pair dropped when ``n`` is odd. The
        pairs are drawn and transformed in blocks of ``_NORMAL_BLOCK``,
        straight into the output, so the temporaries stay at block size;
        the blocks change no value and no word of the stream.
        """
        pairs = (n + 1) // 2
        out = np.empty(2 * pairs)
        for lo in range(0, pairs, _NORMAL_BLOCK):
            hi = min(lo + _NORMAL_BLOCK, pairs)
            bits = self.integers(2 * (hi - lo))
            u1 = ((bits[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _TO_UNIT
            u2 = (bits[1::2] >> np.uint64(11)).astype(np.float64) * _TO_UNIT
            radius = np.sqrt(-2.0 * np.log(u1))
            angle = 2.0 * np.pi * u2
            out[2 * lo:2 * hi:2] = radius * np.cos(angle)
            out[2 * lo + 1:2 * hi:2] = radius * np.sin(angle)
        return out[:n]

    def normal_matrix(self, rows, cols):
        return self.normals(rows * cols).reshape(rows, cols)

    def integers_below(self, bound, n):
        """``n`` integers uniform on ``0..bound-1`` (by scaling, adequate here)."""
        return np.minimum((self.uniforms(n) * bound).astype(int), bound - 1)


def rotation_worst_case(n, lam=1.0):
    """Scaled rotation ``(1/(lam sqrt(n-1))) [[0, 1], [-1, 0]]``.

    The worst-case operator on which the proximal point method attains
    its residual bound exactly; skew-symmetric, hence monotone with zero
    modulus, with unique zero at the origin. The canonical start is
    ``[1, 0]``.
    """
    if n < 2:
        raise ValueError("horizon must be at least 2")
    _check_positive(lam, "lam")
    s = 1.0 / (lam * np.sqrt(n - 1.0))
    return DenseLinearOperator([[0.0, s], [-s, 0.0]])


def strongly_monotone_toy(n, lam=1.0, mu=0.02):
    """Rotation worst case shifted by ``mu * I``; mu-strongly monotone
    with zero at the origin, combining the two known extremal behaviors."""
    _check_positive(mu, "mu")
    m = rotation_worst_case(n, lam).entries + mu * np.eye(2)
    return DenseLinearOperator(m)


def toy_saddle(n, lam=1.0, mu=0.02):
    """Saddle function whose subdifferential is :func:`strongly_monotone_toy`:
    ``phi(u, v) = mu u^2/2 + s u v - mu v^2/2`` with ``s = 1/(lam sqrt(n-1))``,
    read off that operator's matrix ``[[mu, s], [-s, mu]]``."""
    m = strongly_monotone_toy(n, lam, mu).entries
    return QuadraticSaddle(m[:1, :1], m[:1, 1:], m[1:, 1:])


def difference_matrix(d1):
    """Bidiagonal first-difference matrix of shape ``(d1 - 1, d1)``."""
    if d1 < 2:
        raise ValueError("need d1 >= 2")
    d = np.zeros((d1 - 1, d1))
    idx = np.arange(d1 - 1)
    d[idx, idx] = 1.0
    d[idx, idx + 1] = -1.0
    return d


def _percentile90(values):
    """90th percentile of ``values`` by numpy's default linear rule.

    The result is bit for bit ``np.quantile(values, 0.9)``, which would
    import ``numpy.ma`` (about 11 ms per process) for this one number.
    """
    n = values.size
    pos = (n - 1) * 0.9
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    part = np.partition(values, (lo, hi))
    a, b = part[lo], part[hi]
    g = pos - lo
    # numpy's _lerp: from the lower point below g = 0.5, from the upper one above.
    return a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)


def basis_pursuit_instance(d1, d2, seed):
    """Random feasible basis pursuit data ``{A, b, u_true}``.

    ``A`` is standard normal ``d2 x d1``; ``u_true`` keeps only the
    entries at or above the 90th percentile of ``|value|`` (about one in
    ten); ``b = A u_true`` so the constraint is feasible by construction.
    """
    if not d2 < d1:
        raise ValueError("need d2 < d1")
    rng = SplitMix64(seed)
    a = rng.normal_matrix(d2, d1)
    raw = rng.normals(d1)
    threshold = _percentile90(np.abs(raw))
    u_true = np.where(np.abs(raw) >= threshold, raw, 0.0)
    return {"A": a, "b": a @ u_true, "u_true": u_true}


# Pivot, optimality and zero-level tolerance inside the simplex method.
_SIMPLEX_TOL = 1e-11
# Relative tolerance of the optimality gates on the basis pursuit solution.
BP_KKT_TOL = 1e-9


def _simplex(e, c, b, basis, max_iters):
    """Revised simplex method with Bland's rule for ``min c'x s.t. E x = b,
    x >= 0``, started from the feasible basis ``basis`` (column indices in
    row order, updated in place).

    Bland's rule (Bland 1977) enters the lowest-indexed column with a
    negative reduced cost and, among the rows tied in the ratio test, lets
    the lowest-indexed basic column leave; in exact arithmetic it never
    cycles. Returns the optimal basis. Raises ``ArithmeticError`` when the
    LP is unbounded or ``max_iters`` pivots do not reach an optimum.
    """
    for _ in range(max_iters):
        b_inv = np.linalg.inv(e[:, basis])
        x_b = b_inv @ b
        # Exact zeros make the degenerate ties of the ratio test exact.
        x_b[x_b < _SIMPLEX_TOL] = 0.0
        reduced = c - (c[basis] @ b_inv) @ e
        reduced[basis] = 0.0
        entering = np.flatnonzero(reduced < -_SIMPLEX_TOL)
        if entering.size == 0:
            return basis
        w = b_inv @ e[:, entering[0]]
        rows = np.flatnonzero(w > _SIMPLEX_TOL)
        if rows.size == 0:
            raise ArithmeticError("linear program is unbounded")
        ratios = x_b[rows] / w[rows]
        ties = rows[ratios == ratios.min()]
        basis[ties[np.argmin([basis[r] for r in ties])]] = int(entering[0])
    raise ArithmeticError(f"simplex method did not terminate in {max_iters} pivots")


def basis_pursuit_solution(a, b):
    """Solution ``(u*, v*)`` of ``min ||u||_1 s.t. A u = b`` and its
    multiplier, from the linear program ``min 1'(p + q) s.t. A (p - q) =
    b, p, q >= 0``.

    ``v*`` follows the Lagrangian ``||u||_1 + <v, A u - b>``, so ``A'v*``
    lies in ``-d||u*||_1``; ``(u*, v*)`` is then a fixed point of the
    proximal method of multipliers.

    A two-phase dense simplex method with Bland's rule finds an optimal
    basis ``B`` (phase one from artificial columns ``sign(b_i) e_i``,
    phase two from the basis phase one leaves); ``x_B = B^-1 b`` and ``v*
    = -B^-T 1`` are then recomputed from the original data. On a
    degenerate vertex (fewer than ``m`` nonzeros in ``u*``) the multiplier
    is not unique: ``v*`` is the one of the basis found, a valid fixed
    point whose distance from the start still bounds the rate.

    Raises ``ArithmeticError`` when the LP is infeasible, when ``A`` does
    not have full row rank, when the simplex method does not terminate,
    or when the result fails one of the optimality gates (relative
    tolerance ``BP_KKT_TOL``): ``A u* = b``, ``||A'v*||_inf <= 1``,
    ``(A'v*)_j = -sign(u*_j)`` on the support, and zero duality gap.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    e = np.hstack([a, -a])
    e1 = np.hstack([e, np.diag(np.where(b < 0.0, -1.0, 1.0))])
    max_iters = 10 * (m + 2 * n)
    # Phase one: minimize the artificials' sum from x_art = |b|.
    basis = _simplex(e1, np.concatenate([np.zeros(2 * n), np.ones(m)]), b,
                     list(range(2 * n, 2 * n + m)), max_iters)
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    artificial = np.array(basis) >= 2 * n
    if artificial.any():
        x_art = np.linalg.solve(e1[:, basis], b)[artificial]
        if np.abs(x_art).sum() > BP_KKT_TOL * scale:
            raise ArithmeticError("basis pursuit LP is infeasible")
        # At a phase-one optimum the sum w of the artificial rows of B^-1
        # gives column j the reduced cost -w'E_j >= 0. Columns come in
        # pairs +-a_j, so w'a_j = 0 for every j: w'A = 0 with w != 0.
        raise ArithmeticError("basis pursuit A does not have full row rank")
    basis = _simplex(e, np.ones(2 * n), b, basis, max_iters)
    b_mat = e[:, basis]
    x = np.zeros(2 * n)
    # A degenerate basic entry may come out a rounding-level negative.
    x[basis] = np.maximum(np.linalg.solve(b_mat, b), 0.0)
    u = x[:n] - x[n:]
    v = -np.linalg.solve(b_mat.T, np.ones(m))
    slope = a.T @ v
    support = u != 0.0
    l1 = float(np.abs(u).sum())
    gates = {
        "A u* = b": np.max(np.abs(a @ u - b), initial=0.0) <= BP_KKT_TOL * scale,
        "|A'v*| <= 1": np.max(np.abs(slope)) <= 1.0 + BP_KKT_TOL,
        "A'v* = -sign(u*) on the support": np.all(
            np.abs(slope[support] + np.sign(u[support])) <= BP_KKT_TOL),
        "zero duality gap": abs(l1 + float(b @ v)) <= BP_KKT_TOL * max(1.0, l1),
    }
    failed = [name for name, ok in gates.items() if not ok]
    if failed:
        raise ArithmeticError(
            f"basis pursuit solution fails its optimality gates: {', '.join(failed)}")
    return u, v


def bilinear_game_instance(d1, d2, seed):
    """Bilinear game ``min_u max_v a'u + <K u, v> - b'v`` with a planted
    saddle point.

    Returns ``{K, a, b, u_star, v_star}``: ``K`` (d2 x d1), ``u_star``
    and ``v_star`` are standard normal, and ``a = -K'v_star``, ``b = K
    u_star``, so ``(u_star + null K) x {v_star}`` is the saddle set by
    construction.
    """
    if d1 < 1 or d2 < 1:
        raise ValueError("dimensions must be positive")
    rng = SplitMix64(seed)
    k = rng.normal_matrix(d2, d1)
    u_star = rng.normals(d1)
    v_star = rng.normals(d2)
    return {"K": k, "a": -(k.T @ v_star), "b": k @ u_star,
            "u_star": u_star, "v_star": v_star}


def tv_instance(d1, p, seed, noise_scale=0.1):
    """Total-variation least-squares data ``{H, b, x_true, D}``.

    ``x_true`` is piecewise constant with five pieces (four distinct
    random breakpoints), so ``D x_true`` has at most four nonzeros;
    ``H`` is standard normal ``p x d1`` and ``b = H x_true +
    noise_scale * noise``.
    """
    if d1 < 2 or p < 1:
        raise ValueError("need d1 >= 2 and p >= 1")
    rng = SplitMix64(seed)
    pieces = 5
    breaks = []
    while len(breaks) < min(pieces - 1, d1 - 1):
        candidate = int(rng.integers_below(d1 - 1, 1)[0]) + 1
        if candidate not in breaks:
            breaks.append(candidate)
    edges = [0] + sorted(breaks) + [d1]
    # Piece levels at scale 5 so the data term dominates the regularizer
    # at the experiment's gamma and rho.
    levels = 5.0 * rng.normals(len(edges) - 1)
    x_true = np.concatenate([np.full(hi - lo, level)
                             for lo, hi, level in zip(edges[:-1], edges[1:], levels)])
    h = rng.normal_matrix(p, d1)
    noise = rng.normals(p)
    b = h @ x_true + noise_scale * noise
    return {"H": h, "b": b, "x_true": x_true, "D": difference_matrix(d1)}


def _nnls(e, f, max_iters):
    """Lawson-Hanson active-set solve of ``min ||E w - f|| s.t. w >= 0``.

    Returns ``w``. Raises ``ArithmeticError`` when the passive set has not
    settled after ``max_iters`` additions: the method terminates in exact
    arithmetic, but rounding can make it cycle.
    """
    m = e.shape[1]
    w = np.zeros(m)
    passive = np.zeros(m, dtype=bool)
    tol = 10.0 * np.finfo(float).eps * np.abs(e).sum(axis=0).max() * max(e.shape)
    for _ in range(max_iters):
        grad = e.T @ (f - e @ w)
        grad[passive] = 0.0
        j = int(np.argmax(grad))
        if grad[j] <= tol:
            return w
        passive[j] = True
        for _ in range(m):
            s = np.zeros(m)
            s[passive] = np.linalg.lstsq(e[:, passive], f, rcond=None)[0]
            blocked = passive & (s <= 0.0)
            if not blocked.any():
                w = s
                break
            # Step from w toward s until the first passive entry hits zero.
            alpha = np.min(w[blocked] / (w[blocked] - s[blocked]))
            w = w + alpha * (s - w)
            passive &= w > tol
            w[~passive] = 0.0
    raise ArithmeticError(f"NNLS did not terminate in {max_iters} iterations")


# Relative tolerance of the KKT gates on the TV least-squares solution.
TV_KKT_TOL = 1e-9


def tv_solution(h, b, gamma):
    """Unique solution ``x*`` of ``min ||H x - b||^2/2 + gamma ||D x||_1``
    (``D`` the first-difference matrix) and its multiplier ``nu*``.

    ``nu*`` follows the Lagrangian of ``z = D x``, so ``H'(H x* - b) + D'nu*
    = 0`` and ``nu*`` lies in ``gamma d||D x*||_1``; ``(x*, D x*, nu*)`` is
    then a fixed point of ADMM on the split ``D x - z = 0``.

    The residual ``u = b - H x*`` is the projection of ``b`` onto ``{u :
    (H 1)'u = 0, ||C u||_inf <= gamma}`` with ``C = (D D')^-1 D H'``, the
    generalized-lasso dual (Tibshirani and Taylor 2011), whose ``p - 1``
    free coordinates make it a small least-distance program. Its active
    constraints, found by NNLS, give the breaks ``S`` of ``x*`` and the
    signs ``sigma`` of ``D x*`` there; the ``|S| + 1`` piece levels then
    solve ``M'H'(H M theta - b) + gamma M'D'sigma = 0`` exactly.

    Raises ``ArithmeticError`` when the pieces do not determine ``x*``
    uniquely, when NNLS does not terminate, or when the result fails one
    of the KKT gates (relative tolerance ``TV_KKT_TOL``): stationarity,
    ``nu*_S = gamma sigma``, ``|nu*_j| <= gamma`` off ``S``, and ``sigma
    (D x*)_S >= 0``.
    """
    h = np.asarray(h, dtype=float)
    b = np.asarray(b, dtype=float)
    p, d1 = h.shape
    d = difference_matrix(d1)
    ddt = d @ d.T
    c_mat = np.linalg.solve(ddt, d @ h.T)
    # Orthonormal basis of the plane (H 1)'u = 0, then the least-distance
    # program min ||w|| s.t. G w >= g in w = q'(u - b) / s, by Lawson-Hanson.
    # u = 0 is feasible, so s = ||q'b|| bounds the distance, and unit rows
    # keep NNLS's tolerance meaningful even when gamma is small.
    q = np.linalg.qr(h.sum(axis=1)[:, None], mode="complete")[0][:, 1:]
    qb = q.T @ b
    cq = c_mat @ q
    shift = cq @ qb
    g_mat = np.vstack([-cq, cq])
    g_vec = np.concatenate([shift - gamma, -shift - gamma])
    rows = np.linalg.norm(g_mat, axis=1)
    rows[rows == 0.0] = 1.0
    e = np.vstack([g_mat.T, g_vec / (np.linalg.norm(qb) or 1.0)]) / rows
    f = np.zeros(p)
    f[-1] = 1.0
    lam = _nnls(e, f, max_iters=3 * e.shape[1])
    # A multiplier on nu_j <= gamma is a rising break (D x)_j > 0, one on
    # nu_j >= -gamma a falling one.
    m2 = d1 - 1
    sigma = np.zeros(m2)
    sigma[lam[:m2] > 0.0] = 1.0
    sigma[lam[m2:] > 0.0] = -1.0
    support = sigma != 0.0
    pieces = np.concatenate([[0], np.cumsum(support)])
    basis = (pieces[:, None] == np.arange(pieces[-1] + 1)).astype(float)
    hm = h @ basis
    if np.linalg.matrix_rank(hm) < hm.shape[1]:
        raise ArithmeticError(
            f"TV solution not unique: {int(support.sum())} breaks and p={p}")
    theta = np.linalg.solve(hm.T @ hm, hm.T @ b - gamma * (basis.T @ (d.T @ sigma)))
    x = basis @ theta
    grad = h.T @ (h @ x - b)
    nu = -np.linalg.solve(ddt, d @ grad)
    jumps = d @ x
    scale = TV_KKT_TOL * max(1.0, gamma)
    gates = {
        "stationarity": np.max(np.abs(grad + d.T @ nu))
        <= TV_KKT_TOL * max(1.0, np.max(np.abs(h.T @ b))),
        "nu_S = gamma sigma": np.all(np.abs(nu[support] - gamma * sigma[support]) <= scale),
        "|nu| <= gamma off S": np.all(np.abs(nu[~support]) <= gamma + scale),
        "sign consistency": np.all(sigma[support] * jumps[support] >= 0.0),
    }
    failed = [name for name, ok in gates.items() if not ok]
    if failed:
        raise ArithmeticError(f"TV solution fails its KKT gates: {', '.join(failed)}")
    return x, nu


# Named experiment setups: full-scale figure presets plus desk-scale
# variants small enough for CI.
PRESETS = {
    "fig1": {"n": 100, "lam": 1.0, "iters": 100},
    "fig2": {"n": 100, "lam": 1.0, "mu": 0.02, "iters": 200, "restarts": (17, 34, 68, 136)},
    "fig3": {"d1": 100, "d2": 20, "lam": 0.01, "iters": 100, "seed": 1, "restarts": (30,)},
    "fig4": {"d1": 1000, "d2": 500, "iters": 100, "seed": 1, "step_fraction": 0.99,
             "restarts": (10,)},
    "fig5": {"d1": 100, "p": 5, "gamma": 3.0, "rho": 0.05, "iters": 500, "seed": 1,
             "noise_scale": 0.1, "restarts": (20,)},
    "fig3-desk": {"d1": 40, "d2": 10, "lam": 0.01, "iters": 60, "seed": 1, "restarts": (30,)},
    "fig4-desk": {"d1": 50, "d2": 25, "iters": 100, "seed": 1, "step_fraction": 0.99,
                  "restarts": (10,)},
    "fig5-desk": {"d1": 40, "p": 5, "gamma": 3.0, "rho": 0.05, "iters": 100, "seed": 1,
                  "noise_scale": 0.1, "restarts": (20,)},
}
