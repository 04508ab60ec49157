"""Counting, optimal-transport and total-variation losses over density maps.

The transport loss normalizes both maps to probability vectors, prices moving
mass between cells by squared Euclidean distance on the downsampled pixel
grid, and solves the entropically regularized problem with log-domain
Sinkhorn-Knopp scaling. Gradients with respect to the prediction come from
the dual potential of the prediction-side marginal pushed through the
normalization Jacobian.

A problem's cost is either an n x n matrix or the (h, w) of a grid, whose
cost ``C = Dr (+) Dc`` is the sum of two 1-D squared line distances. Each
Sinkhorn half-step applies a log-kernel operator, ``LSE_j(-C_ij/eps + v_j)``,
in the matching form:

- dense, for an arbitrary cost matrix: the reference, O(n^2) per application;
- grid-separable, for a grid (the problem ``ot_loss`` poses): an LSE over
  columns with the w x w 1-D kernel, then one over rows with the h x h
  kernel, O(hw(h+w)). This is the convolutional Wasserstein kernel of
  Solomon et al. (SIGGRAPH 2015). No n x n cost is ever built for a grid:
  the plan is formed from the two 1-D kernels, and ``<pi, C>`` is the plan's
  row-to-row and column-to-column mass priced by ``Dr`` and ``Dc``.

Convergence is tested from the duals, without forming the plan: the row
marginal is ``exp(f/eps + S)``, where S is the LSE the next f-update needs,
and the column marginal reuses the LSE just computed for g. The plan is
formed once, after the loop.

The reported transport value is the plan cost <pi, C>. That pairs with the
dual-potential gradient, which is (up to solver tolerance) the exact gradient
of the entropic objective; the entropic objective itself is exposed on the
results so gradient checks can difference the matching scalar.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError, ZeroMassError

MASS_TOL = 1e-9


@dataclass
class TransportProblem:
    """Entropic OT instance between two probability vectors of equal length.

    ``cost`` is the n x n cost matrix, or the (h, w) of a grid with h * w == n
    whose cost is the squared Euclidean distance between its cells; a grid is
    solved with the separable log-kernel.
    """

    p: np.ndarray
    q: np.ndarray
    cost: np.ndarray | tuple[int, int]
    epsilon: float
    max_iters: int = 200
    tolerance: float = 1e-6

    def validate(self) -> None:
        p, q, c = self.p, self.q, self.cost
        n = p.shape[0]
        if p.ndim != 1 or q.ndim != 1 or q.shape[0] != n:
            raise ShapeError(f"transport: p/q must be equal-length vectors, got {p.shape}, {q.shape}")
        if isinstance(c, tuple):
            h, w = c
            if h < 1 or w < 1 or h * w != n:
                raise ShapeError(f"transport: grid {h}x{w} needs positive extents and {n} cells")
        elif c.shape != (n, n):
            raise ShapeError(f"transport: cost must be {n}x{n}, got {c.shape}")
        elif not np.all(np.isfinite(c)):
            raise NumericError("transport: non-finite cost matrix")
        if self.epsilon <= 0:
            raise ValueError(f"transport: epsilon must be positive, got {self.epsilon}")
        if self.max_iters < 1:
            raise ValueError(f"transport: max_iters must be at least 1, got {self.max_iters}")
        if np.any(p < 0) or np.any(q < 0):
            raise ValueError("transport: marginals must be non-negative")
        if abs(p.sum() - 1.0) > MASS_TOL or abs(q.sum() - 1.0) > MASS_TOL:
            raise ZeroMassError(
                f"transport: marginals must sum to 1 (got {p.sum():.12f}, {q.sum():.12f})"
            )


@dataclass
class TransportPlan:
    plan: np.ndarray
    potential_p: np.ndarray  # dual potential on the first marginal
    potential_q: np.ndarray  # dual potential on the second marginal
    cost: float              # <plan, C>
    entropic_objective: float
    iterations: int
    converged: bool
    marginal_error: float


def _lse(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along ``axis``, shifted by the max.

    An all -inf slice gives -inf (and a divide-by-zero warning unless the
    caller silences it).
    """
    m = a.max(axis=axis, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    return np.log(np.exp(a - m).sum(axis=axis)) + m.squeeze(axis)


def _grid_kernel(h: int, w: int, eps: float):
    """Row and column log-kernel operators v -> LSE_j(-C_ij/eps + v_j) of the
    h x w grid cost, and (u, v) -> (plan, <plan, C>).

    The cost is symmetric, so the same operator serves both half-steps.
    """
    dr, dc = _line_cost(h), _line_cost(w)
    kh, kw = -dr / eps, -dc / eps

    def apply(v: np.ndarray) -> np.ndarray:
        # x[c, b] = LSE_d(v[c, d] + kw[d, b]), then out[a, b] = LSE_c(kh[c, a] +
        # x[c, b]). Both reduce the leading axis, which numpy reduces several
        # times faster than an inner one at these sizes.
        x = _lse(v.reshape(h, w).T[:, :, None] + kw[:, None, :], axis=0)
        return _lse(kh[:, :, None] + x[:, None, :], axis=0).reshape(-1)

    def plan_cost(u: np.ndarray, v: np.ndarray):
        # plan[a, b, c, d] = exp(kh[a, c] + kw[b, d] + u[a, b] + v[c, d]) in one
        # buffer; <plan, C> prices row-to-row mass by dr, column-to-column by dc
        plan4 = np.add(kh[:, None, :, None], kw[None, :, None, :])
        plan = plan4.reshape(h * w, h * w)
        plan += u[:, None]
        plan += v
        np.exp(plan, out=plan)
        cost = (plan4.sum(axis=(1, 3)) * dr).sum() + (plan4.sum(axis=(0, 2)) * dc).sum()
        return plan, float(cost)

    return apply, apply, plan_cost


def _dense_kernel(c: np.ndarray, eps: float):
    """Row and column log-kernel operators of an arbitrary cost, and
    (u, v) -> (plan, <plan, C>)."""
    neg_c = -c / eps

    def plan_cost(u: np.ndarray, v: np.ndarray):
        plan = np.exp(neg_c + u[:, None] + v)
        return plan, float((plan * c).sum())

    return (lambda v: _lse(neg_c + v, axis=1),
            lambda u: _lse(neg_c + u[:, None], axis=0),
            plan_cost)


def sinkhorn(problem: TransportProblem) -> TransportPlan:
    """Log-domain Sinkhorn-Knopp scaling for the entropic transport problem.

    Runs until both marginal L1 errors drop below the problem tolerance or
    ``max_iters`` is exhausted; the latter returns ``converged=False`` rather
    than raising. Zero entries in p or q are handled exactly (their rows and
    columns of the plan are zero). The loop carries the scaled duals
    u = f/eps and v = g/eps.
    """
    problem.validate()
    p = problem.p.astype(np.float64)
    q = problem.q.astype(np.float64)
    eps = float(problem.epsilon)
    if isinstance(problem.cost, tuple):
        row_lse, col_lse, plan_cost = _grid_kernel(*problem.cost, eps)
    else:
        row_lse, col_lse, plan_cost = _dense_kernel(problem.cost.astype(np.float64), eps)

    # log(0) = -inf is meant: zero-mass cells and empty grid rows
    with np.errstate(divide="ignore"):
        logp = np.log(p)
        logq = np.log(q)
        v = np.where(q > 0, 0.0, -np.inf)
        s = row_lse(v)
        for it in range(1, problem.max_iters + 1):
            u = logp - s
            t = col_lse(u)
            v = logq - t
            s = row_lse(v)
            # row sums of the plan are exp(u + s), column sums exp(v + t)
            err = max(
                np.abs(np.exp(u + s) - p).sum(),
                np.abs(np.exp(v + t) - q).sum(),
            )
            if err <= problem.tolerance:
                break

    plan, cost = plan_cost(u, v)
    f, g = eps * u, eps * v
    fp = np.where(np.isfinite(f), f, 0.0)
    gq = np.where(np.isfinite(g), g, 0.0)
    entropic = float(fp @ p + gq @ q - eps * plan.sum())
    return TransportPlan(
        plan=plan,
        potential_p=f,
        potential_q=g,
        cost=cost,
        entropic_objective=entropic,
        iterations=it,
        converged=bool(err <= problem.tolerance),
        marginal_error=float(err),
    )


def grid_cost_matrix(h: int, w: int, dtype=np.float64) -> np.ndarray:
    """Squared Euclidean distance between all cell pairs of an h x w grid.

    Cells are indexed row-major; coordinates are the integer (row, col) of
    each cell, i.e. one unit is one downsampled-grid step.
    """
    dr, dc = _line_cost(h).astype(dtype), _line_cost(w).astype(dtype)
    return (dr[:, None, :, None] + dc[None, :, None, :]).reshape(h * w, h * w)


def _line_cost(n: int) -> np.ndarray:
    """Squared distances between the n cells of one grid row or column."""
    return np.square(np.subtract.outer(np.arange(n), np.arange(n)))


def _as_map(x) -> np.ndarray:
    arr = np.asarray(getattr(x, "values", x), dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"density map must be 2-D, got shape {arr.shape}")
    return arr


def _check_same_shape(y: np.ndarray, yhat: np.ndarray) -> None:
    if y.shape != yhat.shape:
        raise ShapeError(f"density maps differ in shape: {y.shape} vs {yhat.shape}")


def counting_loss(y, yhat) -> tuple[float, np.ndarray]:
    """|count(y) - count(yhat)| and its subgradient w.r.t. yhat."""
    y, yhat = _as_map(y), _as_map(yhat)
    _check_same_shape(y, yhat)
    diff = yhat.sum() - y.sum()
    grad = np.full_like(yhat, np.sign(diff))
    return float(abs(diff)), grad


@dataclass
class OTLossResult:
    value: float              # <plan, C> under normalized marginals
    grad: np.ndarray          # d(entropic objective)/d(yhat)
    entropic_value: float     # scalar the gradient differentiates
    plan: TransportPlan = field(repr=False)


def ot_loss(
    y,
    yhat,
    epsilon: float | None = None,
    max_iters: int = 200,
    tolerance: float = 1e-6,
    dump_prefix: str | None = None,
) -> OTLossResult:
    """Transport loss between normalized density maps on their pixel grid.

    ``epsilon`` defaults to 0.01 * the mean grid cost. Raises
    ZeroMassError when either map has no mass. With ``dump_prefix`` the
    solved plan and both dual potentials are written as density-map files
    (``<prefix>.plan.iccd``, ``<prefix>.potential_p.iccd``,
    ``<prefix>.potential_q.iccd``) for inspection.
    """
    y, yhat = _as_map(y), _as_map(yhat)
    _check_same_shape(y, yhat)
    sy, syh = y.sum(), yhat.sum()
    if sy <= 0:
        raise ZeroMassError("ot_loss: ground-truth map has zero mass")
    if syh <= 0:
        raise ZeroMassError("ot_loss: predicted map has zero mass")
    h, w = y.shape
    if epsilon is None:
        # 0.01 x the mean grid cost; each axis adds (n^2 - 1) / 6, and the
        # exact integer quotient rounds as the dense matrix's mean does
        epsilon = 0.01 * ((h * h + w * w - 2) / 6)
    problem = TransportProblem(
        p=(y / sy).reshape(-1),
        q=(yhat / syh).reshape(-1),
        cost=(h, w),
        epsilon=epsilon,
        max_iters=max_iters,
        tolerance=tolerance,
    )
    plan = sinkhorn(problem)
    g = np.where(np.isfinite(plan.potential_q), plan.potential_q, 0.0)
    qvec = problem.q
    grad = ((g - g @ qvec) / syh).reshape(y.shape)
    if dump_prefix is not None:
        from .data import write_density

        f = np.where(np.isfinite(plan.potential_p), plan.potential_p, 0.0)
        write_density(f"{dump_prefix}.plan.iccd", plan.plan.astype(np.float32))
        write_density(f"{dump_prefix}.potential_p.iccd", f.reshape(y.shape).astype(np.float32))
        write_density(f"{dump_prefix}.potential_q.iccd", g.reshape(y.shape).astype(np.float32))
    return OTLossResult(
        value=plan.cost,
        grad=grad,
        entropic_value=plan.entropic_objective,
        plan=plan,
    )


def tv_loss(y, yhat) -> tuple[float, np.ndarray]:
    """Half the L1 distance between the normalized maps, with subgradient."""
    y, yhat = _as_map(y), _as_map(yhat)
    _check_same_shape(y, yhat)
    sy, syh = y.sum(), yhat.sum()
    if sy <= 0:
        raise ZeroMassError("tv_loss: ground-truth map has zero mass")
    if syh <= 0:
        raise ZeroMassError("tv_loss: predicted map has zero mass")
    a = y / sy - yhat / syh
    value = 0.5 * np.abs(a).sum()
    s = np.sign(a)
    q = yhat / syh
    grad = -(s - (s * q).sum()) / (2.0 * syh)
    return float(value), grad


@dataclass
class DMCountLoss:
    total: float
    grad: np.ndarray
    count_term: float
    ot_term: float            # <plan, C>
    tv_term: float
    smooth_total: float       # total with the entropic OT scalar the gradient differentiates
    iterations: int           # of the Sinkhorn solve
    converged: bool
    marginal_error: float


def dm_count_loss(
    y,
    yhat,
    lambda1: float = 0.1,
    lambda2: float = 0.01,
    epsilon: float | None = None,
    max_iters: int = 200,
    tolerance: float = 1e-6,
) -> DMCountLoss:
    """Combined loss: counting + lambda1 * OT + lambda2 * ||y||_1 * TV."""
    y, yhat = _as_map(y), _as_map(yhat)
    lc, gc = counting_loss(y, yhat)
    ot = ot_loss(y, yhat, epsilon=epsilon, max_iters=max_iters, tolerance=tolerance)
    ltv, gtv = tv_loss(y, yhat)
    ymass = float(y.sum())
    grad = gc + lambda1 * ot.grad + lambda2 * ymass * gtv
    return DMCountLoss(
        total=float(lc + lambda1 * ot.value + lambda2 * ymass * ltv),
        grad=grad,
        count_term=lc,
        ot_term=ot.value,
        tv_term=ltv,
        smooth_total=float(lc + lambda1 * ot.entropic_value + lambda2 * ymass * ltv),
        iterations=ot.plan.iterations,
        converged=ot.plan.converged,
        marginal_error=ot.plan.marginal_error,
    )
