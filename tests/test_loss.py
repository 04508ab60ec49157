"""Loss-stack tests: hand cases, an exact-LP oracle, and gradient checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import numeric_gradient, rel_error
from icc.errors import NumericError, ShapeError, ZeroMassError
from icc.loss import (
    DMCountLoss,
    TransportProblem,
    counting_loss,
    dense_plan,
    dm_count_loss,
    grid_cost_matrix,
    ot_loss,
    sinkhorn,
    tv_loss,
)


def exact_ot_lp(p, q, c):
    """Brute-force LP solution of the transport problem (independent oracle)."""
    n = len(p)
    a_eq = np.zeros((2 * n, n * n))
    for i in range(n):
        a_eq[i, i * n : (i + 1) * n] = 1.0  # row sums = p
        a_eq[n + i, i::n] = 1.0  # column sums = q
    res = linprog(c.reshape(-1), A_eq=a_eq, b_eq=np.concatenate([p, q]),
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.fun


def random_problem(rng, n, spread=False):
    """Random masses on random planar points; ``spread`` separates supports."""
    pts_p = rng.uniform(0, 1, (n, 2))
    pts_q = rng.uniform(0, 1, (n, 2)) + (np.array([2.0, 2.0]) if spread else 0.0)
    p = rng.dirichlet(np.ones(n))
    q = rng.dirichlet(np.ones(n))
    pts = np.concatenate([pts_p, pts_q])
    d = ((pts_p[:, None, :] - pts_q[None, :, :]) ** 2).sum(-1)
    del pts
    return p, q, d


@st.composite
def grid_problems(draw):
    """(h, w, p masses, q masses, eps / mean cost, iteration cap), zero cells included."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    cell = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    masses = st.lists(cell, min_size=h * w, max_size=h * w).filter(lambda m: sum(m) > 0)
    return (h, w, draw(masses), draw(masses), draw(st.floats(0.01, 1.0)),
            draw(st.integers(1, 300)))


class TestSinkhorn:
    def test_no_transport_needed(self):
        n = 8
        rng = np.random.default_rng(0)
        p = rng.dirichlet(np.ones(n))
        c = grid_cost_matrix(2, 4)
        plan = sinkhorn(TransportProblem(p, p.copy(), c, epsilon=0.01, max_iters=2000))
        assert plan.cost < 0.05

    def test_two_pixel_exact_cost(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        # exact LP by enumeration: all mass must move across, cost 1
        plan = sinkhorn(TransportProblem(p, q, c, epsilon=0.01, max_iters=1000))
        assert abs(plan.cost - 1.0) < 0.05
        assert plan.converged

    def test_marginals_within_tolerance_when_converged(self):
        rng = np.random.default_rng(1)
        for k in range(10):
            n = int(rng.integers(2, 17))
            p, q, c = random_problem(rng, n)
            prob = TransportProblem(p, q, c, epsilon=0.05 * c.mean(),
                                    max_iters=20000, tolerance=1e-8)
            solved = sinkhorn(prob)
            assert solved.converged
            plan = dense_plan(prob, solved)
            assert np.abs(plan.sum(1) - p).sum() <= 1e-8
            assert np.abs(plan.sum(0) - q).sum() <= 1e-8
            assert np.all(plan >= 0)

    @pytest.mark.parametrize("h, w", [(1, 5), (4, 1), (3, 4), (7, 6), (9, 9)])
    def test_grid_dense_plan_meets_marginals_and_prices_at_cost(self, h, w):
        # The grid solve never forms the plan: its cost comes from 1-D passes
        # over the duals. The plan built from those duals must be the same one.
        rng = np.random.default_rng(h * 100 + w)
        p = rng.dirichlet(np.ones(h * w)) * (rng.uniform(size=h * w) > 0.2)
        q = rng.dirichlet(np.ones(h * w)) * (rng.uniform(size=h * w) > 0.2)
        p[0] = q[-1] = 0.5  # both keep some mass
        p, q = p / p.sum(), q / q.sum()
        prob = TransportProblem(p, q, (h, w), epsilon=0.05 * (h * h + w * w - 2) / 6,
                                max_iters=20000, tolerance=1e-9)
        solved = sinkhorn(prob)
        assert solved.converged
        plan = dense_plan(prob, solved)
        assert np.abs(plan.sum(1) - p).sum() <= prob.tolerance
        assert np.abs(plan.sum(0) - q).sum() <= prob.tolerance
        cost = (plan * grid_cost_matrix(h, w)).sum()
        assert abs(cost - solved.cost) <= 1e-12 * cost

    def test_cost_bounded_by_lp_plus_entropic_bias(self):
        rng = np.random.default_rng(2)
        for k in range(10):
            n = int(rng.integers(4, 17))
            p, q, c = random_problem(rng, n)
            eps = 0.01 * np.median(c)
            plan = sinkhorn(TransportProblem(p, q, c, epsilon=eps, max_iters=50000,
                                             tolerance=1e-9))
            lp = exact_ot_lp(p, q, c)
            assert plan.cost >= lp - 1e-7
            assert lp <= plan.cost + eps * n * np.log(max(n, 2))

    @pytest.mark.parametrize("cost", [grid_cost_matrix(1, 3), (1, 3)], ids=["dense", "grid"])
    def test_zero_mass_entries_leave_zero_rows(self, cost):
        p = np.array([0.5, 0.0, 0.5])
        q = np.array([0.25, 0.5, 0.25])
        prob = TransportProblem(p, q, cost, epsilon=0.1, max_iters=5000)
        assert np.all(dense_plan(prob, sinkhorn(prob))[1] == 0.0)

    def test_rejects_bad_epsilon_and_mass(self):
        c = grid_cost_matrix(1, 2)
        with pytest.raises(ValueError, match="epsilon"):
            sinkhorn(TransportProblem(np.array([0.5, 0.5]), np.array([0.5, 0.5]), c, epsilon=0.0))
        with pytest.raises(ZeroMassError):
            sinkhorn(TransportProblem(np.array([0.0, 0.0]), np.array([0.5, 0.5]), c, epsilon=0.1))
        with pytest.raises(ValueError, match="max_iters"):
            sinkhorn(TransportProblem(np.array([0.5, 0.5]), np.array([0.5, 0.5]), c, epsilon=0.1,
                                      max_iters=0))

    @pytest.mark.parametrize("grid", [None, (3, 4)], ids=["dense", "grid"])
    def test_unconverged_is_flagged_not_raised(self, grid):
        rng = np.random.default_rng(3)
        p, q, c = random_problem(rng, 12)
        if grid is not None:
            c = grid_cost_matrix(*grid)
        plan = sinkhorn(TransportProblem(p, q, c if grid is None else grid,
                                         epsilon=1e-4 * c.mean(), max_iters=3, tolerance=1e-12))
        assert not plan.converged
        assert plan.iterations == 3

    @pytest.mark.parametrize("p, q, error", [
        (np.array(1.0), np.array([1.0]), ShapeError),
        (np.array([0.5, np.nan]), np.array([0.5, 0.5]), NumericError),
        (np.array([0.5, 0.5]), np.array([np.inf, 0.0]), NumericError),
        (np.array([0.5, 0.5]), np.array([-np.inf, 1.0]), NumericError),
    ], ids=["0-d", "nan", "inf", "minus-inf"])
    def test_rejects_malformed_marginals(self, p, q, error):
        with pytest.raises(error):
            sinkhorn(TransportProblem(p, q, (1, 2), epsilon=0.1))

    @pytest.mark.parametrize("grid", [(2, 2), (3, 3), (0, 6), (-2, -3)],
                             ids=["too-few-cells", "too-many-cells", "zero-extent",
                                  "negative-extents"])
    def test_grid_must_have_positive_extents_and_n_cells(self, grid):
        p = np.full(6, 1 / 6)
        with pytest.raises(ShapeError, match="grid"):
            sinkhorn(TransportProblem(p, p.copy(), grid, epsilon=0.1))

    @settings(max_examples=60, deadline=None)
    @given(problem=grid_problems())
    @example(problem=(1, 7, [0.0, 0.5, 0.0, 0.0, 1.0, 0.2, 0.0], [0.3, 0.0, 0.0, 0.9, 0.0, 0.0, 0.1],
                      0.01, 300))
    @example(problem=(6, 1, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0, 1.0], 1.0, 1))
    def test_grid_operator_matches_dense(self, problem):
        # Same iterates under the same cap: the separable kernel only
        # reorders the log-sum-exp arithmetic. Tolerance 1e-12 relative:
        # the cost and the potentials (their largest finite magnitude)
        # against the larger of their size and eps, which floors potentials
        # that are all zero; the marginal error, an L1 distance between
        # probability vectors, against the unit total mass.
        h, w, p, q, eps_ratio, cap = problem
        p, q = np.array(p) / sum(p), np.array(q) / sum(q)
        c = grid_cost_matrix(h, w)
        eps = eps_ratio * (c.mean() if h * w > 1 else 1.0)
        dense = sinkhorn(TransportProblem(p, q, c, eps, cap))
        grid = sinkhorn(TransportProblem(p, q, (h, w), eps, cap))
        assert grid.iterations == dense.iterations
        assert grid.converged == dense.converged
        assert abs(grid.marginal_error - dense.marginal_error) <= 1e-12
        assert abs(grid.cost - dense.cost) <= 1e-12 * max(dense.cost, eps)
        for a, b in ((grid.potential_p, dense.potential_p), (grid.potential_q, dense.potential_q)):
            finite = np.isfinite(b)
            assert np.array_equal(np.isfinite(a), finite)
            assert np.all(a[~finite] == -np.inf)
            scale = max(np.abs(b[finite]).max(), eps)
            assert np.abs(a[finite] - b[finite]).max() <= 1e-12 * scale


class TestCountingLoss:
    def test_hand_case(self):
        y = np.array([[5.0]])
        yhat = np.array([[3.0]])
        value, grad = counting_loss(y, yhat)
        assert value == 2.0
        assert np.all(grad == -1.0)

    def test_identical_maps(self):
        y = np.full((3, 3), 0.7)
        value, grad = counting_loss(y, y.copy())
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(4)
        y = rng.uniform(0.1, 1.0, (5, 5))
        yhat = rng.uniform(0.1, 1.0, (5, 5))
        _, grad = counting_loss(y, yhat)
        fd = numeric_gradient(lambda: counting_loss(y, yhat)[0], yhat, h=1e-6)
        assert rel_error(grad, fd) < 1e-4


class TestTVLoss:
    def test_identical_normalized_maps(self):
        rng = np.random.default_rng(5)
        y = rng.uniform(0.1, 1.0, (4, 4))
        value, _ = tv_loss(y, 3.0 * y)
        assert value < 1e-12

    def test_disjoint_supports(self):
        y = np.array([[1.0, 0.0]])
        yhat = np.array([[0.0, 1.0]])
        value, _ = tv_loss(y, yhat)
        assert abs(value - 1.0) < 1e-12

    def test_half_case(self):
        value, _ = tv_loss(np.array([[1.0, 0.0]]), np.array([[1.0, 1.0]]))
        assert abs(value - 0.5) < 1e-12

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(6)
        y = rng.uniform(0.1, 1.0, (4, 4))
        yhat = rng.uniform(0.1, 1.0, (4, 4))
        _, grad = tv_loss(y, yhat)
        fd = numeric_gradient(lambda: tv_loss(y, yhat)[0], yhat, h=1e-7)
        assert rel_error(grad, fd) < 1e-4

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        y = rng.uniform(0.1, 1.0, (4, 4))
        yhat = rng.uniform(0.1, 1.0, (4, 4))
        v1, _ = tv_loss(y, yhat)
        v2, _ = tv_loss(y, 17.3 * yhat)
        assert abs(v1 - v2) < 1e-8


class TestOTLoss:
    def test_self_loss_bounded_by_entropic_bias(self):
        rng = np.random.default_rng(8)
        y = rng.uniform(0.1, 1.0, (5, 5))
        res = ot_loss(y, 2.0 * y, max_iters=5000)
        assert res.value <= 0.05

    def test_strip_shift_costs_one(self):
        # all mass moves exactly one cell: LP cost is 1 by direct argument
        y = np.zeros((1, 8))
        yhat = np.zeros((1, 8))
        y[0, :7] = 1.0
        yhat[0, 1:] = 1.0
        res = ot_loss(y, yhat, epsilon=0.05, max_iters=20000, tolerance=1e-10)
        assert abs(res.value - 1.0) < 0.05

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        y = rng.uniform(0.1, 1.0, (4, 4))
        yhat = rng.uniform(0.1, 1.0, (4, 4))
        a = ot_loss(y, yhat, epsilon=0.5, max_iters=10000, tolerance=1e-10)
        b = ot_loss(y, 3.7 * yhat, epsilon=0.5, max_iters=10000, tolerance=1e-10)
        assert abs(a.value - b.value) < 1e-8

    def test_gradient_vs_finite_differences(self):
        # FD differentiates the entropic objective, the scalar the dual
        # potentials are the exact gradient of (see module docstring)
        rng = np.random.default_rng(10)
        y = rng.uniform(0.1, 1.0, (6, 6))
        yhat = rng.uniform(0.1, 1.0, (6, 6))
        kwargs = dict(epsilon=1.0, max_iters=50000, tolerance=1e-12)
        res = ot_loss(y, yhat, **kwargs)
        fd = numeric_gradient(lambda: ot_loss(y, yhat, **kwargs).entropic_value, yhat, h=1e-5)
        assert rel_error(res.grad, fd) < 1e-3

    def test_peak_memory_is_about_one_plan(self):
        # A grid solve forms no (hw)^2 array, not even the plan: its mass and
        # cost come from the duals, so the peak is a small share of one plan.
        rng = np.random.default_rng(16)
        y = rng.uniform(0.1, 1.0, (32, 32))
        yhat = rng.uniform(0.1, 1.0, (32, 32))
        tracemalloc.start()
        try:
            ot_loss(y, yhat, max_iters=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * (32 * 32) ** 2 * 8

    def test_default_epsilon_is_one_hundredth_of_the_mean_grid_cost(self, monkeypatch):
        class Posed(Exception):
            pass

        def pose(problem):
            raise Posed(problem.epsilon)

        monkeypatch.setattr("icc.loss.sinkhorn", pose)
        for h in range(1, 41):
            for w in range(1, 41):
                with pytest.raises(Posed) as posed:
                    ot_loss(np.ones((h, w)), np.ones((h, w)))
                assert posed.value.args[0] == 0.01 * grid_cost_matrix(h, w).mean(), (h, w)

    def test_nan_map_raises(self):
        # and inf and -inf, in either map, before any loss divides by a mass
        for bad in (np.nan, np.inf, -np.inf):
            for side, name in ((0, "ground-truth"), (1, "predicted")):
                maps = [np.ones((2, 2)), np.ones((2, 2))]
                maps[side][1, 0] = bad
                for loss in (counting_loss, ot_loss, tv_loss, dm_count_loss):
                    with pytest.raises(NumericError, match=f"^{loss.__name__}: {name} map "
                                                           "has a non-finite cell"):
                        loss(*maps)

    def test_zero_mass_prediction_raises(self):
        y = np.ones((2, 2))
        with pytest.raises(ZeroMassError, match="predicted"):
            ot_loss(y, np.zeros((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ot_loss(np.ones((2, 2)), np.ones((2, 3)))


class TestCombinedLoss:
    def test_degenerate_weights_equal_counting(self):
        rng = np.random.default_rng(11)
        y = rng.uniform(0.1, 1.0, (4, 4))
        yhat = rng.uniform(0.1, 1.0, (4, 4))
        res = dm_count_loss(y, yhat, lambda1=0.0, lambda2=0.0)
        assert abs(res.total - counting_loss(y, yhat)[0]) < 1e-12

    def test_two_pixel_hand_case(self):
        y = np.array([[1.0, 0.0]])
        yhat = np.array([[0.0, 1.0]])
        res = dm_count_loss(y, yhat, lambda1=1.0, lambda2=1.0, epsilon=0.01,
                            max_iters=5000)
        # counts match (l_c = 0), TV term = ||y|| * 1 = 1, OT = 1 cell^2 = 1
        assert abs(res.count_term) < 1e-12
        assert abs(res.tv_term - 1.0) < 1e-12
        assert abs(res.ot_term - 1.0) < 0.05
        assert abs(res.total - 2.0) < 0.1

    def test_zero_when_prediction_equals_truth(self):
        rng = np.random.default_rng(12)
        y = rng.uniform(0.1, 1.0, (5, 5))
        res = dm_count_loss(y, y.copy(), max_iters=5000)
        assert res.total <= 0.05

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(13)
        y = rng.uniform(0.1, 1.0, (6, 6))
        yhat = rng.uniform(0.1, 1.0, (6, 6))
        kwargs = dict(lambda1=0.5, lambda2=0.3, epsilon=1.0, max_iters=50000,
                      tolerance=1e-12)
        res = dm_count_loss(y, yhat, **kwargs)
        fd = numeric_gradient(lambda: dm_count_loss(y, yhat, **kwargs).smooth_total,
                              yhat, h=1e-5)
        assert rel_error(res.grad, fd) < 1e-3

    def test_finite_for_positive_inputs(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            y = rng.uniform(1e-4, 2.0, (3, 3))
            yhat = rng.uniform(1e-4, 2.0, (3, 3))
            res = dm_count_loss(y, yhat)
            assert np.isfinite(res.total)
            assert np.all(np.isfinite(res.grad))

    def test_counting_term_not_scale_invariant(self):
        rng = np.random.default_rng(15)
        y = rng.uniform(0.1, 1.0, (3, 3))
        yhat = rng.uniform(0.1, 1.0, (3, 3))
        v1, _ = counting_loss(y, yhat)
        v2, _ = counting_loss(y, 2.0 * yhat)
        assert abs(v1 - v2) > 1e-6


class TestGridCostMatrix:
    def test_symmetric_zero_diagonal(self):
        c = grid_cost_matrix(3, 4)
        assert np.array_equal(c, c.T)
        assert np.all(np.diag(c) == 0.0)

    def test_neighbor_distances(self):
        c = grid_cost_matrix(2, 2)  # cells: (0,0) (0,1) (1,0) (1,1)
        assert c[0, 1] == 1.0 and c[0, 2] == 1.0 and c[0, 3] == 2.0


class TestDebugDump:
    def test_dump_writes_plan_and_potentials(self, tmp_path):
        from icc.data import read_grid

        rng = np.random.default_rng(20)
        y = rng.uniform(0.1, 1.0, (3, 3))
        yhat = rng.uniform(0.1, 1.0, (3, 3))
        prefix = str(tmp_path / "ot_debug")
        res = ot_loss(y, yhat, epsilon=0.5, max_iters=5000,
                      dump_prefix=prefix)
        plan = read_grid(f"{prefix}.plan.iccd")
        assert plan.shape == (9, 9)
        assert abs(plan.sum() - 1.0) < 1e-5
        prob = TransportProblem((y / y.sum()).reshape(-1), (yhat / yhat.sum()).reshape(-1),
                                (3, 3), epsilon=0.5)
        assert np.array_equal(plan, dense_plan(prob, res.plan).astype(np.float32))
        fpot = read_grid(f"{prefix}.potential_p.iccd")
        gpot = read_grid(f"{prefix}.potential_q.iccd")
        assert fpot.shape == (3, 3) and gpot.shape == (3, 3)
        assert np.allclose(gpot, np.where(np.isfinite(res.plan.potential_q), res.plan.potential_q, 0.0).reshape(3, 3), atol=1e-5)
