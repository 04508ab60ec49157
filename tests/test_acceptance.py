"""Acceptance suite: one test per criterion, each printing a pass line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
Criterion 7 trains 30 epochs on synthetic data and dominates the runtime
(several minutes on a desktop CPU); everything else finishes in seconds.
"""

import time

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import numeric_gradient, rel_error
from icc import data as D
from icc import loss as L
from icc import model as M
from icc import tensor as T
from icc import train as TR
from icc.flops import count_conv, count_graph, factorization_savings, gformat

PUBLISHED_TOTAL = 125.53e9


def announce(criterion: int, message: str) -> None:
    print(f"\n[criterion {criterion}] PASS — {message}")


def test_criterion_1_flop_golden_cases():
    t0 = time.perf_counter()
    standard = sum(count_conv(3, 64, 3, 3, 2, 2))
    factorized = sum(count_conv(3, 1, 1, 1, 4, 4)) + sum(count_conv(1, 64, 3, 3, 2, 2))
    assert standard == 13568
    assert factorized == 4432
    ratio = factorization_savings(3, 3, 64, 4, 4)
    assert abs(ratio - 0.673) <= 0.005
    announce(1, f"13,568 / 4,432 ops exact; savings {ratio:.4f} "
                f"({(time.perf_counter() - t0) * 1e3:.1f} ms)")


def test_criterion_2_full_model_complexity():
    t0 = time.perf_counter()
    graph = M.build_icc(M.ModelConfig())
    report = count_graph(graph, (3, 1080, 1920))
    # every layer is enumerated, so deviations are auditable
    assert len(report.layers) == len(graph.layers)
    assert all(l.total >= 0 for l in report.layers)
    # The published complexity column is in fused multiply-accumulate units
    # (verified by reproducing the competitor rows; see test_flops and the
    # analyzer docstring). One multiply per inner-product term is the
    # commensurate figure; the mul+add grand total is printed alongside.
    deviation = (report.total_multiplies - PUBLISHED_TOTAL) / PUBLISHED_TOTAL
    assert abs(deviation) <= 0.15
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(2, f"{gformat(report.total_multiplies)} fused-MAC vs 125.53 G "
                f"({deviation:+.1%}); mul+add total {gformat(report.total_ops)}; "
                f"{len(report.layers)} layers enumerated ({elapsed:.2f} s)")


def _exact_lp(p, q, c):
    n = len(p)
    a_eq = np.zeros((2 * n, n * n))
    for i in range(n):
        a_eq[i, i * n : (i + 1) * n] = 1.0
        a_eq[n + i, i::n] = 1.0
    res = linprog(c.reshape(-1), A_eq=a_eq, b_eq=np.concatenate([p, q]),
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.fun


def test_criterion_3_sinkhorn_vs_lp_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_gap = 0.0
    solved = 0
    for trial in range(60):
        n = int(rng.integers(2, 17))
        kind = trial % 3
        if kind == 0:  # well-separated supports
            pp = rng.uniform(0, 1, (n, 2))
            qq = rng.uniform(0, 1, (n, 2)) + 2.0
        elif kind == 1:  # perturbed common cloud
            pp = rng.uniform(0, 1, (n, 2))
            qq = pp + rng.normal(0, 0.35, (n, 2))
        else:  # integer grid cells (the density-map geometry)
            side = int(np.ceil(np.sqrt(n)))
            pp = qq = np.array(
                [(i, j) for i in range(side) for j in range(side)], dtype=float
            )[:n]
        c = ((pp[:, None, :] - qq[None, :, :]) ** 2).sum(-1)
        if np.median(c) <= 0:
            continue
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        plan = L.sinkhorn(L.TransportProblem(p, q, c, epsilon=0.01 * float(np.median(c)),
                                             max_iters=200_000, tolerance=1e-6))
        assert plan.converged
        assert plan.marginal_error <= 1e-6
        lp = _exact_lp(p, q, c)
        # feasibility is off by at most the marginal tolerance, which moves
        # the cost by at most tol * max cost
        assert plan.cost >= lp - 1e-6 * c.max()
        gap = (plan.cost - lp) / max(lp, 1e-12)
        assert gap <= 0.05
        worst_gap = max(worst_gap, gap)
        solved += 1
    assert solved >= 50
    announce(3, f"{solved} problems (<=16 points): Sinkhorn >= LP, worst gap "
                f"{worst_gap:.2%} <= 5%, marginals <= 1e-6 "
                f"({time.perf_counter() - t0:.1f} s)")


def test_criterion_4_gradient_suite():
    t0 = time.perf_counter()
    T.set_default_dtype(np.float64)
    rng = np.random.default_rng(0)

    def t(shape, lo=-1.0, hi=1.0):
        return T.Tensor(rng.uniform(lo, hi, shape), requires_grad=True)

    worst_op = 0.0
    x = t((2, 3, 6, 6))
    w = t((4, 3, 3, 3))
    b = t((4,))
    kv, kh = t((3, 2, 5, 1)), t((2, 3, 1, 5))
    x2 = t((1, 2, 7, 7))
    xm = T.Tensor(np.arange(2 * 2 * 8 * 8, dtype=np.float64).reshape(2, 2, 8, 8) * 0.37
                  + rng.uniform(0, 0.1, (2, 2, 8, 8)), requires_grad=True)
    xr = t((2, 4, 8, 8), lo=0.2, hi=1.0)
    gamma, beta = t((3,), lo=0.5, hi=1.5), t((3,))
    xa, xb = t((2, 3, 4, 4)), t((2, 3, 4, 4), lo=0.5, hi=2.0)
    ops = {
        "conv2d": (lambda: T.conv2d(x, w, stride=1, padding=1, bias=b), [x, w, b]),
        "separable_conv2d": (lambda: T.separable_conv2d(x2, kv, kh, padding=(2, 2)),
                             [x2, kv, kh]),
        "maxpool2d": (lambda: T.maxpool2d(xm, 3, 2, padding=1), [xm]),
        "avgpool2d": (lambda: T.avgpool2d(x, 3, 2, padding=1), [x]),
        "adaptive_avgpool2d": (lambda: T.adaptive_avgpool2d(x2, 3, 2), [x2]),
        "batchnorm2d_train": (lambda: T.batchnorm2d(x, gamma, beta, np.zeros(3), np.ones(3),
                                                    mode="train", eps=1e-3), [x, gamma, beta]),
        "batchnorm2d_eval": (lambda: T.batchnorm2d(x, gamma, beta, np.full(3, 0.2),
                                                   np.full(3, 1.5), mode="eval", eps=1e-3),
                             [x, gamma, beta]),
        "relu": (lambda: T.relu(xr), [xr]),
        "sigmoid": (lambda: T.sigmoid(xa), [xa]),
        "upsample_bilinear": (lambda: T.upsample(x2, 2, "bilinear"), [x2]),
        "upsample_nearest": (lambda: T.upsample(x2, 2, "nearest"), [x2]),
        "interpolate": (lambda: T.interpolate(xa, 7, 9, "bilinear"), [xa]),
        "concat_channels": (lambda: T.concat_channels([xa, xb]), [xa, xb]),
        "channel_sum": (lambda: T.channel_sum(x), [x]),
        "add": (lambda: T.add(xa, xb), [xa, xb]),
        "sub": (lambda: T.sub(xa, xb), [xa, xb]),
        "mul": (lambda: T.mul(xa, xb), [xa, xb]),
        "div": (lambda: T.div(xa, xb), [xa, xb]),
    }
    proj_rng = np.random.default_rng(9)
    for name, (build, tensors) in ops.items():
        for tt in tensors:
            tt.zero_grad()
        out = build()
        proj = proj_rng.normal(size=out.shape)
        T.tensor_sum(T.mul(out, T.Tensor(proj))).backward()

        def scalar():
            return float((build().data * proj).sum())

        for tt in tensors:
            fd = numeric_gradient(scalar, tt.data, h=1e-4)
            err = rel_error(tt.grad, fd)
            assert err < 1e-4, f"{name}: rel err {err:.2e}"
            worst_op = max(worst_op, err)

    # loss gradients on random maps <= 6x6
    y = np.random.default_rng(1).uniform(0.1, 1.0, (6, 6))
    yh = np.random.default_rng(2).uniform(0.1, 1.0, (6, 6))
    _, gc = L.counting_loss(y, yh)
    err_c = rel_error(gc, numeric_gradient(lambda: L.counting_loss(y, yh)[0], yh, h=1e-6))
    assert err_c < 1e-4
    _, gtv = L.tv_loss(y, yh)
    err_tv = rel_error(gtv, numeric_gradient(lambda: L.tv_loss(y, yh)[0], yh, h=1e-7))
    assert err_tv < 1e-4
    kwargs = dict(epsilon=1.0, max_iters=50_000, tolerance=1e-12)
    ot = L.ot_loss(y, yh, **kwargs)
    err_ot = rel_error(ot.grad, numeric_gradient(
        lambda: L.ot_loss(y, yh, **kwargs).entropic_value, yh, h=1e-5))
    assert err_ot < 1e-3
    combo_kwargs = dict(lambda1=0.4, lambda2=0.2, epsilon=1.0, max_iters=50_000,
                        tolerance=1e-12)
    combo = L.dm_count_loss(y, yh, **combo_kwargs)
    err_l = rel_error(combo.grad, numeric_gradient(
        lambda: L.dm_count_loss(y, yh, **combo_kwargs).smooth_total, yh, h=1e-5))
    assert err_l < 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    announce(4, f"{len(ops)} op kinds worst rel err {worst_op:.1e} < 1e-4; losses "
                f"l_c {err_c:.1e}, l_tv {err_tv:.1e}, l_ot {err_ot:.1e}, "
                f"combined {err_l:.1e} ({elapsed:.1f} s)")


def test_criterion_5_count_conservation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    for _ in range(1000):
        h = int(rng.integers(1, 80))
        w = int(rng.integers(1, 80))
        n = int(rng.integers(0, 40))
        points = [
            (float(x), float(y))
            for x, y in zip(rng.uniform(0, w - 1e-6, n), rng.uniform(0, h - 1e-6, n))
        ]
        dm = D.downsample_by_8(D.rasterize(points, h, w))
        assert dm.values.sum() == n
    announce(5, f"1000 annotation sets conserved exactly "
                f"({time.perf_counter() - t0:.1f} s)")


def test_criterion_6_shape_contract():
    t0 = time.perf_counter()
    graph = M.build_icc(M.ModelConfig())
    params = M.init_parameters(graph, 0)
    rng = np.random.default_rng(6)
    checked = []
    for h, w in ((256, 256), (512, 512), (1080, 1920)):
        image = rng.uniform(0, 1, (3, h, w)).astype(np.float32)
        out = M.predict_density(graph, params, image)
        expected = (-(-h // 8), -(-w // 8))
        assert out.shape == expected, (h, w, out.shape)
        checked.append(f"{h}x{w}->{expected[0]}x{expected[1]}")
    del params
    for ablation in ("no-context", "no-inception"):
        cfg = M.ModelConfig(width_scale=0.25, ablation=ablation)
        g = M.build_icc(cfg)
        p = M.init_parameters(g, 0)
        image = rng.uniform(0, 1, (3, 250, 330)).astype(np.float32)
        out = M.predict_density(g, p, image)
        assert out.shape == (-(-250 // 8), -(-330 // 8))
    announce(6, "; ".join(checked) + f"; ablations preserve the contract "
             f"({time.perf_counter() - t0:.1f} s)")


@pytest.fixture(scope="module")
def learning_run(tmp_path_factory):
    """The criterion-7 training run: 64 train / 16 val synthetic images."""
    root = tmp_path_factory.mktemp("acceptance7")
    train_images = D.generate_synthetic((5, 50), 256, 256, 64, seed=2024)
    val_images = D.generate_synthetic((5, 50), 256, 256, 16, seed=2025)
    D.save_dataset(train_images, root / "train")
    D.save_dataset(val_images, root / "val")
    config = TR.TrainConfig(
        epochs=30,
        batch_size=8,
        crop_size=128,  # 256x256 sources, cropped for batching
        width_scale=0.25,  # documented width-reduction flag for CPU runtime
        sinkhorn_iters=100,
        seed=3,
        train_dir=str(root / "train"),
        val_dir=str(root / "val"),
        out_dir=str(root / "run"),
    )
    t0 = time.perf_counter()
    result = TR.train(config)
    elapsed = time.perf_counter() - t0
    return root, train_images, val_images, result, elapsed


def test_criterion_7_desk_scale_learning(learning_run):
    root, train_images, val_images, result, elapsed = learning_run
    losses = [s.loss for s in result.history]
    assert len(losses) == 30
    # the first five epochs' mean losses form a strictly decreasing sequence
    for a, b in zip(losses[:4], losses[1:5]):
        assert b < a, f"training loss not strictly decreasing: {losses[:5]}"

    graph, params = TR.load_model(result.checkpoint_path)
    final = TR.evaluate(graph, params, root / "val")
    train_mean = np.mean([len(a.points) for a in train_images])
    val_counts = np.array([len(a.points) for a in val_images], dtype=float)
    baseline_mae, _ = TR.aggregate_metrics(val_counts, np.full_like(val_counts, train_mean))
    val_mean_mae, _ = TR.aggregate_metrics(val_counts, np.full_like(val_counts, val_counts.mean()))
    assert final.mae < baseline_mae
    assert elapsed < 30 * 60
    announce(7, f"30 epochs in {elapsed / 60:.1f} min; first-5 losses strictly "
                f"decreasing {['%.0f' % v for v in losses[:6]]}; held-out MAE "
                f"{final.mae:.2f} < train-mean baseline {baseline_mae:.2f} "
                f"(val-mean baseline {val_mean_mae:.2f})")


def test_criterion_8_benchmark_scope_is_structural_only():
    # The published benchmark MAE/RMSE numbers (e.g. 76.97/130.16 and
    # 8.46/15.20 on the two ShanghaiTech splits, 2.16/2.74 on Mall) are NOT
    # reproducible here: no GPU-scale training, no dataset redistribution.
    # What is asserted is that the component-analysis variants are
    # constructible and well-formed.
    full = M.build_icc(M.ModelConfig())
    no_ctx = M.build_icc(M.ModelConfig(ablation="no-context"))
    no_inc = M.build_icc(M.ModelConfig(ablation="no-inception"))
    assert full.ablation is None
    assert no_ctx.ablation == "no-context"
    assert no_inc.ablation == "no-inception"
    assert not any(l.name.startswith("context") for l in no_ctx.layers)
    assert "Feature2" not in no_inc.taps
    names = {l.name for l in no_inc.layers}
    assert not any(n.startswith("inception") for n in names)
    announce(8, "benchmark MAE/RMSE out of scope (stated plainly); both "
                "component-analysis variants constructible")


def test_criterion_9_metric_arithmetic():
    mae, rmse = TR.aggregate_metrics([10.0, 20.0], [12.0, 16.0])
    assert mae == 3.0
    assert abs(rmse - np.sqrt(10.0)) < 1e-12
    rng = np.random.default_rng(9)
    for _ in range(25):
        z = rng.uniform(0, 60, 12)
        zhat = rng.uniform(0, 60, 12)
        m, r = TR.aggregate_metrics(z, zhat)
        assert m <= r + 1e-12
    announce(9, "MAE 3.0 / RMSE sqrt(10) exact; MAE <= RMSE on random runs")
