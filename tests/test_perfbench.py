"""The benchmark's tracer against the library names it wraps.

``perfbench/workloads.py`` wraps library functions by name, so a renamed or
reshaped one would otherwise only fail a traced benchmark run.
"""

from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_records_each_sinkhorn_solve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness
    import workloads

    from icc import loss as L

    tracer = harness.Tracer("test")
    workloads.register_layers(tracer)
    rng = np.random.default_rng(0)
    y = rng.uniform(0.1, 1.0, (4, 5))
    yhat = rng.uniform(0.1, 1.0, (4, 5))
    tracer.install(1)
    try:
        L.ot_loss(y, yhat, max_iters=30)
    finally:
        tracer.uninstall()
    assert not hasattr(L.sinkhorn, "__wrapped__")
    [(call, solve)] = tracer.observed["loss.sinkhorn"]
    assert call == 1
    iterations, converged, marginal_error = solve
    assert type(iterations) is int and 1 <= iterations <= 30
    assert type(converged) is bool
    assert type(marginal_error) is float and marginal_error >= 0.0
    assert {"loss.ot_loss", "loss.sinkhorn"} <= {s.name for s in tracer.spans}
