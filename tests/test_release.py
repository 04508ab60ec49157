"""The reverse sweep consumes its graph.

Once a node's backward has run, the node drops its gradient, its backward
closure and its parents, so each intermediate activation is freed by
reference counting as the sweep passes it. Leaves keep their gradients, and
a second sweep through a spent graph is a RuntimeError.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from icc import model as M
from icc import tensor as T

SPENT = "backward has already run"


def leaf(arr):
    return T.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


def small_run():
    """A width-0.25 graph, its parameters and a batch of 2 64x64 inputs."""
    graph = M.build_icc(M.ModelConfig(width_scale=0.25))
    x = np.random.default_rng(1).uniform(0, 1, (2, 3, 64, 64)).astype(np.float32)
    return graph, M.init_parameters(graph, 0), x


class TestSpentGraph:
    def test_tensor_backward_twice_raises(self):
        a = leaf([1.0, 2.0])
        loss = T.tensor_sum(T.mul(a, a))
        loss.backward()
        first = a.grad.copy()
        with pytest.raises(RuntimeError, match=SPENT):
            loss.backward()
        assert np.array_equal(a.grad, first)

    def test_forward_result_backward_twice_raises(self):
        graph, params, x = small_run()
        run = M.forward(graph, params, x, mode="train", requires_grad=True)
        seed = np.ones(run.output.shape, np.float32)
        grads = {k: g.copy() for k, g in run.backward(seed).items()}
        with pytest.raises(RuntimeError, match=SPENT):
            run.backward(seed)
        for name, t in run.param_tensors.items():
            assert np.array_equal(t.grad, grads[name]), name

    def test_new_op_on_a_spent_tensor_raises_at_backward(self):
        a = leaf([1.0, -2.0])
        h = T.relu(T.mul(a, 3.0))
        T.tensor_sum(h).backward()
        # the forward still reads the spent tensor's data
        loss = T.tensor_sum(T.add(h, 1.0))
        assert loss.data == 5.0
        with pytest.raises(RuntimeError, match=SPENT):
            loss.backward()

    def test_swept_nodes_drop_grad_closure_and_parents(self):
        a = leaf([1.0, 2.0])
        mid = T.mul(a, 2.0)
        loss = T.tensor_sum(mid)
        loss.backward()
        for node in (mid, loss):
            assert node.grad is None and node._parents == ()
        assert np.array_equal(a.grad, [2.0, 2.0])
        assert a._backward is None


class TestRelease:
    def test_activations_are_freed_by_the_sweep(self):
        graph, params, x = small_run()
        kept = dict(graph.taps)
        graph.taps.update({l.name: l.name for l in graph.layers if l.kind != "input"})
        gc.collect()
        gc.disable()
        try:
            run = M.forward(graph, params, x, mode="train", requires_grad=True)
            refs = {name: weakref.ref(t.data) for name, t in run.taps.items()
                    if name not in kept and name not in kept.values()}
            run.taps = {tap: run.taps[tap] for tap in kept}
            assert len(refs) > 100
            # the graph holds them until the sweep
            assert all(r() is not None for r in refs.values())
            run.backward(np.ones(run.output.shape, np.float32))
            alive = [name for name, r in refs.items() if r() is not None]
            assert alive == []
        finally:
            gc.enable()
        assert set(run.taps) == set(kept)
        for t in run.taps.values():
            assert np.all(np.isfinite(t.data))
        for name, t in run.param_tensors.items():
            assert t.grad is not None and t.grad.shape == t.data.shape, name

    def test_the_plan_holds_less_after_the_forward(self, monkeypatch):
        # relu writes over its batch norm and branch outputs land in their
        # concat slice, so the recorded forward holds less than without them
        graph, params, x = small_run()

        def held():
            tracemalloc.start()
            try:
                run = M.forward(graph, params, x, mode="train", requires_grad=True)
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        planned = held()
        monkeypatch.setattr(M._BufferPlan, "out", lambda self, l, values: None)
        unplanned = held()
        assert planned <= 0.8 * unplanned, (planned, unplanned)

    def test_backward_peak_stays_near_what_the_forward_holds(self):
        graph, params, x = small_run()
        seed = np.random.default_rng(3).uniform(-1, 1, (2, 1, 8, 8)).astype(np.float32)
        M.forward(graph, params, x, mode="train", requires_grad=True).backward(seed)
        tracemalloc.start()
        try:
            run = M.forward(graph, params, x, mode="train", requires_grad=True)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run.backward(seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * held, (peak, held)


class TestOwnership:
    """A node owns its ``.grad``: an op hands over a gradient it made fresh
    for one operand, and copies any other."""

    def test_no_two_parameter_gradients_share_memory(self):
        graph, params, x = small_run()
        run = M.forward(graph, params, x, mode="train", requires_grad=True)
        seed = np.random.default_rng(3).uniform(-1, 1, run.output.shape).astype(np.float32)
        grads = list(run.backward(seed).values())
        assert len(grads) > 100
        others = grads + list(params.values()) + [seed]
        for i, g in enumerate(grads):
            for other in others[i + 1 :]:
                assert not np.shares_memory(g, other)

    def test_add_of_a_tensor_to_itself(self):
        a = leaf(np.random.default_rng(4).standard_normal((2, 3)))
        seed = np.random.default_rng(5).standard_normal((2, 3))
        kept = seed.copy()
        T.relu(T.add(a, a)).backward(seed)
        assert np.array_equal(a.grad, 2 * (seed * (a.data > 0)))
        assert np.array_equal(seed, kept)

    def test_a_concat_input_read_again(self):
        a = leaf(np.random.default_rng(6).standard_normal((2, 2, 3, 3)))
        seed = np.random.default_rng(7).standard_normal((2, 6, 3, 3))
        kept = seed.copy()
        T.concat_channels([a, T.relu(a), a]).backward(seed)
        expected = seed[:, :2] + seed[:, 4:] + seed[:, 2:4] * (a.data > 0)
        np.testing.assert_allclose(a.grad, expected, rtol=1e-15, atol=0)
        assert np.array_equal(seed, kept)

    def test_relu_keeps_the_layout_of_its_product(self):
        # channel_sum's gradient is channel-innermost; relu's product is
        # laid out in C order all the same, as before it went in place
        x = leaf(np.random.default_rng(8).standard_normal((2, 3, 4, 5)))
        seed = np.random.default_rng(9).standard_normal((2, 1, 4, 5))
        T.channel_sum(T.relu(x)).backward(seed)
        assert x.grad.flags.c_contiguous
        assert np.array_equal(x.grad, np.broadcast_to(seed, x.shape) * (x.data > 0))
