"""Shared test fixtures and independent reference implementations.

The references here are deliberately dumb (nested loops, direct formulas) and
never call into the library's fast paths; they are the oracles the fast paths
are checked against.
"""

import math

import numpy as np
import pytest

from icc import tensor as T


@pytest.fixture(autouse=True)
def _float32_default():
    """Tests that need float64 set it themselves; restore after each test."""
    T.set_default_dtype(np.float32)
    yield
    T.set_default_dtype(np.float32)


def conv2d_loop(x, w, stride=(1, 1), padding=(0, 0), bias=None):
    """Direct nested-loop convolution reference."""
    n, cin, h, wid = x.shape
    cout, _, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wid + 2 * pw - kw) // sw + 1
    out = np.zeros((n, cout, ho, wo), dtype=np.float64)
    for b in range(n):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[b, ci, i * sh + u, j * sw + v] * w[co, ci, u, v]
                    out[b, co, i, j] = acc + (bias[co] if bias is not None else 0.0)
    return out


def pool_loop(x, window, stride, padding, op):
    """Loop reference for max/avg pooling (zero pad for avg, -inf for max)."""
    n, c, h, w = x.shape
    wh, ww = window
    sh, sw = stride
    ph, pw = padding
    fill = 0.0 if op == "avg" else -np.inf
    xp = np.full((n, c, h + 2 * ph, w + 2 * pw), fill, dtype=np.float64)
    xp[:, :, ph : ph + h, pw : pw + w] = x
    ho = (h + 2 * ph - wh) // sh + 1
    wo = (w + 2 * pw - ww) // sw + 1
    out = np.zeros((n, c, ho, wo), dtype=np.float64)
    for b in range(n):
        for ci in range(c):
            for i in range(ho):
                for j in range(wo):
                    win = xp[b, ci, i * sh : i * sh + wh, j * sw : j * sw + ww]
                    out[b, ci, i, j] = win.max() if op == "max" else win.mean()
    return out


def maxpool_grad_loop(x, g, window, stride, padding):
    """Loop reference for the max-pool gradient: each window's upstream
    gradient goes to the first of its maxima in row-major order."""
    n, c, h, w = x.shape
    wh, ww = window
    sh, sw = stride
    ph, pw = padding
    xp = np.full((n, c, h + 2 * ph, w + 2 * pw), -np.inf)
    xp[:, :, ph : ph + h, pw : pw + w] = x
    gp = np.zeros_like(xp)
    for b, ci, i, j in np.ndindex(*g.shape):
        best = (i * sh, j * sw)
        for u in range(i * sh, i * sh + wh):
            for v in range(j * sw, j * sw + ww):
                if xp[b, ci, u, v] > xp[(b, ci) + best]:
                    best = (u, v)
        gp[(b, ci) + best] += g[b, ci, i, j]
    return gp[:, :, ph : ph + h, pw : pw + w]


def adaptive_avgpool_loop(x, oh, ow):
    """Loop reference: output (i, j) is the mean of input rows
    floor(i*h/oh) .. ceil((i+1)*h/oh) - 1 and the columns found likewise."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, oh, ow), dtype=np.float64)
    for i in range(oh):
        r0, r1 = math.floor(i * h / oh), math.ceil((i + 1) * h / oh)
        for j in range(ow):
            c0, c1 = math.floor(j * w / ow), math.ceil((j + 1) * w / ow)
            out[:, :, i, j] = x[:, :, r0:r1, c0:c1].mean(axis=(2, 3))
    return out


def nearest_loop(x, oh, ow):
    """Loop reference: output (i, j) copies input (floor(i*h/oh), floor(j*w/ow))."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, oh, ow), dtype=np.float64)
    for i in range(oh):
        for j in range(ow):
            out[:, :, i, j] = x[:, :, math.floor(i * h / oh), math.floor(j * w / ow)]
    return out


def bilinear_loop(x, oh, ow):
    """Scalar reference for align-corners=false bilinear resizing.

    Source coordinates are (o + 0.5) * in/out - 0.5, clamped to the grid.
    """
    n, c, h, w = x.shape
    out = np.zeros((n, c, oh, ow), dtype=np.float64)
    for i in range(oh):
        sy = min(max((i + 0.5) * h / oh - 0.5, 0.0), h - 1)
        y0 = int(np.floor(sy))
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for j in range(ow):
            sx = min(max((j + 0.5) * w / ow - 0.5, 0.0), w - 1)
            x0 = int(np.floor(sx))
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            out[:, :, i, j] = (
                x[:, :, y0, x0] * (1 - fy) * (1 - fx)
                + x[:, :, y1, x0] * fy * (1 - fx)
                + x[:, :, y0, x1] * (1 - fy) * fx
                + x[:, :, y1, x1] * fy * fx
            )
    return out


def numeric_gradient(f, x, h=1e-4):
    """Central finite differences of scalar f() w.r.t. array x (in place)."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = f()
        flat[i] = old - h
        fm = f()
        flat[i] = old
        gflat[i] = (fp - fm) / (2 * h)
    return g


def rel_error(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / scale


def check_op_gradients(build, tensors, h=1e-4, tol=1e-4):
    """FD-check d(projected output)/d(input) for every tensor in ``tensors``.

    ``build`` maps the tensors to the op's output Tensor. The scalar is a
    fixed random projection of the output so every output element matters.
    """
    for t in tensors:
        t.zero_grad()
    out = build()
    rng = np.random.default_rng(12345)
    proj = rng.normal(size=out.shape)

    def scalar():
        return float((build().data * proj).sum())

    loss = T.tensor_sum(T.mul(out, T.Tensor(proj)))
    loss.backward()
    for t in tensors:
        assert t.grad is not None, "missing gradient"
        fd = numeric_gradient(scalar, t.data, h=h)
        err = rel_error(t.grad, fd)
        assert err < tol, f"gradient mismatch: rel err {err:.3e} >= {tol}"
