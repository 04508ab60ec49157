"""AdamW with decoupled weight decay."""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, ShapeError

# Adam's moment decay rates and the denominator's floor.
BETAS = (0.9, 0.999)
EPS = 1e-8


class AdamW:
    """Decoupled-weight-decay Adam over a name -> array parameter map.

    Parameter arrays are updated in place. The learning rate is constant
    until ``set_lr`` moves it; the trainer decays it that way between epochs.
    """

    def __init__(
        self,
        params: dict[str, np.ndarray],
        lr: float = 1e-4,
        weight_decay: float = 1e-4,
    ):
        self.params = params
        self.set_lr(lr)
        if not 0 <= weight_decay < math.inf:
            raise ValueError(f"weight decay must be finite and >= 0, got {weight_decay}")
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self.m = {k: np.zeros_like(p) for k, p in params.items()}
        self.v = {k: np.zeros_like(p) for k, p in params.items()}

    def set_lr(self, lr: float) -> None:
        if not 0 < lr < math.inf:
            raise ValueError(f"learning rate must be finite and > 0, got {lr}")
        self.lr = float(lr)

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """Apply one update. Parameters absent from ``grads`` are skipped.

        A non-finite gradient rejects the whole step before any state is
        touched.
        """
        live = []
        for name, g in grads.items():
            if name not in self.params:
                raise KeyError(f"adamw: gradient for unknown parameter {name!r}")
            p = self.params[name]
            if g.shape != p.shape:
                raise ShapeError(
                    f"adamw: gradient shape {g.shape} != parameter shape {p.shape} for {name!r}"
                )
            if not np.all(np.isfinite(g)):
                raise NumericError(f"adamw: non-finite gradient for {name!r}; step rejected")
            live.append((name, p, g))

        lr = self.lr
        b1, b2 = BETAS
        t = self.step_count + 1
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        for name, p, g in live:
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            mhat = m / bc1
            vhat = v / bc2
            if self.weight_decay != 0.0:
                p -= lr * self.weight_decay * p
            p -= (lr * mhat / (np.sqrt(vhat) + EPS)).astype(p.dtype, copy=False)
        self.step_count = t
