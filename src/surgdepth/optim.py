"""AdamW with decoupled weight decay.

Moments are stored and updated in float64 regardless of parameter dtype
so that scalar-sequence oracles computed in 64-bit match tightly.
"""

import numpy as np

from .errors import ShapeError

BETA1, BETA2 = 0.9, 0.999   # moment decay rates
EPS = 1e-8                  # added to the second-moment root


class AdamW:
    def __init__(self, params, lr=1e-3, weight_decay=0.05):
        self.params = list(params)  # (name, Tensor) pairs
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {name: np.zeros(p.shape, dtype=np.float64) for name, p in self.params}
        self.v = {name: np.zeros(p.shape, dtype=np.float64) for name, p in self.params}

    def zero_grad(self):
        for _, p in self.params:
            p.zero_grad()

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        lr, b1, b2 = self.lr, BETA1, BETA2
        for name, p in self.params:
            g = p.grad
            if g is None:
                g = np.zeros(p.shape, dtype=np.float64)
            elif g.shape != p.shape:
                raise ShapeError(f"grad shape {g.shape} != param shape {p.shape} for {name}")
            g = g.astype(np.float64, copy=False)
            x = p.data.astype(np.float64)
            # decoupled decay, independent of the adaptive update
            x -= (lr * self.weight_decay) * x
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += ((1 - b2) * g) * g
            den = np.sqrt(v / bc2)
            den += EPS
            upd = m / bc1
            upd *= lr
            upd /= den
            x -= upd
            p.data = x.astype(p.dtype)

    def grad_norm(self):
        total = 0.0
        for _, p in self.params:
            if p.grad is not None:
                total += float((p.grad.astype(np.float64) ** 2).sum())
        return total ** 0.5
