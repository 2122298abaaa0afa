"""Finite-difference verification of analytic gradients.

Compares reverse-mode grads against central differences on a scalar
function of a set of parameter tensors. Parameters should be float64
for the tight tolerances to be meaningful; central differences on
float32 forward passes drown in rounding noise.
"""

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import DeterminismError
from .rng import make_rng


@dataclass
class GradCheckReport:
    tol: float
    step: float
    per_param: dict = field(default_factory=dict)  # name -> max relative error
    checked_entries: int = 0

    @property
    def max_error(self):
        return max(self.per_param.values()) if self.per_param else 0.0

    @property
    def passed(self):
        return self.max_error <= self.tol

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"grad_check {status}: max rel err {self.max_error:.3e} "
                f"(tol {self.tol:.1e}, {self.checked_entries} entries)")


SAMPLE_SEED, REL_ERR_FLOOR = 0, 1e-6   # entry sampling; least rel-err denominator


def _rel_err(a, n):
    denom = max(abs(a), abs(n), REL_ERR_FLOOR)
    return abs(a - n) / denom


def grad_check(f, params, step=1e-3, tol=1e-3, entries_per_param=None):
    """Check analytic grads of ``f()`` (scalar Tensor) w.r.t. ``params``.

    params: list of (name, Tensor). When entries_per_param is None every
    entry is checked, otherwise that many flat indices are sampled per
    tensor (deterministically from ``SAMPLE_SEED``).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    l1 = f().item()
    l2 = f().item()
    if l1 != l2:
        raise DeterminismError(f"f is non-deterministic: {l1!r} != {l2!r}")

    for _, p in params:
        p.zero_grad()
    T.backward(f())
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params}

    rng = make_rng(SAMPLE_SEED)
    report = GradCheckReport(tol=tol, step=step)
    for name, p in params:
        flat = p.data.reshape(-1)
        n = flat.size
        if entries_per_param is None or entries_per_param >= n:
            idxs = range(n)
        else:
            idxs = rng.choice(n, size=entries_per_param, replace=False)
        worst = 0.0
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + step
            fp = f().item()
            flat[i] = orig - step
            fm = f().item()
            flat[i] = orig
            numeric = (fp - fm) / (2 * step)
            a = float(analytic[name].reshape(-1)[i])
            worst = max(worst, _rel_err(a, numeric))
            report.checked_entries += 1
        report.per_param[name] = worst
    return report
