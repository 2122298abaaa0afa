"""Pixel-wise cross-entropy on raw logits."""

import numpy as np

from . import tensor as T
from .errors import DataError, NumericError

IGNORE_INDEX = 255


def cross_entropy_loss(logits, labels):
    """Mean over non-ignored pixels of -log softmax(logits)[label].

    logits: Tensor (K, H, W); labels: integer array (H, W) with values
    in [0, K) or IGNORE_INDEX. Differentiable in logits.
    """
    logits = T.as_tensor(logits)
    labels = np.asarray(labels)
    k, h, w = logits.shape
    if labels.shape != (h, w):
        raise DataError(f"labels shape {labels.shape} != logits spatial {(h, w)}")
    valid = labels != IGNORE_INDEX
    lab = labels[valid]
    if lab.size and (lab.min() < 0 or lab.max() >= k):
        raise DataError(f"labels out of range [0,{k}) (ignore={IGNORE_INDEX})")
    if not np.all(np.isfinite(logits.data)):
        raise NumericError("cross_entropy_loss got non-finite logits")

    flat = logits.data.reshape(k, h * w).astype(np.float64)
    vmask = valid.reshape(-1)
    n_valid = int(vmask.sum())
    if n_valid == 0:
        raise DataError("all pixels ignored")
    z = flat[:, vmask]                              # (K, n)
    zmax = z.max(axis=0)
    logsumexp = zmax + np.log(np.exp(z - zmax).sum(axis=0))
    picked = z[lab, np.arange(n_valid)]
    loss = (logsumexp - picked).mean()
    dtype = logits.dtype

    def vjp(g):
        soft = np.exp(z - logsumexp)                # (K, n)
        soft[lab, np.arange(n_valid)] -= 1.0
        dflat = np.zeros((k, h * w), dtype=np.float64)
        dflat[:, vmask] = soft * (float(g) / n_valid)
        return (dflat.reshape(k, h, w).astype(dtype),)

    return T.Tensor._from_op(np.asarray(loss, dtype=dtype), (logits,), vjp)
