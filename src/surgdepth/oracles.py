"""Naive reference implementations used to verify the vectorized kernels.

Everything here is written with explicit Python loops in float64 and is
deliberately independent of the tensor core's code paths.
"""

import math

import numpy as np


def matmul_oracle(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def softmax_oracle(row):
    """exp/sum-exp on a 1-D slice, extended precision."""
    row = np.asarray(row, dtype=np.longdouble)
    e = np.exp(row - row.max())
    return (e / e.sum()).astype(np.float64)


def layer_norm_oracle(row, gamma, beta):
    row = np.asarray(row, dtype=np.float64)
    mu = sum(row) / len(row)
    var = sum((v - mu) ** 2 for v in row) / len(row)
    return np.array([(v - mu) / math.sqrt(var + 1e-6) * g + b
                     for v, g, b in zip(row, gamma, beta)])


def conv2d_oracle(x, w, b, stride=1, padding=0, groups=1):
    """Direct 6-loop cross-correlation."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    c_in, h, wd = x.shape
    c_out, c_in_g, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((c_out, ho, wo))
    cpg_out = c_out // groups
    for oc in range(c_out):
        g = oc // cpg_out
        for i in range(ho):
            for j in range(wo):
                acc = 0.0 if b is None else float(np.asarray(b)[oc])
                for ic in range(c_in_g):
                    for u in range(kh):
                        for v in range(kw):
                            acc += (w[oc, ic, u, v] *
                                    xp[g * c_in_g + ic, i * stride + u, j * stride + v])
                out[oc, i, j] = acc
    return out


def adaptive_avg_pool2d_oracle(x, k):
    x = np.asarray(x, dtype=np.float64)
    c, h, w = x.shape
    out = np.zeros((c, k, k))
    for i in range(k):
        for j in range(k):
            r0, r1 = (i * h) // k, -(-((i + 1) * h) // k)
            c0, c1 = (j * w) // k, -(-((j + 1) * w) // k)
            for ch in range(c):
                out[ch, i, j] = x[ch, r0:r1, c0:c1].mean()
    return out


def bilinear_resize_oracle(x, h_out, w_out):
    """Per-pixel closed-form sampling, align_corners=false."""
    x = np.asarray(x, dtype=np.float64)
    c, h, w = x.shape
    out = np.zeros((c, h_out, w_out))
    for i in range(h_out):
        sy = min(max((i + 0.5) * h / h_out - 0.5, 0.0), h - 1.0)
        y0 = int(math.floor(sy))
        y1 = min(y0 + 1, h - 1)
        ty = sy - y0
        for j in range(w_out):
            sx = min(max((j + 0.5) * w / w_out - 0.5, 0.0), w - 1.0)
            x0 = int(math.floor(sx))
            x1 = min(x0 + 1, w - 1)
            tx = sx - x0
            for ch in range(c):
                top = x[ch, y0, x0] * (1 - tx) + x[ch, y0, x1] * tx
                bot = x[ch, y1, x0] * (1 - tx) + x[ch, y1, x1] * tx
                out[ch, i, j] = top * (1 - ty) + bot * ty
    return out


def gaussian_blur_oracle(img, sigma):
    """Per-pixel Gaussian blur of each channel of a (C,H,W) raster, edges
    repeated, in SciPy's order: a float64 sum along H rounded to float32,
    then one along W, each ``center * w[0]`` plus ``(left + right) * w[j]``
    from the outermost pair inward. The weights are built with NumPy as
    SciPy builds them, since their bits are part of the result."""
    r = int(4.0 * sigma + 0.5)
    phi = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = [float(v) for v in (phi / phi.sum())[r:]]
    out = np.array(img, dtype=np.float32)
    for axis in (1, 2):
        src = out.astype(np.float64)
        for ch, i, j in np.ndindex(out.shape):
            line, pos = (src[ch, :, j], i) if axis == 1 else (src[ch, i, :], j)
            acc = float(line[pos]) * w[0]
            for k in range(r, 0, -1):
                left, right = line[max(pos - k, 0)], line[min(pos + k, len(line) - 1)]
                acc += (float(left) + float(right)) * w[k]
            out[ch, i, j] = acc
    return out


def attention_oracle(q, k_mat, v, scale):
    """Reference attention by explicit per-query loops in float64."""
    q, k_mat, v = (np.asarray(a, dtype=np.float64) for a in (q, k_mat, v))
    out = np.zeros((len(q), v.shape[1]))
    for i, qi in enumerate(q):
        weights = softmax_oracle([scale * float(qi @ k) for k in k_mat])
        out[i] = sum(w * vj for w, vj in zip(weights, v))
    return out


def mhsa_oracle(x, wq, wk, wv, bq, bk, bv, w_proj, b_proj):
    """Single-head self-attention via composed loops."""
    x = np.asarray(x, dtype=np.float64)
    q = matmul_oracle(x, wq) + bq
    k = matmul_oracle(x, wk) + bk
    v = matmul_oracle(x, wv) + bv
    ctx = attention_oracle(q, k, v, 1.0 / math.sqrt(q.shape[1]))
    return matmul_oracle(ctx, w_proj) + b_proj


def adamw_oracle_sequence(x0, grads, lr, weight_decay=0.0):
    """Scalar AdamW trajectory in 64-bit at AdamW's BETA1, BETA2 and EPS;
    returns list of params after each step."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    x, m, v = float(x0), 0.0, 0.0
    out = []
    for t, g in enumerate(grads, 1):
        x = x - lr * weight_decay * x
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        x = x - lr * mhat / (math.sqrt(vhat) + eps)
        out.append(x)
    return out
