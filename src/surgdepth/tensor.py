"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap a flat row-major numpy buffer (float32 by default, float64
supported for verification work). Every differentiable op records its
inputs and a vector-Jacobian product on the output tensor; ``backward``
replays the implicit tape in reverse topological order. The tape is
rebuilt on every forward pass (define-by-run); inside ``no_grad()`` no
tape is recorded at all.

matmul multiplies in the result dtype of its operands, so float32 models
run float32 GEMMs and float64 models (gradient checks) stay float64. The
float32 bits depend on the OpenBLAS thread count (a (12,600,600) @
(12,600,64) product differs between 1 and 2 threads), so bit-identity
between runs holds at a fixed nproc. conv2d, pooling and bilinear_resize
accumulate in float64 even for float32 storage, so their oracle
comparisons stay tight. The pool and the resize share one separable-GEMM
kernel, ``_separable``: ``r @ x @ s.T`` with VJP ``r.T @ g @ s``, on cached
read-only matrices. The pool's are 0/1 window memberships, and each window
sum is divided once by its area: n float32 values sum exactly in float64,
in any order, while their nonzero magnitudes lie within a factor
2**(29 - log2 n), so this gives a float64 ``mean``'s bits where 1/area
weights would round each term. The VJP divides ``g`` by the area in
``g``'s dtype, as a window loop's ``g[:, i, j] / area`` does, then sums
in float64.

gelu's cube of a float32 array (``_cube``) gives the bits of ``d ** 3``
without sending negative values through NumPy's float32 ``power``, which
runs a SIMD kernel for bases >= 0 but a per-element scalar routine, about
50x slower, for each negative base. Lanes >= 0 take the SIMD kernel on
``|d|``. Negative lanes take the float64 cube rounded to float32: the
float64 product of three float32 values is within 2**-29 ULP of the
exact cube, and the scalar routine is within 0.508 ULP of it, so both
round to the same float32 unless the cube lies near the midpoint of two
float32 values. Negative lanes are recomputed with ``** 3`` itself when
(a) the float64 cube is more than 0.48 ULP from its float32 rounding,
read off the float64's low 29 bits, (b) that rounding is a power of two,
zero or infinite (the ULP halves below a power of two), or (c) its
magnitude is below 2**-100 (the scalar routine misrounds subnormal
cubes). About 4% of negative lanes are recomputed. Values go 32K at a
time so the float64 temporaries stay in cache. All 2**32 float32 bit
patterns give ``d ** 3``'s bits on NumPy 2.4 with AVX-512;
``surgdepth verify`` checks a probe set, so a NumPy whose ``power``
rounds differently fails there. Float64 arrays (gradient checks) take
``np.power(d, 3)`` directly, through the same chunked gelu loop.

softmax, gelu and layer_norm run the NumPy operations of their plain
whole-array formulas in the same order on the same values, so their bits
do not change, but on cache-sized blocks and into one output buffer.
softmax takes row blocks of about 1 MB (``_SOFTMAX_BLOCK``): each block is
scaled, shifted by its row maxima, exponentiated and divided by its row
sums while it sits in L2, and the row maxima with the block minimum stand
in for an ``isfinite`` pass (NaN and +inf reach a maximum, -inf the
minimum). Rows are independent, and a last-axis sum adds up each row the
same way however many rows surround it. gelu runs its whole formula one
``_CUBE_CHUNK`` at a time; floating-point multiplication and addition
commute bit for bit, so ``t *= 0.044715`` gives ``0.044715 * t``.
layer_norm repeats ``np.var``'s own steps on one float64 copy of its
input, takes their mean as ``mu`` and reuses that copy for
``(x - mu) * inv``.

``_im2col`` pads into one zeroed buffer, takes every window through one
``as_strided`` view and makes one float64 copy of it. conv2d's VJP keeps
the float32 input and weight, not the float64 patch matrix, and rebuilds
the patches with ``_im2col`` when it runs: the same values, so the same
GEMMs give the same bits, and a taped depthwise 7x7 no longer holds
180 MB of patches at 240x320 until backward. With one output channel per
group (depthwise), ``dcols`` is the broadcast product of weights and
gradient, each term the one product a matmul with inner dimension 1
forms; ``_col2im`` sums them from +0.0, so the sign of a zero cannot
show. The forward's full-size depthwise ``cols`` buffer is kept on
purpose: building it a few channels at a time gives the same bits and a
faster call, but the forward then frees no such block, so a model loaded
after it faults in fresh pages instead of reusing that freed heap, and
the load took 40-78% longer.
"""

import contextlib
import ctypes
import functools
import math
import platform
import warnings

import numpy as np

from .errors import NumericError, ShapeError, UsageError


def _pin_malloc_thresholds(nbytes=256 << 20):
    """Keep glibc from handing freed forward buffers back to the OS.

    By default glibc raises its mmap threshold as large blocks are freed
    and trims the heap top past 128 KiB, so whether a forward's
    activations reuse resident pages depends on what the heap held before.
    The 240x320 ViT-B forward used to avoid page faults only because a
    freed 380 MB state dict stayed in the heap; with the checkpoint read
    straight into the model, each forward re-faulted about 120K pages
    (``ru_minflt``) and ran about 10% slower on a 2-vCPU VM. With both
    thresholds fixed, forwards after the first fault no pages, at the
    price of keeping up to ``nbytes`` of freed heap resident.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, nbytes)
    mallopt(m_trim_threshold, nbytes)


_pin_malloc_thresholds()

# Test hook used by the verify CLI's mutation check: when set to an op
# name (e.g. "bilinear_resize"), that kernel's output is deliberately
# perturbed so the corresponding oracle check must fail.
_SABOTAGE = None

_GELU_C = math.sqrt(2.0 / math.pi)
LAYER_NORM_EPS = 1e-6   # added to layer_norm's variance

# False inside ``no_grad()``: op outputs then record no parents and no VJP.
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Run ops without recording the tape (evaluation and inference).

    Outputs keep their values bit for bit but never require grad, so the
    inputs of each op can be freed as soon as the forward moves on.
    """
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


class Tensor:
    """N-dimensional float array with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._vjp = None

    # -- construction of op outputs ------------------------------------
    @classmethod
    def _from_op(cls, data, parents, vjp):
        out = cls(data)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._vjp = vjp
        return out

    # -- conveniences ---------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x):
    """A Tensor as is; a float64 ndarray stays float64; all else is float32."""
    if isinstance(x, Tensor):
        return x
    if isinstance(x, np.ndarray) and x.dtype == np.float64:
        return Tensor(x)
    return Tensor(np.asarray(x, dtype=np.float32))


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------
# elementwise / arithmetic
# ---------------------------------------------------------------------

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return Tensor._from_op(out, (a, b), vjp)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def vjp(g):
        return (_unbroadcast(g * b.data, a.shape),
                _unbroadcast(g * a.data, b.shape))

    return Tensor._from_op(out, (a, b), vjp)


def exp(a):
    a = as_tensor(a)
    out = np.exp(a.data)
    return Tensor._from_op(out, (a,), lambda g: (g * out,))


def log(a):
    a = as_tensor(a)
    return Tensor._from_op(np.log(a.data), (a,), lambda g: (g / a.data,))


# Float32 values per _cube and gelu pass: keeps their temporaries in cache.
_CUBE_CHUNK = 1 << 15
# The low 29 bits of a float64 are its offset past the float32 below it,
# in 2**-29 ULP; within _CUBE_NEAR of halfway the rounding is in doubt.
_LOW29 = (1 << 29) - 1
_CUBE_NEAR = round(0.02 * (1 << 29))


def _cube(d):
    """``d ** 3`` of a float32 array bit for bit, negative bases mostly off
    NumPy's scalar ``power`` path; see the module docstring."""
    flat = d.reshape(-1)
    out = np.empty(flat.shape, np.float32)
    for lo in range(0, flat.size, _CUBE_CHUNK):
        _cube_chunk(flat[lo:lo + _CUBE_CHUNK], out[lo:lo + _CUBE_CHUNK])
    return out.reshape(d.shape)


def _cube_chunk(x, o):
    """Write ``x ** 3`` of at most ``_CUBE_CHUNK`` float32 values into ``o``."""
    np.power(np.abs(x), 3, out=o)
    c = x.astype(np.float64)
    c *= c * c
    with np.errstate(over="ignore"):
        n = c.astype(np.float32)
    near = c.view(np.int64) & _LOW29
    near -= 1 << 28
    guard = np.abs(near, out=near) < _CUBE_NEAR
    mag = n.view(np.int32) & 0x7FFFFFFF
    guard |= (mag & 0x7FFFFF) == 0
    guard |= mag < 27 << 23
    sign = x.view(np.int32)
    guard &= sign < 0
    # sign >> 31 is all ones on negative lanes: take n's bits there
    bits = o.view(np.int32)
    bits ^= (bits ^ n.view(np.int32)) & (sign >> 31)
    idx = np.flatnonzero(guard)
    o[idx] = x[idx] ** 3


def gelu(x):
    """Gaussian error linear unit, tanh approximation, in cache-sized chunks."""
    x = as_tensor(x)
    d = x.data
    cube = _cube_chunk if d.dtype == np.float32 else lambda a, o: np.power(a, 3, out=o)
    flat = d.reshape(-1)
    t = np.empty(flat.shape, d.dtype)
    out = np.empty(flat.shape, d.dtype)
    for lo in range(0, flat.size, _CUBE_CHUNK):
        xc, tc, oc = (a[lo:lo + _CUBE_CHUNK] for a in (flat, t, out))
        cube(xc, tc)
        tc *= 0.044715
        tc += xc
        tc *= _GELU_C
        np.tanh(tc, out=tc)
        np.add(tc, 1.0, out=oc)
        oc *= 0.5 * xc
    out, t = out.reshape(d.shape), t.reshape(d.shape)

    def vjp(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * d ** 2)
        dx = 0.5 * (1.0 + t) + 0.5 * d * (1.0 - t ** 2) * dinner
        return (g * dx,)

    return Tensor._from_op(out, (x,), vjp)


def sum_(x):
    """Sum of every element, accumulated in float64."""
    x = as_tensor(x)
    out = x.data.sum(dtype=np.float64)

    def vjp(g):
        return (np.broadcast_to(g, x.shape).astype(x.dtype),)

    return Tensor._from_op(np.asarray(out, dtype=x.dtype), (x,), vjp)


# ---------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------

def reshape(x, shape):
    x = as_tensor(x)
    out = x.data.reshape(shape)
    return Tensor._from_op(out, (x,), lambda g: (g.reshape(x.shape),))


def permute(x, axes):
    x = as_tensor(x)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = np.transpose(x.data, axes)
    return Tensor._from_op(out, (x,), lambda g: (np.transpose(g, inv),))


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of an empty list")
    ref = list(tensors[0].shape)
    ref[axis] = -1
    for t in tensors[1:]:
        s = list(t.shape)
        s[axis] = -1
        if s != ref:
            raise ShapeError(f"concat shape mismatch: {t.shape} vs {tensors[0].shape} on axis {axis}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._from_op(out, tensors, vjp)


def slice_axis(x, axis, start, stop):
    x = as_tensor(x)
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = x.data[idx]

    def vjp(g):
        full = np.zeros_like(x.data)
        full[idx] = g
        return (full,)

    return Tensor._from_op(out, (x,), vjp)


# ---------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------

def matmul(a, b):
    """Matrix product; stacked inputs allowed when leading dims agree."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul needs >=2-D operands")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    if a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul leading dims disagree: {a.shape} @ {b.shape}")
    dtype = np.result_type(a.dtype, b.dtype)
    out = np.matmul(a.data, b.data)

    def vjp(g):
        g = g.astype(dtype, copy=False)
        da = np.matmul(g, np.swapaxes(b.data, -1, -2))
        db = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return da.astype(a.dtype, copy=False), db.astype(b.dtype, copy=False)

    return Tensor._from_op(out, (a, b), vjp)


# Bytes of softmax input per row block: the block's passes stay in L2.
_SOFTMAX_BLOCK = 1 << 20


def softmax(x, axis=-1, scale=None):
    """Numerically stabilized softmax of ``x * scale`` along the last axis.

    ``scale`` is rounded to float32 first, as ``mul`` by it would be.
    """
    x = as_tensor(x)
    d = x.data
    if axis not in (-1, d.ndim - 1):
        raise UsageError(f"softmax runs along the last axis, got axis={axis}")
    if scale is not None:
        scale = np.float32(scale)
    rows = d.reshape(-1, d.shape[-1])
    s = np.empty(rows.shape, d.dtype)
    step = max(1, _SOFTMAX_BLOCK // max(1, rows.shape[1] * d.itemsize))
    for lo in range(0, rows.shape[0], step):
        b, o = rows[lo:lo + step], s[lo:lo + step]
        if scale is not None:
            b = np.multiply(b, scale, out=o)
        top = b.max(axis=-1, keepdims=True)
        # NaN and +inf reach a row max, -inf the block min
        if not (np.isfinite(top.max()) and np.isfinite(b.min())):
            raise NumericError("softmax input contains non-finite values")
        np.subtract(b, top, out=o)
        np.exp(o, out=o)
        o /= o.sum(axis=-1, keepdims=True)
    s = s.reshape(d.shape)

    def vjp(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        dx = s * (g - dot)
        if scale is not None:
            dx *= scale
        return (dx,)

    return Tensor._from_op(s, (x,), vjp)


def layer_norm(x, gamma, beta):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"layer_norm affine params must have shape ({c},)")
    # np.var's own steps, on the one float64 working copy; its mean is mu
    w = x.data.astype(np.float64)
    mu = w.sum(axis=-1, keepdims=True)
    mu /= c
    w -= mu
    np.square(w, out=w)
    var = w.sum(axis=-1, keepdims=True)
    var /= c
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    np.subtract(x.data, mu, out=w)
    w *= inv
    xhat = w.astype(x.dtype)
    del w   # freed before out is allocated
    out = xhat * gamma.data
    out += beta.data

    def vjp(g):
        dgamma = (g * xhat).reshape(-1, c).sum(axis=0, dtype=np.float64).astype(gamma.dtype)
        dbeta = g.reshape(-1, c).sum(axis=0, dtype=np.float64).astype(beta.dtype)
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = ((dxhat - m1 - xhat * m2) * inv).astype(x.dtype)
        return dx, dgamma, dbeta

    return Tensor._from_op(out.astype(x.dtype, copy=False), (x, gamma, beta), vjp)


# ---------------------------------------------------------------------
# spatial kernels
# ---------------------------------------------------------------------

def _im2col(x, kh, kw, stride, padding):
    """(C,H,W) -> (C, kh*kw, Ho*Wo) patch matrix, float64, in one strided copy."""
    c, h, w = x.shape
    if padding:
        xp = np.zeros((c, h + 2 * padding, w + 2 * padding), x.dtype)
        xp[:, padding:padding + h, padding:padding + w] = x
    else:
        xp = x
    ho, wo = (xp.shape[1] - kh) // stride + 1, (xp.shape[2] - kw) // stride + 1
    sc, sh, sw = xp.strides
    win = np.lib.stride_tricks.as_strided(            # (C, kh, kw, Ho, Wo)
        xp, (c, kh, kw, ho, wo), (sc, sh, sw, sh * stride, sw * stride), writeable=False)
    return win.astype(np.float64, order="C").reshape(c, kh * kw, ho * wo), ho, wo


def _col2im(cols, c, h, w, kh, kw, stride, padding, ho, wo):
    xp = np.zeros((c, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    cols = cols.reshape(c, kh, kw, ho, wo)
    for i in range(kh):
        for j in range(kw):
            xp[:, i:i + stride * ho:stride, j:j + stride * wo:stride] += cols[:, i, j]
    if padding:
        return xp[:, padding:-padding, padding:-padding]
    return xp


def conv2d(x, weight, bias=None, stride=1, padding=0, groups=1):
    """2-D cross-correlation over a (C,H,W) input.

    groups=1 gives a dense convolution (patch embedding, 1x1 heads);
    groups=C_in gives a depthwise convolution (ConvNeXt 7x7).
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if bias is not None:
        bias = as_tensor(bias)
    c_in, h, w = x.shape
    c_out, c_in_g, kh, kw = weight.shape
    if c_in % groups or c_out % groups:
        raise ShapeError("channel counts must be divisible by groups")
    if c_in_g != c_in // groups:
        raise ShapeError(f"weight expects {c_in_g * groups} input channels, got {c_in}")
    if (h + 2 * padding - kh) % stride or (w + 2 * padding - kw) % stride:
        raise ShapeError("conv2d output size is not integral for this stride/padding")
    c_out_g, k = c_out // groups, c_in_g * kh * kw

    def grouped():
        """Patches as (groups, k, L) and weights as (groups, c_out_g, k), float64."""
        cols, ho, wo = _im2col(x.data, kh, kw, stride, padding)
        w_g = weight.data.reshape(groups, c_out_g, k).astype(np.float64)
        return cols.reshape(groups, k, ho * wo), w_g, ho, wo

    cols_g, w_g, ho, wo = grouped()
    out = np.matmul(w_g, cols_g).reshape(c_out, ho, wo)
    if bias is not None:
        out = out + bias.data[:, None, None]
    parents = (x, weight) if bias is None else (x, weight, bias)

    def vjp(g):
        cols_g, w_g, _, _ = grouped()
        g_g = g.reshape(groups, c_out_g, ho * wo).astype(np.float64)
        dw = np.matmul(g_g, np.swapaxes(cols_g, 1, 2)).reshape(weight.shape).astype(weight.dtype)
        del cols_g   # freed before dcols is built
        dx = None   # an input that needs no grad (a raw image) skips dcols and _col2im
        if x.requires_grad:
            if c_out_g == 1:   # a matmul with inner dimension 1: each term is one product
                dcols = np.swapaxes(w_g, 1, 2) * g_g
            else:
                dcols = np.matmul(np.swapaxes(w_g, 1, 2), g_g)
            dcols = dcols.reshape(c_in, kh * kw, ho * wo)
            dx = _col2im(dcols, c_in, h, w, kh, kw, stride, padding, ho, wo).astype(x.dtype)
        if bias is None:
            return dx, dw
        db = g.sum(axis=(1, 2), dtype=np.float64).astype(bias.dtype)
        return dx, dw, db

    return Tensor._from_op(out.astype(x.dtype), parents, vjp)


def _separable(x, r, s, area=None):
    """Float64 ``r @ x @ s.T`` of a (C,h,w) Tensor, over ``area`` if given,
    and its VJP ``r.T @ g @ s``; returns (output, vjp)."""
    out = r @ x.data.astype(np.float64) @ s.T
    if area is not None:
        out /= area

    def vjp(g):
        if area is not None:
            g = g / area.astype(g.dtype)
        return ((r.T @ g.astype(np.float64) @ s).astype(x.dtype),)

    return out, vjp


def adaptive_avg_pool2d(x, k):
    """Average-pool a (C,h,w) map down to (C,k,k); windows tile the input."""
    x = as_tensor(x)
    c, h, w = x.shape
    if not 1 <= k <= min(h, w):
        raise ShapeError(f"pool size {k} out of range for {h}x{w} input")
    r, s = _pool_matrix(h, k), _pool_matrix(w, k)
    out, vjp = _separable(x, r, s, np.outer(r.sum(1), s.sum(1)))
    return Tensor._from_op(out.astype(x.dtype), (x,), vjp)


@functools.lru_cache(maxsize=64)
def _interp_matrix(n_in, n_out):
    """Row-stochastic (n_out, n_in) bilinear weights, align_corners=false;
    cached, read-only."""
    m = np.zeros((n_out, n_in), dtype=np.float64)
    scale = n_in / n_out
    for d in range(n_out):
        src = (d + 0.5) * scale - 0.5
        src = min(max(src, 0.0), n_in - 1.0)
        i0 = int(math.floor(src))
        i1 = min(i0 + 1, n_in - 1)
        t = src - i0
        m[d, i0] += 1.0 - t
        m[d, i1] += t
    m.flags.writeable = False
    return m


@functools.lru_cache(maxsize=64)
def _pool_matrix(n_in, k):
    """(k, n_in) 0/1 adaptive-pool window memberships; cached, read-only."""
    m = np.zeros((k, n_in), dtype=np.float64)
    for i in range(k):
        m[i, (i * n_in) // k:-(-((i + 1) * n_in) // k)] = 1.0
    m.flags.writeable = False
    return m


def bilinear_resize(x, h_out, w_out):
    """Resize a (C,h,w) map with half-pixel-center bilinear sampling."""
    x = as_tensor(x)
    c, h, w = x.shape
    if h_out < 1 or w_out < 1:
        raise ShapeError("output size must be positive")
    out, vjp = _separable(x, _interp_matrix(h, h_out), _interp_matrix(w, w_out))
    if _SABOTAGE == "bilinear_resize":
        out += 1e-3
    return Tensor._from_op(out.astype(x.dtype), (x,), vjp)


# ---------------------------------------------------------------------
# backward driver
# ---------------------------------------------------------------------

def _topo(root):
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    return order


def backward(loss):
    """Populate ``.grad`` on every requires-grad tensor reachable from loss.

    Grads accumulate across calls; use zero_grad / the optimizer to reset.
    """
    if not isinstance(loss, Tensor):
        raise UsageError("backward expects a Tensor")
    if loss.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad and loss._vjp is None:
        warnings.warn("backward called on a detached graph; no grads to populate")
        return
    order = _topo(loss)
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad and node._vjp is None:
            node.grad = g.copy() if node.grad is None else node.grad + g
        if node._vjp is not None:
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg
