"""Cross-modal fusion block.

Pooled RGB+depth features form the queries; keys and values come from
the RGB tokens only. The attended context is upsampled back to the full
token grid and added residually to both modality streams through two
separate output projections, so the block preserves shapes and is the
identity when the output projections are zero.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .nn import Linear


@dataclass
class TokenGrid:
    """A spatially arranged token set: tokens has shape (h*w, C)."""

    h: int
    w: int
    tokens: T.Tensor

    def __post_init__(self):
        n, _ = self.tokens.shape
        if n != self.h * self.w:
            raise ShapeError(f"token count {n} != {self.h}x{self.w}")

    @property
    def channels(self):
        return self.tokens.shape[1]

    def to_chw(self):
        """(h*w, C) -> (C, h, w); lossless, see from_chw."""
        return T.reshape(T.permute(self.tokens, (1, 0)), (self.channels, self.h, self.w))


def grid_from_chw(x):
    """(C, h, w) Tensor -> TokenGrid with row-major spatial token order."""
    c, h, w = x.shape
    tokens = T.permute(T.reshape(x, (c, h * w)), (1, 0))
    return TokenGrid(h, w, tokens)


class FusionBlock:
    """3D-awareness fusion: pooled-query cross-attention over RGB tokens."""

    def __init__(self, channels, attn_dim=None, k=7, rng=None, std=0.02,
                 dtype=np.float32, out_zero_init=False):
        self.channels = channels
        self.attn_dim = attn_dim if attn_dim is not None else 2 * channels
        self.k = k
        self.fc_q = Linear(2 * channels, self.attn_dim, rng=rng, std=std, dtype=dtype)
        self.fc_k = Linear(channels, self.attn_dim, rng=rng, std=std, dtype=dtype)
        self.fc_v = Linear(channels, self.attn_dim, rng=rng, std=std, dtype=dtype)
        self.fc_out_rgb = Linear(self.attn_dim, channels, rng=rng, std=std,
                                 dtype=dtype, zero_init=out_zero_init)
        self.fc_out_depth = Linear(self.attn_dim, channels, rng=rng, std=std,
                                   dtype=dtype, zero_init=out_zero_init)

    def _check(self, x_rgb, x_depth):
        if (x_rgb.h, x_rgb.w, x_rgb.channels) != (x_depth.h, x_depth.w, x_depth.channels):
            raise ShapeError("fusion inputs must share (h, w, C)")
        if x_rgb.channels != self.channels:
            raise ShapeError(f"expected C={self.channels}, got {x_rgb.channels}")
        if self.k > min(x_rgb.h, x_rgb.w):
            raise ShapeError(f"pool size {self.k} exceeds grid {x_rgb.h}x{x_rgb.w}")

    def make_query(self, x_rgb, x_depth):
        """Pooled queries: concat channels, pool to k x k, project. (k^2, C_d)."""
        self._check(x_rgb, x_depth)
        both = T.concat([x_rgb.to_chw(), x_depth.to_chw()], axis=0)  # (2C,h,w)
        pooled = T.adaptive_avg_pool2d(both, self.k)                 # (2C,k,k)
        q_tokens = grid_from_chw(pooled).tokens                      # (k^2, 2C)
        return self.fc_q(q_tokens)

    def __call__(self, x_rgb, x_depth, query_depth=None):
        """Fuse the two streams; returns updated (rgb, depth) TokenGrids.

        query_depth substitutes the depth grid used for query building
        only (the RGB-only baseline feeds the RGB grid here twice).
        """
        self._check(x_rgb, x_depth)
        h, w = x_rgb.h, x_rgb.w
        q = self.make_query(x_rgb, x_depth if query_depth is None else query_depth)
        k_mat = self.fc_k(x_rgb.tokens)   # (h*w, C_d)
        v = self.fc_v(x_rgb.tokens)       # (h*w, C_d)
        scale = 1.0 / math.sqrt(self.attn_dim)
        attn = T.softmax(T.matmul(q, T.permute(k_mat, (1, 0))), axis=-1, scale=scale)
        ctx = T.matmul(attn, v)           # (k^2, C_d)
        ctx_grid = TokenGrid(self.k, self.k, ctx).to_chw()          # (C_d,k,k)
        up = T.bilinear_resize(ctx_grid, h, w)                      # (C_d,h,w)
        ctx_tokens = grid_from_chw(up).tokens                       # (h*w, C_d)
        out_rgb = T.add(x_rgb.tokens, self.fc_out_rgb(ctx_tokens))
        out_depth = T.add(x_depth.tokens, self.fc_out_depth(ctx_tokens))
        return TokenGrid(h, w, out_rgb), TokenGrid(h, w, out_depth)

    def named_parameters(self, prefix=""):
        for tag, layer in (("fc_q", self.fc_q), ("fc_k", self.fc_k),
                           ("fc_v", self.fc_v), ("fc_out_rgb", self.fc_out_rgb),
                           ("fc_out_depth", self.fc_out_depth)):
            yield from layer.named_parameters(f"{prefix}{tag}.")


def attention_oracle(q, k_mat, v, scale):
    """Reference attention by explicit per-query loops in float64."""
    q = np.asarray(q, dtype=np.float64)
    k_mat = np.asarray(k_mat, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nq = q.shape[0]
    out = np.zeros((nq, v.shape[1]), dtype=np.float64)
    for i in range(nq):
        logits = np.array([scale * float(q[i] @ k_mat[j]) for j in range(k_mat.shape[0])])
        logits -= logits.max()
        weights = np.exp(logits)
        weights /= weights.sum()
        for j in range(k_mat.shape[0]):
            out[i] += weights[j] * v[j]
    return out
