"""Cross-modal fusion block.

Pooled RGB+depth features form the queries; keys and values come from
the RGB tokens only. The attended context is upsampled back to the full
token grid and added residually to both modality streams through two
separate output projections, so the block preserves shapes and is the
identity when the output projections are zero.
"""

from dataclasses import dataclass

from . import tensor as T
from .errors import ShapeError
from .nn import Linear, Module


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


class FusionBlock(Module):
    """3D-awareness fusion: pooled-query cross-attention over RGB tokens."""

    def __init__(self, channels, rng, attn_dim=None, k=7):
        self.channels = channels
        self.attn_dim = attn_dim if attn_dim is not None else 2 * channels
        self.k = k
        self.fc_q = Linear(2 * channels, self.attn_dim, rng=rng)
        self.fc_k = Linear(channels, self.attn_dim, rng=rng)
        self.fc_v = Linear(channels, self.attn_dim, rng=rng)
        self.fc_out_rgb = Linear(self.attn_dim, channels, rng=rng)
        self.fc_out_depth = Linear(self.attn_dim, channels, rng=rng)

    def _check(self, x_rgb, x_depth):
        if (x_rgb.h, x_rgb.w, x_rgb.channels) != (x_depth.h, x_depth.w, x_depth.channels):
            raise ShapeError("fusion inputs must share (h, w, C)")
        if x_rgb.channels != self.channels:
            raise ShapeError(f"expected C={self.channels}, got {x_rgb.channels}")

    def make_query(self, x_rgb, x_depth):
        """Pooled queries: concat channels, pool to k x k, project. (k^2, C_d)."""
        self._check(x_rgb, x_depth)
        both = T.concat([x_rgb.to_chw(), x_depth.to_chw()], axis=0)  # (2C,h,w)
        pooled = T.adaptive_avg_pool2d(both, self.k)                 # (2C,k,k)
        q_tokens = grid_from_chw(pooled).tokens                      # (k^2, 2C)
        return self.fc_q(q_tokens)

    def __call__(self, x_rgb, x_depth):
        """Fuse the two streams; returns updated (rgb, depth) TokenGrids.

        ``make_query`` raises ShapeError unless both share (h, w, channels).
        """
        q = self.make_query(x_rgb, x_depth)
        h, w = x_rgb.h, x_rgb.w
        k_mat = self.fc_k(x_rgb.tokens)   # (h*w, C_d)
        v = self.fc_v(x_rgb.tokens)       # (h*w, C_d)
        ctx = T.attention(q, k_mat, v)    # (k^2, C_d)
        ctx_grid = TokenGrid(self.k, self.k, ctx).to_chw()          # (C_d,k,k)
        up = T.bilinear_resize(ctx_grid, h, w)                      # (C_d,h,w)
        ctx_tokens = grid_from_chw(up).tokens                       # (h*w, C_d)
        out_rgb = T.add(x_rgb.tokens, self.fc_out_rgb(ctx_tokens))
        out_depth = T.add(x_depth.tokens, self.fc_out_depth(ctx_tokens))
        return TokenGrid(h, w, out_rgb), TokenGrid(h, w, out_depth)
