"""Patch embedding and the pre-norm ViT encoder over concatenated
RGB and depth token streams.

The two modality streams (h*w tokens each) get separate learned
positional embeddings, are concatenated along the token axis into a
2*h*w sequence, run through the transformer stack plus a final norm,
and are split back into per-modality streams.
"""

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .fusion import grid_from_chw
from .nn import Conv2d, LayerNorm, Linear, Module

MLP_RATIO = 4   # MLP hidden width per embedding width


class PatchEmbed(Module):
    """Non-overlapping patch projection: a single strided convolution."""

    def __init__(self, in_channels, embed_dim, patch, rng):
        self.patch = patch
        self.conv = Conv2d(in_channels, embed_dim, patch, stride=patch,
                           rng=rng)

    def __call__(self, img):
        _, h, w = img.shape
        if h % self.patch or w % self.patch:
            raise ShapeError(f"image {h}x{w} not divisible by patch {self.patch}")
        return grid_from_chw(self.conv(img))


class MultiHeadSelfAttention(Module):
    def __init__(self, dim, heads, rng):
        if dim % heads:
            raise ConfigError(f"heads ({heads}) must divide dim ({dim})")
        self.heads = heads
        self.head_dim = dim // heads
        self.qkv = Linear(dim, 3 * dim, rng=rng)
        self.proj = Linear(dim, dim, rng=rng)

    def __call__(self, x):
        n, c = x.shape
        qkv = self.qkv(x)  # (n, 3C)
        q = self._split_heads(T.slice_axis(qkv, 1, 0, c))
        k = self._split_heads(T.slice_axis(qkv, 1, c, 2 * c))
        v = self._split_heads(T.slice_axis(qkv, 1, 2 * c, 3 * c))
        out = T.attention(q, k, v)                              # (heads, n, hd)
        out = T.reshape(T.permute(out, (1, 0, 2)), (n, c))
        return self.proj(out)

    def _split_heads(self, x):
        n = x.shape[0]
        return T.permute(T.reshape(x, (n, self.heads, self.head_dim)), (1, 0, 2))


class Mlp(Module):
    """fc2(gelu(fc1(x))) with hidden width MLP_RATIO * dim."""

    def __init__(self, dim, rng):
        self.fc1 = Linear(dim, MLP_RATIO * dim, rng=rng)
        self.fc2 = Linear(MLP_RATIO * dim, dim, rng=rng)

    def __call__(self, x):
        return self.fc2(T.gelu(self.fc1(x)))


class TransformerBlock(Module):
    """Pre-norm ViT block: x + attn(norm1(x)), then + mlp(norm2(.))."""

    def __init__(self, dim, heads, rng):
        self.norm1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, heads, rng=rng)
        self.norm2 = LayerNorm(dim)
        self.mlp = Mlp(dim, rng=rng)

    def __call__(self, x):
        x = T.add(x, self.attn(self.norm1(x)))
        return T.add(x, self.mlp(self.norm2(x)))


class Encoder(Module):
    """Transformer stack over the concatenated 2*h*w token sequence."""

    def __init__(self, dim, depth, heads, n_tokens, rng):
        self.n_tokens = n_tokens
        self.pos_embed_rgb = T.Tensor(np.zeros((n_tokens, dim), np.float32),
                                      requires_grad=True)
        self.pos_embed_depth = T.Tensor(np.zeros((n_tokens, dim), np.float32),
                                        requires_grad=True)
        self.blocks = [TransformerBlock(dim, heads, rng=rng)
                       for _ in range(depth)]
        self.final_norm = LayerNorm(dim)

    def __call__(self, rgb, depth):
        """TokenGrids in, (rgb_tokens, depth_tokens) out, each (h*w, C)."""
        if (rgb.h, rgb.w, rgb.channels) != (depth.h, depth.w, depth.channels):
            raise ShapeError("encoder inputs must share (h, w, C)")
        n = rgb.h * rgb.w
        if n != self.n_tokens:
            raise ShapeError(f"positional embeddings cover {self.n_tokens} tokens, got {n}")
        x = T.concat([T.add(rgb.tokens, self.pos_embed_rgb),
                      T.add(depth.tokens, self.pos_embed_depth)], axis=0)
        for block in self.blocks:
            x = block(x)
        x = self.final_norm(x)
        return T.slice_axis(x, 0, 0, n), T.slice_axis(x, 0, n, 2 * n)
