"""Patch embedding and the pre-norm ViT encoder over concatenated
RGB and depth token streams.

The two modality streams (h*w tokens each) get separate learned
positional embeddings, are concatenated along the token axis into a
2*h*w sequence, run through the transformer stack plus a final norm,
and are split back into per-modality streams.
"""

import math

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .fusion import grid_from_chw
from .nn import Conv2d, LayerNorm, Linear


class PatchEmbed:
    """Non-overlapping patch projection: a single strided convolution."""

    def __init__(self, in_channels, embed_dim, patch, rng=None, dtype=np.float32):
        self.patch = patch
        self.conv = Conv2d(in_channels, embed_dim, patch, stride=patch,
                           rng=rng, dtype=dtype)

    def __call__(self, img):
        _, h, w = img.shape
        if h % self.patch or w % self.patch:
            raise ShapeError(f"image {h}x{w} not divisible by patch {self.patch}")
        return grid_from_chw(self.conv(img))

    def named_parameters(self, prefix=""):
        yield from self.conv.named_parameters(prefix + "conv.")


class MultiHeadSelfAttention:
    def __init__(self, dim, heads, rng=None, dtype=np.float32):
        if dim % heads:
            raise ConfigError(f"heads ({heads}) must divide dim ({dim})")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.qkv = Linear(dim, 3 * dim, rng=rng, dtype=dtype)
        self.proj = Linear(dim, dim, rng=rng, dtype=dtype)

    def __call__(self, x):
        n, c = x.shape
        qkv = self.qkv(x)  # (n, 3C)
        q = self._split_heads(T.slice_axis(qkv, 1, 0, c))
        k = self._split_heads(T.slice_axis(qkv, 1, c, 2 * c))
        v = self._split_heads(T.slice_axis(qkv, 1, 2 * c, 3 * c))
        scale = 1.0 / math.sqrt(self.head_dim)
        attn = T.softmax(T.matmul(q, T.permute(k, (0, 2, 1))), axis=-1, scale=scale)
        out = T.matmul(attn, v)                                 # (heads, n, hd)
        out = T.reshape(T.permute(out, (1, 0, 2)), (n, c))
        return self.proj(out)

    def _split_heads(self, x):
        n = x.shape[0]
        return T.permute(T.reshape(x, (n, self.heads, self.head_dim)), (1, 0, 2))

    def named_parameters(self, prefix=""):
        yield from self.qkv.named_parameters(prefix + "qkv.")
        yield from self.proj.named_parameters(prefix + "proj.")


class TransformerBlock:
    """Pre-norm ViT block: x + attn(norm1(x)), then + mlp(norm2(.))."""

    def __init__(self, dim, heads, mlp_ratio=4, rng=None, dtype=np.float32):
        self.norm1 = LayerNorm(dim, dtype=dtype)
        self.attn = MultiHeadSelfAttention(dim, heads, rng=rng, dtype=dtype)
        self.norm2 = LayerNorm(dim, dtype=dtype)
        self.fc1 = Linear(dim, mlp_ratio * dim, rng=rng, dtype=dtype)
        self.fc2 = Linear(mlp_ratio * dim, dim, rng=rng, dtype=dtype)

    def __call__(self, x):
        x = T.add(x, self.attn(self.norm1(x)))
        return T.add(x, self.fc2(T.gelu(self.fc1(self.norm2(x)))))

    def named_parameters(self, prefix=""):
        yield from self.norm1.named_parameters(prefix + "norm1.")
        yield from self.attn.named_parameters(prefix + "attn.")
        yield from self.norm2.named_parameters(prefix + "norm2.")
        yield from self.fc1.named_parameters(prefix + "mlp.fc1.")
        yield from self.fc2.named_parameters(prefix + "mlp.fc2.")


class Encoder:
    """Transformer stack over the concatenated 2*h*w token sequence."""

    def __init__(self, dim, depth, heads, n_tokens, rng=None, dtype=np.float32):
        self.dim = dim
        self.n_tokens = n_tokens
        self.pos_embed_rgb = T.Tensor(np.zeros((n_tokens, dim), dtype=dtype),
                                      requires_grad=True)
        self.pos_embed_depth = T.Tensor(np.zeros((n_tokens, dim), dtype=dtype),
                                        requires_grad=True)
        self.blocks = [TransformerBlock(dim, heads, rng=rng, dtype=dtype)
                       for _ in range(depth)]
        self.final_norm = LayerNorm(dim, dtype=dtype)

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

    def named_parameters(self, prefix=""):
        yield prefix + "pos_embed_rgb", self.pos_embed_rgb
        yield prefix + "pos_embed_depth", self.pos_embed_depth
        for i, block in enumerate(self.blocks):
            yield from block.named_parameters(f"{prefix}blocks.{i}.")
        yield from self.final_norm.named_parameters(prefix + "final_norm.")
