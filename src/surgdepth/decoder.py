"""Shallow ConvNeXt decoder.

Tokens are widened by a linear layer so each one can be reinterpreted
as a (p/4)x(p/4) spatial tile of D/8 channels (pixel-shuffle), giving a
(D/8, H/4, W/4) grid. A stack of ConvNeXt blocks refines the grid, a
1x1 classification convolution maps to class logits, and bilinear
upsampling restores full resolution.
"""

from . import tensor as T
from .errors import ConfigError, ShapeError
from .nn import Conv2d, LayerNorm, Linear, Module


def tokens_to_grid(tokens, h, w, p):
    """(h*w, E) tokens -> (c, h*t, w*t) grid with t = p/4, c = E/t^2.

    Each token vector is read as a t x t row-major tile with the channel
    index fastest; the inverse (grid_to_tokens) recovers it bit-exactly.
    """
    if p % 4:
        raise ConfigError(f"patch size {p} must be divisible by 4")
    t = p // 4
    n, e = tokens.shape
    if n != h * w:
        raise ShapeError(f"token count {n} != {h}x{w}")
    if e % (t * t):
        raise ConfigError(f"token width {e} not divisible by tile area {t * t}")
    c = e // (t * t)
    x = T.reshape(tokens, (h, w, t, t, c))
    x = T.permute(x, (4, 0, 2, 1, 3))  # (c, h, t, w, t)
    return T.reshape(x, (c, h * t, w * t))


def grid_to_tokens(grid, h, w, p):
    """Inverse of tokens_to_grid."""
    t = p // 4
    c = grid.shape[0]
    x = T.reshape(grid, (c, h, t, w, t))
    x = T.permute(x, (1, 3, 2, 4, 0))  # (h, w, t, t, c)
    return T.reshape(x, (h * w, t * t * c))


class ConvNeXtBlock(Module):
    """Residual block: depthwise 7x7 conv, layer norm, 4x pointwise MLP."""

    def __init__(self, dim, rng):
        self.dim = dim
        self.dwconv = Conv2d(dim, dim, 7, padding=3, groups=dim, rng=rng)
        self.norm = LayerNorm(dim)
        self.pw1 = Linear(dim, 4 * dim, rng=rng)
        self.pw2 = Linear(4 * dim, dim, rng=rng)

    def __call__(self, x):
        d, h, w = x.shape
        if d != self.dim:
            raise ShapeError(f"expected {self.dim} channels, got {d}")
        y = self.dwconv(x)
        y = T.reshape(T.permute(y, (1, 2, 0)), (h * w, d))  # channels-last
        y = self.pw2(T.gelu(self.pw1(self.norm(y))))
        y = T.permute(T.reshape(y, (h, w, d)), (2, 0, 1))
        return T.add(x, y)


class Decoder(Module):
    """Expand -> pixel-shuffle reshape -> ConvNeXt blocks -> 1x1 head -> upsample."""

    def __init__(self, in_dim, patch, num_classes, rng, n_blocks=4):
        if in_dim % 8:
            raise ConfigError(f"decoder input dim {in_dim} must be divisible by 8")
        if patch % 4:
            raise ConfigError(f"patch size {patch} must be divisible by 4")
        self.patch = patch
        t = patch // 4
        self.grid_dim = in_dim // 8
        self.expand = Linear(in_dim, t * t * self.grid_dim, rng=rng)
        self.blocks = [ConvNeXtBlock(self.grid_dim, rng=rng)
                       for _ in range(n_blocks)]
        self.head = Conv2d(self.grid_dim, num_classes, 1, rng=rng)

    def __call__(self, tokens, h, w, out_h, out_w):
        if out_h != self.patch * h or out_w != self.patch * w:
            raise ShapeError(
                f"output {out_h}x{out_w} inconsistent with {h}x{w} tokens at patch {self.patch}")
        x = self.expand(tokens)
        grid = tokens_to_grid(x, h, w, self.patch)  # (D/8, H/4, W/4)
        for block in self.blocks:
            grid = block(grid)
        logits = self.head(grid)
        return T.bilinear_resize(logits, out_h, out_w)
