"""Small parameterized layers built on the tensor core.

Each layer owns its parameter Tensors and exposes ``named_parameters``
yielding (name, Tensor) pairs in a stable order; the model wires these
into optimizer and checkpoint code.
"""

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .rng import trunc_normal


class Linear:
    """y = x @ w + b with w of shape (in_features, out_features)."""

    def __init__(self, in_features, out_features, rng=None, dtype=np.float32,
                 zero_init=False):
        self.in_features = in_features
        self.out_features = out_features
        if zero_init:
            w = np.zeros((in_features, out_features), dtype=dtype)
        else:
            w = trunc_normal(rng, (in_features, out_features), dtype=dtype)
        self.w = T.Tensor(w, requires_grad=True)
        self.b = T.Tensor(np.zeros(out_features, dtype=dtype), requires_grad=True)

    def __call__(self, x):
        return T.add(T.matmul(x, self.w), self.b)

    def named_parameters(self, prefix=""):
        yield prefix + "w", self.w
        yield prefix + "b", self.b


class LayerNorm:
    def __init__(self, dim, dtype=np.float32):
        self.gamma = T.Tensor(np.ones(dim, dtype=dtype), requires_grad=True)
        self.beta = T.Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)

    def __call__(self, x):
        return T.layer_norm(x, self.gamma, self.beta)

    def named_parameters(self, prefix=""):
        yield prefix + "gamma", self.gamma
        yield prefix + "beta", self.beta


class Conv2d:
    def __init__(self, in_channels, out_channels, kernel_size, stride=1,
                 padding=0, groups=1, rng=None, dtype=np.float32, zero_init=False):
        if in_channels % groups or out_channels % groups:
            raise ConfigError("channels must be divisible by groups")
        self.stride = stride
        self.padding = padding
        self.groups = groups
        shape = (out_channels, in_channels // groups, kernel_size, kernel_size)
        w = np.zeros(shape, dtype=dtype) if zero_init else trunc_normal(rng, shape, dtype=dtype)
        self.w = T.Tensor(w, requires_grad=True)
        self.b = T.Tensor(np.zeros(out_channels, dtype=dtype), requires_grad=True)

    def __call__(self, x):
        return T.conv2d(x, self.w, self.b, stride=self.stride,
                        padding=self.padding, groups=self.groups)

    def named_parameters(self, prefix=""):
        yield prefix + "w", self.w
        yield prefix + "b", self.b
