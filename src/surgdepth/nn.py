"""Small parameterized layers built on the tensor core.

Every layer is a ``Module``. ``Module.named_parameters(prefix)`` walks
the layer's attributes in assignment order and yields (name, Tensor)
pairs: a Tensor with ``requires_grad`` as ``prefix + attr``, a Module
attribute walked under ``prefix + attr + "."``, and a list attribute,
which holds Modules, walked item by item under
``prefix + attr + "." + index + "."``. Other attributes are skipped. So the order in which ``__init__``
assigns parameters and child layers is the state-dict order, the
optimizer's order and the checkpoint layout.

Layers hold float32 parameters. ``Module.astype(np.float64)`` casts
them in place, which is how gradient checks get a float64 model.
"""

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .rng import trunc_normal


class Module:
    def named_parameters(self, prefix=""):
        for attr, value in vars(self).items():
            if isinstance(value, T.Tensor):
                if value.requires_grad:
                    yield prefix + attr, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{prefix}{attr}.")
            elif isinstance(value, list):
                for i, module in enumerate(value):
                    yield from module.named_parameters(f"{prefix}{attr}.{i}.")

    def astype(self, dtype):
        """Cast every parameter's data to ``dtype`` in place; returns self."""
        for _, p in self.named_parameters():
            p.data = p.data.astype(dtype)
        return self


class Linear(Module):
    """y = x @ w + b with w of shape (in_features, out_features)."""

    def __init__(self, in_features, out_features, rng):
        self.w = T.Tensor(trunc_normal(rng, (in_features, out_features)), requires_grad=True)
        self.b = T.Tensor(np.zeros(out_features, np.float32), requires_grad=True)

    def __call__(self, x):
        return T.add(T.matmul(x, self.w), self.b)


class LayerNorm(Module):
    def __init__(self, dim):
        self.gamma = T.Tensor(np.ones(dim, np.float32), requires_grad=True)
        self.beta = T.Tensor(np.zeros(dim, np.float32), requires_grad=True)

    def __call__(self, x):
        return T.layer_norm(x, self.gamma, self.beta)


class Conv2d(Module):
    def __init__(self, in_channels, out_channels, kernel_size, rng, stride=1,
                 padding=0, groups=1):
        if in_channels % groups or out_channels % groups:
            raise ConfigError("channels must be divisible by groups")
        self.stride = stride
        self.padding = padding
        self.groups = groups
        shape = (out_channels, in_channels // groups, kernel_size, kernel_size)
        self.w = T.Tensor(trunc_normal(rng, shape), requires_grad=True)
        self.b = T.Tensor(np.zeros(out_channels, np.float32), requires_grad=True)

    def __call__(self, x):
        return T.conv2d(x, self.w, self.b, stride=self.stride,
                        padding=self.padding, groups=self.groups)
