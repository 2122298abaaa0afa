"""Full model assembly: patch embeddings, fusion block, ViT encoder,
ConvNeXt decoder, plus parameter counting."""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .decoder import Decoder
from .encoder import Encoder, PatchEmbed
from .errors import ConfigError, ShapeError
from .fusion import FusionBlock
from .nn import Module
from .rng import DeferredInit, make_rng

DECODER_INPUTS = ("rgb_only", "rgb_and_depth")


@dataclass
class ModelConfig:
    image_h: int = 64
    image_w: int = 64
    patch: int = 8
    embed_dim: int = 64
    depth_blocks: int = 2
    heads: int = 4
    fusion_k: int = 7
    fusion_dim: int | None = None  # defaults to 2 * embed_dim
    decoder_blocks: int = 4
    num_classes: int = 4
    decoder_input: str = "rgb_only"
    seed: int = 0
    lr: float = 1e-3
    weight_decay: float = 0.05
    epochs: int = 50
    batch_size: int = 2

    def validate(self):
        for name, low in (("image_h", 1), ("image_w", 1), ("patch", 1), ("embed_dim", 1),
                          ("depth_blocks", 0), ("heads", 1), ("fusion_k", 1),
                          ("decoder_blocks", 0), ("num_classes", 1), ("seed", 0),
                          ("batch_size", 1), ("epochs", 0), ("lr", 0), ("weight_decay", 0)):
            value = getattr(self, name)
            if not low <= value < np.inf:  # NaN fails too
                raise ConfigError(f"{name} must be finite and at least {low}, got {value}")
        if self.fusion_dim is not None and self.fusion_dim < 1:
            raise ConfigError(f"fusion_dim must be at least 1, got {self.fusion_dim}")
        if self.image_h % self.patch or self.image_w % self.patch:
            raise ConfigError("image dims must be divisible by patch size")
        if self.patch % 4:
            raise ConfigError("patch size must be divisible by 4")
        if self.embed_dim % 8:
            raise ConfigError("embed_dim must be divisible by 8")
        if self.embed_dim % self.heads:
            raise ConfigError("heads must divide embed_dim")
        if self.decoder_input not in DECODER_INPUTS:
            raise ConfigError(f"decoder_input must be one of {DECODER_INPUTS}")
        if self.fusion_k > min(self.grid_h, self.grid_w):
            raise ConfigError(
                f"fusion_k {self.fusion_k} exceeds token grid {self.grid_h}x{self.grid_w}")
        return self

    @property
    def grid_h(self):
        return self.image_h // self.patch

    @property
    def grid_w(self):
        return self.image_w // self.patch


def full_vitb_config(decoder_input="rgb_only"):
    """ViT-B configuration at the reference 480x640 resolution."""
    return ModelConfig(image_h=480, image_w=640, patch=16, embed_dim=768,
                       depth_blocks=12, heads=12, fusion_k=7,
                       decoder_blocks=4, num_classes=9,
                       decoder_input=decoder_input)


class Model(Module):
    """RGB and depth patch embeddings, fusion block, ViT encoder, decoder.

    Weights are drawn on first use. The build records every random init;
    the first call, ``named_parameters``/``parameters`` or
    ``state_dict`` replays the records from ``make_rng(cfg.seed)``, which
    gives the same values, bit for bit, as drawing them during the build.
    A load that replaces every parameter before that (``load_state_dict``,
    ``checkpoint.load_model``) drops the records, so those draws never run.
    A float64 model is the float32 build cast with ``Module.astype``, so
    it draws its init at build.
    """

    def __init__(self, cfg, dtype=np.float32):
        cfg.validate()
        self.cfg = cfg
        self.dtype = dtype
        self._init = rng = DeferredInit()
        c = cfg.embed_dim
        self.patch_embed_rgb = PatchEmbed(3, c, cfg.patch, rng=rng)
        self.patch_embed_depth = PatchEmbed(1, c, cfg.patch, rng=rng)
        self.fusion = FusionBlock(c, attn_dim=cfg.fusion_dim, k=cfg.fusion_k,
                                  rng=rng)
        self.encoder = Encoder(c, cfg.depth_blocks, cfg.heads,
                               n_tokens=cfg.grid_h * cfg.grid_w, rng=rng)
        dec_dim = c if cfg.decoder_input == "rgb_only" else 2 * c
        self.decoder = Decoder(dec_dim, cfg.patch, cfg.num_classes,
                               n_blocks=cfg.decoder_blocks, rng=rng)
        if dtype != np.float32:
            self.astype(dtype)

    def __call__(self, rgb, depth):
        """rgb (3,H,W), depth (1,H,W) -> logits (num_classes, H, W).

        A depth-blind control is this model fed all-zero depth: the depth
        embedding is then a constant, so the logits depend on RGB alone.
        """
        self._materialize()
        cfg = self.cfg
        rgb = T.as_tensor(np.asarray(rgb, dtype=self.dtype))
        depth = T.as_tensor(np.asarray(depth, dtype=self.dtype))
        if rgb.shape != (3, cfg.image_h, cfg.image_w):
            raise ShapeError(f"expected rgb (3,{cfg.image_h},{cfg.image_w}), got {rgb.shape}")
        if depth.shape != (1, cfg.image_h, cfg.image_w):
            raise ShapeError(f"expected depth (1,{cfg.image_h},{cfg.image_w}), got {depth.shape}")
        g_rgb = self.patch_embed_rgb(rgb)
        g_depth = self.patch_embed_depth(depth)
        g_rgb, g_depth = self.fusion(g_rgb, g_depth)
        rgb_tokens, depth_tokens = self.encoder(g_rgb, g_depth)
        if cfg.decoder_input == "rgb_only":
            dec_in = rgb_tokens
        else:
            dec_in = T.concat([rgb_tokens, depth_tokens], axis=1)
        return self.decoder(dec_in, cfg.grid_h, cfg.grid_w)

    def _materialize(self):
        if self._init.draws:
            self._init.replay(make_rng(self.cfg.seed))

    _named_parameters = Module.named_parameters  # draws nothing

    def named_parameters(self):
        self._materialize()
        yield from self._named_parameters()

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def state_dict(self):
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state):
        self.load_parameters({name: arr.shape for name, arr in state.items()},
                             lambda name, dst: np.copyto(dst, state[name], casting="unsafe"))

    def load_parameters(self, shapes, write):
        """Overwrite every parameter in place, all or nothing.

        ``shapes`` maps each parameter name to its shape. Every name and
        shape is checked first, so a mismatch raises ConfigError with no
        parameter changed. Then ``write(name, array)`` fills each
        parameter's own array, and the deferred init is dropped.
        """
        own = dict(self._named_parameters())
        if set(shapes) != set(own):
            missing = set(own) - set(shapes)
            extra = set(shapes) - set(own)
            raise ConfigError(f"checkpoint mismatch: missing={sorted(missing)}, extra={sorted(extra)}")
        for name, shape in shapes.items():
            if tuple(shape) != own[name].shape:
                raise ConfigError(f"shape mismatch for {name}: {tuple(shape)} vs {own[name].shape}")
        for name in shapes:
            write(name, own[name].data)
        self._init.discard()


def build_model(cfg, dtype=np.float32):
    return Model(cfg, dtype=dtype)


def param_count(model, breakdown=False):
    """Exact count of learnable scalars; optionally per top-level module."""
    per_module = {}
    total = 0
    for name, p in model._named_parameters():  # shapes only: no draws
        top = name.split(".", 1)[0]
        per_module[top] = per_module.get(top, 0) + p.size
        total += p.size
    if breakdown:
        return total, per_module
    return total
