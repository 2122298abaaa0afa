import hashlib

import numpy as np
import pytest

from surgdepth import rng as rng_mod
from surgdepth import tensor as T
from surgdepth.errors import ConfigError, ShapeError
from surgdepth.model import (ModelConfig, build_model, full_vitb_config,
                             param_count)
from surgdepth.rng import DeferredInit, make_rng, trunc_normal


def _toy_cfg(**kw):
    base = dict(image_h=16, image_w=16, patch=4, embed_dim=16, depth_blocks=1,
                heads=2, fusion_k=2, decoder_blocks=1, num_classes=3)
    base.update(kw)
    return ModelConfig(**base)


def _inputs(cfg, seed=0):
    rng = make_rng(seed)
    rgb = rng.random((3, cfg.image_h, cfg.image_w)).astype(np.float32)
    depth = rng.random((1, cfg.image_h, cfg.image_w)).astype(np.float32)
    return rgb, depth


def test_forward_shape():
    cfg = _toy_cfg()
    model = build_model(cfg)
    out = model(*_inputs(cfg))
    assert out.shape == (3, 16, 16)


def test_forward_deterministic_for_seed():
    cfg = _toy_cfg()
    rgb, depth = _inputs(cfg)
    a = build_model(cfg)(rgb, depth).data
    b = build_model(cfg)(rgb, depth).data
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    cfg = _toy_cfg()
    rgb, depth = _inputs(cfg)
    a = build_model(_toy_cfg(seed=0))(rgb, depth).data
    b = build_model(_toy_cfg(seed=1))(rgb, depth).data
    assert not np.array_equal(a, b)


def test_rejects_bad_input_shapes():
    cfg = _toy_cfg()
    model = build_model(cfg)
    rgb, depth = _inputs(cfg)
    with pytest.raises(ShapeError):
        model(rgb[:, :8], depth)
    with pytest.raises(ShapeError):
        model(rgb, depth[:, :8])


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(image_h=30).validate()          # not divisible by patch
    with pytest.raises(ConfigError):
        ModelConfig(patch=6, image_h=66, image_w=66).validate()
    with pytest.raises(ConfigError):
        ModelConfig(embed_dim=60).validate()        # not divisible by 8
    with pytest.raises(ConfigError):
        ModelConfig(heads=5).validate()
    with pytest.raises(ConfigError):
        ModelConfig(decoder_input="both").validate()
    with pytest.raises(ConfigError):
        ModelConfig(fusion_k=9).validate()          # exceeds 8x8 token grid


def test_logits_depend_on_depth():
    """A fused model's prediction changes when only the depth changes."""
    cfg = _toy_cfg()
    model = build_model(cfg)
    rgb, depth = _inputs(cfg)
    other_depth = make_rng(99).random(depth.shape).astype(np.float32)
    assert not np.array_equal(model(rgb, depth).data, model(rgb, other_depth).data)


def test_state_dict_round_trip():
    cfg = _toy_cfg()
    src = build_model(_toy_cfg(seed=1))
    dst = build_model(_toy_cfg(seed=2))
    dst.load_state_dict(src.state_dict())
    rgb, depth = _inputs(cfg)
    np.testing.assert_array_equal(src(rgb, depth).data, dst(rgb, depth).data)


def test_load_state_dict_does_not_alias_caller_arrays():
    cfg = _toy_cfg()
    model = build_model(cfg)
    state = build_model(_toy_cfg(seed=1)).state_dict()
    model.load_state_dict(state)
    rgb, depth = _inputs(cfg)
    before = model(rgb, depth).data
    for arr in state.values():
        arr += 1.0
    np.testing.assert_array_equal(model(rgb, depth).data, before)


def test_load_state_dict_rejects_mismatch():
    src = build_model(_toy_cfg(decoder_blocks=2))
    dst = build_model(_toy_cfg())
    with pytest.raises(ConfigError):
        dst.load_state_dict(src.state_dict())


def _failing_state(seed=1):
    """A full state dict whose last parameter has the wrong shape."""
    state = build_model(_toy_cfg(seed=seed)).state_dict()
    last = list(state)[-1]
    state[last] = np.zeros(state[last].size + 1, np.float32)
    return state


def test_failed_load_state_dict_changes_nothing():
    model = build_model(_toy_cfg())
    before = model.state_dict()
    with pytest.raises(ConfigError):
        model.load_state_dict(_failing_state())
    for name, arr in model.state_dict().items():
        np.testing.assert_array_equal(arr, before[name])


def test_failed_load_keeps_deferred_init():
    model = build_model(_toy_cfg())
    with pytest.raises(ConfigError):
        model.load_state_dict(_failing_state())
    fresh = build_model(_toy_cfg()).state_dict()
    for name, arr in model.state_dict().items():
        np.testing.assert_array_equal(arr, fresh[name])


def test_default_init_digest_is_pinned():
    """Seed-0 toy init, as drawn eagerly before the init was deferred."""
    h = hashlib.sha256()
    for name, arr in build_model(ModelConfig(seed=0)).state_dict().items():
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    assert h.hexdigest() == "3c7b35a631f2ef48084c344314fc913c64afd0e2a9673a1b11976ab0b1b51cf8"


@pytest.mark.parametrize("cfg, count, digest", [
    (ModelConfig(decoder_input="rgb_and_depth"), 78,
     "b36b98cf20b1022213344dbca087df2c09b8704e0cab67c1c0c2a60e962a96be"),
    (full_vitb_config(), 198,
     "b34bfa5831a8dd8305f03219299f782f9b4b5998a1227aae7b2c9ba1dded5905"),
], ids=["toy-rgb_and_depth", "full-vitb"])
def test_parameter_layout_is_pinned(cfg, count, digest):
    """(name, shape) in state-dict order: the checkpoint layout. Read
    without drawing the init, so the ViT-B pin costs milliseconds."""
    layout = [(name, p.shape) for name, p in build_model(cfg)._named_parameters()]
    assert len(layout) == count
    assert hashlib.sha256(repr(layout).encode()).hexdigest() == digest


def test_float64_model_runs_every_op_in_float64(monkeypatch):
    """Patch embeddings included: the inputs are not rounded to float32."""
    dtypes = []
    from_op = T.Tensor._from_op.__func__

    def record(cls, data, parents, vjp):
        dtypes.append(np.asarray(data).dtype)
        return from_op(cls, data, parents, vjp)

    monkeypatch.setattr(T.Tensor, "_from_op", classmethod(record))
    cfg = _toy_cfg()
    build_model(cfg, dtype=np.float64)(*_inputs(cfg))
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}


def test_float64_model_is_the_float32_init_cast():
    cfg = _toy_cfg()
    ref = build_model(cfg).state_dict()
    got = build_model(cfg, dtype=np.float64).state_dict()
    assert list(got) == list(ref)
    for name, arr in ref.items():
        assert got[name].dtype == np.float64
        np.testing.assert_array_equal(got[name], arr.astype(np.float64))


def test_deferred_trunc_normal_replays_eager_draws():
    shapes = [(3, 4), (5,), (2, 3, 7, 7)]
    rng = make_rng(7)
    eager = [trunc_normal(rng, s, std=0.5) for s in shapes]
    init = DeferredInit()
    deferred = [trunc_normal(init, s, std=0.5) for s in shapes]
    init.replay(make_rng(7))
    for a, b in zip(eager, deferred):
        assert b.dtype == np.float32
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("read", ["forward", "parameters", "state_dict"])
def test_first_read_draws_init(read):
    cfg = _toy_cfg()
    reference = build_model(cfg).state_dict()
    model = build_model(cfg)
    if read == "forward":
        model(*_inputs(cfg))
    else:
        getattr(model, read)()
    for name, p in model._named_parameters():
        np.testing.assert_array_equal(p.data, reference[name])


def test_param_count_draws_nothing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a deferred init was drawn")

    monkeypatch.setattr(rng_mod, "_fill_trunc_normal", no_draws)
    assert param_count(build_model(_toy_cfg())) > 0


def test_param_names_unique():
    model = build_model(_toy_cfg())
    names = [n for n, _ in model.named_parameters()]
    assert len(names) == len(set(names))


def test_param_count_matches_manual_sum():
    model = build_model(_toy_cfg())
    total, per_module = param_count(model, breakdown=True)
    assert total == sum(p.size for _, p in model.named_parameters())
    assert total == sum(per_module.values())
    assert set(per_module) == {"patch_embed_rgb", "patch_embed_depth",
                               "fusion", "encoder", "decoder"}


def test_rgb_and_depth_decoder_has_more_params():
    a = param_count(build_model(_toy_cfg()))
    b = param_count(build_model(_toy_cfg(decoder_input="rgb_and_depth")))
    assert b > a


def test_full_vitb_geometry():
    cfg = full_vitb_config()
    assert (cfg.image_h, cfg.image_w) == (480, 640)
    assert cfg.embed_dim == 768 and cfg.depth_blocks == 12 and cfg.heads == 12
    assert cfg.patch == 16 and cfg.num_classes == 9
    cfg.validate()
