import json
import re

import numpy as np
import pytest

from surgdepth import tensor as T
from surgdepth import train as train_mod
from surgdepth.checkpoint import load_checkpoint
from surgdepth.data import SceneSpec, generate_dataset
from surgdepth.errors import NumericError
from surgdepth.losses import cross_entropy_loss
from surgdepth.model import Model, ModelConfig, build_model, param_count
from surgdepth.train import (DECODER_DEPTH_REFERENCE, ablate_decoder_depth,
                             ablate_decoder_input, evaluate, train)


def _toy_cfg(**kw):
    base = dict(image_h=16, image_w=16, patch=4, embed_dim=16, depth_blocks=1,
                heads=2, fusion_k=2, decoder_blocks=1, num_classes=4,
                epochs=100, batch_size=2)
    base.update(kw)
    return ModelConfig(**base)


def _samples(n=4, size=16, seed=0, coupling=0.5):
    return generate_dataset(SceneSpec(depth_coupling=coupling, seed=seed), n,
                            size, size)


def test_zero_lr_leaves_params_unchanged():
    cfg = _toy_cfg(lr=0.0, weight_decay=0.0)
    model = build_model(cfg)
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    train(model, _samples(), None, cfg, max_steps=5, use_augment=False)
    for n, p in model.named_parameters():
        np.testing.assert_array_equal(p.data, before[n])


def test_loss_decreases_on_average():
    """Mean loss over the last 5-step window beats the first window."""
    cfg = _toy_cfg()
    model = build_model(cfg)
    result = train(model, _samples(), None, cfg, max_steps=40, use_augment=False)
    losses = [l for _, l in result.loss_history]
    assert np.mean(losses[-5:]) < np.mean(losses[:5])


def test_training_is_bit_reproducible():
    cfg = _toy_cfg()
    states = []
    for _ in range(2):
        model = build_model(cfg)
        train(model, _samples(), None, cfg, max_steps=10, use_augment=True)
        states.append(model.state_dict())
    for name in states[0]:
        np.testing.assert_array_equal(states[0][name], states[1][name])


def _loss_overflowing_from(step, batch_size):
    """cross_entropy_loss, but infinite from train step ``step`` on."""
    calls = []

    def loss_fn(logits, labels):
        calls.append(None)
        loss = cross_entropy_loss(logits, labels)
        return loss if len(calls) <= step * batch_size else T.mul(loss, np.inf)

    return loss_fn


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_nan_loss_raises_numeric_error(monkeypatch):
    cfg = _toy_cfg(lr=1e12, weight_decay=0.0)
    model = build_model(cfg)
    # the diverged forward aborts inside an op; train names the step
    with pytest.raises(NumericError, match=r"non-finite values at step 1 "
                       r"\(lr=1000000000000.0, previous step's grad_norm=") as info:
        train(model, _samples(), None, cfg, max_steps=50, use_augment=False)
    assert isinstance(info.value.__cause__, NumericError)
    norm = re.search(r"grad_norm=(\S+)\)", str(info.value)).group(1)
    expected = sum(float((p.grad.astype(np.float64) ** 2).sum())
                   for p in model.parameters()) ** 0.5
    assert norm != "0.000e+00" and norm == f"{expected:.3e}"
    # train's own check reports the gradient norm of the last finite step
    cfg = _toy_cfg()
    monkeypatch.setattr(train_mod, "cross_entropy_loss",
                        _loss_overflowing_from(1, cfg.batch_size))
    model = build_model(cfg)
    with pytest.raises(NumericError, match=r"at step 1 ") as info:
        train(model, _samples(), None, cfg, max_steps=50, use_augment=False)
    norm = re.search(r"grad_norm=(\S+)\)", str(info.value)).group(1)
    expected = sum(float((p.grad.astype(np.float64) ** 2).sum())
                   for p in model.parameters()) ** 0.5
    assert expected > 0 and norm == f"{expected:.3e}"


def test_nan_loss_at_step_zero_reports_no_grad_norm(monkeypatch):
    cfg = _toy_cfg()
    monkeypatch.setattr(train_mod, "cross_entropy_loss",
                        _loss_overflowing_from(0, cfg.batch_size))
    with pytest.raises(NumericError, match=r"at step 0 .*grad_norm=n/a\)"):
        train(build_model(cfg), _samples(), None, cfg, max_steps=1,
              use_augment=False)


def test_metrics_jsonl_stream(tmp_path):
    cfg = _toy_cfg(epochs=2)
    model = build_model(cfg)
    path = tmp_path / "metrics.jsonl"
    train(model, _samples(), None, cfg, max_steps=4, use_augment=False,
          metrics_path=str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    steps = [r for r in records if "step" in r]
    epochs = [r for r in records if "epoch" in r]
    assert len(steps) == 4
    assert epochs and all(0.0 <= r["miou"] <= 1.0 for r in epochs)


def test_best_checkpoint_written(tmp_path):
    cfg = _toy_cfg(epochs=2)
    model = build_model(cfg)
    path = tmp_path / "best.ckpt"
    train(model, _samples(), _samples(seed=1), cfg, max_steps=6,
          use_augment=False, ckpt_path=str(path))
    state = load_checkpoint(path)
    assert set(state) == set(dict(model.named_parameters()))


def test_max_steps_respected():
    cfg = _toy_cfg(epochs=1000)
    model = build_model(cfg)
    result = train(model, _samples(), None, cfg, max_steps=7, use_augment=False)
    assert result.steps == 7


def test_evaluate_returns_bounded_miou():
    cfg = _toy_cfg()
    model = build_model(cfg)
    rep = evaluate(model, _samples())
    assert 0.0 <= rep.mean_iou <= 1.0
    assert 0.0 <= rep.pixel_accuracy <= 1.0


def _evaluate_logits(monkeypatch, model, samples):
    """Run evaluate() and keep the logits of each of its forwards."""
    seen = []
    forward = Model.__call__

    def call(self, *args, **kwargs):
        seen.append(forward(self, *args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(Model, "__call__", call)
    evaluate(model, samples)
    monkeypatch.undo()
    return seen


def test_evaluate_builds_no_tape(monkeypatch):
    model = build_model(_toy_cfg())
    logits = _evaluate_logits(monkeypatch, model, _samples(2))
    assert len(logits) == 2
    for out in logits:
        assert not out.requires_grad and out._parents == () and out._vjp is None


def test_evaluate_logits_match_taped_forward(monkeypatch):
    model = build_model(_toy_cfg())
    samples = _samples(2)
    untaped = _evaluate_logits(monkeypatch, model, samples)
    for s, out in zip(samples, untaped):
        taped = model(s.rgb, s.depth)
        assert taped.requires_grad
        np.testing.assert_array_equal(out.data, taped.data)


def test_train_step_after_evaluate_fills_every_grad():
    model = build_model(_toy_cfg())
    s = _samples(1)[0]
    evaluate(model, [s])
    T.backward(cross_entropy_loss(model(s.rgb, s.depth), s.label))
    for name, p in model.named_parameters():
        assert p.grad is not None, name


def test_ablate_decoder_depth_rows():
    cfg = _toy_cfg(epochs=1)
    rows = ablate_decoder_depth(cfg, _samples(2), _samples(2, seed=1),
                                max_steps=1)
    assert [r["blocks"] for r in rows] == [1, 2, 4, 8]
    assert [r["reference_iou"] for r in rows] == [0.843, 0.851, 0.862, 0.856]
    assert rows == sorted(rows, key=lambda r: r["params"])
    for r in rows:
        assert 0.0 <= r["miou"] <= 1.0


def test_ablate_decoder_input_rows():
    cfg = _toy_cfg(epochs=1)
    rows = ablate_decoder_input(cfg, _samples(2), _samples(2, seed=1),
                                max_steps=1)
    assert [r["decoder_input"] for r in rows] == ["rgb_only", "rgb_and_depth"]
    assert rows[0]["params"] < rows[1]["params"]
    for r in rows:
        assert 0.0 <= r["miou"] <= 1.0


def test_reference_table_values():
    assert DECODER_DEPTH_REFERENCE == {1: 0.843, 2: 0.851, 4: 0.862, 8: 0.856}


def test_empty_training_set_rejected():
    cfg = _toy_cfg()
    model = build_model(cfg)
    with pytest.raises(ValueError):
        train(model, [], None, cfg)
