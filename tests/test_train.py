import functools
import json
import re
import weakref

import numpy as np
import pytest

from surgdepth import tensor as T
from surgdepth import train as train_mod
from surgdepth.checkpoint import load_checkpoint
from surgdepth.data import SceneSpec, augment, generate_dataset
from surgdepth.errors import DataError, NumericError, UsageError
from surgdepth.losses import cross_entropy_loss
from surgdepth.metrics import MetricsReport
from surgdepth.model import Model, ModelConfig, build_model, param_count
from surgdepth.optim import AdamW
from surgdepth.rng import make_rng
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


@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered in matmul")
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


def test_loss_overflow_at_a_later_sample_reports_the_partial_grad_norm(monkeypatch):
    """The loss overflows at the second sample of step 1: the first sample
    has been backpropagated, so the grads hold that sample's share."""
    cfg = _toy_cfg()
    calls = []

    def loss_fn(logits, labels):
        calls.append(None)
        loss = cross_entropy_loss(logits, labels)
        return T.mul(loss, np.inf) if len(calls) == cfg.batch_size + 2 else loss

    monkeypatch.setattr(train_mod, "cross_entropy_loss", loss_fn)
    model = build_model(cfg)
    with pytest.raises(NumericError, match=r"NaN/Inf loss at step 1 \(lr=0.001, "
                       r"grad_norm of this step's first 1 samples=") as info:
        train(model, _samples(), None, cfg, max_steps=50, use_augment=False)
    norm = re.search(r"samples=(\S+)\)", str(info.value)).group(1)
    expected = sum(float((p.grad.astype(np.float64) ** 2).sum())
                   for p in model.parameters()) ** 0.5
    assert expected > 0 and norm == f"{expected:.3e}"
    # the held grads are the first sample's, scaled by 1/batch
    samples = _samples()
    batch = make_rng(cfg.seed).permutation(len(samples))[cfg.batch_size:]
    ref = build_model(cfg)
    ref.load_state_dict(model.state_dict())
    s = samples[batch[0]]
    T.backward(T.mul(cross_entropy_loss(ref(s.rgb, s.depth), s.label),
                     np.float32(1 / cfg.batch_size)))
    for (name, p), (_, q) in zip(model.named_parameters(), ref.named_parameters()):
        assert p.grad.tobytes() == q.grad.tobytes(), name


@pytest.mark.parametrize("use_augment", [False, True], ids=["plain", "augment"])
@pytest.mark.parametrize("batch_size", [1, 2, 3, 4])
def test_step_equals_one_backward_of_the_batch_loss(batch_size, use_augment):
    """One step's grads and logged loss are bit-identical to one backward
    of the mean loss, folded with T.add over the batch in order."""
    cfg = _toy_cfg(batch_size=batch_size, epochs=1)
    samples = _samples()
    model = build_model(cfg)
    result = train(model, samples, None, cfg, max_steps=1, use_augment=use_augment)
    ref = build_model(cfg)
    rng = make_rng(cfg.seed)
    losses = []
    for i in rng.permutation(len(samples))[:batch_size]:
        s = augment(samples[i], rng) if use_augment else samples[i]
        losses.append(cross_entropy_loss(ref(s.rgb, s.depth), s.label))
    loss = T.mul(functools.reduce(T.add, losses), 1.0 / len(losses))
    T.backward(loss)
    assert result.loss_history == [(1, loss.item())]
    for (name, p), (_, q) in zip(model.named_parameters(), ref.named_parameters()):
        assert p.grad.tobytes() == q.grad.tobytes(), name


def test_step_graph_freed_when_the_step_ends(monkeypatch):
    """At every forward, no earlier forward's logits is alive, within a
    step or across steps: each sample's graph is freed before the next
    forward. Only evaluate()'s untaped logits may outlive the next
    untaped forward. The tape has no reference cycles, so this holds with
    no gc.collect(). Tensor takes no weakref (it has __slots__), so each
    logits' data array is watched: only the logits Tensor and the graph
    on it hold that array."""
    steps, seen = [0], []   # optimizer steps done; (taped, weakref) per forward
    forward, opt_step = Model.__call__, AdamW.step

    def call(self, *args, **kwargs):
        taped = T._grad_enabled
        alive = [n for n, (was_taped, ref) in enumerate(seen)
                 if (taped or was_taped) and ref() is not None]
        assert not alive, f"logits of forwards {alive} alive at forward {len(seen)}"
        out = forward(self, *args, **kwargs)
        seen.append((taped, weakref.ref(out.data)))
        return out

    def step(self):
        opt_step(self)
        steps[0] += 1

    monkeypatch.setattr(Model, "__call__", call)
    monkeypatch.setattr(AdamW, "step", step)
    cfg = _toy_cfg()
    train(build_model(cfg), _samples(), None, cfg, max_steps=4)
    assert steps[0] == 4 and sum(taped for taped, _ in seen) == 8   # 2 per step
    assert len(seen) > 8   # then evaluation


def test_negative_max_steps_rejected():
    cfg = _toy_cfg()
    with pytest.raises(UsageError, match="max_steps must be at least 0, got -5"):
        train(build_model(cfg), _samples(), None, cfg, max_steps=-5)


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


def test_checkpoint_written_when_an_epoch_becomes_best(tmp_path, monkeypatch):
    """Scripted mIoU 0.5, 0.7, 0.7, then an abort in epoch 3: the file
    holds epoch 2's weights, since a tie goes to the later epoch and each
    best epoch is written when it is scored."""
    mious = iter([0.5, 0.7, 0.7])

    def scripted(model, samples):
        miou = next(mious, None)
        if miou is None:
            raise NumericError("scripted abort")
        return MetricsReport(mean_iou=miou)

    weights = []

    def log(message):
        if message.startswith("epoch"):
            weights.append({n: p.data.copy() for n, p in model.named_parameters()})

    monkeypatch.setattr(train_mod, "evaluate", scripted)
    cfg = _toy_cfg(epochs=5)
    model = build_model(cfg)
    path = tmp_path / "best.ckpt"
    with pytest.raises(NumericError, match="scripted abort"):
        train(model, _samples(), None, cfg, use_augment=False, ckpt_path=str(path),
              log=log)
    assert len(weights) == 3
    state = load_checkpoint(path)
    for name, arr in weights[2].items():
        assert state[name].tobytes() == arr.tobytes(), name
    assert any(weights[1][n].tobytes() != a.tobytes() for n, a in weights[2].items())


def test_max_steps_respected():
    cfg = _toy_cfg(epochs=1000)
    model = build_model(cfg)
    result = train(model, _samples(), None, cfg, max_steps=7, use_augment=False)
    assert result.steps == 7


def test_zero_max_steps_trains_nothing(tmp_path):
    cfg = _toy_cfg()
    model = build_model(cfg)
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    result = train(model, _samples(), None, cfg, max_steps=0,
                   ckpt_path=str(tmp_path / "best.ckpt"))
    assert result.steps == 0
    assert result.loss_history == [] and result.val_history == []
    assert not (tmp_path / "best.ckpt").exists()
    for n, p in model.named_parameters():
        assert p.data.tobytes() == before[n].tobytes(), n


@pytest.mark.parametrize("max_steps, epochs", [(1, [0]), (2, [0]), (3, [0, 1]), (4, [0, 1])])
def test_cap_evaluates_each_epoch_it_stepped_in_once(max_steps, epochs):
    # 4 samples at batch 2: two steps per epoch, so caps 2 and 4 end an epoch
    result = train(build_model(_toy_cfg()), _samples(), None, _toy_cfg(),
                   max_steps=max_steps, use_augment=False)
    assert result.steps == max_steps
    assert [e for e, _ in result.val_history] == epochs


def test_evaluate_rejects_an_empty_sample_list():
    with pytest.raises(DataError, match="empty evaluation set"):
        evaluate(build_model(_toy_cfg()), [])


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
        assert not out.requires_grad and out._node is None


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
