"""Training / evaluation loops and the ablation harness."""

import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .checkpoint import save_checkpoint as save_model  # the name perfbench traces
from .data import augment
from .errors import DataError, NumericError, UsageError
from .losses import cross_entropy_loss
from .metrics import ConfusionAccumulator
from .model import build_model, param_count
from .optim import AdamW
from .rng import make_rng

# Reference results reported on SAR-RARP50; displayed for context only,
# never asserted against toy-scale runs.
DECODER_DEPTH_REFERENCE = {1: 0.843, 2: 0.851, 4: 0.862, 8: 0.856}
DECODER_INPUT_REFERENCE = {"rgb_only": 0.862, "rgb_and_depth": 0.823}
REFERENCE_NOTE = "reported on SAR-RARP50 (not reproduced here)"


@dataclass
class TrainResult:
    loss_history: list = field(default_factory=list)   # (step, loss)
    val_history: list = field(default_factory=list)    # (epoch, miou)
    best_val_miou: float = 0.0
    steps: int = 0
    wall_seconds: float = 0.0


def evaluate(model, samples, baseline_rgb_only=False):
    acc = ConfusionAccumulator(model.cfg.num_classes)
    with T.no_grad():
        for s in samples:
            logits = model(s.rgb, s.depth, baseline_rgb_only=baseline_rgb_only)
            pred = logits.data.argmax(axis=0).astype(np.int32)
            acc.add(pred, s.label)
    return acc.report()


def _at_step(step, done, lr, opt):
    """Where a numeric abort happened, for its message; ``done`` samples of
    the step had been backpropagated."""
    if done:   # grads hold this step's partial sum
        return (f"at step {step} (lr={lr}, grad_norm of this step's first "
                f"{done} samples={opt.grad_norm():.3e})")
    # grads still hold the previous step's; none before step 1
    norm = f"{opt.grad_norm():.3e}" if step else "n/a"
    return f"at step {step} (lr={lr}, previous step's grad_norm={norm})"


def check_max_steps(max_steps):
    """Raise UsageError for a step cap below 0 (None means no cap)."""
    if max_steps is not None and max_steps < 0:
        raise UsageError(f"max_steps must be at least 0, got {max_steps}")


def train(model, train_samples, val_samples, cfg, *, max_steps=None,
          use_augment=True, baseline_rgb_only=False, metrics_path=None,
          ckpt_path=None, log=None):
    """Seeded minibatch training; returns a TrainResult.

    Best checkpoint (by validation mIoU) is written to ckpt_path when
    given; metrics stream to metrics_path as line-delimited JSON.
    ``max_steps`` caps the optimizer steps; at 0 nothing is trained or
    evaluated. Each sample's loss is backpropagated as soon as it is
    known, scaled by 1/batch, and its autodiff graph (logits, loss, saved
    activations) is released before the next sample's forward, so memory
    holds one sample's graph at a time. Every parameter has one consumer
    per forward and the gradients accumulate in batch order, so the
    weights are bit-identical to one backward of the batch-mean loss.
    """
    check_max_steps(max_steps)
    if not train_samples:
        raise DataError("empty training set")
    rng = make_rng(cfg.seed)
    opt = AdamW(list(model.named_parameters()), lr=cfg.lr,
                weight_decay=cfg.weight_decay)
    result = TrainResult()
    t0 = time.monotonic()
    metrics_fh = open(metrics_path, "w") if metrics_path else None
    best_state = None

    def train_step(batch):
        """Forward and backward each sample of one batch in turn, then
        update; the batch-mean loss as a float. A sample's graph is bound
        only to ``loss``, which is dropped before the next forward."""
        scale = np.float32(1 / len(batch))
        total = None   # float32 left fold of the sample losses
        for done, i in enumerate(batch):
            s = train_samples[i]
            if use_augment:
                s = augment(s, rng)
            try:
                loss = cross_entropy_loss(
                    model(s.rgb, s.depth, baseline_rgb_only=baseline_rgb_only), s.label)
            except NumericError as e:
                raise NumericError(f"{e} {_at_step(step, done, cfg.lr, opt)}") from e
            if not np.isfinite(loss.data):
                raise NumericError(f"NaN/Inf loss {_at_step(step, done, cfg.lr, opt)}")
            total = loss.data if total is None else total + loss.data
            if not done:
                opt.zero_grad()
            T.backward(T.mul(loss, scale))
            del loss
        loss_val = float(total * scale)
        if not np.isfinite(loss_val):
            raise NumericError(f"NaN/Inf loss {_at_step(step, len(batch), cfg.lr, opt)}")
        opt.step()
        return loss_val

    try:
        step = 0
        for epoch in range(cfg.epochs):
            if max_steps is not None and step >= max_steps:
                break   # checked before a step, so a cap of 0 trains nothing
            order = rng.permutation(len(train_samples))
            for start in range(0, len(order), cfg.batch_size):
                loss_val = train_step(order[start:start + cfg.batch_size])
                step += 1
                result.loss_history.append((step, loss_val))
                if metrics_fh:
                    metrics_fh.write(json.dumps({"step": step, "loss": loss_val}) + "\n")
                if log:
                    log(f"step {step} loss {loss_val:.4f}")
                if max_steps is not None and step >= max_steps:
                    break
            report = evaluate(model, val_samples if val_samples else train_samples,
                              baseline_rgb_only=baseline_rgb_only)
            result.val_history.append((epoch, report.mean_iou))
            if metrics_fh:
                metrics_fh.write(json.dumps(
                    {"epoch": epoch, "miou": report.mean_iou,
                     "per_class": [i for _, i in report.per_class_iou]}) + "\n")
            if log:
                log(f"epoch {epoch} val mIoU {report.mean_iou:.4f}")
            if report.mean_iou >= result.best_val_miou or best_state is None:
                result.best_val_miou = report.mean_iou
                best_state = model.state_dict()
        result.steps = step
        result.wall_seconds = time.monotonic() - t0
        if ckpt_path and best_state is not None:
            save_model(ckpt_path, best_state)
        return result
    finally:
        if metrics_fh:
            metrics_fh.close()


def _ablate(cfg, field_name, key, reference, train_samples, val_samples, max_steps):
    """Retrain without augmentation with ``field_name`` set to each key of
    ``reference``; one row per value: (value, toy mIoU, params, reported IoU)."""
    rows = []
    for value, reference_iou in reference.items():
        sub = replace(cfg, **{field_name: value})
        model = build_model(sub)
        train(model, train_samples, val_samples, sub, max_steps=max_steps,
              use_augment=False)
        report = evaluate(model, val_samples if val_samples else train_samples)
        rows.append({
            key: value,
            "miou": report.mean_iou,
            "params": param_count(model),
            "reference_iou": reference_iou,
        })
    return rows


def ablate_decoder_depth(cfg, train_samples, val_samples, max_steps=None):
    """One row per block count in DECODER_DEPTH_REFERENCE (1, 2, 4, 8)."""
    return _ablate(cfg, "decoder_blocks", "blocks", DECODER_DEPTH_REFERENCE,
                   train_samples, val_samples, max_steps)


def ablate_decoder_input(cfg, train_samples, val_samples, max_steps=None):
    """Two rows: rgb_only vs rgb_and_depth decoder input."""
    return _ablate(cfg, "decoder_input", "decoder_input", DECODER_INPUT_REFERENCE,
                   train_samples, val_samples, max_steps)
