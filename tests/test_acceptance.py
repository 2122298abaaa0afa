"""Acceptance suite: seven end-to-end criteria, one pass/fail line each.

Run with -s to see the lines as they complete; the whole file stays
within the documented runtime budgets (the fusion-benefit run is the
longest at under 30 minutes on a laptop CPU).
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from surgdepth import tensor as T
from surgdepth.data import SceneSpec, generate_dataset
from surgdepth.gradcheck import grad_check
from surgdepth.losses import cross_entropy_loss
from surgdepth.model import ModelConfig, build_model, full_vitb_config, param_count
from surgdepth.rng import make_rng
from surgdepth.train import ablate_decoder_depth, evaluate, train
from surgdepth.verify import (check_bilinear_oracle, check_conv2d_oracle,
                              check_fuse_oracle, check_identity_suite,
                              check_mhsa_oracle, check_per_op_grads,
                              check_pool_oracle)

REPORTED_TOTAL = 98.37e6
REPORTED_DELTA = 103.1e6 - 98.37e6


def _line(n, title, ok, detail=""):
    print(f"ACCEPTANCE {n} ({title}): {'PASS' if ok else 'FAIL'}"
          + (f" — {detail}" if detail else ""))


def test_criterion_1_parameter_count_reproduction():
    t0 = time.monotonic()
    total = param_count(build_model(full_vitb_config("rgb_only")))
    total2 = param_count(build_model(full_vitb_config("rgb_and_depth")))
    elapsed = time.monotonic() - t0
    rel = abs(total - REPORTED_TOTAL) / REPORTED_TOTAL
    delta = total2 - total
    delta_rel = abs(delta - REPORTED_DELTA) / REPORTED_DELTA
    ok = rel <= 0.05 and total2 > total and delta_rel <= 0.30 and elapsed < 10
    _line(1, "parameter counts", ok,
          f"{total / 1e6:.2f}M (off {rel * 100:.1f}%), delta {delta / 1e6:.2f}M "
          f"(off {delta_rel * 100:.1f}%), {elapsed:.1f}s")
    assert ok


def test_criterion_2_gradient_correctness():
    t0 = time.monotonic()
    cfg = ModelConfig(image_h=16, image_w=16, patch=4, embed_dim=16,
                      depth_blocks=1, heads=2, fusion_k=2, fusion_dim=16,
                      decoder_blocks=1, num_classes=3, seed=0)
    model = build_model(cfg, dtype=np.float64)
    rng = make_rng(11)
    rgb = rng.random((3, 16, 16))
    depth = rng.random((1, 16, 16))
    labels = rng.integers(0, 3, size=(16, 16))
    rep = grad_check(lambda: cross_entropy_loss(model(rgb, depth), labels),
                     list(model.named_parameters()), tol=1e-2,
                     entries_per_param=8, step=1e-4)
    ops_ok, ops_detail = check_per_op_grads()
    elapsed = time.monotonic() - t0
    ok = rep.passed and rep.checked_entries >= 200 and ops_ok and elapsed < 120
    _line(2, "gradient correctness", ok,
          f"end-to-end max rel err {rep.max_error:.1e} over "
          f"{rep.checked_entries} entries; per-op: {ops_detail}; {elapsed:.0f}s")
    assert ok


def test_criterion_3_oracle_equivalence():
    results = {name: fn() for name, fn in [
        ("fuse", check_fuse_oracle), ("mhsa", check_mhsa_oracle),
        ("conv2d", check_conv2d_oracle), ("pool", check_pool_oracle),
        ("bilinear", check_bilinear_oracle)]}
    ok = all(passed for passed, _ in results.values())
    _line(3, "oracle equivalence", ok,
          "; ".join(f"{k} {d}" for k, (_, d) in results.items()))
    assert ok


def test_criterion_4_overfit_sanity():
    t0 = time.monotonic()
    samples = generate_dataset(SceneSpec(depth_coupling=0.5, seed=0), 8, 64, 64)
    # lr and seed are pinned by the criterion; decay and batch size are
    # open training decisions (see README)
    cfg = ModelConfig(seed=0, lr=1e-3, weight_decay=0.0, batch_size=4,
                      epochs=1000)
    model = build_model(cfg)
    train(model, samples, samples, cfg, max_steps=300, use_augment=False)
    miou = evaluate(model, samples).mean_iou
    elapsed = time.monotonic() - t0
    ok = miou >= 0.95 and elapsed < 600
    _line(4, "overfit sanity", ok,
          f"train mIoU {miou:.4f} after 300 steps, {elapsed:.0f}s")
    assert ok


def test_criterion_5_fusion_directional_benefit():
    t0 = time.monotonic()
    gaps = []
    for seed in range(3):
        train_s = generate_dataset(SceneSpec(depth_coupling=1.0, seed=seed),
                                   12, 64, 64)
        val_s = generate_dataset(SceneSpec(depth_coupling=1.0, seed=seed + 100),
                                 4, 64, 64)
        # the depth-blind control: the same model on the same scenes with depth zeroed
        blind = [[replace(s, depth=np.zeros_like(s.depth)) for s in d]
                 for d in (train_s, val_s)]
        miou = []
        for tr, va in ((train_s, val_s), blind):
            cfg = ModelConfig(seed=seed, lr=1e-3, weight_decay=0.0,
                              batch_size=4, epochs=1000)
            model = build_model(cfg)
            train(model, tr, va, cfg, max_steps=150, use_augment=False)
            miou.append(evaluate(model, va).mean_iou)
        gaps.append(miou[0] - miou[1])
    median_gap = float(np.median(gaps))
    elapsed = time.monotonic() - t0
    ok = median_gap >= 0.05 and elapsed < 1800
    _line(5, "fusion directional benefit", ok,
          f"median val mIoU gap {median_gap:.4f} over 3 seeds "
          f"(per-seed {[f'{g:.3f}' for g in gaps]}), {elapsed:.0f}s")
    assert ok


def test_criterion_6_ablation_harness_fidelity():
    cfg = ModelConfig(image_h=16, image_w=16, patch=4, embed_dim=16,
                      depth_blocks=1, heads=2, fusion_k=2, decoder_blocks=1,
                      num_classes=4, epochs=1, batch_size=2)
    samples = generate_dataset(SceneSpec(seed=0), 4, 16, 16)
    rows = ablate_decoder_depth(cfg, samples[:3], samples[3:], max_steps=2)
    refs = [r["reference_iou"] for r in rows]
    ok = ([r["blocks"] for r in rows] == [1, 2, 4, 8]
          and refs == [0.843, 0.851, 0.862, 0.856]
          and all(0.0 <= r["miou"] <= 1.0 for r in rows))
    _line(6, "ablation harness fidelity", ok,
          f"blocks {[r['blocks'] for r in rows]}, reference column {refs}")
    assert ok


def test_criterion_7_identity_suite_and_reproducibility():
    id_ok, id_detail = check_identity_suite()
    # bit-reproducible training: two runs, same seed, identical weights
    samples = generate_dataset(SceneSpec(seed=0), 4, 16, 16)
    states = []
    for _ in range(2):
        cfg = ModelConfig(image_h=16, image_w=16, patch=4, embed_dim=16,
                          depth_blocks=1, heads=2, fusion_k=2,
                          decoder_blocks=1, num_classes=4, epochs=10,
                          batch_size=2, seed=0)
        model = build_model(cfg)
        train(model, samples, None, cfg, max_steps=10, use_augment=True)
        states.append(model.state_dict())
    repro = all(np.array_equal(states[0][k], states[1][k]) for k in states[0])
    ok = id_ok and repro
    _line(7, "identity suite + bit reproducibility", ok,
          f"{id_detail}; training bit-reproducible: {repro}")
    assert ok
