"""Write the benchmark's stored references.

    python3 perfbench/make_reference.py [--workload NAME ...]

Trains ``toy_trained.ckpt`` when it is missing, then runs one pass of each
workload on every scene seed and stores what the correctness gate
compares: train_toy's final loss and best validation mIoU, and a digest
of every logit map (class means and RMS, fixed pixel probes, mIoU) for
eval_toy and infer_vitb_half. Run it only when the program's outputs are
meant to change; the gate then holds later commits to the new values.
"""

import argparse
import json
import os
import shutil
import sys

import run as bench  # sets BLAS threads and the import path first

from dataclasses import replace

from surgdepth.data import load_dataset
from surgdepth.model import build_model
from surgdepth.train import train
import workloads as W

TOY_TRAIN_SEED = 1000
TOY_TRAIN_SAMPLES = 48
TOY_TRAIN_EPOCHS = 15


def train_toy_checkpoint(work):
    data_dir = os.path.join(work, "toy-train-data")
    cfg = W.TOY_CFG
    W.write_inputs(data_dir, TOY_TRAIN_SEED, TOY_TRAIN_SAMPLES, cfg.image_h, cfg.image_w,
                   cfg.num_classes)
    train_s, val_s, _ = load_dataset(data_dir)
    model = build_model(cfg)
    result = train(model, train_s, val_s, replace(cfg, epochs=TOY_TRAIN_EPOCHS),
                   ckpt_path=W.TOY_CKPT)
    print(f"toy checkpoint: {result.steps} steps, best val mIoU {result.best_val_miou:.4f}")


def write_reference(stored):
    """JSON with one line per workload and scene seed."""
    lines = []
    for key in sorted(stored):
        value = stored[key]
        if isinstance(value, dict):
            rows = [f"  {json.dumps(scene)}: {json.dumps(value[scene], sort_keys=True)}"
                    for scene in sorted(value, key=int)]
            lines.append(f" {json.dumps(key)}: {{\n" + ",\n".join(rows) + "\n }")
        else:
            lines.append(f" {json.dumps(key)}: {json.dumps(value)}")
    with open(W.REFERENCE_PATH, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(W.WORKLOADS))
    args = parser.parse_args(argv)
    names = args.workload or sorted(W.WORKLOADS)
    work = os.path.join(bench.OUT, f"reference-{os.getpid()}")
    cache = os.path.join(bench.OUT, "cache")
    os.makedirs(work)
    try:
        stored = W.load_reference()
        if not os.path.exists(W.TOY_CKPT):
            train_toy_checkpoint(work)
        if "infer_vitb_half" in names:
            path, _ = W.vitb_checkpoint(cache)  # written afresh from this checkout
            stored["vitb_checkpoint_sha256"] = W.file_sha256(path)
        ckpt_hash = {"vitb_checkpoint_sha256": stored.get("vitb_checkpoint_sha256")}
        for name in names:
            stored[name] = {}
            for scene in range(W.SCENE_SEEDS):
                run_dir = os.path.join(work, f"{name}-{scene}")
                os.makedirs(run_dir)
                # Only the checkpoint hash: nothing is gated against old references.
                run = W.WORKLOADS[name](scene, 0, run_dir, cache, ckpt_hash)
                stored[name][str(scene)] = run.observed
                print(name, scene, run.quality, flush=True)
        write_reference(stored)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
