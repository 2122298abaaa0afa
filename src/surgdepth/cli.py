"""Command-line entry point.

Subcommands: gen-data, train, eval, ablate, verify, param-count.
Config precedence: built-in defaults < config file (key=value lines,
# comments) < command-line flags.

Exit codes: 0 success, 1 verification failure, 2 numeric abort,
3 config/checkpoint mismatch, 64 usage error, 65 bad input data
(FormatError or DataError from a checkpoint or dataset).
"""

import argparse
import contextlib
import csv
import json
import os
import sys
from dataclasses import fields

from .checkpoint import load_model, save_model
from .data import (SceneSpec, generate_dataset, load_dataset,
                   rgb_ambiguous_fraction, write_dataset)
from .errors import ConfigError, DataError, FormatError, NumericError, UsageError
from .model import ModelConfig, build_model, full_vitb_config, param_count
from .train import (REFERENCE_NOTE, ablate_decoder_depth, ablate_decoder_input,
                    check_max_steps, evaluate, train)
from .verify import run_checks

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_NUMERIC = 2
EXIT_MISMATCH = 3
EXIT_USAGE = 64
EXIT_DATA = 65  # EX_DATAERR


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


_CONFIG_FIELDS = {f.name: f.type for f in fields(ModelConfig)}


def read_config_file(path):
    """Parse key=value lines into a dict of ModelConfig overrides (as strings)."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    overrides = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_FIELDS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            _coerce(key, value)
        except ValueError:
            raise UsageError(f"{path}:{lineno}: bad value {value!r} for {key!r}") from None
        overrides[key] = value
    return overrides


def _coerce(key, value):
    if key == "decoder_input":
        return str(value)
    if key in ("lr", "weight_decay"):
        return float(value)
    return int(value)


def make_model_config(args):
    overrides = {}
    if getattr(args, "config", None):
        overrides.update(read_config_file(args.config))
    # Each model flag's dest is its ModelConfig field, except --size,
    # which sets both image dims.
    for key in _CONFIG_FIELDS:
        flag = "size" if key in ("image_h", "image_w") else key
        value = getattr(args, flag, None)
        if value is not None:
            overrides[key] = value
    return ModelConfig(**{k: _coerce(k, v) for k, v in overrides.items()}).validate()


@contextlib.contextmanager
def _writing(path):
    """Turn an OSError raised inside into a UsageError naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _check_out_file(path):
    """Before any work: UsageError unless ``path`` is a file name in an
    existing directory."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise UsageError(f"cannot write {path}: not a file in an existing directory")


def cmd_gen_data(args):
    spec = SceneSpec(num_classes=args.classes, depth_coupling=args.depth_coupling,
                     seed=args.seed)
    samples = generate_dataset(spec, args.n, args.size, args.size)
    with _writing(args.out):
        write_dataset(args.out, samples, args.classes, val_fraction=args.val_fraction,
                      seed=args.seed)
    frac = rgb_ambiguous_fraction(samples)
    print(f"wrote {len(samples)} samples to {args.out}")
    print(f"rgb-ambiguous pixel fraction: {frac:.3f}")
    return EXIT_OK


def _load_dataset_for(cfg, directory):
    """(train, val) samples of a dataset whose class count matches cfg."""
    train_s, val_s, k = load_dataset(directory)
    if k != cfg.num_classes:
        raise ConfigError(f"dataset has {k} classes, config {cfg.num_classes}")
    return train_s, val_s


def cmd_train(args):
    cfg = make_model_config(args)
    check_max_steps(args.max_steps)   # before --out is created
    train_s, val_s = _load_dataset_for(cfg, args.data)
    model = build_model(cfg)
    ckpt = os.path.join(args.out, "best.ckpt")
    metrics = os.path.join(args.out, "metrics.jsonl")
    with _writing(args.out):   # train() reads no file: an OSError is a write
        os.makedirs(args.out, exist_ok=True)
        if cfg.epochs == 0 or args.max_steps == 0:
            save_model(ckpt, model)
            print("no training steps requested; wrote initial checkpoint")
            return EXIT_OK
        result = train(model, train_s, val_s, cfg, max_steps=args.max_steps,
                       use_augment=not args.no_augment, metrics_path=metrics,
                       ckpt_path=ckpt, log=print if args.verbose else None)
    print(f"{result.steps} steps, best val mIoU {result.best_val_miou:.4f}, "
          f"{result.wall_seconds:.1f}s")
    return EXIT_OK


def cmd_eval(args):
    cfg = make_model_config(args)
    if args.out:
        _check_out_file(args.out)
    train_s, val_s = _load_dataset_for(cfg, args.data)
    samples = train_s if args.split == "train" else val_s
    if not samples:
        raise DataError(f"{args.data}: the {args.split} split has no samples")
    model = build_model(cfg)
    if args.ckpt:
        load_model(args.ckpt, model)
    report = evaluate(model, samples)
    for c, iou in report.per_class_iou:
        print(f"class {c}: IoU {'undefined' if iou is None else f'{iou:.4f}'}")
    print(f"mean IoU: {report.mean_iou:.4f}")
    print(f"pixel accuracy: {report.pixel_accuracy:.4f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def cmd_ablate(args):
    cfg = make_model_config(args)
    _check_out_file(args.out)
    train_s, val_s = _load_dataset_for(cfg, args.data)
    ablate, key = ((ablate_decoder_depth, "blocks") if args.study == "decoder-depth"
                   else (ablate_decoder_input, "decoder_input"))
    rows = ablate(cfg, train_s, val_s, max_steps=args.max_steps)
    header = [key, "miou", "params", f"reference_iou {REFERENCE_NOTE}"]
    data = [[r[key], f"{r['miou']:.4f}", r["params"], r["reference_iou"]]
            for r in rows]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(data)
    for row in [header] + data:
        print(",".join(str(v) for v in row))
    return EXIT_OK


def cmd_verify(args):
    ok = run_checks(config=args.config, sabotage=args.sabotage)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_param_count(args):
    for variant in ("rgb_only", "rgb_and_depth"):
        model = build_model(full_vitb_config(variant))
        total, per_module = param_count(model, breakdown=True)
        print(f"{variant}: {total} ({total / 1e6:.2f}M)")
        for mod, count in sorted(per_module.items()):
            print(f"  {mod}: {count}")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="surgdepth",
                     description="RGB-D fusion segmentation toybox")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("--config", help="config file (key=value per line)")
        p.add_argument("--size", type=int, help="square image size (default 64)")
        p.add_argument("--classes", type=int, dest="num_classes", metavar="CLASSES",
                       help="class count (default 4)")
        p.add_argument("--patch", type=int, help="patch size (default 8)")
        p.add_argument("--embed-dim", type=int, help="encoder width (default 64)")
        p.add_argument("--encoder-blocks", type=int, dest="depth_blocks",
                       metavar="ENCODER_BLOCKS", help="encoder depth (default 2)")
        p.add_argument("--heads", type=int, help="attention heads (default 4)")
        p.add_argument("--fusion-k", type=int, help="fusion pool size (default 7)")
        p.add_argument("--decoder-blocks", type=int, help="decoder depth (default 4)")
        p.add_argument("--decoder-input", choices=["rgb_only", "rgb_and_depth"],
                       help="decoder token stream (default rgb_only)")
        p.add_argument("--seed", type=int, help="PRNG seed (default 0)")
        p.add_argument("--lr", type=float, help="learning rate (default 1e-3)")
        p.add_argument("--weight-decay", type=float, help="AdamW decay (default 0.05)")
        p.add_argument("--epochs", type=int, help="training epochs (default 50)")
        p.add_argument("--batch-size", type=int, help="minibatch size (default 2)")

    p = sub.add_parser("gen-data", help="write a synthetic RGB-D dataset")
    p.add_argument("--n", type=int, default=8, help="sample count (default 8)")
    p.add_argument("--size", type=int, default=64, help="square image size (default 64)")
    p.add_argument("--classes", type=int, default=4, help="class count (default 4)")
    p.add_argument("--depth-coupling", type=float, default=0.5,
                   help="fraction of depth-determined regions (default 0.5)")
    p.add_argument("--val-fraction", type=float, default=0.25,
                   help="validation fraction (default 0.25)")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train on a dataset directory")
    add_model_flags(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--max-steps", type=int, help="optimizer step cap (default none)")
    p.add_argument("--no-augment", action="store_true", help="disable augmentations")
    p.add_argument("--verbose", action="store_true", help="log every step")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    add_model_flags(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--ckpt", help="checkpoint path (default: fresh init)")
    p.add_argument("--split", choices=["train", "val"], default="val",
                   help="dataset split (default val)")
    p.add_argument("--out", help="write eval.json here")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="run an ablation study")
    add_model_flags(p)
    p.add_argument("--study", required=True,
                   choices=["decoder-depth", "decoder-input"])
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--max-steps", type=int, help="step cap per variant")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.add_argument("--config", choices=["toy", "full-vitb"], default="toy",
                   help="toy: oracles+grads; full-vitb: shape+param count (default toy)")
    p.add_argument("--sabotage", choices=["bilinear_resize"],
                   help="test hook: inject a kernel bug to confirm detection")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("param-count", help="count parameters at full ViT-B config")
    p.set_defaults(fn=cmd_param_count)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FormatError, DataError) as exc:
        print(f"bad input file: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
