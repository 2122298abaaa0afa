"""Span tracer for the benchmark's traced runs.

The tracer wraps surgdepth's public functions, module classes and tensor
ops from outside the package, under the name each caller resolves
(``train.py`` imports ``cross_entropy_loss``, ``augment``, ``evaluate``
and ``save_model`` by name, so those are wrapped in ``surgdepth.train``).
Every wrapped call records one span in memory:

    [name, start, end, parent index, op id, out_bytes, taped_bytes, flops]

``op id`` is shared by the spans of one train step, eval sample or
forward. Counters are computed from array shapes, never measured, so they
repeat exactly for the same inputs. Wrappers only observe: they pass the
arguments and the result through untouched.
"""

import json
import os
import time
from contextlib import contextmanager

import numpy as np

from surgdepth import checkpoint, data, train as train_mod
from surgdepth import tensor as T
from surgdepth.decoder import ConvNeXtBlock, Decoder
from surgdepth.encoder import Encoder, MultiHeadSelfAttention, PatchEmbed, TransformerBlock
from surgdepth.fusion import FusionBlock
from surgdepth.metrics import ConfusionAccumulator
from surgdepth.model import Model
from surgdepth.optim import AdamW

TENSOR_OPS = ("matmul", "conv2d", "bilinear_resize", "adaptive_avg_pool2d", "gelu",
              "softmax", "layer_norm", "add", "mul", "exp", "log",
              "reshape", "permute", "concat", "slice_axis")
FLOP_OPS = ("matmul", "conv2d", "bilinear_resize")

# Module-level spans: (owner, attribute, span name).
MODULE_SPANS = (
    (Model, "__call__", "model.forward"),
    (PatchEmbed, "__call__", "encoder.patch_embed"),
    (FusionBlock, "__call__", "fusion"),
    (Encoder, "__call__", "encoder"),
    (MultiHeadSelfAttention, "__call__", "encoder.attn"),
    (TransformerBlock, "__call__", "encoder.block"),
    (Decoder, "__call__", "decoder"),
    (ConvNeXtBlock, "__call__", "decoder.convnext"),
    (train_mod, "cross_entropy_loss", "losses.cross_entropy"),
    (ConfusionAccumulator, "add", "metrics.confusion_add"),
    (train_mod, "augment", "data.augment"),
    (train_mod, "evaluate", "train.epoch_eval"),
    (T, "backward", "tensor.backward"),
    (AdamW, "step", "optim.step"),
)
MODULE_NAMES = tuple(name for _, _, name in MODULE_SPANS)

# I/O spans whose counter is the size of the file read or written.
IO_SPANS = (
    (data, "load_dataset", "data.load_dataset"),
    (checkpoint, "load_model", "checkpoint.load"),
    (train_mod, "save_model", "checkpoint.save"),
)

NAME, START, END, PARENT, OP, OUT_BYTES, TAPED_BYTES, FLOPS = range(8)


def _shape(x):
    return np.shape(getattr(x, "data", x))


def _flops(op, args, out):
    """Multiply-add count (x2) of the op's forward, from shapes alone."""
    if op == "matmul":
        *lead, m, k = _shape(args[0])
        batch = 1
        for d in lead:
            batch *= d
        return 2 * batch * m * k * out.shape[-1]
    if op == "conv2d":
        c_out, c_in_g, kh, kw = _shape(args[1])
        _, ho, wo = out.shape
        return 2 * c_out * c_in_g * kh * kw * ho * wo
    # bilinear_resize as the two separable products R @ x @ S^T
    c, h, w = _shape(args[0])
    _, ho, wo = out.shape
    return 2 * c * ho * h * w + 2 * c * ho * w * wo


class Tracer:
    """Records spans while installed; ``sample_span`` starts a new op id."""

    def __init__(self, sample_span=None):
        self.spans = []
        self.op_id = 0
        self.sample_span = sample_span
        self.recording = True
        self._stack = []

    def next_op(self):
        self.op_id += 1

    @contextmanager
    def off(self):
        """Record nothing inside: for the benchmark's own checks."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def _wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if name == self.sample_span:
                self.op_id += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, 0, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if count is not None:
                count(rec, args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced name; restore the originals on exit."""
        saved = []

        def patch(owner, attr, name, count=None):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))

        try:
            for op in TENSOR_OPS:
                patch(T, op, "tensor." + op, _op_counter(op))
            for owner, attr, name in MODULE_SPANS:
                patch(owner, attr, name)
            for owner, attr, name in IO_SPANS:
                patch(owner, attr, name, _file_counter)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path):
        """Write the spans as JSON lines (one span per line)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("name", "start", "end", "parent", "op", "out_bytes", "taped_bytes", "flops")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def _op_counter(op):
    def count(rec, args, out):
        rec[OUT_BYTES] = out.data.nbytes
        if out.requires_grad:
            rec[TAPED_BYTES] = out.data.nbytes
        if op in FLOP_OPS:
            rec[FLOPS] = _flops(op, args, out)
    return count


def _file_counter(rec, args, out):
    path = args[0]
    if os.path.isfile(path):
        rec[OUT_BYTES] = os.path.getsize(path)


def layer_totals(spans, start, end):
    """Per-name totals over the spans that start within [start, end).

    Returns name -> dict(calls, self_s, total_s, out_bytes, taped_bytes,
    flops). A span's self time is its duration minus the durations of its
    direct children; calls are synchronous, so children never overlap.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    totals = {}
    for i, rec in enumerate(spans):
        if not start <= rec[START] < end:
            continue
        t = totals.setdefault(rec[NAME], dict(calls=0, self_s=0.0, total_s=0.0,
                                              out_bytes=0, taped_bytes=0, flops=0))
        dur = rec[END] - rec[START]
        t["calls"] += 1
        t["total_s"] += dur
        t["self_s"] += dur - child[i]
        t["out_bytes"] += rec[OUT_BYTES]
        t["taped_bytes"] += rec[TAPED_BYTES]
        t["flops"] += rec[FLOPS]
    return totals


def durations(spans, name):
    return [rec[END] - rec[START] for rec in spans if rec[NAME] == name]


def file_bytes(spans, name):
    return max((rec[OUT_BYTES] for rec in spans if rec[NAME] == name), default=0)
