"""The benchmark's workloads.

Each workload writes its inputs from the seed with ``generate_dataset`` /
``write_dataset``, sets the program up several times (dataset load, model
build, checkpoint load), then drives one closed loop (one caller, the next
operation issued only after the previous one returned) for a fixed number
of seconds, and gates the outputs against ``reference.json``.

The seed picks one of ``SCENE_SEEDS`` scene seeds, so that every input a
run can see has a stored reference; ``make_reference.py`` writes them.
"""

import contextlib
import hashlib
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from surgdepth import checkpoint, data
from surgdepth.data import SceneSpec, generate_dataset, write_dataset
from surgdepth.metrics import ConfusionAccumulator, mean_iou
from surgdepth.model import Model, ModelConfig, build_model, full_vitb_config
from surgdepth.train import evaluate, train

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
# Trained by make_reference.py; committed so that eval_toy's logits do not
# depend on the training path the benchmark also measures.
TOY_CKPT = os.path.join(HERE, "toy_trained.ckpt")

SCENE_SEEDS = 8
TOY_CFG = ModelConfig(epochs=2)                     # 64x64, C=64, 2+4 blocks, batch 2
VITB_CFG = replace(full_vitb_config(), image_h=240, image_w=320)

# Logit probes: this many fixed pixels per image, compared class by class.
PROBE_PIXELS = 16
# A stored logit matches when |observed - reference| <= LOGIT_RTOL * scale,
# scale being the largest |logit| among the reference probes. Switching
# every matmul to float32 accumulation moves the logits by about 1e-6 of
# scale; the sabotage hook (a 1e-3 shift) moves the toy ones by 3e-4 of it.
LOGIT_RTOL = 3e-5
MIOU_ATOL = 5e-3
LOSS_RTOL = 1e-3


@dataclass
class Run:
    """What one workload run measured and checked."""

    setup_s: list = field(default_factory=list)
    window: tuple = (0.0, 0.0)    # perf_counter start and end of the timed loop
    paused: float = 0.0           # seconds of the window spent in set-ups
    samples: int = 0              # samples processed inside the window
    ops: int = 0                  # operations inside the window
    latencies: list = field(default_factory=list)   # seconds per operation
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    observed: dict = field(default_factory=dict)    # values the reference stores
    quality: dict = field(default_factory=dict)     # final_loss / miou as reported
    fingerprint: str = ""         # hash of losses and predictions

    @property
    def window_s(self):
        """Seconds the loop ran operations."""
        return self.window[1] - self.window[0] - self.paused

    def fail(self, count, message):
        """``count`` operations gave a wrong result or raised."""
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)

    def fail_all(self, message):
        """A check over the whole run failed: every operation counts as failed."""
        self.fail(0, message)
        self.failed = self.attempted


def scene_seed(seed):
    return seed % SCENE_SEEDS


def load_reference():
    """All stored references; empty when none were written yet."""
    if not os.path.exists(REFERENCE_PATH):
        return {}
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 24), b""):
            h.update(chunk)
    return h.hexdigest()


def write_inputs(directory, spec_seed, n, h, w, classes):
    samples = generate_dataset(SceneSpec(num_classes=classes, seed=spec_seed), n, h, w)
    write_dataset(directory, samples, classes, seed=spec_seed)


def timed_setup(run, setup):
    """One set-up, its duration appended to ``run.setup_s``."""
    t0 = time.perf_counter()
    state = setup()
    run.setup_s.append(time.perf_counter() - t0)
    return state


def closed_loop(run, seconds, op, setup, setups, min_ops=1):
    """Issue ``op()`` back to back for ``seconds`` (and at least ``min_ops`` times).

    The host's speed drifts over seconds, so ``setups`` more set-ups are
    spread evenly over the loop, between operations, with the loop's clock
    paused; what they return is dropped. Set-ups still due when the loop
    ends run after it.
    """
    due = [seconds * (i + 1) / (setups + 1) for i in range(setups)]
    t0 = time.perf_counter()
    for n in itertools.count(1):
        op()
        now = time.perf_counter()
        while due and now - t0 - run.paused >= due[0]:
            due.pop(0)
            timed_setup(run, setup)
            run.paused += time.perf_counter() - now
            now = time.perf_counter()
        if now - t0 - run.paused >= seconds and n >= min_ops:
            break
    run.window = (t0, now)
    for _ in due:
        timed_setup(run, setup)


def digest(logits, label):
    """Small stored summary of one logit map: class means, class RMS, probes."""
    k, h, w = logits.shape
    flat = logits.reshape(k, h * w).astype(np.float64)
    pixels = np.random.default_rng(h * 100003 + w).choice(h * w, PROBE_PIXELS, replace=False)
    pred = logits.argmax(axis=0)
    return {
        "mean": _round(flat.mean(axis=1)),
        "rms": _round(np.sqrt((flat ** 2).mean(axis=1))),
        "probe": [_round(row) for row in flat[:, np.sort(pixels)].T],
        "miou": mean_iou(pred, label, k).mean_iou,
    }


def _round(values):
    """Nine significant digits: exact for float32, and short to store."""
    return [float(f"{v:.9g}") for v in values]


def compare_digest(obs, ref):
    """Returns a mismatch message, or None when ``obs`` matches ``ref``."""
    scale = max(abs(v) for row in ref["probe"] for v in row)
    tol = LOGIT_RTOL * scale
    for key in ("mean", "rms", "probe"):
        diff = np.max(np.abs(np.asarray(obs[key]) - np.asarray(ref[key])))
        if not diff <= tol:
            return f"logit {key} off by {diff:.3g} (tolerance {tol:.3g})"
    if not abs(obs["miou"] - ref["miou"]) <= MIOU_ATOL:
        return f"miou {obs['miou']:.6f} vs reference {ref['miou']:.6f}"
    return None


def logits_problem(logits, shape):
    """Shape and finiteness gate: a message, or None when the logits pass."""
    if logits.shape != shape:
        return f"logits shape {logits.shape}, expected {shape}"
    if not np.all(np.isfinite(logits)):
        return "non-finite logits"
    return None


def gate_pass(run, model, samples, cfg):
    """Untimed forward over ``samples``: (digests, logit maps, mIoU) for the gate."""
    shape = (cfg.num_classes, cfg.image_h, cfg.image_w)
    acc = ConfusionAccumulator(cfg.num_classes)
    digests, logits = [], []
    for i, s in enumerate(samples):
        out = model(s.rgb, s.depth).data
        problem = logits_problem(out, shape)
        if problem:
            run.fail_all(f"sample {i}: {problem}")
            continue
        acc.add(out.argmax(axis=0).astype(np.int32), s.label)
        digests.append(digest(out, s.label))
        logits.append(out)
    return digests, logits, acc.report().mean_iou


def gate_digests(run, digests, stored):
    for i, (obs, ref) in enumerate(zip(digests, stored)):
        problem = compare_digest(obs, ref)
        if problem:
            run.fail_all(f"sample {i}: {problem}")
    if len(digests) != len(stored):
        run.fail_all(f"{len(digests)} logit maps gated, reference has {len(stored)}")


def _hash(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------
# train_toy: `surgdepth train` at the default toy config
# ---------------------------------------------------------------------

TRAIN_SAMPLES = 16
TOY_SETUPS = 30


def train_toy(seed, seconds, work, cache, stored, tracer=None):
    run = Run()
    scene = scene_seed(seed)
    reference = stored.get("train_toy", {}).get(str(scene))
    cfg = replace(TOY_CFG, seed=scene)
    data_dir = os.path.join(work, "data")
    write_inputs(data_dir, scene, TRAIN_SAMPLES, cfg.image_h, cfg.image_w, cfg.num_classes)

    def setup():
        train_s, val_s, _ = data.load_dataset(data_dir)
        return train_s, val_s, build_model(cfg)

    train_s, val_s, model = timed_setup(run, setup)
    init = model.state_dict()
    steps = cfg.epochs * math.ceil(len(train_s) / cfg.batch_size)
    ckpt = os.path.join(work, "best.ckpt")
    metrics = os.path.join(work, "metrics.jsonl")
    first = {}

    def one_call(timed):
        model.load_state_dict(init)
        step_times = []
        prev = [time.perf_counter()]

        def log(message):
            # train() logs once per step and once after each epoch's
            # validation; a step's latency runs from the previous log line.
            now = time.perf_counter()
            if not message.startswith("epoch"):
                step_times.append(now - prev[0])
            prev[0] = now
            if tracer is not None:
                tracer.next_op()

        run.attempted += steps if timed else 0
        try:
            result = train(model, train_s, val_s, cfg, metrics_path=metrics,
                           ckpt_path=ckpt, log=log)
        except Exception as exc:  # counted as failed steps; the loop goes on
            run.fail(steps if timed else 0, f"train raised {type(exc).__name__}: {exc}")
            return
        losses = np.array([loss for _, loss in result.loss_history])
        if timed:
            run.samples += cfg.epochs * len(train_s)
            run.ops += steps
            run.latencies += step_times
        problem = None
        if result.steps != steps or len(step_times) != steps:
            problem = f"{result.steps} steps, expected {steps}"
        elif not np.all(np.isfinite(losses)):
            problem = "non-finite training loss"
        elif first and (losses.tobytes() != first["losses"].tobytes()
                        or result.best_val_miou != first["miou"]):
            problem = "repeated training call gave different losses"
        if problem:
            run.fail(steps if timed else 0, problem)
        first.setdefault("losses", losses)
        first.setdefault("miou", result.best_val_miou)

    one_call(timed=False)  # warm-up
    closed_loop(run, seconds, lambda: one_call(timed=True), setup, TOY_SETUPS - 1)

    # Predictions of the best checkpoint written by the last call.
    best = build_model(cfg)
    checkpoint.load_model(ckpt, best)
    digests, logits, _ = gate_pass(run, best, val_s, cfg)
    losses = first.get("losses", np.array([np.nan]))
    run.observed = {"final_loss": float(losses[-1]), "best_val_miou": first.get("miou", 0.0),
                    "logits": digests}
    run.quality = {"final_loss": run.observed["final_loss"],
                   "best_val_miou": run.observed["best_val_miou"]}
    run.fingerprint = _hash(losses, *logits)
    if reference is None:
        run.fail_all("no stored reference")
        return run
    gate_digests(run, digests, reference["logits"])
    ref_loss = reference["final_loss"]
    if not abs(run.observed["final_loss"] - ref_loss) <= LOSS_RTOL * abs(ref_loss):
        run.fail_all(f"final_loss {run.observed['final_loss']:.7f} vs reference {ref_loss:.7f}")
    if not abs(run.observed["best_val_miou"] - reference["best_val_miou"]) <= MIOU_ATOL:
        run.fail_all(f"best val miou {run.observed['best_val_miou']:.6f} "
                     f"vs reference {reference['best_val_miou']:.6f}")
    return run


# ---------------------------------------------------------------------
# eval_toy: `surgdepth eval` of a trained toy checkpoint
# ---------------------------------------------------------------------

EVAL_SAMPLES = 32   # 8 land in the val split


def eval_toy(seed, seconds, work, cache, stored, tracer=None):
    run = Run()
    scene = scene_seed(seed)
    reference = stored.get("eval_toy", {}).get(str(scene))
    cfg = TOY_CFG
    data_dir = os.path.join(work, "data")
    write_inputs(data_dir, 100 + scene, EVAL_SAMPLES, cfg.image_h, cfg.image_w, cfg.num_classes)

    def setup():
        _, val_s, _ = data.load_dataset(data_dir)
        model = build_model(cfg)
        checkpoint.load_model(TOY_CKPT, model)
        return val_s, model

    val_s, model = timed_setup(run, setup)
    first = {}

    def one_call(timed):
        if timed:
            run.attempted += len(val_s)
        t0 = time.perf_counter()
        try:
            report = evaluate(model, val_s)
        except Exception as exc:  # counted as failed samples; the loop goes on
            run.fail(len(val_s) if timed else 0, f"evaluate raised {type(exc).__name__}: {exc}")
            return
        if timed:
            run.latencies.append((time.perf_counter() - t0) / len(val_s))
            run.samples += len(val_s)
            run.ops += len(val_s)
        if first.setdefault("miou", report.mean_iou) != report.mean_iou:
            run.fail(len(val_s) if timed else 0, "repeated evaluate gave a different miou")

    one_call(timed=False)  # warm-up
    closed_loop(run, seconds, lambda: one_call(timed=True), setup, TOY_SETUPS - 1)

    # The same forward pass, untimed, to gate the logits themselves.
    digests, logits, forward_miou = gate_pass(run, model, val_s, cfg)
    miou = first.get("miou", float("nan"))
    if forward_miou != miou:
        run.fail_all("evaluate() miou differs from the forward pass it wraps")
    run.observed = {"miou": miou, "logits": digests}
    run.quality = {"miou": miou}
    run.fingerprint = _hash(np.array([miou]), *logits)
    if reference is None:
        run.fail_all("no stored reference")
        return run
    gate_digests(run, digests, reference["logits"])
    if not abs(miou - reference["miou"]) <= MIOU_ATOL:
        run.fail_all(f"miou {miou:.6f} vs reference {reference['miou']:.6f}")
    return run


# ---------------------------------------------------------------------
# infer_vitb_half: ViT-B at 240x320, one image at a time
# ---------------------------------------------------------------------

VITB_IMAGES = 3
VITB_SETUPS = 3


def vitb_checkpoint(cache, sha256=None):
    """The ViT-B checkpoint (seed-0 init) in ``cache``: (path, matches ``sha256``).

    A cached file whose SHA-256 is not ``sha256`` is written again from
    this checkout's ``build_model`` and ``save_model``, so a stale file left
    by other sources is never what gets loaded or gated.
    """
    path = os.path.join(cache, "vitb_240x320.ckpt")
    if os.path.exists(path) and file_sha256(path) == sha256:
        return path, True
    os.makedirs(cache, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    checkpoint.save_model(tmp, build_model(VITB_CFG))
    os.replace(tmp, path)
    return path, file_sha256(path) == sha256


@contextlib.contextmanager
def captured_logits():
    """Pass-through wrapper on ``Model.__call__``: a list of each forward's logits."""
    seen = []
    original = Model.__call__

    def call(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        seen.append(out.data)
        return out

    Model.__call__ = call
    try:
        yield seen
    finally:
        Model.__call__ = original


def infer_vitb_half(seed, seconds, work, cache, stored, tracer=None):
    run = Run()
    scene = scene_seed(seed)
    reference = stored.get("infer_vitb_half", {}).get(str(scene))
    cfg = VITB_CFG
    data_dir = os.path.join(work, "data")
    write_inputs(data_dir, 200 + scene, VITB_IMAGES, cfg.image_h, cfg.image_w, cfg.num_classes)
    ckpt, ckpt_matches = vitb_checkpoint(cache, stored.get("vitb_checkpoint_sha256"))

    def setup():
        train_s, val_s, _ = data.load_dataset(data_dir)
        model = build_model(cfg)
        checkpoint.load_model(ckpt, model)
        return train_s + val_s, model

    images, model = timed_setup(run, setup)
    shape = (cfg.num_classes, cfg.image_h, cfg.image_w)
    digests = [None] * len(images)
    hashes = []
    first_pass = ConfusionAccumulator(cfg.num_classes)  # each image once, for the report

    def forward(seen):
        i = run.attempted % len(images)
        s = images[i]
        run.attempted += 1
        seen.clear()
        t0 = time.perf_counter()
        try:
            report = evaluate(model, [s])
        except Exception as exc:  # counted as a failed forward; the loop goes on
            run.fail(1, f"evaluate raised {type(exc).__name__}: {exc}")
            return
        run.latencies.append(time.perf_counter() - t0)
        run.samples += 1
        run.ops += 1
        with tracer.off() if tracer else contextlib.nullcontext():
            gate(i, s, seen, report.mean_iou)

    def gate(i, s, seen, miou):
        if len(seen) != 1:
            run.fail(1, f"image {i}: evaluate made {len(seen)} forwards, expected 1")
            return
        logits = seen[0]
        problem = logits_problem(logits, shape)
        if problem:
            run.fail(1, f"image {i}: {problem}")
            return
        pred = logits.argmax(axis=0).astype(np.int32)
        acc = ConfusionAccumulator(cfg.num_classes)
        acc.add(pred, s.label)
        if acc.report().mean_iou != miou:
            run.fail(1, f"image {i}: evaluate() miou differs from its forward's logits")
            return
        obs = digest(logits, s.label)
        hashes.append(_hash(logits))
        ref = reference["logits"][i] if reference else None
        problem = compare_digest(obs, ref) if ref else "no stored reference"
        if problem:
            run.fail(1, f"image {i}: {problem}")
        if digests[i] is None:
            digests[i] = obs
            first_pass.add(pred, s.label)

    with captured_logits() as seen:
        closed_loop(run, seconds, lambda: forward(seen), setup, VITB_SETUPS - 1,
                    min_ops=len(images))
    miou = first_pass.report().mean_iou
    run.observed = {"logits": digests}
    run.quality = {"miou": miou}
    run.fingerprint = hashlib.sha256("".join(hashes).encode()).hexdigest()
    if not ckpt_matches:
        run.fail_all("ViT-B checkpoint differs from the stored hash")
    return run


WORKLOADS = {
    "train_toy": train_toy,
    "eval_toy": eval_toy,
    "infer_vitb_half": infer_vitb_half,
}
