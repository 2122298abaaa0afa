"""Synthetic RGB-D scenes with depth-dependent labels, augmentations,
and a dependency-free Netpbm on-disk format.

Scenes are random rectangles/ellipses over a background. A region is
"depth-coupled" with probability depth_coupling: it is drawn in a shared
ambiguous color and its class (1 or 2) is determined purely by its depth
layer, so an RGB-only model cannot separate those two classes. Uncoupled
regions use one distinct color per class.
"""

import contextlib
import errno
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FormatError
from .losses import IGNORE_INDEX

AMBIGUOUS_COLOR = (0.55, 0.55, 0.55)
BACKGROUND_COLOR = (0.10, 0.15, 0.25)
# distinct colors for uncoupled classes 1..8
PALETTE = [
    (0.85, 0.20, 0.15), (0.15, 0.75, 0.25), (0.20, 0.30, 0.85),
    (0.90, 0.80, 0.15), (0.80, 0.20, 0.80), (0.15, 0.80, 0.80),
    (0.95, 0.55, 0.15), (0.45, 0.25, 0.10),
]
NEAR_DEPTH = (0.65, 0.80)   # coupled class 1
FAR_DEPTH = (0.25, 0.40)    # coupled class 2
BACKGROUND_DEPTH = 0.05
SHAPES_PER_SCENE = (4, 7)               # regions per scene, inclusive
COLOR_NOISE, DEPTH_NOISE = 0.02, 0.01   # sensor noise stds
# augment flips and blurs with these chances, then always color-jitters:
# brightness, contrast and saturation by 1 +- JITTER, hue by +-HUE_JITTER
FLIP_P, BLUR_P, BLUR_SIGMA = 0.5, 0.5, (0.1, 2.0)
JITTER, HUE_JITTER = 0.2, 0.05


@dataclass
class RgbdSample:
    rgb: np.ndarray      # (3,H,W) float32 in [0,1]
    depth: np.ndarray    # (1,H,W) float32 in [0,1], larger = nearer
    label: np.ndarray    # (H,W) int32 in [0,K) or 255
    ambiguous: np.ndarray | None = None  # (H,W) bool, RGB-ambiguous pixels


@dataclass
class SceneSpec:
    num_classes: int = 4
    depth_coupling: float = 0.5
    seed: int = 0

    def validate(self):
        if not 0.0 <= self.depth_coupling <= 1.0:
            raise DataError("depth_coupling must be in [0,1]")
        if self.num_classes < 3:
            raise DataError("need at least 3 classes (background + coupled pair)")
        if self.seed < 0:
            raise DataError(f"seed must be at least 0, got {self.seed}")
        if self.num_classes > IGNORE_INDEX:
            raise DataError(f"at most {IGNORE_INDEX} classes: labels are 8-bit and "
                            f"{IGNORE_INDEX} means ignore")
        return self


def _region_mask(rng, h, w):
    kind = rng.choice(["rect", "ellipse"])
    rh = int(rng.uniform(0.25, 0.55) * h)
    rw = int(rng.uniform(0.25, 0.55) * w)
    cy = rng.integers(0, h)
    cx = rng.integers(0, w)
    yy, xx = np.mgrid[0:h, 0:w]
    if kind == "rect":
        return (np.abs(yy - cy) <= rh // 2) & (np.abs(xx - cx) <= rw // 2)
    return (((yy - cy) / max(rh / 2, 1)) ** 2 + ((xx - cx) / max(rw / 2, 1)) ** 2) <= 1.0


def generate_sample(spec, index, h, w):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((spec.seed, index))))
    rgb = np.empty((3, h, w), dtype=np.float32)
    for c in range(3):
        rgb[c] = BACKGROUND_COLOR[c]
    depth = np.full((1, h, w), BACKGROUND_DEPTH, dtype=np.float32)
    label = np.zeros((h, w), dtype=np.int32)
    ambiguous = np.zeros((h, w), dtype=bool)

    n_shapes = int(rng.integers(SHAPES_PER_SCENE[0], SHAPES_PER_SCENE[1] + 1))
    for _ in range(n_shapes):
        mask = _region_mask(rng, h, w)
        coupled = rng.random() < spec.depth_coupling
        if coupled:
            cls = int(rng.choice([1, 2]))
            color = AMBIGUOUS_COLOR
            lo, hi = NEAR_DEPTH if cls == 1 else FAR_DEPTH
            d = rng.uniform(lo, hi)
        else:
            cls = int(rng.integers(1, spec.num_classes))
            color = PALETTE[(cls - 1) % len(PALETTE)]
            d = rng.uniform(0.2, 0.8)
        for c in range(3):
            rgb[c][mask] = color[c]
        depth[0][mask] = d
        label[mask] = cls
        ambiguous[mask] = coupled

    # mild, class-independent sensor noise
    rgb += rng.normal(0.0, COLOR_NOISE, size=rgb.shape).astype(np.float32)
    depth += rng.normal(0.0, DEPTH_NOISE, size=depth.shape).astype(np.float32)
    np.clip(rgb, 0.0, 1.0, out=rgb)
    np.clip(depth, 0.0, 1.0, out=depth)
    return RgbdSample(rgb=rgb, depth=depth, label=label, ambiguous=ambiguous)


def generate_dataset(spec, n, h, w):
    spec.validate()
    if n < 1:
        raise DataError("need at least one sample")
    if h < 1 or w < 1:
        raise DataError(f"image size {h}x{w} has a side below 1")
    return [generate_sample(spec, i, h, w) for i in range(n)]


def rgb_ambiguous_fraction(samples):
    """Fraction of pixels whose class is recoverable only from depth."""
    total = sum(s.label.size for s in samples)
    amb = sum(int(s.ambiguous.sum()) for s in samples if s.ambiguous is not None)
    return amb / total


def split_dataset(samples, val_fraction=0.25, seed=0):
    """Deterministic disjoint train/val index split; ``val_fraction`` in [0, 1]."""
    if not 0 <= val_fraction <= 1:   # NaN fails too
        raise DataError(f"val fraction must be in [0, 1], got {val_fraction}")
    n = len(samples)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xA11))))
    order = rng.permutation(n)
    n_val = max(1, int(round(n * val_fraction))) if n > 1 else 0
    val_idx = set(order[:n_val].tolist())
    train = [samples[i] for i in range(n) if i not in val_idx]
    val = [samples[i] for i in range(n) if i in val_idx]
    return train, val


# ---------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------

def _rgb_to_hsv(rgb):
    """(3,H,W) -> (3,H,W) hsv, all in [0,1]."""
    r, g, b = rgb
    maxc = np.max(rgb, axis=0)
    minc = np.min(rgb, axis=0)
    v = maxc
    rng_ = maxc - minc
    s = np.where(maxc > 0, rng_ / np.maximum(maxc, 1e-12), 0.0)
    safe = np.maximum(rng_, 1e-12)
    rc = (maxc - r) / safe
    gc = (maxc - g) / safe
    bc = (maxc - b) / safe
    h = np.where(maxc == r, bc - gc, np.where(maxc == g, 2.0 + rc - bc, 4.0 + gc - rc))
    h = np.where(rng_ == 0, 0.0, (h / 6.0) % 1.0)
    return np.stack([h, s, v])


def _hsv_to_rgb(hsv):
    h, s, v = hsv
    i = np.floor(h * 6.0)
    f = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    i = i.astype(np.int64) % 6
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return np.stack([r, g, b])


def color_jitter(rgb, rng):
    """Photometric jitter on an RGB raster; output clamped to [0,1]."""
    out = rgb.astype(np.float64)
    fb = rng.uniform(1 - JITTER, 1 + JITTER)
    out = out * fb
    fc = rng.uniform(1 - JITTER, 1 + JITTER)
    gray_mean = out.mean()
    out = gray_mean + (out - gray_mean) * fc
    out = np.clip(out, 0.0, 1.0)
    fs = rng.uniform(1 - JITTER, 1 + JITTER)
    dh = rng.uniform(-HUE_JITTER, HUE_JITTER)
    hsv = _rgb_to_hsv(out)
    hsv[1] = np.clip(hsv[1] * fs, 0.0, 1.0)
    hsv[0] = (hsv[0] + dh) % 1.0
    out = _hsv_to_rgb(hsv)
    return np.clip(out, 0.0, 1.0).astype(np.float32)


def hflip(sample):
    """Joint horizontal flip of rgb, depth and label."""
    return RgbdSample(
        rgb=sample.rgb[:, :, ::-1].copy(),
        depth=sample.depth[:, :, ::-1].copy(),
        label=sample.label[:, ::-1].copy(),
        ambiguous=None if sample.ambiguous is None else sample.ambiguous[:, ::-1].copy(),
    )


def gaussian_blur(img, sigma):
    """Blur each channel of a float32 (C,H,W) raster by a Gaussian of std
    ``sigma``, edges repeated; float32 bits equal to SciPy's
    ``gaussian_filter(img[c], sigma, mode="nearest")``.

    As SciPy does: weights ``exp(-0.5 / sigma**2 * x**2)`` for ``|x|`` up to
    ``int(4 * sigma + 0.5)``, over their sum; a float64 pass along H rounded
    to float32, then one along W, each summing ``center * w[0]`` and then
    ``(left + right) * w[j]`` from the outermost pair inward. The result is
    C-contiguous, as color_jitter's mean needs to sum in the same order.
    """
    r = int(4.0 * sigma + 0.5)
    phi = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = (phi / phi.sum())[r:]
    out = img
    # H, then W. Each pass blurs axis 1, where every shifted slice is a run
    # of whole rows (at 64x64 about 1.4x faster than slicing the last axis),
    # then swaps it last.
    for _ in range(2):
        n = out.shape[1]
        pad = out[:, np.clip(np.arange(-r, n + r), 0, n - 1)].astype(np.float64, order="C")
        acc = pad[:, r:r + n] * w[0]
        pair = np.empty_like(acc)
        for j in range(r, 0, -1):
            np.add(pad[:, r - j:r - j + n], pad[:, r + j:r + j + n], out=pair)
            pair *= w[j]
            acc += pair
        out = acc.astype(np.float32).transpose(0, 2, 1)
    return np.ascontiguousarray(out)


def augment(sample, rng):
    """Random flip (joint), gaussian blur and color jitter (RGB only)."""
    out = sample
    if rng.random() < FLIP_P:
        out = hflip(out)
    rgb = out.rgb
    if rng.random() < BLUR_P:
        sigma = rng.uniform(*BLUR_SIGMA)
        rgb = gaussian_blur(rgb, sigma)
    rng.random()   # the jitter's coin (p = 1): later draws keep their place
    rgb = color_jitter(rgb, rng)
    return RgbdSample(rgb=rgb, depth=out.depth, label=out.label,
                      ambiguous=out.ambiguous)


# ---------------------------------------------------------------------
# Netpbm I/O
# ---------------------------------------------------------------------

def _write_pnm(path, magic, arr, maxval):
    """arr is (H,W) for P5 or (H,W,3) for P6; 16-bit rasters are written
    MSB-first per the Netpbm convention."""
    h, w = arr.shape[0], arr.shape[1]
    header = f"{magic}\n{w} {h}\n{maxval}\n".encode("ascii")
    raster = arr.astype(">u2" if maxval > 255 else np.uint8).tobytes()
    with _open_output(path) as fh:
        fh.write(header)
        fh.write(raster)


def _open_input(path):
    """Open ``path`` for binary reading; DataError if the OS refuses."""
    try:
        return open(path, "rb")
    except FileNotFoundError:
        raise DataError(f"{path}: no such file") from None
    except OSError as exc:   # a directory, not a directory, a name too long
        raise DataError(f"{path}: {exc.strerror}") from None


def _check_out_file(path):
    """IsADirectoryError naming ``path`` if it is a directory; the OS refuses the rest."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))


@contextlib.contextmanager
def _open_output(path, mode="wb", newline=None):
    """Yield ``<path>.tmp`` open for writing; it replaces ``path`` when the
    block completes and is removed on any failure, so ``path`` keeps its old
    bytes. A directory or a name the OS refuses fails on entry, before any
    work. An OSError naming the temporary file or no file is re-raised naming
    ``path``; one naming another file (a raster written in the block) passes."""
    tmp = os.fspath(path) + ".tmp"
    try:
        _check_out_file(path)
        fh = open(tmp, mode, newline=newline)
        try:
            with fh:
                yield fh
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        if exc.filename in (None, tmp):
            exc.strerror, exc.filename = exc.strerror or str(exc), os.fspath(path)
        raise


# Whitespace and "#" comments to the end of their line, then a token.
_PNM_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def _read_pnm(path, expect_magic):
    with _open_input(path) as fh:
        blob = fh.read()
    pos = 0

    def token():
        nonlocal pos
        m = _PNM_TOKEN.match(blob, pos)
        pos = m.end()
        if not m.group(1):
            raise FormatError(f"{path}: truncated header", offset=pos)
        return m.group(1)

    magic = token()
    if magic != expect_magic.encode("ascii"):
        raise FormatError(f"{path}: expected {expect_magic}, got {magic!r}", offset=0)
    try:
        w, h, maxval = int(token()), int(token()), int(token())
    except ValueError:
        raise FormatError(f"{path}: malformed header integer", offset=pos) from None
    if not 1 <= maxval <= 65535:
        raise FormatError(f"{path}: maxval {maxval} outside 1..65535", offset=pos)
    if w < 1 or h < 1:
        raise FormatError(f"{path}: raster size {w}x{h} has a side below 1", offset=pos)
    pos += 1  # single whitespace byte after maxval
    channels = 3 if expect_magic == "P6" else 1
    itemsize = 2 if maxval > 255 else 1
    need = w * h * channels * itemsize
    raster = memoryview(blob)[pos:pos + need]
    if len(raster) != need:
        raise FormatError(f"{path}: raster is {len(raster)} bytes, need {need}", offset=pos)
    dtype = ">u2" if maxval > 255 else np.uint8
    arr = np.frombuffer(raster, dtype=dtype)
    if maxval not in (255, 65535) and arr.max() > maxval:   # no sample exceeds those
        raise FormatError(f"{path}: a sample exceeds maxval {maxval}",
                          offset=pos + itemsize * int(np.argmax(arr > maxval)))
    if channels == 3:
        arr = arr.reshape(h, w, 3)
    else:
        arr = arr.reshape(h, w)
    return arr, maxval


def sample_paths(directory, index):
    base = os.path.join(directory, f"{index:06d}")
    return base + "_rgb.ppm", base + "_depth.pgm", base + "_label.pgm"


def write_sample(directory, index, sample):
    rgb_path, depth_path, label_path = sample_paths(directory, index)
    rgb8 = np.rint(sample.rgb * 255.0).clip(0, 255).transpose(1, 2, 0)
    _write_pnm(rgb_path, "P6", rgb8, 255)
    d16 = np.rint(sample.depth[0] * 65535.0).clip(0, 65535)
    _write_pnm(depth_path, "P5", d16, 65535)
    _write_pnm(label_path, "P5", sample.label.astype(np.uint8), 255)


def read_sample(directory, index):
    rgb_path, depth_path, label_path = sample_paths(directory, index)
    rgb, rmax = _read_pnm(rgb_path, "P6")
    depth, dmax = _read_pnm(depth_path, "P5")
    label, _ = _read_pnm(label_path, "P5")
    if rgb.shape[:2] != depth.shape or depth.shape != label.shape:
        raise DataError(f"sample {index}: raster sizes disagree "
                        f"({rgb.shape[:2]}, {depth.shape}, {label.shape})")
    return RgbdSample(
        rgb=np.divide(rgb, rmax, dtype=np.float32).transpose(2, 0, 1),
        depth=np.divide(depth, dmax, dtype=np.float32)[None],
        label=label.astype(np.int32),
    )


def write_dataset(directory, samples, num_classes, val_fraction=0.25, seed=0):
    _, val = split_dataset(list(range(len(samples))), val_fraction, seed)
    os.makedirs(directory, exist_ok=True)
    val_set = set(val)
    with _open_output(os.path.join(directory, "manifest.txt"), "w") as manifest:
        for i, s in enumerate(samples):
            write_sample(directory, i, s)
            split = "val" if i in val_set else "train"
            h, w = s.label.shape
            manifest.write(f"{i} {split} {h} {w} {num_classes}\n")


def load_dataset(directory):
    """Returns (train_samples, val_samples, num_classes).

    Each manifest line reads ``index split height width num_classes`` in
    UTF-8, split being train or val, each index listed once. Labels must be
    below num_classes or IGNORE_INDEX.
    """
    manifest = os.path.join(directory, "manifest.txt")
    train, val, k, seen = [], [], None, set()
    with _open_input(manifest) as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                idx, split, h, w, kk = raw.decode("utf-8").split()
                idx, h, w, kk = int(idx), int(h), int(w), int(kk)
            except ValueError:   # UnicodeDecodeError included
                raise DataError(f"{manifest}:{lineno}: expected 'index split height "
                                f"width num_classes' in UTF-8, got {raw!r}") from None
            if split not in ("train", "val"):
                raise DataError(f"{manifest}:{lineno}: split {split!r} is not train or val")
            if k not in (None, kk):
                raise DataError(f"{manifest}:{lineno}: {kk} classes, earlier lines say {k}")
            k = kk
            if idx in seen:
                raise DataError(f"{manifest}:{lineno}: sample {idx} is listed twice")
            seen.add(idx)
            sample = read_sample(directory, idx)
            if sample.label.shape != (h, w):
                raise DataError(f"sample {idx}: manifest size mismatch")
            if sample.label.max() >= k:  # one cheap pass; the mask only on a hit
                bad = sample.label[(sample.label >= k) & (sample.label != IGNORE_INDEX)]
                if bad.size:
                    raise DataError(f"sample {idx}: label {bad.max()} >= {k} classes")
            (train if split == "train" else val).append(sample)
    if k is None:
        raise DataError(f"{manifest}: empty manifest")
    return train, val, k
