"""Checkpoint format SRGD0001: plain-text manifest, then raw parameter
buffers as little-endian float32.

Layout:
    SRGD0001\n
    <name> <d0,d1,...> <byte offset into blob>\n   (one per parameter)
    \n
    <binary blob>
"""

import math
import os

import numpy as np

from .errors import ConfigError, FormatError

MAGIC = b"SRGD0001\n"


def save_checkpoint(path, state):
    """state: ordered dict name -> ndarray."""
    manifest = []
    chunks = []
    offset = 0
    for name, arr in state.items():
        arr = np.ascontiguousarray(arr, dtype="<f4")
        dims = ",".join(str(d) for d in arr.shape) or "1"
        manifest.append(f"{name} {dims} {offset}\n")
        chunks.append(arr.tobytes())
        offset += len(chunks[-1])
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.writelines(m.encode("ascii") for m in manifest)
        fh.write(b"\n")
        for c in chunks:
            fh.write(c)


def load_checkpoint(path):
    """Read a checkpoint: name -> fresh, writable float32 array.

    Each parameter is read straight into its own array, so the payload
    is copied once, however large the model.
    """
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise FormatError(f"{path}: bad magic header", offset=0)
        manifest = []
        for line in iter(fh.readline, b"\n"):
            if not line.endswith(b"\n"):
                raise FormatError(f"{path}: manifest not terminated", offset=len(MAGIC))
            manifest.append(line)
        base = fh.tell()
        payload_size = os.fstat(fh.fileno()).st_size - base
        state = {}
        for line in manifest:
            try:
                name, dims, off = line.decode("ascii").split()
                shape = tuple(int(d) for d in dims.split(","))
                off = int(off)
            except ValueError:  # UnicodeDecodeError included
                raise FormatError(f"{path}: malformed manifest line {line!r}") from None
            if off < 0 or min(shape) < 0:
                raise FormatError(f"{path}: negative offset or dimension in {line!r}")
            if off + 4 * math.prod(shape) > payload_size:
                raise FormatError(f"{path}: truncated buffer for {name}", offset=base + off)
            arr = np.empty(shape, dtype="<f4")
            fh.seek(base + off)
            if fh.readinto(arr) != arr.nbytes:
                raise FormatError(f"{path}: truncated buffer for {name}", offset=base + off)
            state[name] = arr
    return state


def save_model(path, model):
    save_checkpoint(path, model.state_dict())


def load_model(path, model):
    state = load_checkpoint(path)
    try:
        model.load_state_dict(state)
    except ConfigError:
        raise
    return model
