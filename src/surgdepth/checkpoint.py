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

from .data import _open_input
from .errors import FormatError

MAGIC = b"SRGD0001\n"


def save_checkpoint(path, state):
    """state: ordered dict name -> ndarray, streamed one buffer at a time
    into a temporary file that then replaces ``path``, so a failed save
    leaves the previous file intact and no temporary file behind."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            offset = 0
            for name, arr in state.items():
                shape = np.shape(arr)
                dims = ",".join(str(d) for d in shape) or "1"
                fh.write(f"{name} {dims} {offset}\n".encode("ascii"))
                offset += 4 * math.prod(shape)
            fh.write(b"\n")
            for arr in state.values():
                fh.write(np.ascontiguousarray(arr, dtype="<f4"))  # the buffer, not a copy
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _read_manifest(fh, path):
    """Parse and check the header of a checkpoint open at its start.

    Returns ([(name, shape, offset)], payload file offset). Every buffer
    lies inside the payload, no two overlap and no name repeats.
    """
    if fh.read(len(MAGIC)) != MAGIC:
        raise FormatError(f"{path}: bad magic header", offset=0)
    lines = []
    for line in iter(fh.readline, b"\n"):
        if not line.endswith(b"\n"):
            raise FormatError(f"{path}: manifest not terminated", offset=len(MAGIC))
        lines.append(line)
    base = fh.tell()
    payload_size = os.fstat(fh.fileno()).st_size - base
    entries = []
    for line in lines:
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
        entries.append((name, shape, off))
    if len({name for name, _, _ in entries}) != len(entries):
        raise FormatError(f"{path}: a parameter name repeats in the manifest")
    extents = sorted((off, off + 4 * math.prod(shape), name)
                     for name, shape, off in entries if math.prod(shape))
    for (_, end, a), (start, _, b) in zip(extents, extents[1:]):
        if start < end:
            raise FormatError(f"{path}: buffers of {a} and {b} overlap", offset=base + start)
    return entries, base


def _read_buffer(fh, path, base, name, off, arr):
    """Fill the C-contiguous float32 ``arr`` from payload offset ``off``."""
    fh.seek(base + off)
    if fh.readinto(arr) != arr.nbytes:
        raise FormatError(f"{path}: truncated buffer for {name}", offset=base + off)
    return arr


def load_checkpoint(path):
    """Read a checkpoint: name -> fresh, writable float32 array.

    Each parameter is read straight into its own array, so the payload
    is copied once, however large the model.
    """
    with _open_input(path) as fh:
        entries, base = _read_manifest(fh, path)
        return {name: _read_buffer(fh, path, base, name, off, np.empty(shape, "<f4"))
                for name, shape, off in entries}


def save_model(path, model):
    """Write ``model``'s parameters from their own arrays, no state dict."""
    save_checkpoint(path, {name: p.data for name, p in model.named_parameters()})


def load_model(path, model):
    """Read a checkpoint straight into ``model``'s own parameter arrays.

    The whole manifest is checked against the file and the model before
    any parameter is written (FormatError, ConfigError). Float32
    parameters are read in place; any other dtype is read into a fresh
    float32 array and cast. No state dict is built, and the model's
    deferred init never runs.
    """
    with _open_input(path) as fh:
        entries, base = _read_manifest(fh, path)
        offsets = {name: off for name, _, off in entries}

        def write(name, dst):
            if dst.dtype == "<f4" and dst.flags.c_contiguous:
                _read_buffer(fh, path, base, name, offsets[name], dst)
            else:
                dst[...] = _read_buffer(fh, path, base, name, offsets[name],
                                        np.empty(dst.shape, "<f4"))

        model.load_parameters({name: shape for name, shape, _ in entries}, write)
    return model
