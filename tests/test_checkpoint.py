import re
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surgdepth import rng as rng_mod
from surgdepth.checkpoint import (MAGIC, load_checkpoint, load_model,
                                  save_checkpoint, save_model)
from surgdepth.errors import ConfigError, DataError, FormatError
from surgdepth.model import ModelConfig, build_model
from surgdepth.rng import make_rng


def _toy_cfg(**kw):
    base = dict(image_h=16, image_w=16, patch=4, embed_dim=16, depth_blocks=1,
                heads=2, fusion_k=2, decoder_blocks=1, num_classes=3)
    base.update(kw)
    return ModelConfig(**base)


def test_round_trip_bit_exact(tmp_path):
    rng = make_rng(0)
    state = {
        "a.w": rng.normal(size=(3, 4)).astype(np.float32),
        "a.b": rng.normal(size=4).astype(np.float32),
        "scalar": np.float32(1.25).reshape(()),
    }
    path = tmp_path / "ckpt.srgd"
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(state)
    for name in state:
        np.testing.assert_array_equal(loaded[name],
                                      np.asarray(state[name]).reshape(loaded[name].shape))


def test_file_starts_with_magic(tmp_path):
    path = tmp_path / "ckpt.srgd"
    save_checkpoint(path, {"x": np.zeros(2, np.float32)})
    assert path.read_bytes().startswith(MAGIC)


def test_blob_is_little_endian_f32(tmp_path):
    path = tmp_path / "ckpt.srgd"
    save_checkpoint(path, {"x": np.array([1.0], np.float32)})
    blob = path.read_bytes()
    assert blob[-4:] == np.array([1.0], "<f4").tobytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.srgd"
    path.write_bytes(b"NOTM0001\n\n")
    with pytest.raises(FormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("load", [load_checkpoint,
                                  lambda path: load_model(path, build_model(_toy_cfg()))],
                         ids=["load_checkpoint", "load_model"])
def test_missing_file_is_data_error(tmp_path, load):
    with pytest.raises(DataError, match="none.srgd: no such file"):
        load(tmp_path / "none.srgd")


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "ckpt.srgd"
    save_checkpoint(path, {"x": np.zeros(8, np.float32)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_failed_save_keeps_previous_file(tmp_path):
    resource = pytest.importorskip("resource")
    path = tmp_path / "ckpt.srgd"
    old = {"a": np.arange(6, dtype=np.float32)}
    save_checkpoint(path, old)
    # a file size limit makes the write fail partway, as a full disk would
    limits = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    try:
        resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 14, limits[1]))
        with pytest.raises(OSError):
            save_checkpoint(path, {"a": np.ones(1 << 13, np.float32)})
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, limits)
        signal.signal(signal.SIGXFSZ, handler)
    np.testing.assert_array_equal(load_checkpoint(path)["a"], old["a"])
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.srgd"]


def test_loaded_arrays_are_writable(tmp_path):
    path = tmp_path / "ckpt.srgd"
    save_checkpoint(path, {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
                           "b": np.ones(4, np.float32)})
    for arr in load_checkpoint(path).values():
        assert arr.flags.writeable
        arr += 1.0


def _two_param_file(path, manifest):
    """A checkpoint whose payload holds a = 0..3 then b = 4..7."""
    payload = np.arange(8, dtype="<f4").tobytes()
    path.write_bytes(MAGIC + manifest + b"\n" + payload)


def test_negative_offset_rejected(tmp_path):
    # Counted from the payload's end, -32 lands on a's bytes.
    path = tmp_path / "neg.srgd"
    _two_param_file(path, b"a 4 0\nb 4 -32\n")
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_non_ascii_manifest_rejected(tmp_path):
    path = tmp_path / "latin1.srgd"
    _two_param_file(path, b"a 4 0\nb\xe9 4 16\n")
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_overlapping_buffers_rejected(tmp_path):
    # b's extent 8..24 covers the last half of a's 0..16.
    path = tmp_path / "overlap.srgd"
    _two_param_file(path, b"a 4 0\nb 4 8\n")
    with pytest.raises(FormatError, match="overlap"):
        load_checkpoint(path)


def test_repeated_name_rejected(tmp_path):
    path = tmp_path / "twice.srgd"
    _two_param_file(path, b"a 4 0\na 4 16\n")
    with pytest.raises(FormatError):
        load_checkpoint(path)


def _rewrite_manifest(path, edit):
    """Rewrite a checkpoint's manifest lines with ``edit(lines)``."""
    blob = path.read_bytes()
    end = blob.index(b"\n\n", len(MAGIC))
    lines = blob[len(MAGIC):end + 1].splitlines(keepends=True)
    path.write_bytes(MAGIC + b"".join(edit(lines)) + blob[end + 1:])


@pytest.mark.parametrize("defect", ["overlap", "truncated", "negative"])
def test_load_model_checks_whole_file_before_writing(tmp_path, defect):
    path = tmp_path / "model.srgd"
    save_model(path, build_model(_toy_cfg(seed=3)))

    def edit(lines):
        name, dims, off = lines[-1].split()
        if defect == "overlap":      # the last buffer starts 4 bytes early
            off = str(int(off) - 4).encode()
        elif defect == "truncated":  # the last buffer runs past the payload
            off = str(int(off) + 4).encode()
        else:
            off = b"-4"
        return lines[:-1] + [b" ".join([name, dims, off]) + b"\n"]

    _rewrite_manifest(path, edit)
    model = build_model(_toy_cfg(seed=9))
    before = model.state_dict()
    with pytest.raises(FormatError):
        load_model(path, model)
    for name, arr in model.state_dict().items():
        np.testing.assert_array_equal(arr, before[name])


def test_build_then_load_draws_no_random_number(tmp_path, monkeypatch):
    src = build_model(_toy_cfg(seed=3))
    path = tmp_path / "model.srgd"
    save_model(path, src)

    def no_draws(*args):
        raise AssertionError("a deferred init was drawn")

    monkeypatch.setattr(rng_mod, "_fill_trunc_normal", no_draws)
    model = load_model(path, build_model(_toy_cfg(seed=9)))
    model(np.zeros((3, 16, 16), np.float32), np.zeros((1, 16, 16), np.float32))
    for (n1, p1), (n2, p2) in zip(src.named_parameters(), model.named_parameters()):
        assert n1 == n2
        np.testing.assert_array_equal(p1.data, p2.data)


def test_float64_model_loads_float32_checkpoint(tmp_path):
    src = build_model(_toy_cfg(seed=3))
    path = tmp_path / "model.srgd"
    save_model(path, src)
    model = load_model(path, build_model(_toy_cfg(seed=9), dtype=np.float64))
    for (n1, p1), (n2, p2) in zip(src.named_parameters(), model.named_parameters()):
        assert n1 == n2 and p2.dtype == np.float64
        np.testing.assert_array_equal(p1.data.astype(np.float64), p2.data)


def test_model_round_trip(tmp_path):
    model = build_model(_toy_cfg(seed=3))
    path = tmp_path / "model.srgd"
    save_model(path, model)
    other = build_model(_toy_cfg(seed=9))
    load_model(path, other)
    for (n1, p1), (n2, p2) in zip(model.named_parameters(),
                                  other.named_parameters()):
        assert n1 == n2
        np.testing.assert_array_equal(p1.data, p2.data)


def test_mismatched_architecture_rejected(tmp_path):
    model = build_model(_toy_cfg())
    path = tmp_path / "model.srgd"
    save_model(path, model)
    other = build_model(_toy_cfg(decoder_blocks=2))
    with pytest.raises(ConfigError):
        load_model(path, other)


def test_save_is_deterministic(tmp_path):
    model = build_model(_toy_cfg())
    p1, p2 = tmp_path / "a.srgd", tmp_path / "b.srgd"
    save_model(p1, model)
    save_model(p2, model)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.fixture(scope="module")
def toy_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "toy.ckpt"
    save_model(path, build_model(_toy_cfg()))
    return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_checkpoint_raises_only_input_errors(tmp_path_factory, toy_checkpoint, data):
    """Mutated bytes of a valid checkpoint (most edits in the manifest)
    either load or raise FormatError, DataError or ConfigError."""
    blob = bytearray(toy_checkpoint)
    numbers = [m.span() for m in re.finditer(rb"\d+", blob[:blob.index(b"\n\n")])][1:]
    swap = data.draw(st.one_of(st.none(), st.tuples(st.sampled_from(numbers),
                                                     st.integers(-2 ** 33, 2 ** 33))))
    if swap:   # one number of the manifest (past the magic) becomes another
        (lo, hi), value = swap
        blob[lo:hi] = b"%d" % value
    header = blob.index(b"\n\n") + 2
    pos = st.one_of(st.integers(0, header), st.integers(0, len(blob) - 1))
    byte = st.one_of(st.sampled_from(b"0123456789,- \n"), st.integers(0, 255))
    for at, value in data.draw(st.lists(st.tuples(pos, byte), max_size=4)):
        blob[at] = value
    at, extra = data.draw(st.tuples(pos, st.binary(max_size=3)))
    blob[at:at] = extra
    cut = data.draw(st.one_of(st.none(), pos))
    path = tmp_path_factory.getbasetemp() / "fuzzed.ckpt"
    path.write_bytes(bytes(blob[:cut]))
    for load in (load_checkpoint, lambda p: load_model(p, build_model(_toy_cfg()))):
        try:
            load(path)
        except (FormatError, DataError, ConfigError):
            pass
