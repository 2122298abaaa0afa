import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surgdepth.data import (AMBIGUOUS_COLOR, BLUR_SIGMA, FAR_DEPTH, NEAR_DEPTH,
                            RgbdSample, SceneSpec, _read_pnm, _write_pnm, augment,
                            color_jitter, gaussian_blur, generate_dataset,
                            generate_sample, hflip, load_dataset, read_sample,
                            rgb_ambiguous_fraction, split_dataset,
                            write_dataset, write_sample)
from surgdepth.errors import DataError, FormatError
from surgdepth.losses import IGNORE_INDEX
from surgdepth.oracles import gaussian_blur_oracle
from surgdepth.rng import make_rng


class TestGeneration:
    def test_shapes_dtypes_ranges(self):
        s = generate_sample(SceneSpec(), 0, 32, 48)
        assert s.rgb.shape == (3, 32, 48) and s.rgb.dtype == np.float32
        assert s.depth.shape == (1, 32, 48) and s.depth.dtype == np.float32
        assert s.label.shape == (32, 48) and s.label.dtype == np.int32
        assert s.rgb.min() >= 0 and s.rgb.max() <= 1
        assert s.depth.min() >= 0 and s.depth.max() <= 1
        assert s.label.min() >= 0 and s.label.max() < 4

    def test_deterministic_per_seed_and_index(self):
        a = generate_sample(SceneSpec(seed=5), 3, 16, 16)
        b = generate_sample(SceneSpec(seed=5), 3, 16, 16)
        c = generate_sample(SceneSpec(seed=6), 3, 16, 16)
        np.testing.assert_array_equal(a.rgb, b.rgb)
        assert not np.array_equal(a.rgb, c.rgb)

    def test_coupled_pixels_share_color_differ_in_depth(self):
        """At full coupling, classes 1 and 2 are drawn in the same gray and
        are separable only through disjoint depth bands."""
        spec = SceneSpec(depth_coupling=1.0, seed=1)
        samples = generate_dataset(spec, 16, 32, 32)
        got1 = got2 = False
        for s in samples:
            for cls, (lo, hi) in ((1, NEAR_DEPTH), (2, FAR_DEPTH)):
                m = s.label == cls
                if not m.any():
                    continue
                # median color is the shared gray (up to sensor noise)
                med = np.median(s.rgb[:, m], axis=1)
                assert np.abs(med - AMBIGUOUS_COLOR).max() < 0.05
                dmed = np.median(s.depth[0][m])
                assert lo - 0.05 <= dmed <= hi + 0.05
                if cls == 1:
                    got1 = True
                else:
                    got2 = True
        assert got1 and got2

    def test_zero_coupling_has_no_ambiguous_pixels(self):
        samples = generate_dataset(SceneSpec(depth_coupling=0.0, seed=2), 8, 32, 32)
        assert rgb_ambiguous_fraction(samples) == 0.0

    def test_coupling_raises_ambiguous_fraction(self):
        lo = rgb_ambiguous_fraction(generate_dataset(
            SceneSpec(depth_coupling=0.25, seed=3), 16, 32, 32))
        hi = rgb_ambiguous_fraction(generate_dataset(
            SceneSpec(depth_coupling=1.0, seed=3), 16, 32, 32))
        assert hi > lo > 0.0

    def test_validation(self):
        with pytest.raises(DataError):
            generate_dataset(SceneSpec(depth_coupling=1.5), 2, 8, 8)
        with pytest.raises(DataError):
            generate_dataset(SceneSpec(num_classes=2), 2, 8, 8)
        with pytest.raises(DataError):
            generate_dataset(SceneSpec(), 0, 8, 8)

    def test_split_disjoint_and_deterministic(self):
        samples = generate_dataset(SceneSpec(), 12, 8, 8)
        t1, v1 = split_dataset(samples, 0.25, seed=0)
        t2, v2 = split_dataset(samples, 0.25, seed=0)
        assert len(t1) + len(v1) == 12 and len(v1) == 3
        assert all(a is b for a, b in zip(t1, t2))
        assert all(a is b for a, b in zip(v1, v2))


class TestAugment:
    def test_hflip_is_involution(self):
        s = generate_sample(SceneSpec(), 0, 16, 16)
        back = hflip(hflip(s))
        np.testing.assert_array_equal(back.rgb, s.rgb)
        np.testing.assert_array_equal(back.depth, s.depth)
        np.testing.assert_array_equal(back.label, s.label)

    def test_hflip_moves_columns(self):
        s = generate_sample(SceneSpec(), 0, 16, 16)
        f = hflip(s)
        np.testing.assert_array_equal(f.label[:, 0], s.label[:, -1])

    def test_jitter_output_stays_clamped(self):
        rng = make_rng(0)
        rgb = rng.random((3, 8, 8)).astype(np.float32)
        for _ in range(1000):
            out = color_jitter(rgb, rng)
            assert out.min() >= 0.0 and out.max() <= 1.0
            assert out.dtype == np.float32

    def test_augment_never_touches_depth_or_label(self):
        s = generate_sample(SceneSpec(), 0, 16, 16)
        rng = make_rng(1)
        for _ in range(20):
            out = augment(s, rng)
            assert np.array_equal(out.label, s.label) or np.array_equal(
                out.label, s.label[:, ::-1])
            # depth must be the original or its mirror, never photometrically altered
            assert (np.array_equal(out.depth, s.depth)
                    or np.array_equal(out.depth, s.depth[:, :, ::-1]))

    def test_augment_deterministic_for_seed(self):
        s = generate_sample(SceneSpec(), 0, 16, 16)
        a = augment(s, make_rng(7))
        b = augment(s, make_rng(7))
        np.testing.assert_array_equal(a.rgb, b.rgb)

    # below sigma 0.125 the radius is 0; at 2.0 it is 8, past every side here
    @pytest.mark.parametrize("sigma", [BLUR_SIGMA[0], 0.124, 0.125, 0.6, 1.3,
                                       BLUR_SIGMA[1]])
    def test_gaussian_blur_matches_loop_oracle_bit_for_bit(self, sigma):
        rng = make_rng(5)
        for h, w in [(7, 6), (3, 5), (1, 4)]:
            img = rng.random((3, h, w)).astype(np.float32)
            got = gaussian_blur(img, sigma)
            assert got.dtype == np.float32 and got.flags.c_contiguous
            assert got.tobytes() == gaussian_blur_oracle(img, sigma).tobytes(), (h, w)

    def test_gaussian_blur_matches_scipy_bit_for_bit(self):
        """SciPy's filter blurred the images behind perfbench's stored
        train_toy references."""
        ndimage = pytest.importorskip("scipy.ndimage")
        rng = make_rng(6)
        shapes = [(64, 64)] + [tuple(int(v) for v in rng.integers(1, 40, size=2))
                               for _ in range(60)]
        for h, w in shapes:
            sigma = float(rng.uniform(*BLUR_SIGMA))
            img = rng.random((3, h, w)).astype(np.float32)
            want = np.stack([ndimage.gaussian_filter(c, sigma, mode="nearest")
                             for c in img])
            assert gaussian_blur(img, sigma).tobytes() == want.tobytes(), (h, w, sigma)


def _reference_read_pnm(path, expect_magic):
    """The Netpbm reader as it was when its header was walked one byte at a
    time; the reference for the compiled-pattern reader."""
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def token():
        nonlocal pos
        while pos < len(blob):
            if blob[pos:pos + 1].isspace():
                pos += 1
            elif blob[pos:pos + 1] == b"#":
                while pos < len(blob) and blob[pos] != 0x0A:
                    pos += 1
            else:
                break
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated header", offset=start)
        return blob[start:pos]

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
    pos += 1
    channels = 3 if expect_magic == "P6" else 1
    need = w * h * channels * (2 if maxval > 255 else 1)
    raster = blob[pos:pos + need]
    if len(raster) != need:
        raise FormatError(f"{path}: raster is {len(raster)} bytes, need {need}", offset=pos)
    arr = np.frombuffer(raster, dtype=">u2" if maxval > 255 else np.uint8)
    over = np.flatnonzero(arr > maxval)
    if over.size:
        raise FormatError(f"{path}: a sample exceeds maxval {maxval}",
                          offset=pos + int(over[0]) * arr.itemsize)
    return arr.reshape((h, w, 3) if channels == 3 else (h, w)), maxval


def _outcome(read, path, expect):
    """What one reader makes of a file: (array bytes, dtype, shape, strides,
    maxval), or (exception type, message, offset)."""
    try:
        arr, maxval = read(path, expect)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)
    return arr.tobytes(), arr.dtype, arr.shape, arr.strides, maxval


class TestNetpbm:
    def test_hand_encoded_p6_fixture(self, tmp_path):
        """A 2x1 PPM written byte-by-byte reads back to the expected pixels."""
        path = tmp_path / "tiny.ppm"
        path.write_bytes(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 0, 255]))
        arr, maxval = _read_pnm(str(path), "P6")
        assert maxval == 255
        np.testing.assert_array_equal(arr, [[[255, 0, 0], [0, 0, 255]]])

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes(4))
        arr, _ = _read_pnm(str(path), "P5")
        assert arr.shape == (2, 2)

    def test_sixteen_bit_raster_is_big_endian(self, tmp_path):
        path = tmp_path / "d.pgm"
        _write_pnm(str(path), "P5", np.array([[0x0102]], np.uint16), 65535)
        assert path.read_bytes().endswith(b"\x01\x02")
        arr, maxval = _read_pnm(str(path), "P5")
        assert maxval == 65535
        assert int(arr[0, 0]) == 0x0102

    def test_wrong_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(FormatError) as err:
            _read_pnm(str(path), "P6")
        assert err.value.offset == 0

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(FormatError):
            _read_pnm(str(path), "P5")

    @pytest.mark.parametrize("maxval", [0, -1, 65536])
    def test_maxval_outside_range_rejected(self, tmp_path, maxval):
        # maxval 0 used to load, and read_sample divided depth by it (all NaN).
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n%d\n" % maxval + bytes(8))
        with pytest.raises(FormatError):
            _read_pnm(str(path), "P5")

    @pytest.mark.parametrize("magic, maxval, samples", [
        ("P6", 100, [0, 0, 0, 12, 101, 0]),        # 8-bit RGB
        ("P6", 1000, [0, 0, 0, 0, 1001, 0]),       # 16-bit RGB
        ("P5", 1000, [7, 1001]),                   # 16-bit depth
        ("P5", 3, [3, 4]),                         # 8-bit label
    ], ids=["rgb8", "rgb16", "depth16", "label8"])
    def test_sample_above_maxval_rejected(self, tmp_path, magic, maxval, samples):
        """A sample above the header's maxval would read above 1.0; the
        offset is the first such sample's."""
        path = tmp_path / "over.pnm"
        header = f"{magic}\n{len(samples) // (3 if magic == 'P6' else 1)} 1\n{maxval}\n"
        dtype = ">u2" if maxval > 255 else np.uint8
        path.write_bytes(header.encode() + np.array(samples, dtype).tobytes())
        with pytest.raises(FormatError, match=f"a sample exceeds maxval {maxval}") as err:
            _read_pnm(str(path), magic)
        first = samples.index(maxval + 1) * np.dtype(dtype).itemsize
        assert err.value.offset == len(header) + first

    @settings(max_examples=200, deadline=None)
    @given(magic=st.sampled_from([b"P5", b"P6", b"P4", b""]),
           fields=st.lists(st.one_of(st.integers(-3, 70000).map(lambda v: b"%d" % v),
                                     st.binary(max_size=4)), max_size=4),
           sep=st.sampled_from([b"\n", b" ", b"\t", b"\n# c\n", b""]),
           raster=st.binary(max_size=64))
    @example(magic=b"P5", fields=[b"-1", b"-1", b"255"], sep=b"\n", raster=b"\x00")
    @example(magic=b"P5", fields=[b"0", b"8", b"255"], sep=b"\n", raster=b"")
    def test_fuzzed_header_raises_only_format_errors(self, tmp_path_factory, magic,
                                                     fields, sep, raster):
        """Any header loads a non-empty raster or raises FormatError/DataError:
        a side below 1 is rejected, neither reshaped (-1x-1) nor loaded empty."""
        path = tmp_path_factory.getbasetemp() / "fuzzed.pnm"
        path.write_bytes(sep.join([magic, *fields]) + sep + raster)
        for expect in ("P5", "P6"):
            try:
                arr, _ = _read_pnm(str(path), expect)
            except (FormatError, DataError):
                continue
            assert arr.size > 0

    @settings(max_examples=300, deadline=None)
    @given(edits=st.lists(st.tuples(st.sampled_from(["set", "insert", "delete"]),
                                    st.integers(0, 40),
                                    st.binary(min_size=1, max_size=4) | st.lists(
                                        st.sampled_from(b" \t\n\r\x0b\x0c#0123456789P5-+_x"),
                                        min_size=1, max_size=4).map(bytes)),
                          max_size=4),
           header=st.sampled_from([b"P5\n2 3\n255\n", b"P6 # a comment\n2\t3\n# 9\n65535\r",
                                   b"P5\n#\n#\n2 3 255 ", b"P6\n2 3\n1\n"]))
    @example(edits=[("set", 1, b"#")], header=b"P5\n2 3\n255\n")
    @example(edits=[("delete", 10, b"\x00" * 4)], header=b"P5\n2 3\n255\n")
    def test_header_tokens_match_the_byte_by_byte_reader(self, tmp_path_factory,
                                                         edits, header):
        """Byte edits of a header read, as P5 and as P6, to the same array,
        maxval, or exception type, message and offset as the reader that
        walked the header one byte at a time."""
        blob = bytearray(header + bytes(range(48)) * 2)
        for op, at, chunk in edits:
            at = min(at, len(blob))
            if op == "set":
                blob[at:at + len(chunk)] = chunk
            elif op == "insert":
                blob[at:at] = chunk
            else:
                del blob[at:at + len(chunk)]
        path = str(tmp_path_factory.getbasetemp() / "edited.pnm")
        with open(path, "wb") as fh:
            fh.write(blob)
        for expect in ("P5", "P6"):
            got, want = _outcome(_read_pnm, path, expect), _outcome(_reference_read_pnm,
                                                                    path, expect)
            assert got == want, (bytes(blob), expect)

    def test_sample_round_trip_within_quantization(self, tmp_path):
        s = generate_sample(SceneSpec(), 0, 16, 16)
        write_sample(str(tmp_path), 0, s)
        back = read_sample(str(tmp_path), 0)
        assert np.abs(back.rgb - s.rgb).max() <= 0.5 / 255 + 1e-6
        assert np.abs(back.depth - s.depth).max() <= 0.5 / 65535 + 1e-6
        np.testing.assert_array_equal(back.label, s.label)

    def test_sixteen_bit_rgb_scaled_by_its_maxval(self, tmp_path):
        s = generate_sample(SceneSpec(), 0, 8, 8)
        write_sample(str(tmp_path), 0, s)
        rgb16 = np.rint(s.rgb * 65535.0).transpose(1, 2, 0)
        _write_pnm(str(tmp_path / "000000_rgb.ppm"), "P6", rgb16, 65535)
        back = read_sample(str(tmp_path), 0)
        assert back.rgb.dtype == np.float32
        assert np.abs(back.rgb - s.rgb).max() <= 1 / 65535

    def test_eight_bit_rgb_keeps_its_bits(self, tmp_path):
        s = generate_sample(SceneSpec(), 0, 8, 8)
        write_sample(str(tmp_path), 0, s)
        raw, _ = _read_pnm(str(tmp_path / "000000_rgb.ppm"), "P6")
        expected = (raw.astype(np.float32) / 255.0).transpose(2, 0, 1)
        assert read_sample(str(tmp_path), 0).rgb.tobytes() == expected.tobytes()

    def test_dataset_round_trip(self, tmp_path):
        samples = generate_dataset(SceneSpec(), 8, 16, 16)
        write_dataset(str(tmp_path), samples, num_classes=4)
        train, val, k = load_dataset(str(tmp_path))
        assert k == 4
        assert len(train) + len(val) == 8
        assert len(val) == 2


class TestManifest:
    @pytest.fixture
    def dataset(self, tmp_path):
        write_dataset(str(tmp_path), generate_dataset(SceneSpec(), 4, 16, 16),
                      num_classes=4)
        return tmp_path

    @pytest.mark.parametrize("line, message", [
        (b"garbage", "expected 'index split height width num_classes'"),
        (b"0 train 16 x 4", "expected 'index split height width num_classes'"),
        (b"0 test 16 16 4", "split 'test' is not train or val"),
        (b"0 train 16 16 5", "5 classes, earlier lines say 4"),
        (b"\xff\xfe0 train 16 16 4", "num_classes' in UTF-8, got b'"),
        (b"2 train 16 16 4", "sample 2 is listed twice"),
    ], ids=["garbage", "non_integer", "bad_split", "class_count_disagrees", "not_utf8",
            "index_listed_twice"])
    def test_bad_line_rejected_with_its_line_number(self, dataset, line, message):
        with open(dataset / "manifest.txt", "ab") as fh:
            fh.write(line + b"\n")
        with pytest.raises(DataError, match=message) as err:
            load_dataset(str(dataset))
        assert "manifest.txt:5" in str(err.value)

    def test_label_outside_class_range_rejected(self, dataset):
        s = read_sample(str(dataset), 2)
        s.label[0, 0] = 4
        write_sample(str(dataset), 2, s)
        with pytest.raises(DataError, match="sample 2: label 4 >= 4 classes"):
            load_dataset(str(dataset))

    def test_ignore_label_accepted(self, dataset):
        s = read_sample(str(dataset), 2)
        s.label[0, 0] = IGNORE_INDEX
        write_sample(str(dataset), 2, s)
        train, val, _ = load_dataset(str(dataset))
        assert any(x.label[0, 0] == IGNORE_INDEX for x in train + val)
