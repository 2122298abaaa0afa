import numpy as np
import pytest

from surgdepth import tensor as T
from surgdepth.errors import NumericError, ShapeError
from surgdepth.optim import AdamW
from surgdepth.oracles import (adaptive_avg_pool2d_oracle, bilinear_resize_oracle,
                               conv2d_oracle, layer_norm_oracle, matmul_oracle,
                               softmax_oracle)
from surgdepth.rng import make_rng
from surgdepth.verify import _f32_bits, _f32_span


class TestMatmul:
    def test_identity(self):
        b = make_rng(0).normal(size=(3, 4)).astype(np.float32)
        out = T.matmul(T.Tensor(np.eye(3, dtype=np.float32)), T.Tensor(b))
        np.testing.assert_array_equal(out.data, b)

    def test_zeros_times_ones(self):
        out = T.matmul(T.Tensor(np.zeros((2, 3), np.float32)),
                       T.Tensor(np.ones((3, 4), np.float32)))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4), np.float32))

    def test_matches_triple_loop_oracle(self):
        rng = make_rng(1)
        a = rng.normal(size=(4, 5)).astype(np.float32)
        b = rng.normal(size=(5, 6)).astype(np.float32)
        got = T.matmul(T.Tensor(a), T.Tensor(b)).data
        assert np.abs(got - matmul_oracle(a, b)).max() < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 2))))


class TestSoftmax:
    def test_uniform_input(self):
        out = T.softmax(T.Tensor(np.zeros(3, np.float32)[None]), axis=-1)
        np.testing.assert_allclose(out.data, [[1 / 3] * 3], rtol=1e-6)

    def test_large_inputs_no_overflow(self):
        out = T.softmax(T.Tensor(np.array([[1000.0, 1000.0]], np.float32)), axis=-1)
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_rows_sum_to_one_and_match_oracle(self):
        x = make_rng(2).normal(size=(3, 7)).astype(np.float32)
        out = T.softmax(T.Tensor(x), axis=-1).data
        assert np.abs(out.sum(axis=-1) - 1).max() < 1e-6
        assert np.all(out >= 0)
        for i in range(3):
            np.testing.assert_allclose(out[i], softmax_oracle(x[i]), atol=1e-6)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(NumericError):
            T.softmax(T.Tensor(np.array([np.nan, 0.0], np.float32)), axis=-1)

    # (700, 1000) spans 3 float32 or 6 float64 row blocks, the last one short
    @pytest.mark.parametrize("shape", [(700, 1000), (5, 3, 7), (7,)])
    @pytest.mark.parametrize("scale", [None, 0.37])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_unblocked_formula(self, dtype, scale, shape):
        rng = make_rng(4)
        x = (4 * rng.normal(size=shape)).astype(dtype)
        g = rng.normal(size=shape).astype(dtype)
        ref = _softmax_ref(x, scale)
        xt = T.Tensor(x, requires_grad=True)
        out = T.softmax(xt, axis=-1, scale=scale)
        T.backward(T.sum_(T.mul(out, T.Tensor(g))))
        assert out.dtype == dtype
        np.testing.assert_array_equal(out.data, ref)
        # the VJP of softmax, then of mul by the float32-rounded scale
        dx = ref * (g - (g * ref).sum(axis=-1, keepdims=True))
        if scale is not None:
            dx = dx * np.float32(scale)
        np.testing.assert_array_equal(xt.grad, dx)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("scale", [None, 0.37])
    def test_nonfinite_in_a_later_block_rejected(self, bad, scale):
        x = make_rng(5).normal(size=(700, 1000)).astype(np.float32)
        x[650, 999] = bad
        with pytest.raises(NumericError, match="non-finite"):
            T.softmax(T.Tensor(x), axis=-1, scale=scale)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_scale_overflow_rejected(self):
        x = np.array([[3e38, 0.0]], np.float32)
        with pytest.raises(NumericError, match="non-finite"):
            T.softmax(T.Tensor(x), axis=-1, scale=2.0)


def _softmax_ref(x, scale=None):
    """Unblocked softmax, after a ``mul`` by ``scale`` rounded to float32."""
    if scale is not None:
        x = x * np.float32(scale)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TestLayerNorm:
    def test_standardized_input_passthrough(self):
        x = np.array([[-1.0, 1.0, -1.0, 1.0]], np.float32)  # zero mean, unit var
        out = T.layer_norm(T.Tensor(x), T.Tensor(np.ones(4)), T.Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, x, atol=1e-5)

    def test_constant_row_maps_to_beta(self):
        x = np.full((1, 5), 3.0, np.float32)
        beta = np.arange(5, dtype=np.float32)
        out = T.layer_norm(T.Tensor(x), T.Tensor(np.ones(5)), T.Tensor(beta))
        np.testing.assert_allclose(out.data[0], beta, atol=1e-3)

    def test_matches_scalar_oracle(self):
        rng = make_rng(3)
        x = rng.normal(size=7).astype(np.float32)
        gamma = rng.normal(size=7).astype(np.float32)
        beta = rng.normal(size=7).astype(np.float32)
        out = T.layer_norm(T.Tensor(x[None]), T.Tensor(gamma), T.Tensor(beta))
        np.testing.assert_allclose(out.data[0], layer_norm_oracle(x, gamma, beta),
                                   atol=1e-5)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            T.layer_norm(T.Tensor(np.zeros((2, 4))), T.Tensor(np.ones(3)),
                         T.Tensor(np.zeros(3)))

    # the encoder's (600, 768) and the decoder's (4800, 96), a few rows each
    @pytest.mark.parametrize("shape", [(6, 768), (48, 96)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_np_var_formula(self, dtype, shape):
        rng = make_rng(6)
        x = (3 + 2 * rng.normal(size=shape)).astype(dtype)
        gamma = rng.normal(size=shape[-1]).astype(dtype)
        beta = rng.normal(size=shape[-1]).astype(dtype)
        mu = x.mean(axis=-1, keepdims=True, dtype=np.float64)
        var = x.astype(np.float64).var(axis=-1, keepdims=True)
        xhat = ((x - mu) * (1.0 / np.sqrt(var + 1e-6))).astype(dtype)
        out = T.layer_norm(T.Tensor(x), T.Tensor(gamma), T.Tensor(beta))
        np.testing.assert_array_equal(out.data, xhat * gamma + beta)


class TestGelu:
    def test_zero(self):
        assert T.gelu(T.Tensor(np.zeros(1, np.float32))).data[0] == 0.0

    def test_asymptotes(self):
        assert abs(T.gelu(T.Tensor(np.array([10.0], np.float32))).data[0] - 10.0) < 1e-4
        assert abs(T.gelu(T.Tensor(np.array([-10.0], np.float32))).data[0]) < 1e-4

    def test_monotone_for_nonnegative_inputs(self):
        x = np.linspace(0, 3, 61).astype(np.float32)
        y = T.gelu(T.Tensor(x)).data
        assert np.all(np.diff(y) > 0)

    def test_bounded_below(self):
        x = np.linspace(-6, 6, 241).astype(np.float32)
        y = T.gelu(T.Tensor(x)).data
        assert np.all(y > -0.2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_power_formula(self, dtype):
        # one chunk, then sizes on and off the chunk grid; the grad reads t
        for shape in [(300, 97), (2 * T._CUBE_CHUNK,), (3 * T._CUBE_CHUNK + 1001,)]:
            x = T.Tensor(make_rng(0).normal(size=shape).astype(dtype) * 3, requires_grad=True)
            d = x.data
            t = np.tanh(T._GELU_C * (d + 0.044715 * d ** 3))
            out = T.gelu(x)
            np.testing.assert_array_equal(out.data, 0.5 * d * (1.0 + t))
            T.backward(T.sum_(out))
            dinner = T._GELU_C * (1.0 + 3 * 0.044715 * d ** 2)
            np.testing.assert_array_equal(
                x.grad, np.ones_like(d) * (0.5 * (1.0 + t) + 0.5 * d * (1.0 - t ** 2) * dinner))

    @pytest.mark.parametrize("size", [1, 2 * T._CUBE_CHUNK, 3 * T._CUBE_CHUNK + 1001])
    def test_chunked_float32_bit_identical_off_the_chunk_grid(self, size):
        x = T.Tensor(make_rng(3).normal(size=size).astype(np.float32) * 3,
                     requires_grad=True)
        d = x.data
        t = np.tanh(T._GELU_C * (d + 0.044715 * d ** 3))
        out = T.gelu(x)
        np.testing.assert_array_equal(out.data, 0.5 * d * (1.0 + t))
        T.backward(T.sum_(out))
        dinner = T._GELU_C * (1.0 + 3 * 0.044715 * d ** 2)
        dx = 0.5 * (1.0 + t) + 0.5 * d * (1.0 - t ** 2) * dinner
        np.testing.assert_array_equal(x.grad, np.ones_like(d) * dx)

    def test_taped_equals_no_grad(self):
        x = T.Tensor(make_rng(1).normal(size=(70, 1000)).astype(np.float32),
                     requires_grad=True)
        taped = T.gelu(x)
        with T.no_grad():
            untaped = T.gelu(x)
        assert taped.requires_grad and not untaped.requires_grad
        np.testing.assert_array_equal(taped.data, untaped.data)


def _random_bits(n):
    return make_rng(2).integers(0, 1 << 32, size=n, dtype=np.uint32).view(np.float32)


def _signed(x):
    return np.concatenate([x, -x])


CUBE_CASES = {
    "binade (-2, -1]": lambda: _f32_span(_f32_bits(-1.0), _f32_bits(-2.0)),
    # negative cubes near and below the float32 subnormal range
    "underflow band": lambda: -_f32_span(_f32_bits(1e-14), _f32_bits(7.2e-13), 31),
    "zeros, subnormals, powers of two": lambda: _signed(np.concatenate(
        [_f32_span(0, 1 << 23, 1021),
         np.ldexp(np.float32(1), np.arange(-149, 128)).astype(np.float32)])),
    "overflow, inf, nan": lambda: _signed(np.concatenate(
        [_f32_span(_f32_bits(6.9e12), _f32_bits(7.1e12), 7), np.float32([np.inf, np.nan])])),
    "random bit patterns": lambda: _random_bits(1 << 20),
    "non-contiguous view": lambda: _random_bits(1 << 20).reshape(1024, 1024)[::3, 1::2].T,
    "size off the chunk grid": lambda: _random_bits(3 * T._CUBE_CHUNK + 1001),
}


@pytest.mark.parametrize("name", CUBE_CASES)
def test_cube_bit_identical_to_power(name):
    x = CUBE_CASES[name]()
    with np.errstate(over="ignore", invalid="ignore"):  # huge and signalling-NaN bases
        ref = x ** 3
        got = T._cube(x)
    assert got.shape == x.shape and got.dtype == np.float32
    np.testing.assert_array_equal(got.view(np.uint32), ref.view(np.uint32))


class TestConv2d:
    def test_1x1_identity_kernel(self):
        x = make_rng(4).normal(size=(3, 5, 5)).astype(np.float32)
        w = np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1)
        out = T.conv2d(T.Tensor(x), T.Tensor(w))
        np.testing.assert_allclose(out.data, x, atol=1e-6)

    def test_depthwise_ones_on_constant(self):
        x = np.full((2, 5, 5), 2.0, np.float32)
        w = np.ones((2, 1, 3, 3), np.float32)
        out = T.conv2d(T.Tensor(x), T.Tensor(w), groups=2).data
        np.testing.assert_allclose(out, np.full((2, 3, 3), 18.0), atol=1e-6)

    def test_strided_matches_loop_oracle(self):
        rng = make_rng(5)
        x = rng.normal(size=(2, 5, 5)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        b = rng.normal(size=3).astype(np.float32)
        got = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), stride=2).data
        np.testing.assert_allclose(got, conv2d_oracle(x, w, b, stride=2), atol=1e-5)

    def test_depthwise_equals_per_channel_convs(self):
        rng = make_rng(6)
        c = 3
        x = rng.normal(size=(c, 6, 6)).astype(np.float32)
        w = rng.normal(size=(c, 1, 3, 3)).astype(np.float32)
        got = T.conv2d(T.Tensor(x), T.Tensor(w), groups=c, padding=1).data
        for ch in range(c):
            ref = conv2d_oracle(x[ch:ch + 1], w[ch:ch + 1], None, padding=1)
            np.testing.assert_allclose(got[ch], ref[0], atol=1e-5)

    @pytest.mark.parametrize("stride", [1, 8])
    @pytest.mark.parametrize("padding", [0, 3])
    def test_im2col_equals_slice_loop(self, stride, padding):
        kh, kw = 7, 5
        h, w = kh - 2 * padding + 3 * stride, kw - 2 * padding + 4 * stride
        x = make_rng(7).normal(size=(3, h, w)).astype(np.float32)
        xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
        ho, wo = 4, 5
        ref = np.empty((3, kh * kw, ho * wo), np.float64)
        for i in range(kh):
            for j in range(kw):
                patch = xp[:, i:i + stride * ho:stride, j:j + stride * wo:stride]
                ref[:, i * kw + j, :] = patch.reshape(3, -1)
        wide = np.zeros((3, h, 2 * w), np.float32)
        wide[:, :, ::2] = x
        for view in (x, wide[:, :, ::2]):   # contiguous, then every other column
            cols, *size = T._im2col(view, kh, kw, stride, padding)
            assert size == [ho, wo]
            np.testing.assert_array_equal(cols, ref)

    # (x shape, weight shape, stride, padding, groups)
    CASES = {"depthwise-7x7": ((8, 16, 16), (8, 1, 7, 7), 1, 3, 8),
             "dense-1x1": ((8, 6, 5), (12, 8, 1, 1), 1, 0, 1),
             "patch-stride-8": ((3, 16, 24), (16, 3, 8, 8), 8, 0, 1),
             "grouped": ((6, 7, 7), (4, 3, 3, 3), 2, 1, 2)}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", CASES)
    def test_vjp_bit_identical_to_taped_patch_formula(self, case, dtype):
        """The VJP rebuilds its patches; its grads keep the bits of the
        matmul ``dcols`` plus ``_col2im`` on the forward's patch matrix."""
        (c_in, h, w), wshape, stride, padding, groups = self.CASES[case]
        rng = make_rng(9)
        x, wt, b = (rng.normal(size=s).astype(dtype) for s in ((c_in, h, w), wshape, wshape[0]))
        out = T.conv2d(T.Tensor(x, requires_grad=True), T.Tensor(wt, requires_grad=True),
                       T.Tensor(b, requires_grad=True), stride=stride, padding=padding,
                       groups=groups)
        g = rng.normal(size=out.shape).astype(dtype)
        dx, dw, db = out._vjp(g)
        c_out, c_in_g, kh, kw = wshape
        cols, ho, wo = T._im2col(x, kh, kw, stride, padding)
        cols_g = cols.reshape(groups, c_in_g * kh * kw, ho * wo)
        w_g = wt.reshape(groups, c_out // groups, -1).astype(np.float64)
        g_g = g.reshape(groups, c_out // groups, ho * wo).astype(np.float64)
        ref_dw = np.matmul(g_g, np.swapaxes(cols_g, 1, 2)).reshape(wshape).astype(dtype)
        dcols = np.matmul(np.swapaxes(w_g, 1, 2), g_g).reshape(c_in, kh * kw, ho * wo)
        ref_dx = T._col2im(dcols, c_in, h, w, kh, kw, stride, padding, ho, wo).astype(dtype)
        ref_db = g.sum(axis=(1, 2), dtype=np.float64).astype(dtype)
        for got, ref in ((dx, ref_dx), (dw, ref_dw), (db, ref_db)):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("case", CASES)
    def test_vjp_keeps_no_float64_array(self, case):
        """A float32 conv's VJP holds its inputs, not a float64 patch matrix."""
        (c_in, h, w), wshape, stride, padding, groups = self.CASES[case]
        out = T.conv2d(T.Tensor(np.ones((c_in, h, w), np.float32), requires_grad=True),
                       T.Tensor(np.ones(wshape, np.float32), requires_grad=True),
                       stride=stride, padding=padding, groups=groups)
        held, todo = [], [out._vjp]
        while todo:
            f = todo.pop()
            for cell in f.__closure__ or ():
                v = cell.cell_contents
                if callable(v) and hasattr(v, "__closure__"):
                    todo.append(v)
                held.append(v.data if isinstance(v, T.Tensor) else v)
        arrays = {id(a): a for a in held if isinstance(a, np.ndarray)}.values()
        assert len(arrays) == 2 and all(a.dtype == np.float32 for a in arrays)

    def test_weight_grads_unchanged_when_input_needs_none(self):
        rng = make_rng(8)
        x = rng.normal(size=(3, 16, 16)).astype(np.float32)
        w = rng.normal(size=(4, 3, 4, 4)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        g = rng.normal(size=(4, 4, 4)).astype(np.float32)
        grads = []
        for x_grad in (True, False):
            xt = T.Tensor(x, requires_grad=x_grad)
            wt, bt = T.Tensor(w, requires_grad=True), T.Tensor(b, requires_grad=True)
            T.backward(T.sum_(T.mul(T.conv2d(xt, wt, bt, stride=4), g)))
            assert (xt.grad is not None) == x_grad
            grads.append((wt.grad, bt.grad))
        for with_dx, without_dx in zip(*grads):
            np.testing.assert_array_equal(with_dx, without_dx)

    def test_non_integral_output_rejected(self):
        with pytest.raises(ShapeError):
            T.conv2d(T.Tensor(np.zeros((1, 5, 5))), T.Tensor(np.zeros((1, 1, 2, 2))),
                     stride=2)


class TestAdaptiveAvgPool:
    def test_identity_when_k_equals_size(self):
        x = make_rng(7).normal(size=(2, 4, 4)).astype(np.float32)
        np.testing.assert_array_equal(T.adaptive_avg_pool2d(T.Tensor(x), 4).data, x)

    def test_constant_input(self):
        x = np.full((1, 6, 6), 5.0, np.float32)
        np.testing.assert_allclose(T.adaptive_avg_pool2d(T.Tensor(x), 3).data,
                                   np.full((1, 3, 3), 5.0))

    def test_ramp_matches_window_means(self):
        x = np.arange(36, dtype=np.float32).reshape(1, 6, 6)
        got = T.adaptive_avg_pool2d(T.Tensor(x), 3).data
        np.testing.assert_array_equal(got, adaptive_avg_pool2d_oracle(x, 3))

    def test_mean_preserved_for_partitioning_windows(self):
        x = make_rng(8).normal(size=(3, 8, 12)).astype(np.float32)
        out = T.adaptive_avg_pool2d(T.Tensor(x), 4).data
        assert abs(out.mean() - x.mean()) < 1e-6

    def test_k_out_of_range(self):
        with pytest.raises(ShapeError):
            T.adaptive_avg_pool2d(T.Tensor(np.zeros((1, 3, 3))), 4)

    # the toy fusion grid, then the ViT-B fusion grids at 240x320 and 480x640
    @pytest.mark.parametrize("shape", [(128, 8, 8), (1536, 15, 20), (1536, 30, 40)])
    def test_float32_bit_identical_to_window_loops(self, shape):
        c, h, w = shape
        k = 7
        rng = make_rng(11)
        x = T.Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
        g = rng.normal(size=(c, k, k)).astype(np.float32)
        out = T.adaptive_avg_pool2d(x, k)
        T.backward(T.sum_(T.mul(out, g)))
        ref = np.empty((c, k, k), np.float64)
        dx = np.zeros(shape, np.float64)
        for i in range(k):
            r0, r1 = (i * h) // k, -(-((i + 1) * h) // k)
            for j in range(k):
                c0, c1 = (j * w) // k, -(-((j + 1) * w) // k)
                ref[:, i, j] = x.data[:, r0:r1, c0:c1].mean(axis=(1, 2), dtype=np.float64)
                dx[:, r0:r1, c0:c1] += g[:, i, j, None, None] / ((r1 - r0) * (c1 - c0))
        np.testing.assert_array_equal(out.data.view(np.uint32),
                                      ref.astype(np.float32).view(np.uint32))
        np.testing.assert_array_equal(x.grad.view(np.uint32),
                                      dx.astype(np.float32).view(np.uint32))


class TestBilinearResize:
    def test_identity_at_equal_size(self):
        x = make_rng(9).normal(size=(2, 5, 7)).astype(np.float32)
        np.testing.assert_allclose(T.bilinear_resize(T.Tensor(x), 5, 7).data, x,
                                   atol=1e-7)

    def test_constant_preserved(self):
        x = np.full((1, 3, 3), 4.0, np.float32)
        np.testing.assert_allclose(T.bilinear_resize(T.Tensor(x), 9, 5).data,
                                   np.full((1, 9, 5), 4.0), atol=1e-6)

    def test_2x2_to_4x4_closed_form(self):
        x = np.array([[[0.0, 1.0], [2.0, 3.0]]], np.float32)
        got = T.bilinear_resize(T.Tensor(x), 4, 4).data
        np.testing.assert_allclose(got, bilinear_resize_oracle(x, 4, 4), atol=1e-6)


    # the toy fusion context (2x2 to 4x4), and ViT-B's at 240x320 (7x7 to 15x20)
    @pytest.mark.parametrize("shape, size", [((16, 2, 2), (4, 4)), ((1536, 7, 7), (15, 20))])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_separable_formula(self, dtype, shape, size):
        c, h, w = shape
        rng = make_rng(12)
        x = T.Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
        g = rng.normal(size=(c, *size)).astype(dtype)
        out = T.bilinear_resize(x, *size)
        T.backward(T.sum_(T.mul(out, T.Tensor(g))))
        r, s = T._interp_matrix(h, size[0]), T._interp_matrix(w, size[1])
        ref = r @ x.data.astype(np.float64) @ s.T
        dx = r.T @ g.astype(np.float64) @ s
        assert out.dtype == x.grad.dtype == dtype
        assert out.data.tobytes() == ref.astype(dtype).tobytes()
        assert x.grad.tobytes() == dx.astype(dtype).tobytes()


def test_cached_interp_matrices_are_read_only():
    for make, args in [(T._interp_matrix, (5, 9)), (T._pool_matrix, (9, 4))]:
        m = make(*args)
        assert make(*args) is m
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 2.0


class TestConcat:
    def test_single_input(self):
        a = make_rng(10).normal(size=(2, 3)).astype(np.float32)
        np.testing.assert_array_equal(T.concat([T.Tensor(a)], axis=0).data, a)

    def test_rows_preserved(self):
        rng = make_rng(11)
        a = rng.normal(size=(2, 3)).astype(np.float32)
        b = rng.normal(size=(2, 3)).astype(np.float32)
        out = T.concat([T.Tensor(a), T.Tensor(b)], axis=0).data
        assert out.shape == (4, 3)
        np.testing.assert_array_equal(out[:2], a)
        np.testing.assert_array_equal(out[2:], b)

    def test_concat_slice_round_trip_bit_exact(self):
        rng = make_rng(12)
        parts = [rng.normal(size=(3, n, 2)).astype(np.float32) for n in (1, 4, 2)]
        cat = T.concat([T.Tensor(p) for p in parts], axis=1)
        start = 0
        for p in parts:
            sl = T.slice_axis(cat, 1, start, start + p.shape[1])
            np.testing.assert_array_equal(sl.data, p)
            start += p.shape[1]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.concat([T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 4)))], axis=0)


def test_row_major_reshape_permute_round_trip():
    rng = make_rng(13)
    x = rng.normal(size=(2, 3, 4)).astype(np.float32)
    t = T.Tensor(x)
    back = T.permute(T.permute(t, (2, 0, 1)), (1, 2, 0))
    np.testing.assert_array_equal(back.data, x)
    flat = T.reshape(t, (24,))
    # row-major flattening: strides (12, 4, 1)
    assert flat.data[1 * 12 + 2 * 4 + 3] == x[1, 2, 3]
    np.testing.assert_array_equal(T.reshape(flat, (2, 3, 4)).data, x)


def test_adamw_in_place_steps_bit_identical_to_formula():
    rng = make_rng(14)
    lr, (b1, b2), eps, wd = 1e-2, (0.9, 0.999), 1e-8, 0.05
    p = T.Tensor(rng.normal(size=(6, 5)).astype(np.float32), requires_grad=True)
    opt = AdamW([("p", p)], lr=lr, weight_decay=wd)
    x, m, v = p.data.copy(), np.zeros((6, 5)), np.zeros((6, 5))
    for t in range(1, 6):
        g = rng.normal(size=(6, 5)).astype(np.float32)
        p.grad = g
        opt.step()
        g = g.astype(np.float64)
        x = x.astype(np.float64)
        x = x - lr * wd * x
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x = x - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        x = x.astype(np.float32)
        np.testing.assert_array_equal(p.data, x)
        np.testing.assert_array_equal(opt.m["p"], m)
        np.testing.assert_array_equal(opt.v["p"], v)
