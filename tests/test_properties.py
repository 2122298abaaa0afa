"""Property-based invariants over randomly drawn shapes and values."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from surgdepth import tensor as T

finite_f32 = st.floats(-1e3, 1e3, width=32, allow_nan=False,
                       allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(arrays(np.float32, array_shapes(min_dims=2, max_dims=3, min_side=1,
                                       max_side=6), elements=finite_f32))
def test_softmax_rows_are_distributions(x):
    s = T.softmax(T.Tensor(x), axis=-1).data
    assert np.all(s >= 0)
    np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-5)


@settings(max_examples=50, deadline=None)
@given(arrays(np.float32, array_shapes(min_dims=3, max_dims=3, min_side=1,
                                       max_side=6), elements=finite_f32))
def test_bilinear_resize_to_same_size_is_identity(x):
    out = T.bilinear_resize(T.Tensor(x), x.shape[1], x.shape[2]).data
    np.testing.assert_allclose(out, x, atol=1e-5)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_concat_then_slice_recovers_parts(data):
    c = data.draw(st.integers(1, 5))
    n1 = data.draw(st.integers(1, 5))
    n2 = data.draw(st.integers(1, 5))
    a = data.draw(arrays(np.float32, (n1, c), elements=finite_f32))
    b = data.draw(arrays(np.float32, (n2, c), elements=finite_f32))
    cat = T.concat([T.Tensor(a), T.Tensor(b)], axis=0)
    np.testing.assert_array_equal(T.slice_axis(cat, 0, 0, n1).data, a)
    np.testing.assert_array_equal(T.slice_axis(cat, 0, n1, n1 + n2).data, b)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_pool_preserves_mean_when_windows_partition(data):
    k = data.draw(st.integers(1, 4))
    mult = data.draw(st.integers(1, 3))
    c = data.draw(st.integers(1, 3))
    x = data.draw(arrays(np.float32, (c, k * mult, k * mult),
                         elements=finite_f32))
    pooled = T.adaptive_avg_pool2d(T.Tensor(x), k).data
    assert abs(float(pooled.mean()) - float(x.mean())) <= 1e-3


@settings(max_examples=50, deadline=None)
@given(arrays(np.float32, array_shapes(min_dims=2, max_dims=2, min_side=2,
                                       max_side=8),
              elements=st.floats(-1e2, 1e2, width=32)))
@example(np.array([[0.0078125, 0.0], [0.0, 0.0]], np.float32))
def test_layer_norm_rows_standardized(x):
    dim = x.shape[-1]
    gamma = T.Tensor(np.ones(dim, np.float32))
    beta = T.Tensor(np.zeros(dim, np.float32))
    y = T.layer_norm(T.Tensor(x), gamma, beta).data
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-4)
    # rows with spread normalize to std sqrt(var / (var + eps)), which is
    # near 1 unless var is comparable to eps; constant rows stay flat
    rows_std = x.std(axis=-1)
    spread = rows_std > 1e-3
    var = x[spread].astype(np.float64).var(axis=-1)
    np.testing.assert_allclose(y[spread].std(axis=-1), np.sqrt(var / (var + 1e-6)),
                               atol=1e-2)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_permute_reshape_round_trip(data):
    shape = data.draw(array_shapes(min_dims=2, max_dims=4, min_side=1,
                                   max_side=5))
    x = data.draw(arrays(np.float32, shape, elements=finite_f32))
    axes = data.draw(st.permutations(range(len(shape))))
    inverse = np.argsort(axes)
    y = T.permute(T.permute(T.Tensor(x), tuple(axes)), tuple(inverse))
    np.testing.assert_array_equal(y.data, x)
