import math

import numpy as np
import pytest

from surgdepth import tensor as T
from surgdepth.errors import ShapeError
from surgdepth.fusion import FusionBlock, TokenGrid, grid_from_chw
from surgdepth.oracles import attention_oracle
from surgdepth.rng import make_rng


def _grids(rng, h=6, w=6, c=8, requires_grad=False):
    xr = T.Tensor(rng.normal(size=(h * w, c)).astype(np.float32),
                  requires_grad=requires_grad)
    xd = T.Tensor(rng.normal(size=(h * w, c)).astype(np.float32),
                  requires_grad=requires_grad)
    return TokenGrid(h, w, xr), TokenGrid(h, w, xd)


def test_token_grid_round_trip():
    rng = make_rng(0)
    g = TokenGrid(3, 5, T.Tensor(rng.normal(size=(15, 4)).astype(np.float32)))
    back = grid_from_chw(g.to_chw())
    np.testing.assert_array_equal(back.tokens.data, g.tokens.data)


def test_token_grid_rejects_bad_count():
    with pytest.raises(ShapeError):
        TokenGrid(3, 5, T.Tensor(np.zeros((14, 4), np.float32)))


def test_output_shapes_match_inputs():
    rng = make_rng(1)
    block = FusionBlock(8, k=3, rng=rng)
    gr, gd = _grids(rng)
    orr, odd = block(gr, gd)
    assert orr.tokens.shape == gr.tokens.shape
    assert odd.tokens.shape == gd.tokens.shape
    assert (orr.h, orr.w) == (gr.h, gr.w)


def test_query_count_is_k_squared():
    rng = make_rng(2)
    block = FusionBlock(8, k=3, rng=rng)
    gr, gd = _grids(rng)
    q = block.make_query(gr, gd)
    assert q.shape == (9, block.attn_dim)


def test_attn_dim_defaults_to_twice_channels():
    assert FusionBlock(8, rng=make_rng(0), k=2).attn_dim == 16
    assert FusionBlock(8, attn_dim=5, rng=make_rng(0), k=2).attn_dim == 5


def test_zero_output_projection_is_identity():
    rng = make_rng(3)
    block = FusionBlock(8, k=3, rng=rng)
    block.fc_out_rgb.w.data[:] = 0
    block.fc_out_depth.w.data[:] = 0
    gr, gd = _grids(rng)
    orr, odd = block(gr, gd)
    np.testing.assert_array_equal(orr.tokens.data, gr.tokens.data)
    np.testing.assert_array_equal(odd.tokens.data, gd.tokens.data)


def test_matches_attention_oracle():
    """The fused context equals a per-query loop reference."""
    rng = make_rng(4)
    block = FusionBlock(8, k=3, rng=rng)
    gr, gd = _grids(rng)
    q = block.make_query(gr, gd)
    k_mat = block.fc_k(gr.tokens)
    v = block.fc_v(gr.tokens)
    scale = 1.0 / math.sqrt(block.attn_dim)
    attn = T.softmax(T.mul(T.matmul(q, T.permute(k_mat, (1, 0))), scale), axis=-1)
    ctx = T.matmul(attn, v).data
    ref = attention_oracle(q.data, k_mat.data, v.data, scale)
    np.testing.assert_allclose(ctx, ref, atol=1e-5)


def test_attention_rows_sum_to_one():
    rng = make_rng(5)
    block = FusionBlock(8, k=3, rng=rng)
    gr, gd = _grids(rng)
    q = block.make_query(gr, gd)
    k_mat = block.fc_k(gr.tokens)
    scale = 1.0 / math.sqrt(block.attn_dim)
    attn = T.softmax(T.mul(T.matmul(q, T.permute(k_mat, (1, 0))), scale), axis=-1)
    np.testing.assert_allclose(attn.data.sum(axis=-1), 1.0, atol=1e-5)


@pytest.mark.parametrize("rgb_hwc, depth_hwc", [
    ((6, 6, 8), (4, 4, 8)),   # (h, w) mismatch
    ((6, 6, 8), (6, 6, 4)),   # depth channel mismatch
    ((6, 6, 4), (6, 6, 4)),   # both streams at the wrong block width
    ((6, 6, 12), (6, 6, 4)),  # channels sum to 2C, which concat and fc_q accept
], ids=["hw", "depth-channels", "block-width", "channels-sum-to-2c"])
def test_rejects_mismatched_grids(rgb_hwc, depth_hwc):
    rng = make_rng(7)
    block = FusionBlock(8, k=3, rng=rng)
    gr, _ = _grids(rng, *rgb_hwc)
    gd, _ = _grids(rng, *depth_hwc)
    with pytest.raises(ShapeError):
        block(gr, gd)
    with pytest.raises(ShapeError):
        block.make_query(gr, gd)


def test_rejects_pool_larger_than_grid():
    rng = make_rng(8)
    block = FusionBlock(8, k=7, rng=rng)
    gr, gd = _grids(rng, h=4, w=4)
    with pytest.raises(ShapeError):
        block(gr, gd)


def test_gradients_flow_to_both_streams():
    rng = make_rng(9)
    block = FusionBlock(8, k=3, rng=rng)
    gr, gd = _grids(rng, requires_grad=True)
    orr, odd = block(gr, gd)
    T.backward(T.add(T.sum_(orr.tokens), T.sum_(odd.tokens)))
    assert gr.tokens.grad is not None and np.abs(gr.tokens.grad).max() > 0
    assert gd.tokens.grad is not None and np.abs(gd.tokens.grad).max() > 0


def test_parameter_names_and_shapes():
    block = FusionBlock(8, k=3, rng=make_rng(10))
    params = dict(block.named_parameters("fusion."))
    assert "fusion.fc_q.w" in params
    assert params["fusion.fc_q.w"].shape == (16, 16)
    assert params["fusion.fc_out_rgb.w"].shape == (16, 8)
    assert len(params) == 10
