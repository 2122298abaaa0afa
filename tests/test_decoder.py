import numpy as np
import pytest

from surgdepth import tensor as T
from surgdepth.decoder import (ConvNeXtBlock, Decoder, grid_to_tokens,
                               tokens_to_grid)
from surgdepth.errors import ConfigError, ShapeError
from surgdepth.rng import make_rng


class TestPixelShuffle:
    def test_round_trip_bit_exact(self):
        rng = make_rng(0)
        tokens = T.Tensor(rng.normal(size=(12, 32)).astype(np.float32))
        grid = tokens_to_grid(tokens, 3, 4, 8)
        assert grid.shape == (8, 6, 8)
        back = grid_to_tokens(grid, 3, 4, 8)
        np.testing.assert_array_equal(back.data, tokens.data)

    def test_tile_layout_row_major_channel_fastest(self):
        """Token entry (ty, tx, c) lands at grid[c, y*t+ty, x*t+tx]."""
        t, c = 2, 3
        tokens = np.arange(1 * t * t * c, dtype=np.float32).reshape(1, -1)
        grid = tokens_to_grid(T.Tensor(tokens), 1, 1, 4 * t).data
        for ty in range(t):
            for tx in range(t):
                for ch in range(c):
                    assert grid[ch, ty, tx] == tokens[0, (ty * t + tx) * c + ch]

    def test_rejects_bad_patch_or_width(self):
        tokens = T.Tensor(np.zeros((4, 9), np.float32))
        with pytest.raises(ConfigError):
            tokens_to_grid(tokens, 2, 2, 6)
        with pytest.raises(ConfigError):
            tokens_to_grid(tokens, 2, 2, 8)  # 9 not divisible by 4


class TestConvNeXtBlock:
    def test_preserves_shape(self):
        rng = make_rng(1)
        block = ConvNeXtBlock(8, rng=rng)
        x = T.Tensor(rng.normal(size=(8, 5, 6)).astype(np.float32))
        assert block(x).shape == (8, 5, 6)

    def test_zero_init_pw2_is_identity(self):
        rng = make_rng(2)
        block = ConvNeXtBlock(8, rng=rng)
        block.pw2.w.data[:] = 0
        x = rng.normal(size=(8, 5, 6)).astype(np.float32)
        np.testing.assert_array_equal(block(T.Tensor(x)).data, x)

    def test_depthwise_conv_keeps_channels_separate(self):
        """The 7x7 stage is grouped per channel: zeroing everything after
        it, a change in channel 0 input must not leak into channel 1 of
        the depthwise output."""
        rng = make_rng(3)
        block = ConvNeXtBlock(2, rng=rng)
        x = rng.normal(size=(2, 9, 9)).astype(np.float32)
        y1 = block.dwconv(T.Tensor(x)).data
        x2 = x.copy()
        x2[0] += 1.0
        y2 = block.dwconv(T.Tensor(x2)).data
        assert not np.allclose(y1[0], y2[0])
        np.testing.assert_array_equal(y1[1], y2[1])

    def test_rejects_wrong_channel_count(self):
        block = ConvNeXtBlock(8, rng=make_rng(0))
        with pytest.raises(ShapeError):
            block(T.Tensor(np.zeros((4, 5, 5), np.float32)))


class TestDecoder:
    def test_output_shape(self):
        rng = make_rng(4)
        dec = Decoder(64, 8, 5, n_blocks=2, rng=rng)
        tokens = T.Tensor(rng.normal(size=(12, 64)).astype(np.float32))
        out = dec(tokens, 3, 4, 24, 32)
        assert out.shape == (5, 24, 32)

    def test_intermediate_grid_is_eighth_channels_quarter_res(self):
        dec = Decoder(64, 8, 5, n_blocks=1, rng=make_rng(0))
        assert dec.grid_dim == 8
        assert dec.expand.w.shape == (64, 4 * 8)

    def test_rejects_inconsistent_output_size(self):
        rng = make_rng(5)
        dec = Decoder(64, 8, 5, n_blocks=1, rng=rng)
        tokens = T.Tensor(rng.normal(size=(12, 64)).astype(np.float32))
        with pytest.raises(ShapeError):
            dec(tokens, 3, 4, 32, 32)

    def test_rejects_indivisible_dims(self):
        with pytest.raises(ConfigError):
            Decoder(65, 8, 5, rng=make_rng(0))
        with pytest.raises(ConfigError):
            Decoder(64, 6, 5, rng=make_rng(0))

    def test_vitb_decoder_param_count_closed_form(self):
        """ViT-B geometry: D=768, patch 16, 9 classes, 4 blocks.

        expand: 768*(16*96)+16*96; per block: dw 7x7 depthwise (96*49+96)
        + norm (2*96) + pw1 (96*384+384) + pw2 (384*96+96); head 96*9+9.
        """
        dec = Decoder(768, 16, 9, n_blocks=4, rng=make_rng(0))
        total = sum(p.size for _, p in dec.named_parameters())
        expand = 768 * 1536 + 1536
        per_block = (96 * 49 + 96) + 2 * 96 + (96 * 384 + 384) + (384 * 96 + 96)
        head = 96 * 9 + 9
        assert total == expand + 4 * per_block + head
        # roughly 1.5M learnable scalars in the whole decoder
        assert abs(total - 1.5e6) / 1.5e6 < 0.25

    def test_full_resolution_shapes(self):
        rng = make_rng(6)
        dec = Decoder(64, 8, 4, n_blocks=1, rng=rng)
        tokens = T.Tensor(rng.normal(size=(64, 64)).astype(np.float32))
        out = dec(tokens, 8, 8, 64, 64)
        assert out.shape == (4, 64, 64)
