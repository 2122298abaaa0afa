import numpy as np
import pytest

from surgdepth import tensor as T
from surgdepth.encoder import (Encoder, MultiHeadSelfAttention, PatchEmbed,
                               TransformerBlock)
from surgdepth.errors import ConfigError, ShapeError
from surgdepth.fusion import TokenGrid
from surgdepth.oracles import mhsa_oracle
from surgdepth.rng import make_rng


def _grid(rng, h, w, c):
    return TokenGrid(h, w, T.Tensor(rng.normal(size=(h * w, c)).astype(np.float32)))


class TestPatchEmbed:
    def test_token_count_and_dim(self):
        rng = make_rng(0)
        pe = PatchEmbed(3, 16, 4, rng=rng)
        img = T.Tensor(rng.normal(size=(3, 12, 8)).astype(np.float32))
        grid = pe(img)
        assert (grid.h, grid.w) == (3, 2)
        assert grid.tokens.shape == (6, 16)

    def test_rejects_indivisible_image(self):
        pe = PatchEmbed(3, 16, 4, rng=make_rng(0))
        for h, w in ((10, 8), (8, 10)):
            with pytest.raises(ShapeError):
                pe(T.Tensor(np.zeros((3, h, w), np.float32)))

    def test_each_token_sees_only_its_patch(self):
        """Perturbing one patch changes exactly one token."""
        rng = make_rng(1)
        pe = PatchEmbed(1, 8, 4, rng=rng)
        img = rng.normal(size=(1, 8, 8)).astype(np.float32)
        base = pe(T.Tensor(img)).tokens.data
        img2 = img.copy()
        img2[0, 0, 0] += 1.0  # inside patch (0,0) only
        mod = pe(T.Tensor(img2)).tokens.data
        changed = np.any(base != mod, axis=1)
        assert changed.tolist() == [True, False, False, False]


class TestMultiHeadSelfAttention:
    def test_matches_loop_oracle(self):
        rng = make_rng(2)
        mhsa = MultiHeadSelfAttention(8, 2, rng=rng)
        x = rng.normal(size=(5, 8)).astype(np.float32)
        out = mhsa(T.Tensor(x)).data
        wq, wk, wv = np.split(mhsa.qkv.w.data, 3, axis=1)
        bq, bk, bv = np.split(mhsa.qkv.b.data, 3)
        ref = mhsa_oracle(x, wq, wk, wv, bq, bk, bv,
                          mhsa.proj.w.data, mhsa.proj.b.data)
        np.testing.assert_allclose(out, ref, atol=1e-5)

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ConfigError):
            MultiHeadSelfAttention(8, 3, rng=make_rng(0))

    def test_permutation_equivariance(self):
        """Without positional information, permuting tokens permutes outputs."""
        rng = make_rng(3)
        mhsa = MultiHeadSelfAttention(8, 2, rng=rng)
        x = rng.normal(size=(6, 8)).astype(np.float32)
        perm = rng.permutation(6)
        out = mhsa(T.Tensor(x)).data
        out_p = mhsa(T.Tensor(x[perm])).data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-5)


class TestTransformerBlock:
    def test_preserves_shape(self):
        rng = make_rng(4)
        block = TransformerBlock(8, 2, rng=rng)
        x = T.Tensor(rng.normal(size=(6, 8)).astype(np.float32))
        assert block(x).shape == (6, 8)

    def test_parameter_names(self):
        block = TransformerBlock(8, 2, rng=make_rng(0))
        names = [n for n, _ in block.named_parameters("b.")]
        assert "b.attn.qkv.w" in names
        assert "b.mlp.fc1.w" in names
        assert "b.norm1.gamma" in names


class TestEncoder:
    def test_splits_back_to_modalities(self):
        rng = make_rng(5)
        enc = Encoder(8, 2, 2, n_tokens=12, rng=rng)
        r, d = enc(_grid(rng, 3, 4, 8), _grid(rng, 3, 4, 8))
        assert r.shape == (12, 8)
        assert d.shape == (12, 8)

    def test_token_axis_concat_width(self):
        """Internally the stack runs on 2*h*w tokens: modality streams
        interact, so changing depth tokens changes the RGB output."""
        rng = make_rng(6)
        enc = Encoder(8, 1, 2, n_tokens=12, rng=rng)
        gr = _grid(rng, 3, 4, 8)
        gd1 = _grid(rng, 3, 4, 8)
        gd2 = _grid(rng, 3, 4, 8)
        r1, _ = enc(gr, gd1)
        r2, _ = enc(gr, gd2)
        assert not np.allclose(r1.data, r2.data)

    def test_positional_embeddings_start_at_zero(self):
        enc = Encoder(8, 1, 2, n_tokens=12, rng=make_rng(0))
        assert np.all(enc.pos_embed_rgb.data == 0)
        assert np.all(enc.pos_embed_depth.data == 0)

    def test_rejects_wrong_token_count(self):
        rng = make_rng(7)
        enc = Encoder(8, 1, 2, n_tokens=12, rng=rng)
        with pytest.raises(ShapeError):
            enc(_grid(rng, 2, 4, 8), _grid(rng, 2, 4, 8))
