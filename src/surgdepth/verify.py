"""Self-verification suite: oracle equivalence, gradient checks, shape
and identity invariants, and the full-config parameter-count check.

Each check returns (name, passed, detail); the CLI prints one line per
check and exits nonzero on any failure.
"""

import functools
import tempfile

import numpy as np

from . import tensor as T
from .data import RgbdSample, read_sample, write_sample
from .decoder import ConvNeXtBlock, grid_to_tokens, tokens_to_grid
from .encoder import MultiHeadSelfAttention, TransformerBlock
from .fusion import FusionBlock, TokenGrid
from .gradcheck import grad_check
from .losses import cross_entropy_loss
from .model import ModelConfig, build_model, full_vitb_config, param_count
from .oracles import (adaptive_avg_pool2d_oracle, attention_oracle,
                      bilinear_resize_oracle, conv2d_oracle, matmul_oracle, mhsa_oracle)
from .rng import make_rng

REPORTED_TOTAL_PARAMS = 98.37e6
REPORTED_PARAM_DELTA = 103.1e6 - 98.37e6


def _toy_gradcheck_config():
    return ModelConfig(image_h=16, image_w=16, patch=4, embed_dim=16,
                       depth_blocks=1, heads=2, fusion_k=2, fusion_dim=16,
                       decoder_blocks=1, num_classes=3, seed=0)


def _oracle_check(seed):
    """Decorate ``trial(rng, i) -> (got, ref)`` into a check over 20 trials
    drawn from ``make_rng(seed)``, passing at a max abs error of 1e-5."""
    def wrap(trial):
        @functools.wraps(trial)
        def check():
            rng = make_rng(seed)
            worst = 0.0
            for i in range(20):
                got, ref = trial(rng, i)
                worst = max(worst, float(np.abs(got - ref).max()))
            return worst <= 1e-5, f"max abs err {worst:.2e}"
        return check
    return wrap


@_oracle_check(seed=1)
def check_matmul_oracle(rng, i):
    a = rng.normal(size=(4, 5)).astype(np.float32)
    b = rng.normal(size=(5, 6)).astype(np.float32)
    return T.matmul(T.Tensor(a), T.Tensor(b)).data, matmul_oracle(a, b)


@_oracle_check(seed=2)
def check_conv2d_oracle(rng, i):
    groups = 1 if i % 2 == 0 else 2
    x = rng.normal(size=(2, 5, 5)).astype(np.float32)
    w = rng.normal(size=(4, 2 // groups, 3, 3)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)
    got = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b),
                   stride=2, padding=1, groups=groups).data
    return got, conv2d_oracle(x, w, b, stride=2, padding=1, groups=groups)


@_oracle_check(seed=3)
def check_pool_oracle(rng, i):
    h = int(rng.integers(3, 9))
    w = int(rng.integers(3, 9))
    k = int(rng.integers(1, min(h, w) + 1))
    x = rng.normal(size=(2, h, w)).astype(np.float32)
    return T.adaptive_avg_pool2d(T.Tensor(x), k).data, adaptive_avg_pool2d_oracle(x, k)


@_oracle_check(seed=4)
def check_bilinear_oracle(rng, i):
    h = int(rng.integers(1, 7))
    w = int(rng.integers(1, 7))
    ho = int(rng.integers(1, 13))
    wo = int(rng.integers(1, 13))
    x = rng.normal(size=(2, h, w)).astype(np.float32)
    return T.bilinear_resize(T.Tensor(x), ho, wo).data, bilinear_resize_oracle(x, ho, wo)


@_oracle_check(seed=5)
def check_mhsa_oracle(rng, i):
    attn = MultiHeadSelfAttention(8, 1, rng=rng).astype(np.float64)
    x = rng.normal(size=(5, 8))
    got = attn(T.Tensor(x)).data
    w = attn.qkv.w.data
    b = attn.qkv.b.data
    return got, mhsa_oracle(x, w[:, :8], w[:, 8:16], w[:, 16:], b[:8], b[8:16],
                            b[16:], attn.proj.w.data, attn.proj.b.data)


@_oracle_check(seed=6)
def check_fuse_oracle(rng, i):
    block = FusionBlock(8, attn_dim=8, k=2, rng=rng).astype(np.float64)
    xr = TokenGrid(4, 4, T.Tensor(rng.normal(size=(16, 8))))
    xd = TokenGrid(4, 4, T.Tensor(rng.normal(size=(16, 8))))
    out_rgb, out_depth = block(xr, xd)
    q = block.make_query(xr, xd).data
    k_mat = block.fc_k(xr.tokens).data
    v = block.fc_v(xr.tokens).data
    ctx = attention_oracle(q, k_mat, v, 1.0 / np.sqrt(8))
    grid = ctx.T.reshape(8, 2, 2)
    up = bilinear_resize_oracle(grid, 4, 4)
    ctx_tokens = up.reshape(8, 16).T
    ref_rgb = xr.tokens.data + ctx_tokens @ block.fc_out_rgb.w.data + block.fc_out_rgb.b.data
    ref_depth = xd.tokens.data + ctx_tokens @ block.fc_out_depth.w.data + block.fc_out_depth.b.data
    return (np.stack([out_rgb.tokens.data, out_depth.tokens.data]),
            np.stack([ref_rgb, ref_depth]))


def check_per_op_grads():
    rng = make_rng(7)

    def leaf(*shape):
        return T.Tensor(rng.normal(size=shape), requires_grad=True)

    a, b = leaf(3, 4), leaf(4, 2)
    x = leaf(2, 4, 4)
    y = leaf(3, 5)
    g, bta, z = leaf(5), leaf(5), leaf(4, 5)
    xc, wc, bc = leaf(2, 6, 6), leaf(3, 2, 3, 3), leaf(3)
    q, k, v = leaf(2, 3, 4), leaf(2, 5, 4), leaf(2, 5, 3)
    # (name, tolerance, function summed, its parameters): linear ops at
    # 1e-6 and 1e-5, nonlinear ones at 1e-3
    table = [
        ("matmul", 1e-6, lambda: T.matmul(a, b), [("a", a), ("b", b)]),
        ("bilinear", 1e-5,
         lambda: T.mul(T.bilinear_resize(x, 7, 5), T.bilinear_resize(x, 7, 5)), [("x", x)]),
        ("softmax/gelu", 1e-3, lambda: T.mul(T.softmax(y, axis=-1), T.gelu(y)), [("y", y)]),
        ("layer_norm", 1e-3, lambda: T.mul(T.layer_norm(z, g, bta), T.layer_norm(z, g, bta)),
         [("z", z), ("gamma", g), ("beta", bta)]),
        ("conv2d", 1e-3, lambda: T.gelu(T.conv2d(xc, wc, bc, stride=1, padding=1)),
         [("x", xc), ("w", wc), ("b", bc)]),
        ("softmax(scale=0.37)", 1e-3,
         lambda: T.mul(T.softmax(y, axis=-1, scale=0.37), T.gelu(y)), [("y", y)]),
        ("attention", 1e-3, lambda: T.gelu(T.attention(q, k, v)),
         [("q", q), ("k", k), ("v", v)]),
    ]
    failures = []
    for name, tol, f, params in table:
        rep = grad_check(lambda: T.sum_(f()), params, tol=tol)
        if not rep.passed:
            failures.append(f"{name} {rep.max_error:.1e}")
    return not failures, "; ".join(failures) if failures else "all ops pass"


def check_end_to_end_grad():
    cfg = _toy_gradcheck_config()
    model = build_model(cfg, dtype=np.float64)
    rng = make_rng(11)
    rgb = rng.random((3, 16, 16))
    depth = rng.random((1, 16, 16))
    labels = rng.integers(0, cfg.num_classes, size=(16, 16))

    def f():
        return cross_entropy_loss(model(rgb, depth), labels)

    # float64 build, so a small step keeps truncation error low without
    # hitting rounding noise
    rep = grad_check(f, list(model.named_parameters()), tol=1e-2,
                     entries_per_param=8, step=1e-4)
    return rep.passed and rep.checked_entries >= 200, str(rep)


def check_identity_suite():
    rng = make_rng(8)
    failures = []
    # fusion residual identity at zero output projections
    block = FusionBlock(8, attn_dim=8, k=2, rng=rng)
    block.fc_out_rgb.w.data[:] = 0
    block.fc_out_depth.w.data[:] = 0
    xr = TokenGrid(4, 4, T.Tensor(rng.normal(size=(16, 8)).astype(np.float32)))
    xd = TokenGrid(4, 4, T.Tensor(rng.normal(size=(16, 8)).astype(np.float32)))
    orr, odd = block(xr, xd)
    if not (np.array_equal(orr.tokens.data, xr.tokens.data)
            and np.array_equal(odd.tokens.data, xd.tokens.data)):
        failures.append("fusion zero-init identity")
    # transformer block identity with zero branch outputs
    tb = TransformerBlock(8, 2, rng=rng)
    tb.attn.proj.w.data[:] = 0
    tb.mlp.fc2.w.data[:] = 0
    x = T.Tensor(rng.normal(size=(6, 8)).astype(np.float32))
    if not np.array_equal(tb(x).data, x.data):
        failures.append("transformer zero-branch identity")
    # convnext block identity with zero pw2
    cb = ConvNeXtBlock(8, rng=rng)
    cb.pw2.w.data[:] = 0
    xg = T.Tensor(rng.normal(size=(8, 6, 6)).astype(np.float32))
    if not np.array_equal(cb(xg).data, xg.data):
        failures.append("convnext zero-pw2 identity")
    # softmax rows sum to one
    s = T.softmax(T.Tensor(rng.normal(size=(5, 7)).astype(np.float32)), axis=-1).data
    if not (np.all(s >= 0) and np.abs(s.sum(axis=-1) - 1).max() <= 1e-6):
        failures.append("softmax normalization")
    # concat-slice round trip
    a = T.Tensor(rng.normal(size=(3, 4)).astype(np.float32))
    b = T.Tensor(rng.normal(size=(2, 4)).astype(np.float32))
    cat = T.concat([a, b], axis=0)
    if not (np.array_equal(T.slice_axis(cat, 0, 0, 3).data, a.data)
            and np.array_equal(T.slice_axis(cat, 0, 3, 5).data, b.data)):
        failures.append("concat round trip")
    # pixel-shuffle round trip
    tok = T.Tensor(rng.normal(size=(6, 32)).astype(np.float32))
    grid = tokens_to_grid(tok, 2, 3, 8)
    back = grid_to_tokens(grid, 2, 3, 8)
    if not np.array_equal(back.data, tok.data):
        failures.append("tokens_to_grid round trip")
    # pool mean preservation (partitioning windows)
    x = T.Tensor(rng.normal(size=(2, 8, 8)).astype(np.float32))
    pooled = T.adaptive_avg_pool2d(x, 4)
    if abs(float(pooled.data.mean()) - float(x.data.mean())) > 1e-6:
        failures.append("pool mean preservation")
    # netpbm round trip
    with tempfile.TemporaryDirectory() as tmp:
        sample = RgbdSample(
            rgb=rng.random((3, 5, 6)).astype(np.float32),
            depth=rng.random((1, 5, 6)).astype(np.float32),
            label=rng.integers(0, 4, size=(5, 6)).astype(np.int32))
        write_sample(tmp, 0, sample)
        back = read_sample(tmp, 0)
        if not np.array_equal(back.label, sample.label):
            failures.append("label round trip")
        if np.abs(back.depth - sample.depth).max() > 1.0 / 65535:
            failures.append("depth round trip")
    return not failures, "; ".join(failures) if failures else "all identities hold"


def _f32_span(lo, hi, step=1):
    """float32 values whose bit patterns run from ``lo`` (inclusive) to
    ``hi`` (exclusive) by ``step``."""
    return np.arange(lo, hi, step, dtype=np.uint32).view(np.float32)


def _f32_bits(value):
    return int(np.float32(value).view(np.uint32))


def _cube_probe():
    """float32 values on which ``tensor._cube`` must equal ``x ** 3``: every
    16th value of [-2, -1), and with both signs zero, subnormals, powers of
    two, values whose cubes are near or below the float32 subnormal range,
    cubes around the float32 overflow, the largest float32, inf and NaN."""
    mag = np.concatenate([
        _f32_span(0, 1 << 23, 4093),
        np.ldexp(np.float32(1), np.arange(-149, 128)).astype(np.float32),
        _f32_span(_f32_bits(1e-14), _f32_bits(7.2e-13), 127),
        _f32_span(_f32_bits(6.9e12), _f32_bits(7.1e12), 97),
        np.array([np.finfo(np.float32).max, np.inf, np.nan], np.float32),
    ])
    binade = _f32_span(_f32_bits(1.0), _f32_bits(2.0), 16)
    return np.concatenate([-binade, mag, -mag])


def check_cube_bits():
    x = _cube_probe()
    with np.errstate(over="ignore"):
        ref = x ** 3
        got = T._cube(x)
    bad = int(np.count_nonzero(got.view(np.uint32) != ref.view(np.uint32)))
    return bad == 0, f"{bad} of {x.size} probe values differ from x ** 3"


def check_param_count():
    model = build_model(full_vitb_config("rgb_only"))
    total = param_count(model)
    rel = abs(total - REPORTED_TOTAL_PARAMS) / REPORTED_TOTAL_PARAMS
    model2 = build_model(full_vitb_config("rgb_and_depth"))
    total2 = param_count(model2)
    delta = total2 - total
    delta_rel = abs(delta - REPORTED_PARAM_DELTA) / REPORTED_PARAM_DELTA
    ok = rel <= 0.05 and total2 > total and delta_rel <= 0.30
    return ok, (f"rgb_only {total / 1e6:.2f}M (off {rel * 100:.1f}%), "
                f"rgb+depth {total2 / 1e6:.2f}M, delta {delta / 1e6:.2f}M "
                f"(off {delta_rel * 100:.1f}%)")


def check_full_config_shapes():
    cfg = full_vitb_config()
    cfg.validate()
    ok = (cfg.grid_h * cfg.grid_w == 1200)
    t = cfg.patch // 4
    e = t * t * (cfg.embed_dim // 8)
    ok = ok and e == 2 * cfg.embed_dim
    return ok, f"1200 tokens/modality, expand width {e}"


TOY_CHECKS = [
    ("matmul vs triple-loop oracle", check_matmul_oracle),
    ("conv2d vs 6-loop oracle", check_conv2d_oracle),
    ("adaptive_avg_pool2d vs window-mean oracle", check_pool_oracle),
    ("bilinear_resize vs closed-form oracle", check_bilinear_oracle),
    ("mhsa vs loop oracle", check_mhsa_oracle),
    ("fusion fuse vs attention oracle", check_fuse_oracle),
    ("per-op gradient checks", check_per_op_grads),
    ("end-to-end gradient check", check_end_to_end_grad),
    ("identity and normalization suite", check_identity_suite),
    ("gelu cube bits vs x ** 3", check_cube_bits),
]

FULL_CHECKS = [
    ("full-config shape bookkeeping", check_full_config_shapes),
    ("parameter-count reproduction", check_param_count),
]


def run_checks(config="toy", sabotage=None, log=print):
    checks = FULL_CHECKS if config == "full-vitb" else TOY_CHECKS
    old = T._SABOTAGE
    T._SABOTAGE = sabotage
    all_ok = True
    try:
        for name, fn in checks:
            ok, detail = fn()
            all_ok = all_ok and ok
            log(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    finally:
        T._SABOTAGE = old
    return all_ok
