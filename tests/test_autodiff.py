import math
import weakref

import numpy as np
import pytest

from surgdepth import tensor as T
from surgdepth.data import SceneSpec, generate_dataset
from surgdepth.errors import DeterminismError, UsageError
from surgdepth.fusion import FusionBlock, TokenGrid
from surgdepth.gradcheck import grad_check
from surgdepth.losses import cross_entropy_loss
from surgdepth.model import ModelConfig, build_model
from surgdepth.rng import make_rng


def test_sum_grad_is_ones():
    x = T.Tensor(make_rng(0).normal(size=(3, 4)), requires_grad=True)
    T.backward(T.sum_(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_sum_of_squares_grad_is_2x():
    x = T.Tensor(make_rng(1).normal(size=(5,)), requires_grad=True)
    T.backward(T.sum_(T.mul(x, x)))
    np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-6)


def test_grads_accumulate_across_backward_calls():
    x = T.Tensor(np.ones(3), requires_grad=True)
    T.backward(T.sum_(x))
    T.backward(T.sum_(x))
    np.testing.assert_array_equal(x.grad, 2 * np.ones(3))
    x.zero_grad()
    assert x.grad is None


def test_non_scalar_loss_rejected():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(UsageError):
        T.backward(x)


def test_detached_graph_warns():
    x = T.Tensor(np.ones(1))
    with pytest.warns(UserWarning):
        T.backward(x)


def _toy_loss():
    """A taped toy forward: the fusion block and one encoder block each run
    one attention, and the encoder and decoder blocks one gelu each."""
    cfg = ModelConfig(image_h=16, image_w=16, patch=4, embed_dim=16, depth_blocks=1,
                      heads=2, fusion_k=2, decoder_blocks=1, num_classes=4)
    model = build_model(cfg)
    s = generate_dataset(SceneSpec(seed=0), 1, 16, 16)[0]
    return model, cross_entropy_loss(model(s.rgb, s.depth), s.label)


# The three tests below watch NumPy arrays through weakrefs and call no
# gc.collect(): the tape has no reference cycles, so an array is freed as
# soon as nothing holds it.

def test_attention_scores_freed_during_forward(monkeypatch):
    """softmax's VJP keeps its output, so each attention's score matrix
    (the softmax input) is freed while the loss is alive."""
    scores, softmax = [], T.softmax

    def watched(x, *args, **kwargs):
        scores.append(weakref.ref(x.data))
        return softmax(x, *args, **kwargs)

    monkeypatch.setattr(T, "softmax", watched)
    _, loss = _toy_loss()
    assert loss.requires_grad and len(scores) == 2
    assert [ref() is None for ref in scores] == [True, True]


def test_attention_probabilities_freed_during_forward(monkeypatch):
    """attention's VJP keeps q, k and v and recomputes the probabilities,
    so no softmax output outlives the forward while the loss is alive."""
    probs, softmax = [], T.softmax

    def watched(*args, **kwargs):
        out = softmax(*args, **kwargs)
        probs.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(T, "softmax", watched)
    _, loss = _toy_loss()
    assert loss.requires_grad and len(probs) == 2
    assert [ref() is None for ref in probs] == [True, True]


def test_backward_frees_saved_arrays(monkeypatch):
    """Each gelu's VJP keeps ``d`` and ``t`` until backward has run it,
    then drops them, though the loss is still referenced."""
    saved, gelu = [], T.gelu

    def watched(x):
        out = gelu(x)
        saved.extend(weakref.ref(cell.cell_contents) for cell in out._node.vjp.__closure__
                     if isinstance(cell.cell_contents, np.ndarray))
        return out

    monkeypatch.setattr(T, "gelu", watched)
    _, loss = _toy_loss()
    assert len(saved) == 4 and all(ref() is not None for ref in saved)
    T.backward(loss)
    assert [ref() is None for ref in saved] == [True] * 4   # loss is still bound


def test_second_backward_through_a_graph_raises():
    model, loss = _toy_loss()
    T.backward(loss)
    grads = [p.grad.copy() for p in model.parameters()]
    with pytest.raises(UsageError, match="earlier backward consumed"):
        T.backward(loss)
    for p, g in zip(model.parameters(), grads):
        assert p.grad.tobytes() == g.tobytes()


def _taped(x):
    return T.mul(x, 2.0).requires_grad


def test_no_grad_restored_after_exception_and_nesting():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(RuntimeError):
        with T.no_grad():
            raise RuntimeError("boom")
    assert _taped(x)
    with T.no_grad():
        with T.no_grad():
            assert not _taped(x)
        assert not _taped(x)
    assert _taped(x)


def test_grad_check_quadratic_exact():
    x = T.Tensor(make_rng(2).normal(size=(4,)), requires_grad=True)
    rep = grad_check(lambda: T.sum_(T.mul(x, x)), [("x", x)], tol=1e-6)
    assert rep.passed, rep


def test_grad_check_softmax_cross_entropy_toy():
    rng = make_rng(3)
    logits = T.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    target = T.Tensor(rng.random((4, 5)))

    def f():
        p = T.softmax(logits, axis=-1)
        return T.mul(T.sum_(T.mul(T.log(p), target)), -1.0)

    rep = grad_check(f, [("logits", logits)], tol=1e-4)
    assert rep.passed, rep


def test_grad_check_detects_nondeterminism():
    state = {"n": 0.0}

    def f():
        state["n"] += 1.0
        return T.Tensor(np.array(state["n"]))

    with pytest.raises(DeterminismError):
        grad_check(f, [])


def test_fusion_block_composite_gradients():
    rng = make_rng(4)
    block = FusionBlock(8, attn_dim=8, k=2, rng=rng).astype(np.float64)
    xr = T.Tensor(rng.normal(size=(16, 8)), requires_grad=True)
    xd = T.Tensor(rng.normal(size=(16, 8)), requires_grad=True)

    def f():
        orr, odd = block(TokenGrid(4, 4, xr), TokenGrid(4, 4, xd))
        return T.add(T.sum_(T.mul(orr.tokens, orr.tokens)),
                     T.sum_(T.mul(odd.tokens, odd.tokens)))

    params = list(block.named_parameters()) + [("x_rgb", xr), ("x_depth", xd)]
    rep = grad_check(f, params, tol=1e-3)
    assert rep.passed, rep


@pytest.mark.parametrize("name", [
    "matmul", "softmax", "layer_norm", "gelu", "conv2d", "pool", "bilinear",
    "concat", "slice", "permute",
])
def test_every_differentiable_op_passes_grad_check(name):
    rng = make_rng(42)
    if name == "matmul":
        a = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        fns = lambda: T.sum_(T.matmul(a, b))
        params, tol = [("a", a), ("b", b)], 1e-6
    elif name == "softmax":
        x = T.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = T.Tensor(rng.random((3, 5)))
        fns = lambda: T.sum_(T.mul(T.softmax(x, axis=-1), w))
        params, tol = [("x", x)], 1e-3
    elif name == "layer_norm":
        x = T.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        g = T.Tensor(rng.normal(size=6), requires_grad=True)
        b = T.Tensor(rng.normal(size=6), requires_grad=True)
        w = T.Tensor(rng.random((4, 6)))
        fns = lambda: T.sum_(T.mul(T.layer_norm(x, g, b), w))
        params, tol = [("x", x), ("g", g), ("b", b)], 1e-3
    elif name == "gelu":
        x = T.Tensor(rng.normal(size=(7,)), requires_grad=True)
        fns = lambda: T.sum_(T.gelu(x))
        params, tol = [("x", x)], 1e-3
    elif name == "conv2d":
        x = T.Tensor(rng.normal(size=(2, 5, 5)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(2, 1, 3, 3)), requires_grad=True)
        b = T.Tensor(rng.normal(size=2), requires_grad=True)
        wt = T.Tensor(rng.random((2, 5, 5)))
        fns = lambda: T.sum_(T.mul(T.conv2d(x, w, b, padding=1, groups=2), wt))
        params, tol = [("x", x), ("w", w), ("b", b)], 1e-6
    elif name == "pool":
        x = T.Tensor(rng.normal(size=(2, 5, 7)), requires_grad=True)
        wt = T.Tensor(rng.random((2, 3, 3)))
        fns = lambda: T.sum_(T.mul(T.adaptive_avg_pool2d(x, 3), wt))
        params, tol = [("x", x)], 1e-6
    elif name == "bilinear":
        x = T.Tensor(rng.normal(size=(1, 3, 4)), requires_grad=True)
        wt = T.Tensor(rng.random((1, 5, 6)))
        fns = lambda: T.sum_(T.mul(T.bilinear_resize(x, 5, 6), wt))
        params, tol = [("x", x)], 1e-6
    elif name == "concat":
        a = T.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        wt = T.Tensor(rng.random((4, 3)))
        fns = lambda: T.sum_(T.mul(T.concat([a, b], axis=0), wt))
        params, tol = [("a", a), ("b", b)], 1e-6
    elif name == "slice":
        x = T.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        wt = T.Tensor(rng.random((2, 3)))
        fns = lambda: T.sum_(T.mul(T.slice_axis(x, 0, 1, 3), wt))
        params, tol = [("x", x)], 1e-6
    else:
        x = T.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        wt = T.Tensor(rng.random((4, 2, 3)))
        fns = lambda: T.sum_(T.mul(T.permute(x, (2, 0, 1)), wt))
        params, tol = [("x", x)], 1e-6
    rep = grad_check(fns, params, tol=tol)
    assert rep.passed, f"{name}: {rep}"


def _composite_attention(q, k, v):
    """The matmul/softmax/matmul chain, every op on the tape."""
    lead = q.data.ndim - 2
    kt = T.permute(k, (*range(lead), lead + 1, lead))
    scale = 1.0 / math.sqrt(q.shape[-1])
    return T.matmul(T.softmax(T.matmul(q, kt), axis=-1, scale=scale), v)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shapes", [((2, 6, 4), (2, 6, 4), (2, 6, 4)),
                                    ((4, 8), (10, 8), (10, 6))],
                         ids=["mhsa-heads-n-d", "fusion-2d"])
def test_attention_grads_match_composite_chain_bit_for_bit(dtype, shapes):
    rng = make_rng(12)
    arrays = [rng.normal(size=shape).astype(dtype) for shape in shapes]
    w = T.Tensor(rng.normal(size=shapes[0][:-1] + shapes[2][-1:]).astype(dtype))
    results = []
    for fn in (T.attention, _composite_attention):
        q, k, v = (T.Tensor(a.copy(), requires_grad=True) for a in arrays)
        out = fn(q, k, v)
        T.backward(T.sum_(T.mul(out, w)))
        results.append([t.tobytes() for t in (out.data, q.grad, k.grad, v.grad)])
        assert q.grad.dtype == k.grad.dtype == v.grad.dtype == dtype
    assert results[0] == results[1]


def test_model_grads_match_composite_attention_bit_for_bit(monkeypatch):
    """Through a whole model, where one token stream feeds the fusion
    block's q, k and v, the attention node's gradients sum in the same
    order as the composite chain's."""
    grads = []
    for attention in (T.attention, _composite_attention):
        monkeypatch.setattr(T, "attention", attention)
        model, loss = _toy_loss()
        T.backward(loss)
        grads.append([p.grad.tobytes() for p in model.parameters()])
    assert grads[0] == grads[1]
