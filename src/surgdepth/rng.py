"""Seeded PRNG helpers. No global hidden state: every consumer gets an
explicit numpy Generator (PCG64) derived from a config seed, or a
DeferredInit that records the draws and replays them from one later."""

import numpy as np

TRUNC_BOUND = 2.0   # trunc_normal's cut, in standard deviations


def make_rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


class DeferredInit:
    """Stands in for a Generator while a model is built.

    ``trunc_normal`` called with it returns an unfilled array and records
    the draw; ``replay`` later fills every recorded array, in recording
    order, from a real Generator, so the values are those an eager build
    from that Generator gives. ``discard`` drops the recording once the
    arrays were overwritten by other means (a checkpoint load).
    """

    def __init__(self):
        self.draws = []   # (array, std) in construction order

    def replay(self, rng):
        for out, std in self.draws:
            _fill_trunc_normal(rng, out, std)
        self.draws = []

    def discard(self):
        self.draws = []


def _fill_trunc_normal(rng, out, std):
    """Fill the C-contiguous float32 ``out`` with Normal(0, std) truncated
    to +-TRUNC_BOUND*std, by resampling."""
    rng.standard_normal(dtype=np.float32, out=out)
    out *= np.float32(std)
    limit = np.float32(TRUNC_BOUND * std)
    flat = out.reshape(-1)
    idx = np.flatnonzero(np.abs(flat) > limit)
    while idx.size:
        draw = rng.standard_normal(size=idx.size, dtype=np.float32) * np.float32(std)
        flat[idx] = draw
        idx = idx[np.abs(draw) > limit]


def trunc_normal(rng, shape, std=0.02):
    """Float32 Normal(0, std) truncated to +-TRUNC_BOUND*std, by resampling.

    With a DeferredInit as ``rng`` the array comes back unfilled and the
    draw is recorded for ``DeferredInit.replay``; with a Generator the
    draw is recorded and replayed at once.
    """
    out = np.empty(shape, np.float32)
    init = rng if isinstance(rng, DeferredInit) else DeferredInit()
    init.draws.append((out, std))
    if init is not rng:
        init.replay(rng)
    return out
