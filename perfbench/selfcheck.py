"""Checks of the benchmark itself (not collected by the package's test run).

    python3 -m pytest -q perfbench/selfcheck.py

- the correctness gate fails when a kernel is deliberately wrong
  (``surgdepth.tensor._SABOTAGE``, the hook ``surgdepth verify`` uses);
- traced and untraced runs of one seed give bit-identical losses and
  predictions, so the tracer cannot change numerics;
- the traced counts (calls, flops, bytes) repeat exactly for one seed.
"""

import pytest

import run as bench  # sets BLAS threads and the import path first
import spans
import workloads
from surgdepth import tensor as T

TOY = ("train_toy", "eval_toy")
ALL = TOY + ("infer_vitb_half",)
CACHE = bench.os.path.join(bench.OUT, "cache")


def _run(name, tmp_path, tag, seed=3, tracer=None):
    work = tmp_path / f"{name}-{tag}"
    work.mkdir()
    stored = workloads.load_reference()
    if tracer is None:
        return workloads.WORKLOADS[name](seed, 0, str(work), CACHE, stored)
    with tracer.installed():
        return workloads.WORKLOADS[name](seed, 0, str(work), CACHE, stored, tracer)


def _traced(name, tmp_path, tag):
    tracer = spans.Tracer(bench.SAMPLE_SPAN.get(name))
    run = _run(name, tmp_path, tag, tracer=tracer)
    return run, bench.per_layer(run, tracer)


@pytest.mark.parametrize("name", ALL)
def test_gate_passes_and_fails_on_sabotaged_kernel(name, tmp_path):
    clean = _run(name, tmp_path, "clean")
    assert clean.failed == 0 and not clean.errors, clean.errors
    assert T._SABOTAGE is None
    T._SABOTAGE = "bilinear_resize"
    try:
        broken = _run(name, tmp_path, "sabotage")
    finally:
        T._SABOTAGE = None
    assert broken.failed == broken.attempted > 0, broken.errors
    assert broken.errors


@pytest.mark.parametrize("name", TOY)
def test_tracing_does_not_change_numerics(name, tmp_path):
    plain = _run(name, tmp_path, "plain")
    traced, _ = _traced(name, tmp_path, "traced")
    assert plain.fingerprint == traced.fingerprint
    assert plain.quality == traced.quality


@pytest.mark.parametrize("name", TOY)
def test_traced_counts_repeat_exactly(name, tmp_path):
    first = _traced(name, tmp_path, "a")[1]
    second = _traced(name, tmp_path, "b")[1]
    counts = [m for m in first if m.endswith((".calls", ".flops", "bytes"))]
    assert "tensor.taped_bytes" in counts and "tensor.matmul.flops" in counts
    assert first["tensor.matmul.calls"][0] > 0
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}
