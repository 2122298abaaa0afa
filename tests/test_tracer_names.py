"""The benchmark's tracer patches surgdepth names by attribute lookup: a
refactor that drops one of them breaks every traced benchmark run."""

import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    return spans


def test_tracer_installs_and_restores_every_name(spans):
    targets = [(spans.T, op) for op in spans.TENSOR_OPS]
    targets += [(owner, attr) for owner, attr, _ in spans.MODULE_SPANS + spans.IO_SPANS]
    before = [getattr(owner, attr) for owner, attr in targets]
    with spans.Tracer().installed():
        assert all(getattr(owner, attr) is not fn
                   for (owner, attr), fn in zip(targets, before))
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in zip(targets, before))
