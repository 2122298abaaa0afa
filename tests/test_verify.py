from surgdepth import tensor as T
from surgdepth import verify
from surgdepth.verify import run_checks


def test_toy_suite_passes_and_logs_one_line_per_check():
    lines = []
    assert run_checks(config="toy", log=lines.append)
    assert len(lines) == 10
    assert all(line.startswith("[PASS]") for line in lines)


def test_sabotaged_bilinear_is_detected():
    lines = []
    assert not run_checks(config="toy", sabotage="bilinear_resize",
                          log=lines.append)
    assert any(line.startswith("[FAIL]") for line in lines)


def test_sabotage_hook_is_restored_after_run():
    from surgdepth import tensor as T
    run_checks(config="toy", sabotage="bilinear_resize", log=lambda _: None)
    assert T._SABOTAGE is None


def test_full_vitb_suite_passes():
    lines = []
    assert run_checks(config="full-vitb", log=lines.append)
    assert len(lines) == 2


def test_cube_check_fails_on_a_cube_that_rounds_differently(monkeypatch):
    monkeypatch.setattr(T, "_cube", lambda d: d * d * d)
    assert not verify.check_cube_bits()[0]
