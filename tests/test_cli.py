import argparse
import contextlib
import errno
import hashlib
import io
import json
import os
import shutil
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surgdepth import tensor as T
from surgdepth.checkpoint import load_checkpoint
from surgdepth.cli import (EXIT_DATA, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE,
                           EXIT_VERIFY_FAIL, build_parser, main, make_model_config,
                           read_config_file)
from surgdepth.errors import ConfigError, UsageError
from surgdepth.model import ModelConfig, build_model

TOY_FLAGS = ["--size", "16", "--patch", "4", "--embed-dim", "16",
             "--encoder-blocks", "1", "--heads", "2", "--fusion-k", "2",
             "--decoder-blocks", "1", "--classes", "4"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    code = main(["gen-data", "--n", "4", "--size", "16", "--out", str(d)])
    assert code == EXIT_OK
    return str(d)


def _commands_with_out():
    """Every subcommand that takes --out, read from the parser itself."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sorted(name for name, p in sub.choices.items()
                  if any("--out" in a.option_strings for a in p._actions))


OUT_COMMANDS = _commands_with_out()


def _out_command(command, dataset, out):
    """argv running ``command`` briefly on ``dataset`` with ``--out out``."""
    extra = {"eval": [*TOY_FLAGS, "--data", dataset],
             "ablate": [*TOY_FLAGS, "--study", "decoder-depth", "--epochs", "1",
                        "--max-steps", "1", "--data", dataset],
             "gen-data": ["--n", "2", "--size", "16"],
             "train": [*TOY_FLAGS, "--epochs", "1", "--max-steps", "1",
                       "--data", dataset]}[command]
    return [command, *extra, "--out", str(out)]


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["train", "--bogus"])
        assert err.value.code == EXIT_USAGE

    def test_bad_config_key_is_usage_error(self, tmp_path, dataset, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bogus_key=1\n")
        code = main(["train", "--config", str(cfg), "--data", dataset,
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_USAGE

    def test_invalid_geometry_is_mismatch(self, tmp_path, dataset, capsys):
        code = main(["train", "--size", "17", "--data", dataset,
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_MISMATCH

    @pytest.mark.parametrize("flags, config", [
        (["--batch-size", "0"], ""), (["--batch-size", "-2"], ""),
        (["--lr", "nan"], ""), (["--weight-decay", "-0.1"], ""),
        ([], "epochs=-1\n"), ([], "lr=inf\n"),
        (["--patch", "0"], ""), (["--heads", "0"], ""), (["--heads", "-2"], ""),
        (["--embed-dim", "0"], ""), (["--fusion-k", "0"], ""),
        (["--encoder-blocks", "-3"], ""), (["--decoder-blocks", "-1"], ""),
        (["--seed", "-1"], ""), (["--classes", "0"], ""),
        ([], "fusion_dim=0\n"), ([], "fusion_dim=-3\n")],
        ids=["batch-size-0", "batch-size-negative", "lr-nan", "weight-decay-negative",
             "file-epochs-negative", "file-lr-inf", "patch-0", "heads-0", "heads-negative",
             "embed-dim-0", "fusion-k-0", "encoder-blocks-negative",
             "decoder-blocks-negative", "seed-negative", "classes-0",
             "file-fusion-dim-0", "file-fusion-dim-negative"])
    def test_untrainable_hyperparameter_is_mismatch(self, tmp_path, dataset, capsys,
                                                    flags, config):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config)
        out = tmp_path / "run"
        code = main(["train", *TOY_FLAGS, *flags, "--config", str(cfg),
                     "--data", dataset, "--out", str(out)])
        assert code == EXIT_MISMATCH
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("config, where", [
        ("lr=abc\n", ":1: bad value 'abc' for 'lr'"),
        ("# header\nepochs=1.5\n", ":2: bad value '1.5' for 'epochs'")],
        ids=["lr-not-a-float", "epochs-not-an-int"])
    def test_bad_config_value_is_usage_error(self, tmp_path, dataset, capsys,
                                             config, where):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config)
        out = tmp_path / "run"
        code = main(["train", "--config", str(cfg), "--data", dataset, "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{cfg}{where}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("content", [None, b"lr=\xff\n"], ids=["missing", "not-utf8"])
    def test_unreadable_config_file_is_usage_error(self, tmp_path, dataset, capsys,
                                                   content):
        cfg = tmp_path / "cfg.txt"
        if content is not None:
            cfg.write_bytes(content)
        code = main(["train", "--config", str(cfg), "--data", dataset,
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(cfg) in err and "Traceback" not in err


# A valid-looking value for every ModelConfig field, image sides at most 16
# so each config that validates runs one small forward; the fuzz then
# overrides up to three fields with a bad value.
_GOOD_CONFIG = {
    "image_h": ["8", "12", "16"], "image_w": ["8", "12", "16"], "patch": ["4", "8"],
    "embed_dim": ["8", "16", "24"], "depth_blocks": ["0", "1", "2"], "heads": ["1", "2", "4"],
    "fusion_k": ["1", "2", "3"], "fusion_dim": ["1", "3", "8"],
    "decoder_blocks": ["0", "1", "2"], "num_classes": ["1", "2", "5"],
    "decoder_input": ["rgb_only", "rgb_and_depth"], "seed": ["0", "1", "7"],
    "lr": ["0", "1e-3", "0.5"], "weight_decay": ["0", "0.05"], "epochs": ["0", "1", "3"],
    "batch_size": ["1", "2"]}
_BAD_VALUE = st.one_of(st.integers(-3, 0).map(str), st.sampled_from(
    ["", "x", "1.5", "-0.5", "0x10", "1e400", "nan", "inf", "-inf", "depth_only"]))


class TestConfigFile:
    @settings(max_examples=300, deadline=None)
    @given(good=st.fixed_dictionaries({k: st.sampled_from(v) for k, v in _GOOD_CONFIG.items()}),
           bad=st.dictionaries(st.sampled_from(sorted(_GOOD_CONFIG)), _BAD_VALUE, max_size=3))
    @example(good={k: v[0] for k, v in _GOOD_CONFIG.items()}, bad={"seed": "-1"})
    @example(good={k: v[0] for k, v in _GOOD_CONFIG.items()}, bad={"fusion_dim": "0"})
    @example(good={k: v[0] for k, v in _GOOD_CONFIG.items()}, bad={"fusion_dim": "-3"})
    def test_fuzzed_config_raises_only_usage_or_config_errors(self, tmp_path_factory,
                                                              good, bad):
        """Any bounded key=value file either builds a model that runs one
        forward or raises UsageError/ConfigError."""
        assert set(_GOOD_CONFIG) == {f.name for f in fields(ModelConfig)}
        path = tmp_path_factory.getbasetemp() / "fuzzed.cfg"
        path.write_text("".join(f"{k}={v}\n" for k, v in {**good, **bad}.items()))
        try:
            cfg = make_model_config(argparse.Namespace(config=str(path)))
        except (UsageError, ConfigError):
            return
        model = build_model(cfg)
        with T.no_grad():
            out = model(np.zeros((3, cfg.image_h, cfg.image_w), np.float32),
                        np.zeros((1, cfg.image_h, cfg.image_w), np.float32))
        assert out.shape == (cfg.num_classes, cfg.image_h, cfg.image_w)

    def test_every_field_reads_as_its_annotated_type(self, tmp_path):
        """A config file setting every field gives each value the type of its
        field's annotation, ``int | None`` read as int: lr=1 is the float 1.0."""
        path = tmp_path / "cfg.txt"
        values = {**{k: v[0] for k, v in _GOOD_CONFIG.items()}, "lr": "1", "fusion_dim": "3"}
        path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
        cfg = make_model_config(argparse.Namespace(config=str(path)))
        kinds = {int: int, int | None: int, float: float, str: str}
        for f in fields(ModelConfig):
            value = getattr(cfg, f.name)
            assert type(value) is kinds[f.type], (f.name, value)
            assert value == kinds[f.type](values[f.name])
        assert (cfg.lr, cfg.fusion_dim, cfg.decoder_input) == (1.0, 3, "rgb_only")

    def test_parse_values_and_comments(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# comment\nlr = 0.5\nbatch_size=4\n\n")
        assert read_config_file(str(path)) == {"lr": "0.5", "batch_size": "4"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("just words\n")
        with pytest.raises(UsageError):
            read_config_file(str(path))

    def test_flags_override_file(self, tmp_path, dataset, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("epochs=0\n" + "\n".join(
            f"{k}={v}" for k, v in [("image_h", 16), ("image_w", 16),
                                    ("patch", 4), ("embed_dim", 16),
                                    ("depth_blocks", 1), ("heads", 2),
                                    ("fusion_k", 2), ("decoder_blocks", 1)]))
        out = tmp_path / "run"
        code = main(["train", "--config", str(cfg), "--data", dataset,
                     "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "best.ckpt").exists()


class TestGenData:
    def test_writes_manifest_and_reports_fraction(self, tmp_path, capsys):
        out = tmp_path / "d"
        code = main(["gen-data", "--n", "3", "--size", "16", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "manifest.txt").exists()
        captured = capsys.readouterr().out
        assert "rgb-ambiguous pixel fraction" in captured

    @pytest.mark.parametrize("flags, message", [
        (["--size", "0"], "image size 0x0 has a side below 1"),
        (["--size", "-4"], "image size -4x-4 has a side below 1"),
        (["--classes", "300"], "at most 255 classes"),
        (["--val-fraction", "nan"], "val fraction must be in [0, 1], got nan"),
        (["--val-fraction", "-1"], "val fraction must be in [0, 1], got -1.0"),
        (["--val-fraction", "2"], "val fraction must be in [0, 1], got 2.0"),
        (["--seed", "-1"], "seed must be at least 0, got -1")],
        ids=["size-0", "size-negative", "classes-over-8-bit", "val-fraction-nan",
             "val-fraction-negative", "val-fraction-over-1", "seed-negative"])
    def test_bad_scene_is_data_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "d"
        code = main(["gen-data", "--n", "2", "--size", "16", *flags, "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["gen-data", "--n", "2", "--size", "16", "--out", str(out)])
        for name in sorted(os.listdir(a)):
            assert _sha(a / name) == _sha(b / name)


class TestTrainEval:
    def test_epochs_zero_writes_initial_checkpoint(self, tmp_path, dataset, capsys):
        out = tmp_path / "run"
        code = main(["train", *TOY_FLAGS, "--epochs", "0",
                     "--data", dataset, "--out", str(out)])
        assert code == EXIT_OK
        assert load_checkpoint(out / "best.ckpt")

    def test_lr_zero_checkpoint_equals_initial(self, tmp_path, dataset, capsys):
        run0 = tmp_path / "r0"
        run1 = tmp_path / "r1"
        main(["train", *TOY_FLAGS, "--epochs", "0", "--data", dataset,
              "--out", str(run0)])
        code = main(["train", *TOY_FLAGS, "--lr", "0", "--weight-decay", "0",
                     "--epochs", "2", "--max-steps", "4", "--no-augment",
                     "--data", dataset, "--out", str(run1)])
        assert code == EXIT_OK
        assert _sha(run0 / "best.ckpt") == _sha(run1 / "best.ckpt")

    def test_train_twice_same_seed_same_checkpoint(self, tmp_path, dataset, capsys):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = main(["train", *TOY_FLAGS, "--epochs", "2", "--max-steps",
                         "4", "--data", dataset, "--out", str(out)])
            assert code == EXIT_OK
            outs.append(out)
        assert _sha(outs[0] / "best.ckpt") == _sha(outs[1] / "best.ckpt")

    def test_eval_untrained_near_chance(self, tmp_path, dataset, capsys):
        out = tmp_path / "eval.json"
        code = main(["eval", *TOY_FLAGS, "--data", dataset, "--split", "train",
                     "--out", str(out)])
        assert code == EXIT_OK
        miou = json.loads(out.read_text())["miou"]
        # untrained predictions hover near the 1/K chance level
        assert 0.0 <= miou <= 3.0 / 4

    def test_eval_twice_identical_json(self, tmp_path, dataset, capsys):
        paths = [tmp_path / "e1.json", tmp_path / "e2.json"]
        for p in paths:
            assert main(["eval", *TOY_FLAGS, "--data", dataset,
                         "--out", str(p)]) == EXIT_OK
        assert paths[0].read_text() == paths[1].read_text()

    def test_eval_mismatched_checkpoint_exits_3(self, tmp_path, dataset, capsys):
        run = tmp_path / "run"
        main(["train", *TOY_FLAGS, "--epochs", "0", "--data", dataset,
              "--out", str(run)])
        code = main(["eval", *TOY_FLAGS[:-2], "--classes", "4",
                     "--decoder-blocks", "2", "--data", dataset,
                     "--ckpt", str(run / "best.ckpt")])
        assert code == EXIT_MISMATCH

    def test_eval_bad_checkpoint_exits_65(self, tmp_path, dataset, capsys):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(b"NOTM0001\n\n")
        code = main(["eval", *TOY_FLAGS, "--data", dataset, "--ckpt", str(ckpt)])
        assert code == EXIT_DATA == 65
        assert "bad magic header" in capsys.readouterr().err

    def test_eval_bad_raster_exits_65(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["gen-data", "--n", "4", "--size", "16", "--out", str(data)])
        (data / "000000_depth.pgm").write_bytes(b"P5\n16 16\n0\n" + bytes(256))
        code = main(["eval", *TOY_FLAGS, "--data", str(data)])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("command", ["train", "eval", "ablate"])
    def test_class_count_mismatch_exits_3(self, tmp_path, dataset, capsys, command):
        extra = {"train": ["--out", str(tmp_path / "run")],
                 "eval": [],
                 "ablate": ["--study", "decoder-depth", "--out", str(tmp_path / "t.csv")]}
        code = main([command, *TOY_FLAGS[:-2], "--classes", "5",
                     "--data", dataset, *extra[command]])
        assert code == EXIT_MISMATCH
        assert "dataset has 4 classes, config 5" in capsys.readouterr().err

    def test_malformed_manifest_exits_65(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["gen-data", "--n", "4", "--size", "16", "--out", str(data)])
        with open(data / "manifest.txt", "a") as fh:
            fh.write("garbage\n")
        code = main(["eval", *TOY_FLAGS, "--data", str(data)])
        assert code == EXIT_DATA
        assert "manifest.txt:5" in capsys.readouterr().err

    def test_label_out_of_range_exits_65(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["gen-data", "--n", "4", "--size", "16", "--out", str(data)])
        label = data / "000000_label.pgm"
        raster = bytearray(label.read_bytes())
        raster[-1] = 9  # 4 classes: 9 is neither a class nor the ignore index
        label.write_bytes(bytes(raster))
        code = main(["eval", *TOY_FLAGS, "--data", str(data), "--split", "train"])
        assert code == EXIT_DATA
        assert "label 9" in capsys.readouterr().err

    def test_missing_raster_exits_65(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["gen-data", "--n", "4", "--size", "16", "--out", str(data)])
        (data / "000001_label.pgm").unlink()
        code = main(["eval", *TOY_FLAGS, "--data", str(data)])
        assert code == EXIT_DATA
        assert "000001_label.pgm: no such file" in capsys.readouterr().err

    def test_empty_training_split_exits_65(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["gen-data", "--n", "2", "--size", "16", "--val-fraction", "1.0",
              "--out", str(data)])
        code = main(["train", *TOY_FLAGS, "--data", str(data), "--out", str(tmp_path / "run")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "empty training set" in err and "Traceback" not in err

    def test_negative_max_steps_is_usage_error(self, tmp_path, dataset, capsys):
        code = main(["train", *TOY_FLAGS, "--max-steps", "-5", "--data", dataset,
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "max_steps must be at least 0, got -5" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_missing_checkpoint_exits_65(self, tmp_path, dataset, capsys):
        missing = tmp_path / "none.ckpt"
        code = main(["eval", *TOY_FLAGS, "--data", dataset, "--ckpt", str(missing)])
        assert code == EXIT_DATA
        assert f"{missing}: no such file" in capsys.readouterr().err

    def test_checkpoint_path_that_is_a_directory_exits_65(self, tmp_path, dataset, capsys):
        code = main(["eval", *TOY_FLAGS, "--data", dataset, "--ckpt", str(tmp_path)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{tmp_path}: Is a directory" in err and "Traceback" not in err

    def test_empty_evaluation_split_exits_65(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["gen-data", "--n", "1", "--size", "16", "--out", str(data)])
        code = main(["eval", *TOY_FLAGS, "--data", str(data), "--split", "val"])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert "the val split has no samples" in captured.err
        assert "Traceback" not in captured.err and "mean IoU" not in captured.out

    def test_missing_manifest_exits_65(self, tmp_path, capsys):
        code = main(["eval", *TOY_FLAGS, "--data", str(tmp_path)])
        assert code == EXIT_DATA
        assert "manifest.txt: no such file" in capsys.readouterr().err

    def test_data_path_that_is_a_file_exits_65(self, tmp_path, capsys):
        data = tmp_path / "file"
        data.write_text("")
        code = main(["eval", *TOY_FLAGS, "--data", str(data)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{data}/manifest.txt: Not a directory" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", OUT_COMMANDS)
    def test_unwritable_out_is_usage_error(self, tmp_path, dataset, capsys, command):
        """--out in a missing directory (eval, ablate) or under a regular
        file (gen-data, train) exits 64 naming the path."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = {"eval": tmp_path / "missing" / "eval.json",
               "ablate": tmp_path / "missing" / "t.csv",
               "gen-data": blocker / "data", "train": blocker / "run"}[command]
        code = main(_out_command(command, dataset, out))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(out) in err and "Traceback" not in err

    @pytest.mark.parametrize("case", ["a-directory", "name-too-long", "under-a-file"])
    @pytest.mark.parametrize("command", OUT_COMMANDS)
    def test_refused_output_exits_64_naming_the_file(self, tmp_path, dataset, capsys,
                                                     monkeypatch, command, case):
        """An output the OS refuses exits 64 with no traceback, names the
        refused file and is refused before any evaluation, training or
        raster write: a directory where a file is written, a name longer
        than the file system allows, or a name under a regular file. The
        message names the refused file itself, not its temporary file."""
        def no_work(*args, **kwargs):
            raise AssertionError(f"{command} ran with a refused output")

        for name in ("load_dataset", "evaluate", "ablate_decoder_depth", "train"):
            monkeypatch.setattr(f"surgdepth.cli.{name}", no_work)
        out = refused = tmp_path / ("x" * 300)
        if case == "a-directory":   # --out itself for a file output
            out = tmp_path / "out"
            refused = out / {"gen-data": "manifest.txt", "train": "best.ckpt"}.get(command, "")
            refused.mkdir(parents=True)
        elif case == "under-a-file":
            (tmp_path / "file").write_text("")
            out = refused = tmp_path / "file" / "out"
        code = main(_out_command(command, dataset, out))
        err = capsys.readouterr().err
        assert code == EXIT_USAGE, err
        assert f"cannot write {refused}:" in err
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("*.p?m"))

    @pytest.mark.parametrize("command", ["eval", "ablate", "gen-data"])
    def test_failed_write_keeps_the_previous_file(self, tmp_path, dataset, capsys,
                                                  monkeypatch, command):
        """An OSError(ENOSPC) partway through an output exits 64 naming that
        output, and leaves the previous file byte for byte and no temporary
        file."""
        out = tmp_path / {"eval": "eval.json", "ablate": "t.csv", "gen-data": "data"}[command]
        target = out / "manifest.txt" if command == "gen-data" else out
        target.parent.mkdir(exist_ok=True)
        target.write_bytes(b"previous\n")
        real_open = open

        class FullDisk:
            """The target's temporary file: its second write() fails."""
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, data):
                self.writes += 1
                if self.writes > 1:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.fh.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        def filling_open(path, *args, **kwargs):
            fh = real_open(path, *args, **kwargs)
            return FullDisk(fh) if path == f"{target}.tmp" else fh

        monkeypatch.setattr("surgdepth.data.open", filling_open, raising=False)
        monkeypatch.setattr("surgdepth.cli.ablate_decoder_depth", lambda *a, **k: [
            {"blocks": b, "miou": 0.5, "params": 1, "reference_iou": 0.8} for b in (1, 2)])
        code = main(_out_command(command, dataset, out))
        err = capsys.readouterr().err
        assert code == EXIT_USAGE, err
        assert err.startswith(f"error: cannot write {target}: {os.strerror(errno.ENOSPC)}")
        assert "Traceback" not in err
        assert target.read_bytes() == b"previous\n"
        assert not list(tmp_path.rglob("*.tmp"))

    def test_eval_raster_above_its_maxval_exits_65(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["gen-data", "--n", "4", "--size", "16", "--out", str(data)])
        (data / "000000_depth.pgm").write_bytes(b"P5\n16 16\n1000\n" + b"\x03\xe9" * 256)
        code = main(["eval", *TOY_FLAGS, "--data", str(data)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "000000_depth.pgm: a sample exceeds maxval 1000" in err
        assert "Traceback" not in err

    def test_write_error_without_a_file_name_names_out(self, tmp_path, dataset, capsys,
                                                       monkeypatch):
        """An OSError that names no file (a failed write()) names --out."""
        def full(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr("surgdepth.cli.json.dump", full)
        out = tmp_path / "eval.json"
        code = main(["eval", *TOY_FLAGS, "--data", dataset, "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"cannot write {out}: {os.strerror(errno.ENOSPC)}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("blocked, steps", [("best.ckpt", ["--max-steps", "1"]),
                                                ("metrics.jsonl", ["--max-steps", "1"]),
                                                ("best.ckpt", ["--max-steps", "0"])],
                             ids=["checkpoint", "metrics", "checkpoint-zero-steps"])
    def test_unwritable_train_output_is_usage_error(self, tmp_path, dataset, capsys,
                                                    monkeypatch, blocked, steps):
        """A directory where train writes best.ckpt or metrics.jsonl exits 64
        naming that file, before any training."""
        def no_training(*args, **kwargs):
            raise AssertionError("train() ran with a blocked output")

        monkeypatch.setattr("surgdepth.cli.train", no_training)
        run = tmp_path / "run"
        (run / blocked).mkdir(parents=True)
        code = main(["train", *TOY_FLAGS, "--epochs", "1", *steps, "--data", dataset,
                     "--out", str(run)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"cannot write {run / blocked}" in err and "Traceback" not in err


_MANIFEST_EDITS = st.lists(st.tuples(st.sampled_from(["set", "insert", "delete", "repeat"]),
                                     st.integers(0, 200), st.binary(min_size=1, max_size=6)),
                           min_size=1, max_size=4)


class TestManifestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(edits=_MANIFEST_EDITS)
    @example(edits=[("insert", 0, b"\xff\xfe")])
    @example(edits=[("repeat", 0, b"\n")])
    @example(edits=[("insert", 0, b"9" * 300)])
    def test_fuzzed_manifest_exits_with_a_documented_code(self, tmp_path_factory,
                                                          dataset, edits):
        """Byte edits of a valid manifest make ``eval`` exit 0, 3 or 65, with
        no traceback: ``set`` overwrites bytes at an offset, ``insert`` adds
        them, ``delete`` drops as many, ``repeat`` appends the line there."""
        data = tmp_path_factory.getbasetemp() / "fuzzed-manifest"
        if not data.exists():
            shutil.copytree(dataset, data)
        with open(os.path.join(dataset, "manifest.txt"), "rb") as fh:
            blob = bytearray(fh.read())
        for op, at, chunk in edits:
            at = min(at, len(blob))
            if op == "set":
                blob[at:at + len(chunk)] = chunk
            elif op == "insert":
                blob[at:at] = chunk
            elif op == "delete":
                del blob[at:at + len(chunk)]
            else:
                start = blob.rfind(b"\n", 0, at) + 1
                end = blob.find(b"\n", at)
                blob += blob[start:len(blob) if end < 0 else end + 1]
        (data / "manifest.txt").write_bytes(bytes(blob))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["eval", *TOY_FLAGS, "--data", str(data)])
        assert code in (EXIT_OK, EXIT_MISMATCH, EXIT_DATA), err.getvalue()
        assert "Traceback" not in err.getvalue()


class TestAblate:
    def test_decoder_depth_csv(self, tmp_path, dataset, capsys):
        out = tmp_path / "table.csv"
        code = main(["ablate", *TOY_FLAGS, "--study", "decoder-depth",
                     "--epochs", "1", "--max-steps", "1",
                     "--data", dataset, "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("blocks,miou,params,")
        assert "reference_iou" in lines[0]
        refs = [line.split(",")[-1] for line in lines[1:]]
        assert refs == ["0.843", "0.851", "0.862", "0.856"]

    def test_decoder_input_csv(self, tmp_path, dataset, capsys):
        out = tmp_path / "table.csv"
        code = main(["ablate", *TOY_FLAGS, "--study", "decoder-input",
                     "--epochs", "1", "--max-steps", "1",
                     "--data", dataset, "--out", str(out)])
        assert code == EXIT_OK
        rows = out.read_text().strip().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["rgb_only", "rgb_and_depth"]
        assert int(rows[0].split(",")[2]) < int(rows[1].split(",")[2])


class TestVerify:
    def test_sabotaged_kernel_detected(self, capsys):
        assert main(["verify", "--sabotage", "bilinear_resize"]) == EXIT_VERIFY_FAIL
