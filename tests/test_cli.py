import argparse
import contextlib
import errno
import io
import json
import logging
import os
import re
import stat
import struct
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsformer import autodiff
from tsformer import cli as cli_mod
from tsformer import model as model_mod
from tsformer import training
from tsformer.cli import build_parser, main
from tsformer.data import load_csv
from tsformer.errors import CheckpointFormatError, ConfigError, DataError
from tsformer.fileio import crc64
from tsformer.model import ModelConfig, ModelParams, load_params, save_params


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def synth_csv(tmp_path, capsys, name="series.csv", n=60, kind="sine", noise=0.0):
    path = str(tmp_path / name)
    code, _, _ = run(
        ["synth", "--kind", kind, "--n", str(n), "--noise", str(noise),
         "--seed", "5", "--out", path],
        capsys,
    )
    assert code == 0
    return path


def run_python(args, **env):
    """Run a fresh interpreter on ``args``, with ``env`` over the caller's
    environment less any TST_LOG."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    base = {k: v for k, v in os.environ.items() if k != "TST_LOG"}
    base["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *args], env={**base, **env},
                          check=True, capture_output=True, text=True, timeout=300)


def run_process(argv, **env):
    """Run the CLI in a fresh interpreter, as the ``tsformer`` command runs."""
    return run_python(["-m", "tsformer.cli", *argv], **env)


def bare_checkpoint(tmp_path, window_len=4):
    """A zero checkpoint saved without train's pipeline metadata."""
    cfg = ModelConfig(window_len=window_len, input_dim=1, model_dim=8, n_heads=2, seed=0)
    path = str(tmp_path / "bare.tstm")
    save_params(ModelParams(cfg), cfg, path)
    return path


def train_args(data, out, report, **extra):
    argv = [
        "train", "--data", data, "--target", "value",
        "--window", "8", "--epochs", "2", "--seed", "3",
        "--out", out, "--report", report,
    ]
    for key, value in extra.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


class TestSynth:
    def test_sine_csv_written(self, tmp_path, capsys):
        path = synth_csv(tmp_path, capsys)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "value"
        assert len(lines) == 61

    def test_ar1_csv_written(self, tmp_path, capsys):
        path = str(tmp_path / "ar1.csv")
        code, out, _ = run(
            ["synth", "--kind", "ar1", "--n", "30", "--coeff", "0.5",
             "--noise", "0.2", "--out", path], capsys)
        assert code == 0
        assert "30 rows" in out

    def test_negative_seed_exits_1_and_writes_nothing(self, tmp_path, capsys):
        # without --noise no draw is made, so only the parser sees the seed
        path = tmp_path / "s.csv"
        code, _, err = run(["synth", "--seed", "-1", "--out", str(path)], capsys)
        assert code == 1
        assert err.startswith("config error:") and len(err.splitlines()) == 1
        assert not path.exists()

    @pytest.mark.parametrize("argv", [
        ["--kind", "ar1", "--period", "3"],
        ["--kind", "sine", "--coeff", "0.1"],
        ["--coeff", "0.1"],  # sine is the default kind
    ])
    def test_the_other_kinds_parameter_exits_1_and_writes_nothing(self, tmp_path, capsys, argv):
        path = tmp_path / "s.csv"
        code, _, err = run(["synth", *argv, "--out", str(path)], capsys)
        assert code == 1
        assert err.startswith("config error: --") and len(err.splitlines()) == 1
        assert not path.exists()

    @pytest.mark.parametrize("kind,flag,default", [("sine", "--period", "40"),
                                                   ("ar1", "--coeff", "0.9")])
    def test_unset_parameter_takes_its_default(self, tmp_path, capsys, kind, flag, default):
        argv = ["synth", "--kind", kind, "--n", "50", "--noise", "0.3"]
        assert run([*argv, "--out", str(tmp_path / "a.csv")], capsys)[0] == 0
        assert run([*argv, flag, default, "--out", str(tmp_path / "b.csv")], capsys)[0] == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestTrain:
    def test_happy_path_writes_three_artifacts(self, tmp_path, capsys):
        data = synth_csv(tmp_path, capsys)
        out = str(tmp_path / "model.tstm")
        report = str(tmp_path / "report.csv")
        code, stdout, _ = run(train_args(data, out, report), capsys)
        assert code == 0
        assert os.path.exists(out)
        assert os.path.exists(report)
        assert os.path.exists(out + ".manifest.json")
        assert "train_mse=" in stdout and "val_mse=" in stdout

    def test_manifest_records_flags(self, tmp_path, capsys):
        data = synth_csv(tmp_path, capsys)
        out = str(tmp_path / "model.tstm")
        report = str(tmp_path / "report.csv")
        run(train_args(data, out, report), capsys)
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["window"] == 8
        assert manifest["seed"] == 3
        assert manifest["artifacts"]["checkpoint"] == out

    def test_manifest_lists_every_flag(self, tmp_path, capsys):
        data = synth_csv(tmp_path, capsys)
        out = str(tmp_path / "model.tstm")
        run(train_args(data, out, str(tmp_path / "report.csv")), capsys)
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        dests = {a.dest for a in sub.choices["train"]._actions if a.dest != "help"}
        assert dests <= manifest.keys()
        assert manifest["features"] == ["value"]

    def test_utf8_bom_header_trains(self, tmp_path, capsys):
        plain = synth_csv(tmp_path, capsys)
        data = str(tmp_path / "bom.csv")
        with open(data, "wb") as fh:
            fh.write("\ufeff".encode("utf-8") + Path(plain).read_bytes())
        out = str(tmp_path / "model.tstm")
        code, stdout, err = run(train_args(data, out, str(tmp_path / "r.csv")), capsys)
        assert (code, err) == (0, "")
        assert "train_mse=" in stdout

    def test_same_flags_same_bytes(self, tmp_path, capsys):
        data = synth_csv(tmp_path, capsys)
        pair = []
        for tag in ("a", "b"):
            out = str(tmp_path / f"model_{tag}.tstm")
            report = str(tmp_path / f"report_{tag}.csv")
            code, _, _ = run(train_args(data, out, report), capsys)
            assert code == 0
            pair.append((Path(out).read_bytes(), Path(report).read_bytes()))
        assert pair[0][0] == pair[1][0]
        assert pair[0][1] == pair[1][1]

    def test_same_bytes_across_blas_thread_counts(self, tmp_path, capsys):
        data = synth_csv(tmp_path, capsys, n=80, noise=0.1)
        # The second run's cap sits far below every batch's gradient norm
        # (2.7 to 14 here), so the clip's norm and scaling run on each batch.
        for extra in ({}, {"grad_clip": 0.01}):
            blobs = []
            for threads in ("1", "2"):
                out = tmp_path / f"model_{threads}.tstm"
                argv = train_args(data, str(out), str(tmp_path / f"report_{threads}.csv"),
                                  **extra)
                run_process(argv, OPENBLAS_NUM_THREADS=threads)
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1], extra

    def test_epoch_times_go_to_the_log_alone(self, tmp_path, capsys):
        data = synth_csv(tmp_path, capsys)
        runs = {}
        for tag, env in (("quiet", {}), ("info", {"TST_LOG": "info"})):
            argv = train_args(data, str(tmp_path / f"m_{tag}.tstm"),
                              str(tmp_path / f"r_{tag}.csv"), epochs=3)
            runs[tag] = run_process(argv, **env)
        assert runs["quiet"].stderr == ""
        assert runs["info"].stdout == runs["quiet"].stdout != ""
        epochs = [line for line in runs["info"].stderr.splitlines() if "epoch" in line]
        assert len(epochs) == 3
        for n, line in enumerate(epochs, start=1):
            assert re.fullmatch(rf"INFO tsformer\.training: epoch {n}: \d+\.\d{{3}} s", line)
        assert (tmp_path / "r_info.csv").read_bytes() == (tmp_path / "r_quiet.csv").read_bytes()

    def test_non_finite_parameters_exit_3_and_write_nothing(self, tmp_path, capsys,
                                                            monkeypatch):
        data = synth_csv(tmp_path, capsys)
        real = cli_mod.train

        def poisoned(*args):
            params, report = real(*args)
            params.views["b_y"][...] = np.inf
            return params, report

        monkeypatch.setattr(cli_mod, "train", poisoned)
        argv = train_args(data, str(tmp_path / "m.tstm"), str(tmp_path / "r.csv"))
        code, stdout, err = run(argv, capsys)
        assert (code, stdout) == (3, "")
        assert err == "numeric failure: refusing to save non-finite values in b_y\n"
        assert os.listdir(tmp_path) == ["series.csv"]

    def test_failed_report_write_leaves_no_checkpoint(self, tmp_path, capsys, monkeypatch):
        # the checkpoint is written last: one on disk implies its report
        # and manifest
        data = synth_csv(tmp_path, capsys)
        real_export, real_fsync = cli_mod.export_report, os.fsync

        def eio(fd):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        def export_with_failing_fsync(report, path):
            monkeypatch.setattr(os, "fsync", eio)
            try:
                real_export(report, path)
            finally:
                monkeypatch.setattr(os, "fsync", real_fsync)

        monkeypatch.setattr(cli_mod, "export_report", export_with_failing_fsync)
        argv = train_args(data, str(tmp_path / "m.tstm"), str(tmp_path / "r.csv"))
        code, stdout, err = run(argv, capsys)
        assert (code, stdout) == (2, "")
        assert err == f"data error: [Errno {errno.EIO}] {os.strerror(errno.EIO)}\n"
        assert os.listdir(tmp_path) == ["series.csv"]

    def test_interrupt_exits_130_and_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        data = synth_csv(tmp_path, capsys)

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod, "train", interrupted)
        argv = train_args(data, str(tmp_path / "m.tstm"), str(tmp_path / "r.csv"))
        code, stdout, err = run(argv, capsys)
        assert (code, stdout, err) == (130, "", "interrupted\n")
        assert os.listdir(tmp_path) == ["series.csv"]

    def test_interrupt_in_a_shared_optimizer_step_exits_130(self, tmp_path, capsys,
                                                            monkeypatch):
        # the calling thread is interrupted in its first slice of a d64
        # model's two while a worker runs the other: the step waits for the
        # worker, and train ends its pool before main returns
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        data = synth_csv(tmp_path, capsys)
        finished = []
        shared_run = training._Slices.run

        def interrupted_run(slices, work):
            def interrupted(part, scratch):
                if threading.current_thread() is threading.main_thread():
                    raise KeyboardInterrupt
                work(part, scratch)
                finished.append(part)

            shared_run(slices, interrupted)

        monkeypatch.setattr(training._Slices, "run", interrupted_run)
        argv = train_args(data, str(tmp_path / "m.tstm"), str(tmp_path / "r.csv"),
                          d_model=64, ffn_hidden=512)
        code, stdout, err = run(argv, capsys)
        assert (code, stdout, err) == (130, "", "interrupted\n")
        assert finished == [slice(training._ADAM_SLICE, 2 * training._ADAM_SLICE)]
        assert not [t for t in threading.enumerate() if t.name.startswith("tsformer-slices")]
        assert os.listdir(tmp_path) == ["series.csv"]

    def test_bad_column_exits_2_and_names_it(self, tmp_path, capsys):
        data = synth_csv(tmp_path, capsys)
        argv = train_args(data, str(tmp_path / "m.tstm"), str(tmp_path / "r.csv"))
        argv[argv.index("value")] = "balance"
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "balance" in err

    def test_missing_data_flag_exits_1(self, tmp_path, capsys):
        code, _, err = run(["train", "--target", "value"], capsys)
        assert code == 1
        assert "--data" in err

    def test_invalid_head_split_exits_1(self, tmp_path, capsys):
        data = synth_csv(tmp_path, capsys)
        argv = train_args(data, str(tmp_path / "m.tstm"), str(tmp_path / "r.csv"),
                          d_model=30, heads=4)
        code, _, err = run(argv, capsys)
        assert code == 1
        assert "divisible" in err

    def test_unknown_flag_exits_1(self, tmp_path, capsys):
        code, _, _ = run(["train", "--frobnicate"], capsys)
        assert code == 1

    def test_divergence_exits_3(self, tmp_path, capsys):
        data = synth_csv(tmp_path, capsys)
        argv = train_args(data, str(tmp_path / "m.tstm"), str(tmp_path / "r.csv"),
                          optimizer="sgd", lr="1e300", epochs=3)
        code, _, err = run(argv, capsys)
        assert code == 3
        assert "epoch" in err

    def test_missing_output_directory_exits_2_before_training(self, tmp_path, capsys):
        data = synth_csv(tmp_path, capsys)
        out = tmp_path / "m.tstm"
        code, _, err = run(train_args(data, str(out), str(tmp_path / "nodir" / "r.csv")), capsys)
        assert code == 2
        assert err.startswith("data error:") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_artifacts_follow_the_umask(self, tmp_path, capsys):
        data = synth_csv(tmp_path, capsys)
        old = os.umask(0o022)
        try:
            code, _, _ = run(train_args(data, str(tmp_path / "m.tstm"),
                                        str(tmp_path / "r.csv")), capsys)
        finally:
            os.umask(old)
        assert code == 0
        for name in ("m.tstm", "r.csv", "m.tstm.manifest.json"):
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o644, name

    def test_fifo_report_exits_2_and_is_left_in_place(self, tmp_path, capsys):
        data = synth_csv(tmp_path, capsys)
        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        code, _, err = run(train_args(data, str(tmp_path / "m.tstm"), str(fifo)), capsys)
        assert code == 2
        assert err.startswith("data error:") and len(err.splitlines()) == 1
        assert "not a regular file" in err
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        # refused before training: no checkpoint and no manifest
        assert sorted(os.listdir(tmp_path)) == ["report.fifo", "series.csv"]

    @pytest.mark.parametrize("out, report", [
        ("same", "same"),
        ("series.csv", "r.csv"),  # the checkpoint would replace the input
        ("m.tstm", "m.tstm.manifest.json"),
    ])
    def test_colliding_paths_exit_1_and_touch_nothing(self, tmp_path, capsys, out, report):
        data = synth_csv(tmp_path, capsys)
        before = Path(data).read_bytes()
        code, _, err = run(train_args(data, str(tmp_path / out), str(tmp_path / report)), capsys)
        assert code == 1
        assert err.startswith("config error:") and len(err.splitlines()) == 1
        assert "name the same file" in err
        assert os.listdir(tmp_path) == ["series.csv"]
        assert Path(data).read_bytes() == before

    def test_output_linked_to_the_input_exits_1(self, tmp_path, capsys):
        data = synth_csv(tmp_path, capsys)
        link = tmp_path / "link.tstm"
        link.symlink_to(data)
        code, _, err = run(train_args(data, str(link), str(tmp_path / "r.csv")), capsys)
        assert code == 1
        assert err == f"config error: --data and --out name the same file {str(link)!r}\n"

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    def test_empty_output_path_exits_1_and_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                          flag):
        # a temporary file for "" would go to the parent of the working
        # directory, and the rename would fail only after training
        data = synth_csv(tmp_path, capsys)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        argv = train_args(data, "m.tstm", "r.csv")
        argv[argv.index(flag) + 1] = ""
        code, stdout, err = run(argv, capsys)
        assert (code, stdout) == (1, "")
        assert err == f"config error: argument {flag}: must not be empty\n"
        assert os.listdir(work) == []
        assert sorted(os.listdir(tmp_path)) == ["series.csv", "work"]

    def test_train_frac_one_skips_validation(self, tmp_path, capsys):
        data = synth_csv(tmp_path, capsys)
        out = str(tmp_path / "m.tstm")
        report = str(tmp_path / "r.csv")
        code, stdout, _ = run(train_args(data, out, report, train_frac="1.0"), capsys)
        assert code == 0
        assert "val_mse" not in stdout
        body = Path(report).read_text().splitlines()
        assert body[1].split(",")[3] == ""


class TestEval:
    def test_flags_equal_to_the_checkpoint_accepted(self, tmp_path, capsys):
        data = synth_csv(tmp_path, capsys)
        out = str(tmp_path / "m.tstm")
        run(train_args(data, out, str(tmp_path / "r.csv")), capsys)
        _, plain, _ = run(["eval", "--data", data, "--out", out], capsys)
        code, same, _ = run(["eval", "--data", data, "--out", out, "--target", "value",
                             "--features", "value", "--horizon", "1"], capsys)
        assert code == 0
        assert same == plain

    def test_prints_six_significant_digits(self, tmp_path, capsys):
        data = synth_csv(tmp_path, capsys)
        out = str(tmp_path / "m.tstm")
        run(train_args(data, out, str(tmp_path / "r.csv")), capsys)
        code, stdout, _ = run(["eval", "--data", data, "--out", out], capsys)
        assert code == 0
        line = stdout.strip()
        assert line.startswith("mse=") and " mae=" in line
        mse_text = line.split()[0].split("=")[1]
        assert float(mse_text) >= 0

    def test_denorm_rescales(self, tmp_path, capsys):
        data = synth_csv(tmp_path, capsys)
        out = str(tmp_path / "m.tstm")
        run(train_args(data, out, str(tmp_path / "r.csv")), capsys)
        _, plain, _ = run(["eval", "--data", data, "--out", out], capsys)
        _, denorm, _ = run(["eval", "--data", data, "--out", out, "--denorm"], capsys)
        assert plain != denorm

    def test_denorm_without_normalization_exits_1(self, tmp_path, capsys):
        data = synth_csv(tmp_path, capsys)
        argv = ["eval", "--data", data, "--out", bare_checkpoint(tmp_path), "--target", "value"]
        assert run(argv, capsys)[0] == 0
        code, stdout, err = run([*argv, "--denorm"], capsys)
        assert (code, stdout) == (1, "")
        assert err.startswith("config error: --denorm") and len(err.splitlines()) == 1

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        data = synth_csv(tmp_path, capsys)
        code, _, _ = run(["eval", "--data", data, "--out", str(tmp_path / "ghost.tstm")], capsys)
        assert code == 2


class TestPredict:
    def test_zero_checkpoint_prints_zero(self, tmp_path, capsys):
        data = synth_csv(tmp_path, capsys, n=10)
        ckpt = bare_checkpoint(tmp_path)
        code, stdout, _ = run(
            ["predict", "--data", data, "--out", ckpt, "--target", "value"], capsys)
        assert code == 0
        assert stdout.strip() == "0"

    def test_trained_checkpoint_predicts_and_exports_attention(self, tmp_path, capsys):
        data = synth_csv(tmp_path, capsys)
        out = str(tmp_path / "m.tstm")
        run(train_args(data, out, str(tmp_path / "r.csv")), capsys)
        attn_dir = str(tmp_path / "attn")
        code, stdout, _ = run(
            ["predict", "--data", data, "--out", out, "--attn-out", attn_dir], capsys)
        assert code == 0
        float(stdout.strip())  # one parseable value
        files = sorted(os.listdir(attn_dir))
        assert files == ["attention_block0_head0.csv", "attention_block0_head1.csv"]
        header = Path(os.path.join(attn_dir, files[0])).read_text().splitlines()[0]
        assert header == ",".join(f"t{i}" for i in range(8))

    def test_full_weights_are_built_only_for_attn_out(self, tmp_path, capsys, monkeypatch):
        data = synth_csv(tmp_path, capsys)
        out = str(tmp_path / "m.tstm")
        run(train_args(data, out, str(tmp_path / "r.csv")), capsys)
        queries = []  # queries scored per softmax call, all from the one block
        real = autodiff._softmax_rows

        def counting(scores):
            queries.append(scores.shape[2])
            return real(scores)

        monkeypatch.setattr(autodiff, "_softmax_rows", counting)
        assert run(["predict", "--data", data, "--out", out], capsys)[0] == 0
        assert queries == [1]
        queries.clear()
        attn_dir = str(tmp_path / "attn")
        assert run(["predict", "--data", data, "--out", out, "--attn-out", attn_dir],
                   capsys)[0] == 0
        assert queries == [1, 8]

    def test_denorm_rescales_prediction(self, tmp_path, capsys):
        data = synth_csv(tmp_path, capsys, noise=0.3)
        out = str(tmp_path / "m.tstm")
        run(train_args(data, out, str(tmp_path / "r.csv")), capsys)
        _, plain, _ = run(["predict", "--data", data, "--out", out], capsys)
        _, denorm, _ = run(["predict", "--data", data, "--out", out, "--denorm"], capsys)
        assert plain != denorm

    def test_denorm_without_normalization_exits_1(self, tmp_path, capsys):
        data = synth_csv(tmp_path, capsys)
        argv = ["predict", "--data", data, "--out", bare_checkpoint(tmp_path),
                "--target", "value"]
        assert run(argv, capsys)[0] == 0
        code, stdout, err = run([*argv, "--denorm"], capsys)
        assert (code, stdout) == (1, "")
        assert err.startswith("config error: --denorm") and len(err.splitlines()) == 1

    def test_too_few_rows_exits_2(self, tmp_path, capsys):
        data = synth_csv(tmp_path, capsys, n=3)
        ckpt = bare_checkpoint(tmp_path, window_len=8)
        code, _, err = run(
            ["predict", "--data", data, "--out", ckpt, "--target", "value"], capsys)
        assert code == 2
        assert "8" in err


def split_checkpoint(blob):
    """The config lines and the payload bytes of a checkpoint."""
    (block_len,) = struct.unpack_from("<I", blob, 5)
    return blob[9 : 9 + block_len].decode().splitlines(), blob[9 + block_len : -8]


def restamp(lines, payload):
    """A checkpoint of config ``lines`` and ``payload`` under a fresh, valid CRC."""
    block = ("\n".join(lines) + "\n").encode()
    body = b"TSTM\x01" + struct.pack("<I", len(block)) + block + bytes(payload)
    return body + struct.pack("<Q", crc64(body))


def with_line(lines, key, value):
    """Config ``lines`` with the ``key=`` line set to ``value`` (or dropped
    when ``value`` is None)."""
    lines = [line for line in lines if not line.startswith(f"{key}=")]
    return lines if value is None else [*lines, f"{key}={value}"]


def rewrite_config(src, dst, key, value):
    """Copy a checkpoint with the ``key=`` config line set to ``value`` (or
    dropped when ``value`` is None), under a fresh, valid CRC."""
    lines, payload = split_checkpoint(Path(src).read_bytes())
    Path(dst).write_bytes(restamp(with_line(lines, key, value), payload))


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A series and a checkpoint trained on it, with pipeline metadata."""
    tmp = tmp_path_factory.mktemp("crafted")
    data = str(tmp / "series.csv")
    out = str(tmp / "m.tstm")
    assert main(["synth", "--n", "60", "--seed", "5", "--out", data]) == 0
    assert main(train_args(data, out, str(tmp / "r.csv"))) == 0
    return data, out


class TestCraftedCheckpoint:
    """Files whose CRC is valid but whose contents are not exit 2."""

    def test_rewritten_valid_checkpoint_still_loads(self, trained, tmp_path, capsys):
        data, out = trained
        crafted = str(tmp_path / "same.tstm")
        rewrite_config(out, crafted, "seed", "3")
        code, _, err = run(["eval", "--data", data, "--out", crafted], capsys)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("key,value", [
        ("window_len", "abc"),
        ("n_heads", "0"),
        ("use_residual", "2"),
        ("norm.means", '[x"'),
        ("norm.stds", '["1", "2"]'),
        ("norm.stds", '["0"]'),
        ("norm.means", '["nan"]'),
        ("norm.columns", '["other"]'),
        ("norm.columns", None),
        ("pipeline.features", '["value", "extra"]'),
        ("pipeline.target", "5"),
        ("pipeline.horizon", "0"),
        ("n_blocks", "100000000000000000000"),  # past the address space
    ])
    def test_bad_contents_exit_2(self, trained, tmp_path, capsys, key, value):
        data, out = trained
        crafted = str(tmp_path / "crafted.tstm")
        rewrite_config(out, crafted, key, value)
        for command in ("eval", "predict"):
            code, _, err = run([command, "--data", data, "--out", crafted], capsys)
            assert code == 2
            assert err.startswith("data error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("edit, message", [
        (lambda lines, payload: (lines + ["no separator"], payload),
         "config line 16 is not key=value: 'no separator'"),
        (lambda lines, payload: (lines, payload + b"\0\0\0"),
         "3 unexpected trailing parameter bytes"),
        (lambda lines, payload: (with_line(lines, "norm.means", '["x"]'), payload),
         "norm.means: could not convert string to float: 'x'"),
        (lambda lines, payload: (with_line(lines, "norm.stds", '["1e"]'), payload),
         "norm.stds: could not convert string to float: '1e'"),
    ], ids=["line-without-equals", "stray-bytes", "mean-not-a-number", "std-not-a-number"])
    def test_contents_past_the_checksum_rejected(self, trained, tmp_path, capsys, edit,
                                                 message):
        data, out = trained
        crafted = tmp_path / "crafted.tstm"
        crafted.write_bytes(restamp(*edit(*split_checkpoint(Path(out).read_bytes()))))
        with pytest.raises(CheckpointFormatError, match=message):
            _, config, extra = load_params(str(crafted))
            cli_mod._pipeline_from_extra(extra, config)
        for command in ("eval", "predict"):
            code, stdout, err = run([command, "--data", data, "--out", str(crafted)], capsys)
            assert (code, stdout) == (2, "")
            assert err.startswith("data error:") and len(err.splitlines()) == 1
            assert re.search(message, err)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_exits_2(self, trained, tmp_path, capsys, value):
        data, out = trained
        blob = bytearray(Path(out).read_bytes())
        (block_len,) = struct.unpack_from("<I", blob, 5)
        struct.pack_into("<d", blob, 9 + block_len, value)  # w_e[0, 0]
        struct.pack_into("<Q", blob, len(blob) - 8, crc64(bytes(blob[:-8])))
        crafted = tmp_path / "non_finite.tstm"
        crafted.write_bytes(blob)
        for command in ("eval", "predict"):
            code, stdout, err = run([command, "--data", data, "--out", str(crafted)], capsys)
            assert (code, stdout) == (2, "")
            assert err == "data error: parameter w_e holds non-finite values\n"

    def test_config_larger_than_payload_exits_2_after_bounded_work(
        self, trained, tmp_path, capsys, monkeypatch
    ):
        # A valid CRC over a config needing far more parameters than the
        # file holds: the loader must stop at the first one that does not
        # fit, not walk a billion blocks.
        data, out = trained
        crafted = str(tmp_path / "huge.tstm")
        rewrite_config(out, crafted, "n_blocks", "1000000000")
        drawn = []
        shapes = model_mod._param_shapes

        def counted(config):
            for item in shapes(config):
                drawn.append(item)
                yield item

        monkeypatch.setattr(model_mod, "_param_shapes", counted)
        for command in ("eval", "predict"):
            drawn.clear()
            code, _, err = run([command, "--data", data, "--out", crafted], capsys)
            assert code == 2
            assert err.startswith("data error:") and len(err.splitlines()) == 1
            assert 0 < len(drawn) <= os.path.getsize(crafted) // 8


# Spellings for a config value, a pipeline JSON value and a parameter.
_CONFIG_TEXT = st.sampled_from(["-1", "0", "1", "2", "3", "4", "8", "16", "99999999999999999999",
                                "\u0663", "1_0", "", "x", " 2", "2.0", "0x8", "+8", "1e3"])
_JSON_TEXT = st.sampled_from([
    '"value"', '["value"]', "[]", "1", "0", "-1", "3", "99999999999999999999", "null",
    '["1e308"]', '["-0"]', '["5e-324"]', '["nan"]', '["inf"]', '["1", "2"]', "[",
    '{"a": 1}', '"\\ud800"', "[" * 5000 + "]" * 5000, "1e999", "true",
])
_PARAM_VALUES = st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308, 1e154, 5e-324, 0.0])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_fuzzed_checkpoint_contents_exit_with_a_documented_code(trained, data):
    """Config lines, pipeline JSON and parameters edited past a restamped
    CRC: eval and predict each exit 0-3 with at most one stderr line, and
    write nothing."""
    series, checkpoint = trained
    lines, payload = split_checkpoint(Path(checkpoint).read_bytes())
    payload = bytearray(payload)
    for _ in range(data.draw(st.integers(0, 3), label="config edits")):
        i = data.draw(st.integers(0, len(lines) - 1))
        key = lines[i].partition("=")[0]
        action = data.draw(st.sampled_from(["set", "drop", "repeat"]))
        if action == "set":
            json_value = key.startswith(("pipeline.", "norm."))
            lines[i] = f"{key}={data.draw(_JSON_TEXT if json_value else _CONFIG_TEXT)}"
        elif action == "drop" and len(lines) > 1:
            del lines[i]
        else:
            lines.append(lines[i])
    for _ in range(data.draw(st.integers(0, 2), label="parameter edits")):
        i = data.draw(st.integers(0, len(payload) // 8 - 1))
        struct.pack_into("<d", payload, 8 * i, data.draw(_PARAM_VALUES))
    folder = os.path.dirname(checkpoint)
    crafted = os.path.join(folder, "fuzzed.tstm")
    Path(crafted).write_bytes(restamp(lines, payload))
    before = sorted(os.listdir(folder)), sorted(os.listdir("."))
    for command in ("eval", "predict"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--data", series, "--out", crafted])
        assert code in (0, 1, 2, 3), (command, lines)
        assert len(err.getvalue().splitlines()) <= 1 and "Traceback" not in err.getvalue()
        assert (sorted(os.listdir(folder)), sorted(os.listdir("."))) == before


class TestGradcheck:
    def test_default_config_passes(self, capsys):
        code, stdout, _ = run(["gradcheck"], capsys)
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[-1].startswith("gradcheck PASS")
        for line in lines[:-1]:
            err = float(line.split("max_rel_err=")[1])
            assert err < 1e-5

    def test_width_one_model_is_checked_off_the_relu_kink(self, capsys):
        # at init a width-1 LayerNorm outputs exactly its zero bias, so every
        # FFN input would sit on the ReLU kink; the check perturbs the biases
        # and the LayerNorm affine first
        code, stdout, _ = run(["gradcheck", "--d-model", "1", "--heads", "1",
                               "--ffn-hidden", "4"], capsys)
        assert code == 0
        assert stdout.strip().splitlines()[-1].startswith("gradcheck PASS")


def subparsers(parser):
    return next(a for a in parser._actions if a.dest == "command").choices


# One argv per subcommand, setting flags of each kind it has.
_SAMPLE_ARGV = {
    "train": ["train", "--data", "s.csv", "--target", "value", "--horizon", "2",
              "--window", "8", "--residual", "--lr", "0.01", "--grad-clip", "1",
              "--optimizer", "sgd", "--no-pe"],
    "eval": ["eval", "--data", "s.csv", "--features", "a,b", "--horizon", "3", "--denorm"],
    "predict": ["predict", "--data", "s.csv", "--out", "m.tstm", "--attn-out", "attn"],
    "gradcheck": ["gradcheck", "--blocks", "2", "--no-pe", "--input-dim", "2"],
    "synth": ["synth", "--kind", "ar1", "--n", "30", "--coeff", "0.5", "--seed", "7"],
}


class TestProcessState:
    """Commands run as library calls change no process-wide state: not the
    umask, the warnings filters or the logging configuration."""

    def test_commands_run_with_every_process_wide_setter_refused(self, tmp_path, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("process-wide state changed")

        data, out = str(tmp_path / "series.csv"), str(tmp_path / "m.tstm")
        header_only, blank_first = tmp_path / "header.csv", tmp_path / "blank.csv"
        header_only.write_text("value\n")
        blank_first.write_text("value\n\n1\n")
        errors = []
        with contextlib.ExitStack() as stack:
            for module, name in ((os, "umask"), (warnings, "catch_warnings"),
                                 (warnings, "simplefilter"), (logging, "basicConfig")):
                stack.enter_context(mock.patch.object(module, name, refuse))
            codes = [main(argv) for argv in (
                ["synth", "--n", "60", "--seed", "5", "--out", data],
                train_args(data, out, str(tmp_path / "r.csv")),
                ["eval", "--data", data, "--out", out],
                ["predict", "--data", data, "--out", out, "--attn-out", str(tmp_path / "a")],
            )]
            for path in (header_only, blank_first):
                with pytest.raises(DataError) as caught:
                    load_csv(str(path), target="value")
                errors.append(str(caught.value))
        assert codes == [0, 0, 0, 0]
        assert capsys.readouterr().err == ""
        assert errors == [f"{header_only}: no data rows after the header",
                          f"{blank_first}: row 2 has 0 cells, expected 1"]

    def test_main_installs_no_log_handler(self, tmp_path):
        # TST_LOG is read by the tsformer command alone; a caller of main
        # configures logging itself
        script = ("import logging, sys\n"
                  "from tsformer.cli import main\n"
                  "data, out, report = sys.argv[1:]\n"
                  "codes = [main(['synth', '--n', '60', '--out', data]),\n"
                  "         main(['train', '--data', data, '--target', 'value', '--window', '8',\n"
                  "               '--epochs', '1', '--out', out, '--report', report])]\n"
                  "print(codes, logging.getLogger().handlers)\n")
        done = run_python(["-c", script, *(str(tmp_path / name) for name in
                                           ("s.csv", "m.tstm", "r.csv"))], TST_LOG="info")
        assert done.stdout.splitlines()[-1] == "[0, 0] []"
        assert done.stderr == ""


# One usage error per subcommand, in a flag of its own.
_USAGE_ERRORS = {
    "train": ["train", "--epochs", "x"],
    "eval": ["eval", "--horizon", "0"],
    "predict": ["predict", "--bogus", "1"],
    "gradcheck": ["gradcheck", "--seed", "-1"],
    "synth": ["synth", "--kind", "walk"],
}


class TestParser:
    @pytest.mark.parametrize("command", sorted(_SAMPLE_ARGV))
    def test_one_subcommand_parses_as_in_the_full_parser(self, monkeypatch, command):
        parsed = []
        help_line, add_flags, _ = cli_mod._COMMANDS[command]
        monkeypatch.setitem(cli_mod._COMMANDS, command,
                            (help_line, add_flags, lambda args: parsed.append(args) or 0))
        assert main(_SAMPLE_ARGV[command]) == 0
        assert parsed == [build_parser().parse_args(_SAMPLE_ARGV[command])]

    @pytest.mark.parametrize("command", sorted(_USAGE_ERRORS))
    def test_help_and_usage_error_match_the_full_parser(self, capsys, command):
        # main parses a named command with its own parser alone
        with pytest.raises(SystemExit) as done:
            main([command, "-h"])
        assert done.value.code == 0
        help_text = capsys.readouterr().out
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "-h"])
        assert help_text == capsys.readouterr().out
        assert help_text.startswith(f"usage: tsformer {command} ")
        code, out, err = run(_USAGE_ERRORS[command], capsys)
        with pytest.raises(ConfigError) as full:
            build_parser().parse_args(_USAGE_ERRORS[command])
        assert (code, out, err) == (1, "", f"config error: {full.value}\n")

    def test_full_parser_lists_every_subcommand_in_order(self):
        assert list(subparsers(build_parser())) == ["train", "eval", "predict", "gradcheck",
                                                    "synth"]

    @pytest.mark.parametrize("argv,built", [
        (["synth", "--n", "5", "--out", "{tmp}/s.csv"], 1),
        (["predict", "--bogus", "1"], 1),
        (["bogus"], 5),
        (["pred"], 5),
        ([""], 5),
        (["--data", "predict"], 5),
        ([], 5),
    ])
    def test_main_builds_only_the_named_subparser(self, monkeypatch, tmp_path, argv, built):
        # a named command's flags are built alone, in a parser of their
        # own; anything else builds the full parser's five subparsers
        flag_sets, subparser_calls = [], []
        for name, (help_line, add_flags, handler) in list(cli_mod._COMMANDS.items()):
            def counting_add_flags(parser, name=name, add_flags=add_flags):
                flag_sets.append(name)
                add_flags(parser)
            monkeypatch.setitem(cli_mod._COMMANDS, name, (help_line, counting_add_flags, handler))
        add_parser = argparse._SubParsersAction.add_parser

        def counting_add_parser(self, name, **kwargs):
            subparser_calls.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting_add_parser)
        main([arg.format(tmp=tmp_path) for arg in argv])
        assert len(flag_sets) == built
        assert len(subparser_calls) == (0 if built == 1 else 5)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A one-column series, a two-column series, a trained checkpoint, a
    bare checkpoint with input_dim=1 and no pipeline metadata, and a path
    that does not exist."""
    tmp = tmp_path_factory.mktemp("inputs")
    paths = {"series": str(tmp / "series.csv"), "two": str(tmp / "two.csv"),
             "trained": str(tmp / "trained.tstm"), "bare": bare_checkpoint(tmp),
             "missing": str(tmp / "missing.csv")}
    assert main(["synth", "--n", "40", "--seed", "5", "--out", paths["series"]]) == 0
    rows = [f"{np.sin(i / 3.0):.6f},{i % 5}" for i in range(12)]
    with open(paths["two"], "w") as fh:
        fh.write("\n".join(["value,other", *rows]) + "\n")
    paths["latin1"] = str(tmp / "latin1.csv")  # not UTF-8
    Path(paths["latin1"]).write_bytes("value\n1\n2\nw\xe4hrung\n".encode("latin-1"))
    paths["wide"] = str(tmp / "wide.csv")  # a field over the csv module's limit
    Path(paths["wide"]).write_text("value\n" + "1" * 200_000 + "\n")
    assert main(train_args(paths["series"], paths["trained"], str(tmp / "r.csv"),
                           window=4, d_model=8, ffn_hidden=8, epochs=1)) == 0
    paths["tmp"] = str(tmp)
    return paths


class TestExitCodes:
    @pytest.mark.parametrize("argv,expected", [
        (["train", "--data", "{series}", "--target", "value", "--seed", "-1"], 1),
        (["synth", "--noise", "0.1", "--seed", "-1", "--out", "{tmp}/s.csv"], 1),
        (["gradcheck", "--seed", "-1"], 1),
        # flags are validated before the data file is opened
        (["train", "--data", "{missing}", "--target", "value", "--horizon", "0"], 1),
        (["train", "--data", "{missing}", "--target", "value", "--window", "0"], 1),
        (["train", "--data", "{missing}", "--target", "value", "--train-frac", "0"], 1),
        (["train", "--data", "{missing}", "--target", "value", "--train-frac", "5"], 1),
        (["train", "--data", "{missing}", "--target", "value", "--train-frac", "1"], 2),
        # a flag the subcommand does not read is a usage error
        (["synth", "--epochs", "7", "--out", "{tmp}/s.csv"], 1),
        (["eval", "--data", "{series}", "--out", "{trained}",
          "--epochs", "99", "--d-model", "7"], 1),
        (["predict", "--data", "{series}", "--out", "{trained}", "--horizon", "2"], 1),
        (["gradcheck", "--data", "{series}"], 1),
        # the CSV's feature count differs from the checkpoint's input_dim
        (["eval", "--data", "{two}", "--out", "{bare}", "--target", "value"], 2),
        (["predict", "--data", "{two}", "--out", "{bare}", "--target", "value"], 2),
        # a flag that contradicts the checkpoint's pipeline metadata
        (["eval", "--data", "{series}", "--out", "{trained}", "--horizon", "3"], 1),
        (["eval", "--data", "{series}", "--out", "{trained}", "--target", "nope"], 1),
        (["eval", "--data", "{series}", "--out", "{trained}", "--features", "zzz"], 1),
        (["predict", "--data", "{series}", "--out", "{trained}", "--target", "nope"], 1),
        (["predict", "--data", "{two}", "--out", "{trained}", "--features", "value,other"], 1),
        # NaN fails every range check; synth's are on its flags, so exit 1
        (["synth", "--period", "nan", "--out", "{tmp}/s.csv"], 1),
        (["synth", "--kind", "ar1", "--coeff", "nan", "--out", "{tmp}/s.csv"], 1),
        (["synth", "--noise", "nan", "--out", "{tmp}/s.csv"], 1),
        (["train", "--data", "{missing}", "--target", "value", "--lr", "nan"], 1),
        (["train", "--data", "{missing}", "--target", "value", "--grad-clip", "nan"], 1),
        # so does infinity
        (["train", "--data", "{missing}", "--target", "value", "--lr", "inf"], 1),
        (["synth", "--period", "inf", "--out", "{tmp}/s.csv"], 1),
        (["synth", "--noise", "inf", "--out", "{tmp}/s.csv"], 1),
        (["synth", "--kind", "ar1", "--noise", "inf", "--out", "{tmp}/s.csv"], 1),
        # CSV text that is not UTF-8, or holds an oversized field
        (["train", "--data", "{latin1}", "--target", "value"], 2),
        (["eval", "--data", "{latin1}", "--out", "{trained}"], 2),
        (["predict", "--data", "{wide}", "--out", "{trained}"], 2),
        (["train", "--data", "{wide}", "--target", "value"], 2),
        # overflow is one numeric failure line, with no numpy warning before it
        (["train", "--data", "{series}", "--target", "value", "--window", "4",
          "--optimizer", "sgd", "--lr", "10", "--out", "{tmp}/m.tstm",
          "--report", "{tmp}/r.csv"], 3),
        # a finite loss far above the first batch's is divergence
        (["train", "--data", "{series}", "--target", "value", "--window", "4",
          "--epochs", "2", "--lr", "10", "--out", "{tmp}/m.tstm",
          "--report", "{tmp}/r.csv"], 3),
        (["train", "--data", "{series}", "--target", "value", "--window", "4",
          "--epochs", "2", "--lr", "1e10", "--out", "{tmp}/m.tstm",
          "--report", "{tmp}/r.csv"], 3),
        # a missing output directory is found before training
        (["train", "--data", "{series}", "--target", "value", "--out", "{tmp}/nodir/m.tstm"], 2),
        # a negative seed is rejected by the parser, before the data file is opened
        (["train", "--data", "{missing}", "--target", "value", "--seed", "-1"], 1),
        # an empty output path names no file, and is refused by the parser
        (["train", "--data", "{series}", "--target", "value", "--out", ""], 1),
        (["train", "--data", "{series}", "--target", "value", "--report", ""], 1),
        (["predict", "--data", "{series}", "--out", "{trained}", "--attn-out", ""], 1),
        (["synth", "--out", ""], 1),
        # an empty --features names no column; unrefused, it would mean all
        # of them. Refused by the parser, before any file is opened
        (["train", "--data", "{missing}", "--target", "value", "--features", ""], 1),
        (["eval", "--data", "{missing}", "--out", "{missing}", "--features", ""], 1),
        (["predict", "--data", "{missing}", "--out", "{missing}", "--features", ""], 1),
        # train has no --timing: epoch times go to the log (TST_LOG=info)
        (["train", "--data", "{series}", "--target", "value", "--timing",
          "--out", "{tmp}/m.tstm", "--report", "{tmp}/r.csv"], 1),
        # synth's finite flag values out of range are configuration errors too
        (["synth", "--n", "0", "--out", "{tmp}/s.csv"], 1),
        (["synth", "--kind", "ar1", "--coeff", "1", "--out", "{tmp}/s.csv"], 1),
        # 2.84 PiB of parameters, which numpy refuses before allocating any
        (["gradcheck", "--d-model", "10000000", "--heads", "1", "--ffn-hidden", "4"], 1),
        (["train", "--data", "{series}", "--target", "value", "--d-model", "10000000",
          "--heads", "1", "--ffn-hidden", "4", "--out", "{tmp}/m.tstm",
          "--report", "{tmp}/r.csv"], 1),
        # sizes past the address space, which the model config refuses in
        # closed form, before any array or per-block walk
        (["gradcheck", "--d-model", "1000000000", "--heads", "1", "--ffn-hidden", "4"], 1),
        (["gradcheck", "--ffn-hidden", "100000000000000000000"], 1),
        (["gradcheck", "--window", "100000000000000000000"], 1),
        (["gradcheck", "--input-dim", "100000000000000000000"], 1),
        (["gradcheck", "--blocks", "100000000000000000000"], 1),
        (["train", "--data", "{series}", "--target", "value", "--d-model",
          "100000000000000000000", "--out", "{tmp}/m.tstm", "--report", "{tmp}/r.csv"], 1),
        # so does an empty name inside the list
        (["train", "--data", "{series}", "--target", "value", "--features", ",",
          "--out", "{tmp}/m.tstm", "--report", "{tmp}/r.csv"], 1),
        (["eval", "--data", "{series}", "--out", "{bare}", "--target", "value",
          "--features", "value,"], 1),
        (["predict", "--data", "{series}", "--out", "{bare}", "--target", "value",
          "--features", ",value"], 1),
    ])
    def test_exit_code_and_one_line_message(self, inputs, capsys, argv, expected):
        code, _, err = run([arg.format_map(inputs) for arg in argv], capsys)
        assert code == expected
        assert err.startswith(
            {1: "config error:", 2: "data error:", 3: "numeric failure:"}[expected]
        )
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("name", ["basic_format", "nonsense"])
    def test_log_name_that_is_not_a_level_means_warning(self, tmp_path, name):
        # logging.BASIC_FORMAT is a format string, not a level
        path = tmp_path / "s.csv"
        done = run_process(["synth", "--n", "30", "--out", str(path)], TST_LOG=name)
        assert done.stderr == ""
        assert done.stdout == f"wrote 30 rows to {path}\n"


# Small values for every flag, valid and not; a command draws from its own.
_INTS = st.integers(-1, 6).map(str)
_FLAG_VALUES = {
    "--window": _INTS,
    "--horizon": st.integers(-1, 3).map(str),
    "--d-model": st.integers(-1, 8).map(str),
    "--heads": st.integers(-1, 3).map(str),
    "--blocks": st.integers(-1, 2).map(str),
    "--ffn-hidden": st.integers(-1, 8).map(str),
    "--seed": st.integers(-2, 5).map(str),
    "--epochs": st.integers(-1, 2).map(str),
    "--batch": _INTS,
    "--lr": st.sampled_from(["0", "-1", "1e-3", "10", "1e300", "nan", "x"]),
    "--optimizer": st.sampled_from(["adam", "sgd", "rmsprop"]),
    "--train-frac": st.sampled_from(["0", "0.5", "0.9", "1", "5", "-0.5", "nan"]),
    "--grad-clip": st.sampled_from(["0", "-1", "1e-6", "1"]),
    "--target": st.sampled_from(["value", "other", "nope"]),
    "--features": st.sampled_from(["value", "value,other", "other", "nope", ","]),
    "--input-dim": st.integers(-1, 3).map(str),
    "--kind": st.sampled_from(["sine", "ar1", "walk"]),
    "--n": st.integers(-1, 30).map(str),
    "--period": st.sampled_from(["0", "-3", "4", "40"]),
    "--noise": st.sampled_from(["0", "0.5", "-1"]),
    "--coeff": st.sampled_from(["0.5", "1", "-0.9"]),
}
_ARCH = ["--window", "--d-model", "--heads", "--blocks", "--ffn-hidden", "--seed"]
_COMMAND_FLAGS = {
    "train": ["--target", "--features", "--horizon", *_ARCH, "--epochs", "--batch", "--lr",
              "--optimizer", "--train-frac", "--grad-clip"],
    "eval": ["--features", "--horizon"],
    "predict": ["--features"],
    "gradcheck": [*_ARCH, "--input-dim"],
    "synth": ["--kind", "--n", "--period", "--noise", "--coeff", "--seed"],
}


# A leading token that names no subcommand sends main to the full parser.
_NOT_COMMANDS = ["", "bogus", "pred", "--data"]


@st.composite
def _argv(draw, inputs):
    lead = draw(st.none() | st.sampled_from(_NOT_COMMANDS))
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    argv = [command] if lead is None else [lead, command]
    for flag in draw(st.lists(st.sampled_from(_COMMAND_FLAGS[command]), max_size=5, unique=True)):
        argv += [flag, draw(_FLAG_VALUES[flag])]
    csv = st.sampled_from([inputs["series"], inputs["two"], inputs["missing"]])
    if command == "train":
        argv += ["--data", draw(csv), "--out", f"{inputs['tmp']}/fuzz.tstm",
                 "--report", f"{inputs['tmp']}/fuzz.csv"]
    elif command in ("eval", "predict"):
        ckpt = st.sampled_from([inputs["trained"], inputs["bare"]])
        argv += ["--data", draw(csv), "--out", draw(ckpt),
                 "--target", draw(_FLAG_VALUES["--target"])]
    elif command == "synth":
        argv += ["--out", f"{inputs['tmp']}/fuzz_synth.csv"]
    return argv


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_exits_with_a_documented_code(inputs, data):
    argv = data.draw(_argv(inputs))
    code = main(argv)
    assert code in (0, 1, 2, 3), argv
    if argv[0] not in _COMMAND_FLAGS:
        assert code == 1, argv
