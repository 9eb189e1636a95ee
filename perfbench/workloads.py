"""The workloads: their inputs, their command loop and their checks.

Every workload is a closed loop with one client: the benchmark calls
``tsformer.cli.main(argv)`` in-process, one command at a time, each started
only after the previous one returned. Inputs are CSVs generated from the
workload seed; the program sees only those files.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import math
import os
import re
import resource
import time

import numpy as np

import reference

WINDOW = 16
BATCH = 16
TRAIN_FRAC = 0.8
DEFAULT_ARCH: list[str] = []  # the CLI defaults: d32, 2 heads, FFN 128, 1 block
LARGE_ARCH = ["--d-model", "256", "--heads", "8", "--ffn-hidden", "1024", "--blocks", "1"]

_TRAIN_LINE = re.compile(
    r"train_mse=(\S+) train_mae=(\S+)(?: val_mse=(\S+) val_mae=(\S+))?\s*$")
_EVAL_LINE = re.compile(r"mse=(\S+) mae=(\S+)\s*$")


def make_series(rng: np.random.Generator, rows: int, features: int) -> np.ndarray:
    """Noisy sinusoids with seed-drawn periods, phases and amplitudes."""
    t = np.arange(rows, dtype=np.float64)[:, None]
    period = rng.uniform(12.0, 60.0, features)
    phase = rng.uniform(0.0, 2.0 * np.pi, features)
    amp = rng.uniform(0.5, 2.0, features)
    return amp * np.sin(2.0 * np.pi * t / period + phase) + 0.1 * rng.standard_normal((rows, features))


def write_csv(path: str, rows: np.ndarray) -> list[str]:
    header = [f"x{j}" for j in range(rows.shape[1])]
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=",".join(header), comments="")
    return header


def window_count(rows: int) -> int:
    return rows - WINDOW  # stride-1 windows with horizon 1


def train_split(rows: int) -> tuple[int, int]:
    count = window_count(rows)
    k = int(count * TRAIN_FRAC)
    return k, count - k


def _sha256(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:  # the check then fails on the same missing file
        return f"unreadable: {exc}"


class Session:
    """Runs CLI commands, times them, and checks what they print and write.

    One command is one operation. It fails when it exits non-zero or raises,
    when its output differs from the first command of its kind in the run
    (every command here is deterministic), or when its output disagrees with
    the independent reference.
    """

    def __init__(self, cli, workdir: str):
        self.cli = cli
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.seconds: dict[str, list[float]] = {}
        self._first: dict[str, tuple] = {}
        self._verdicts: dict[tuple, list[str]] = {}
        self.peak_rss_mb = 0.0

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def command(self, kind: str, argv: list[str]):
        """Run one command; returns its stdout, or None when it failed."""
        out, err = io.StringIO(), io.StringIO()
        gc.collect()  # start from a clean heap, as a fresh process would
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = self.cli.main(argv)
        except Exception as exc:  # an escaped traceback is a failed operation
            status = f"uncaught {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.attempted += 1
        self.seconds.setdefault(kind, []).append(elapsed)
        if status != 0:
            self.failures.append(f"{kind}: exit {status} {err.getvalue().strip()[:200]}")
            return None
        return out.getvalue()

    def verify(self, kind: str, signature: tuple, check) -> None:
        """Record a failure unless ``signature`` (everything the command
        printed or wrote) equals the first of its kind and passes ``check``,
        which is evaluated once per distinct signature."""
        problems = []
        first = self._first.setdefault(kind, signature)
        if signature != first:
            problems.append("output differs from the first run of this command")
        if signature not in self._verdicts:
            try:
                self._verdicts[signature] = check()
            except Exception as exc:  # output the check cannot read is wrong output
                self._verdicts[signature] = [f"unreadable output: {type(exc).__name__}: {exc}"]
        problems += self._verdicts[signature]
        if problems:
            self.failures.append(f"{kind}: {'; '.join(problems)}")

    def record_peak_rss(self) -> None:
        """Keep the process's peak RSS so far.

        Read after the first cycles, so the figure does not depend on how
        many cycles a slow or fast host fits in the run: heap fragmentation
        grows the peak by up to 20 MB over further cycles, which a user
        running one command per process never sees.
        """
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    @property
    def failed(self) -> int:
        return len(self.failures)

    # -- commands shared by the workloads ----------------------------------

    def train(self, data: str, header: list[str], rows: np.ndarray, epochs: int,
              arch: list[str], seed: int, out: str) -> None:
        report = out + ".report.csv"
        argv = ["train", "--data", data, "--target", header[0], "--window", str(WINDOW),
                "--epochs", str(epochs), "--batch", str(BATCH), "--optimizer", "adam",
                "--grad-clip", "1.0", "--seed", str(seed), "--out", out,
                "--report", report, "--train-frac", str(TRAIN_FRAC), *arch]
        printed = self.command("train", argv)
        if printed is None:
            return

        def check() -> list[str]:
            problems = []
            with open(report, newline="", encoding="utf-8") as fh:
                mses = [float(r["train_mse"]) for r in csv.DictReader(fh)]
            if len(mses) != epochs:
                problems.append(f"report has {len(mses)} epochs, expected {epochs}")
            elif epochs > 1 and not mses[-1] < mses[0]:
                problems.append(f"train_mse did not fall: {mses[0]} -> {mses[-1]}")
            match = _TRAIN_LINE.search(printed)
            if match is None:
                return problems + [f"unparsable train output {printed!r}"]
            with open(out, "rb") as fh:
                ck = reference.Checkpoint(fh.read())
            k, _ = train_split(rows.shape[0])
            want_mse, want_mae = reference.window_metrics(ck, header, rows, first=k)
            got_mse, got_mae = float(match.group(3)), float(match.group(4))
            if not (reference.close(got_mse, want_mse) and reference.close(got_mae, want_mae)):
                problems.append(f"val_mse/val_mae {got_mse}/{got_mae}, "
                                f"reference {want_mse:.9g}/{want_mae:.9g}")
            return problems

        self.verify("train", (printed, _sha256(out)), check)

    def evaluate(self, data: str, header: list[str], rows: np.ndarray, model: str) -> None:
        printed = self.command("eval", ["eval", "--data", data, "--out", model])
        if printed is None:
            return

        def check() -> list[str]:
            match = _EVAL_LINE.search(printed)
            if match is None:
                return [f"unparsable eval output {printed!r}"]
            with open(model, "rb") as fh:
                ck = reference.Checkpoint(fh.read())
            want_mse, want_mae = reference.window_metrics(ck, header, rows)
            got_mse, got_mae = float(match.group(1)), float(match.group(2))
            if reference.close(got_mse, want_mse) and reference.close(got_mae, want_mae):
                return []
            return [f"mse/mae {got_mse}/{got_mae}, reference {want_mse:.9g}/{want_mae:.9g}"]

        self.verify("eval", (printed, _sha256(model)), check)

    def predict(self, data: str, header: list[str], rows: np.ndarray, model: str) -> None:
        printed = self.command("predict", ["predict", "--data", data, "--out", model])
        if printed is None:
            return

        def check() -> list[str]:
            with open(model, "rb") as fh:
                ck = reference.Checkpoint(fh.read())
            want = reference.last_window_prediction(ck, header, rows)
            got = float(printed)
            return [] if reference.close(got, want) else [f"prediction {got}, reference {want:.9g}"]

        self.verify("predict", (printed,), check)


class Workload:
    """One workload: its series and model, set-up, and one command cycle.

    Every workload runs the same cycle, so every end-to-end metric is
    measured on each of them: ``train`` (80/20 split), which writes the
    checkpoint, then ``evals`` runs of ``eval`` of that checkpoint over the
    whole series, then ``predicts`` runs of ``predict`` on the last 64 rows.
    The sizes set which layers dominate. A command far shorter than the
    workload's main one is repeated within the cycle, so that a run holds
    enough samples of it for a steady figure on a noisy host.

    ``per_cycle`` counts, for one cycle, the windows through the taped
    forward (``taped``) and the plain forward (``plain``) and the optimizer
    steps (``batches``). The per-layer metrics divide by these, so they stay
    per window when a later change batches the work.
    """

    name = ""
    rows = features = epochs = evals = predicts = 0
    arch: list[str] = DEFAULT_ARCH
    predict_rows = 64
    min_cycles = 2  # a repeat is needed for the determinism check

    def __init__(self, seed: int):
        self.seed = seed
        self.train_windows, val = train_split(self.rows)
        self.eval_windows = window_count(self.rows)
        self.per_cycle = {
            "taped": self.epochs * self.train_windows,
            "plain": self.epochs * val + self.evals * self.eval_windows + self.predicts,
            "batches": self.epochs * math.ceil(self.train_windows / BATCH),
        }

    def setup(self, session: Session) -> None:
        self.series = make_series(np.random.default_rng(self.seed), self.rows, self.features)
        self.header = write_csv(session.path("series.csv"), self.series)
        self.recent = self.series[-self.predict_rows :]
        write_csv(session.path("predict.csv"), self.recent)

    def cycle(self, session: Session) -> None:
        data, model = session.path("series.csv"), session.path("model.tstm")
        session.train(data, self.header, self.series, self.epochs, self.arch, self.seed, model)
        for _ in range(self.evals):
            session.evaluate(data, self.header, self.series, model)
        for _ in range(self.predicts):
            session.predict(session.path("predict.csv"), self.header, self.recent, model)

    def end_to_end(self, session: Session) -> dict[str, tuple[float, str]]:
        """Throughputs are all windows over all command time in the run,
        and the typical ``predict`` latency is the mean.

        Not the median command: a shared host can switch between a fast and
        a slow state every few seconds (about 30% apart on the 2-vCPU VM
        the benchmark was sized on). The median of a run's short commands
        then lands in one state or the other and jumps between runs, while
        totals and means follow the share of time spent in each. The p90
        lies in the slow state in every run, so it stays steady.
        """
        seconds = session.seconds
        ms = 1e3 * np.asarray(seconds["predict"])
        return {
            "train_windows_per_s": (
                self.epochs * self.train_windows * len(seconds["train"]) / sum(seconds["train"]),
                "1/s"),
            "eval_windows_per_s": (
                self.eval_windows * len(seconds["eval"]) / sum(seconds["eval"]), "1/s"),
            "predict_ms_mean": (float(ms.mean()), "ms"),
            "predict_ms_p90": (float(np.percentile(ms, 90)), "ms"),
        }


class DefaultTrain(Workload):
    """Default model, 6 epochs on ~790 windows: the taped path dominates
    ``train``; ``eval`` and ``predict`` run the plain forward and read the
    checkpoint."""

    name = "default-train"
    rows, features, epochs, evals, predicts = 1000, 4, 6, 4, 50


class LargeRoundtrip(Workload):
    """Large model, 1 epoch: GEMMs, and CRC of its checkpoint on every save and load."""

    name = "large-roundtrip"
    rows, features, epochs, evals, predicts = 160, 8, 1, 2, 2
    arch = LARGE_ARCH


WORKLOADS = {w.name: w for w in (DefaultTrain, LargeRoundtrip)}
