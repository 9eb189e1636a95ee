"""Command-line pipeline: synthesize, train, evaluate, predict, gradcheck.

Every command with a fixed seed and fixed inputs writes byte-identical
artifacts (checkpoint, report CSV, manifest); timings go only to the log
(TST_LOG=info). Exit codes are scriptable: 0 success, 1 configuration
error or sizes beyond memory, 2 data or file error, 3 numeric failure,
130 interrupted (SIGINT).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import data as data_mod
from . import model as model_mod
from .autodiff import grad_check
from .errors import (
    CheckpointError,
    CheckpointFormatError,
    ConfigError,
    DataError,
    DimensionError,
    NumericError,
)
from .fileio import atomic_write_bytes, check_replaceable, write_csv
from .model import ModelConfig, build_forward, forward, init_params, load_params, save_params
from .training import TrainConfig, evaluate, export_report, train

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it

log = logging.getLogger("tsformer")


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors map to the config exit code."""

    def error(self, message):
        raise ConfigError(message)


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="input CSV path")
    p.add_argument("--target", help="target column name")
    p.add_argument("--features", help="comma-separated feature columns (default: all)")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window", type=int, default=16, help="time steps per window")
    p.add_argument("--d-model", type=int, default=32, dest="d_model")
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--blocks", type=int, default=1)
    p.add_argument("--ffn-hidden", type=int, default=128, dest="ffn_hidden")
    p.add_argument("--no-pe", action="store_true", dest="no_pe",
                   help="disable positional encoding")
    p.add_argument("--residual", action="store_true",
                   help="enable residual connections")
    p.add_argument("--seed", type=_non_negative_int, default=42)


def _add_training_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--optimizer", choices=("adam", "sgd"), default="adam")
    p.add_argument("--train-frac", type=float, default=0.8, dest="train_frac",
                   help="fraction of windows used for training, in (0, 1]; "
                        "1.0 skips validation")
    p.add_argument("--grad-clip", type=float, default=None, dest="grad_clip",
                   help="global L2 gradient norm cap")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _output_path(text: str) -> str:
    # "" names no file; refused here, before any input is read or work done.
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="model.tstm", help="checkpoint path")
    p.add_argument("--denorm", action="store_true",
                   help="report on the original target scale")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    _add_data_flags(p)
    p.add_argument("--horizon", type=_positive_int, default=1, help="steps ahead to predict")
    _add_model_flags(p)
    _add_training_flags(p)
    p.add_argument("--out", type=_output_path, default="model.tstm", help="checkpoint path")
    p.add_argument("--report", type=_output_path, default="train_report.csv",
                   help="per-epoch metrics CSV")


def _add_eval_flags(p: argparse.ArgumentParser) -> None:
    _add_data_flags(p)
    p.add_argument("--horizon", type=_positive_int,
                   help="steps ahead (default: the checkpoint's, else 1)")
    _add_output_flags(p)


def _add_predict_flags(p: argparse.ArgumentParser) -> None:
    _add_data_flags(p)
    _add_output_flags(p)
    p.add_argument("--attn-out", type=_output_path, dest="attn_out",
                   help="directory for attention CSVs")


def _add_gradcheck_flags(p: argparse.ArgumentParser) -> None:
    _add_model_flags(p)
    p.add_argument("--input-dim", type=int, default=3, dest="input_dim")
    p.set_defaults(window=4, d_model=8, heads=2, ffn_hidden=16)


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=("sine", "ar1"), default="sine")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--period", type=float, help="sine period in rows (default 40; sine only)")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--coeff", type=float, help="AR(1) coefficient (default 0.9; ar1 only)")
    p.add_argument("--seed", type=_non_negative_int, default=42)
    p.add_argument("--out", type=_output_path, default="synth.csv", help="output CSV path")


def build_parser(command: str | None = None) -> _Parser:
    """The ``tsformer`` parser with every subcommand, or with ``command``'s
    alone: a command's own arguments parse the same either way, and
    building one subparser costs a fraction of building all five."""
    parser = _Parser(prog="tsformer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_flags, _) in _COMMANDS.items():
        if command is None or name == command:
            add_flags(sub.add_parser(name, help=help_line))
    return parser


def _flag_features(args) -> list[str] | None:
    """The --features names; None, for every column, when unset."""
    return args.features.split(",") if args.features else None


def _load_series(args, target: str | None, features: list[str] | None) -> data_mod.RawSeries:
    """The --data CSV's ``target`` and ``features`` columns."""
    if not args.data:
        raise ConfigError("--data is required for this command")
    if not target:
        raise ConfigError("--target is required for this command")
    return data_mod.load_csv(args.data, target, features)


def _model_config(args, input_dim: int) -> ModelConfig:
    return ModelConfig(
        window_len=args.window,
        input_dim=input_dim,
        model_dim=args.d_model,
        n_heads=args.heads,
        ffn_hidden=args.ffn_hidden,
        n_blocks=args.blocks,
        use_positional_encoding=not args.no_pe,
        use_residual=args.residual,
        seed=args.seed,
    )


_PIPELINE_KEYS = (
    "pipeline.features",
    "pipeline.target",
    "pipeline.horizon",
    "norm.columns",
    "norm.means",
    "norm.stds",
)


def _norm_extra(normalizer: data_mod.Normalizer, features: list[str], horizon: int) -> dict[str, str]:
    """The pipeline metadata, one JSON value per key of ``_PIPELINE_KEYS``."""
    values = (features, normalizer.target, horizon, normalizer.columns,
              [f"{v:.17g}" for v in normalizer.means], [f"{v:.17g}" for v in normalizer.stds])
    return {key: json.dumps(value) for key, value in zip(_PIPELINE_KEYS, values, strict=True)}


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _pipeline_from_extra(extra: dict[str, str], config: ModelConfig):
    """Parse the pipeline metadata that ``train`` stores in a checkpoint.

    Returns None when the checkpoint carries none, else (normalizer,
    features, target, horizon). The CRC proves only that the file is as it
    was written, so every value is checked here and a bad one raises
    CheckpointFormatError.
    """
    missing = [key for key in _PIPELINE_KEYS if key not in extra]
    if len(missing) == len(_PIPELINE_KEYS):
        return None
    if missing:
        raise CheckpointFormatError(f"checkpoint metadata lacks {', '.join(missing)}")
    try:
        meta = {key: json.loads(extra[key]) for key in _PIPELINE_KEYS}
    except (ValueError, RecursionError) as exc:
        raise CheckpointFormatError(f"checkpoint metadata is not valid JSON: {exc}") from exc
    features, target, horizon = (
        meta["pipeline.features"], meta["pipeline.target"], meta["pipeline.horizon"]
    )
    columns = meta["norm.columns"]
    if not _is_str_list(features) or len(features) != config.input_dim:
        raise CheckpointFormatError(
            f"pipeline.features must list {config.input_dim} column names, got {features!r}"
        )
    if not isinstance(target, str):
        raise CheckpointFormatError(f"pipeline.target must be a column name, got {target!r}")
    if type(horizon) is not int or horizon < 1:
        raise CheckpointFormatError(f"pipeline.horizon must be an integer >= 1, got {horizon!r}")
    expected_columns = features if target in features else features + [target]
    if columns != expected_columns:
        raise CheckpointFormatError(
            f"norm.columns {columns!r} do not match features and target {expected_columns!r}"
        )
    stats = {}
    for key in ("norm.means", "norm.stds"):
        values = meta[key]
        if not _is_str_list(values) or len(values) != len(columns):
            raise CheckpointFormatError(f"{key} must list {len(columns)} numbers, got {values!r}")
        try:
            stats[key] = np.array([float(v) for v in values])
        except ValueError as exc:
            raise CheckpointFormatError(f"{key}: {exc}") from exc
        if not np.isfinite(stats[key]).all():
            raise CheckpointFormatError(f"{key} holds non-finite values")
    if (stats["norm.stds"] <= 0).any():
        raise CheckpointFormatError("norm.stds must be positive")
    normalizer = data_mod.Normalizer(
        columns=columns, means=stats["norm.means"], stds=stats["norm.stds"], target=target
    )
    return normalizer, features, target, horizon


def cmd_train(args) -> int:
    # Flags are validated before the data is read; only input_dim comes
    # from the data.
    if not 0.0 < args.train_frac <= 1.0:
        raise ConfigError(f"--train-frac must be in (0, 1], got {args.train_frac}")
    mconfig = _model_config(args, input_dim=1)
    tconfig = TrainConfig(
        epochs=args.epochs,
        learning_rate=args.lr,
        batch_size=args.batch,
        optimizer=args.optimizer,
        grad_clip=args.grad_clip,
        seed=args.seed,
    )
    # An output that cannot be written, or that would overwrite the input
    # or another output, fails here, not after training.
    manifest_path = args.out + ".manifest.json"
    named = {"--data": args.data, "--out": args.out, "--report": args.report,
             "the manifest": manifest_path}
    seen: dict[str, str] = {}
    for flag, path in named.items():
        if not path:
            continue  # _load_series reports a missing --data
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(f"{seen[real]} and {flag} name the same file {path!r}")
        seen[real] = flag
    for path in (args.out, args.report, manifest_path):
        folder = os.path.dirname(path)
        if not os.path.isdir(folder or "."):
            raise DataError(f"output directory {folder} does not exist")
        check_replaceable(path)
    series = _load_series(args, args.target, _flag_features(args))
    mconfig = dataclasses.replace(mconfig, input_dim=len(series.features))
    frac = None if args.train_frac == 1.0 else args.train_frac
    train_ds, val_ds, normalizer = data_mod.prepare_datasets(
        series, args.window, args.horizon, frac
    )
    log.info("training on %d windows (%d validation)", len(train_ds),
             len(val_ds) if val_ds else 0)
    features = series.features
    del series  # the datasets hold the one normalized copy they read
    params, report = train(train_ds, val_ds, mconfig, tconfig)

    # The checkpoint goes last, so one on disk implies its report and
    # manifest; parameters it would refuse are refused before either.
    model_mod.require_finite_params(params)
    export_report(report, args.report)
    manifest = {
        **vars(args),
        "features": features,
        "artifacts": {
            "checkpoint": args.out,
            "report": args.report,
            "manifest": manifest_path,
        },
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    atomic_write_bytes(manifest_path, text.encode("utf-8"))
    save_params(params, mconfig, args.out, _norm_extra(normalizer, features, args.horizon))

    line = f"train_mse={report.train_mse[-1]:.6g} train_mae={report.train_mae[-1]:.6g}"
    if report.val_mse is not None:
        line += f" val_mse={report.val_mse[-1]:.6g} val_mae={report.val_mae[-1]:.6g}"
    print(line)
    return EXIT_OK


def _load_checkpoint_and_series(args):
    """Load the checkpoint and the --data series, normalized as in training.

    The normalizer is None without pipeline metadata. With it, a --target,
    --features or --horizon flag must name the checkpoint's own value.
    """
    params, config, extra = load_params(args.out)
    pipeline = _pipeline_from_extra(extra, config)
    target, features = args.target, _flag_features(args)
    horizon = getattr(args, "horizon", None)  # predict has no --horizon
    if pipeline is None:
        if args.denorm:
            raise ConfigError("--denorm needs the normalization that train stores in a "
                              "checkpoint, and this checkpoint has none")
        normalizer, horizon = None, horizon or 1
    else:
        normalizer, *saved = pipeline
        for flag, given, value in zip(("--features", "--target", "--horizon"),
                                      (features, target, horizon), saved):
            if given is not None and given != value:
                raise ConfigError(f"{flag} {given!r} differs from the checkpoint's {value!r}")
        features, target, horizon = saved
    series = _load_series(args, target, features)
    if normalizer is not None:
        series = normalizer.apply(series)
    return params, config, normalizer, series, horizon


def cmd_eval(args) -> int:
    params, config, normalizer, series, horizon = _load_checkpoint_and_series(args)
    dataset = data_mod.make_windows(series, config.window_len, horizon)
    result_mse, result_mae = evaluate(params, config, dataset)
    if args.denorm:
        std = normalizer.target_std
        result_mse *= std * std
        result_mae *= std
    print(f"mse={result_mse:.6g} mae={result_mae:.6g}")
    return EXIT_OK


def cmd_predict(args) -> int:
    params, config, normalizer, series, _ = _load_checkpoint_and_series(args)
    matrix = series.feature_matrix
    if matrix.shape[0] < config.window_len:
        raise DataError(
            f"need at least {config.window_len} rows to form a window, "
            f"got {matrix.shape[0]}"
        )
    x = matrix[-config.window_len :]
    y, attention = forward(x, params, config)
    if args.denorm:
        y = float(normalizer.invert_target([y])[0])
    if args.attn_out:
        model_mod.write_attention_csvs(attention(), args.attn_out)
    print(f"{y:.6g}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    config = _model_config(args, args.input_dim)
    params = init_params(config)
    rng = np.random.default_rng(args.seed + 1)
    x = rng.standard_normal((config.window_len, config.input_dim))
    # Check at a generic point. At init the biases are 0 and LayerNorm is
    # the identity affine, which can put ReLU inputs on the kink (a width-1
    # LayerNorm outputs exactly its bias), where a central difference is
    # not a derivative. The vectors are exactly the biases and the affine.
    for view in params.views.values():
        if view.ndim == 1:
            view += rng.uniform(-0.5, 0.5, view.shape)

    def f(tape, leaves):
        y, _ = build_forward(tape, x, np.zeros(1, dtype=np.intp), leaves, config)
        return y

    report = grad_check(f, params.views)
    for name, err in report.errors.items():
        print(f"{name} max_rel_err={err:.3e}")
    status = "PASS" if report.passed else "FAIL"
    print(f"gradcheck {status}: max_rel_err={report.max_error:.3e} "
          f"tolerance={report.tolerance:g}")
    return EXIT_OK if report.passed else EXIT_NUMERIC


def cmd_synth(args) -> int:
    other = "coeff" if args.kind == "sine" else "period"
    if getattr(args, other) is not None:
        raise ConfigError(f"--{other} does not apply to --kind {args.kind}")
    try:
        if args.kind == "sine":
            period = 40.0 if args.period is None else args.period
            series = data_mod.synth_sine(args.n, period, args.noise, args.seed)
        else:
            coeff = 0.9 if args.coeff is None else args.coeff
            series = data_mod.synth_ar1(args.n, coeff, args.noise, args.seed)
    except DataError as exc:
        # The generators read no data: what they refuse is a flag's value.
        raise ConfigError(str(exc)) from None
    write_csv(args.out, series.columns, series.rows)
    print(f"wrote {series.rows.shape[0]} rows to {args.out}")
    return EXIT_OK


# Subcommand -> (help line, flag builder, handler), in --help order.
_COMMANDS = {
    "train": ("train and write artifacts", _add_train_flags, cmd_train),
    "eval": ("evaluate a checkpoint on a CSV", _add_eval_flags, cmd_eval),
    "predict": ("predict one value from the last window", _add_predict_flags, cmd_predict),
    "gradcheck": ("verify backprop against finite differences", _add_gradcheck_flags,
                  cmd_gradcheck),
    "synth": ("write a synthetic series CSV", _add_synth_flags, cmd_synth),
}


def main(argv: list[str] | None = None) -> int:
    level = getattr(logging, os.environ.get("TST_LOG", "warning").upper(), None)
    if not isinstance(level, int):  # a name that is not a level, such as BASIC_FORMAT
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    argv = sys.argv[1:] if argv is None else argv
    # Only the named subcommand's parser is built; anything else (--help,
    # no arguments, a typo) gets every subcommand, for its help or error.
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        # A non-finite value fails a stage check with one NumericError line;
        # numpy's floating-point warnings would only print lines before it.
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command][2](args)
    except (ConfigError, MemoryError) as exc:
        # an array too large to allocate: sizes (in the flags, or the
        # data's) that this host cannot run; numpy refuses an impossible
        # one before allocating any of it
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, DimensionError, CheckpointError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except KeyboardInterrupt:
        # every artifact is renamed into place whole, so none is partial
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
