"""Time-series transformer for single-step forecasting.

The architecture maps a window of T observations with d features each to
one predicted scalar: a learned linear embedding into model_dim, optional
sinusoidal position features, one or more blocks of multi-head
self-attention followed by LayerNorm and a position-wise feed-forward
network, then a linear readout of the last time step.

The model is defined once, in :func:`build_forward`, over autodiff tape
values and B windows at a time, given as the series' rows and the
windows' start indices: every linear layer (embedding, both FFN layers,
readout) is one ``Tape.linear`` op over all rows it covers, and each
block's multi-head attention, its q/k/v and output projections included,
is one ``Tape.attention`` op for all heads, with the ``use_residual``
skip, x + Attention(x). Where stride-1 windows share most rows, block 0
embeds each row of their span once, a view of the series, and reads each
window's steps from those rows by an index; unless it is also the last
block, it projects each row once and gathers the windows' q/k/v. Else it
reads the rows in window order. The position features enter per step.
Every block but the last runs on the B*T rows of the stack. The readout
reads only the last step of each window, so the last block scores only
step T-1's query, with its q/k/v projections absorbed: it scores the
window rows against W_k^T q and projects their weighted sum through W_v,
so it forms no keys or values for the T steps, and its softmax, w_o,
LayerNorm and FFN run on B rows. Its full T x T weights, which only the
attention export reads, are projected and computed only when the
function that :func:`forward` returns for them is called. Training and
gradient checks run it on parameter leaves that carry gradient buffers;
inference and evaluation run the same function on leaves without them,
which records nothing (see :mod:`tsformer.autodiff`).
"""

from __future__ import annotations

import functools
import math
import os
import struct
from collections.abc import Callable, Iterator
from dataclasses import dataclass, fields

import numpy as np

from .autodiff import Tape, Var
from .errors import (
    CheckpointChecksumError,
    CheckpointFormatError,
    ConfigError,
    DimensionError,
    NumericError,
)
from .fileio import atomic_write_bytes, crc64, write_csv

__all__ = [
    "ModelConfig",
    "ModelParams",
    "init_params",
    "positional_encoding",
    "forward",
    "build_forward",
    "save_params",
    "require_finite_params",
    "load_params",
    "write_attention_csvs",
]

LAYER_NORM_EPS = 1e-5


@dataclass
class ModelConfig:
    """Architecture hyperparameters.

    ``ffn_hidden`` defaults to 4x the model dimension when left unset.
    ``use_residual`` is off by default: the base block is plain
    FFN(LayerNorm(attention_out)) with no skip connections.
    """

    window_len: int
    input_dim: int
    model_dim: int = 32
    n_heads: int = 2
    ffn_hidden: int | None = None
    n_blocks: int = 1
    use_positional_encoding: bool = True
    use_residual: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.ffn_hidden is None:
            self.ffn_hidden = 4 * self.model_dim
        if self.window_len < 1:
            raise ConfigError(f"window_len must be >= 1, got {self.window_len}")
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.model_dim < 1:
            raise ConfigError(f"model_dim must be >= 1, got {self.model_dim}")
        if self.n_heads < 1:
            raise ConfigError(f"n_heads must be >= 1, got {self.n_heads}")
        if self.model_dim % self.n_heads != 0:
            raise ConfigError(
                f"model_dim {self.model_dim} not divisible by n_heads {self.n_heads}"
            )
        if self.ffn_hidden < 1:
            raise ConfigError(f"ffn_hidden must be >= 1, got {self.ffn_hidden}")
        if self.n_blocks < 1:
            raise ConfigError(f"n_blocks must be >= 1, got {self.n_blocks}")
        # sizes no array can address, refused before any is allocated
        width = max(self.input_dim, self.model_dim)
        if 8 * max(self.n_params, self.window_len * width) > np.iinfo(np.intp).max:
            raise ConfigError(
                f"{self.n_params} parameters, or windows of {self.window_len} x {width} "
                f"values, exceed what one array can address"
            )

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.n_heads

    @property
    def n_params(self) -> int:
        """The parameter count of :func:`_param_shapes`, in closed form."""
        dp, fh = self.model_dim, self.ffn_hidden
        block = 4 * dp * dp + 3 * dp + 2 * fh * dp + fh
        return dp * (self.input_dim + 2) + 1 + self.n_blocks * block


def _param_shapes(config: ModelConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter, in the canonical order.

    This order defines the checkpoint layout, the optimizer state layout,
    and the initialization draw order: w_e, b_e, then per block the fused
    q/k/v projection, the output projection, LayerNorm affine and FFN
    weights, and finally the readout. The rows of ``w_qkv`` are head by
    head, and q, k, v within a head, each head_dim rows. It is a
    generator, so a reader can stop at the first parameter its input
    cannot hold.
    """
    dp, fh = config.model_dim, config.ffn_hidden
    yield "w_e", (dp, config.input_dim)
    yield "b_e", (dp,)
    for b in range(config.n_blocks):
        yield f"block{b}.w_qkv", (3 * dp, dp)
        yield f"block{b}.w_o", (dp, dp)
        yield f"block{b}.ln_gain", (dp,)
        yield f"block{b}.ln_bias", (dp,)
        yield f"block{b}.ffn_w1", (fh, dp)
        yield f"block{b}.ffn_b1", (fh,)
        yield f"block{b}.ffn_w2", (dp, fh)
        yield f"block{b}.ffn_b2", (dp,)
    yield "w_y", (1, dp)
    yield "b_y", (1,)


class ModelParams:
    """All learnable weights as one float64 vector, ``flat``, in the
    canonical order of :func:`_param_shapes`, with a writable view of it per
    parameter in ``params.views``, e.g. ``params.views["block0.w_o"]``.

    Zero-filled unless ``flat`` is given; a given vector is used, not
    copied. Gradients use the same layout, so optimizers and checkpoints
    work on ``flat`` and the model looks parameters up by name.
    """

    def __init__(self, config: ModelConfig, flat: np.ndarray | None = None):
        if flat is None:
            flat = np.zeros(config.n_params)
        self.flat = flat
        self.views: dict[str, np.ndarray] = {}
        end = 0
        for name, shape in _param_shapes(config):
            start, end = end, end + math.prod(shape)
            if end > flat.size:
                raise DimensionError(f"{flat.size} parameter values end inside {name}")
            self.views[name] = flat[start:end].reshape(shape)
        if end != flat.size:
            raise DimensionError(f"{flat.size - end} values beyond the last parameter")


def init_params(config: ModelConfig) -> ModelParams:
    """Xavier-uniform matrices, zero biases, identity LayerNorm affine.

    A matrix of r rows and c columns is drawn uniformly from [-b, b] with
    Glorot & Bengio's (2010) bound b = sqrt(6 / (r + c)). Deterministic
    given ``config.seed``; matrices are drawn in canonical parameter order
    from one ``numpy.random.default_rng`` generator. Each head's q, k and v
    projection in ``w_qkv`` is its own [head_dim x model_dim] draw.
    """
    rng = np.random.default_rng(config.seed)
    params = ModelParams(config)
    for name, arr in params.views.items():
        if name.endswith("ln_gain"):
            arr[...] = 1.0
        elif arr.ndim == 2:
            heads = name.endswith("w_qkv")
            parts = arr.reshape(-1, config.head_dim, config.model_dim) if heads else [arr]
            for part in parts:
                bound = math.sqrt(6.0 / sum(part.shape))
                part[...] = rng.uniform(-bound, bound, part.shape)
    return params


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def positional_encoding(window_len: int, model_dim: int) -> np.ndarray:
    """Sinusoidal position features, built once per shape and read-only.

    Entry (t, 2i) is sin(t / 10000^(2i/model_dim)) and entry (t, 2i+1) is
    cos of the same angle, with t counted from 0 inside the window. An odd
    trailing column gets the sin branch.
    """
    if window_len < 1 or model_dim < 1:
        raise DimensionError(
            f"positional_encoding: extents must be >= 1, got {window_len}x{model_dim}"
        )
    # the powers in Python's float arithmetic, not numpy's power loop, whose
    # bits can differ; sin and cos then run once over all angles
    scales = np.array([10000.0 ** (2.0 * i / model_dim) for i in range((model_dim + 1) // 2)])
    angles = np.arange(window_len, dtype=np.float64)[:, None] / scales
    pe = np.empty((window_len, model_dim))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : model_dim // 2])
    pe.flags.writeable = False
    return pe


def _check_finite(v: Var, stage: str) -> None:
    if not np.isfinite(v.value).all():
        raise NumericError(f"non-finite values first appeared at stage: {stage}")


def make_param_vars(tape: Tape, params: ModelParams, grads: ModelParams | None = None) -> dict[str, Var]:
    """Wrap every parameter as a leaf on ``tape``, recorded with its view of
    ``grads`` as gradient buffer; inference passes no ``grads``."""
    buffers = {} if grads is None else grads.views
    return {name: tape.leaf(arr, buffers.get(name)) for name, arr in params.views.items()}


def build_forward(
    tape: Tape,
    rows: np.ndarray,
    starts: np.ndarray,
    leaves: dict[str, Var],
    config: ModelConfig,
) -> tuple[Var, list[Callable[[], np.ndarray]]]:
    """The model: map the windows of ``rows`` [N x input_dim] that start at
    ``starts`` [B] (window b is rows starts[b] .. starts[b]+window_len-1)
    to predictions [B x 1], recording on ``tape`` whatever a gradient can
    reach.

    Block 0 embeds and projects each row of the windows' span (a view of
    ``rows``) once and gathers the windows from it (``Tape.attention``'s
    ``index``) when the span is at most half the B*T steps, as an
    evaluation stack's B+T-1 rows are; otherwise, as in a shuffled batch,
    it runs on the window rows in window order. Position features enter as
    their own projection, added per step. Later blocks run on the B*T rows.
    With ``use_residual`` the attention op adds its skip (``Tape.attention``'s
    ``residual``) and the FFN output adds its own input.

    Returns the predictions and, per block, a function that returns that
    block's attention weights [B, n_heads, T, T]. Only row T-1 of the last
    block's weights reaches the predictions, so only that row is computed
    here, with the block's q/k/v projections absorbed; its function
    projects the rows and computes the full weights when called. Raises
    NumericError naming the first stage that produced a non-finite value.
    """
    rows = np.asarray(rows, dtype=np.float64)
    starts = np.asarray(starts)
    steps = config.window_len
    if rows.ndim != 2 or rows.shape[1] != config.input_dim:
        raise DimensionError(
            f"model input rows shape {rows.shape}, expected [N, {config.input_dim}]"
        )
    valid = starts.ndim == 1 and starts.size and starts.dtype.kind in "iu"
    first, last = (int(starts.min()), int(starts.max())) if valid else (-1, 0)
    if first < 0 or last > rows.shape[0] - steps:
        raise DimensionError(
            f"window starts must be integers in [0, {rows.shape[0] - steps}], "
            f"one or more, for {rows.shape[0]} rows and window_len {steps}"
        )
    # as intp: uint64 and int64 starts would mix to float64 indices
    windows, starts = starts.size, starts.astype(np.intp, copy=False)
    span = last - first + steps  # the rows from the first window's start to the last one's end
    if 2 * span <= windows * steps:
        # the windows share most rows: block 0 embeds the span, a view of
        # rows, and window b's step t is its row starts[b] - first + t
        x, index = rows[first : first + span], starts[:, None] - first + np.arange(steps)
    else:
        x, index = rows[(starts[:, None] + np.arange(steps)).ravel()], None  # in window order
    h = tape.linear(tape.leaf(x), leaves["w_e"], leaves["b_e"])
    _check_finite(h, "embedding")
    offset = None  # the position features, added at each window's step t
    if config.use_positional_encoding:
        offset = positional_encoding(steps, config.model_dim)
    weights = []
    for b in range(config.n_blocks):
        prefix = f"block{b}."
        # the readout reads only step T-1, and all after attention works
        # row by row: the last block scores that step's query alone, with
        # its q/k/v projections absorbed
        last_only = b == config.n_blocks - 1
        # Every head attends over the T steps of its window (no causal
        # mask), through one w_qkv for all heads; w_o then mixes the
        # heads side by side. Scores are scaled by 1/sqrt(model_dim), the
        # full width of h, not by the per-head width.
        attended, block_weights = tape.attention(
            h, leaves[prefix + "w_qkv"], leaves[prefix + "w_o"], windows, config.n_heads,
            1.0 / math.sqrt(config.model_dim), last_only, index, offset, config.use_residual,
        )
        weights.append(block_weights)
        _check_finite(attended, f"block {b} attention")
        normed = tape.layer_norm(
            attended, leaves[prefix + "ln_gain"], leaves[prefix + "ln_bias"], LAYER_NORM_EPS
        )
        _check_finite(normed, f"block {b} layer norm")
        # position-wise feed-forward network: ReLU(x w1^T + b1) w2^T + b2
        w1, b1, w2, b2 = (leaves[prefix + n] for n in ("ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2"))
        h = tape.linear(tape.relu(tape.linear(normed, w1, b1)), w2, b2)
        if config.use_residual:
            h = tape.add(h, normed)
        _check_finite(h, f"block {b} ffn")
        index = offset = None  # later blocks' inputs are the B*T rows in window order
    y = tape.linear(h, leaves["w_y"], leaves["b_y"])
    _check_finite(y, "readout")
    return y, weights


def forward(
    x: np.ndarray, params: ModelParams, config: ModelConfig
) -> tuple[float, Callable[[], list[np.ndarray]]]:
    """Predict the next value from one window: :func:`build_forward` run
    on that window alone and on leaves that need no gradient, so nothing
    is recorded.

    ``x`` must be [window_len x input_dim]. Returns the scalar prediction
    and a function that returns one [n_heads, T, T] array of softmax
    weights per block, where entry [h, t, t'] is how much step t attends
    to step t' in head h; the last block's are projected and computed
    only when that function is called.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (config.window_len, config.input_dim):
        raise DimensionError(
            f"model input shape {x.shape}, expected [{config.window_len}, {config.input_dim}]"
        )
    tape = Tape()
    leaves = make_param_vars(tape, params)
    y, weights = build_forward(tape, x, np.zeros(1, dtype=np.intp), leaves, config)
    return y.value.item(), lambda: [block_weights()[0] for block_weights in weights]


# ---------------------------------------------------------------------------
# checkpoint persistence
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"TSTM"
CHECKPOINT_VERSION = 1

# One key per ModelConfig field, in field order; a bool field is stored as 0 or 1.
_CONFIG_FIELDS = fields(ModelConfig)
_CONFIG_KEYS = tuple(field.name for field in _CONFIG_FIELDS)


def _config_block(config: ModelConfig, extra: dict[str, str]) -> bytes:
    lines = []
    for key in _CONFIG_KEYS:
        value = getattr(config, key)
        if isinstance(value, bool):
            value = int(value)
        lines.append(f"{key}={value}")
    for key in sorted(extra):
        if key in _CONFIG_KEYS:
            raise ConfigError(f"extra checkpoint key {key!r} collides with a config key")
        value = extra[key]
        if "=" in key or "\n" in key or "\n" in value:
            raise ConfigError(f"extra checkpoint entry {key!r} must be '='- and newline-free")
        lines.append(f"{key}={value}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _parse_config_block(block: bytes) -> tuple[ModelConfig, dict[str, str]]:
    """Parse the config block; a bad value raises ValueError (ConfigError
    included), and a malformed line or missing key CheckpointFormatError."""
    entries: dict[str, str] = {}
    for lineno, line in enumerate(block.decode("utf-8").splitlines(), start=1):
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CheckpointFormatError(f"config line {lineno} is not key=value: {line!r}")
        entries[key] = value
    missing = [k for k in _CONFIG_KEYS if k not in entries]
    if missing:
        raise CheckpointFormatError(f"config block missing keys: {', '.join(missing)}")
    values = {}
    for field in _CONFIG_FIELDS:
        text = entries[field.name]
        if isinstance(field.default, bool):
            if text not in ("0", "1"):
                raise ValueError(f"{field.name} must be 0 or 1, got {text!r}")
            values[field.name] = text == "1"
        else:
            values[field.name] = int(text)
    extra = {k: v for k, v in entries.items() if k not in _CONFIG_KEYS}
    return ModelConfig(**values), extra


def _non_finite_param(params: ModelParams) -> str | None:
    """The name of the first parameter holding a NaN or an infinity, if any.

    A NaN or an infinity shows in the min or the max, which allocate no
    array the size of the vector; only then are the views scanned."""
    flat = params.flat
    if np.isfinite(flat.min()) and np.isfinite(flat.max()):
        return None
    return next(name for name, view in params.views.items() if not np.isfinite(view).all())


def require_finite_params(params: ModelParams) -> None:
    """Raise NumericError if a parameter holds a NaN or an infinity, which
    :func:`save_params` refuses to write."""
    bad = _non_finite_param(params)
    if bad is not None:
        raise NumericError(f"refusing to save non-finite values in {bad}")


def save_params(
    params: ModelParams,
    config: ModelConfig,
    path: str,
    extra: dict[str, str] | None = None,
) -> None:
    """Write a checkpoint; see README for the byte layout.

    The file is assembled in one buffer of its final size and checksummed
    in place. The write is atomic: a temporary file is renamed into place,
    so a crashed run never leaves a partial checkpoint behind. Non-finite
    parameters raise NumericError, and nothing is written.
    """
    require_finite_params(params)
    block = _config_block(config, extra or {})
    header = len(CHECKPOINT_MAGIC) + 1 + 4
    n_values = params.flat.size
    payload = bytearray(header + len(block) + 8 * n_values + 8)
    struct.pack_into(f"<4sBI{len(block)}s", payload, 0,
                     CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(block), block)
    body = np.frombuffer(payload, dtype="<f8", count=n_values, offset=header + len(block))
    body[:] = params.flat
    struct.pack_into("<Q", payload, len(payload) - 8, crc64(memoryview(payload)[:-8]))
    atomic_write_bytes(path, payload)


def load_params(path: str) -> tuple[ModelParams, ModelConfig, dict[str, str]]:
    """Read a checkpoint back; the round trip is bit exact.

    Raises CheckpointChecksumError when the trailing CRC does not match,
    and CheckpointFormatError for bad magic, an unsupported version, a
    truncated file, a config block whose values are not a valid
    ModelConfig, or a parameter that is NaN or infinite.

    The file is read once, into a byte array placed so that the parameter
    payload starts 8-byte aligned; the CRC reads that array and the
    parameters are a writable float64 view of it, not a copy.
    """
    header = len(CHECKPOINT_MAGIC) + 1 + 4
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        lead = fh.read(header)
        fh.seek(0)
        block_len = struct.unpack_from("<I", lead, 5)[0] if len(lead) == header else 0
        buffer = np.empty(size + 8, dtype=np.uint8)
        start = -(buffer.ctypes.data + header + block_len) % 8
        raw = buffer[start : start + fh.readinto(buffer[start : start + size])]
    if raw.size < header + 8:
        raise CheckpointFormatError(f"file too short to be a checkpoint ({raw.size} bytes)")
    if raw[:4].tobytes() != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"bad magic bytes {raw[:4].tobytes()!r}")
    if raw[4] != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"unsupported format version {raw[4]}")
    if raw.size < header + block_len + 8:
        raise CheckpointFormatError("truncated config block")

    stored_crc = struct.unpack_from("<Q", raw, raw.size - 8)[0]
    if crc64(raw[:-8]) != stored_crc:
        raise CheckpointChecksumError("checksum mismatch, file is corrupted")

    try:
        config, extra = _parse_config_block(raw[header : header + block_len].tobytes())
    except ValueError as exc:  # also UnicodeDecodeError and ConfigError
        raise CheckpointFormatError(f"bad config block: {exc}") from exc

    # The vector holds only what the payload holds, so the walk over the
    # config's parameters stops within the file's size, however large the
    # config claims to be.
    count, stray = divmod(raw.size - 8 - header - block_len, 8)
    flat = raw[header + block_len :][: 8 * count].view("<f8")
    try:
        params = ModelParams(config, flat)
    except DimensionError as exc:
        raise CheckpointFormatError(f"parameter data does not match the config: {exc}") from exc
    if stray:
        raise CheckpointFormatError(f"{stray} unexpected trailing parameter bytes")
    bad = _non_finite_param(params)
    if bad is not None:
        raise CheckpointFormatError(f"parameter {bad} holds non-finite values")
    return params, config, extra


def write_attention_csvs(weights: list[np.ndarray], out_dir: str) -> list[str]:
    """One CSV per block and head of ``weights``, the [n_heads, T, T]
    arrays that :func:`forward`'s function returns, named by list position
    and head index: header t0..t{T-1}, then one row per query step."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for b, block in enumerate(weights):
        for h, head in enumerate(block):
            path = os.path.join(out_dir, f"attention_block{b}_head{h}.csv")
            write_csv(path, [f"t{j}" for j in range(head.shape[1])], head)
            paths.append(path)
    return paths
