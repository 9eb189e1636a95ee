"""Independent expected values for the outputs the benchmark checks.

The workloads draw new inputs from every seed, so expected outputs cannot
be a fixed table. They are recomputed here instead, from the generated CSVs
and the checkpoint bytes, by a batched numpy forward pass written from the
model description in the README. Nothing here imports tsformer.

The printed values carry 6 significant digits, so a correct value can sit
up to 5e-6 (relative) from the exact one. A batched or reordered float64
forward moves results by about 1e-15 per op and a 20,000-window mean by
far less than 1e-9. ``REL_TOL`` allows twice the print rounding.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

REL_TOL = 1e-5
ABS_TOL = 1e-12
LAYER_NORM_EPS = 1e-5
CHUNK = 256  # windows per reference batch, bounds the reference's memory

_CONFIG_KEYS = ("window_len", "input_dim", "model_dim", "n_heads", "ffn_hidden",
                "n_blocks", "use_positional_encoding", "use_residual", "seed")


def close(printed: float, expected: float) -> bool:
    return abs(printed - expected) <= REL_TOL * abs(expected) + ABS_TOL


class Checkpoint:
    """Format v1: b"TSTM", version byte, u32 config length, ``key=value``
    config lines, float64 parameters in canonical order, u64 CRC (not
    verified here; the program's loader does that)."""

    def __init__(self, raw: bytes):
        if raw[:4] != b"TSTM" or raw[4] != 1:
            raise ValueError("not a version-1 tsformer checkpoint")
        (block_len,) = struct.unpack_from("<I", raw, 5)
        fields = dict(
            line.split("=", 1) for line in raw[9 : 9 + block_len].decode().splitlines() if line
        )
        self.cfg = {k: int(fields[k]) for k in _CONFIG_KEYS}
        self.extra = {k: v for k, v in fields.items() if k not in _CONFIG_KEYS}
        body = np.frombuffer(raw, dtype="<f8", offset=9 + block_len,
                             count=(len(raw) - 17 - block_len) // 8)
        self.params = self._unpack(body)

    def _unpack(self, body: np.ndarray) -> dict:
        c = self.cfg
        dm, hd, fh = c["model_dim"], c["model_dim"] // c["n_heads"], c["ffn_hidden"]
        shapes = [("w_e", (dm, c["input_dim"])), ("b_e", (dm,))]
        for b in range(c["n_blocks"]):
            for h in range(c["n_heads"]):
                shapes += [(f"{b}.{h}.{w}", (hd, dm)) for w in ("q", "k", "v")]
            shapes += [(f"{b}.w_o", (dm, dm)), (f"{b}.g", (dm,)), (f"{b}.beta", (dm,)),
                       (f"{b}.w1", (fh, dm)), (f"{b}.b1", (fh,)),
                       (f"{b}.w2", (dm, fh)), (f"{b}.b2", (dm,))]
        shapes += [("w_y", (1, dm)), ("b_y", (1,))]
        params, offset = {}, 0
        for name, shape in shapes:
            size = math.prod(shape)
            params[name] = body[offset : offset + size].reshape(shape)
            offset += size
        if offset != body.size:
            raise ValueError(f"parameter count {body.size} does not match the config")
        return params

    def pipeline(self):
        """(features, target, horizon, normalizer columns, means, stds)."""
        e = self.extra
        return (json.loads(e["pipeline.features"]), json.loads(e["pipeline.target"]),
                json.loads(e["pipeline.horizon"]), json.loads(e["norm.columns"]),
                np.array([float(v) for v in json.loads(e["norm.means"])]),
                np.array([float(v) for v in json.loads(e["norm.stds"])]))


def _positional_encoding(t: int, d: int) -> np.ndarray:
    steps = np.arange(t, dtype=np.float64)[:, None]
    i = np.arange(d) // 2
    angles = steps / 10000.0 ** (2.0 * i / d)
    return np.where(np.arange(d) % 2 == 0, np.sin(angles), np.cos(angles))


def forward(ck: Checkpoint, x: np.ndarray) -> np.ndarray:
    """Predictions for a stack of windows ``x`` of shape [B, T, input_dim]."""
    c, p = ck.cfg, ck.params
    h = x @ p["w_e"].T + p["b_e"]
    if c["use_positional_encoding"]:
        h = h + _positional_encoding(c["window_len"], c["model_dim"])
    scale = 1.0 / math.sqrt(c["model_dim"])
    for b in range(c["n_blocks"]):
        heads = []
        for i in range(c["n_heads"]):
            q, k, v = (h @ p[f"{b}.{i}.{w}"].T for w in ("q", "k", "v"))
            s = scale * (q @ k.transpose(0, 2, 1))
            e = np.exp(s - s.max(axis=2, keepdims=True))
            heads.append((e / e.sum(axis=2, keepdims=True)) @ v)
        att = np.concatenate(heads, axis=2) @ p[f"{b}.w_o"]
        if c["use_residual"]:
            att = att + h
        mean = att.mean(axis=2, keepdims=True)
        inv_std = 1.0 / np.sqrt(att.var(axis=2, keepdims=True) + LAYER_NORM_EPS)
        normed = (att - mean) * inv_std * p[f"{b}.g"] + p[f"{b}.beta"]
        hidden = np.maximum(normed @ p[f"{b}.w1"].T + p[f"{b}.b1"], 0.0)
        out = hidden @ p[f"{b}.w2"].T + p[f"{b}.b2"]
        h = out + normed if c["use_residual"] else out
    return (h[:, -1, :] @ p["w_y"].T + p["b_y"])[:, 0]


def _normalized(ck: Checkpoint, header: list[str], rows: np.ndarray):
    features, target, horizon, columns, means, stds = ck.pipeline()
    table = (rows[:, [header.index(col) for col in columns]] - means) / stds
    feats = table[:, [columns.index(f) for f in features]]
    return feats, table[:, columns.index(target)], horizon


def window_metrics(ck: Checkpoint, header: list[str], rows: np.ndarray,
                   first: int = 0) -> tuple[float, float]:
    """(mse, mae) over the stride-1 windows from index ``first`` on."""
    feats, target, horizon = _normalized(ck, header, rows)
    t = ck.cfg["window_len"]
    count = rows.shape[0] - t - horizon + 1
    windows = np.lib.stride_tricks.sliding_window_view(feats, t, axis=0).transpose(0, 2, 1)
    errors = []
    for lo in range(first, count, CHUNK):
        hi = min(lo + CHUNK, count)
        pred = forward(ck, windows[lo:hi])
        errors.append(pred - target[lo + t - 1 + horizon : hi + t - 1 + horizon])
    err = np.concatenate(errors)
    return float(np.mean(err**2)), float(np.mean(np.abs(err)))


def last_window_prediction(ck: Checkpoint, header: list[str], rows: np.ndarray) -> float:
    feats, _, _ = _normalized(ck, header, rows)
    return float(forward(ck, feats[None, -ck.cfg["window_len"] :])[0])
