"""Straight-line reference evaluation of the forecaster, for tests only.

Deliberately written with explicit Python loops and scalar math so it
shares no code path with the package: embedding, position features,
per-head attention, LayerNorm, the feed-forward block, and the last-step
readout are each spelled out element by element.

``reference_forward`` returns the prediction and, per block, the list of
its heads' T x T attention weights.
"""

import math

import numpy as np


def reference_forward(x, params, config):
    T = config.window_len
    dm = config.model_dim

    # per-step linear embedding
    h = np.zeros((T, dm))
    for t in range(T):
        for j in range(dm):
            acc = params.views["b_e"][j]
            for i in range(x.shape[1]):
                acc += params.views["w_e"][j, i] * x[t, i]
            h[t, j] = acc

    if config.use_positional_encoding:
        for t in range(T):
            for i in range((dm + 1) // 2):
                angle = t / (10000.0 ** (2.0 * i / dm))
                h[t, 2 * i] += math.sin(angle)
                if 2 * i + 1 < dm:
                    h[t, 2 * i + 1] += math.cos(angle)

    attention = []
    for n in range(config.n_blocks):
        block = {name.split(".", 1)[1]: arr for name, arr in params.views.items()
                 if name.startswith(f"block{n}.")}
        head_outputs = []
        head_weights = []
        hd = config.head_dim
        for hi in range(config.n_heads):
            # w_qkv rows: head by head, and q, k, v within a head
            rows = block["w_qkv"][3 * hd * hi : 3 * hd * (hi + 1)]
            w_q, w_k, w_v = rows[:hd], rows[hd : 2 * hd], rows[2 * hd :]
            q = np.zeros((T, hd))
            k = np.zeros((T, hd))
            v = np.zeros((T, hd))
            for t in range(T):
                for a in range(hd):
                    q[t, a] = sum(w_q[a, b] * h[t, b] for b in range(dm))
                    k[t, a] = sum(w_k[a, b] * h[t, b] for b in range(dm))
                    v[t, a] = sum(w_v[a, b] * h[t, b] for b in range(dm))
            weights = np.zeros((T, T))
            for t in range(T):
                scores = [
                    sum(q[t, a] * k[u, a] for a in range(hd)) / math.sqrt(dm)
                    for u in range(T)
                ]
                top = max(scores)
                exps = [math.exp(s - top) for s in scores]
                total = sum(exps)
                for u in range(T):
                    weights[t, u] = exps[u] / total
            out = np.zeros((T, hd))
            for t in range(T):
                for a in range(hd):
                    out[t, a] = sum(weights[t, u] * v[u, a] for u in range(T))
            head_outputs.append(out)
            head_weights.append(weights)
        attention.append(head_weights)

        merged = np.hstack(head_outputs)
        attended = np.zeros((T, dm))
        for t in range(T):
            for j in range(dm):
                attended[t, j] = sum(merged[t, kk] * block["w_o"][kk, j] for kk in range(dm))
        if config.use_residual:
            attended = attended + h

        normed = np.zeros((T, dm))
        for t in range(T):
            mu = sum(attended[t]) / dm
            var = sum((val - mu) ** 2 for val in attended[t]) / dm
            inv = 1.0 / math.sqrt(var + 1e-5)
            for j in range(dm):
                normed[t, j] = (attended[t, j] - mu) * inv * block["ln_gain"][j] + block["ln_bias"][j]

        hidden_width = block["ffn_w1"].shape[0]
        transformed = np.zeros((T, dm))
        for t in range(T):
            hidden = [
                max(0.0, sum(block["ffn_w1"][kk, j] * normed[t, j] for j in range(dm)) + block["ffn_b1"][kk])
                for kk in range(hidden_width)
            ]
            for j in range(dm):
                transformed[t, j] = (
                    sum(block["ffn_w2"][j, kk] * hidden[kk] for kk in range(hidden_width))
                    + block["ffn_b2"][j]
                )
        h = transformed + normed if config.use_residual else transformed

    last = h[T - 1]
    prediction = params.views["b_y"][0] + sum(params.views["w_y"][0, j] * last[j] for j in range(dm))
    return prediction, attention
