"""Span tracing of tsformer's public functions, patched in from outside.

Nothing in the package is edited. Each traced function is replaced, for the
duration of a traced command, by a wrapper that records a span (name,
start, end, parent) and counts work done. The wrapper is installed under
every name that refers to the function in any tsformer module, because
callers look functions up in their own namespaces: ``cli`` binds
``forward`` and ``evaluate`` by name and ``model`` binds ``crc64``.

A traced name that no longer exists, or whose counter cannot read its
arguments, is listed as unmeasured instead of failing the run, so the
end-to-end gates keep working when a later change renames internals.
"""

from __future__ import annotations

import collections
import importlib
import os
import sys
import time

PACKAGE = "tsformer"

# Spans deeper than this are folded into their parents' totals and not kept
# one by one: a 20,000-window eval makes about 400,000 spans.
KEEP_DEPTH = 3


# Counters run after a traced call returns and add what it did to the tracer.

def _rows_loaded(tracer, name, args, kwargs, result):
    tracer.counts[name]["rows"] += result.rows.shape[0]


def _pe_shape(tracer, name, args, kwargs, result):
    tracer.pe_shapes.add(result.shape)


def _tape_nodes(tracer, name, args, kwargs, result):
    if tracer.first_tape is None:
        tracer.first_tape = collections.Counter(node.op for node in args[0].nodes)


def _saved_bytes(tracer, name, args, kwargs, result):
    tracer.counts[name]["bytes"] += os.path.getsize(kwargs.get("path") or args[2])


def _loaded_bytes(tracer, name, args, kwargs, result):
    tracer.counts[name]["bytes"] += os.path.getsize(kwargs.get("path") or args[0])


def _crc_bytes(tracer, name, args, kwargs, result):
    tracer.counts[name]["bytes"] += len(args[0])


def _written_bytes(tracer, name, args, kwargs, result):
    tracer.counts[name]["bytes"] += len(args[1])


def _matmul_flops(tracer, name, args, kwargs, result):
    # Computed, not counted by hardware: 2 * inner extent * output size.
    tracer.counts[name]["flops"] += 2 * args[0].shape[-1] * result.size


# (span name, module, attribute path, counter)
TARGETS = [
    ("cli.main", "cli", "main", None),
    ("data.load_csv", "data", "load_csv", _rows_loaded),
    ("data.make_windows", "data", "make_windows", None),
    ("model.forward", "model", "forward", None),
    ("model.embed", "model", "embed", None),
    ("model.positional_encoding", "model", "positional_encoding", _pe_shape),
    ("model.multi_head", "model", "multi_head", None),
    ("model.layer_norm", "model", "layer_norm", None),
    ("model.ffn", "model", "ffn", None),
    ("model.build_forward", "model", "build_forward", None),
    ("autodiff.backward", "autodiff", "Tape.backward", _tape_nodes),
    ("training.train", "training", "train", None),
    ("training.evaluate", "training", "evaluate", None),
    ("training.adam_step", "training", "adam_step", None),
    ("training.clip_gradients", "training", "clip_gradients", None),
    ("model.save_params", "model", "save_params", _saved_bytes),
    ("model.load_params", "model", "load_params", _loaded_bytes),
    ("fileio.crc64", "fileio", "crc64", _crc_bytes),
    ("fileio.atomic_write_bytes", "fileio", "atomic_write_bytes", _written_bytes),
    ("tensor.matmul", "tensor", "matmul", _matmul_flops),
]


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Collects spans and per-function totals while installed."""

    def __init__(self):
        self.stats: dict[str, Stat] = collections.defaultdict(Stat)
        # (parent name, name) -> Stat, so a child's time can be read per caller
        self.edges: dict[tuple[str, str], Stat] = collections.defaultdict(Stat)
        self.counts: dict[str, collections.Counter] = collections.defaultdict(collections.Counter)
        self.pe_shapes: set = set()
        self.first_tape: collections.Counter | None = None
        self.spans: list[tuple[str, float, float, int]] = []
        self.unmeasured: dict[str, str] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------

    def _resolve(self, module: str, path: str):
        owner = importlib.import_module(f"{PACKAGE}.{module}")
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for name, module, path, counter in TARGETS:
            try:
                owner, attr, original = self._resolve(module, path)
            except (ImportError, AttributeError) as exc:
                self.unmeasured[name] = f"not found: {exc}"
                continue
            wrapper = self._wrap(name, original, counter)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn, counter):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        stat, edges = self.stats[name], self.edges

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, len(spans), name]  # child seconds, span id, name
            depth = len(stack)
            stack.append(frame)
            if depth < KEEP_DEPTH:
                spans.append(None)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                own = elapsed - frame[0]
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += own
                edge = edges[(parent[2] if parent else "", name)]
                edge.calls += 1
                edge.total += elapsed
                edge.self_time += own
                if parent:
                    parent[0] += elapsed
                if depth < KEEP_DEPTH:
                    spans[frame[1]] = (name, start, end, parent[1] if parent else -1)
            if counter is not None:
                self._count(name, counter, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, counter, args, kwargs, result) -> None:
        try:
            counter(self, name, args, kwargs, result)
        except Exception as exc:  # a refactor changed what the counter reads
            self.unmeasured.setdefault(f"{name} counts", f"{type(exc).__name__}: {exc}")


def function_table(tracer: Tracer) -> dict:
    """Calls, total and self milliseconds of every traced function."""
    return {name: {"calls": s.calls, "total_ms": 1e3 * s.total, "self_ms": 1e3 * s.self_time}
            for name, s in sorted(tracer.stats.items()) if s.calls}


def layer_metrics(tracer: Tracer, work: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced cycles.

    ``work`` holds what those cycles did, from the workload definition:
    windows through the taped forward (``taped``) and the plain forward
    (``plain``), optimizer steps (``batches``) and ``cycles``. Dividing by
    these rather than by call counts keeps the metrics per window when a
    later change batches windows into fewer calls. A metric whose function
    or denominator is missing is left out.
    """
    stats, edges, counts = tracer.stats, tracer.edges, tracer.counts
    out: dict[str, tuple[float, str]] = {}

    def stat(name):
        s = stats.get(name)
        return s if s is not None and s.calls else None

    def per(name, attr, denom, scale, metric, unit):
        s = stat(name)
        if s is not None and denom:
            out[metric] = (scale * getattr(s, attr) / denom, unit)

    def rate(name, key, metric, unit, scale=1.0):
        s = stat(name)
        if s is not None and s.total > 0 and counts[name][key]:
            out[metric] = (scale * counts[name][key] / s.total, unit)

    plain, taped, batches = work["plain"], work["taped"], work["batches"]
    main = stat("cli.main")
    per("cli.main", "self_time", main and main.calls, 1e3, "cli.main.self_ms", "ms")
    rate("data.load_csv", "rows", "data.load_csv.rows_per_s", "rows/s")
    mw = stat("data.make_windows")
    per("data.make_windows", "total", mw and mw.calls, 1e3, "data.make_windows.ms", "ms")

    per("model.forward", "total", plain, 1e6, "model.forward.us_per_window", "us")
    for child in ("embed", "positional_encoding", "multi_head", "layer_norm", "ffn"):
        edge = edges.get(("model.forward", f"model.{child}"))
        if edge is not None and edge.calls and plain:
            out[f"model.{child}.us"] = (1e6 * edge.self_time / plain, "us")
    per("model.forward", "self_time", plain, 1e6, "model.readout.us", "us")
    pe = stat("model.positional_encoding")
    if pe is not None:
        out["model.positional_encoding.calls"] = (pe.calls, "count")
        if tracer.pe_shapes:
            out["model.positional_encoding.calls_per_distinct_shape"] = (
                pe.calls / len(tracer.pe_shapes), "ratio")

    per("model.build_forward", "total", taped, 1e6, "model.build_forward.us_per_window", "us")
    bw = stat("autodiff.backward")
    per("autodiff.backward", "total", bw and bw.calls, 1e3, "autodiff.backward.ms_per_batch", "ms")
    if tracer.first_tape is not None:
        out["autodiff.nodes_per_batch"] = (sum(tracer.first_tape.values()), "count")
        for op, n in sorted(tracer.first_tape.items()):
            out[f"autodiff.nodes.{op}"] = (n, "count")

    for name in ("training.adam_step", "training.clip_gradients"):
        s = stat(name)
        per(name, "total", s and s.calls, 1e3, f"{name}.ms", "ms")
    per("training.train", "self_time", batches, 1e3, "training.train.self_ms_per_batch", "ms")

    for name in ("model.save_params", "model.load_params", "fileio.crc64",
                 "fileio.atomic_write_bytes"):
        rate(name, "bytes", f"{name}.mb_per_s", "MB/s", scale=1e-6)
    if counts["fileio.crc64"]["bytes"]:
        out["fileio.crc64.bytes_per_cycle"] = (counts["fileio.crc64"]["bytes"] / work["cycles"], "count")

    mm = stat("tensor.matmul")
    per("tensor.matmul", "calls", plain + taped, 1.0, "tensor.matmul.calls_per_window", "count")
    rate("tensor.matmul", "flops", "tensor.matmul.gflop_per_s", "GFLOP/s-computed", scale=1e-9)

    if main is not None:
        for name in ("model.forward", "model.build_forward", "autodiff.backward", "fileio.crc64"):
            s = stat(name)
            if s is not None:
                out[f"{name}.pct_of_commands"] = (100.0 * s.total / main.total, "%")
    return out
