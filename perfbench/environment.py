"""What a run measured on: versions, BLAS threads, host speed, code size.

Imported only after ``run.py`` has pinned the BLAS thread count in the
environment, so numpy's OpenBLAS starts with one thread.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
import time

import numpy as np

# Names under which OpenBLAS builds export the thread-count getter: the
# plain build, the 64-bit-integer build, and the prefixed build numpy wheels
# ship (scipy-openblas).
_GET_THREADS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


def _loaded_blas_libraries() -> list[str]:
    """Paths of the shared objects mapped into this process that look like BLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return []
    paths = {line.split()[-1] for line in lines if "/" in line}
    return sorted(p for p in paths if "blas" in os.path.basename(p).lower())


def blas_threads() -> int | None:
    """BLAS thread count in effect, read back from the library itself."""
    for path in _loaded_blas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _GET_THREADS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def calibrate() -> dict:
    """Host speed now: a one-thread GEMM rate and a pure-Python loop rate.

    Runs made while the host was slow show up as low values here.
    """
    n = 256
    a = np.random.default_rng(0).standard_normal((n, n))
    flops, start = 0.0, time.perf_counter()
    while time.perf_counter() - start < 0.2:
        a @ a
        flops += 2.0 * n**3
    gemm = flops / (time.perf_counter() - start) / 1e9

    iterations, start = 0, time.perf_counter()
    while time.perf_counter() - start < 0.1:
        total = 0
        for i in range(10_000):
            total += i
        iterations += 10_000
    loop = iterations / (time.perf_counter() - start)
    return {"gemm_gflop_per_s": round(gemm, 3), "python_loop_iter_per_s": round(loop)}


def code_lines(package_dir: str) -> int:
    """Non-blank lines that are not ``#`` comments, over every .py file."""
    count = 0
    for name in sorted(os.listdir(package_dir)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package_dir, name), encoding="utf-8") as fh:
            count += sum(1 for line in fh if line.strip() and not line.lstrip().startswith("#"))
    return count


def describe(package_dir: str) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_info(),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "calibration": calibrate(),
        "src_code_lines": code_lines(package_dir),
    }
