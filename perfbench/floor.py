"""Same-host floor and environment record.

The floor is measured in the same process as the workload, at the
workload's width: one read+write sweep of the ``2^n`` complex128 state
and a contiguous ``(2^(n-k), 2^k) @ (2^k, 2^k)`` GEMM for k = 1..5,
each the minimum over repeats.  On a host whose last-level cache is
larger than the state the sweep is a *same-size sweep*, not a DRAM
bandwidth figure.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import time
from typing import Dict, Iterable, Optional

import numpy as np

MAX_K = 5


def _best_ms(fn, repeats: int) -> float:
    fn()  # first touch / page faults stay out of the minimum
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def measure_floor(num_qubits: int, repeats: int = 12) -> Dict[str, float]:
    """``{"sweep_ms": .., "gemm_k1_ms": .., ..., "gemm_k5_ms": ..}``."""
    rng = np.random.default_rng(0)
    dim = 1 << num_qubits
    state = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    phase = np.complex128(np.exp(0.1j))
    out = {"sweep_ms": _best_ms(
        lambda: np.multiply(state, phase, out=state), repeats
    )}
    result = np.empty_like(state)
    for k in range(1, MAX_K + 1):
        rows = state.reshape(dim >> k, 1 << k)
        mat = rng.standard_normal((1 << k, 1 << k)) + 0j
        dest = result.reshape(dim >> k, 1 << k)
        out[f"gemm_k{k}_ms"] = _best_ms(
            lambda: np.matmul(rows, mat, out=dest), repeats
        )
    return out


def model_ms(
    floor: Dict[str, float], op_widths: Iterable[int], gathered_parts: int
) -> float:
    """Floor for one circuit execution: a GEMM of each fused op's width
    plus a gather and a scatter sweep for every gathered part."""
    total = sum(
        floor[f"gemm_k{min(max(int(w), 1), MAX_K)}_ms"] for w in op_widths
    )
    return total + 2.0 * floor["sweep_ms"] * gathered_parts


def _cache_sizes() -> Dict[str, str]:
    sizes: Dict[str, str] = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> Optional[int]:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    libdir = os.path.dirname(np.__file__) + ".libs"
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int, state_qubits: int) -> Dict[str, object]:
    """The host and configuration a result was measured under."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches_per_instance": _cache_sizes(),
        "state_mib": (16 << state_qubits) / float(1 << 20),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: v for k, v in os.environ.items()
            if k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS")
        },
        "repro_env": {
            k: v for k, v in sorted(os.environ.items())
            if k.startswith("REPRO_")
        },
    }
