"""Deterministic parallel map over independent work items.

The pool is the only parallel layer: while any ``pmap`` runs, OpenBLAS is
pinned to one thread, and the caller's thread count comes back when the
outermost ``pmap`` returns or raises.  The per-item problems are far too
small for threaded BLAS, and with one BLAS thread the results no longer
depend on the BLAS thread count.  On a numpy not built on scipy-openblas
the pinning is a no-op.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _openblas_threads_api():
    """``(get, set)`` for the thread count of numpy's bundled OpenBLAS, or None."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


_OPENBLAS = _openblas_threads_api()
_pin_lock = threading.Lock()
_pin_depth = 0
_saved_threads = 0


@contextmanager
def _single_threaded_blas():
    """Pin OpenBLAS to one thread; nested and concurrent uses share one pin."""
    global _pin_depth, _saved_threads
    if _OPENBLAS is None:
        yield
        return
    get, put = _OPENBLAS
    with _pin_lock:
        if _pin_depth == 0:
            _saved_threads = get()
            put(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                put(_saved_threads)


def resolve_threads(requested: int | None = None) -> int:
    """Thread budget: requested count (or cpu count), capped by DYNSAMP_THREADS."""
    threads = requested if requested else (os.cpu_count() or 1)
    cap = os.environ.get("DYNSAMP_THREADS")
    if cap is not None:
        try:
            threads = min(threads, max(1, int(cap)))
        except ValueError:
            raise ValueError(f"DYNSAMP_THREADS must be an integer, got {cap!r}") from None
    return max(1, threads)


def pmap(fn, items, threads: int = 1) -> list:
    """Map ``fn`` over ``items``, results in input order regardless of scheduling.

    Each item is computed independently with OpenBLAS on one thread, so the
    results are bit-identical to the sequential map for any pool size and
    any BLAS thread count.
    """
    items = list(items)
    with _single_threaded_blas():
        if threads <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
            return list(pool.map(fn, items))
