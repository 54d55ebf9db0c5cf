"""Deterministic parallel map over independent work items."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


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

    Each item is computed independently, so the results are bit-identical to
    the sequential map for any thread count.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))
