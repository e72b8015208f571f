"""Chunked path-parallel map-reduce.

Paths are processed in fixed-size chunks in fixed order; a chunk function
returns a dict of per-path arrays which are concatenated chunk by chunk.
Because stream ids are assigned by path index and the reduction order is
fixed, results are bit-identical for any worker count.  Workers use the fork
start method and read the active chunk function from a module global, so
closures over systems and schedules need no pickling.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Dict

import numpy as np

from .errors import ContractError

DEFAULT_CHUNK = 1024

_ACTIVE_FN = None


def _trampoline(span):
    return _ACTIVE_FN(*span)


def run_chunks(n_paths: int, fn: Callable[[int, int], Dict[str, np.ndarray]],
               workers: int = 1, chunk: int = DEFAULT_CHUNK) -> Dict[str, np.ndarray]:
    """Apply fn(lo, hi) over fixed chunks of [0, n_paths) and concatenate results."""
    global _ACTIVE_FN
    if not isinstance(n_paths, (int, np.integer)) or n_paths < 1:
        raise ContractError(f"need a whole number of paths >= 1, got n_paths={n_paths!r}")
    spans = [(lo, min(lo + chunk, n_paths)) for lo in range(0, n_paths, chunk)]
    if workers <= 1 or len(spans) == 1:
        parts = [fn(lo, hi) for lo, hi in spans]
    else:
        ctx = multiprocessing.get_context("fork")
        _ACTIVE_FN = fn
        try:
            with ctx.Pool(processes=min(workers, len(spans))) as pool:
                parts = pool.map(_trampoline, spans)
        finally:
            _ACTIVE_FN = None
    out: Dict[str, np.ndarray] = {}
    for key in parts[0]:
        out[key] = np.concatenate([p[key] for p in parts], axis=0)
    return out
