"""Chunked path-parallel map-reduce.

Paths are processed in contiguous chunks in path order; a chunk function
returns a dict of per-path arrays which are concatenated chunk by chunk.
Stream ids are assigned by path index, a chunk function computes each path's
results without reference to the other paths of its chunk, and the
concatenation order is fixed, so results are bit-identical for any worker
count and any chunking.  The chunk size is therefore an execution detail:
:func:`chunk_size` gives each worker one chunk.  A chunk's memory does not
grow with the horizon, since ``flow.NoiseSource`` draws each path's noise a
block of steps at a time.
Workers use the fork start method and read the active chunk function from a
module global, so closures over systems and schedules need no pickling.
``multiprocessing`` is imported by the first :func:`run_chunks` call that
forks, so a process that runs every chunk inline never loads it.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from .errors import check_whole

#: chunk size of a :func:`run_chunks` call that does not choose one
DEFAULT_CHUNK = 1024

_ACTIVE_FN = None


def _trampoline(span):
    return _ACTIVE_FN(*span)


def chunk_size(n_paths: int, workers: int) -> int:
    """One chunk per worker: ceil(n_paths / workers) paths."""
    check_whole("n_paths", n_paths)
    return -(-n_paths // max(workers, 1))


def run_chunks(n_paths: int, fn: Callable[[int, int], Dict[str, np.ndarray]],
               workers: int = 1, chunk: int = DEFAULT_CHUNK) -> Dict[str, np.ndarray]:
    """Apply fn(lo, hi) over chunks of [0, n_paths) and concatenate results."""
    global _ACTIVE_FN
    check_whole("n_paths", n_paths)
    spans = [(lo, min(lo + chunk, n_paths)) for lo in range(0, n_paths, chunk)]
    if workers <= 1 or len(spans) == 1:
        parts = [fn(lo, hi) for lo, hi in spans]
    else:
        import multiprocessing

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
