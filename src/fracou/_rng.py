"""Counter-based random streams.

A namespace (seed, tags) is keyed once: its Philox key is a SHA-256 hash of
the user seed and the string/int tags, and its draws are addressed by the
Philox counter (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11).  Row r of a normal matrix starts at counter [0, 0, r, 0]; a
uniform block or a single stream starts at counter 0 of a namespace of its
own.  The Brownian driver lives in two namespaces, "w" (forward cells) and
"wtilde" (backward cells), the mixing rates in a third.  Outputs depend only
on (seed, tags, index), never on thread count or work chunking.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from .errors import DomainError

# Uniforms are produced in fixed-size blocks keyed by (seed, tags, block
# index), so any chunked producer reassembles bit-identical output.
BLOCK = 4096
# normal_rows fills calls of fewer normals in the calling thread, where a
# pool's start-up would cost about as much as the whole fill
POOL_NORMALS = 1 << 12


def _key(seed: int, tags: tuple) -> np.ndarray:
    h = hashlib.sha256()
    h.update(b"fracou-v1")
    h.update(int(seed).to_bytes(16, "little", signed=True))
    for t in tags:
        h.update(repr(t).encode())
        h.update(b"\x1f")
    digest = h.digest()
    return np.frombuffer(digest[:16], dtype=np.uint64)


def stream(seed: int, *tags) -> np.random.Generator:
    """Independent Generator for the namespace (seed, tags)."""
    return np.random.Generator(np.random.Philox(key=_key(seed, tags)))


def uniforms(seed: int, tags: tuple, start: int, count: int) -> np.ndarray:
    """Open-interval uniforms u_{start}..u_{start+count-1} of a blocked stream.

    Identical results no matter how [start, start+count) is split across
    calls: draw i always comes from block i // BLOCK.
    """
    if count < 0 or start < 0:
        raise DomainError("start and count must be nonnegative")
    first = start // BLOCK
    blocks = [stream(seed, *tags, "block", b).random(BLOCK)
              for b in range(first, -(-(start + count) // BLOCK))]
    out = np.concatenate([np.empty(0), *blocks])[start % BLOCK:][:count]
    # guard against exact zeros; inverse-CDF consumers need u in (0, 1)
    np.copyto(out, np.nextafter(0.0, 1.0), where=(out == 0.0))
    return out


def worker_count() -> int:
    """Worker threads for row-parallel fills and FFTs, from FRACOU_THREADS
    (default 1), clamped to [1, os.cpu_count()].

    Affects runtime only: every row is drawn from its own counter and written
    to its own slice, and every FFT row is transformed alone with one plan,
    so output bits never depend on the schedule.
    """
    try:
        n = int(os.environ.get("FRACOU_THREADS", "1"))
    except ValueError:
        n = 1
    return max(1, min(n, os.cpu_count() or 1))


def normal_rows(seed: int, tags: tuple, n_rows: int, n_cols: int,
                row_offset: int = 0) -> np.ndarray:
    """Standard normals, row r from counter [0, 0, row_offset + r, 0] of the
    key of (seed, tags); a negative row raises DomainError.

    Row r of the result equals row 0 of a call with row_offset=r, so row-wise
    chunking or threading cannot change any value.  Rows are split over the
    worker threads once the call fills POOL_NORMALS normals, so a few long
    rows are threaded as well as many short ones.
    """
    if row_offset < 0:
        raise DomainError(f"rows are numbered from 0, got row {row_offset}")
    key = _key(seed, tags)
    out = np.empty((n_rows, n_cols))

    def fill(r0: int, r1: int) -> None:
        # one generator per thread, reset to each row's counter
        bits = np.random.Philox(key=key)
        gen, state = np.random.Generator(bits), bits.state
        for r in range(r0, r1):
            state["state"]["counter"][2] = row_offset + r
            bits.state = state
            gen.standard_normal(out=out[r])

    workers = min(worker_count(), n_rows)
    if workers == 1 or n_rows * n_cols < POOL_NORMALS:
        fill(0, n_rows)
    else:
        from concurrent.futures import ThreadPoolExecutor

        step = (n_rows + workers - 1) // workers
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(fill, r0, min(r0 + step, n_rows))
                    for r0 in range(0, n_rows, step)]
            for f in futs:
                f.result()
    return out
