"""Counter-based random streams.

Every stream is a Philox generator whose 128-bit key is derived by hashing a
user seed together with a tuple of string/int tags.  Distinct tags give
statistically independent streams, so the Gamma-mixing draws, every Brownian
replication, and the backward (two-sided) drivers all live in separate
namespaces of one user seed.  Outputs depend only on (seed, tags), never on
thread count or work chunking.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Draws are produced in fixed-size blocks keyed by (seed, tags, block index),
# so any chunked/parallel producer reassembles bit-identical output.
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
        raise ValueError("start and count must be nonnegative")
    out = np.empty(count)
    pos = 0
    i = start
    while pos < count:
        block_idx, offset = divmod(i, BLOCK)
        take = min(BLOCK - offset, count - pos)
        block = stream(seed, *tags, "block", block_idx).random(BLOCK)
        out[pos : pos + take] = block[offset : offset + take]
        pos += take
        i += take
    # guard against exact zeros; inverse-CDF consumers need u in (0, 1)
    np.copyto(out, np.nextafter(0.0, 1.0), where=(out == 0.0))
    return out


def worker_count() -> int:
    """Worker threads for row-parallel fills and FFTs, from FRACOU_THREADS
    (default 1), clamped to [1, os.cpu_count()].

    Affects runtime only: every row is derived from its own (seed, tags, row)
    stream and written to its own slice, and every FFT row is transformed
    alone with one plan, so output bits never depend on the schedule.
    """
    import os

    try:
        n = int(os.environ.get("FRACOU_THREADS", "1"))
    except ValueError:
        n = 1
    return max(1, min(n, os.cpu_count() or 1))


def normal_rows(seed: int, tags: tuple, n_rows: int, n_cols: int,
                row_offset: int = 0) -> np.ndarray:
    """Matrix of standard normals with one independent stream per row.

    Row r of the result equals row 0 of a call with row_offset=r, so row-wise
    chunking or threading cannot change any value.  Rows are split over the
    worker threads once the call fills POOL_NORMALS normals, so a few long
    rows are threaded as well as many short ones.
    """
    out = np.empty((n_rows, n_cols))

    def fill(r0: int, r1: int) -> None:
        for r in range(r0, r1):
            out[r] = stream(seed, *tags, "row",
                            row_offset + r).standard_normal(n_cols)

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
