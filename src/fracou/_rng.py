"""Counter-based random streams.

A namespace (seed, tags) is keyed once: its Philox key is a SHA-256 hash of
the user seed and the string/int tags, and its draws are addressed by the
Philox counter (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11).  Row r of a normal matrix starts at counter [0, 0, r, 0]; a
block of mixing rates or any other single stream starts at counter 0 of a
namespace of its own.  The Brownian driver lives in two namespace families,
"w" (forward cells, one row per replication) and "wtilde" (backward cells, a
Brownian-bridge tree: see tree_cells), the mixing rates in a third ("alphas",
mu, lam, "block", b).  Outputs depend only on (seed, tags, index), never on
work chunking.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import DomainError

# Mixing rates (and uniforms) are drawn in fixed-size blocks keyed by (seed,
# tags, block index), so any chunked producer reassembles bit-identical output.
BLOCK = 4096
# the backward driver's tree: cells of level TREE_TOP (2^TREE_TOP unit cells)
# are drawn whole, finer ones by bridge splits; one Philox row holds the node
# normals of TREE_SPAN nodes of one level for TREE_REPS replications
TREE_TOP = 12
TREE_SPAN = 64
TREE_REPS = 16


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
    calls: draw i always comes from block i // BLOCK.  No library function
    calls it (the rates are standard_gamma draws, see mixing.sample_alphas);
    the benchmark's tracer (perfbench/layertrace.py) wraps it by name.
    """
    if count < 0 or start < 0:
        raise DomainError("start and count must be nonnegative")
    first = start // BLOCK
    blocks = [stream(seed, *tags, "block", b).random(BLOCK)
              for b in range(first, -(-(start + count) // BLOCK))]
    out = np.concatenate([np.empty(0), *blocks])[start % BLOCK:][:count]
    # guard against exact zeros: the interval is open
    np.copyto(out, np.nextafter(0.0, 1.0), where=(out == 0.0))
    return out


def normal_rows(seed: int, tags: tuple, n_rows: int, n_cols: int,
                row_offset: int = 0) -> np.ndarray:
    """Standard normals, row r from counter [0, 0, row_offset + r, 0] of the
    key of (seed, tags); a negative row raises DomainError.

    Row r of the result equals row 0 of a call with row_offset=r, so row-wise
    chunking cannot change any value.
    """
    if row_offset < 0:
        raise DomainError(f"rows are numbered from 0, got row {row_offset}")
    bits = np.random.Philox(key=_key(seed, tags))
    gen, state = np.random.Generator(bits), bits.state
    out = np.empty((n_rows, n_cols))
    for r in range(n_rows):  # one generator, reset to each row's counter
        state["state"]["counter"][2] = row_offset + r
        bits.state = state
        gen.standard_normal(out=out[r])
    return out


def tree_cells(seed: int, tags: tuple, n_rows: int, levels, indices,
               row_offset: int = 0) -> np.ndarray:
    """Increments of the dyadic cells (levels[c], indices[c]) of replications
    row_offset .. row_offset + n_rows - 1 of one Brownian motion with unit
    variance per unit cell, shape (n_rows, len(levels)).

    Cell (l, i) spans the unit cells i 2^l .. (i + 1) 2^l - 1, l <= TREE_TOP.
    It is built by Levy's construction: a cell of level TREE_TOP is
    2^(TREE_TOP/2) z, and a cell S of level l >= 1 splits into the children
    (l-1, 2i) = S/2 + 2^(l/2) z / 2 and (l-1, 2i+1) = S/2 - 2^(l/2) z / 2, with
    z the node normal of (l, i).  So every cell is the sum of its two
    children, up to rounding, whatever level a call asks for.  The normal of
    node (l, i) is entry (i % TREE_SPAN) * TREE_REPS + r % TREE_REPS of row
    r // TREE_REPS of namespace (seed, *tags, l, i // TREE_SPAN), with l
    spelled "top" for the whole-cell draws: a cell never depends on which
    other cells, rows or levels were asked for.
    """
    levels = np.asarray(levels, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if row_offset < 0:
        raise DomainError(f"rows are numbered from 0, got row {row_offset}")
    if levels.size and (levels.min() < 0 or levels.max() > TREE_TOP
                        or indices.min() < 0):
        raise DomainError(f"tree cells need levels in [0, {TREE_TOP}] and "
                          "indices >= 0")
    b0 = row_offset // TREE_REPS
    n_blocks = -(-(row_offset + n_rows) // TREE_REPS) - b0
    n_reps = n_blocks * TREE_REPS

    def node_normals(level, nodes):
        # nodes are sorted and unique; one normal_rows call per namespace;
        # node-major, shape (nodes, replications)
        out = np.empty((nodes.size, n_reps))
        spans = nodes // TREE_SPAN
        for b in np.unique(spans):
            lo, hi = np.searchsorted(spans, [b, b + 1])
            local = nodes[lo:hi] - b * TREE_SPAN
            z = normal_rows(seed, (*tags, level, int(b)), n_blocks,
                            (int(local[-1]) + 1) * TREE_REPS, row_offset=b0)
            z = z.reshape(n_blocks, -1, TREE_REPS)[:, local, :]
            out[lo:hi] = z.transpose(1, 0, 2).reshape(hi - lo, n_reps)
        return out

    def take(values, have, want):
        # rows of values (one per node of have) at the nodes want
        if want.size == have.size:
            return values  # want is a subset of have, so it is all of it
        return values[np.searchsorted(have, want)]

    # nodes of each level: the asked cells there and the ancestors of finer
    # ones
    need = [np.unique(indices[levels <= l] >> (l - levels[levels <= l]))
            for l in range(TREE_TOP + 1)]
    sums = [None] * (TREE_TOP + 1)
    sums[TREE_TOP] = 2.0 ** (TREE_TOP / 2) * node_normals("top", need[TREE_TOP])
    for l in range(TREE_TOP, 0, -1):
        kids = need[l - 1]
        if not kids.size:
            break
        parents = np.unique(kids >> 1)
        half = 0.5 * take(sums[l], need[l], parents)
        z = 2.0 ** (l / 2 - 1) * node_normals(l, parents)
        pair = np.empty((parents.size, 2, n_reps))
        np.add(half, z, out=pair[:, 0])
        np.subtract(half, z, out=pair[:, 1])
        pair_nodes = (2 * parents[:, None] + np.arange(2)).ravel()
        sums[l - 1] = take(pair.reshape(-1, n_reps), pair_nodes, kids)
    out = np.empty((levels.size, n_reps))
    for l in np.unique(levels):
        cols = np.nonzero(levels == l)[0]
        out[cols] = take(sums[l], need[l], indices[cols])
    out = out.T
    lo = row_offset - b0 * TREE_REPS
    return out[lo : lo + n_rows]
