"""Counter-based random streams.

Every Brownian increment in the workbench is a pure function of
(global seed, path index, step index).  Streams are built on Philox,
a counter-based generator, so any path can be regenerated in isolation
and results do not depend on scheduling or worker count.

Paths are grouped in blocks of fixed width BLOCK.  Block b is driven by
Philox(key=(seed, b)); block_normals draws the block's whole increment
array in a single call with a fixed shape, which pins the stream layout.
Path i lives in lane i % BLOCK of block i // BLOCK.  The engines draw a
range of paths with lane_normals, which gives the same lanes step-major,
at one step count or, from one pass over the stream, at several.
"""

from __future__ import annotations

import numpy as np

# Fixed block width.  Part of the reproducibility contract: changing it
# changes every stream, so it is a constant, not a knob.
BLOCK = 8192
LANE_CHUNK = 256          # lanes per generator call in lane_normals


def block_generator(seed: int, block_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(block_index)]))


def block_normals(seed: int, block_index: int, n_steps: int, d: int,
                  width: int | None = None) -> np.ndarray:
    """Standard-normal increments for one block, shape (width, n_steps, d).

    The generator fills arrays row-major from one sequential stream, so a
    draw of the first `width` lanes is bit-identical to the corresponding
    prefix of the full-BLOCK draw; lane content never depends on how many
    paths a run asks for.
    """
    gen = block_generator(seed, block_index)
    w = BLOCK if width is None else min(width, BLOCK)
    return gen.standard_normal((w, n_steps, d))


def lane_normals(seed: int, start: int, stop: int, n_steps, d: int):
    """The increments of paths start..stop-1, step-major: shape
    (n_steps, stop - start, d), path i at [:, i - start], bit for bit
    block_normals(seed, i // BLOCK, n_steps, d)[i % BLOCK].

    n_steps may be a sequence of step counts; then the result is a list of
    such arrays, one per count, each a view of one allocation, and stop may
    be a sequence too, one stop per count.  Lane i of a block drawn at n
    steps holds the block stream's normals [i n d, (i + 1) n d), so one
    pass over the stream at the largest count, to the largest stop, holds
    every count's lanes, and each is cut from it as it is drawn.

    Each block is drawn from its first lane in calls of LANE_CHUNK lanes at
    the largest count; successive calls continue one stream, so they give
    the bits of one call.  Lanes before start are drawn and dropped, so the
    draw costs stop - start + start % BLOCK lanes at the largest count.
    """
    single = np.ndim(n_steps) == 0
    counts = [n_steps] if single else list(n_steps)
    stops = list(stop) if np.ndim(stop) else [stop] * len(counts)
    flat = np.empty(sum(n * (s - start) for n, s in zip(counts, stops)) * d)
    outs, at = [], 0
    for n, s in zip(counts, stops):
        outs.append(flat[at:at + n * (s - start) * d].reshape(n, s - start, d))
        at += n * (s - start) * d
    top, last = max(counts), max(stops)
    buf = np.empty(LANE_CHUNK * top * d)
    lane = start - start % BLOCK            # first lane of start's block
    while lane < last:
        gen = block_generator(seed, lane // BLOCK)
        lo, hi = max(start, lane) - lane, min(last, lane + BLOCK) - lane
        pos, end = 0, hi * top * d
        while pos < end:
            c = min(buf.size, end - pos)
            gen.standard_normal(out=buf[:c])
            for out, s in zip(outs, stops):
                _cut(buf[:c], pos, out, lo, min(hi, s - lane), lane + lo - start)
            pos += c
        lane += BLOCK
    return outs[0] if single else outs


def _cut(v, pos, out, lo, hi, col):
    """Copy what v, a block's stream from position pos, holds of the block's
    lanes lo..hi-1 at out's step count into the step-major out, lane lo at
    column col.  A lane that v holds only in part gives the steps it holds."""
    n, _, d = out.shape
    ln = n * d                              # stream positions per lane
    a, b = max(pos, lo * ln), min(pos + v.size, hi * ln)
    while a < b:
        lane, off = divmod(a, ln)
        if off or b - a < ln:               # part of one lane
            e = min(b, (lane + 1) * ln)
            out[off // d:(e - lane * ln) // d, col + lane - lo] = \
                v[a - pos:e - pos].reshape(-1, d)
            a = e
        else:                               # whole lanes
            k = (b - a) // ln
            out[:, col + lane - lo:col + lane - lo + k] = \
                v[a - pos:a - pos + k * ln].reshape(k, n, d).transpose(1, 0, 2)
            a += k * ln


def uniform_points(seed: int, tag: int, n: int, low, high) -> np.ndarray:
    """Deterministic auxiliary sample (pair picking, certificate sampling).

    Tagged so different consumers of the same seed do not share a stream.
    """
    gen = np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(0xA0 + tag)]))
    low = np.asarray(low, dtype=float)
    high = np.asarray(high, dtype=float)
    shape = (n,) + low.shape if low.shape else (n,)
    return low + (high - low) * gen.random(shape)
