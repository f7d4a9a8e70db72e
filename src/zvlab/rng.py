"""Counter-based random streams.

Every Brownian increment in the workbench is a pure function of
(global seed, path index, step index).  Streams are built on Philox,
a counter-based generator, so any path can be regenerated in isolation
and results do not depend on scheduling or worker count.

Paths are grouped in blocks of fixed width BLOCK.  Block b is driven by
Philox(key=(seed, b)); block_normals draws the block's whole increment
array in a single call with a fixed shape, which pins the stream layout.
Path i lives in lane i % BLOCK of block i // BLOCK.  The engines draw a
range of paths with lane_normals, which gives the same lanes step-major.
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


def lane_normals(seed: int, start: int, stop: int, n_steps: int,
                 d: int) -> np.ndarray:
    """The increments of paths start..stop-1, step-major: shape
    (n_steps, stop - start, d), path i at [:, i - start], bit for bit
    block_normals(seed, i // BLOCK, n_steps, d)[i % BLOCK].

    Each block is drawn from its first lane in calls of LANE_CHUNK lanes;
    successive calls continue one stream, so they give the bits of one
    call.  Lanes before start are drawn and dropped, so the draw costs
    stop - start + start % BLOCK lanes.
    """
    out = np.empty((n_steps, stop - start, d))
    buf = np.empty((LANE_CHUNK, n_steps, d))
    lane = start - start % BLOCK            # first lane of start's block
    while lane < stop:
        gen = block_generator(seed, lane // BLOCK)
        end = min(stop, lane + BLOCK)
        while lane < end:
            c = min(LANE_CHUNK, end - lane)
            gen.standard_normal(out=buf[:c])
            if lane + c > start:
                keep = max(start - lane, 0)
                out[:, lane + keep - start:lane + c - start] = \
                    buf[keep:c].transpose(1, 0, 2)
            lane += c
    return out


def uniform_points(seed: int, tag: int, n: int, low, high) -> np.ndarray:
    """Deterministic auxiliary sample (pair picking, certificate sampling).

    Tagged so different consumers of the same seed do not share a stream.
    """
    gen = np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(0xA0 + tag)]))
    low = np.asarray(low, dtype=float)
    high = np.asarray(high, dtype=float)
    shape = (n,) + low.shape if low.shape else (n,)
    return low + (high - low) * gen.random(shape)
