"""Timing of the hot kernels and of one kernel-map convolution.

Run directly:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--n 2000000] [--repeats 5]

`n` is the element count of the Morton and row kernels; the convolution
runs 27 taps over n // 8 rows at 32 channels, forward and backward; the
downsample reads n // 8 child rows (3 in 10 empty) at 32 channels as blocks
of 8 under half as many parents, forward and backward; the depth-8 level of
an octree over n // 32 points on a sphere gets its neighbor table once by
key search and once derived from its parent level's table; and
`sample_points` draws 4 points on each of n // 8 random planar patches.
"""

import argparse
import time

import numpy as np

from octcomplete import autodiff as ad
from octcomplete import kernels, network, nn, octree


def timeit(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def random_stencil(rng, rows, taps):
    """A column-injective (rows, taps) table: shifted rows with random holes."""
    shifts = rng.integers(-rows // 4, rows // 4, size=taps)
    table = (np.arange(rows)[:, None] + shifts[None, :]) % rows
    table[rng.random(table.shape) < 0.3] = -1
    return table


def conv_step(feats, table, weight):
    x = ad.parameter(feats)
    w = ad.parameter(weight)
    with ad.Tape():
        y = nn.octree_conv(x, table, nn.ConvParams(x.channels, 3, 1, w))
        ad.backward(ad.sum_all(y))


def down_step(feats, status, child_status, weight):
    x = ad.parameter(feats)
    w = ad.parameter(weight)
    with ad.Tape():
        y = nn.downsample(x, status, child_status, nn.ConvParams(x.channels, 2, 2, w))
        ad.backward(ad.sum_all(y))


def random_blocks(rng, children):
    """Parent and child statuses for `children` rows (a multiple of 8): half
    the parents own a block of 8 children, 3 in 10 children are empty."""
    owners = children // 8
    status = np.zeros(2 * owners, dtype=np.uint8)
    status[rng.choice(2 * owners, size=owners, replace=False)] = 1
    child_status = (rng.random(children) >= 0.3).astype(np.uint8)
    return status, child_status


def shell_octree(rng, points, depth):
    """An octree over `points` random points on a sphere, a surface like a scan's."""
    p = rng.standard_normal((points, 3))
    p = 0.5 + 0.45 * p / np.linalg.norm(p, axis=1, keepdims=True)
    cells = octree.points_to_cells(p, depth)
    return octree.octree_from_codes(octree.keys_from_coords(*cells.T), depth)


def random_patches(rng, leaves, depth):
    """A predicted shape with `leaves` distinct cells, each cut by a random plane."""
    cells = rng.choice(1 << (3 * depth), size=leaves, replace=False)
    codes = np.sort(octree.keys_from_coords(*np.unravel_index(cells, (1 << depth,) * 3)))
    patches = rng.uniform(-1.0, 1.0, size=(leaves, 4))
    return network.PredictedShape(depth=depth, octree=None, leaf_codes=codes, patches=patches)


def bench(n, repeats):
    """Print one line per kernel with its best time over `repeats`; return the rows."""
    rng = np.random.default_rng(0)
    depth = 10
    x = rng.integers(0, 1 << depth, size=n, dtype=np.uint64)
    y = rng.integers(0, 1 << depth, size=n, dtype=np.uint64)
    z = rng.integers(0, 1 << depth, size=n, dtype=np.uint64)
    codes = kernels.interleave3(x, y, z)
    feats = rng.standard_normal((n // 8 + 1, 32)).astype(np.float32)
    idx = rng.integers(-1, feats.shape[0], size=n).astype(np.int64)
    rows = rng.standard_normal((n, 32)).astype(np.float32)
    table = random_stencil(rng, feats.shape[0], 27)
    weight = rng.standard_normal((32, 27 * 32)).astype(np.float32)
    children = feats[: 8 * (feats.shape[0] // 8)]
    status, child_status = random_blocks(rng, len(children))
    down_weight = rng.standard_normal((32, 8 * 32)).astype(np.float32)
    shape = random_patches(rng, n // 8, depth=8)
    shell = shell_octree(rng, n // 32, depth=8)
    up, fine = shell.levels[7], shell.levels[8]
    up_table = octree.neighbor_table(up.keys, up.status, 7)

    cases = [
        ("interleave3", lambda: kernels.interleave3(x, y, z)),
        ("deinterleave3", lambda: kernels.deinterleave3(codes)),
        ("gather_rows", lambda: kernels.gather_rows(feats, idx)),
        ("scatter_add", lambda: kernels.scatter_add(np.zeros_like(feats), idx, rows)),
        ("invert_table", lambda: kernels.invert_table(table, feats.shape[0])),
        ("neighbor_table", lambda: octree.neighbor_table(fine.keys, fine.status, 8)),
        ("child_neighbor_table", lambda: octree.child_neighbor_table(up, up_table, fine.status)),
        ("conv fwd+bwd", lambda: conv_step(feats, table, weight)),
        ("downsample fwd+bwd", lambda: down_step(children, status, child_status, down_weight)),
        ("sample_points", lambda: network.sample_points(shape, samples_per_node=4)),
    ]
    table_rows = [(name, f"{timeit(call, repeats):.4f}") for name, call in cases]
    width = max(len(name) for name, _ in table_rows)
    print(f"{'kernel'.ljust(width)}  s")
    for name, t in table_rows:
        print(f"{name.ljust(width)}  {t}")
    return table_rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=2_000_000)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    print(f"elements: {args.n}, best of {args.repeats}")
    bench(args.n, args.repeats)


if __name__ == "__main__":
    main()
