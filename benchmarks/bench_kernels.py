"""Timing of the hot kernels and of the block-map convolution.

Run directly:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--n 2000000] [--repeats 5]

`n` is the element count of the Morton and row kernels; the guided skip
adds n // 8 encoder rows at 32 channels into a decoder level of n // 8
rows, about 36 % of them open (as on the depth-5 shape benchmark's
decoder), forward and backward; the convolution runs at 32 channels,
forward and backward, building its block map from the parent level's tap
pairs, once over the depth-8 level of an octree over n // 32 points on a
sphere with every row read, as a decoder level reads it (its map build is
also timed alone), and once ("sparse") over the depth-8 level of an octree
over n // 256 points, whose stencil is about 5 % valid, like the scene
input's finest level, read at its nonempty rows; downsample and max_pool
run forward and backward at 32 channels over that sparse level's block
map, as the scene input head calls them, downsample over the level's
nonempty rows, the rows a residual stream keeps; train-mode batch norm
with the fused relu runs forward and backward over a tall, narrow map of
n // 20 rows at 4 channels, a wide one of n // 128 rows at 128 channels
and a tall one of n // 18 rows at 32 channels (about 109k rows at the
default n, as train-scene's depth-7 level), and eval-mode batch norm,
forward and backward too, over that tall one; the depth-8 level of an octree over n // 32 points on a sphere
gets its neighbor table by key search, and its tap pairs derived from its
parent level's pairs, as does the depth-5 level of a batch of four octrees
over n // 32 points on spheres each; and `sample_points` draws 4 points on
each of n // 8 random planar patches.
"""

import argparse
import time

import numpy as np

from octcomplete import autodiff as ad
from octcomplete import kernels, network, nn, octree, skip


def timeit(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def conv_step(level, weight):
    """Block map build, convolution and backward over `level`, a (parent
    level, its tap pairs, child status) triple from conv_levels."""
    bmap = nn.BlockMap(*level)
    x = ad.parameter(np.ones((bmap.n_nonempty, weight.shape[1] // 27), weight.dtype))
    w = ad.parameter(weight)
    with ad.Tape():
        y = nn.octree_conv(x, bmap, w)
        ad.backward(ad.sum_all(y))


def down_step(feats, bmap, weight):
    x = ad.parameter(feats)
    w = ad.parameter(weight)
    with ad.Tape():
        y = nn.downsample(x, bmap, w)
        ad.backward(ad.sum_all(y))


def pool_step(feats, bmap):
    x = ad.parameter(feats)
    with ad.Tape():
        y = nn.max_pool(x, bmap)
        ad.backward(ad.sum_all(y))


def bn_step(feats, params, train=True):
    x = ad.parameter(feats)
    with ad.Tape():
        y = nn.batch_norm(x, params, train, relu=True)
        ad.backward(ad.sum_all(y))


def skip_step(d_feats, e_feats, align, parent_index, status):
    d = ad.parameter(d_feats)
    e = ad.parameter(e_feats)
    with ad.Tape():
        y = skip.guided_skip_add(d, e, align, parent_index, skip.StatusMask(status))
        ad.backward(ad.sum_all(y))


def random_skip(rng, rows):
    """Alignment and parent statuses for a decoder level of `rows` (a
    multiple of 8) against as many encoder rows: 60 % of the rows have a
    distinct encoder row and 60 % of the parents are open, so about 36 % of
    the rows get an encoder row added."""
    align = np.full(rows, -1, dtype=np.int64)
    hit = rng.random(rows) < 0.6
    align[hit] = rng.permutation(rows)[: np.count_nonzero(hit)]
    parent_index = np.repeat(np.arange(rows // 8), 8)
    status = (rng.random(rows // 8) < 0.6).astype(np.float64)
    return align, parent_index, status


def shell_octree(rng, points, depth):
    """An octree over `points` random points on a sphere, a surface like a scan's."""
    p = rng.standard_normal((points, 3))
    p = 0.5 + 0.45 * p / np.linalg.norm(p, axis=1, keepdims=True)
    cells = octree.points_to_cells(p, depth)
    return octree.octree_from_codes(octree.keys_from_coords(*cells.T), depth)


def conv_levels(shell, sparse):
    """The conv cases' (parent level, its tap pairs, child status): the
    depth-8 level of `shell` with every row read, and that of `sparse` read
    at its nonempty rows."""
    return (
        (shell.levels[7], shell.pairs(7), None),
        (sparse.levels[7], sparse.pairs(7), sparse.levels[8].status),
    )


def random_patches(rng, leaves, depth):
    """A predicted shape with `leaves` distinct cells, each cut by a random plane."""
    cells = rng.choice(1 << (3 * depth), size=leaves, replace=False)
    codes = np.sort(octree.keys_from_coords(*np.unravel_index(cells, (1 << depth,) * 3)))
    patches = rng.uniform(-1.0, 1.0, size=(leaves, 4))
    return network.PredictedShape(depth=depth, leaf_codes=codes, patches=patches)


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
    weight = rng.standard_normal((32, 27 * 32)).astype(np.float32)
    children = feats[: 8 * (feats.shape[0] // 8)]
    down_weight = rng.standard_normal((32, 8 * 32)).astype(np.float32)
    enc_feats = rng.standard_normal(children.shape).astype(np.float32)
    skip_args = (children, enc_feats, *random_skip(rng, len(children)))
    shape = random_patches(rng, n // 8, depth=8)
    shell = network.OctreeBatch([shell_octree(rng, n // 32, depth=8)])
    up, fine = shell.levels[7], shell.levels[8]
    shells5 = network.OctreeBatch([shell_octree(rng, n // 32, depth=5) for _ in range(4)])
    sparse = network.OctreeBatch([shell_octree(rng, n // 256, depth=8)])
    full_level, sparse_level = conv_levels(shell, sparse)
    sparse_map = nn.BlockMap(*sparse_level)
    sparse_feats = rng.standard_normal((sparse_map.rows, 32)).astype(np.float32)
    sparse_kept = nn.nonempty(ad.constant(sparse_feats), sparse_map).values
    up_pairs, up5_pairs = shell.pairs(7), shells5.pairs(4)
    bn_maps = [
        rng.normal(2.0, 3.0, size=(n // r, c)).astype(np.float32)
        for r, c in ((20, 4), (128, 128), (18, 32))
    ]
    bn_params = [nn.make_bn(nn.Parameters(), "bn", m.shape[1]) for m in bn_maps]

    cases = [
        ("interleave3", lambda: kernels.interleave3(x, y, z)),
        ("deinterleave3", lambda: kernels.deinterleave3(codes)),
        ("gather_rows", lambda: kernels.gather_rows(feats, idx)),
        ("guided skip fwd+bwd", lambda: skip_step(*skip_args)),
        ("block map build", lambda: nn.BlockMap(*full_level)),
        ("neighbor_table", lambda: octree.neighbor_table(fine.keys, fine.status, 8)),
        ("child_pairs", lambda: octree.child_pairs(up, up_pairs, fine.status)),
        ("child_pairs depth 5", lambda: octree.child_pairs(
            shells5.levels[4], up5_pairs, shells5.levels[5].status)),
        ("conv fwd+bwd", lambda: conv_step(full_level, weight)),
        ("conv fwd+bwd sparse", lambda: conv_step(sparse_level, weight)),
        ("downsample fwd+bwd", lambda: down_step(sparse_kept, sparse_map, down_weight)),
        ("max_pool fwd+bwd", lambda: pool_step(sparse_feats, sparse_map)),
        ("batch_norm fwd+bwd", lambda: bn_step(bn_maps[0], bn_params[0])),
        ("batch_norm fwd+bwd wide", lambda: bn_step(bn_maps[1], bn_params[1])),
        ("batch_norm fwd+bwd tall", lambda: bn_step(bn_maps[2], bn_params[2])),
        ("batch_norm fwd+bwd eval", lambda: bn_step(bn_maps[2], bn_params[2], train=False)),
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
