"""Neural operators against dense-grid oracles and adjoint identities."""

import tracemalloc
import weakref

import numpy as np
import pytest

from octcomplete import autodiff as ad
from octcomplete import data as dt
from octcomplete import kernels, nn
from octcomplete.autodiff import FeatureMap
from octcomplete.errors import DomainError
from octcomplete.network import DecoderState, OctreeBatch
from octcomplete.octree import (
    _CHILD_SLOT,
    _PARENT_TAP,
    build_octree,
    coords_from_keys,
    neighbor_table,
    make_level,
    octree_from_codes,
    root_pairs,
)

from conftest import child_table, conv_oracle, nbr_table, numeric_grad


def complete_octree(depth):
    return octree_from_codes(np.arange(1 << (3 * depth), dtype=np.uint64), depth)


def to_grid(octree, level, feats):
    n = 1 << level
    xs, ys, zs = coords_from_keys(octree.levels[level].keys)
    grid = np.zeros((n, n, n, feats.shape[1]), dtype=feats.dtype)
    grid[xs, ys, zs] = feats
    return grid


def from_grid(octree, level, grid):
    xs, ys, zs = coords_from_keys(octree.levels[level].keys)
    return grid[xs, ys, zs]


def dense_conv3(grid, weight, cin, cout):
    """Zero-padded 3x3x3 dense convolution, tap order dz-major / dx-minor."""
    n = grid.shape[0]
    pad = np.zeros((n + 2, n + 2, n + 2, cin), dtype=grid.dtype)
    pad[1:-1, 1:-1, 1:-1] = grid
    out = np.zeros((n, n, n, cout), dtype=grid.dtype)
    t = 0
    for dz in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                w = weight[:, t * cin : (t + 1) * cin]
                shifted = pad[1 + dx : n + 1 + dx, 1 + dy : n + 1 + dy, 1 + dz : n + 1 + dz]
                out += shifted @ w.T
                t += 1
    return out


def dense_down(grid, weight, cin, cout):
    """Stride-2 kernel-2 dense convolution; tap order is the child digit."""
    n = grid.shape[0] // 2
    out = np.zeros((n, n, n, cout), dtype=grid.dtype)
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                t = (dx << 2) | (dy << 1) | dz
                w = weight[:, t * cin : (t + 1) * cin]
                out += grid[dx::2, dy::2, dz::2] @ w.T
    return out


def conv_case(case):
    """An octree, a level, and the group kinds of that level's BlockMap.

    A depth ("2", "3"): the complete octree, every row nonempty, so every
    parent tap runs merged. "leaf": one nonempty leaf among its 7 empty
    siblings, so its one parent tap, the centre, splits. "scan": a scanned
    cylinder's depth-5 level, merged and split taps side by side.
    """
    if case == "leaf":
        return octree_from_codes(np.array([100], dtype=np.uint64), 3), 3, {nn.SPLIT}
    if case == "scan":
        return scan_octree(depth=5), 5, {nn.MERGED, nn.SPLIT}
    depth = int(case)
    return complete_octree(depth), depth, {nn.MERGED}


def block_map_of(o, level, kinds=None):
    """The BlockMap of an Octree's `level`, built as a network builds it."""
    bmap = OctreeBatch([o]).block_map(level)
    assert kinds is None or bmap.kinds == kinds
    return bmap


def read_rows(bmap):
    """The rows of `bmap`'s level that its conv and downsample read: the
    nonempty rows, every row where none is empty."""
    return np.arange(bmap.rows) if bmap.full_rows is None else bmap.full_rows


@pytest.mark.parametrize("case", ["2", "3", "leaf", "scan"])
def test_conv_matches_dense(case, rng):
    cin, cout = 3, 5
    o, level, kinds = conv_case(case)
    lv = o.levels[level]
    feats = rng.normal(size=(lv.num_nodes, cin)).astype(np.float32)
    w = rng.normal(size=(cout, 27 * cin)).astype(np.float32)
    bmap = block_map_of(o, level, kinds)
    y = nn.octree_conv(FeatureMap(feats[read_rows(bmap)], level=level), bmap, FeatureMap(w))
    # empty rows read as zeros inside the stencil; compare at stored cells
    grid = to_grid(o, level, feats * lv.status[:, None])
    want = from_grid(o, level, dense_conv3(grid, w, cin, cout))
    assert np.abs(y.values - want).max() < 1e-5


@pytest.mark.parametrize("depth", [2, 3])
def test_downsample_matches_dense(depth, rng):
    cin, cout = 4, 3
    o = complete_octree(depth)
    feats = rng.normal(size=(o.levels[depth].num_nodes, cin)).astype(np.float32)
    w = rng.normal(size=(cout, 8 * cin)).astype(np.float32)
    y = nn.downsample(FeatureMap(feats, level=depth), block_map_of(o, depth), FeatureMap(w))
    want = dense_down(to_grid(o, depth, feats), w, cin, cout)
    assert np.abs(to_grid(o, depth - 1, y.values) - want).max() < 1e-5


@pytest.mark.parametrize("depth", [2, 3])
def test_max_pool_matches_dense(depth, rng):
    c = 3
    o = complete_octree(depth)
    feats = rng.normal(size=(o.levels[depth].num_nodes, c)).astype(np.float32)
    y = nn.max_pool(FeatureMap(feats, level=depth), block_map_of(o, depth))
    grid = to_grid(o, depth, feats)
    n = grid.shape[0] // 2
    want = grid.reshape(n, 2, n, 2, n, 2, c).max(axis=(1, 3, 5))
    assert np.abs(to_grid(o, depth - 1, y.values) - want).max() < 1e-6


def test_identity_kernel_preserves_input(rng):
    c = 4
    o = octree_from_codes(rng.choice(512, size=30, replace=False).astype(np.uint64), 3)
    # make all stored rows nonempty so the center tap always hits
    o.levels[3].status[:] = 1
    feats = rng.normal(size=(o.levels[3].num_nodes, c)).astype(np.float32)
    w = np.zeros((c, 27 * c), dtype=np.float32)
    w[:, 13 * c : 14 * c] = np.eye(c)  # center of the dz/dy/dx stencil
    bmap = block_map_of(o, 3)
    y = nn.octree_conv(FeatureMap(feats, level=3), bmap, FeatureMap(w))
    assert np.array_equal(y.values, feats)


def test_empty_neighbors_read_as_zero(rng):
    c = 2
    o = octree_from_codes(np.array([0], dtype=np.uint64), 2)
    # only one nonempty node; its 26 real neighbors are empty siblings or absent
    feats = rng.normal(size=(o.levels[2].num_nodes, c)).astype(np.float32)
    w = rng.normal(size=(c, 27 * c)).astype(np.float32)
    bmap = block_map_of(o, 2)
    y = nn.octree_conv(FeatureMap(feats[read_rows(bmap)], level=2), bmap, FeatureMap(w))
    row = int(np.flatnonzero(o.levels[2].keys == 0)[0])
    want = w[:, 13 * c : 14 * c] @ feats[row]
    assert np.allclose(y.values[row], want, atol=1e-5)


def test_upsample_is_downsample_adjoint(rng):
    """<downsample(x), y> == <x, transpose-conv(y)> with transposed blocks."""
    cin, cout = 3, 5
    o = complete_octree(2)
    x = rng.normal(size=(64, cin))
    y = rng.normal(size=(8, cout))
    wd = rng.normal(size=(cout, 8 * cin))
    wu = np.zeros((8 * cin, cout))
    for t in range(8):
        wu[t * cin : (t + 1) * cin] = wd[:, t * cin : (t + 1) * cin].T

    bmap = block_map_of(o, 2)
    assert np.array_equal(bmap.owner_rows, np.arange(8))
    down = nn.downsample(FeatureMap(x, level=2), bmap, FeatureMap(wd))
    up = nn.upsample(FeatureMap(y, level=1), bmap, FeatureMap(wu))
    # child rows emitted parent-major in child-digit order = stored key order
    lhs = float((down.values * y).sum())
    rhs = float((up.values * x).sum())
    assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


@pytest.mark.parametrize("seed", range(20))
def test_grad_conv_ops(seed):
    rng = np.random.default_rng(seed)
    o = octree_from_codes(rng.choice(64, size=6, replace=False).astype(np.uint64), 2)
    m = o.levels[2].num_nodes
    cin, cout = 2, 3
    bmap = block_map_of(o, 2)
    xv = rng.normal(size=(m, cin))[read_rows(bmap)]  # the conv reads the nonempty rows
    wv = rng.normal(size=(cout, 27 * cin))
    x, w = ad.parameter(xv), ad.parameter(wv)

    def run():
        y = nn.octree_conv(x, bmap, w)
        return ad.sum_all(ad.mul(y, y))

    with ad.Tape():
        ad.backward(run())
    for leaf, arr in ((x, xv), (w, wv)):
        want = numeric_grad(lambda: float(run().values[0, 0]), {"a": arr}, "a")
        err = np.abs(leaf.grad - want) / np.maximum(np.abs(want), 1.0)
        assert err.max() < 1e-4


@pytest.mark.parametrize("seed", range(20))
def test_grad_down_up_pool(seed):
    rng = np.random.default_rng(seed)
    o = octree_from_codes(rng.choice(64, size=5, replace=False).astype(np.uint64), 2)
    m = o.levels[2].num_nodes
    p = o.levels[1].num_nodes
    bmap = block_map_of(o, 2)
    cin, cout = 2, 3
    cases = []

    # downsample reads the level's nonempty rows, as the encoder keeps them
    assert bmap.n_nonempty < m
    xv = rng.normal(size=(bmap.n_nonempty, cin))
    wv = rng.normal(size=(cout, 8 * cin))
    x, w = ad.parameter(xv), ad.parameter(wv)
    cases.append(
        (lambda: nn.downsample(x, bmap, w), [(x, xv), (w, wv)])
    )

    yv = rng.normal(size=(p, cout))
    wuv = rng.normal(size=(8 * cin, cout))
    yfm, wu = ad.parameter(yv), ad.parameter(wuv)
    cases.append((lambda: nn.upsample(yfm, bmap, wu), [(yfm, yv), (wu, wuv)]))

    pv = rng.normal(size=(m, cin))
    pool_in = ad.parameter(pv)
    cases.append((lambda: nn.max_pool(pool_in, bmap), [(pool_in, pv)]))

    for build, leaves in cases:
        def run():
            out = build()
            return ad.sum_all(ad.mul(out, out))

        with ad.Tape():
            ad.backward(run())
        for leaf, arr in leaves:
            want = numeric_grad(lambda: float(run().values[0, 0]), {"a": arr}, "a")
            err = np.abs(leaf.grad - want) / np.maximum(np.abs(want), 1.0)
            assert err.max() < 1e-4, f"max rel err {err.max():.2e}"


def scan_octree(depth=4, seed=0):
    shape = dt.make_shape("cylinder", density=2500, seed=seed)
    return build_octree(dt.virtual_scan(shape, dt.ScanConfig(num_views=2, seed=seed)), depth)


def taped_grads(op, x, w, upstream):
    """Gradients of <op(x, w), upstream> with respect to x and w."""
    with ad.Tape():
        y = op(x, w)
        ad.backward(ad.sum_all(ad.mul(y, ad.constant(upstream))))
    return x.grad, None if w is None else w.grad


def assert_close_f32(got, want):
    assert got.dtype == want.dtype == np.float32
    assert np.abs(got - want).max() < 1e-5 * max(1.0, float(np.abs(want).max()))


@pytest.mark.parametrize(
    "kernel, case",
    [(3, "scan"), (2, "scan"), (3, "3"), (3, "leaf")],
    ids=["3", "2", "3-full", "3-leaf"],
)
def test_kernel_map_conv_grads_match_add_at(kernel, case, rng):
    """Conv over a status-filtered stencil, with each group kind among the
    cases, and downsample over its level's block map, against the im2col form whose
    input gradient is scattered by np.add.at."""
    cin, cout = 5, 7
    if kernel == 3:
        o, level, kinds = conv_case(case)
        table = nbr_table(o, level)
        bmap = block_map_of(o, level, kinds)
        conv = lambda x, w: nn.octree_conv(x, bmap, w)
        rows = o.levels[level].num_nodes
    else:
        o = scan_octree()
        table = child_table(o, 3)
        bmap = block_map_of(o, 4)
        conv = lambda x, w: nn.downsample(x, bmap, w)
        rows = o.levels[4].num_nodes
    kept = read_rows(bmap)  # both ops read the nonempty rows
    assert np.any(table < 0)
    taps = table.shape[1]
    xv = rng.normal(size=(rows, cin)).astype(np.float32)
    wv = rng.normal(size=(cout, taps * cin)).astype(np.float32)
    g = rng.normal(size=(table.shape[0], cout)).astype(np.float32)

    cols = kernels.gather_concat(xv, table)  # (rows, taps * cin)
    xk = xv[kept]
    assert_close_f32(conv(FeatureMap(xk), FeatureMap(wv)).values, cols @ wv.T)
    want_gx = np.zeros_like(xv)
    flat, gx_flat = table.ravel(), (g @ wv).reshape(-1, cin)
    np.add.at(want_gx, flat[flat >= 0], gx_flat[flat >= 0])
    gx, gw = taped_grads(conv, ad.parameter(xk.copy()), ad.parameter(wv.copy()), g)
    assert_close_f32(gx, want_gx[kept])
    assert_close_f32(gw, g.T @ cols)


def oracle_case(case):
    """A BlockMap, its level's (rows, 27) neighbor table by key search, and
    the group kinds the map runs: the cases of conv_case, a two-sample scan
    batch, and a decoder level grown along a random expand mask, whose
    stencil reads every row."""
    if case == "batch":
        batch = scan_batch()
        lv = batch.levels[4]
        return batch.block_map(4), neighbor_table(lv.keys, lv.status, 4), {nn.MERGED, nn.SPLIT}
    if case == "decoder":
        ds = DecoderState(scan_batch(), 2)
        ds.subdivide(2, np.random.default_rng(3).random(ds.rows(2)) < 0.4)
        keys = ds.keys[3]
        return ds.block_map(3), neighbor_table(keys, np.ones(len(keys), np.uint8), 3), {nn.MERGED}
    o, level, kinds = conv_case(case)
    return block_map_of(o, level), nbr_table(o, level), kinds


@pytest.mark.parametrize("tracked", [True, False], ids=["tracked", "untracked"])
@pytest.mark.parametrize("case", ["3", "leaf", "scan", "batch", "decoder"])
def test_block_map_conv_matches_per_pair_oracle(case, tracked, rng):
    """Output, input gradient and weight gradient of the block-map conv
    against the per-pair np.add.at oracle over the level's searched
    stencil, float32 at 1e-5 relative; an untracked input gets no
    gradient and the same weight gradient."""
    bmap, table, kinds = oracle_case(case)
    assert bmap.kinds == kinds
    cin, cout = 6, 5
    xv = rng.normal(size=(len(table), cin)).astype(np.float32)
    wv = rng.normal(size=(cout, 27 * cin)).astype(np.float32)
    g = rng.normal(size=(len(table), cout)).astype(np.float32)
    want_out, want_gx, want_gw = conv_oracle(xv, wv, table, g)
    conv = lambda x, w: nn.octree_conv(x, bmap, w)
    kept = read_rows(bmap)  # the conv reads the nonempty rows
    assert_close_f32(conv(FeatureMap(xv[kept]), FeatureMap(wv)).values, want_out)
    x = ad.parameter(xv[kept]) if tracked else ad.constant(xv[kept])
    gx, gw = taped_grads(conv, x, ad.parameter(wv.copy()), g)
    if tracked:
        assert_close_f32(gx, want_gx[kept])
    else:
        assert gx is None
    assert_close_f32(gw, want_gw)


def test_conv_buffer_holds_one_group_at_a_time(rng):
    """One taped conv forward and backward on a merged scan-octree map
    peaks (tracemalloc) below the product rows of all its groups at once,
    which the conv held before it added each group's rows in place: the
    product buffer is sized for the map's largest group."""
    bmap = block_map_of(scan_octree(depth=5), 5, {nn.MERGED, nn.SPLIT})
    cin, cout = 4, 32
    every_group = len(bmap.rows_out) * cout * 4
    assert bmap.most_out * cout * 4 < every_group // 10
    x = ad.parameter(rng.normal(size=(bmap.n_nonempty, cin)).astype(np.float32))
    w = ad.parameter(rng.normal(size=(cout, 27 * cin)).astype(np.float32))
    g = rng.normal(size=(bmap.rows, cout)).astype(np.float32)
    tracemalloc.start()
    try:
        gx, gw = taped_grads(lambda x, w: nn.octree_conv(x, bmap, w), x, w, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gx is not None and gw is not None
    assert peak < every_group


@pytest.mark.parametrize("case", ["leaf", "split"])
def test_split_only_map_reads_the_nonempty_rows_as_they_are(case, rng, monkeypatch):
    """A map of split groups alone gathers no empty row: its rows_in are
    positions among the nonempty rows, and a conv forward and backward
    never zero-fill x (BlockMap.fill) nor take the input gradient back
    (BlockMap.take), yet match the per-pair oracle; a map with merged
    groups fills."""
    if case == "leaf":
        bmap, table, _ = oracle_case("leaf")
    else:
        o = one_child_octree(rng)
        bmap = block_map_of(o, 4, {nn.SPLIT})
        lv = o.levels[4]
        table = neighbor_table(lv.keys, lv.status, 4)
    assert bmap.empty is not None and not bmap.fills
    assert bmap.rows_in.max() < bmap.n_nonempty
    assert oracle_case("scan")[0].fills
    cin, cout = 3, 4
    xv = rng.normal(size=(len(table), cin)).astype(np.float32)
    xv[bmap.empty] = 0
    wv = rng.normal(size=(cout, 27 * cin)).astype(np.float32)
    g = rng.normal(size=(len(table), cout)).astype(np.float32)
    want_out, want_gx, want_gw = conv_oracle(xv, wv, table, g)

    def refuse(*args):
        raise AssertionError("a split-only map copied its rows")

    monkeypatch.setattr(nn.BlockMap, "fill", refuse)
    monkeypatch.setattr(nn.BlockMap, "take", refuse)
    xk = xv[bmap.full_rows]
    conv = lambda x, w: nn.octree_conv(x, bmap, w)
    assert_close_f32(conv(FeatureMap(xk), FeatureMap(wv)).values, want_out)
    gx, gw = taped_grads(conv, ad.parameter(xk), ad.parameter(wv), g)
    assert_close_f32(gx, want_gx[bmap.full_rows])
    assert_close_f32(gw, want_gw)


def one_child_octree(rng, depth=4, parents=200):
    """An octree whose `parents` random cells one level above the finest
    own one child each: a tap reads about one gathered child in 8, so
    every tap of the finest level's block map runs split."""
    cells = rng.choice(1 << (3 * (depth - 1)), size=parents, replace=False).astype(np.uint64)
    slots = rng.integers(0, 8, size=parents).astype(np.uint64)
    return octree_from_codes(np.sort(cells << np.uint64(3) | slots), depth)


@pytest.mark.parametrize("case", ["split", "scan"])
def test_conv_reads_no_garbage_in_empty_rows(case, rng):
    """A conv of a map's nonempty rows (nn.nonempty), as a residual block
    reads its conv1's output: NaN in the rows flagged empty gives, bit for
    bit, the output and both gradients of zeros there, and a zero input
    gradient on them, on a split-only map and on one with merged groups."""
    if case == "split":
        o, level = one_child_octree(rng), 4
        bmap = block_map_of(o, level, {nn.SPLIT})
    else:
        o, level = scan_octree(depth=5), 5
        bmap = block_map_of(o, level, {nn.MERGED, nn.SPLIT})
    empty = o.levels[level].status == 0
    assert empty.any()
    cin, cout = 4, 6
    zeros = rng.normal(size=(len(empty), cin)).astype(np.float32)
    zeros[empty] = 0
    garbage = zeros.copy()
    garbage[empty] = np.nan
    wv = rng.normal(size=(cout, 27 * cin)).astype(np.float32)
    g = rng.normal(size=(len(empty), cout)).astype(np.float32)
    results = []
    for xv in (zeros, garbage):
        x, w = ad.parameter(xv.copy()), ad.parameter(wv.copy())
        with ad.Tape():
            y = nn.octree_conv(nn.nonempty(x, bmap), bmap, w)
            ad.backward(ad.sum_all(ad.mul(y, ad.constant(g))))
        results.append((y.values, x.grad, w.grad))
    for want, got in zip(*results):
        assert np.isfinite(got).all()
        assert np.array_equal(got, want)
    assert not results[1][1][empty].any()


def test_block_matrices_hold_each_entry_tap_weight(rng):
    """Block (child, slot) of a group's gemm matrix, a row range of the one
    weight gather, is W_t.T, t the child tap by which that slot reads that
    child, the children and slots of its parent tap T in ascending order:
    for merged and split groups, the corners among them, and the centre."""
    bmap = block_map_of(scan_octree(depth=5), 5, {nn.MERGED, nn.SPLIT})
    centre = (None, nn._CENTRE_ENTRIES, 8)
    cases = [g[:3] for g in bmap.groups] + [centre]
    assert {(c is None, k == 1) for c, _, k in cases} >= {(True, True), (True, False), (False, False)}
    for cin, cout in ((8, 32), (32, 8), (4, 16)):
        w = rng.normal(size=(cout, 27 * cin)).astype(np.float32)
        gathered = np.take(w.T, nn._matrix_rows(cin), axis=0)
        for c, e, k in cases:
            T = np.searchsorted(nn._BLOCK_START, e.start, side="right") - 1
            slots, kids = nn._BLOCK_SLOTS[T], nn._BLOCK_KIDS[T]
            assert k == len(slots) == len(kids)
            rows = range(k) if c is None else [c]
            m = nn._matrix(gathered, e, k)
            assert m.shape == (len(rows) * cin, k * cout)
            for r, ci in enumerate(rows):
                for si, slot in enumerate(slots):
                    (tap,) = np.flatnonzero((_PARENT_TAP[slot] == T) & (_CHILD_SLOT[slot] == kids[ci]))
                    block = m[r * cin : (r + 1) * cin, si * cout : (si + 1) * cout]
                    assert np.array_equal(block, w[:, tap * cin : (tap + 1) * cin].T)


def test_block_layout_covers_each_slot_and_tap_once():
    """The 27 parent taps' k x k blocks hold each (slot, tap) of the child
    stencil exactly once, with k = 8, 4, 2, 1 by how many axes of the
    parent tap are the centre's."""
    seen = set()
    for T in range(27):
        k = len(nn._BLOCK_SLOTS[T])
        assert k == 2 ** sum((T // 3**a) % 3 == 1 for a in range(3))
        taps = nn._BLOCK_TAPS[nn._BLOCK_START[T] : nn._BLOCK_START[T + 1]].reshape(k, k)
        for ci, c in enumerate(nn._BLOCK_KIDS[T]):
            for si, s in enumerate(nn._BLOCK_SLOTS[T]):
                t = taps[ci, si]
                assert t >= 0
                assert _PARENT_TAP[s, t] == T and _CHILD_SLOT[s, t] == c
                seen.add((s, t))
    assert len(seen) == len(nn._BLOCK_TAPS) == 8 * 27
    # the one gather names every tap's cin rows of w.T exactly 8 times
    for cin in (1, 3):
        rows = nn._matrix_rows(cin)
        assert len(rows) == 216 * cin
        assert np.array_equal(np.bincount(rows, minlength=27 * cin), np.full(27 * cin, 8))


def test_weight_fold_is_the_adjoint_of_the_matrix_gather(rng):
    """For G in the layout of the weight gather, <gather(w.T), G> equals
    <w, G folded onto the rows of w.T> over all 216*cin gathered rows: the
    weight gradient's fold (kernels.add_rows over _matrix_rows) is the
    adjoint of the forward's gather."""
    for cin in (1, 3, 8):
        cout = 5
        w = rng.normal(size=(cout, 27 * cin))
        gathered = np.take(w.T, nn._matrix_rows(cin), axis=0)
        g = rng.normal(size=gathered.shape)
        assert g.shape == (216 * cin, cout)
        lhs = np.vdot(gathered, g)
        folded = nn._fold(g)
        assert folded.shape == (27 * cin, cout)
        rhs = np.vdot(w.T, folded)
        assert np.isclose(lhs, rhs, rtol=1e-12, atol=0)


def test_block_map_rejects_mismatched_rows(rng):
    """A child status of another length, pairs whose rows own no children
    and an input of another row count are each a DomainError."""
    o = scan_octree()
    batch = OctreeBatch([o])
    with pytest.raises(DomainError):
        nn.BlockMap(batch.levels[3], batch.pairs(3), batch.levels[4].status[:-8])
    # pairs of the finest level, whose rows own no children
    with pytest.raises(DomainError, match="owns no children"):
        nn.BlockMap(batch.levels[4], batch.pairs(4))
    bmap = batch.block_map(4)
    w = FeatureMap(rng.normal(size=(2, 27 * 3)))
    # the conv reads the nonempty rows: every row is a mismatch too
    assert bmap.n_nonempty < bmap.rows
    for rows in (bmap.rows - 8, bmap.rows, bmap.n_nonempty - 1):
        with pytest.raises(DomainError, match="row mismatch"):
            nn.octree_conv(FeatureMap(rng.normal(size=(rows, 3))), bmap, w)
    x = FeatureMap(rng.normal(size=(bmap.n_nonempty, 3)))
    assert nn.octree_conv(x, bmap, w).rows == bmap.rows


@pytest.mark.parametrize("op", ["conv", "downsample"])
def test_untracked_input_gets_no_gradient(op, rng, monkeypatch):
    """A conv or downsample of a constant input, as the network's input
    signal is, computes no input gradient, and its weight gradient is the
    tracked path's bit for bit."""
    o, level = (scan_octree(depth=5), 5) if op == "conv" else (scan_octree(), 4)
    cin, cout = 4, 8
    if op == "conv":
        bmap = block_map_of(o, level, {nn.MERGED, nn.SPLIT})
        # the conv reads the level's nonempty rows
        xv = rng.normal(size=(bmap.rows, cin)).astype(np.float32)[bmap.full_rows]
        fn = lambda x, w: nn.octree_conv(x, bmap, w)
        wv = rng.normal(size=(cout, 27 * cin)).astype(np.float32)
        g = rng.normal(size=(bmap.rows, cout)).astype(np.float32)
    else:
        bmap = block_map_of(o, level)
        # downsample reads the level's nonempty rows
        xv = rng.normal(size=(bmap.n_nonempty, cin)).astype(np.float32)
        fn = lambda x, w: nn.downsample(x, bmap, w)
        wv = rng.normal(size=(cout, 8 * cin)).astype(np.float32)
        g = rng.normal(size=(o.levels[3].num_nodes, cout)).astype(np.float32)
    tracked_gx, tracked_gw = taped_grads(fn, ad.parameter(xv.copy()), ad.parameter(wv.copy()), g)
    assert tracked_gx is not None
    backs = []
    record = ad.custom_op

    def spy(values, inputs, backward_fn, level=None):
        backs.append(backward_fn)
        return record(values, inputs, backward_fn, level=level)

    monkeypatch.setattr(ad, "custom_op", spy)
    gx, gw = taped_grads(fn, ad.constant(xv.copy()), ad.parameter(wv.copy()), g)
    assert gx is None
    assert np.array_equal(gw, tracked_gw)
    # the op's own backward (recorded first) hands the input no array
    assert backs[0](g)[0] is None


def test_max_pool_grad_matches_add_at(rng):
    o = scan_octree()
    table = child_table(o, 3)
    c = 6
    xv = rng.normal(size=(o.levels[4].num_nodes, c)).astype(np.float32)
    g = rng.normal(size=(table.shape[0], c)).astype(np.float32)
    bmap = block_map_of(o, 4)
    pool = lambda x, w: nn.max_pool(x, bmap)
    # the output is the owner rows; a row that owns no children reads none
    assert (np.delete(table, bmap.owner_rows, axis=0) < 0).all()
    gx, _ = taped_grads(pool, ad.parameter(xv.copy()), None, g[bmap.owner_rows])
    vals = kernels.gather_rows(xv, table.ravel()).reshape(-1, 8, c)
    vals[table < 0] = -np.inf
    src = np.take_along_axis(table, vals.argmax(axis=1), axis=1)  # argmax child rows
    chans = np.broadcast_to(np.arange(c), src.shape)
    ok = src >= 0
    want = np.zeros_like(xv)
    np.add.at(want, (src[ok], chans[ok]), g[ok])
    assert np.array_equal(gx, want)


def scan_batch():
    """Two scan octrees of different shapes, merged into one OctreeBatch."""
    octrees = []
    for seed, kind in enumerate(("cylinder", "box")):
        shape = dt.make_shape(kind, density=2500, seed=seed)
        scan = dt.virtual_scan(shape, dt.ScanConfig(num_views=2, seed=seed))
        octrees.append(build_octree(scan, 4))
    return OctreeBatch(octrees)


def merged_child_table(batch, level):
    """Each sample's own child table, shifted by its row offsets."""
    parts, off = [], 0
    for o in batch.octrees:
        t = child_table(o, level)
        parts.append(np.where(t >= 0, t + off, -1))
        off += o.levels[level + 1].num_nodes
    return np.vstack(parts)


def test_downsample_on_batch_matches_child_table_oracle(rng):
    """The blocks line up with each sample's children at merged ranks."""
    batch = scan_batch()
    table = merged_child_table(batch, 3)
    assert np.any(table < 0) and np.any(batch.levels[3].status == 0)
    cin, cout = 5, 7
    xv = rng.normal(size=(batch.levels[4].num_nodes, cin)).astype(np.float32)
    wv = rng.normal(size=(cout, 8 * cin)).astype(np.float32)
    g = rng.normal(size=(table.shape[0], cout)).astype(np.float32)
    bmap = batch.block_map(4)
    down = lambda x, w: nn.downsample(x, bmap, w)
    full = bmap.full_rows  # downsample reads the nonempty rows

    cols = kernels.gather_concat(xv, table)  # (rows, 8 * cin) im2col
    assert_close_f32(down(FeatureMap(xv[full]), FeatureMap(wv)).values, cols @ wv.T)
    want_gx = np.zeros_like(xv)
    flat, gx_flat = table.ravel(), (g @ wv).reshape(-1, cin)
    np.add.at(want_gx, flat[flat >= 0], gx_flat[flat >= 0])
    gx, gw = taped_grads(down, ad.parameter(xv[full]), ad.parameter(wv.copy()), g)
    assert_close_f32(gx, want_gx[full])
    assert_close_f32(gw, g.T @ cols)


def test_max_pool_on_batch_matches_child_table_oracle(rng):
    batch = scan_batch()
    table = merged_child_table(batch, 3)
    c = 6
    xv = rng.normal(size=(batch.levels[4].num_nodes, c)).astype(np.float32)
    g = rng.normal(size=(table.shape[0], c)).astype(np.float32)
    bmap = batch.block_map(4)
    pool = lambda x, w: nn.max_pool(x, bmap)

    vals = kernels.gather_rows(xv, table.ravel()).reshape(-1, 8, c)
    vals[table < 0] = -np.inf
    want = np.where((table < 0).all(axis=1)[:, None], 0.0, vals.max(axis=1))
    owners = bmap.owner_rows  # the output's rows, in order
    assert np.array_equal(owners, np.flatnonzero(batch.levels[3].status))
    assert (np.delete(table, owners, axis=0) < 0).all()
    assert np.array_equal(pool(FeatureMap(xv), None).values, want[owners].astype(np.float32))
    gx, _ = taped_grads(pool, ad.parameter(xv.copy()), None, g[owners])
    src = np.take_along_axis(table, vals.argmax(axis=1), axis=1)  # argmax child rows
    chans = np.broadcast_to(np.arange(c), src.shape)
    ok = src >= 0
    want_gx = np.zeros_like(xv)
    np.add.at(want_gx, (src[ok], chans[ok]), g[ok])
    assert np.array_equal(gx, want_gx)


def test_upsample_matches_composed_ops(rng):
    """One taped op, bit-identical to row_gather -> linear -> reshape."""
    o = scan_octree()
    rows = np.flatnonzero(o.levels[3].status == 1)
    cin, cout = 6, 5
    xv = rng.normal(size=(o.levels[3].num_nodes, cin)).astype(np.float32)
    wv = rng.normal(size=(8 * cout, cin)).astype(np.float32)
    g = rng.normal(size=(8 * len(rows), cout)).astype(np.float32)

    def composed(x, w):
        proj = ad.linear(ad.row_gather(x, rows), w)  # (k, 8 * cout)
        out = proj.values.reshape(8 * len(rows), cout)
        return ad.custom_op(out, [proj], lambda gr: (gr.reshape(proj.values.shape),))

    bmap = block_map_of(o, 4)
    assert np.array_equal(bmap.owner_rows, rows)
    up = lambda x, w: nn.upsample(x, bmap, w)
    assert np.array_equal(
        up(FeatureMap(xv), FeatureMap(wv)).values, composed(FeatureMap(xv), FeatureMap(wv)).values
    )
    got = taped_grads(up, ad.parameter(xv.copy()), ad.parameter(wv.copy()), g)
    want = taped_grads(composed, ad.parameter(xv.copy()), ad.parameter(wv.copy()), g)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_block_ops_reject_mismatched_child_rows(rng):
    """max_pool rejects an input whose rows are not the map's level's,
    downsample one whose rows are not the level's nonempty rows (all of
    them, too), upsample one whose rows are not the parent level's, and no
    map is built over a parent level one owner short or a child status 8
    rows short."""
    batch = OctreeBatch([scan_octree()])
    bmap = batch.block_map(4)
    c = 3
    x = FeatureMap(rng.normal(size=(bmap.rows, c)), level=4)
    short = FeatureMap(x.values[:-8], level=4)  # 8 child rows too few
    kept = FeatureMap(x.values[bmap.full_rows], level=4)  # the nonempty rows
    w = FeatureMap(rng.normal(size=(2, 8 * c)))
    for bad in (x, FeatureMap(kept.values[:-1], level=4)):
        with pytest.raises(DomainError, match="row mismatch"):
            nn.downsample(bad, bmap, w)
    with pytest.raises(DomainError, match="row mismatch"):
        nn.max_pool(short, bmap)
    parent = FeatureMap(rng.normal(size=(bmap.parent_rows, c)), level=3)
    wu = FeatureMap(rng.normal(size=(8 * 2, c)))
    with pytest.raises(DomainError, match="parent level"):
        nn.upsample(FeatureMap(parent.values[:-1], level=3), bmap, wu)
    up, child_status = batch.levels[3], batch.levels[4].status
    one_less = up.status.copy()
    one_less[np.flatnonzero(up.status)[0]] = 0
    short_owner = make_level(up.keys, one_less, True)
    for level, cst in ((short_owner, child_status), (up, child_status[:-8])):
        with pytest.raises(DomainError):
            nn.BlockMap(level, batch.pairs(3), cst)
    assert nn.downsample(kept, bmap, w).rows == up.num_nodes
    assert nn.max_pool(x, bmap).rows == bmap.owners
    assert nn.upsample(parent, bmap, wu).rows == bmap.rows


def test_ops_reject_weight_of_other_input_channels(rng):
    """Each op reads the input channel count off its weight's columns:
    27 * c for octree_conv, 8 * c for downsample, c for upsample."""
    o = complete_octree(3)
    c = 3
    x = FeatureMap(rng.normal(size=(o.levels[2].num_nodes, c)), level=2)
    bmap, finer = block_map_of(o, 2), block_map_of(o, 3)
    weight = lambda rows, cols: FeatureMap(rng.normal(size=(rows, cols)))
    ops = (
        lambda cin: nn.octree_conv(x, bmap, weight(2, 27 * cin)),
        lambda cin: nn.downsample(x, bmap, weight(2, 8 * cin)),
        lambda cin: nn.upsample(x, finer, weight(8 * 2, cin)),
    )
    for op in ops:
        assert op(c).channels == 2
        for wrong in (c - 1, c + 1):
            with pytest.raises(DomainError, match="channel mismatch"):
                op(wrong)


@pytest.mark.parametrize(
    "train, relu",
    [(True, False), (False, False), (True, True), (False, True)],
    ids=["True", "False", "True-relu", "False-relu"],
)
def test_grad_batch_norm(train, relu, rng):
    m, c = 12, 3
    xv = rng.normal(size=(m, c))
    gv = rng.normal(size=(1, c)) + 1.0
    bv = rng.normal(size=(1, c))
    x, g, b = ad.parameter(xv), ad.parameter(gv), ad.parameter(bv)
    params = nn.BNParams(
        gamma=g,
        beta=b,
        running_mean=rng.normal(size=(1, c)),
        running_var=np.abs(rng.normal(size=(1, c))) + 0.5,
    )
    weights = rng.normal(size=(m, c))

    def run():
        # freeze running stats so repeated eval is consistent
        rm, rv = params.running_mean.copy(), params.running_var.copy()
        out = nn.batch_norm(x, params, train, relu=relu)
        params.running_mean[...] = rm
        params.running_var[...] = rv
        return ad.sum_all(ad.mul(out, ad.constant(weights)))

    with ad.Tape():
        ad.backward(run())
    for leaf, arr in ((x, xv), (g, gv), (b, bv)):
        want = numeric_grad(lambda: float(run().values[0, 0]), {"a": arr}, "a")
        err = np.abs(leaf.grad - want) / np.maximum(np.abs(want), 1.0)
        assert err.max() < 1e-4


@pytest.mark.parametrize("train", [True, False])
def test_fused_batch_norm_relu_matches_relu_of_batch_norm(train, rng):
    """Bit for bit, forward and all three gradients, float32, with exact
    zeros (a constant channel, a zero gamma) and negatives in the BN output;
    in eval mode a NaN input maps to 0, as ad.relu maps it. Once on a map
    of one row block and once on one of several with a ragged last block."""
    c = 4
    assert len(nn._row_blocks(np.zeros((16, c), np.float32))) == 1
    assert len(nn._row_blocks(np.zeros((40_001, c), np.float32))) > 2
    for m in (16, 40_001):
        check_fused_batch_norm_relu(train, rng, m, c)


def check_fused_batch_norm_relu(train, rng, m, c):
    xv = rng.normal(size=(m, c)).astype(np.float32)
    xv[:, 0] = 2.0
    gv = (rng.normal(size=(1, c)) + 1.0).astype(np.float32)
    gv[0, 1] = 0.0
    bv = np.zeros((1, c), np.float32)
    bv[0, 3] = 0.5
    if not train:
        xv[3, 2] = np.nan
        xv[-1, 2] = np.nan
    upstream = ad.constant(rng.normal(size=(m, c)).astype(np.float32))
    results = []
    for fused in (True, False):
        x, g, b = (ad.parameter(v.copy()) for v in (xv, gv, bv))
        params = nn.BNParams(
            gamma=g,
            beta=b,
            running_mean=np.full((1, c), 0.25, np.float32),
            running_var=np.full((1, c), 1.5, np.float32),
        )
        with ad.Tape():
            if fused:
                out = nn.batch_norm(x, params, train, relu=True)
            else:
                out = ad.relu(nn.batch_norm(x, params, train))
            ad.backward(ad.sum_all(ad.mul(out, upstream)))
        results.append((out.values, x.grad, g.grad, b.grad))
    fused, reference = results
    assert np.count_nonzero(reference[0] == 0) > m  # the relu clips something
    for got, want in zip(fused, reference):
        assert got.dtype == np.float32
        assert np.array_equal(got, want, equal_nan=True)


def bn_then(op, bmap, c, cout, rng):
    """An input, a weight and a function of a FeatureMap that applies `op`
    ("conv", "downsample", "upsample" or "linear") with that weight, for an
    input on the level `bmap` reads."""
    cols = {"conv": 27 * c, "downsample": 8 * c, "upsample": c, "linear": c}[op]
    wv = rng.normal(size=(8 * cout if op == "upsample" else cout, cols)).astype(np.float32)
    rows = bmap.parent_rows if op == "upsample" else bmap.rows
    xv = rng.normal(size=(rows, c)).astype(np.float32)
    xv[:, 0] = 2.0  # a constant channel: exact zeros in the train-mode output
    apply = {
        # the nonempty rows, as a residual stream keeps them (nn.nonempty)
        "conv": lambda y, w: nn.octree_conv(nn.nonempty(y, bmap), bmap, w),
        "downsample": lambda y, w: nn.downsample(nn.nonempty(y, bmap), bmap, w),
        "upsample": lambda y, w: nn.upsample(y, bmap, w),
        "linear": ad.linear,
    }[op]
    return xv, wv, apply


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("op", ["conv", "downsample", "upsample", "linear"])
def test_op_reading_a_bn_relu_output_remakes_it_bit_for_bit(op, train, rng, monkeypatch):
    """An op whose backward reads a BN-ReLU output (a conv or downsample
    through its nonempty rows, nn.nonempty) reads it remade by the
    recipe on the output's slot, which holds no values: its forward and the
    gradients of x, of its weight and of gamma and beta equal, bit for bit,
    those of the same chain with the output passed through a copy
    (ad.add of zeros), which the op reads as it is. The level is a scan's,
    with empty rows and merged and split taps; small batch-norm blocks
    make several of them, the last one ragged. Without the copy the output
    is freed once the caller drops it; the recipe runs once, in the op's
    backward, and is dropped when the batch norm replays."""
    monkeypatch.setattr(nn, "BN_BLOCK_BYTES", 4096)
    o, level, _ = conv_case("scan")
    bmap = block_map_of(o, level)
    c, cout = 4, 3
    xv, wv, apply = bn_then(op, bmap, c, cout, rng)
    assert len(nn._row_blocks(xv)) > 2 and len(xv) % (4096 // (4 * c))
    gv = (rng.normal(size=(1, c)) + 1.0).astype(np.float32)
    gv[0, 1] = 0.0
    bv = (0.1 * rng.normal(size=(1, c))).astype(np.float32)
    results, remade = [], []
    for copied in (False, True):
        x, w, g, b = (ad.parameter(v.copy()) for v in (xv, wv, gv, bv))
        params = nn.BNParams(
            gamma=g,
            beta=b,
            running_mean=np.full((1, c), 0.25, np.float32),
            running_var=np.full((1, c), 1.5, np.float32),
        )
        with ad.Tape():
            y = nn.batch_norm(x, params, train, relu=True)
            slot = y._slot
            recipe = slot.remake
            slot.remake = lambda *rows: remade.append(copied) or recipe(*rows)
            if copied:
                y = ad.add(y, ad.constant(np.zeros(y.values.shape, np.float32)))
            out = apply(y, w)
            kept = weakref.ref(y.values)
            del y
            assert (kept() is not None) == copied
            if not results:  # one upstream gradient for both chains
                upstream = ad.constant(rng.normal(size=out.values.shape).astype(np.float32))
            ad.backward(ad.sum_all(ad.mul(out, upstream)))
        assert slot.remake is None
        results.append((out.values, x.grad, w.grad, g.grad, b.grad))
    assert remade == [False]
    for got, want in zip(*results):
        assert got.dtype == np.float32
        assert np.array_equal(got, want)


def bn_params(c, rng):
    """Float32 batch-norm parameters of c channels with a zero gamma, so a
    train-mode output has a constant channel; eval reads fixed running
    statistics."""
    gv = (rng.normal(size=(1, c)) + 1.0).astype(np.float32)
    gv[0, 1] = 0.0
    bv = (0.1 * rng.normal(size=(1, c))).astype(np.float32)
    return nn.BNParams(
        gamma=ad.parameter(gv),
        beta=ad.parameter(bv),
        running_mean=np.full((1, c), 0.25, np.float32),
        running_var=np.full((1, c), 1.5, np.float32),
    )


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("op", ["add_relu", "add_relu_kept", "linear_relu"])
def test_fused_relu_op_equals_its_unfused_chain(op, train, rng, monkeypatch):
    """ad.add_relu and ad.linear_relu equal relu(add) and relu(linear) bit
    for bit: the output, the values their recipe remakes, whole and at a
    scan level's nonempty rows, and every gradient, through inputs that
    are themselves batch-norm outputs carrying recipes and through a conv
    (which reads the nonempty rows of the level, nn.nonempty) and a
    linear layer (which reads every row). A remade output is freed once
    dropped and remade once per reading op; its own backward reads only
    its packed mask. add_relu without `remade` gives no recipe."""
    monkeypatch.setattr(nn, "BN_BLOCK_BYTES", 4096)
    o, level, _ = conv_case("scan")
    bmap = block_map_of(o, level)
    n, c, cout = bmap.rows, 4, 3
    leaves = [rng.normal(size=(n, c)).astype(np.float32) for _ in range(2)]
    leaves += [rng.normal(size=(c, c)).astype(np.float32), rng.normal(size=(1, c)).astype(np.float32)]
    wc = rng.normal(size=(cout, 27 * c)).astype(np.float32)
    wl = rng.normal(size=(cout, c)).astype(np.float32)
    up = [rng.normal(size=(n, cout)).astype(np.float32) for _ in range(2)]
    seed = int(rng.integers(1 << 30))
    remade = op != "add_relu_kept"
    results, calls = [], []
    for fused in (True, False):
        x, z, w1, b1 = (ad.parameter(v.copy()) for v in leaves)
        w, v = ad.parameter(wc.copy()), ad.parameter(wl.copy())
        p1, p2 = bn_params(c, np.random.default_rng(seed)), bn_params(c, np.random.default_rng(seed + 1))
        with ad.Tape():
            a = nn.batch_norm(x, p1, train, relu=True)
            if op == "linear_relu":
                y = ad.linear_relu(a, w1, b1) if fused else ad.relu(ad.linear(a, w1, b1))
            else:
                b = nn.batch_norm(z, p2, train)
                y = ad.add_relu(a, b, remade=remade) if fused else ad.relu(ad.add(a, b))
            values, slot = y.values.copy(), y._slot
            if fused and remade:
                recipe = slot.remake
                assert np.array_equal(recipe(), values)
                full = bmap.full_rows
                assert np.array_equal(recipe(full), values[full])
                slot.remake = lambda *rows: calls.append(len(rows)) or recipe(*rows)
            elif fused:
                assert slot.remake is None
            kept = weakref.ref(y.values)
            out = [nn.octree_conv(nn.nonempty(y, bmap), bmap, w), ad.linear(y, v)]
            del y
            assert (kept() is None) == (fused and remade)
            loss = ad.add(*(ad.sum_all(ad.mul(o, ad.constant(u))) for o, u in zip(out, up)))
            ad.backward(loss)
        assert slot.remake is None
        grads = [x.grad, w.grad, v.grad, p1.gamma.grad, p1.beta.grad]
        if op == "linear_relu":
            grads += [w1.grad, b1.grad]
        else:
            grads += [z.grad, p2.gamma.grad, p2.beta.grad]
        results.append([values, out[0].values, out[1].values] + grads)
    assert calls == ([0, 1] if remade else [])  # the linear reads all, then the conv its rows
    assert np.count_nonzero(results[1][0] == 0) > n // 2  # the relu clips something
    for got, want in zip(*results):
        assert got is not None and got.dtype == np.float32
        assert np.array_equal(got, want)


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
def test_row_moves_equal_the_full_row_chain(train, rng, monkeypatch):
    """nn.nonempty equals, bit for bit, a row gather of the same rows
    (ad.row_gather): its output, the values its recipe remakes, whole and
    at rows, and every gradient, through a batch-norm output that carries
    a recipe and a conv and a linear that read the nonempty rows, as a
    residual block reads its stream. The level is a scan's, with empty
    rows and merged and split taps; no backward holds the move's output,
    as the ops that read it remake it. On a level with no empty row the
    move is its input."""
    monkeypatch.setattr(nn, "BN_BLOCK_BYTES", 4096)
    o, level, _ = conv_case("scan")
    bmap = block_map_of(o, level)
    full = bmap.full_rows
    n, k, c, cout = bmap.rows, bmap.n_nonempty, 4, 3
    assert k == len(full) < n
    xv = rng.normal(size=(n, c)).astype(np.float32)
    wc = rng.normal(size=(cout, 27 * c)).astype(np.float32)
    wl = rng.normal(size=(cout, c)).astype(np.float32)
    up = [rng.normal(size=(n, cout)).astype(np.float32), rng.normal(size=(k, cout)).astype(np.float32)]
    kept_rows = np.sort(rng.choice(k, size=k // 3, replace=False))
    seed = int(rng.integers(1 << 30))
    results = []
    for moved in (True, False):
        x, w, v = (ad.parameter(a.copy()) for a in (xv, wc, wl))
        params = bn_params(c, np.random.default_rng(seed))
        with ad.Tape():
            y = nn.batch_norm(x, params, train, relu=True)
            if moved:
                kept = nn.nonempty(y, bmap)
                remakes = [kept._slot.remake(), kept._slot.remake(kept_rows)]
            else:
                kept = ad.row_gather(y, full)
                remakes = [kept.values, kept.values[kept_rows]]
            values = kept.values.copy()
            ref = weakref.ref(kept.values)
            out = [nn.octree_conv(kept, bmap, w), ad.linear(kept, v)]
            del y, kept
            assert (ref() is None) == moved
            loss = ad.add(*(ad.sum_all(ad.mul(m, ad.constant(u))) for m, u in zip(out, up)))
            ad.backward(loss)
        grads = [x.grad, w.grad, v.grad, params.gamma.grad, params.beta.grad]
        results.append([values] + remakes + [m.values for m in out] + grads)
    assert np.count_nonzero(results[1][0])
    for got, want in zip(*results):
        assert got is not None and got.dtype == np.float32
        assert np.array_equal(got, want)
    whole = block_map_of(complete_octree(2), 2)
    y = FeatureMap(xv[: whole.rows])
    assert nn.nonempty(y, whole) is y


@pytest.mark.parametrize("op", ["conv", "downsample"])
@pytest.mark.parametrize("case", ["leaf", "scan"])
def test_partial_remake_equals_full_remake(case, op, rng, monkeypatch):
    """Where a level has empty rows, a conv or a downsample of the
    nonempty rows (nn.nonempty) of an input that carries a recipe remakes
    only the nonempty rows in backward, on a map of split taps alone
    ("leaf") as on one with merged taps ("scan"); its gradients equal, bit
    for bit, those of a recipe that remakes every row and then takes
    those."""
    monkeypatch.setattr(nn, "BN_BLOCK_BYTES", 4096)
    o, level, kinds = conv_case(case)
    bmap = block_map_of(o, level, kinds)
    assert bmap.empty is not None
    c, cout = 4, 3
    xv, wv, apply = bn_then(op, bmap, c, cout, rng)
    seed = int(rng.integers(1 << 30))
    results, asked = [], []
    for whole in (False, True):
        x, w = ad.parameter(xv.copy()), ad.parameter(wv.copy())
        params = bn_params(c, np.random.default_rng(seed))
        with ad.Tape():
            y = nn.batch_norm(x, params, True, relu=True)
            recipe = y._slot.remake
            if whole:
                y._slot.remake = lambda rows=None: (
                    recipe() if rows is None else np.take(recipe(), rows, axis=0)
                )
            else:
                y._slot.remake = lambda *rows: asked.append(rows) or recipe(*rows)
            out = apply(y, w)
            del y
            upstream = np.random.default_rng(seed).normal(size=out.values.shape)
            ad.backward(ad.sum_all(ad.mul(out, ad.constant(upstream.astype(np.float32)))))
        results.append((out.values, x.grad, w.grad, params.gamma.grad, params.beta.grad))
    assert len(asked) == 1 and np.array_equal(asked[0][0], bmap.full_rows)
    for got, want in zip(*results):
        assert np.array_equal(got, want)


def rel_error(a, b, scale):
    """max |a - b| / scale; a zero scale, a sum with no nonzero terms (a
    channel the relu clips whole), leaves a - b to be zero."""
    return float((np.abs(a - b) / np.maximum(scale, np.finfo(np.float64).tiny)).max())


def batch_norm_errors(x, gamma, beta, upstream, relu):
    """Relative errors of one train-mode batch_norm step against float64.

    The running statistics start at zero, so after the step they read
    (1 - momentum) times the batch mean and variance. Errors are scaled by
    the largest reference entry for the maps, by each reference statistic
    for mean and variance, and by the sum of absolute terms for the two
    parameter gradients. Every result must stay float32.
    """
    n, c = x.shape
    xp, gp, bp = (ad.parameter(v.copy()) for v in (x, gamma, beta))
    zeros = np.zeros((1, c), np.float32)
    params = nn.BNParams(gamma=gp, beta=bp, running_mean=zeros.copy(), running_var=zeros.copy())
    with ad.Tape():
        out = nn.batch_norm(xp, params, True, relu=relu)
        ad.backward(ad.sum_all(ad.mul(out, ad.constant(upstream))))
    got = [out.values, params.running_mean, params.running_var, xp.grad, gp.grad, bp.grad]
    assert all(v.dtype == np.float32 for v in got)

    x64 = x.astype(np.float64)
    mu = x64.mean(axis=0)
    var = ((x64 - mu) ** 2).mean(axis=0)
    inv = 1.0 / np.sqrt(var + nn.BN_EPSILON)
    xhat = (x64 - mu) * inv
    want = gamma * xhat + beta
    # the relu rule masks the gradient by the op's own output
    g = upstream.astype(np.float64) * (out.values > 0 if relu else 1)
    if relu:
        want = np.maximum(want, 0)
    gbeta = g.sum(axis=0)
    ggamma = (g * xhat).sum(axis=0)
    gx = gamma * inv * (g - gbeta / n - xhat * ggamma / n)

    m = 1.0 - nn.BN_MOMENTUM
    return {
        "out": rel_error(out.values, want, np.abs(want).max()),
        "mean": rel_error(params.running_mean[0] / m, mu, np.abs(mu)),
        "var": rel_error(params.running_var[0] / m, var, var),
        "gx": rel_error(xp.grad, gx, np.abs(gx).max()),
        "ggamma": rel_error(gp.grad[0], ggamma, np.abs(g * xhat).sum(axis=0)),
        "gbeta": rel_error(bp.grad[0], gbeta, np.abs(g).sum(axis=0)),
    }


def bn_oracle_case(rng, n, c):
    """A float32 (n, c) map whose channels sit 10 to 50 away from zero at
    deviations of 0.5 to 4, with its BN parameters and upstream gradient."""
    offset = rng.choice([-1.0, 1.0], size=c) * rng.uniform(10.0, 50.0, size=c)
    x = (rng.normal(size=(n, c)) * rng.uniform(0.5, 4.0, size=c) + offset).astype(np.float32)
    gamma = rng.uniform(0.5, 2.0, size=(1, c)).astype(np.float32)
    beta = rng.normal(size=(1, c)).astype(np.float32)
    return x, gamma, beta, rng.normal(size=(n, c)).astype(np.float32)


# Bounds of the oracle test below. Each sits under the worst relative error
# of its first four cases when the reductions were numpy's axis-0 mean, var
# and sum, measured on the same data (the rng fixture's), and above the
# worst error of the whole-map gemv reductions (2-core x86, OpenBLAS). The
# row-block sums, added up in float64, measure at most 1.4e-7 (out), 1.1e-7
# (mean), 1.4e-7 (var), 1.6e-7 (gx), 1.0e-7 (ggamma) and 9.7e-9 (gbeta) on
# all eight cases.
BN_ORACLE_BOUNDS = {
    "out": 5e-6,  # numpy 4.0e-5, gemv 9.1e-7
    "mean": 1e-6,  # numpy 5.3e-6, gemv 1.1e-7
    "var": 1e-5,  # numpy 2.1e-5, gemv 2.7e-6
    "gx": 5e-6,  # numpy 8.4e-6, gemv 1.1e-6
    "ggamma": 1e-6,  # numpy 6.6e-6, gemv 8.9e-8
    "gbeta": 1.2e-7,  # numpy 1.25e-7, gemv 4.3e-8
}


def test_batch_norm_train_matches_float64_oracle(rng):
    """Train-mode BN over tall float32 maps with offset channel means:
    output, running statistics and all three gradients against a float64
    reference, with and without the fused relu. The narrow maps at 4 and
    16 channels span several row blocks, the last one ragged and read
    untiled."""
    worst = dict.fromkeys(BN_ORACLE_BOUNDS, 0.0)
    for n, c in ((40_001, 4), (9_001, 16)):
        blocks = nn._row_blocks(np.zeros((n, c), np.float32))
        assert len(blocks) > 2 and blocks[-1][1] == c
    for n, c in ((100_000, 4), (16_384, 128), (40_001, 4), (9_001, 16)):
        case = bn_oracle_case(rng, n, c)
        for relu in (False, True):
            for k, e in batch_norm_errors(*case, relu).items():
                worst[k] = max(worst[k], e)
    for k, e in worst.items():
        assert e < BN_ORACLE_BOUNDS[k], (k, e)


def batch_norm_eval_errors(x, gamma, beta, upstream, running, relu):
    """Relative errors of one eval-mode batch_norm step against float64,
    scaled as in batch_norm_errors; the running statistics must not move."""
    xp, gp, bp = (ad.parameter(v.copy()) for v in (x, gamma, beta))
    rmean, rvar = (v.copy() for v in running)
    params = nn.BNParams(gamma=gp, beta=bp, running_mean=rmean, running_var=rvar)
    with ad.Tape():
        out = nn.batch_norm(xp, params, False, relu=relu)
        ad.backward(ad.sum_all(ad.mul(out, ad.constant(upstream))))
    assert all(v.dtype == np.float32 for v in (out.values, xp.grad, gp.grad, bp.grad))
    assert np.array_equal(rmean, running[0]) and np.array_equal(rvar, running[1])

    inv = 1.0 / np.sqrt(rvar[0].astype(np.float64) + nn.BN_EPSILON)
    xhat = (x.astype(np.float64) - rmean[0]) * inv
    want = gamma * xhat + beta
    g = upstream.astype(np.float64) * (out.values > 0 if relu else 1)
    if relu:
        want = np.maximum(want, 0)
    gx = g * gamma * inv

    return {
        "out": rel_error(out.values, want, np.abs(want).max()),
        "gx": rel_error(xp.grad, gx, np.abs(gx).max()),
        "ggamma": rel_error(gp.grad[0], (g * xhat).sum(axis=0), np.abs(g * xhat).sum(axis=0)),
        "gbeta": rel_error(bp.grad[0], g.sum(axis=0), np.abs(g).sum(axis=0)),
    }


# Bounds of the eval-mode oracle test below, on the rng fixture's data
# (2-core x86, OpenBLAS). Centring on the running mean before scaling
# measures 1.3e-7 (out), 1.0e-7 (gx), 8.1e-9 (ggamma) and 8.0e-9 (gbeta),
# and at most 2.2e-7, 1.5e-7, 7.0e-8 and 3.0e-8 over 30 further seeds.
# Writing x * scale + (beta - gamma * mean * inv), with numpy's axis-0 sums
# for the two parameter gradients, measured 6.5e-7, 1.0e-7, 6.0e-8 and
# 4.0e-8 on the fixture's data and 2.1e-6 (out) over those seeds.
BN_EVAL_ORACLE_BOUNDS = {"out": 4e-7, "gx": 3e-7, "ggamma": 1e-7, "gbeta": 1e-7}


def test_batch_norm_eval_matches_float64_oracle(rng):
    """Eval-mode BN over float32 maps of several row blocks, the last one
    ragged, with running means 10 to 50 away from zero: output and all
    three gradients against a float64 reference, with and without the
    fused relu."""
    worst = dict.fromkeys(BN_EVAL_ORACLE_BOUNDS, 0.0)
    for n, c in ((40_001, 4), (9_001, 16)):
        blocks = nn._row_blocks(np.zeros((n, c), np.float32))
        assert len(blocks) > 2 and blocks[-1][1] == c
        case = bn_oracle_case(rng, n, c)
        x64 = case[0].astype(np.float64)
        mean, std = x64.mean(axis=0), x64.std(axis=0)
        rmean = (mean + 0.5 * std * rng.normal(size=c))[None].astype(np.float32)
        rvar = (std * std * rng.uniform(0.5, 2.0, size=c))[None].astype(np.float32)
        assert np.all((np.abs(rmean) > 10) & (np.abs(rmean) < 50))
        for relu in (False, True):
            for k, e in batch_norm_eval_errors(*case, (rmean, rvar), relu).items():
                worst[k] = max(worst[k], e)
    for k, e in worst.items():
        assert e < BN_EVAL_ORACLE_BOUNDS[k], (k, e)


def test_batch_norm_train_statistics(rng):
    m, c = 200, 4
    x = FeatureMap(rng.normal(2.0, 3.0, size=(m, c)))
    params = nn.BNParams(
        gamma=FeatureMap(np.ones((1, c))),
        beta=FeatureMap(np.zeros((1, c))),
        running_mean=np.zeros((1, c)),
        running_var=np.ones((1, c)),
    )
    y = nn.batch_norm(x, params, train=True)
    assert np.abs(y.values.mean(axis=0)).max() < 1e-6
    assert np.abs(y.values.std(axis=0) - 1.0).max() < 1e-3
    # running stats moved toward the batch stats by 1 - momentum
    want_rm = 0.1 * x.values.mean(axis=0)
    assert np.allclose(params.running_mean[0], want_rm, atol=1e-6)


def test_batch_norm_eval_uses_running_stats(rng):
    c = 3
    params = nn.BNParams(
        gamma=FeatureMap(np.full((1, c), 2.0)),
        beta=FeatureMap(np.full((1, c), 1.0)),
        running_mean=np.full((1, c), 5.0),
        running_var=np.full((1, c), 4.0),
    )
    x = FeatureMap(np.full((2, c), 7.0))
    y = nn.batch_norm(x, params, train=False)
    want = 2.0 * (7.0 - 5.0) / np.sqrt(4.0 + nn.BN_EPSILON) + 1.0
    assert np.allclose(y.values, want, atol=1e-6)


def test_max_pool_all_empty_children_zero(rng):
    x = FeatureMap(rng.normal(size=(16, 2)), level=1)
    # the roots of a batch of three: root 0 owns rows 0..7 (two nonempty),
    # root 1 is empty, root 2 owns rows 8..15, all empty
    status = np.array([1, 0, 1], dtype=np.uint8)
    child_status = np.zeros(16, dtype=np.uint8)
    child_status[:2] = 1
    roots = make_level(np.arange(3, dtype=np.uint64), status, True)
    y = nn.max_pool(x, nn.BlockMap(roots, root_pairs(status), child_status))
    assert y.rows == 2  # one row per owner: roots 0 and 2
    assert np.array_equal(y.values[1], np.zeros(2))
    assert np.allclose(y.values[0], np.maximum(x.values[0], x.values[1]))


def pool_case(rng, c=3):
    """A BlockMap of 7 roots, 5 of them owners (rows 0, 2, 3, 4, 6), and a
    float32 input of their 40 children: owner 0 has 2 nonempty children,
    owner 1 (row 2) none, owner 2 (row 3) 8 whose channels tie at their
    max, owner 3 (row 4) 2 whose values are all below those of its empty
    children and -inf in channel 2, owner 4 (row 6) 8 distinct ones."""
    status = np.array([1, 0, 1, 1, 1, 0, 1], dtype=np.uint8)
    child_status = np.zeros(40, dtype=np.uint8)
    child_status[[0, 1, 25, 30]] = 1
    child_status[16:24] = child_status[32:40] = 1
    xv = rng.normal(size=(40, c)).astype(np.float32)
    xv[16:24] = xv[16]  # every child the same: each channel ties 8 ways
    xv[[17, 21], 1] = 5.0  # a two-way tie at the max of channel 1
    xv[24:32] = -np.abs(xv[24:32]) - 1.0
    xv[[24, 26, 27, 28, 29, 31]] = 100.0  # empty: below every value read
    xv[[25, 30], 2] = -np.inf  # the max is -inf, at an empty child's slot
    roots = make_level(np.arange(7, dtype=np.uint64), status, True)
    return nn.BlockMap(roots, root_pairs(status), child_status), xv


def test_max_pool_gives_owner_rows_and_reads_no_values_in_backward(rng):
    """One output row per owner, in order, on a map with empty children,
    a dead owner, tied maxima, values below its empty children's and a
    -inf maximum. The taped output carries no recipe, and backward reads
    no values of an input that carries one: each (owner, channel)'s
    gradient goes to its first nonempty argmax child, none where that
    child is empty."""
    bmap, xv = pool_case(rng)
    asked = []

    def recipe(rows=None):
        asked.append(rows)
        return xv.copy() if rows is None else np.take(xv, rows, axis=0)

    g = rng.normal(size=(bmap.owners, 3)).astype(np.float32)
    x0 = ad.parameter(xv.copy())
    with ad.Tape():
        x = ad.custom_op(xv.copy(), [x0], lambda gx: (gx,), remake=recipe)
        out = nn.max_pool(x, bmap)
        assert out._slot.remake is None
        values = out.values
        ad.backward(ad.custom_op(np.zeros(1), [out], lambda _: (g,)))
    assert asked == []
    assert values.dtype == np.float32 and values.shape == (5, 3)
    blocks = xv.reshape(5, 8, 3)
    assert np.array_equal(values[0], blocks[0, :2].max(axis=0))
    assert np.array_equal(values[1], np.zeros(3))  # the dead owner
    assert np.array_equal(values[2], np.maximum(xv[16], xv[17]))
    assert np.array_equal(values[3], np.maximum(xv[25], xv[30]))
    assert (values[3] < 0).all() and values[3, 2] == -np.inf
    assert np.array_equal(values[4], blocks[4].max(axis=0))
    want = np.zeros_like(xv)
    for ch in range(3):  # owner 0 reads children 0 and 1 alone, owner 4 all 8
        want[np.argmax(xv[:2, ch]), ch] = g[0, ch]
        want[32 + np.argmax(xv[32:, ch]), ch] = g[4, ch]
    want[16, [0, 2]] = g[2, [0, 2]]  # the first of 8 ties
    want[17, 1] = g[2, 1]  # the first of two ties
    for ch in range(2):  # channel 2's argmax is an empty child: no gradient
        want[25 if xv[25, ch] >= xv[30, ch] else 30, ch] = g[3, ch]
    assert np.array_equal(x0.grad, want)


def pooled(x, bmap, g):
    """max_pool's output values and its input gradient for upstream g."""
    x = ad.parameter(x)
    with ad.Tape():
        out = nn.max_pool(x, bmap)
        ad.backward(ad.custom_op(np.zeros(1), [out], lambda _: (g,)))
    return out.values, x.grad


@pytest.mark.parametrize("case", ["pool_case", "scan_batch"])
def test_max_pool_in_row_blocks_is_bit_identical(case, rng, monkeypatch):
    """The forward walks the owners in blocks of about BN_BLOCK_BYTES of
    input: blocks of 3 owners (pool_case's 5 owners: dead, tied, -inf and
    below-empty ones) or 7 (two merged scans), the last one ragged, give
    the output and gradient of one block over the whole map bit for bit."""
    if case == "pool_case":
        bmap, xv, per_block = *pool_case(rng), 3
    else:
        bmap, per_block = scan_batch().block_map(4), 7
        xv = rng.normal(size=(bmap.rows, 6)).astype(np.float32)
    assert bmap.owners % per_block
    g = rng.normal(size=(bmap.owners, xv.shape[1])).astype(np.float32)
    monkeypatch.setattr(nn, "BN_BLOCK_BYTES", 1 << 40)
    want = pooled(xv.copy(), bmap, g)
    monkeypatch.setattr(nn, "BN_BLOCK_BYTES", per_block * 8 * xv.shape[1] * xv.itemsize)
    got = pooled(xv.copy(), bmap, g)
    assert got[0].dtype == want[0].dtype == np.float32
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_max_pool_forward_holds_one_block_of_its_input(rng):
    """The forward's traced peak on a 2 MiB float32 input (4096 owners of
    8 children, 16 channels, a quarter of the children empty) stays below
    half the input's bytes: the -inf copy and the int64 argmax are made
    one block at a time, and what stays is the output and one byte per
    (owner, channel)."""
    owners, c = 4096, 16
    status = np.ones(owners, dtype=np.uint8)
    child_status = (rng.random(8 * owners) < 0.75).astype(np.uint8)
    roots = make_level(np.arange(owners, dtype=np.uint64), status, True)
    bmap = nn.BlockMap(roots, root_pairs(status), child_status)
    x = FeatureMap(rng.normal(size=(8 * owners, c)).astype(np.float32))
    tracemalloc.start()
    try:
        out = nn.max_pool(x, bmap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.values.shape == (owners, c)
    assert peak < x.values.nbytes // 2


def test_linear_recipe_remakes_its_output_bit_for_bit(rng):
    """ad.linear gives a taped output a recipe over its input's reader
    that remakes it bit for bit, whole and at rows in any order and with
    repeats, biased or not, through an input that itself carries a recipe
    (a batch-norm output); an untaped output carries none."""
    n, cin, cout = 1000, 6, 5
    xv = rng.normal(size=(n, cin)).astype(np.float32)
    wv = rng.normal(size=(cout, cin)).astype(np.float32)
    bv = rng.normal(size=(1, cout)).astype(np.float32)
    rows = rng.integers(0, n, size=300)
    x, w, b = (ad.parameter(v.copy()) for v in (xv, wv, bv))
    with ad.Tape():
        a = nn.batch_norm(x, bn_params(cin, rng), True, relu=True)
        for bias in (b, None):
            y = ad.linear(a, w, bias)
            assert ad.remade(a) and ad.remade(y)
            assert np.array_equal(y._slot.remake(), y.values)
            assert np.array_equal(y._slot.remake(rows), y.values[rows])
    assert not ad.remade(ad.linear(ad.constant(xv), w, b))


@pytest.mark.parametrize("relu", [False, True], ids=["bn", "bn_relu"])
@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
def test_batch_norm_over_a_remade_input_equals_it_over_a_kept_one(train, relu, rng, monkeypatch):
    """batch_norm holds its input through ad.reader: over an input that
    carries a recipe (ad.linear's, as ResBlockStack's 1x1 projection)
    its output, the values its own recipe remakes, whole and
    at a scan level's nonempty rows, and every gradient through a conv
    that reads its nonempty rows equal, bit for bit, those of the same chain over the
    input kept. The remade input is freed once dropped, and its recipe
    is dropped when the linear replays."""
    monkeypatch.setattr(nn, "BN_BLOCK_BYTES", 4096)
    o, level, _ = conv_case("scan")
    bmap = block_map_of(o, level)
    n, cin, c, cout = bmap.rows, 3, 4, 5
    xv = rng.normal(size=(n, cin)).astype(np.float32)
    wv = rng.normal(size=(c, cin)).astype(np.float32)
    wc = rng.normal(size=(cout, 27 * c)).astype(np.float32)
    up = ad.constant(rng.normal(size=(n, cout)).astype(np.float32))
    full = bmap.full_rows
    seed = int(rng.integers(1 << 30))
    results = []
    for remade in (True, False):
        x, w, v = (ad.parameter(a.copy()) for a in (xv, wv, wc))
        params = bn_params(c, np.random.default_rng(seed))
        with ad.Tape():
            if remade:
                h = ad.linear(x, w)
            else:  # ad.linear's arithmetic, with no recipe
                xk, wk = x.values, w.values
                h = ad.custom_op(xk @ wk.T, [x, w], lambda g: (g @ wk, g.T @ xk))
            kept, h_slot = weakref.ref(h.values), h._slot
            y = nn.batch_norm(h, params, train, relu=relu)
            del h
            assert (kept() is None) == remade
            values, recipe = y.values.copy(), y._slot.remake
            remakes = [recipe(), recipe(full)]
            out = nn.octree_conv(nn.nonempty(y, bmap), bmap, v)
            del y
            ad.backward(ad.sum_all(ad.mul(out, up)))
        assert h_slot.remake is None
        grads = [x.grad, w.grad, v.grad, params.gamma.grad, params.beta.grad]
        results.append([values, *remakes, out.values, *grads])
    values, whole, at_rows = results[0][:3]
    assert np.array_equal(whole, values) and np.array_equal(at_rows, values[full])
    for got, want in zip(*results):
        assert got.dtype == np.float32
        assert np.array_equal(got, want)


def test_parameters_store():
    p = nn.Parameters()
    p.create("a", np.ones((2, 2)))
    with pytest.raises(DomainError):
        p.create("a", np.ones(1))
    p.create("b", np.ones((1, 3)), trainable=False)
    assert p["b"].values.shape == (1, 3) and not p.meta["b"]["trainable"]
    assert p.names() == ["a", "b"]


def test_resblock_projection_and_count(rng):
    p = nn.Parameters()
    rb = nn.ResBlockStack(p, "rb", 8, 16, 2, rng=rng)
    rb2 = nn.ResBlockStack(p, "rb2", 16, 16, 2, rng=rng)
    assert rb.projection is not None and rb2.projection is None
    # one weight matrix per layer: 2 per block, plus the projection
    weights = [name.split(".")[0] for name in p.names() if name.endswith(".w")]
    assert weights.count("rb") == 5 and weights.count("rb2") == 4


def test_mlp_head_shapes(rng):
    p = nn.Parameters()
    head = nn.MLPHead(p, "h", 8, 16, 3, rng=rng)
    x = FeatureMap(rng.normal(size=(5, 8)).astype(np.float32))
    y = head.forward(x)
    assert y.values.shape == (5, 3)
