"""Neural operators against dense-grid oracles and adjoint identities."""

import numpy as np
import pytest
from scipy import sparse

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


@pytest.mark.parametrize("case", ["2", "3", "leaf", "scan"])
def test_conv_matches_dense(case, rng):
    cin, cout = 3, 5
    o, level, kinds = conv_case(case)
    lv = o.levels[level]
    feats = rng.normal(size=(lv.num_nodes, cin)).astype(np.float32)
    w = rng.normal(size=(cout, 27 * cin)).astype(np.float32)
    bmap = block_map_of(o, level, kinds)
    y = nn.octree_conv(FeatureMap(feats, level=level), bmap, FeatureMap(w))
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
    y = nn.octree_conv(FeatureMap(feats, level=2), bmap, FeatureMap(w))
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
    xv = rng.normal(size=(m, cin))
    wv = rng.normal(size=(cout, 27 * cin))
    x, w = ad.parameter(xv), ad.parameter(wv)
    bmap = block_map_of(o, 2)

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

    xv = rng.normal(size=(m, cin))
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
    assert np.any(table < 0)
    taps = table.shape[1]
    xv = rng.normal(size=(rows, cin)).astype(np.float32)
    wv = rng.normal(size=(cout, taps * cin)).astype(np.float32)
    g = rng.normal(size=(table.shape[0], cout)).astype(np.float32)

    cols = kernels.gather_concat(xv, table)  # (rows, taps * cin)
    assert_close_f32(conv(FeatureMap(xv), FeatureMap(wv)).values, cols @ wv.T)
    want_gx = np.zeros_like(xv)
    flat, gx_flat = table.ravel(), (g @ wv).reshape(-1, cin)
    np.add.at(want_gx, flat[flat >= 0], gx_flat[flat >= 0])
    gx, gw = taped_grads(conv, ad.parameter(xv.copy()), ad.parameter(wv.copy()), g)
    assert_close_f32(gx, want_gx)
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
    assert_close_f32(conv(FeatureMap(xv), FeatureMap(wv)).values, want_out)
    x = ad.parameter(xv.copy()) if tracked else ad.constant(xv.copy())
    gx, gw = taped_grads(conv, x, ad.parameter(wv.copy()), g)
    if tracked:
        assert_close_f32(gx, want_gx)
    else:
        assert gx is None
    assert_close_f32(gw, want_gw)


def test_block_map_keeps_no_sparse_matrix(rng):
    """A conv forward and backward leave no scipy.sparse matrix on the
    level's BlockMap, in an attribute or in a container it holds: each
    call builds its scatter matrices and drops them."""
    bmap, table, _ = oracle_case("batch")
    xv = rng.normal(size=(len(table), 4)).astype(np.float32)
    wv = rng.normal(size=(3, 27 * 4)).astype(np.float32)
    g = rng.normal(size=(len(table), 3)).astype(np.float32)
    gx, gw = taped_grads(
        lambda x, w: nn.octree_conv(x, bmap, w), ad.parameter(xv), ad.parameter(wv), g
    )
    assert gx is not None and gw is not None

    def contents(value):
        if isinstance(value, dict):
            value = [*value.keys(), *value.values()]
        if isinstance(value, (list, tuple)):
            return [v for item in value for v in contents(item)]
        return [value]

    assert not any(sparse.issparse(v) for v in contents(list(vars(bmap).values())))


def one_child_octree(rng, depth=4, parents=200):
    """An octree whose `parents` random cells one level above the finest
    own one child each: a tap reads about one gathered child in 8, so
    every tap of the finest level's block map runs split."""
    cells = rng.choice(1 << (3 * (depth - 1)), size=parents, replace=False).astype(np.uint64)
    slots = rng.integers(0, 8, size=parents).astype(np.uint64)
    return octree_from_codes(np.sort(cells << np.uint64(3) | slots), depth)


@pytest.mark.parametrize("case", ["split", "scan"])
def test_conv_reads_no_garbage_in_empty_rows(case, rng):
    """NaN in the rows flagged empty gives, bit for bit, the output and
    both gradients of zeros there, and a zero input gradient on them: a
    split-only map reads x as it is, a map with merged groups reads a
    zeroed copy."""
    if case == "split":
        o, level = one_child_octree(rng), 4
        bmap = block_map_of(o, level, {nn.SPLIT})
        assert not bmap.reads_empty
    else:
        o, level = scan_octree(depth=5), 5
        bmap = block_map_of(o, level, {nn.MERGED, nn.SPLIT})
        assert bmap.reads_empty
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
            y = nn.octree_conv(x, bmap, w)
            ad.backward(ad.sum_all(ad.mul(y, ad.constant(g))))
        results.append((y.values, x.grad, w.grad))
    for want, got in zip(*results):
        assert np.isfinite(got).all()
        assert np.array_equal(got, want)
    assert not results[1][1][empty].any()


def test_block_matrices_hold_each_entry_tap_weight(rng):
    """Block (child, slot) of parent tap T's gemm matrix is W_t.T, t the
    child tap by which that slot reads that child, the children and slots
    of T in ascending order."""
    for cin, cout in ((8, 32), (32, 8), (4, 16)):
        w = rng.normal(size=(cout, 27 * cin)).astype(np.float32)
        mats = nn.BlockMap.matrices(w)
        for T in range(27):
            s, t = np.nonzero(_PARENT_TAP == T)
            kids = _CHILD_SLOT[s, t]
            slots, children = np.unique(s), np.unique(kids)
            k = len(slots)
            assert mats[T].shape == (k * cin, k * cout) and len(s) == k * k
            for slot, tap, kid in zip(s, t, kids):
                ci, si = np.searchsorted(children, kid), np.searchsorted(slots, slot)
                block = mats[T][ci * cin : (ci + 1) * cin, si * cout : (si + 1) * cout]
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
    # across the k > 1 gather and the 8 corners' tap slices, every tap's
    # cin rows of w.T are named exactly 8 times, and each corner names
    # another tap, so grads may assign a corner's block
    corners = [nn._BLOCK_TAPS[a] for a, b in zip(nn._BLOCK_START, nn._BLOCK_START[1:]) if b - a == 1]
    assert len(set(corners)) == len(corners) == 8
    for cin in (1, 3):
        named = np.concatenate([nn._matrix_rows(cin)] + [t * cin + np.arange(cin) for t in corners])
        assert np.array_equal(np.bincount(named, minlength=27 * cin), np.full(27 * cin, 8))


def test_weight_fold_is_the_adjoint_of_the_matrix_gather(rng):
    """For G in the layout of the gemm matrices (_views), the sum over T of
    <matrices(w)[T], G_T> equals <w, G folded onto the rows of w.T>: the
    weight gradient's fold is the adjoint of the forward's gather."""
    for cin in (1, 3, 8):
        cout = 5
        w = rng.normal(size=(cout, 27 * cin))
        grows = np.zeros((len(nn._matrix_rows(cin)), cout))
        gwt = np.zeros((27 * cin, cout))  # rows no corner names stay zero
        mats, gmats = nn.BlockMap.matrices(w), nn._views(grows, gwt, cin)
        for gm in gmats:
            gm[...] = rng.normal(size=gm.shape)
        assert grows.all()
        lhs = sum(np.vdot(m, gm) for m, gm in zip(mats, gmats))
        rhs = np.vdot(w.T, gwt + nn._fold(cin) @ grows)
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
    with pytest.raises(DomainError, match="row mismatch"):
        nn.octree_conv(FeatureMap(rng.normal(size=(bmap.rows - 8, 3))), bmap, w)


@pytest.mark.parametrize("op", ["conv", "downsample"])
def test_untracked_input_gets_no_gradient(op, rng, monkeypatch):
    """A conv or downsample of a constant input, as the network's input
    signal is, computes no input gradient, and its weight gradient is the
    tracked path's bit for bit."""
    o, level = (scan_octree(depth=5), 5) if op == "conv" else (scan_octree(), 4)
    cin, cout = 4, 8
    xv = rng.normal(size=(o.levels[level].num_nodes, cin)).astype(np.float32)
    if op == "conv":
        bmap = block_map_of(o, level, {nn.MERGED, nn.SPLIT})
        fn = lambda x, w: nn.octree_conv(x, bmap, w)
        wv = rng.normal(size=(cout, 27 * cin)).astype(np.float32)
        g = rng.normal(size=(len(xv), cout)).astype(np.float32)
    else:
        bmap = block_map_of(o, level)
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
    gx, _ = taped_grads(pool, ad.parameter(xv.copy()), None, g)
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

    cols = kernels.gather_concat(xv, table)  # (rows, 8 * cin) im2col
    assert_close_f32(down(FeatureMap(xv), FeatureMap(wv)).values, cols @ wv.T)
    want_gx = np.zeros_like(xv)
    flat, gx_flat = table.ravel(), (g @ wv).reshape(-1, cin)
    np.add.at(want_gx, flat[flat >= 0], gx_flat[flat >= 0])
    gx, gw = taped_grads(down, ad.parameter(xv.copy()), ad.parameter(wv.copy()), g)
    assert_close_f32(gx, want_gx)
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
    assert np.array_equal(pool(FeatureMap(xv), None).values, want.astype(np.float32))
    gx, _ = taped_grads(pool, ad.parameter(xv.copy()), None, g)
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
    """downsample and max_pool reject an input whose rows are not the map's
    level's, upsample one whose rows are not the parent level's, and no map
    is built over a parent level one owner short or a child status 8 rows
    short."""
    batch = OctreeBatch([scan_octree()])
    bmap = batch.block_map(4)
    c = 3
    x = FeatureMap(rng.normal(size=(bmap.rows, c)), level=4)
    short = FeatureMap(x.values[:-8], level=4)  # 8 child rows too few
    w = FeatureMap(rng.normal(size=(2, 8 * c)))
    with pytest.raises(DomainError, match="row mismatch"):
        nn.downsample(short, bmap, w)
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
    assert nn.downsample(x, bmap, w).rows == nn.max_pool(x, bmap).rows == up.num_nodes
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

    def rel(a, b, scale):
        return float((np.abs(a - b) / scale).max())

    m = 1.0 - nn.BN_MOMENTUM
    return {
        "out": rel(out.values, want, np.abs(want).max()),
        "mean": rel(params.running_mean[0] / m, mu, np.abs(mu)),
        "var": rel(params.running_var[0] / m, var, var),
        "gx": rel(xp.grad, gx, np.abs(gx).max()),
        "ggamma": rel(gp.grad[0], ggamma, np.abs(g * xhat).sum(axis=0)),
        "gbeta": rel(bp.grad[0], gbeta, np.abs(g).sum(axis=0)),
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
    assert np.array_equal(y.values[1], np.zeros(2))
    assert np.array_equal(y.values[2], np.zeros(2))
    assert np.allclose(y.values[0], np.maximum(x.values[0], x.values[1]))


def test_parameters_store():
    p = nn.Parameters()
    p.create("a", np.ones((2, 2)))
    with pytest.raises(DomainError):
        p.create("a", np.ones(1))
    p.create("b", np.ones((1, 3)), trainable=False)
    assert p.total_count() == 7
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
