"""Neural operators against dense-grid oracles and adjoint identities."""

import numpy as np
import pytest

from octcomplete import autodiff as ad
from octcomplete import data as dt
from octcomplete import kernels, nn
from octcomplete.autodiff import FeatureMap
from octcomplete.errors import DomainError
from octcomplete.network import OctreeBatch
from octcomplete.octree import build_octree, coords_from_keys, octree_from_codes

from conftest import child_table, nbr_table, numeric_grad, table_kernel_map


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
    """An octree, a level, and the tap kinds of that level's KernelMap.

    A depth ("2", "3"): the complete octree, every row nonempty, so the
    center tap is the identity and the rest are dense. "leaf": one nonempty
    leaf among its 7 empty siblings, every tap sparse. "scan": a scanned
    cylinder's finest level, dense and sparse taps side by side.
    """
    if case == "leaf":
        return octree_from_codes(np.array([100], dtype=np.uint64), 3), 3, {nn.SPARSE}
    if case == "scan":
        return scan_octree(), 4, {nn.DENSE, nn.SPARSE}
    depth = int(case)
    return complete_octree(depth), depth, {nn.IDENTITY, nn.DENSE}


def kernel_map_of(o, level, kinds):
    kmap = table_kernel_map(nbr_table(o, level))
    assert {kind for kind, _, _ in kmap.taps} == kinds
    return kmap


@pytest.mark.parametrize("case", ["2", "3", "leaf", "scan"])
def test_conv_matches_dense(case, rng):
    cin, cout = 3, 5
    o, level, kinds = conv_case(case)
    lv = o.levels[level]
    feats = rng.normal(size=(lv.num_nodes, cin)).astype(np.float32)
    w = rng.normal(size=(cout, 27 * cin)).astype(np.float32)
    kmap = kernel_map_of(o, level, kinds)
    y = nn.octree_conv(FeatureMap(feats, level=level), kmap, FeatureMap(w))
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
    st = o.levels[depth - 1].status, o.levels[depth].status
    y = nn.downsample(FeatureMap(feats, level=depth), *st, FeatureMap(w))
    want = dense_down(to_grid(o, depth, feats), w, cin, cout)
    assert np.abs(to_grid(o, depth - 1, y.values) - want).max() < 1e-5


@pytest.mark.parametrize("depth", [2, 3])
def test_max_pool_matches_dense(depth, rng):
    c = 3
    o = complete_octree(depth)
    feats = rng.normal(size=(o.levels[depth].num_nodes, c)).astype(np.float32)
    st = o.levels[depth - 1].status, o.levels[depth].status
    y = nn.max_pool(FeatureMap(feats, level=depth), *st)
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
    kmap = table_kernel_map(nbr_table(o, 3))
    y = nn.octree_conv(FeatureMap(feats, level=3), kmap, FeatureMap(w))
    assert np.array_equal(y.values, feats)


def test_empty_neighbors_read_as_zero(rng):
    c = 2
    o = octree_from_codes(np.array([0], dtype=np.uint64), 2)
    # only one nonempty node; its 26 real neighbors are empty siblings or absent
    feats = rng.normal(size=(o.levels[2].num_nodes, c)).astype(np.float32)
    w = rng.normal(size=(c, 27 * c)).astype(np.float32)
    kmap = table_kernel_map(nbr_table(o, 2))
    y = nn.octree_conv(FeatureMap(feats, level=2), kmap, FeatureMap(w))
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

    down = nn.downsample(
        FeatureMap(x, level=2),
        o.levels[1].status,
        o.levels[2].status,
        FeatureMap(wd),
    )
    up = nn.upsample(
        FeatureMap(y, level=1),
        np.arange(8),
        FeatureMap(wu),
    )
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
    kmap = table_kernel_map(nbr_table(o, 2))

    def run():
        y = nn.octree_conv(x, kmap, w)
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
    st = [lv.status for lv in o.levels]
    cin, cout = 2, 3
    cases = []

    xv = rng.normal(size=(m, cin))
    wv = rng.normal(size=(cout, 8 * cin))
    x, w = ad.parameter(xv), ad.parameter(wv)
    cases.append(
        (lambda: nn.downsample(x, st[1], st[2], w), [(x, xv), (w, wv)])
    )

    yv = rng.normal(size=(p, cout))
    wuv = rng.normal(size=(8 * cin, cout))
    yfm, wu = ad.parameter(yv), ad.parameter(wuv)
    sel = np.flatnonzero(o.levels[1].status == 1)
    cases.append((lambda: nn.upsample(yfm, sel, wu), [(yfm, yv), (wu, wuv)]))

    pv = rng.normal(size=(m, cin))
    pool_in = ad.parameter(pv)
    cases.append((lambda: nn.max_pool(pool_in, st[1], st[2]), [(pool_in, pv)]))

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
    """Conv over a status-filtered stencil, with each tap kind among the
    cases, and downsample over a child table, against the im2col form whose
    input gradient is scattered by np.add.at."""
    cin, cout = 5, 7
    if kernel == 3:
        o, level, kinds = conv_case(case)
        table = nbr_table(o, level)
        kmap = kernel_map_of(o, level, kinds)
        conv = lambda x, w: nn.octree_conv(x, kmap, w)
        rows = o.levels[level].num_nodes
    else:
        o = scan_octree()
        table = child_table(o, 3)
        conv = lambda x, w: nn.downsample(x, o.levels[3].status, o.levels[4].status, w)
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


def per_tap_conv(xv, table, wv, g):
    """The per-tap formula of a kernel-map conv over a neighbor table, with
    its input and weight gradients for the output gradient g: each tap adds
    its gathered rows' product into out[a] in tap order."""
    taps = table.shape[1]
    w = wv.reshape(wv.shape[0], taps, -1)
    out = np.zeros((len(table), w.shape[0]), dtype=xv.dtype)
    gx, gw = np.zeros_like(xv), np.empty_like(w)
    for t, col in enumerate(table.T):
        a = np.flatnonzero(col >= 0)
        b = col[a]
        out[a] += np.take(xv, b, axis=0) @ w[:, t].T
        go = np.take(g, a, axis=0)
        gw[:, t] = go.T @ np.take(xv, b, axis=0)
        gx[b] += go @ w[:, t]
    return out, gx, gw.reshape(wv.shape)


@pytest.mark.parametrize("cin, cout", [(4, 16), (16, 16), (32, 8)])
@pytest.mark.parametrize("case", ["leaf", "shell"])
def test_all_sparse_conv_is_bit_identical_to_per_tap_formula(case, cin, cout, rng):
    """On a map whose taps are all sparse, the one sparse-matrix scatter of
    the pair products gives the output and the input gradient of the
    per-tap formula bit for bit: each output row gets at most one pair per
    tap, added in tap order. The weight gradient sums its pairs in their
    derived order, so it is only close. The pairs are derived from the
    roots down, as a network's are."""
    if case == "leaf":
        o, level = octree_from_codes(np.array([100], dtype=np.uint64), 3), 3
    else:
        shell = dt.make_shape("sphere", density=1500, seed=2)
        o, level = build_octree(shell, 7), 7
    batch = OctreeBatch([o])
    kmap = batch.kernel_map(level)
    assert {kind for kind, _, _ in kmap.taps} == {nn.SPARSE}
    table = nbr_table(o, level)
    xv = rng.normal(size=(len(table), cin)).astype(np.float32)
    wv = rng.normal(size=(cout, 27 * cin)).astype(np.float32)
    g = rng.normal(size=(len(table), cout)).astype(np.float32)
    want_out, want_gx, want_gw = per_tap_conv(xv, table, wv, g)
    conv = lambda x, w: nn.octree_conv(x, kmap, w)
    assert np.array_equal(conv(FeatureMap(xv), FeatureMap(wv)).values, want_out)
    gx, gw = taped_grads(conv, ad.parameter(xv.copy()), ad.parameter(wv.copy()), g)
    assert np.array_equal(gx, want_gx)
    assert_close_f32(gw, want_gw)


@pytest.mark.parametrize("op", ["conv", "downsample"])
def test_untracked_input_gets_no_gradient(op, rng, monkeypatch):
    """A conv or downsample of a constant input, as the network's input
    signal is, computes no input gradient, and its weight gradient is the
    tracked path's bit for bit."""
    o = scan_octree()
    cin, cout = 4, 8
    xv = rng.normal(size=(o.levels[4].num_nodes, cin)).astype(np.float32)
    if op == "conv":
        kmap = table_kernel_map(nbr_table(o, 4))
        assert {kind for kind, _, _ in kmap.taps} == {nn.DENSE, nn.SPARSE}
        fn = lambda x, w: nn.octree_conv(x, kmap, w)
        wv = rng.normal(size=(cout, 27 * cin)).astype(np.float32)
        g = rng.normal(size=(len(xv), cout)).astype(np.float32)
    else:
        fn = lambda x, w: nn.downsample(x, o.levels[3].status, o.levels[4].status, w)
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


def test_kernel_map_identity_needs_arange(rng):
    """A full column is an identity tap only when it is arange(rows): a full
    permutation stays dense. The three kinds together match im2col."""
    rows, cin, cout = 40, 3, 4
    sparse = np.full(rows, -1)
    sparse[:5] = np.arange(7, 12)  # 5 of 40 rows valid
    table = np.stack([np.arange(rows), rng.permutation(rows), sparse], axis=1)
    kmap = table_kernel_map(table)
    assert [kind for kind, _, _ in kmap.taps] == [nn.IDENTITY, nn.DENSE, nn.SPARSE]
    xv = rng.normal(size=(rows, cin)).astype(np.float32)
    wv = rng.normal(size=(cout, 3 * cin)).astype(np.float32)
    y = nn.octree_conv(FeatureMap(xv), kmap, FeatureMap(wv))
    assert_close_f32(y.values, kernels.gather_concat(xv, table) @ wv.T)


def test_max_pool_grad_matches_add_at(rng):
    o = scan_octree()
    table = child_table(o, 3)
    c = 6
    xv = rng.normal(size=(o.levels[4].num_nodes, c)).astype(np.float32)
    g = rng.normal(size=(table.shape[0], c)).astype(np.float32)
    pool = lambda x, w: nn.max_pool(x, o.levels[3].status, o.levels[4].status)
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
    st = batch.levels[3].status, batch.levels[4].status
    down = lambda x, w: nn.downsample(x, *st, w)

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
    pool = lambda x, w: nn.max_pool(x, batch.levels[3].status, batch.levels[4].status)

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

    up = lambda x, w: nn.upsample(x, rows, w)
    assert np.array_equal(
        up(FeatureMap(xv), FeatureMap(wv)).values, composed(FeatureMap(xv), FeatureMap(wv)).values
    )
    got = taped_grads(up, ad.parameter(xv.copy()), ad.parameter(wv.copy()), g)
    want = taped_grads(composed, ad.parameter(xv.copy()), ad.parameter(wv.copy()), g)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_block_ops_reject_mismatched_child_rows(rng):
    o = scan_octree()
    status, child_status = o.levels[3].status, o.levels[4].status
    c = 3
    x = FeatureMap(rng.normal(size=(len(child_status), c)), level=4)
    short = FeatureMap(x.values[:-8], level=4)
    w = FeatureMap(rng.normal(size=(2, 8 * c)))
    one_less = status.copy()
    one_less[np.flatnonzero(status)[0]] = 0
    cases = (
        (status, child_status, short),  # 8 child rows too few
        (one_less, child_status, x),  # one nonempty parent too few
        (status, child_status[:-8], x),  # a child status 8 rows short
    )
    for st, cst, fm in cases:
        with pytest.raises(DomainError):
            nn.downsample(fm, st, cst, w)
        with pytest.raises(DomainError):
            nn.max_pool(fm, st, cst)
    assert nn.downsample(x, status, child_status, w).rows == len(status)
    assert nn.max_pool(x, status, child_status).rows == len(status)


def test_ops_reject_weight_of_other_input_channels(rng):
    """Each op reads the input channel count off its weight's columns:
    27 * c for octree_conv, 8 * c for downsample, c for upsample."""
    o = complete_octree(2)
    c = 3
    x = FeatureMap(rng.normal(size=(o.levels[2].num_nodes, c)), level=2)
    kmap = table_kernel_map(nbr_table(o, 2))
    st = o.levels[1].status, o.levels[2].status
    weight = lambda rows, cols: FeatureMap(rng.normal(size=(rows, cols)))
    ops = (
        lambda cin: nn.octree_conv(x, kmap, weight(2, 27 * cin)),
        lambda cin: nn.downsample(x, *st, weight(2, 8 * cin)),
        lambda cin: nn.upsample(x, np.arange(8), weight(8 * 2, cin)),
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
    in eval mode a NaN input maps to 0, as ad.relu maps it."""
    m, c = 16, 4
    xv = rng.normal(size=(m, c)).astype(np.float32)
    xv[:, 0] = 2.0
    gv = (rng.normal(size=(1, c)) + 1.0).astype(np.float32)
    gv[0, 1] = 0.0
    bv = np.zeros((1, c), np.float32)
    bv[0, 3] = 0.5
    if not train:
        xv[3, 2] = np.nan
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
    inv = 1.0 / np.sqrt(var + params.epsilon)
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

    m = 1.0 - params.momentum
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
# of its four cases when the reductions were numpy's axis-0 mean, var and
# sum, measured on the same data (the rng fixture's), and above the worst
# error of the gemv reductions (2-core x86, OpenBLAS):
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
    reference, with and without the fused relu."""
    worst = dict.fromkeys(BN_ORACLE_BOUNDS, 0.0)
    for n, c in ((100_000, 4), (16_384, 128)):
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
    want = 2.0 * (7.0 - 5.0) / np.sqrt(4.0 + params.epsilon) + 1.0
    assert np.allclose(y.values, want, atol=1e-6)


def test_max_pool_all_empty_children_zero(rng):
    x = FeatureMap(rng.normal(size=(16, 2)), level=1)
    # parent 0 owns rows 0..7 (two nonempty), parent 1 is empty, parent 2
    # owns rows 8..15, all empty
    status = np.array([1, 0, 1], dtype=np.uint8)
    child_status = np.zeros(16, dtype=np.uint8)
    child_status[:2] = 1
    y = nn.max_pool(x, status, child_status)
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
    assert rb.layer_count() == 5  # 2 per block + projection
    rb2 = nn.ResBlockStack(p, "rb2", 16, 16, 2, rng=rng)
    assert rb2.layer_count() == 4


def test_mlp_head_shapes(rng):
    p = nn.Parameters()
    head = nn.MLPHead(p, "h", 8, 16, 3, rng=rng)
    x = FeatureMap(rng.normal(size=(5, 8)).astype(np.float32))
    y = head.forward(x)
    assert y.values.shape == (5, 3)
    assert head.layer_count() == 2
