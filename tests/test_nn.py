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

from conftest import child_table, nbr_table, numeric_grad


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


@pytest.mark.parametrize("depth", [2, 3])
def test_conv_matches_dense(depth, rng):
    cin, cout = 3, 5
    o = complete_octree(depth)
    feats = rng.normal(size=(o.levels[depth].num_nodes, cin)).astype(np.float32)
    w = rng.normal(size=(cout, 27 * cin)).astype(np.float32)
    params = nn.ConvParams(cin, 3, 1, FeatureMap(w))
    y = nn.octree_conv(FeatureMap(feats, level=depth), nbr_table(o, depth), params)
    want = dense_conv3(to_grid(o, depth, feats), w, cin, cout)
    assert np.abs(to_grid(o, depth, y.values) - want).max() < 1e-5


@pytest.mark.parametrize("depth", [2, 3])
def test_downsample_matches_dense(depth, rng):
    cin, cout = 4, 3
    o = complete_octree(depth)
    feats = rng.normal(size=(o.levels[depth].num_nodes, cin)).astype(np.float32)
    w = rng.normal(size=(cout, 8 * cin)).astype(np.float32)
    params = nn.ConvParams(cin, 2, 2, FeatureMap(w))
    st = o.levels[depth - 1].status, o.levels[depth].status
    y = nn.downsample(FeatureMap(feats, level=depth), *st, params)
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
    params = nn.ConvParams(c, 3, 1, FeatureMap(w))
    y = nn.octree_conv(FeatureMap(feats, level=3), nbr_table(o, 3), params)
    assert np.array_equal(y.values, feats)


def test_empty_neighbors_read_as_zero(rng):
    c = 2
    o = octree_from_codes(np.array([0], dtype=np.uint64), 2)
    # only one nonempty node; its 26 real neighbors are empty siblings or absent
    feats = rng.normal(size=(o.levels[2].num_nodes, c)).astype(np.float32)
    w = rng.normal(size=(c, 27 * c)).astype(np.float32)
    params = nn.ConvParams(c, 3, 1, FeatureMap(w))
    y = nn.octree_conv(FeatureMap(feats, level=2), nbr_table(o, 2), params)
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
        nn.ConvParams(cin, 2, 2, FeatureMap(wd)),
    )
    up = nn.upsample(
        FeatureMap(y, level=1),
        np.arange(8),
        nn.ConvParams(cout, 2, 2, FeatureMap(wu)),
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
    conv = nn.ConvParams(cin, 3, 1, w)

    def run():
        y = nn.octree_conv(x, nbr_table(o, 2), conv)
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
    down = nn.ConvParams(cin, 2, 2, w)
    cases.append(
        (lambda: nn.downsample(x, st[1], st[2], down), [(x, xv), (w, wv)])
    )

    yv = rng.normal(size=(p, cout))
    wuv = rng.normal(size=(8 * cin, cout))
    yfm, wu = ad.parameter(yv), ad.parameter(wuv)
    upp = nn.ConvParams(cout, 2, 2, wu)
    sel = np.flatnonzero(o.levels[1].status == 1)
    cases.append((lambda: nn.upsample(yfm, sel, upp), [(yfm, yv), (wu, wuv)]))

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


@pytest.mark.parametrize("kernel", [3, 2])
def test_kernel_map_conv_grads_match_add_at(kernel, rng):
    """Conv over a status-filtered stencil and downsample over a child table,
    against the im2col form whose input gradient is scattered by np.add.at."""
    o = scan_octree()
    cin, cout = 5, 7
    if kernel == 3:
        table, stride = nbr_table(o, 4), 1
        op = lambda x, p: nn.octree_conv(x, table, p)
    else:
        table, stride = child_table(o, 3), 2
        op = lambda x, p: nn.downsample(x, o.levels[3].status, o.levels[4].status, p)
    assert np.any(table < 0)
    taps = table.shape[1]
    xv = rng.normal(size=(o.levels[4].num_nodes, cin)).astype(np.float32)
    wv = rng.normal(size=(cout, taps * cin)).astype(np.float32)
    g = rng.normal(size=(table.shape[0], cout)).astype(np.float32)
    conv = lambda x, w: op(x, nn.ConvParams(cin, kernel, stride, w))

    cols = kernels.gather_concat(xv, table)  # (rows, taps * cin)
    assert_close_f32(conv(FeatureMap(xv), FeatureMap(wv)).values, cols @ wv.T)
    want_gx = np.zeros_like(xv)
    flat, gx_flat = table.ravel(), (g @ wv).reshape(-1, cin)
    np.add.at(want_gx, flat[flat >= 0], gx_flat[flat >= 0])
    gx, gw = taped_grads(conv, ad.parameter(xv.copy()), ad.parameter(wv.copy()), g)
    assert_close_f32(gx, want_gx)
    assert_close_f32(gw, g.T @ cols)


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
    down = lambda x, w: nn.downsample(x, *st, nn.ConvParams(cin, 2, 2, w))

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

    up = lambda x, w: nn.upsample(x, rows, nn.ConvParams(cin, 2, 2, w))
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
    params = nn.ConvParams(c, 2, 2, FeatureMap(rng.normal(size=(2, 8 * c))))
    one_less = status.copy()
    one_less[np.flatnonzero(status)[0]] = 0
    cases = (
        (status, child_status, short),  # 8 child rows too few
        (one_less, child_status, x),  # one nonempty parent too few
        (status, child_status[:-8], x),  # a child status 8 rows short
    )
    for st, cst, fm in cases:
        with pytest.raises(DomainError):
            nn.downsample(fm, st, cst, params)
        with pytest.raises(DomainError):
            nn.max_pool(fm, st, cst)
    assert nn.downsample(x, status, child_status, params).rows == len(status)
    assert nn.max_pool(x, status, child_status).rows == len(status)


@pytest.mark.parametrize("train", [True, False])
def test_grad_batch_norm(train, rng):
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
        out = nn.batch_norm(x, params, train)
        params.running_mean[...] = rm
        params.running_var[...] = rv
        return ad.sum_all(ad.mul(out, ad.constant(weights)))

    with ad.Tape():
        ad.backward(run())
    for leaf, arr in ((x, xv), (g, gv), (b, bv)):
        want = numeric_grad(lambda: float(run().values[0, 0]), {"a": arr}, "a")
        err = np.abs(leaf.grad - want) / np.maximum(np.abs(want), 1.0)
        assert err.max() < 1e-4


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


def test_round_status():
    probs = np.array([0.49, 0.5, 0.51, 0.0, 1.0])
    assert nn.round_status(probs).tolist() == [0.0, 1.0, 1.0, 0.0, 1.0]
