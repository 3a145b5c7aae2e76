"""Key encoding, linear octree construction, lookup tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octcomplete import data as dt
from octcomplete import kernels
from octcomplete.errors import DomainError
from octcomplete.network import OctreeBatch
from octcomplete.octree import (
    MAX_DEPTH,
    build_octree,
    build_levels,
    child_keys,
    child_pairs,
    coords_from_keys,
    estimate_normals,
    find_in_sorted,
    find_nodes,
    key_to_coords,
    keys_from_coords,
    majority_labels,
    neighbor_codes,
    neighbor_keys,
    neighbor_table,
    octree_from_codes,
    parent_key,
    points_to_cells,
    root_pairs,
    shuffled_key,
    PointSet,
)

from conftest import (
    assert_pairs_match_table,
    child_neighbor_table,
    child_table,
    nbr_table,
    root_table,
)


def brute_key(x, y, z, depth):
    code = 0
    for b in range(depth):
        code |= ((x >> b) & 1) << (3 * b + 2)
        code |= ((y >> b) & 1) << (3 * b + 1)
        code |= ((z >> b) & 1) << (3 * b)
    return code


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_key_roundtrip_exhaustive(depth):
    n = 1 << depth
    for x in range(n):
        for y in range(n):
            for z in range(n):
                k = shuffled_key(x, y, z, depth)
                assert k == brute_key(x, y, z, depth)
                assert key_to_coords(k, depth) == (x, y, z)


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_zorder_sort_equivalence(depth):
    # sorting keys visits nodes in the same order as sorting bit-interleaved
    # coordinate tuples
    n = 1 << depth
    coords = np.array([(x, y, z) for x in range(n) for y in range(n) for z in range(n)])
    keys = keys_from_coords(coords[:, 0], coords[:, 1], coords[:, 2])
    order = np.argsort(keys)
    brute = sorted(range(len(coords)), key=lambda i: brute_key(*coords[i], depth))
    assert np.array_equal(order, brute)


def test_vectorized_matches_scalar(rng):
    xs = rng.integers(0, 1024, size=500)
    ys = rng.integers(0, 1024, size=500)
    zs = rng.integers(0, 1024, size=500)
    keys = keys_from_coords(xs, ys, zs)
    for i in range(0, 500, 37):
        assert int(keys[i]) == shuffled_key(int(xs[i]), int(ys[i]), int(zs[i]), 10)
    rx, ry, rz = coords_from_keys(keys)
    assert np.array_equal(rx, xs) and np.array_equal(ry, ys) and np.array_equal(rz, zs)


def test_key_range_checks():
    with pytest.raises(DomainError):
        shuffled_key(8, 0, 0, 3)
    with pytest.raises(DomainError):
        shuffled_key(0, 0, 0, MAX_DEPTH + 1)
    with pytest.raises(DomainError):
        key_to_coords(1 << 30, 3)


def test_parent_child_relation(rng):
    for _ in range(50):
        d = int(rng.integers(1, MAX_DEPTH))
        x, y, z = (int(v) for v in rng.integers(0, 1 << d, size=3))
        k = shuffled_key(x, y, z, d)
        assert parent_key(k, d) == shuffled_key(x // 2, y // 2, z // 2, d - 1)
        if d < MAX_DEPTH:
            kids = child_keys(k, d)
            assert kids == sorted(kids)
            assert all(parent_key(c, d + 1) == k for c in kids)
            assert kids[0] == shuffled_key(2 * x, 2 * y, 2 * z, d + 1)


def test_neighbor_keys_oracle(rng):
    d = 4
    n = 1 << d
    for _ in range(30):
        x, y, z = (int(v) for v in rng.integers(0, n, size=3))
        nbrs = neighbor_keys(shuffled_key(x, y, z, d), d)
        assert len(nbrs) == 27
        assert nbrs[13] == shuffled_key(x, y, z, d)  # center of the stencil
        i = 0
        for dz in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    nx, ny, nz = x + dx, y + dy, z + dz
                    if 0 <= nx < n and 0 <= ny < n and 0 <= nz < n:
                        assert nbrs[i] == shuffled_key(nx, ny, nz, d)
                    else:
                        assert nbrs[i] is None
                    i += 1


@given(
    st.lists(st.integers(0, 511), min_size=1, max_size=60),
    st.lists(st.integers(0, 511), min_size=1, max_size=30),
)
@settings(max_examples=50, deadline=None)
def test_find_in_sorted_matches_set(stored, queries):
    keys = np.unique(np.asarray(stored, dtype=np.uint64))
    q = np.asarray(queries, dtype=np.uint64)
    idx = find_in_sorted(keys, q)
    present = set(int(k) for k in keys)
    for qi, ii in zip(q, idx):
        if int(qi) in present:
            assert keys[ii] == qi
        else:
            assert ii == -1


def test_find_in_sorted_empty():
    assert np.all(find_in_sorted(np.zeros(0, np.uint64), np.array([3], np.uint64)) == -1)


def _full_sibling_invariants(levels, depth):
    for l in range(1, depth + 1):
        lv = levels[l]
        assert lv.num_nodes % 8 == 0
        assert np.all(np.diff(lv.keys.astype(np.int64)) > 0)
        # stored nodes come in complete sibling groups
        assert np.array_equal(lv.keys & np.uint64(7), np.tile(np.arange(8), lv.num_nodes // 8))
        # a stored node's parent must be stored and nonempty
        up = levels[l - 1]
        pidx = find_in_sorted(up.keys, lv.keys >> np.uint64(3))
        assert np.all(pidx >= 0)
        assert np.all(up.status[pidx] == 1)
    for l in range(depth):
        lv, nxt = levels[l], levels[l + 1]
        for r in range(lv.num_nodes):
            if lv.status[r] == 1 and l < depth:
                cs = lv.child_start[r]
                assert cs >= 0
                assert np.array_equal(
                    nxt.keys[cs : cs + 8], np.asarray(child_keys(lv.keys[r], l), np.uint64)
                )
            else:
                assert lv.child_start[r] == -1


def test_build_levels_structure(rng):
    depth = 4
    codes = rng.choice(1 << (3 * depth), size=40, replace=False).astype(np.uint64)
    levels = build_levels(codes, depth)
    _full_sibling_invariants(levels, depth)
    assert set(levels[depth].keys[levels[depth].status == 1]) == set(codes)
    # growth law
    for l in range(depth):
        assert levels[l + 1].num_nonempty <= 8 * levels[l].num_nonempty


def test_build_octree_signal(rng):
    pts = rng.random((500, 3))
    nrm = rng.normal(size=(500, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    o = build_octree(PointSet(positions=pts, normals=nrm), 4)
    st_ = o.levels[4].status
    nonzero = np.abs(o.signal).sum(axis=1) > 0
    assert np.array_equal(nonzero, st_ == 1)
    assert np.all(o.signal[st_ == 1, 3] == 1.0)
    norms = np.linalg.norm(o.signal[st_ == 1, :3], axis=1)
    assert np.allclose(norms, 1.0, atol=1e-5)

    # averaged normal oracle on one node
    cells = points_to_cells(pts, 4)
    codes = keys_from_coords(cells[:, 0], cells[:, 1], cells[:, 2])
    target = codes[0]
    members = codes == target
    want = nrm[members].sum(axis=0)
    want /= np.linalg.norm(want)
    row = find_nodes(o, 4, [target])[0]
    assert np.allclose(o.signal[row, :3], want, atol=1e-5)


def test_build_octree_normal_sums_match_add_at(rng):
    pts = rng.random((2000, 3))
    nrm = rng.normal(size=(2000, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    o = build_octree(PointSet(positions=pts, normals=nrm), 4)
    cells = points_to_cells(pts, 4)
    uniq, inverse = np.unique(
        keys_from_coords(cells[:, 0], cells[:, 1], cells[:, 2]), return_inverse=True
    )
    ref = np.zeros((len(uniq), 3))
    np.add.at(ref, inverse, nrm)  # sequential float64 sums, in point order
    ref /= np.linalg.norm(ref, axis=1, keepdims=True)
    rows = find_in_sorted(o.levels[4].keys, uniq)
    assert np.array_equal(o.signal[rows, :3], ref.astype(np.float32))


@pytest.mark.parametrize("field", ["positions", "normals"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_points_rejected(rng, field, bad):
    pts = rng.random((50, 3))
    nrm = rng.normal(size=(50, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    points = PointSet(positions=pts, normals=nrm)
    getattr(points, field)[7, 1] = bad
    with pytest.raises(DomainError):
        points.validate()
    with pytest.raises(DomainError):
        build_octree(points, 4)


def test_points_to_cells_boundary():
    cells = points_to_cells(np.array([[0.0, 0.5, 1.0]]), 3)
    assert cells.tolist() == [[0, 4, 7]]


def test_octree_from_codes_empty_signal():
    o = octree_from_codes(np.array([0, 9], dtype=np.uint64), 2)
    assert o.signal.shape == (o.levels[2].num_nodes, 4)
    assert np.all(o.signal == 0)


def test_neighbor_table_oracle(rng):
    depth = 3
    codes = rng.choice(1 << (3 * depth), size=25, replace=False).astype(np.uint64)
    o = octree_from_codes(codes, depth)
    lv = o.levels[depth]
    tab = nbr_table(o, depth)
    lookup = {int(k): i for i, k in enumerate(lv.keys)}
    for r in range(lv.num_nodes):
        nbrs = neighbor_keys(int(lv.keys[r]), depth)
        for t, nk in enumerate(nbrs):
            i = lookup.get(nk, -1) if nk is not None else -1
            if i >= 0 and lv.status[i] == 0:
                i = -1  # empty siblings read as zeros
            assert tab[r, t] == i


def test_neighbor_table_on_batch_keys(rng):
    """Keys with a sample id above the 3 * level Morton bits, as a batch stores
    them: the merged table is each sample's table shifted by its row offset,
    and the scalar oracle holds for a sample with id > 0."""
    depth = 3
    octs = [
        octree_from_codes(rng.choice(1 << (3 * depth), size=n, replace=False).astype(np.uint64), depth)
        for n in (25, 40, 12)
    ]
    for l in range(depth + 1):
        lvs = [o.levels[l] for o in octs]
        keys = np.concatenate([lv.keys | np.uint64(b << 3 * l) for b, lv in enumerate(lvs)])
        status = np.concatenate([lv.status for lv in lvs])
        tab = neighbor_table(keys, status, l)
        off = np.cumsum([0] + [lv.num_nodes for lv in lvs])
        want = [np.where(nbr_table(o, l) >= 0, nbr_table(o, l) + off[b], -1)
                for b, o in enumerate(octs)]
        assert np.array_equal(tab, np.vstack(want))

    # finest level of sample 2, against neighbor_keys and a dict lookup
    b, lv = 2, octs[2].levels[depth]
    codes27 = neighbor_codes(keys, depth)
    lookup = {int(k): i for i, k in enumerate(keys)}
    for r in range(lv.num_nodes):
        row = off[b] + r
        assert int(keys[row]) >> 3 * depth == b
        for t, nk in enumerate(neighbor_keys(int(lv.keys[r]), depth)):
            code = -1 if nk is None else nk | b << 3 * depth
            assert codes27[row, t] == code
            i = lookup.get(code, -1)
            if i >= 0 and status[i] == 0:
                i = -1  # empty siblings read as zeros
            assert tab[row, t] == i


@pytest.mark.parametrize("depth", [3, 4, 5, 6])
def test_batch_tables_derived_from_parent_match_search(depth):
    """Each level's tap pairs follow from its parent level's by the
    full-sibling rule, down from the roots' constant pairs: tap by tap the
    pairs of the search over the merged keys at every level, for a scan, a
    single nonempty leaf, a fully occupied octree and an empty one."""
    shape = dt.make_shape("box", density=2500, seed=depth)
    scan = dt.virtual_scan(shape, dt.ScanConfig(num_views=2, seed=depth))
    batch = OctreeBatch([
        build_octree(scan, depth),
        octree_from_codes(np.array([1 << 3 * depth - 1], dtype=np.uint64), depth),
        octree_from_codes(np.arange(1 << 3 * depth, dtype=np.uint64), depth),
        octree_from_codes(np.zeros(0, np.uint64), depth),
    ])
    assert np.array_equal(batch.levels[0].status, [1, 1, 1, 0])
    for l in range(depth + 1):
        lv = batch.levels[l]
        pairs = batch.pairs(l)
        tab = neighbor_table(lv.keys, lv.status, l)
        assert_pairs_match_table(pairs, tab)
        assert all(o.dtype == i.dtype == np.int32 for o, i in pairs)
        if l >= 2:
            assert np.any(tab < 0) and np.any(tab >= 0)


@pytest.mark.parametrize("batch_kind", ["leaf", "empty", "scan+empty"])
def test_child_pairs_match_table_derivation_and_search(batch_kind):
    """child_pairs, from root_pairs down, holds tap by tap the pairs of the
    table derived by the same rule over all 27 x rows entries and of the
    search over the merged keys, on batches of one single-leaf octree, of
    one empty octree, and of a scan next to an empty octree. No output row
    appears twice in a tap."""
    depth = 5
    leaf = octree_from_codes(np.array([1234], dtype=np.uint64), depth)
    empty = octree_from_codes(np.zeros(0, np.uint64), depth)
    scan = dt.virtual_scan(dt.make_shape("sphere", density=2500, seed=1), dt.ScanConfig(num_views=2, seed=1))
    octs = {"leaf": [leaf], "empty": [empty], "scan+empty": [build_octree(scan, depth), empty]}
    batch = OctreeBatch(octs[batch_kind])
    st = batch.levels[0].status
    pairs, table = root_pairs(st), root_table(st)
    for l in range(depth + 1):
        if l > 0:
            up, status = batch.levels[l - 1], batch.levels[l].status
            pairs = child_pairs(up, pairs, status)
            table = child_neighbor_table(up, table, status)
        lv = batch.levels[l]
        assert_pairs_match_table(pairs, table)
        assert_pairs_match_table(pairs, neighbor_table(lv.keys, lv.status, l))
        for o, _ in pairs:
            assert len(np.unique(o)) == len(o)
    # the finest level: the leaf's block of 8 rows (itself among them) each
    # read the leaf once; nothing reads an empty octree
    want = {"leaf": 8, "empty": 0, "scan+empty": np.count_nonzero(table >= 0)}
    assert sum(len(o) for o, _ in pairs) == want[batch_kind]


def test_child_table(rng):
    depth = 3
    codes = rng.choice(1 << (3 * depth), size=20, replace=False).astype(np.uint64)
    o = octree_from_codes(codes, depth)
    for l in range(depth):
        tab = child_table(o, l)
        lv, nxt = o.levels[l], o.levels[l + 1]
        for r in range(lv.num_nodes):
            for t in range(8):
                i = tab[r, t]
                if lv.status[r] == 0:
                    assert i == -1
                    continue
                want_key = (int(lv.keys[r]) << 3) + t
                j = find_in_sorted(nxt.keys, np.array([want_key], np.uint64))[0]
                if j >= 0 and nxt.status[j] == 1:
                    assert i == j
                else:
                    assert i == -1


def test_majority_labels_counting_oracle(rng):
    pts = rng.random((300, 3))
    nrm = np.tile((0.0, 0.0, 1.0), (300, 1))
    labels = rng.integers(0, 4, size=300).astype(np.int32)
    ps = PointSet(positions=pts, normals=nrm, labels=labels)
    o = build_octree(ps, 3)
    got = majority_labels(o, ps)
    cells = points_to_cells(pts, 3)
    codes = keys_from_coords(cells[:, 0], cells[:, 1], cells[:, 2])
    for r, key in enumerate(o.levels[3].keys):
        members = codes == key
        if not members.any():
            assert got[r] == -1
        else:
            counts = np.bincount(labels[members], minlength=4)
            assert counts[got[r]] == counts.max()


def test_majority_labels_match_add_at(rng):
    pts = rng.random((3000, 3))
    nrm = np.tile((0.0, 0.0, 1.0), (3000, 1))
    labels = rng.integers(0, 5, size=3000).astype(np.int32)
    ps = PointSet(positions=pts, normals=nrm, labels=labels)
    o = build_octree(ps, 3)
    cells = points_to_cells(pts, 3)
    rows = find_in_sorted(o.levels[3].keys, keys_from_coords(cells[:, 0], cells[:, 1], cells[:, 2]))
    counts = np.zeros((o.levels[3].num_nodes, 5), dtype=np.int64)
    np.add.at(counts, (rows, labels), 1)
    want = counts.argmax(axis=1).astype(np.int32)
    want[counts.sum(axis=1) == 0] = -1
    assert np.array_equal(majority_labels(o, ps), want)


def brute_invert(table, rows):
    inv = np.full((rows, table.shape[1]), -1, dtype=np.int64)
    for i in range(table.shape[0]):
        for t in range(table.shape[1]):
            j = table[i, t]
            if j >= 0:
                assert inv[j, t] == -1, "table column is not injective"
                inv[j, t] = i
    return inv


def test_invert_table_matches_brute_force():
    shape = dt.make_shape("box", density=2500, seed=3)
    scan = dt.virtual_scan(shape, dt.ScanConfig(num_views=2, seed=3))
    o = build_octree(scan, 4)
    for l in range(1, 5):
        # neighbor tables with status holes: empty siblings read as -1
        tab = nbr_table(o, l)
        assert np.any(tab < 0)
        rows = o.levels[l].num_nodes
        assert np.array_equal(kernels.invert_table(tab, rows), brute_invert(tab, rows))
        # child tables: rows of level l indexed from level l - 1
        tab = child_table(o, l - 1)
        assert np.array_equal(kernels.invert_table(tab, rows), brute_invert(tab, rows))


def test_estimate_normals_sphere():
    sphere = dt.make_shape("sphere", density=3000, seed=5)
    est = estimate_normals(sphere.positions, k=12)
    radial = sphere.positions - 0.5
    radial /= np.linalg.norm(radial, axis=1, keepdims=True)
    dots = np.einsum("ni,ni->n", est.normals, radial)
    assert (dots > 0.95).mean() > 0.98
    assert est.degenerate_normals < 10
