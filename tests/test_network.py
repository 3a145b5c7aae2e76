"""Network assembly: schedules, layer counts, decoding behavior, sampling."""

import gc
import warnings

import numpy as np
import pytest

from octcomplete import autodiff as ad
from octcomplete import data as dt
from octcomplete import kernels, network, nn, octree, skip, train
from octcomplete.errors import DomainError, NumericalError
from octcomplete.network import (
    CompletionNet,
    DecoderState,
    NetworkSpec,
    OctreeBatch,
    PredictedShape,
    sample_points,
)
from octcomplete.octree import (
    PointSet,
    build_octree,
    coords_from_keys,
    find_in_sorted,
    keys_from_coords,
    neighbor_table,
    octree_from_codes,
)
from octcomplete.train import TrainConfig, Trainer, prepare_sample

from conftest import align_encoder_rows, assert_pairs_match_table


def small_spec(**kw):
    base = dict(input_depth=4, output_depth=4, n_res=1, c0=8, c_max=16, hidden=8)
    base.update(kw)
    return NetworkSpec(**base)


def sphere_octree(depth=4, seed=0, views=2):
    shape = dt.make_shape("sphere", density=2500, seed=seed)
    scan = dt.virtual_scan(shape, dt.ScanConfig(num_views=views, seed=seed))
    return build_octree(scan, depth), build_octree(shape, depth)


def test_channel_schedule_mirror_and_cap():
    spec = NetworkSpec(input_depth=6, output_depth=6, n_res=2)
    ch = spec.channels()
    assert ch == {6: 64, 5: 128, 4: 256, 3: 256, 2: 256}
    assert max(ch.values()) == 256


def test_layer_counts():
    deep = CompletionNet(NetworkSpec(input_depth=6, output_depth=6, n_res=2))
    assert deep.layer_count() == 51
    scene = CompletionNet(
        NetworkSpec(
            input_depth=8,
            output_depth=6,
            n_res=3,
            scene_head=True,
            task="semantic",
            num_classes=4,
        )
    )
    assert scene.layer_count() == 72
    shallow = CompletionNet(NetworkSpec(input_depth=4, output_depth=4, n_res=0))
    assert shallow.layer_count() == 14


def test_spec_validation():
    with pytest.raises(DomainError):
        NetworkSpec(input_depth=8, output_depth=8, scene_head=True).validate()
    with pytest.raises(DomainError):
        NetworkSpec(input_depth=5, output_depth=4).validate()
    with pytest.raises(DomainError):
        NetworkSpec(task="semantic", num_classes=1).validate()
    with pytest.raises(DomainError):
        NetworkSpec(skip_mode="sometimes").validate()


def test_teacher_forced_decode_follows_gt():
    partial, gt = sphere_octree()
    spec = small_spec()
    net = CompletionNet(spec, seed=0)
    ib, gb = OctreeBatch([partial]), OctreeBatch([gt])
    with ad.Tape():
        code, feats = net.encode(ib, train=True)
        res = net.decode(code, ib, feats, gt_batch=gb, train=True)
    # the first decoder level is fully expanded; deeper levels follow gt
    assert len(res.state.keys[3]) == 512
    assert np.array_equal(res.state.keys[4], gt.levels[4].keys)
    # head rows are the gt-nonempty finest rows
    assert np.array_equal(res.head_rows, np.flatnonzero(gt.levels[4].status == 1))
    # skip applied at every decoder level
    assert res.skip_levels == [3, 4]
    # structure logits and losses exist for levels 3..depth
    assert sorted(res.logits.keys()) == [3, 4]


def test_decode_without_skip_has_no_skip_levels():
    partial, gt = sphere_octree()
    net = CompletionNet(small_spec(skip_mode="off"), seed=0)
    ib, gb = OctreeBatch([partial]), OctreeBatch([gt])
    with ad.Tape():
        code, feats = net.encode(ib, train=True)
        res = net.decode(code, ib, feats, gt_batch=gb, train=True)
    assert res.skip_levels == []


def test_abandoned_taped_forward_leaves_no_cyclic_garbage(collector_off):
    """A taped forward whose tape nobody keeps is freed by reference counts
    alone: outputs refer to their tape weakly."""
    partial, gt = sphere_octree()
    net = CompletionNet(small_spec(), seed=0)
    ib, gb = OctreeBatch([partial]), OctreeBatch([gt])
    with ad.Tape():
        code, feats = net.encode(ib, train=True)
        net.decode(code, ib, feats, gt_batch=gb, train=True)
    del code, feats
    assert gc.collect() == 0


def test_inference_deterministic():
    partial, _ = sphere_octree()
    net = CompletionNet(small_spec(), seed=3)
    a = net.complete(partial)
    b = net.complete(partial)
    assert np.array_equal(a.leaf_codes, b.leaf_codes)
    if not a.empty:
        assert np.array_equal(a.patches, b.patches)


def test_complete_records_no_tape_and_matches_taped_run(monkeypatch):
    partial, _ = sphere_octree()
    net = CompletionNet(small_spec(), seed=3)
    with ad.Tape() as tape:  # the former inference: every op recorded
        taped = net.complete(partial)
    assert len(tape.ops) > 0

    def no_tape(self):
        raise AssertionError("complete entered a Tape")

    monkeypatch.setattr(ad.Tape, "__enter__", no_tape)
    shape = net.complete(partial)
    assert not shape.empty
    assert np.array_equal(shape.leaf_codes, taped.leaf_codes)
    assert np.array_equal(shape.patches, taped.patches)


def test_batched_matches_single_forward():
    p0, g0 = sphere_octree(seed=0)
    p1, g1 = sphere_octree(seed=1, views=3)
    net = CompletionNet(small_spec(), seed=0)
    # eval mode: BN uses running stats, so batching must not change outputs
    with ad.Tape():
        code, feats = net.encode(OctreeBatch([p0, p1]), train=False)
    with ad.Tape():
        c0, _ = net.encode(OctreeBatch([p0]), train=False)
    with ad.Tape():
        c1, _ = net.encode(OctreeBatch([p1]), train=False)
    merged = np.vstack([c0.values, c1.values])
    assert np.allclose(code.values, merged, atol=1e-5)


def test_batched_matches_single_decode():
    p0, _ = sphere_octree(seed=0)
    p1, _ = sphere_octree(seed=1, views=3)
    net = CompletionNet(small_spec(), seed=3)

    def decode(octrees):
        # eval mode; the explosion guard counts the whole batch's input
        # nodes, so its cap is set out of reach of both runs
        batch = OctreeBatch(octrees)
        code, feats = net.encode(batch, train=False)
        return net.decode(code, batch, feats, train=False, expand_cap=1e6)

    both, singles = decode([p0, p1]), [decode([p0]), decode([p1])]
    assert sorted(both.logits) == sorted(singles[0].logits) == sorted(singles[1].logits) == [3, 4]
    for l in both.logits:
        keys = both.state.keys[l]
        ids = keys >> np.uint64(3 * l)
        cells = keys & np.uint64((1 << 3 * l) - 1)
        assert np.array_equal(np.unique(ids), [0, 1])
        for b, one in enumerate(singles):
            own = ids == b
            assert np.array_equal(cells[own], one.state.keys[l])
            assert np.array_equal(both.pred_status[l][own], one.pred_status[l])
            assert np.allclose(both.logits[l].values[own], one.logits[l].values, atol=1e-5)
    head_ids = ids[both.head_rows]
    for b, one in enumerate(singles):
        assert len(one.head_rows) > 0
        own = head_ids == b
        first = np.searchsorted(ids, b)  # this sample's first finest row
        assert np.array_equal(both.head_rows[own] - first, one.head_rows)
        assert np.allclose(both.head_out.values[own], one.head_out.values, atol=1e-5)


def test_inference_expands_exactly_the_rows_with_nonnegative_logits(monkeypatch):
    """A decoder row grows children, or reaches the head, iff its status
    logit is >= 0: a logit of exactly 0 counts as nonempty, and one of
    -1e-30, whose float64 sigmoid rounds to 0.5, as empty."""
    pattern = np.array([1.0, 0.0, -1e-30, -1.0], dtype=np.float32)
    net = CompletionNet(small_spec(), seed=0)
    for head in net.pred.values():
        monkeypatch.setattr(
            head, "forward", lambda x: ad.constant(np.resize(pattern, (x.rows, 1)))
        )
    partial, _ = sphere_octree()
    batch = OctreeBatch([partial])
    code, feats = net.encode(batch, train=False)
    res = net.decode(code, batch, feats, train=False, expand_cap=1e6)
    assert sorted(res.logits) == [3, 4]
    for l, logits in res.logits.items():
        nonempty = np.arange(logits.rows) % 4 < 2  # the logits 1 and 0
        assert np.array_equal(res.pred_status[l], nonempty * 1.0)
        grown = res.state.parent_sel[l + 1] if l < 4 else res.head_rows
        assert np.array_equal(grown, np.flatnonzero(nonempty))


def test_complete_records_growth_against_the_expand_cap(monkeypatch):
    """complete records, per guarded decoder level, the rows it expanded
    and the guard's cap, expand_cap * max(the input's nonempty count at
    that level, 64); a forced explosion's message names the same numbers."""
    net = CompletionNet(small_spec(input_depth=5, output_depth=5), seed=0)
    for head in net.pred.values():
        monkeypatch.setattr(
            head, "forward", lambda x: ad.constant(np.ones((x.rows, 1), np.float32))
        )
    partial, _ = sphere_octree(depth=5)
    shape = net.complete(partial)
    # every logit is positive: all 8 ** (l - 2) rows of the 64-row level 2
    # descend, and each level expands all of its rows
    assert shape.growth == {
        l: (64 * 8 ** (l - 2), 8.0 * max(partial.levels[l].num_nonempty, 64)) for l in (3, 4)
    }
    # at expand_cap 0.5 the cap is a sixteenth of the recorded one: level 3's
    # 512 rows exceed it, as the message says
    expanded, cap = shape.growth[3]
    batch = OctreeBatch([partial])
    code, feats = net.encode(batch, train=False)
    with pytest.raises(NumericalError) as err:
        net.decode(code, batch, feats, train=False, expand_cap=0.5)
    assert str(err.value) == (
        f"decoder explosion at level 3: {expanded} nonempty nodes exceeds cap {int(cap / 16)}"
    )


def test_decoder_rows_derived_from_parent_match_search():
    """Grown from the roots, fully to the coarsest level and then along
    random expand masks, every level's tap pairs, encoder rows and
    ground-truth rows equal the search oracles on its keys. The last
    sample is empty, so its root aligns nowhere."""
    rng = np.random.default_rng(7)
    pairs = [sphere_octree(depth=5, seed=s) for s in (0, 1, 2)]
    empty = octree_from_codes(np.zeros(0, np.uint64), 5)
    enc = OctreeBatch([p for p, _ in pairs] + [empty])
    gt = OctreeBatch([g for _, g in pairs] + [empty])
    ds = DecoderState(enc, 2, gt)
    assert sorted(ds.keys) == [0, 1, 2]
    for l in range(6):
        keys = ds.keys[l]
        ones = np.ones(len(keys), dtype=np.uint8)
        assert_pairs_match_table(ds.pairs[l], neighbor_table(keys, ones, l))
        assert np.array_equal(ds.enc_rows[l], align_encoder_rows(enc, keys, l))
        lv = gt.levels[l]
        idx = find_in_sorted(lv.keys, keys)
        want = np.where((idx >= 0) & (lv.status[idx] == 1), idx, -1)
        assert np.array_equal(ds.gt_rows[l], want)
        if l > 2:
            for rows in (ds.enc_rows[l], ds.gt_rows[l]):
                assert np.any(rows >= 0) and np.any(rows < 0)
        if 2 <= l < 5:
            # random rows plus the gt-nonempty ones, so deep levels keep
            # aligned rows next to unaligned ones
            ds.subdivide(l, (rng.random(len(keys)) < 0.3) | (ds.gt_rows[l] >= 0))


def test_no_key_is_searched_in_a_train_step_or_complete(monkeypatch):
    """Every neighbor table, encoder row and ground-truth row of a train
    step and of a complete is derived from the batch's roots down, and the
    train step's head targets are rows DecoderState.subdivide derived: no
    binary search runs in the network, and nothing scatters."""
    spec = small_spec()
    samples = []
    for i in range(2):
        shape = dt.make_shape("sphere", density=1200, seed=i)
        scan = dt.virtual_scan(shape, dt.ScanConfig(num_views=2, seed=i))
        samples.append(prepare_sample(dt.SamplePair(scan, shape), spec))
    net = CompletionNet(spec, seed=0)
    trainer = Trainer(net, TrainConfig(batch_size=2), samples)
    calls = []
    for owner, name in (
        (octree, "find_in_sorted"),
        (network, "neighbor_table"),
        (skip, "find_in_sorted"),
        (train, "find_in_sorted"),
        (kernels, "scatter_add"),
    ):
        spied = f"{owner.__name__}.{name}"
        monkeypatch.setattr(owner, name, lambda *a, _n=spied: calls.append(_n))
    trainer.step([0, 1], 0.01)
    shape = net.complete(samples[0].partial)
    assert not shape.empty
    assert calls == []


def test_kernel_maps_built_once_per_level_and_inverted_lazily(monkeypatch):
    """A train step builds one kernel map per encoder and decoder level
    with a convolution and inverts each at most once; complete, which runs
    no backward, inverts none."""
    spec = small_spec(n_res=2)
    samples = []
    for i in range(2):
        shape = dt.make_shape("sphere", density=1200, seed=i)
        scan = dt.virtual_scan(shape, dt.ScanConfig(num_views=2, seed=i))
        samples.append(prepare_sample(dt.SamplePair(scan, shape), spec))
    trainer = Trainer(CompletionNet(spec, seed=0), TrainConfig(batch_size=2), samples)
    built, inverted = [], []
    init, invert = nn.KernelMap.__init__, kernels.invert_table

    def spy_init(self, pairs, rows):
        init(self, pairs, rows)
        built.append(self)

    def spy_invert(table, rows):
        inverted.append(rows)
        return invert(table, rows)

    monkeypatch.setattr(nn.KernelMap, "__init__", spy_init)
    monkeypatch.setattr(kernels, "invert_table", spy_invert)
    trainer.step([0, 1], 0.01)
    conv_levels = spec.core_depth - spec.coarsest  # levels coarsest+1 .. core_depth
    assert len(built) == 2 * conv_levels  # encoder, then decoder
    # a map inverts at most once, so one inversion per map with dense taps,
    # each of which ran backward, means exactly one each
    with_dense = [m for m in built if m.dense]
    assert len(inverted) == len(with_dense) > 0
    assert all(m._inverse is not None for m in with_dense)
    built.clear()
    inverted.clear()
    trainer.net.complete(samples[0].partial)
    assert len(built) == 2 * conv_levels
    assert inverted == []


def test_mixed_depth_batch_rejected():
    p0, _ = sphere_octree(depth=4)
    p1 = octree_from_codes(np.arange(8, dtype=np.uint64), 3)
    with pytest.raises(DomainError):
        OctreeBatch([p0, p1])
    with pytest.raises(DomainError):
        OctreeBatch([])


def make_shape_with_patch(code_xyz, normal, disp, depth=4):
    x, y, z = code_xyz
    codes = keys_from_coords(np.array([x]), np.array([y]), np.array([z]))
    patches = np.array([[*normal, disp]], dtype=np.float64)
    return PredictedShape(
        depth=depth,
        leaf_codes=codes,
        patches=patches,
    )


def test_sample_points_on_plane_in_cell():
    depth = 4
    shape = make_shape_with_patch((5, 7, 3), (0.0, 0.0, 1.0), 0.0, depth)
    pts = sample_points(shape, samples_per_node=32, seed=1)
    n = 1 << depth
    h = 0.5 / n
    center = (np.array([5, 7, 3]) + 0.5) / n
    rel = pts.positions - center
    assert np.abs(rel).max() <= h + 1e-9          # inside the cell
    assert np.abs(rel[:, 2]).max() < 1e-6          # on the plane
    assert np.allclose(pts.normals, (0.0, 0.0, 1.0))


def test_sample_points_one_per_leaf():
    shape = make_shape_with_patch((1, 2, 3), (1.0, 1.0, 0.0) / np.sqrt(2), 0.2)
    pts = sample_points(shape, samples_per_node=1)
    assert len(pts) == 1


def test_sample_points_degenerate_plane_falls_back():
    # displacement pushes the plane outside the cell; the projected center
    # still produces one point
    shape = make_shape_with_patch((0, 0, 0), (0.0, 0.0, 1.0), 10.0)
    pts = sample_points(shape, samples_per_node=4)
    assert len(pts) == 1


def test_sample_points_errors():
    shape = PredictedShape(depth=4, leaf_codes=np.zeros(0, np.uint64))
    with pytest.raises(DomainError):
        sample_points(shape)


# -- reference for sample_points: the same sampling, one leaf at a time -----

_REF_CORNERS = np.array(
    [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=np.float64
)
_REF_EDGES = [
    (0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3),
    (2, 6), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7),
]


def _reference_plane_cell_polygon(normal, disp, h):
    """Vertices of the plane/cell intersection in node-local coordinates."""
    corners = _REF_CORNERS * h
    s = corners @ normal - disp
    pts = []
    for i, j in _REF_EDGES:
        if (s[i] < 0) != (s[j] < 0):
            t = s[i] / (s[i] - s[j])
            pts.append(corners[i] + t * (corners[j] - corners[i]))
    for i in range(8):
        if s[i] == 0.0:
            pts.append(corners[i])
    if len(pts) < 3:
        return None
    pts = np.unique(np.round(np.array(pts), 12), axis=0)
    if len(pts) < 3:
        return None
    # order around the polygon in a plane basis
    a = np.array([1.0, 0.0, 0.0])
    if abs(normal[0]) > 0.9:
        a = np.array([0.0, 1.0, 0.0])
    u = np.cross(normal, a)
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    center = pts.mean(axis=0)
    rel = pts - center
    ang = np.arctan2(rel @ v, rel @ u)
    return pts[np.argsort(ang)]


def _reference_sample_points(shape, samples_per_node=4, seed=0):
    rng = np.random.default_rng(seed)
    n_cells = 1 << shape.depth
    h = 0.5 / n_cells
    xs, ys, zs = coords_from_keys(shape.leaf_codes)
    centers = np.stack([xs, ys, zs], axis=1).astype(np.float64)
    centers = (centers + 0.5) / n_cells

    normals = shape.patches[:, :3].copy()
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    bad = norms[:, 0] < 1e-9
    normals[bad] = (0.0, 0.0, 1.0)
    norms[bad] = 1.0
    normals /= norms
    disp = shape.patches[:, 3] * h  # displacement in node-local length units

    positions, out_normals = [], []
    for i in range(len(centers)):
        poly = _reference_plane_cell_polygon(normals[i], disp[i], h)
        if poly is None:
            pts = np.tile(normals[i] * disp[i], (max(1, samples_per_node), 1))[:1]
        elif samples_per_node == 1:
            pts = poly.mean(axis=0, keepdims=True)
        else:
            # fan triangulation, area-weighted uniform sampling
            v0 = poly[0]
            tri_b = poly[1:-1] - v0
            tri_c = poly[2:] - v0
            areas = 0.5 * np.linalg.norm(np.cross(tri_b, tri_c), axis=1)
            if areas.sum() <= 0:
                pts = poly.mean(axis=0, keepdims=True)
            else:
                which = rng.choice(len(areas), size=samples_per_node, p=areas / areas.sum())
                r1 = np.sqrt(rng.random(samples_per_node))
                r2 = rng.random(samples_per_node)
                pts = (
                    v0
                    + (r1 * (1 - r2))[:, None] * tri_b[which]
                    + (r1 * r2)[:, None] * tri_c[which]
                )
        positions.append(pts + centers[i])
        out_normals.append(np.tile(normals[i], (len(pts), 1)))
    positions = np.clip(np.vstack(positions), 0.0, 1.0)
    return PointSet(positions=positions, normals=np.vstack(out_normals))


def unit(raw):
    """`raw` normalised exactly as sample_points normalises a patch normal."""
    raw = np.asarray(raw, dtype=np.float64)[None]
    return (raw / np.linalg.norm(raw, axis=1, keepdims=True))[0]


def degenerate_patches():
    """(name, patch) pairs; the displacement is in units of the half cell size."""
    corner, third, diag = (1.0, 2.0, 0.5), (1.0, 1.0, 1.0), (1.0, 1.0, 0.0)
    c, t, d = unit(corner), unit(third), unit(diag)
    return [
        # s == 0 at corner (+, -, -); the plane cuts on through the cell
        ("through a corner", (*corner, (c[0] - c[1]) - c[2])),
        # s == 0 at three corners: the triangle between them
        ("through three corners", (*third, -t[0])),
        # four corners on the plane, the crossings land on them too
        ("through a diagonal", (*diag, 0.0)),
        # touches one edge only: two distinct vertices, so it falls back
        ("along an edge", (*diag, d[0] + d[1])),
        ("top face", (0.0, 0.0, 1.0, 1.0)),
        ("bottom face", (0.0, 0.0, 1.0, -1.0)),
        ("x face, other basis", (-1.0, 0.0, 0.0, 1.0)),
        ("misses the cell", (0.0, 0.0, 1.0, 10.0)),
        ("zero normal", (0.0, 0.0, 0.0, 0.3)),
        ("|n_x| > 0.9", (1.0, 0.2, 0.1, 0.1)),
    ]


def mixed_degenerate_shape(depth=4, seed=0):
    """Ordinary random patches with every degenerate patch between them, in
    one shape, so a leaf that draws nothing must not shift the draws after it."""
    rng = np.random.default_rng(seed)
    degenerate = [patch for _, patch in degenerate_patches()]
    ordinary = rng.uniform(-1.0, 1.0, size=(3 * len(degenerate), 4))
    patches = []
    for i, patch in enumerate(degenerate):
        patches.extend(ordinary[3 * i : 3 * i + 3])
        patches.append(patch)
    cells = rng.choice(1 << (3 * depth), size=len(patches), replace=False)
    x, y, z = np.unravel_index(cells, (1 << depth,) * 3)
    codes = np.sort(keys_from_coords(x, y, z))
    return PredictedShape(
        depth=depth,
        leaf_codes=codes,
        patches=np.array(patches, dtype=np.float64),
    )


def test_degenerate_patches_hit_their_cases():
    h = 0.5 / 16
    corners = _REF_CORNERS * h
    zero_corners = {}
    polys = {}
    for name, patch in degenerate_patches():
        n = np.asarray(patch[:3], dtype=np.float64)
        if np.linalg.norm(n) >= 1e-9:
            n = unit(n)
        else:
            n = np.array([0.0, 0.0, 1.0])
        zero_corners[name] = int(np.count_nonzero(corners @ n - patch[3] * h == 0.0))
        polys[name] = _reference_plane_cell_polygon(n, patch[3] * h, h)
    assert zero_corners["through a corner"] == 1
    assert len(polys["through a corner"]) >= 3
    assert zero_corners["through three corners"] == 3
    assert len(polys["through three corners"]) == 3
    assert zero_corners["through a diagonal"] == 4
    assert len(polys["through a diagonal"]) == 4
    assert zero_corners["along an edge"] == 2
    assert polys["along an edge"] is None
    for face in ("top face", "bottom face", "x face, other basis"):
        assert zero_corners[face] == 4 and len(polys[face]) == 4
    assert polys["misses the cell"] is None


@pytest.mark.parametrize("samples_per_node", [1, 4, 7])
def test_sample_points_matches_per_leaf_reference(samples_per_node):
    partial, _ = sphere_octree()
    predicted = CompletionNet(small_spec(), seed=3).complete(partial)
    assert not predicted.empty
    for shape, seed in ((predicted, 5), (mixed_degenerate_shape(), 11)):
        want = _reference_sample_points(shape, samples_per_node, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = sample_points(shape, samples_per_node=samples_per_node, seed=seed)
        assert np.array_equal(got.positions, want.positions)
        assert np.array_equal(got.normals, want.normals)


def test_sample_points_rejects_fewer_than_one_sample():
    shape = make_shape_with_patch((1, 2, 3), (0.0, 0.0, 1.0), 0.0)
    for spn in (0, -1):
        with pytest.raises(DomainError):
            sample_points(shape, samples_per_node=spn)


@pytest.mark.parametrize(
    "patch",
    [
        (np.nan, 0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0, np.nan),
        (np.inf, 0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0, np.inf),
        (0.0, 0.0, 1.0, -np.inf),
        (1e200, 1e200, 0.0, 0.0),  # finite, but its norm overflows
    ],
)
def test_sample_points_non_finite_patch_raises(patch):
    shape = make_shape_with_patch((1, 2, 3), patch[:3], patch[3])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError):
            sample_points(shape, samples_per_node=4)


def test_scene_head_shapes():
    pts, grid = dt.make_scene(dt.SceneConfig(seed=0, num_boxes=1))
    scan = dt.virtual_scan(pts, dt.ScanConfig(num_views=2, seed=0))
    partial = build_octree(scan, 8)
    gt = build_octree(pts, 6)
    spec = NetworkSpec(
        input_depth=8,
        output_depth=6,
        n_res=1,
        c0=16,
        c_max=32,
        scene_head=True,
        task="semantic",
        num_classes=4,
        hidden=8,
    )
    net = CompletionNet(spec, seed=0)
    ib, gb = OctreeBatch([partial]), OctreeBatch([gt])
    with ad.Tape():
        code, feats = net.encode(ib, train=True)
        assert code.level == 2
        assert sorted(feats.keys()) == [3, 4, 5, 6]
        assert all(f.level == l for l, f in feats.items())
        res = net.decode(code, ib, feats, gt_batch=gb, train=True)
    assert all(res.logits[l].level == l for l in range(3, 7))
    assert res.head_out is not None
    assert res.head_out.values.shape[1] == 4
