"""Network assembly: schedules, layer counts, decoding behavior, sampling."""

import numpy as np
import pytest

from octcomplete import autodiff as ad
from octcomplete import data as dt
from octcomplete.errors import DomainError
from octcomplete.network import (
    CompletionNet,
    NetworkSpec,
    OctreeBatch,
    PredictedShape,
    sample_points,
)
from octcomplete.octree import build_octree, coords_from_keys, keys_from_coords, octree_from_codes


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
    assert len(res.state.keys[3][0]) == 512
    assert np.array_equal(res.state.keys[4][0], gt.levels[4].keys)
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
        octree=octree_from_codes(codes, depth),
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
    shape = PredictedShape(depth=4, octree=None, leaf_codes=np.zeros(0, np.uint64))
    with pytest.raises(DomainError):
        sample_points(shape)


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
        res = net.decode(code, ib, feats, gt_batch=gb, train=True)
    assert res.head_out is not None
    assert res.head_out.values.shape[1] == 4
