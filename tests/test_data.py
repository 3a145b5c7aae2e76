"""Synthetic shapes, virtual scanning, scenes, regression targets."""

import numpy as np
import pytest

from octcomplete import data as dt
from octcomplete.errors import DomainError
from octcomplete.octree import PointSet, build_octree, coords_from_keys, find_nodes, keys_from_coords, points_to_cells


def test_sphere_analytic():
    s = dt.make_shape("sphere", density=5000, seed=0)
    # least-squares sphere fit: normalization centers on the sample bbox,
    # which sits ~1e-4 off the true center
    p = s.positions
    A = np.hstack([2 * p, np.ones((len(p), 1))])
    sol, *_ = np.linalg.lstsq(A, (p**2).sum(axis=1), rcond=None)
    c = sol[:3]
    rel = p - c
    r = np.linalg.norm(rel, axis=1)
    assert np.abs(r - r.mean()).max() < 1e-6
    dots = np.einsum("ni,ni->n", s.normals, rel / r[:, None])
    assert np.abs(dots - 1.0).max() < 1e-6


def test_box_normals_axis_aligned():
    s = dt.make_shape("box", density=4000, seed=1)
    axis_hits = np.abs(s.normals).max(axis=1)
    assert np.allclose(axis_hits, 1.0)
    assert np.count_nonzero(s.normals, axis=1).max() == 1


def test_cylinder_normals_unit():
    s = dt.make_shape("cylinder", density=4000, seed=2)
    assert np.allclose(np.linalg.norm(s.normals, axis=1), 1.0, atol=1e-9)
    s.validate()


def test_union_point_count():
    parts = [{"kind": "sphere"}, {"kind": "box", "offset": (0.2, 0.0, 0.0)}]
    s = dt.make_shape("union", {"parts": parts}, density=3000, seed=3)
    assert len(s) == 2 * (3000 // 2)


def test_make_shape_errors():
    with pytest.raises(DomainError):
        dt.make_shape("torus")
    with pytest.raises(DomainError):
        dt.make_shape("sphere", {"radius": -1.0})
    with pytest.raises(DomainError):
        dt.make_shape("union", {"parts": []})


def test_shapes_fit_unit_box():
    for kind in ("sphere", "box", "cylinder"):
        s = dt.make_shape(kind, density=2000, seed=4)
        s.validate()
        extent = s.positions.max(axis=0) - s.positions.min(axis=0)
        assert abs(extent.max() - 0.9) < 1e-6


def test_scan_six_views_keeps_most_of_a_sphere():
    s = dt.make_shape("sphere", density=5000, seed=5)
    scan = dt.virtual_scan(s, dt.ScanConfig(num_views=6, seed=5))
    assert len(scan) >= 0.95 * len(s)


def test_scan_single_view_backface_law():
    s = dt.make_shape("sphere", density=5000, seed=6)
    cfg = dt.ScanConfig(num_views=1, seed=6)
    scan = dt.virtual_scan(s, cfg)
    v = dt.view_directions(1, 6)[0]
    assert len(scan) > 0
    assert (scan.normals @ v).max() <= 1e-6


def test_scan_deterministic():
    s = dt.make_shape("box", density=3000, seed=7)
    cfg = dt.ScanConfig(num_views=3, seed=7)
    a = dt.virtual_scan(s, cfg)
    b = dt.virtual_scan(s, cfg)
    assert np.array_equal(a.positions, b.positions)


def test_scan_produces_partiality():
    s = dt.make_shape("union", {"parts": [{"kind": "box"}, {"kind": "cylinder", "offset": (0.25, 0.0, 0.0)}]}, density=4000, seed=8)
    scan = dt.virtual_scan(s, dt.ScanConfig(num_views=1, seed=8))
    assert len(scan) < len(s)


def test_scan_config_validation():
    with pytest.raises(DomainError):
        dt.ScanConfig(num_views=0)
    with pytest.raises(DomainError):
        dt.ScanConfig(num_views=7)
    with pytest.raises(DomainError):
        dt.ScanConfig(noise_std_fraction=-0.1)


def test_noise_zero_identity():
    s = dt.make_shape("sphere", density=2000, seed=9)
    scan = dt.virtual_scan(s, dt.ScanConfig(num_views=2, seed=9))
    out = dt.add_noise(scan, dt.ScanConfig(num_views=2, noise_std_fraction=0.0, seed=9))
    assert out is scan


def test_noise_std_matches_target():
    n = 100000
    rng = np.random.default_rng(0)
    pos = rng.random((n, 3)) * 0.8 + 0.1
    nrm = np.tile((0.0, 0.0, 1.0), (n, 1))
    ps = PointSet(positions=pos, normals=nrm)
    cfg = dt.ScanConfig(num_views=1, noise_std_fraction=0.025, seed=11)
    width = (pos.max(axis=0) - pos.min(axis=0)).max()
    out = dt.add_noise(ps, cfg)
    # measure the applied displacement before clipping effects dominate
    disp = out.positions - pos
    inner = np.all((out.positions > 1e-6) & (out.positions < 1 - 1e-6), axis=1)
    std = disp[inner].std(axis=0)
    assert np.abs(std - 0.025 * width).max() < 0.05 * 0.025 * width


def test_noise_deterministic():
    s = dt.make_shape("sphere", density=2000, seed=12)
    cfg = dt.ScanConfig(num_views=2, noise_std_fraction=0.02, seed=12)
    a = dt.add_noise(s, cfg)
    b = dt.add_noise(s, cfg)
    assert np.array_equal(a.positions, b.positions)


def test_scene_grid_shape_and_roundtrip():
    pts, grid = dt.make_scene(dt.SceneConfig(seed=1))
    assert grid.shape == (60, 36, 60)
    assert dt.voxelize_labels(pts).shape == (60, 36, 60)
    assert np.array_equal(dt.voxelize_labels(pts), grid)


def test_empty_room_labels():
    pts, grid = dt.make_scene(dt.SceneConfig(num_boxes=0, seed=2))
    assert set(np.unique(pts.labels)) == {0, 1}
    assert set(np.unique(grid)) == {-1, 0, 1}


def test_scene_needs_two_classes():
    with pytest.raises(DomainError):
        dt.make_scene(dt.SceneConfig(num_classes=1))


def test_scene_octree_roundtrip_lossless():
    # depth-6 leaves are finer than scene voxels, so voxel-center points
    # survive the octree trip and reproduce the grid exactly
    pts, grid = dt.make_scene(dt.SceneConfig(seed=3))
    o = build_octree(pts, 6)
    lv = o.levels[6]
    codes = lv.keys[lv.status == 1]
    from octcomplete.octree import majority_labels

    labels = majority_labels(o, pts)[lv.status == 1]
    back = dt.shape_to_label_grid(codes, labels, 6)
    assert np.array_equal(back, grid)


def test_plane_fit_coplanar_exact():
    rng = np.random.default_rng(5)
    # points on one plane inside a single depth-3 cell
    normal = np.array([1.0, 2.0, -0.5])
    normal /= np.linalg.norm(normal)
    center = (np.array([2, 3, 4]) + 0.5) / 8
    h = 0.5 / 8
    u = np.cross(normal, (0.0, 0.0, 1.0))
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    uv = rng.uniform(-0.4 * h, 0.4 * h, size=(40, 2))
    pos = center + 0.02 * h * normal + uv[:, :1] * u + uv[:, 1:] * v
    pts = PointSet(positions=pos, normals=np.tile(normal, (40, 1)))
    o = build_octree(pts, 3)
    t = dt.plane_fit_targets(pts, o)
    assert t.shape == (1, 4)
    assert np.allclose(np.abs(t[0, :3] @ normal), 1.0, atol=1e-6)
    assert t[0, :3] @ normal > 0  # sign follows the mean point normal
    assert abs(t[0, 3] - 0.02) < 1e-6


def test_plane_fit_single_point_node():
    pos = np.array([[0.51, 0.52, 0.53]])
    nrm = np.array([[0.0, 1.0, 0.0]])
    pts = PointSet(positions=pos, normals=nrm)
    o = build_octree(pts, 4)
    t = dt.plane_fit_targets(pts, o)
    assert np.allclose(t[0, :3], (0.0, 1.0, 0.0))
    h = 0.5 / 16
    cell = points_to_cells(pos, 4)[0]
    center = (cell + 0.5) / 16
    want_d = float(nrm[0] @ (pos[0] - center)) / h
    assert abs(t[0, 3] - want_d) < 1e-9


def test_plane_fit_matches_svd_oracle():
    rng = np.random.default_rng(6)
    pos = 0.3 + 0.4 * rng.random((200, 3))
    nrm = rng.normal(size=(200, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    pts = PointSet(positions=pos, normals=nrm)
    o = build_octree(pts, 3)
    t = dt.plane_fit_targets(pts, o)

    cells = points_to_cells(pos, 3)
    codes = keys_from_coords(cells[:, 0], cells[:, 1], cells[:, 2])
    lv = o.levels[3]
    nonempty = np.flatnonzero(lv.status == 1)
    for rank, row in enumerate(nonempty):
        members = codes == lv.keys[row]
        if members.sum() < 3:
            continue
        p = pos[members]
        centered = p - p.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        want_n = vt[-1]
        got_n = t[rank, :3]
        assert min(
            np.abs(got_n - want_n).max(), np.abs(got_n + want_n).max()
        ) < 1e-8


def test_view_directions_spread():
    dirs = dt.view_directions(6, 0)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-9)
    dots = dirs @ dirs.T - np.eye(6)
    assert dots.max() < 0.99  # no two views coincide
