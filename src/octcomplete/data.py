"""Desk-scale synthetic data: primitive shapes, virtual scans, toy scenes."""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError
from .octree import (
    PointSet,
    cell_centers,
    estimate_normals,
    find_nodes,
    keys_from_coords,
    points_to_cells,
)

SCENE_GRID_DIMS = (60, 36, 60)
SCENE_VOXEL = 1.0 / 60.0
# virtual_scan's depth buffer has this many pixels a side per view
SCAN_IMAGE_RES = 128


@dataclass
class ScanConfig:
    num_views: int = 3
    noise_std_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (1 <= self.num_views <= 6):
            raise DomainError("num_views must be in 1..6")
        noise = self.noise_std_fraction
        if not 0 <= noise < np.inf:
            raise DomainError(f"noise_std_fraction must be finite and >= 0, got {noise}")


@dataclass
class SamplePair:
    partial: PointSet
    complete: PointSet
    grid: Optional[np.ndarray] = None
    seed: int = 0


def _normalize(positions, normals, target_extent=0.9):
    lo = positions.min(axis=0)
    hi = positions.max(axis=0)
    extent = (hi - lo).max()
    if extent <= 0:
        raise DomainError("degenerate shape extent")
    scale = target_extent / extent
    center = 0.5 * (lo + hi)
    pos = (positions - center) * scale + 0.5
    return pos, normals


def _sphere(rng, count, radius=0.35):
    if radius <= 0:
        raise DomainError("sphere radius must be positive")
    v = rng.normal(size=(count, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * radius, v.copy()


def _box(rng, count, half=(0.3, 0.2, 0.25)):
    half = np.asarray(half, dtype=np.float64)
    if np.any(half <= 0):
        raise DomainError("box half extents must be positive")
    # faces weighted by area
    areas = np.array(
        [half[1] * half[2], half[1] * half[2], half[0] * half[2],
         half[0] * half[2], half[0] * half[1], half[0] * half[1]]
    )
    face = rng.choice(6, size=count, p=areas / areas.sum())
    u = rng.uniform(-1, 1, size=count)
    v = rng.uniform(-1, 1, size=count)
    pos = np.zeros((count, 3))
    nrm = np.zeros((count, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, 1.0, -1.0)
    for a in range(3):
        m = axis == a
        b, c = [i for i in range(3) if i != a]
        pos[m, a] = sign[m] * half[a]
        pos[m, b] = u[m] * half[b]
        pos[m, c] = v[m] * half[c]
        nrm[m, a] = sign[m]
    return pos, nrm


def _cylinder(rng, count, radius=0.22, height=0.6):
    if radius <= 0 or height <= 0:
        raise DomainError("cylinder parameters must be positive")
    lat_area = 2 * np.pi * radius * height
    cap_area = np.pi * radius**2
    total = lat_area + 2 * cap_area
    part = rng.choice(3, size=count, p=[lat_area / total, cap_area / total, cap_area / total])
    theta = rng.uniform(0, 2 * np.pi, size=count)
    pos = np.zeros((count, 3))
    nrm = np.zeros((count, 3))
    lat = part == 0
    pos[lat, 0] = radius * np.cos(theta[lat])
    pos[lat, 1] = radius * np.sin(theta[lat])
    pos[lat, 2] = rng.uniform(-height / 2, height / 2, size=lat.sum())
    nrm[lat, 0] = np.cos(theta[lat])
    nrm[lat, 1] = np.sin(theta[lat])
    for p, sign in ((1, 1.0), (2, -1.0)):
        m = part == p
        r = radius * np.sqrt(rng.random(m.sum()))
        pos[m, 0] = r * np.cos(theta[m])
        pos[m, 1] = r * np.sin(theta[m])
        pos[m, 2] = sign * height / 2
        nrm[m, 2] = sign
    return pos, nrm


def make_shape(kind, params=None, density=20000, seed=0) -> PointSet:
    """Uniform surface samples with analytic normals, centered in the unit box."""
    params = dict(params or {})
    rng = np.random.default_rng(seed)
    if kind == "sphere":
        pos, nrm = _sphere(rng, density, **params)
    elif kind == "box":
        pos, nrm = _box(rng, density, **params)
    elif kind == "cylinder":
        pos, nrm = _cylinder(rng, density, **params)
    elif kind == "union":
        parts = params.get("parts")
        if not parts:
            raise DomainError("union shape needs a parts list")
        ppos, pnrm = [], []
        n_each = density // len(parts)
        for i, part in enumerate(parts):
            part = dict(part)
            k = part.pop("kind")
            offset = np.asarray(part.pop("offset", (0.0, 0.0, 0.0)))
            sub = make_shape(k, part, density=n_each, seed=seed + 17 * (i + 1))
            ppos.append(sub.positions - 0.5 + offset)
            pnrm.append(sub.normals)
        pos = np.vstack(ppos)
        nrm = np.vstack(pnrm)
    else:
        raise DomainError(f"unknown shape kind {kind}")
    pos, nrm = _normalize(pos, nrm)
    return PointSet(positions=pos, normals=nrm)


def view_directions(num_views, seed):
    """Deterministic unit view directions spread over the sphere."""
    rng = np.random.default_rng(seed)
    golden = np.pi * (3.0 - np.sqrt(5.0))
    phase = rng.uniform(0, 2 * np.pi)
    dirs = []
    for i in range(num_views):
        z = 1 - 2 * (i + 0.5) / num_views
        r = np.sqrt(max(0.0, 1 - z * z))
        th = golden * i + phase
        dirs.append((r * np.cos(th), r * np.sin(th), z))
    return np.asarray(dirs)


def virtual_scan(shape: PointSet, cfg: ScanConfig) -> PointSet:
    """Depth-buffer point splatting from num_views directions.

    Per view, back-facing points (normal pointing away from the camera) are
    dropped, then the nearest point per pixel survives; visible points are
    unioned across views.
    """
    if len(shape) == 0:
        raise DomainError("cannot scan an empty shape")
    dirs = view_directions(cfg.num_views, cfg.seed)
    center = np.array([0.5, 0.5, 0.5])
    rel = shape.positions - center
    keep = np.zeros(len(shape), dtype=bool)
    for v in dirs:
        # v points from the camera toward the scene
        facing = shape.normals @ v <= 1e-6
        idx = np.flatnonzero(facing)
        if len(idx) == 0:
            continue
        a = np.array([1.0, 0.0, 0.0])
        if abs(v[0]) > 0.9:
            a = np.array([0.0, 1.0, 0.0])
        u = np.cross(v, a)
        u /= np.linalg.norm(u)
        w = np.cross(v, u)
        pu = rel[idx] @ u
        pw = rel[idx] @ w
        depth = rel[idx] @ v
        res = SCAN_IMAGE_RES
        px = np.clip(((pu + 0.9) / 1.8 * res).astype(np.int64), 0, res - 1)
        py = np.clip(((pw + 0.9) / 1.8 * res).astype(np.int64), 0, res - 1)
        pixel = px * res + py
        order = np.lexsort((depth, pixel))
        pixel_sorted = pixel[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = pixel_sorted[1:] != pixel_sorted[:-1]
        keep[idx[order[first]]] = True
    out = PointSet(
        positions=shape.positions[keep].copy(),
        normals=shape.normals[keep].copy(),
        labels=None if shape.labels is None else shape.labels[keep].copy(),
    )
    return out


def add_noise(scan: PointSet, cfg: ScanConfig) -> PointSet:
    """Isotropic Gaussian jitter; std = fraction of the bbox width.

    Normals are re-estimated afterwards since jitter invalidates them.
    """
    if cfg.noise_std_fraction == 0:
        return scan
    rng = np.random.default_rng(cfg.seed + 1)
    width = (scan.positions.max(axis=0) - scan.positions.min(axis=0)).max()
    std = cfg.noise_std_fraction * width
    pos = scan.positions + rng.normal(0.0, std, size=scan.positions.shape)
    pos = np.clip(pos, 0.0, 1.0)
    est = estimate_normals(pos, k=min(16, len(scan) - 1))
    est.labels = None if scan.labels is None else scan.labels.copy()
    return est


# -- toy semantic scenes ----------------------------------------------------


@dataclass
class SceneConfig:
    num_boxes: int = 3
    num_classes: int = 4
    seed: int = 0


def make_scene(cfg: SceneConfig):
    """Procedural room as a labeled point cloud plus a dense 60x36x60 grid.

    Classes: 0 floor, 1 wall, 2.. furniture boxes (cycled below num_classes).
    The grid holds -1 for empty voxels; every occupied voxel emits one point
    at its center, so voxelizing the points reproduces the grid exactly.
    """
    if cfg.num_classes < 2:
        raise DomainError("scene needs at least 2 classes")
    rng = np.random.default_rng(cfg.seed)
    dx, dy, dz = SCENE_GRID_DIMS
    grid = np.full(SCENE_GRID_DIMS, -1, dtype=np.int32)
    normal_grid = np.zeros(SCENE_GRID_DIMS + (3,), dtype=np.float64)

    grid[:, 0, :] = 0
    normal_grid[:, 0, :] = (0.0, 1.0, 0.0)
    wall_h = dy - 1
    grid[0, 1:wall_h, :] = 1 % cfg.num_classes
    normal_grid[0, 1:wall_h, :] = (1.0, 0.0, 0.0)
    grid[:, 1:wall_h, 0] = 1 % cfg.num_classes
    normal_grid[:, 1:wall_h, 0] = (0.0, 0.0, 1.0)

    for b in range(cfg.num_boxes):
        label = 2 + (b % max(1, cfg.num_classes - 2))
        if label >= cfg.num_classes:
            label = cfg.num_classes - 1
        sx = rng.integers(5, 12)
        sy = rng.integers(4, 10)
        sz = rng.integers(5, 12)
        ox = rng.integers(6, dx - sx - 2)
        oz = rng.integers(6, dz - sz - 2)
        # hollow box shell standing on the floor
        box = np.zeros((sx, sy, sz), dtype=bool)
        box[0, :, :] = box[-1, :, :] = True
        box[:, -1, :] = True
        box[:, :, 0] = box[:, :, -1] = True
        xs, ys, zs = np.nonzero(box)
        grid[ox + xs, 1 + ys, oz + zs] = label
        ctr = np.array([ox + sx / 2, 1 + sy / 2, oz + sz / 2])
        rel = np.stack([ox + xs, 1 + ys, oz + zs], axis=1) - ctr
        nn = rel / np.maximum(np.linalg.norm(rel, axis=1, keepdims=True), 1e-9)
        normal_grid[ox + xs, 1 + ys, oz + zs] = nn

    occ = np.argwhere(grid >= 0)
    centers = (occ + 0.5) * SCENE_VOXEL
    normals = normal_grid[occ[:, 0], occ[:, 1], occ[:, 2]]
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    normals = np.divide(normals, norms, out=np.zeros_like(normals), where=norms > 1e-9)
    normals[norms[:, 0] <= 1e-9] = (0.0, 1.0, 0.0)
    labels = grid[occ[:, 0], occ[:, 1], occ[:, 2]]
    points = PointSet(positions=centers, normals=normals, labels=labels)
    return points, grid


def voxelize_labels(points: PointSet, dims=SCENE_GRID_DIMS):
    """Labeled occupancy grid from points; -1 where empty."""
    if points.labels is None:
        raise DomainError("voxelize_labels needs labeled points")
    grid = np.full(dims, -1, dtype=np.int32)
    idx = np.floor(points.positions / SCENE_VOXEL).astype(np.int64)
    ok = np.all((idx >= 0) & (idx < np.asarray(dims)), axis=1)
    idx = idx[ok]
    grid[idx[:, 0], idx[:, 1], idx[:, 2]] = points.labels[ok]
    return grid


def leaf_center_points(leaf_codes, labels, depth):
    """The leaves' centers with their labels, normals (0, 1, 0)."""
    centers = cell_centers(leaf_codes, depth)
    return PointSet(
        positions=centers,
        normals=np.tile((0.0, 1.0, 0.0), (len(centers), 1)),
        labels=np.asarray(labels, dtype=np.int32),
    )


def shape_to_label_grid(leaf_codes, labels, depth, dims=SCENE_GRID_DIMS):
    """Map predicted finest octree nodes onto the scene label grid."""
    return voxelize_labels(leaf_center_points(leaf_codes, labels, depth), dims)


# -- regression targets -----------------------------------------------------


def plane_fit_targets(gt_points: PointSet, octree):
    """Least-squares plane (n*, d*) per finest nonempty node.

    d* is measured along n* from the node center, in units of the node
    half-width. n* is sign-aligned with the mean point normal. Single-point
    nodes use the point's own normal.
    """
    depth = octree.depth
    cells = points_to_cells(gt_points.positions, depth)
    codes = keys_from_coords(cells[:, 0], cells[:, 1], cells[:, 2])
    rows = find_nodes(octree, depth, codes)
    if np.any(rows < 0):
        raise DomainError("octree was not built from these points")
    n_nodes = octree.levels[depth].num_nodes
    # per-point count, position, normal and second moment (for the
    # per-node covariance) columns, each summed per node by one bincount
    pos = gt_points.positions
    moments = (pos[:, :, None] * pos[:, None]).reshape(-1, 9)
    table = np.column_stack([np.ones(len(rows)), pos, gt_points.normals, moments])
    totals = np.stack([np.bincount(rows, col, minlength=n_nodes) for col in table.T], axis=1)
    count, sums, nsums = totals[:, 0], totals[:, 1:4], totals[:, 4:7]
    m2 = totals[:, 7:].reshape(n_nodes, 3, 3)

    nonempty = np.flatnonzero(octree.levels[depth].status == 1)
    h = 0.5 / (1 << depth)
    centers = cell_centers(octree.levels[depth].keys[nonempty], depth)

    cnt = np.maximum(count[nonempty], 1.0)[:, None]
    mean = sums[nonempty] / cnt
    cov = m2[nonempty] / cnt[:, :, None] - np.einsum("ni,nj->nij", mean, mean)
    cov = 0.5 * (cov + np.transpose(cov, (0, 2, 1)))
    _, evecs = np.linalg.eigh(cov)
    normals = evecs[:, :, 0]

    single = count[nonempty] < 2
    mean_nrm = nsums[nonempty]
    mn_norm = np.linalg.norm(mean_nrm, axis=1, keepdims=True)
    mean_unit = np.divide(
        mean_nrm, mn_norm, out=np.zeros_like(mean_nrm), where=mn_norm > 1e-12
    )
    normals[single] = mean_unit[single]
    deg = np.linalg.norm(normals, axis=1) < 1e-9
    normals[deg] = (0.0, 0.0, 1.0)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)

    flip = np.einsum("ni,ni->n", normals, mean_nrm) < 0
    normals[flip] *= -1.0

    disp = np.einsum("ni,ni->n", normals, mean - centers) / h
    return np.concatenate([normals, disp[:, None]], axis=1)
