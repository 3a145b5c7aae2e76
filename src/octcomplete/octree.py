"""Linear octrees over shuffled (Morton) keys.

An octree is stored as one sorted key array per level. A subdivided node
materializes all 8 child slots in the next level ("full-sibling" storage),
each slot individually flagged empty or nonempty, which keeps child index
arithmetic O(1) and makes the convolution stencils uniform.

Key convention: the 3-bit child digit at every level is ``x<<2 | y<<1 | z``
(x in the high bit), most significant level first.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .errors import DomainError

MAX_DEPTH = 10


def _check_depth(depth, lo=0, hi=MAX_DEPTH):
    if not (lo <= depth <= hi):
        raise DomainError(f"depth {depth} outside [{lo}, {hi}]")


def shuffled_key(x, y, z, depth):
    """Interleave (x, y, z) into a single sortable node key at `depth`."""
    _check_depth(depth)
    n = 1 << depth
    if not (0 <= x < n and 0 <= y < n and 0 <= z < n):
        raise DomainError(f"coordinate ({x},{y},{z}) out of range for depth {depth}")
    xs = np.array([x], dtype=np.uint64)
    ys = np.array([y], dtype=np.uint64)
    zs = np.array([z], dtype=np.uint64)
    return int(kernels.interleave3(xs, ys, zs)[0])


def key_to_coords(code, depth):
    """Exact inverse of shuffled_key."""
    _check_depth(depth)
    if not (0 <= code < 1 << (3 * depth)):
        raise DomainError(f"code {code} out of range for depth {depth}")
    x, y, z = kernels.deinterleave3(np.array([code], dtype=np.uint64))
    return int(x[0]), int(y[0]), int(z[0])


def keys_from_coords(x, y, z):
    """Vectorized shuffled-key encoding; no range checks."""
    return kernels.interleave3(
        np.asarray(x, dtype=np.uint64),
        np.asarray(y, dtype=np.uint64),
        np.asarray(z, dtype=np.uint64),
    )


def coords_from_keys(codes):
    return kernels.deinterleave3(np.asarray(codes, dtype=np.uint64))


def cell_centers(codes, depth):
    """(n, 3) centers in the unit cube of the depth-`depth` cells `codes`."""
    xs, ys, zs = coords_from_keys(codes)
    return (np.stack([xs, ys, zs], axis=1).astype(np.float64) + 0.5) / (1 << depth)


def parent_key(code, depth):
    if depth < 1:
        raise DomainError("root has no parent")
    return int(code) >> 3


def child_keys(code, depth):
    """The 8 children of a node, in ascending key order."""
    if depth >= MAX_DEPTH:
        raise DomainError("children would exceed the maximum depth")
    base = int(code) << 3
    return [base + t for t in range(8)]


# 27-stencil offsets, dz outermost, dx innermost
_NEIGHBOR_OFFSETS = np.array(
    [(dx, dy, dz) for dz in (-1, 0, 1) for dy in (-1, 0, 1) for dx in (-1, 0, 1)],
    dtype=np.int64,
)


def neighbor_keys(code, depth):
    """Keys of the 3x3x3 neighborhood; None where outside the grid."""
    x, y, z = key_to_coords(code, depth)
    n = 1 << depth
    out = []
    for dx, dy, dz in _NEIGHBOR_OFFSETS:
        nx, ny, nz = x + dx, y + dy, z + dz
        if 0 <= nx < n and 0 <= ny < n and 0 <= nz < n:
            out.append(shuffled_key(nx, ny, nz, depth))
        else:
            out.append(None)
    return out


def neighbor_codes(codes, depth):
    """(n, 27) neighbor key codes as int64, -1 where outside the grid.

    Only the low 3 * depth bits are the cell; bits above them (a batch's
    sample id, see network.OctreeBatch) are kept on every in-grid neighbor.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    cell_bits = np.uint64((1 << (3 * depth)) - 1)
    x, y, z = coords_from_keys(codes & cell_bits)
    n = 1 << depth
    xs = x.astype(np.int64)[:, None] + _NEIGHBOR_OFFSETS[:, 0][None, :]
    ys = y.astype(np.int64)[:, None] + _NEIGHBOR_OFFSETS[:, 1][None, :]
    zs = z.astype(np.int64)[:, None] + _NEIGHBOR_OFFSETS[:, 2][None, :]
    valid = (
        (xs >= 0) & (xs < n) & (ys >= 0) & (ys < n) & (zs >= 0) & (zs < n)
    )
    codes27 = kernels.interleave3(
        np.clip(xs, 0, None).ravel(),
        np.clip(ys, 0, None).ravel(),
        np.clip(zs, 0, None).ravel(),
    ).reshape(xs.shape)
    codes27 = (codes27 | (codes & ~cell_bits)[:, None]).astype(np.int64)
    codes27[~valid] = -1
    return codes27


@dataclass
class PointSet:
    """Points with unit normals and optional integer semantic labels."""

    positions: np.ndarray
    normals: np.ndarray
    labels: Optional[np.ndarray] = None
    degenerate_normals: int = 0

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        self.normals = np.asarray(self.normals, dtype=np.float64).reshape(-1, 3)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int32).reshape(-1)

    def __len__(self):
        return self.positions.shape[0]

    def validate(self):
        if self.positions.shape != self.normals.shape:
            raise DomainError("positions/normals length mismatch")
        # NaN fails every comparison below, so non-finite values are caught here
        if not np.isfinite(self.positions).all():
            raise DomainError("non-finite position")
        if not np.isfinite(self.normals).all():
            raise DomainError("non-finite normal")
        norms = np.linalg.norm(self.normals, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-5):
            raise DomainError("normals are not unit length")
        if np.any(self.positions < -1e-9) or np.any(self.positions > 1 + 1e-9):
            raise DomainError("positions outside the unit box")
        if self.labels is not None:
            if len(self.labels) != len(self):
                raise DomainError("labels length mismatch")
            if np.any(self.labels < 0):
                raise DomainError("negative semantic label")


@dataclass
class OctreeLevel:
    keys: np.ndarray        # uint64, strictly ascending stored keys
    status: np.ndarray      # uint8, 1 = nonempty
    child_start: np.ndarray  # int64, first child row in the next level, -1 if none

    @property
    def num_nodes(self):
        return len(self.keys)

    @property
    def num_nonempty(self):
        return int(self.status.sum())


@dataclass
class Octree:
    depth: int
    levels: list
    signal: np.ndarray  # finest-level node-major input features (rows x 4)


def neighbor_table(keys, status, level):
    """(rows, 27) stored-row indices of the 3x3x3 stencil of every key at
    `level`, by binary search; -1 for absent or empty neighbors."""
    if len(keys) == 0:
        return np.zeros((0, 27), dtype=np.int64)
    codes27 = neighbor_codes(keys, level)
    flat = codes27.ravel()
    idx = find_in_sorted(keys, np.clip(flat, 0, None).astype(np.uint64))
    found = idx >= 0
    hit = np.zeros_like(found)
    hit[found] = status[idx[found]] == 1
    idx[~hit] = -1
    idx[flat < 0] = -1
    return idx.reshape(codes27.shape)


def find_in_sorted(keys, queries):
    """Binary search `queries` in ascending `keys`; -1 where absent."""
    queries = np.asarray(queries)
    if len(keys) == 0:
        return np.full(queries.shape, -1, dtype=np.int64)
    pos = np.searchsorted(keys, queries)
    pos_c = np.clip(pos, 0, len(keys) - 1)
    out = np.where(keys[pos_c] == queries, pos_c, -1)
    return out.astype(np.int64)


def find_nodes(octree, level, codes):
    """Index of each of `codes` among the stored keys of `level`; -1 where absent."""
    if level > octree.depth:
        raise DomainError("level beyond octree depth")
    return find_in_sorted(octree.levels[level].keys, np.asarray(codes, dtype=np.uint64))


def points_to_cells(positions, depth):
    """Cell index per point with floor semantics; the upper face maps inward."""
    n = 1 << depth
    cells = np.floor(np.asarray(positions) * n).astype(np.int64)
    return np.clip(cells, 0, n - 1)


def build_levels(finest_codes, depth):
    """Per-level (keys, status, child_start) from the set of nonempty finest cells."""
    nonempty = [None] * (depth + 1)
    nonempty[depth] = np.unique(np.asarray(finest_codes, dtype=np.uint64))
    for l in range(depth - 1, -1, -1):
        nonempty[l] = np.unique(nonempty[l + 1] >> np.uint64(3))

    root_status = np.array([1 if len(nonempty[depth]) else 0], dtype=np.uint8)
    levels = [make_level(np.array([0], dtype=np.uint64), root_status, depth > 0)]
    for l in range(1, depth + 1):
        parents = nonempty[l - 1]
        keys = (
            (parents[:, None].astype(np.uint64) << np.uint64(3))
            + np.arange(8, dtype=np.uint64)[None, :]
        ).ravel()
        status = (find_in_sorted(nonempty[l], keys) >= 0).astype(np.uint8)
        levels.append(make_level(keys, status, l < depth))
    return levels


def make_level(keys, status, has_children):
    """An OctreeLevel whose nonempty nodes, in key order, own consecutive
    blocks of 8 rows in the next level (none when not has_children)."""
    child_start = np.full(len(keys), -1, dtype=np.int64)
    if has_children:
        # 8 * rank among nonempty stored nodes
        ranks = np.cumsum(status) - status
        child_start = np.where(status == 1, 8 * ranks.astype(np.int64), -1)
    return OctreeLevel(keys=keys, status=status, child_start=child_start)


# The neighbor at tap t of the child in slot s is child slot _CHILD_SLOT[s, t]
# of its parent's neighbor at tap _PARENT_TAP[s, t]: per axis (x, y, z), the
# slot's digit plus the tap's offset splits into a parent step and a digit.
_NBR_XYZ = [(np.arange(8)[:, None] >> (2 - a) & 1) + _NEIGHBOR_OFFSETS[:, a] for a in range(3)]
_PARENT_TAP = sum(((_NBR_XYZ[a] >> 1) + 1) * 3**a for a in range(3))  # (8, 27)
_CHILD_SLOT = sum((_NBR_XYZ[a] & 1) << (2 - a) for a in range(3))


# Child pair (start[o] + s, start[i] + c) of child tap t comes from a parent
# pair (o, i) of parent tap _PARENT_TAP[s, t] whose child c = _CHILD_SLOT[s, t]
# is flagged. Per key = 256 * (parent tap) + (bit mask of i's flagged
# children), the (s, c, t) that key keeps form one run of _COMBO_SLOT,
# _COMBO_CHILD and _COMBO_TAP, in (t, s) order, of _COMBO_COUNT[key] entries
# from _COMBO_START[key].
def _combo_runs():
    s, t = np.divmod(np.arange(8 * 27), 27)
    ptap, c = _PARENT_TAP[s, t], _CHILD_SLOT[s, t]
    mask, j = np.nonzero((np.arange(256)[:, None] >> c[None, :]) & 1)
    key = ptap[j] * 256 + mask
    j = j[np.lexsort((s[j], t[j], key))]
    count = np.bincount(key, minlength=27 * 256).astype(np.int32)
    return (
        s[j].astype(np.int32), c[j].astype(np.int32), t[j].astype(np.uint8),
        np.cumsum(count) - count, count,
    )


_COMBO_SLOT, _COMBO_CHILD, _COMBO_TAP, _COMBO_START, _COMBO_COUNT = _combo_runs()
_TAP_KEYS = 256 * np.arange(27, dtype=np.int32)


def root_pairs(status):
    """Tap pairs of B roots with `status`: a nonempty root's only neighbor is
    itself, at the center tap 13. Pairs are described at child_pairs."""
    nonempty = np.flatnonzero(status == 1).astype(np.int32)
    none = np.zeros(0, dtype=np.int32)
    return [(nonempty, nonempty) if t == 13 else (none, none) for t in range(27)]


def child_rows(level, rows, slots, next_status=None):
    """Next-level row of child `slots` of `level`'s `rows`; -1 where the row
    is -1 or has no children or, given `next_status`, the child is empty."""
    # row -1 reads the appended -1 (and status 0) sentinel
    start = np.append(level.child_start, -1)[rows]
    out = start + slots
    out[start < 0] = -1
    if next_status is not None:
        out[np.append(next_status, 0)[out] != 1] = -1
    return out


def child_pairs(level, pairs, next_status):
    """The next level's tap pairs between its rows flagged in `next_status`,
    from `level`'s tap pairs between its rows that own children.

    A level's stencil is 27 per-tap pairs (out, in) of int32 row arrays:
    output row out[j] reads input row in[j] at that tap, and each row is
    named at most once per tap as an output. The pairs that matter are
    those between rows that own a block of 8 children (nn.BlockMap reads a
    level through its parent's), and only they are derived. A child's
    neighbor is a child of its parent's neighbor, so each child pair comes
    from a parent pair through the (slot, tap) lookup (_PARENT_TAP,
    _CHILD_SLOT), keeping the children flagged on both sides. No key is
    searched, and the work scales with the pairs, not with 27 * rows.
    Within a tap the pairs come in no particular order.
    """
    start = level.child_start.astype(np.int32)
    has = start >= 0
    # per row, the bit mask of its flagged children; 0 where it has none
    kids = np.zeros(len(start), dtype=np.int32)
    kids[has] = np.packbits(next_status.reshape(-1, 8), axis=1, bitorder="little")[:, 0]
    so = np.take(start, np.concatenate([o for o, _ in pairs]))
    pi = np.concatenate([i for _, i in pairs])
    si = np.take(start, pi)
    key = np.take(kids, pi)
    key[so < 0] = 0  # an output row without children keeps nothing
    key += np.repeat(_TAP_KEYS, [len(o) for o, _ in pairs])
    count = np.take(_COMBO_COUNT, key)
    # run-length expansion: the k-th child pair of parent pair p reads entry
    # _COMBO_START[key[p]] + k of the runs
    ends = np.cumsum(count)
    combo = np.repeat(np.take(_COMBO_START, key) - ends + count, count)
    combo += np.arange(len(combo), dtype=combo.dtype)
    out = np.repeat(so, count)
    out += np.take(_COMBO_SLOT, combo)
    keep = np.take(next_status, out) != 0  # the output child is flagged too
    out, combo = out[keep], combo[keep]
    inp = np.repeat(si, count)[keep]
    inp += np.take(_COMBO_CHILD, combo)
    tap = np.take(_COMBO_TAP, combo)
    order = np.argsort(tap, kind="stable")
    bounds = np.cumsum(np.bincount(tap, minlength=27))[:-1]
    return list(zip(np.split(np.take(out, order), bounds), np.split(np.take(inp, order), bounds)))


def build_octree(points: PointSet, depth: int) -> Octree:
    """Octree whose finest nonempty cells contain >= 1 point.

    The finest-level input signal holds, per nonempty node, the unit-normalized
    average of the contained point normals plus a constant occupancy channel.
    """
    _check_depth(depth, lo=3)
    if len(points) == 0:
        raise DomainError("empty point set")
    points.validate()

    cells = points_to_cells(points.positions, depth)
    codes = keys_from_coords(cells[:, 0], cells[:, 1], cells[:, 2])
    uniq, inverse = np.unique(codes, return_inverse=True)

    normal_sum = np.stack(
        [np.bincount(inverse, weights=n, minlength=len(uniq)) for n in points.normals.T], axis=1
    )
    norms = np.linalg.norm(normal_sum, axis=1, keepdims=True)
    avg = np.divide(normal_sum, norms, out=np.zeros_like(normal_sum), where=norms > 1e-12)

    levels = build_levels(uniq, depth)
    finest = levels[depth]
    signal = np.zeros((finest.num_nodes, 4), dtype=np.float32)
    rows = np.flatnonzero(finest.status == 1)
    signal[rows, :3] = avg.astype(np.float32)
    signal[rows, 3] = 1.0
    return Octree(depth=depth, levels=levels, signal=signal)


def octree_from_codes(finest_codes, depth):
    """Octree directly from finest-cell key codes, with a zero signal."""
    _check_depth(depth, lo=1)
    levels = build_levels(finest_codes, depth)
    signal = np.zeros((levels[depth].num_nodes, 4), dtype=np.float32)
    return Octree(depth=depth, levels=levels, signal=signal)


def majority_labels(octree, points: PointSet):
    """Per finest stored node, the majority label of contained points (-1 if none)."""
    if points.labels is None:
        raise DomainError("point set carries no labels")
    cells = points_to_cells(points.positions, octree.depth)
    codes = keys_from_coords(cells[:, 0], cells[:, 1], cells[:, 2])
    rows = find_nodes(octree, octree.depth, codes)
    n_nodes = octree.levels[octree.depth].num_nodes
    k = int(points.labels.max()) + 1
    ok = rows >= 0
    flat = rows[ok] * k + points.labels[ok]
    counts = np.bincount(flat, minlength=n_nodes * k).reshape(n_nodes, k)
    out = counts.argmax(axis=1).astype(np.int32)
    out[counts.sum(axis=1) == 0] = -1
    return out


def estimate_normals(positions, k=16) -> PointSet:
    """Per-point normals from the covariance of the k nearest neighbors.

    The normal is the smallest-eigenvalue eigenvector, sign-oriented away
    from the centroid. Neighborhoods of rank < 2 fall back to the
    orientation direction and are counted in ``degenerate_normals``.
    The neighbors come from one `kernels.kd_tree` with scipy's default
    options, which loads its compiled module on the first tree built.
    """
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    n = len(positions)
    if n < k + 1:
        raise DomainError(f"need at least {k + 1} points for normal estimation")
    tree = kernels.kd_tree(positions)
    _, nbr = tree.query(positions, k=k + 1)
    nbr_pts = positions[nbr]  # (n, k+1, 3)
    mean = nbr_pts.mean(axis=1, keepdims=True)
    centered = nbr_pts - mean
    cov = np.einsum("nki,nkj->nij", centered, centered) / (k + 1)
    evals, evecs = np.linalg.eigh(cov)
    normals = evecs[:, :, 0]

    ref = positions - positions.mean(axis=0)
    ref_norm = np.linalg.norm(ref, axis=1, keepdims=True)
    ref_unit = np.divide(ref, ref_norm, out=np.zeros_like(ref), where=ref_norm > 1e-12)
    ref_unit[ref_norm[:, 0] <= 1e-12] = (0.0, 0.0, 1.0)

    flip = np.einsum("ni,ni->n", normals, ref_unit) < 0
    normals[flip] *= -1.0

    degenerate = evals[:, 1] <= 1e-12 * np.maximum(evals[:, 2], 1e-300)
    degenerate |= evals[:, 2] <= 1e-24
    normals[degenerate] = ref_unit[degenerate]
    return PointSet(
        positions=positions,
        normals=normals,
        degenerate_normals=int(degenerate.sum()),
    )
