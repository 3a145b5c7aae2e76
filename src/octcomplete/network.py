"""Encoder-decoder completion network assembly.

The encoder runs bottom-up over the input octree; the decoder grows the
output octree top-down, level by level, attaching output-guided skip
connections to the encoder features of the same level. Levels up to the
coarsest decoder level (default 2) are always fully expanded, so structure
prediction and its loss start at level 3.

Training uses teacher forcing: the decoder expands along the ground-truth
structure while statuses and losses come from the predictions. Inference
expands the nodes whose status logit is >= 0 (probability >= 0.5).
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import FeatureMap
from .errors import DomainError, NumericalError
from .octree import (
    Octree,
    PointSet,
    child_pairs,
    child_rows,
    cell_centers,
    find_in_sorted,  # not called here; perfbench/spans.py probes network.find_in_sorted
    make_level,
    neighbor_table,  # not called here; perfbench/spans.py probes network.neighbor_table
    octree_from_codes,  # not called here; perfbench/spans.py probes network.octree_from_codes
    root_pairs,
)
from .skip import StatusMask, guided_skip_add


@dataclass
class NetworkSpec:
    input_depth: int = 6
    output_depth: int = 6
    n_res: int = 2
    c0: int = 64
    c_max: int = 256
    task: str = "completion"       # completion | semantic
    num_classes: int = 0
    scene_head: bool = False
    skip_mode: str = "guided"      # guided | off | full
    hidden: int = 32
    coarsest: int = 2

    @property
    def core_depth(self):
        return 6 if self.scene_head else self.input_depth

    def validate(self):
        for name, low in (("c0", 1), ("c_max", 1), ("hidden", 1), ("n_res", 0), ("coarsest", 0)):
            if getattr(self, name) < low:
                raise DomainError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.scene_head and self.input_depth != 8:
            raise DomainError("scene head requires input depth 8")
        if self.output_depth != self.core_depth:
            raise DomainError("output depth must match the core input depth")
        if self.core_depth <= self.coarsest + 1:
            raise DomainError("network needs at least two stages")
        if self.task == "semantic" and self.num_classes < 2:
            raise DomainError("semantic task needs num_classes >= 2")
        if self.task not in ("completion", "semantic"):
            raise DomainError(f"unknown task {self.task}")
        if self.skip_mode not in ("guided", "off", "full"):
            raise DomainError(f"unknown skip mode {self.skip_mode}")

    def channels(self):
        """Per-level channel schedule, core_depth down to coarsest."""
        c = {self.core_depth: self.c0}
        for l in range(self.core_depth, self.coarsest, -1):
            c[l - 1] = min(2 * c[l], self.c_max)
        return c


class OctreeBatch:
    """A batch of equal-depth octrees, stored level by level as one octree.

    Sample b's keys at level l carry b above the 3 * l Morton bits, as
    ``key | b << 3*l``, so each level is one sorted key array over the whole
    batch with rows in batch order, and ``>> 3`` and ``<< 3`` move the id
    along with the key. ``levels`` is shaped like ``Octree.levels``.

    The merged levels keep the full-sibling layout (the k-th nonempty row of
    a level owns rows 8k..8k+7 of the next): moving between levels needs no
    table, and a level's tap pairs (octree.child_pairs) follow from its
    parent level's, down from the roots' constant ones (octree.root_pairs).
    A level's convolutions share its ``kernel_map``.
    """

    def __init__(self, octrees: List[Octree]):
        if not octrees:
            raise DomainError("empty batch")
        self.octrees = octrees
        self.depth = octrees[0].depth
        if any(o.depth != self.depth for o in octrees):
            raise DomainError("mixed octree depths in one batch")
        self.levels = []
        for l in range(self.depth + 1):
            lvs = [o.levels[l] for o in octrees]
            keys = [lv.keys | np.uint64(b << 3 * l) for b, lv in enumerate(lvs)]
            status = np.concatenate([lv.status for lv in lvs])
            self.levels.append(make_level(np.concatenate(keys), status, l < self.depth))
        self._pairs = {}
        self._maps = {}

    @property
    def size(self):
        return len(self.octrees)

    def nonempty(self, level):
        return self.levels[level].num_nonempty

    def signal_fm(self):
        sig = np.vstack([o.signal for o in self.octrees])
        return FeatureMap(sig, level=self.depth)

    def pairs(self, level):
        """The 27 tap pairs of `level`, reading only nonempty rows."""
        if level not in self._pairs:
            status = self.levels[level].status
            if level == 0:
                self._pairs[0] = root_pairs(status)
            else:
                up = self.levels[level - 1]
                self._pairs[level] = child_pairs(up, self.pairs(level - 1), status)
        return self._pairs[level]

    def kernel_map(self, level):
        """The nn.KernelMap of `level`'s tap pairs, built on first use."""
        if level not in self._maps:
            self._maps[level] = nn.KernelMap(self.pairs(level), self.levels[level].num_nodes)
        return self._maps[level]


class DecoderState:
    """Dynamically grown output structure for a batch of samples.

    ``keys[level]`` is one sorted key array for the whole batch, with the
    sample id above the Morton bits as in OctreeBatch. Growth starts at the
    batch's roots and `subdivide` derives each finer level's tap ``pairs``
    and its ``enc_rows`` and ``gt_rows``, the rows aligned in `enc_batch` and
    `gt_batch` (-1 where absent or empty), from the parent level's; up to
    `coarsest` every node is expanded, so that level is every sample's full
    grid. No key is searched.
    """

    def __init__(self, enc_batch, coarsest, gt_batch=None):
        self.coarsest = coarsest
        self.enc_batch = enc_batch
        self.gt_batch = gt_batch
        roots = np.arange(enc_batch.size)
        self.keys = {0: roots.astype(np.uint64)}
        # decoder stencils treat every stored row as valid: statuses are not
        # known yet when the level's convolutions run
        self.pairs = {0: root_pairs(np.ones(len(roots), np.uint8))}
        self.enc_rows = {0: np.where(enc_batch.levels[0].status == 1, roots, -1)}
        self.gt_rows = {}
        if gt_batch is not None:
            self.gt_rows[0] = np.where(gt_batch.levels[0].status == 1, roots, -1)
        self.parent_sel = {}   # level -> selected parent rows at level-1
        self.parent_idx = {}   # level -> parent row per row at level
        for l in range(coarsest):
            self.subdivide(l, np.ones(self.rows(l), np.uint8))

    def rows(self, level):
        return len(self.keys[level])

    def subdivide(self, level, expand_mask):
        """Grow level+1 from the rows of `level` flagged in expand_mask."""
        keys = self.keys[level]
        expand = (np.asarray(expand_mask) != 0).astype(np.uint8)
        rows = np.flatnonzero(expand)
        parent_idx = np.repeat(rows, 8)
        slots = np.tile(np.arange(8), len(rows))
        self.keys[level + 1] = (keys[parent_idx] << np.uint64(3)) | slots.astype(np.uint64)
        self.parent_sel[level + 1] = rows
        self.parent_idx[level + 1] = parent_idx
        grown = make_level(keys, expand, True)  # the expanded rows own the new blocks
        self.pairs[level + 1] = child_pairs(grown, self.pairs[level])
        for aligned, batch in ((self.enc_rows, self.enc_batch), (self.gt_rows, self.gt_batch)):
            if batch is not None:
                lv, nxt = batch.levels[level : level + 2]
                aligned[level + 1] = child_rows(lv, aligned[level][parent_idx], slots, nxt.status)


@dataclass
class PredictedShape:
    depth: int
    leaf_codes: np.ndarray
    patches: Optional[np.ndarray] = None          # raw (nx, ny, nz, d) per leaf
    semantic_logits: Optional[np.ndarray] = None
    growth: Dict[int, Tuple[int, float]] = field(default_factory=dict)  # as DecodeResult's

    @property
    def empty(self):
        return len(self.leaf_codes) == 0


@dataclass
class DecodeResult:
    logits: Dict[int, FeatureMap] = field(default_factory=dict)
    pred_status: Dict[int, np.ndarray] = field(default_factory=dict)
    gt_status: Dict[int, np.ndarray] = field(default_factory=dict)
    head_out: Optional[FeatureMap] = None
    head_rows: Optional[np.ndarray] = None
    skip_levels: List[int] = field(default_factory=list)
    state: Optional[DecoderState] = None
    # inference: level -> (rows expanded, expand_cap guard's cap), per guarded level
    growth: Dict[int, Tuple[int, float]] = field(default_factory=dict)


class CompletionNet:
    """The full encoder-decoder with output-guided skips."""

    def __init__(self, spec: NetworkSpec, seed=0):
        spec.validate()
        self.spec = spec
        self.params = nn.Parameters()
        rng = np.random.default_rng(seed)
        p = self.params
        ch = spec.channels()
        co = spec.coarsest
        d = spec.core_depth

        self.head_layers = None
        if spec.scene_head:
            self.head_layers = {
                "conv8": nn.ConvBnRelu(p, "head.conv8", 4, 16, 3, rng=rng),
                "conv7": nn.ConvBnRelu(p, "head.conv7", 16, 16, 3, rng=rng),
                "rb7": nn.ResBlockStack(p, "head.rb7", 16, 32, 1, rng=rng),
                "down7": nn.ConvBnRelu(p, "head.down7", 32, spec.c0, 2, rng=rng),
            }

        self.lift = None
        if not spec.scene_head and spec.n_res > 0:
            self.lift = nn.ConvBnRelu(p, "enc.lift", 4, spec.c0, 3, rng=rng)

        self.enc_rb = {}
        self.enc_down = {}
        for l in range(d, co, -1):
            if spec.n_res > 0:
                self.enc_rb[l] = nn.ResBlockStack(
                    p, f"enc.rb{l}", ch[l], ch[l], spec.n_res, rng=rng
                )
            else:
                in_c = 4 if (l == d and not spec.scene_head) else ch[l]
                self.enc_rb[l] = nn.ConvBnRelu(p, f"enc.conv{l}", in_c, ch[l], 3, rng=rng)
            self.enc_down[l] = nn.ConvBnRelu(
                p, f"enc.down{l}", ch[l], ch[l - 1], 2, rng=rng
            )

        self.dec_up = {}
        self.dec_rb = {}
        self.pred = {}
        for l in range(co + 1, d + 1):
            self.dec_up[l] = nn.Deconv(p, f"dec.up{l}", ch[l - 1], ch[l], rng=rng)
            if spec.n_res > 0:
                self.dec_rb[l] = nn.ResBlockStack(
                    p, f"dec.rb{l}", ch[l], ch[l], spec.n_res, rng=rng
                )
            else:
                self.dec_rb[l] = nn.ConvBnRelu(p, f"dec.conv{l}", ch[l], ch[l], 3, rng=rng)
            self.pred[l] = nn.MLPHead(p, f"dec.pred{l}", ch[l], spec.hidden, 1, rng=rng)

        out_c = 4 if spec.task == "completion" else spec.num_classes
        self.head = nn.MLPHead(p, "dec.head", ch[d], spec.hidden, out_c, rng=rng)

    # -- architecture accounting ------------------------------------------

    def layer_count(self):
        """Learnable layer depth: each conv and each MLP layer counts one."""
        total = 0
        if self.head_layers is not None:
            total += sum(layer.layer_count() for layer in self.head_layers.values())
        if self.lift is not None:
            total += self.lift.layer_count()
        for l in self.enc_rb:
            total += self.enc_rb[l].layer_count() + self.enc_down[l].layer_count()
        for l in self.dec_up:
            total += (
                self.dec_up[l].layer_count()
                + self.dec_rb[l].layer_count()
                + self.pred[l].layer_count()
            )
        total += self.head.layer_count()
        return total

    # -- encoder -----------------------------------------------------------

    def scene_input_head(self, batch: OctreeBatch, train=False):
        """§-style depth-8 input block producing 64-channel features at depth 6."""
        if batch.depth != 8:
            raise DomainError("scene input head expects depth-8 octrees")
        hl = self.head_layers
        x = batch.signal_fm()
        x = hl["conv8"].forward(x, batch.kernel_map(8), train)
        st = [lv.status for lv in batch.levels]
        x = nn.max_pool(x, st[7], st[8])
        x = hl["conv7"].forward(x, batch.kernel_map(7), train)
        x = hl["rb7"].forward(x, batch.kernel_map(7), train)
        return hl["down7"].forward(x, (st[6], st[7]), train)

    def encode(self, batch: OctreeBatch, train=False):
        """Bottom-up pass; returns the latent code and per-level skip features."""
        spec = self.spec
        if batch.depth != spec.input_depth:
            raise DomainError(
                f"octree depth {batch.depth} != spec input depth {spec.input_depth}"
            )
        if spec.scene_head:
            x = self.scene_input_head(batch, train)
        else:
            x = batch.signal_fm()
            if self.lift is not None:
                x = self.lift.forward(x, batch.kernel_map(spec.core_depth), train)
        feats = {}
        st = [lv.status for lv in batch.levels]
        for l in range(spec.core_depth, spec.coarsest, -1):
            x = self.enc_rb[l].forward(x, batch.kernel_map(l), train)
            feats[l] = x
            x = self.enc_down[l].forward(x, (st[l - 1], st[l]), train)
        return x, feats

    # -- decoder -----------------------------------------------------------

    def decode(
        self,
        code,
        enc_batch,
        enc_feats,
        gt_batch=None,
        train=False,
        expand_cap=8.0,
    ):
        """Top-down growth of the output octree.

        Train mode (teacher forcing) expands along gt_batch structure while
        statuses and losses come from predictions; inference expands the
        rows whose status logit is >= 0, guarded by `expand_cap` times the
        input's nonempty count per level (at least 64); each guarded
        level's expanded rows and cap are recorded in ``growth``.
        """
        spec = self.spec
        co = spec.coarsest
        d = spec.output_depth
        if train and gt_batch is None:
            raise DomainError("train-mode decode needs the ground-truth batch")
        res = DecodeResult(state=DecoderState(enc_batch, co, gt_batch))
        ds = res.state

        x = ad.row_gather(code, ds.enc_rows[co])

        for l in range(co + 1, d + 1):
            if l == co + 1:
                expand = np.ones(ds.rows(co), dtype=np.float64)
            elif train:
                expand = res.gt_status[l - 1]
            else:
                expand = res.pred_status[l - 1]
                cap = expand_cap * max(enc_batch.nonempty(min(l - 1, enc_batch.depth)), 64)
                res.growth[l - 1] = (int(expand.sum()), cap)
                if expand.sum() > cap:
                    raise NumericalError(
                        f"decoder explosion at level {l - 1}: "
                        f"{int(expand.sum())} nonempty nodes exceeds cap {int(cap)}"
                    )
            if expand.sum() == 0:
                return res  # nothing predicted nonempty; empty shape
            ds.subdivide(l - 1, expand)
            x = self.dec_up[l].forward(x, ds.parent_sel[l], train)

            if spec.skip_mode != "off":
                if spec.skip_mode == "full" or l == co + 1:
                    mask_vals = np.ones(ds.rows(l - 1), dtype=np.float64)
                else:
                    mask_vals = res.pred_status[l - 1]
                x = guided_skip_add(
                    x, enc_feats[l], ds.enc_rows[l], ds.parent_idx[l], StatusMask(mask_vals)
                )
                res.skip_levels.append(l)

            x = self.dec_rb[l].forward(x, nn.KernelMap(ds.pairs[l], ds.rows(l)), train)
            res.logits[l] = self.pred[l].forward(x)
            # sigmoid(z) >= 0.5 exactly where z >= 0
            res.pred_status[l] = (res.logits[l].values.reshape(-1) >= 0).astype(np.float64)
            if gt_batch is not None:
                res.gt_status[l] = (ds.gt_rows[l] >= 0).astype(np.float64)

        rows_sel = np.flatnonzero(
            (res.gt_status[d] if train else res.pred_status[d]) > 0
        )
        res.head_rows = rows_sel
        if len(rows_sel):
            head_in = ad.row_gather(x, rows_sel)
            res.head_out = self.head.forward(head_in)
        return res

    # -- single-sample inference ------------------------------------------

    def complete(self, octree):
        """Run the network on one input octree and build the predicted shape."""
        batch = OctreeBatch([octree])
        # no Tape: custom_op records nothing, so no backward closures are kept
        code, feats = self.encode(batch, train=False)
        res = self.decode(code, batch, feats, train=False)
        d = self.spec.output_depth
        if d not in res.pred_status or res.head_out is None:
            return PredictedShape(
                depth=d, leaf_codes=np.zeros(0, dtype=np.uint64), growth=res.growth
            )
        # sample 0 carries no id bits
        shape = PredictedShape(
            depth=d, leaf_codes=res.state.keys[d][res.head_rows], growth=res.growth
        )
        out = np.asarray(res.head_out.values, dtype=np.float64)
        if self.spec.task == "completion":
            shape.patches = out
        else:
            shape.semantic_logits = out
        return shape


# -- patch sampling ---------------------------------------------------------

_CUBE_CORNERS = np.array(
    [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=np.float64
)
_EDGE_I, _EDGE_J = np.array(
    [
        (0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3),
        (2, 6), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7),
    ]
).T
# vertex candidates of a leaf: the crossings of its 12 edges, then its 8
# corners (a corner is the point t = 0 of the "edge" from it to itself)
_CAND_FROM = np.concatenate([_EDGE_I, np.arange(8)])
_CAND_TO = np.concatenate([_EDGE_J, np.arange(8)])


def _cell_section_vertices(normals, disp, h):
    """Distinct plane/cell intersection vertices of n leaves.

    Returns (pts, k): pts (n, w, 3) holds each leaf's vertices in the order
    np.unique(axis=0) gives them, zero-padded past its count k (n,); k is 0
    where there are fewer than 3.
    """
    n = len(normals)
    corners = _CUBE_CORNERS * h
    s = normals @ corners.T - disp[:, None]
    neg = s < 0
    # the edges whose ends fall on either side, and the corners on the plane
    rows, cols = np.nonzero(
        np.concatenate([neg[:, _EDGE_I] != neg[:, _EDGE_J], s == 0.0], axis=1)
    )
    edge = cols < 12
    si = s[rows[edge], _EDGE_I[cols[edge]]]
    sj = s[rows[edge], _EDGE_J[cols[edge]]]
    t = np.zeros(len(cols))
    t[edge] = si / (si - sj)
    start = corners[_CAND_FROM]
    step = corners[_CAND_TO] - start
    cand = np.round(start[cols] + t[:, None] * step[cols], 12)
    # np.unique(axis=0) per leaf: a stable lexicographic sort within each
    # leaf, then drop each repeat of the previous vertex
    order = np.lexsort((cand[:, 2], cand[:, 1], cand[:, 0], rows))
    cand, rows = cand[order], rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cand[1:] != cand[:-1]).any(axis=1)
    cand, rows = cand[first], rows[first]
    k = np.bincount(rows, minlength=n)
    slot = np.arange(len(rows)) - (np.cumsum(k) - k)[rows]
    k[k < 3] = 0
    pts = np.zeros((n, int(k.max()), 3))
    use = k[rows] > 0
    pts[rows[use], slot[use]] = cand[use]
    return pts, k


def _plane_cell_polygon(normals, disp, h):
    """Plane/cell intersection polygons of n leaves in node-local coordinates.

    Returns (poly, k): poly (n, w, 3) holds each leaf's distinct vertices in
    angular order, zero-padded past its vertex count k (n,). k is 0 where
    the plane leaves fewer than 3 distinct vertices in the cell.
    """
    pts, k = _cell_section_vertices(normals, disp, h)
    # order around the polygon in a plane basis
    a = np.zeros_like(normals)
    flip = np.abs(normals[:, 0]) > 0.9
    a[~flip, 0] = 1.0
    a[flip, 1] = 1.0
    u = np.cross(normals, a)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = np.cross(normals, u)
    center = pts.sum(axis=1) / np.maximum(k, 1)[:, None]
    rel = pts - center[:, None]
    ang = np.arctan2((rel * v[:, None]).sum(axis=2), (rel * u[:, None]).sum(axis=2))
    ang[np.arange(pts.shape[1]) >= k[:, None]] = np.inf
    poly = np.take_along_axis(pts, np.argsort(ang, axis=1)[..., None], axis=1)
    return poly, k


def sample_points(shape: PredictedShape, samples_per_node=4, seed=0) -> PointSet:
    """Sample points on the clipped planar patch of every nonempty leaf.

    A leaf yields `samples_per_node` area-weighted points on its polygon's
    fan triangulation, or its polygon's vertex mean when that is 1 or the
    polygon has no area. Falls back to the node center projected onto the
    plane when the plane misses the cell.
    """
    if shape.patches is None:
        raise DomainError("shape carries no planar patches")
    if shape.empty:
        raise DomainError("empty predicted shape")
    if samples_per_node < 1:
        raise DomainError(f"samples_per_node must be >= 1, got {samples_per_node}")
    spn = samples_per_node
    rng = np.random.default_rng(seed)
    h = 0.5 / (1 << shape.depth)  # leaf half-width
    centers = cell_centers(shape.leaf_codes, shape.depth)

    normals = shape.patches[:, :3].copy()
    with np.errstate(over="ignore"):  # an overflowing norm is rejected below
        norms = np.linalg.norm(normals, axis=1, keepdims=True)
    disp = shape.patches[:, 3] * h  # displacement in node-local length units
    if not (np.isfinite(norms).all() and np.isfinite(disp).all()):
        raise NumericalError("non-finite planar patch")
    bad = norms[:, 0] < 1e-9
    normals[bad] = (0.0, 0.0, 1.0)
    norms[bad] = 1.0
    normals /= norms

    poly, k = _plane_cell_polygon(normals, disp, h)
    # one point per leaf: the vertex mean, or the projected center on a miss
    single = poly.sum(axis=1) / np.maximum(k, 1)[:, None]
    miss = k == 0
    single[miss] = normals[miss] * disp[miss, None]
    out = np.repeat(single[:, None], spn, axis=1)
    counts = np.ones(len(k), dtype=np.int64)
    if spn > 1 and poly.shape[1] >= 3:
        # fan triangulation, area-weighted uniform sampling. Each leaf with
        # area draws, in leaf order, spn uniforms that pick its triangles the
        # way Generator.choice(p=areas / total) does (a search of the
        # normalised area cdf), then spn for r1 and spn for r2
        v0 = poly[:, :1]
        tri_b = poly[:, 1:-1] - v0
        tri_c = poly[:, 2:] - v0
        areas = 0.5 * np.linalg.norm(np.cross(tri_b, tri_c), axis=2)
        areas[np.arange(areas.shape[1]) >= k[:, None] - 2] = 0.0
        total = areas.sum(axis=1)
        d = np.flatnonzero(total > 0)
        cdf = np.cumsum(areas[d] / total[d, None], axis=1)
        cdf /= cdf[:, -1:]
        draws = rng.random((len(d), 3, spn))
        which = np.count_nonzero(cdf[:, None, :] <= draws[:, 0, :, None], axis=2)
        r1 = np.sqrt(draws[:, 1])
        r2 = draws[:, 2]
        out[d] = (
            v0[d]
            + (r1 * (1 - r2))[..., None] * np.take_along_axis(tri_b[d], which[..., None], 1)
            + (r1 * r2)[..., None] * np.take_along_axis(tri_c[d], which[..., None], 1)
        )
        counts[d] = spn
    out += centers[:, None]
    positions = np.clip(out[np.arange(spn) < counts[:, None]], 0.0, 1.0)
    return PointSet(positions=positions, normals=np.repeat(normals, counts, axis=0))
