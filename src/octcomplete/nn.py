"""Octree-restricted neural operators.

All operators act on node-major FeatureMaps. The finer level's BlockMap,
built once per level from the parent level's 27 tap pairs as full-sibling
blocks of 8 rows, is the one description of a level and its parent: every
op on a level or between it and its parent takes it.
Each op takes its weight FeatureMap and checks the input channels against
the weight's shape. Empty sibling slots are stored rows: they read as zeros
inside convolution stencils but participate in batch-norm statistics.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

from . import autodiff as ad
from . import kernels
from .autodiff import FeatureMap
from .errors import DomainError
from .octree import _CHILD_SLOT, _PARENT_TAP


class Parameters:
    """Named flat store of learnable tensors with deterministic order."""

    def __init__(self, dtype=np.float32):
        self.dtype = dtype
        self.store = {}  # name -> FeatureMap
        self.meta = {}   # name -> {"trainable": bool, "decay": bool}

    def create(self, name, values, trainable=True, decay=True):
        if name in self.store:
            raise DomainError(f"duplicate parameter name {name}")
        fm = ad.parameter(np.asarray(values, dtype=self.dtype)) if trainable else FeatureMap(
            np.asarray(values, dtype=self.dtype)
        )
        self.store[name] = fm
        self.meta[name] = {"trainable": trainable, "decay": decay}
        return fm

    def names(self):
        return list(self.store.keys())

    def __getitem__(self, name):
        return self.store[name]

    def total_count(self):
        return sum(fm.values.size for fm in self.store.values())

    def zero_grad(self):
        for fm in self.store.values():
            fm.grad = None

    def state_arrays(self):
        """name -> ndarray view of every stored tensor (trainable or not)."""
        return {name: fm.values for name, fm in self.store.items()}


def he_init(rng, out_c, fan_in):
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(out_c, fan_in))


@dataclass
class BNParams:
    gamma: FeatureMap
    beta: FeatureMap
    running_mean: np.ndarray
    running_var: np.ndarray


# batch norm's variance offset, and the share of the running statistics
# kept at each train step
BN_EPSILON = 1e-5
BN_MOMENTUM = 0.9


def _block_layout():
    """The (child, slot) blocks of the 27 parent taps.

    The neighbor at tap t of the child in slot s is child _CHILD_SLOT[s, t]
    of its parent's neighbor at tap _PARENT_TAP[s, t]. Per parent tap T,
    the k slots that read T each read the same k children there, one child
    tap per (child, slot) entry: k = 8 at the centre, 4 at a face, 2 at an
    edge and 1 at a corner, 216 = 8 * 27 entries in all. Returns per T its
    slots and children, the entries' child taps in (T, child, slot) order
    and each T's first entry.
    """
    slots, kids, taps = [], [], []
    for T in range(27):
        s, t = np.nonzero(_PARENT_TAP == T)
        c = _CHILD_SLOT[s, t]
        slots.append(np.unique(s).astype(np.int32))
        kids.append(np.unique(c).astype(np.int32))
        block = np.full((8, 8), -1)
        block[c, s] = t
        taps.append(block[np.ix_(kids[-1], slots[-1])].ravel())
    return slots, kids, np.concatenate(taps), np.cumsum([0] + [len(t) for t in taps])


_BLOCK_SLOTS, _BLOCK_KIDS, _BLOCK_TAPS, _BLOCK_START = _block_layout()
_CENTRE = 13


@lru_cache(maxsize=None)
def _matrix_rows(cin):
    """The rows of w.T, a (cout, 27*cin) weight's transpose, that make the
    gemm matrices of the parent taps with k > 1, one after another: row
    (child, in channel, slot) of T's (k, cin, k) block is tap*cin +
    channel, tap being the (child, slot) entry's."""
    rows = []
    for T, slots in enumerate(_BLOCK_SLOTS):
        k = len(slots)
        if k > 1:
            taps = _BLOCK_TAPS[_BLOCK_START[T] : _BLOCK_START[T + 1]].reshape(k, 1, k)
            rows.append((taps * cin + np.arange(cin)[:, None]).ravel())
    rows = np.concatenate(rows)
    rows.flags.writeable = False  # every caller shares it
    return rows


@lru_cache(maxsize=None)
def _fold(cin):
    """The adjoint of the _matrix_rows(cin) gather: the (27*cin, 208*cin)
    sparse matrix with a one in row _matrix_rows(cin)[j] of column j, which
    adds each gathered row back onto the row of w.T it came from."""
    rows = _matrix_rows(cin)
    n = len(rows)
    return sparse.csr_array((np.ones(n, np.float32), (rows, np.arange(n))), shape=(27 * cin, n))


def _views(rows, wt, cin):
    """Per parent tap T, its (k*cin, k*cout) gemm matrix in the layout both
    directions share: for k > 1 a reshape view of T's rows of `rows`, laid
    out as _matrix_rows(cin) gathers them; for a corner (k = 1) the rows
    of its tap in `wt`, a (27*cin, cout) array laid out as w.T."""
    cout = wt.shape[1]
    mats, a = [], 0
    for T, slots in enumerate(_BLOCK_SLOTS):
        k = len(slots)
        if k == 1:
            t = _BLOCK_TAPS[_BLOCK_START[T]]
            mats.append(wt[t * cin : (t + 1) * cin])
        else:
            mats.append(rows[a : a + k * k * cin].reshape(k * cin, k * cout))
            a += k * k * cin
    return mats


# A parent tap runs as one gemm over all the children its pairs gather
# (MERGED) unless fewer than this share of them are read; then it runs as
# one gemm per child over the pairs that read that child (SPLIT). In
# perfbench's train-shape steps (CPU time, medians of 8 to 16 steps per
# rule, alternated, 2-core x86, one BLAS thread) 0.3 ran 5-12 % faster
# than 0.5 and 0.15 or 0.4 no faster; train-scene timed the same at 0.15
# to 0.5. A split tap holds more product rows than a merged one once a
# block's k children read more than one row on average, so the lower
# rule also keeps the product buffer smaller.
SPLIT_BELOW = 0.3

MERGED, SPLIT = "merged", "split"


class BlockMap:
    """One level read as full-sibling blocks of 8 rows under its parent level.

    The k-th owner among the parent level's ``parent_rows`` rows, row
    ``owner_rows[k]``, owns rows 8k..8k+7 of this one. Built once per level
    from the parent level's 27 tap pairs between owner rows
    (octree.child_pairs) and shared by the level's convolutions, forward
    and backward, and by the ops between it and its parent. Each pair
    (o, i) of parent tap T feeds one dense k x k block (_block_layout): the
    k slots of o's block that read T, from the k children of i's block, so
    a parent tap runs as one gemm with a (k*cin, k*cout) matrix of its
    entries' tap weights:
    - the centre (every owner paired with itself) views the whole level as
      (owners, 8*cin) rows: a reshape, no gather and no scatter;
    - another tap is one MERGED group: a gather of its in blocks' children
      (``rows_in``), whose product rows go to out rows ``rows_out``;
    - where fewer than SPLIT_BELOW of the children a tap gathers are read,
      the tap (the centre too) is one SPLIT group per child instead, over
      the pairs that read that child.
    ``groups`` holds (T, child index or None, out slice, in slice) per
    group. All group products reach the output through one CSC matrix
    whose column j has a single one in row rows_out[j], and the input
    gradient's through one with rows_in. Rows flagged empty in
    `child_status` read as zero and get no gradient, as the pair stencil
    never reads them; without `child_status` every row is read, as on a
    decoder level. ``reads_empty`` says whether the centre's reshape or a
    merged group reads an empty row: a split group gathers read rows only,
    so a map of split groups alone needs no zeroed copy of its input.
    """

    def __init__(self, level, pairs, child_status=None):
        rank = (level.child_start // 8).astype(np.int32)
        self.owner_rows = np.flatnonzero(level.child_start >= 0)
        self.parent_rows = len(level.child_start)
        self.owners = len(self.owner_rows)
        self.rows = 8 * self.owners
        self.empty = self.full_rows = self.empty_rows = None
        if child_status is not None:
            if len(child_status) != self.rows:
                raise DomainError(f"{self.owners} owners cannot read {len(child_status)} rows")
            if not child_status.all():
                self.empty = child_status == 0
                self.full_rows = np.flatnonzero(child_status)
                # gradients zero their empty rows by this index: 1.7 ms
                # against 1.9 ms by the mask on a 109k x 32 map at 87.5 %
                # empty rows, for 8 bytes per empty row (2-core x86)
                self.empty_rows = np.flatnonzero(self.empty)
        self.centre_merged = True
        self.groups = []
        outs, ins, n_out, n_in = [], [], 0, 0
        for T, (o, i) in enumerate(pairs):
            rin = (8 * np.take(rank, i))[:, None] + _BLOCK_KIDS[T]  # (pairs, k)
            parts = [(None, np.take(rank, o), rin.ravel())]
            if self.empty is not None:
                read = ~np.take(self.empty, rin)
                if np.count_nonzero(read) < SPLIT_BELOW * read.size:
                    ko = parts[0][1]
                    parts = [(c, ko[r], rin[r, c]) for c, r in enumerate(read.T)]
            if T == _CENTRE:
                if parts[0][0] is None:
                    continue  # the reshape
                self.centre_merged = False
            for c, ko, rin_g in parts:
                if len(ko) == 0:
                    continue
                rout = ((8 * ko)[:, None] + _BLOCK_SLOTS[T]).ravel()
                self.groups.append(
                    (T, c, slice(n_out, n_out + len(rout)), slice(n_in, n_in + len(rin_g)))
                )
                outs.append(rout)
                ins.append(rin_g)
                n_out += len(rout)
                n_in += len(rin_g)
        none = np.zeros(0, dtype=np.int32)
        self.rows_out = np.concatenate(outs + [none]).astype(np.int32, copy=False)
        self.rows_in = np.concatenate(ins + [none]).astype(np.int32, copy=False)
        # a pair row that owns no children has rank -1; the CSC products
        # would not check the rows it gives
        if min(self.rows_out.min(initial=0), self.rows_in.min(initial=0)) < 0:
            raise DomainError("a tap pair names a row that owns no children")
        # a split group gathers only rows that are read, so only the
        # centre's reshape and a merged group can read an empty row
        self.reads_empty = self.empty is not None and (
            self.centre_merged or any(c is None for _, c, _, _ in self.groups)
        )

    @property
    def kinds(self):
        """The group kinds the map runs, the centre's reshape as MERGED."""
        kinds = {MERGED if c is None else SPLIT for _, c, _, _ in self.groups}
        return kinds | {MERGED} if self.centre_merged and self.owners else kinds

    def scatter(self, rows, dtype):
        """The (self.rows, len(rows)) CSC matrix whose column j has a one in
        row rows[j], for rows_out or rows_in. Built per call and not kept,
        so a map holds no matrix while closures hold the map: 213k columns
        build in 0.13 ms against 7.5 ms for their product with a 32-channel
        buffer (2-core x86)."""
        n = len(rows)
        return sparse.csc_array(
            (np.ones(n, dtype), rows, np.arange(n + 1, dtype=np.int32)), shape=(self.rows, n)
        )

    def read(self, x):
        """x as the stencil reads it: rows flagged empty are zero."""
        if self.empty is None:
            return x
        # zeros and one take of the nonempty rows: 2.4 times as fast as
        # np.where at 87.5 % empty rows (109k x 32), 2.1 to 2.8 times at
        # 46-60 % (2-core x86)
        out = np.zeros(x.shape, x.dtype)
        out[self.full_rows] = np.take(x, self.full_rows, axis=0)
        return out

    @staticmethod
    def matrices(w):
        """Per parent tap T, the (k*cin, k*cout) gemm matrix of the (cout,
        27*cin) weight w: block (child, slot) is its entry's W_t.T. The
        matrices with k > 1 are views of one gather of the rows of w.T; a
        corner's (k = 1) is its tap's rows of w.T, a transposed view of w:
        a gemm's rounding depends on its operands' layout, and a C-ordered
        corner matrix moves the results in the last bit."""
        cin = w.shape[1] // 27
        rows = np.take(w.T, _matrix_rows(cin), axis=0)  # (208*cin, cout)
        return _views(rows, w.T, cin)

    def conv(self, x, mats):
        """The (rows, cout) convolution of x, its empty rows read as zero."""
        if self.reads_empty:
            x = self.read(x)
        cin, cout = x.shape[1], mats[0].shape[1]  # a corner block is (cin, cout)
        dtype = np.result_type(x, mats[0])
        buf = np.empty((len(self.rows_out), cout), dtype)
        for T, c, so, si in self.groups:
            m = _group_matrix(mats, T, c, cin)
            src = np.take(x, self.rows_in[si], axis=0).reshape(-1, m.shape[0])
            np.matmul(src, m, out=buf[so].reshape(-1, m.shape[1]))
        out = self.scatter(self.rows_out, dtype) @ buf
        del buf
        if self.centre_merged:
            blocks = out.reshape(self.owners, 8 * cout)
            blocks += x.reshape(self.owners, 8 * cin) @ mats[_CENTRE]
        return out

    def grads(self, x, g, mats, need_gx):
        """The input gradient (None unless need_gx) and the (cout, 27*cin)
        weight gradient of conv for the output gradient g.

        The weight gradient is the adjoint of matrices(w): each group's
        product goes to its own block of the same layout (_views), whose
        gathered rows are then folded back onto the rows of w.T."""
        if self.reads_empty:
            x = self.read(x)
        cin, cout = x.shape[1], g.shape[1]
        # each (T, child) block is written by at most one group, and each
        # corner's tap rows of gwt by its corner T alone
        grows = np.zeros((len(_matrix_rows(cin)), cout), g.dtype)
        gwt = np.zeros((27 * cin, cout), g.dtype)
        gmats = _views(grows, gwt, cin)
        buf = np.empty((len(self.rows_in), cin), g.dtype) if need_gx else None
        for T, c, so, si in self.groups:
            m = _group_matrix(mats, T, c, cin)
            go = np.take(g, self.rows_out[so], axis=0).reshape(-1, m.shape[1])
            src = np.take(x, self.rows_in[si], axis=0).reshape(-1, m.shape[0])
            np.matmul(src.T, go, out=_group_matrix(gmats, T, c, cin))
            if need_gx:
                np.matmul(go, m.T, out=buf[si].reshape(-1, m.shape[0]))
        gx = None
        if need_gx:
            gx = self.scatter(self.rows_in, g.dtype) @ buf
            del buf
        if self.centre_merged:
            gb = g.reshape(self.owners, 8 * cout)
            np.matmul(x.reshape(self.owners, 8 * cin).T, gb, out=gmats[_CENTRE])
            if need_gx:
                blocks = gx.reshape(self.owners, 8 * cin)
                blocks += gb @ mats[_CENTRE].T
        if need_gx and self.reads_empty:
            gx[self.empty_rows] = 0
        gwt += _fold(cin) @ grows
        return gx, gwt.T


def _group_matrix(mats, T, c, cin):
    """A group's gemm matrix: parent tap T's, or its rows of child index c."""
    return mats[T] if c is None else mats[T][c * cin : (c + 1) * cin]


def octree_conv(x, bmap, weight):
    """3x3x3 convolution over the stored nodes of one level.

    Absent or empty neighbors contribute zero rows; the output keeps the
    row count of the input. `bmap` is the level's BlockMap, built once per
    level from its parent level's tap pairs (network.LevelStack.block_map)
    and shared with the ops between the level and its parent; `weight` is
    (out, 27 * in), one (out, in) block W_t per tap t.

    Forward and backward run the map's groups (BlockMap.conv, .grads): one
    gather, one gemm and, through one CSC product for all groups, one
    scatter per parent tap, with the centre as a reshape. Forward gathers
    the rows of w.T into the parent taps' gemm matrices (BlockMap.matrices);
    backward writes each group's weight product into the same layout and
    folds it back onto the rows of w.T by the gather's adjoint, one sparse
    product (_fold). Where a merged group or the centre's reshape
    reads a row flagged empty, both directions read a copy of x with those
    rows zeroed (BlockMap.read), which backward makes again, so its closure
    keeps no copy; where the stencil reads none, x is read as it is. The
    gemm matrices are rebuilt in backward too. The input gradient is
    skipped when x takes none.
    """
    if weight.values.shape[1] != 27 * x.channels:
        raise DomainError("conv channel mismatch")
    if bmap.rows != x.rows:
        raise DomainError("block map row mismatch")
    xv, w, need_gx = x.values, weight.values, ad.tracked(x)
    out = bmap.conv(xv, bmap.matrices(w))

    def back(g):
        return bmap.grads(xv, g, bmap.matrices(w), need_gx)

    return ad.custom_op(out, [x, weight], back, level=x.level)


def downsample(x, bmap, weight):
    """conv(c, 2, 2): strided conv over each node's 8 children -> parent rows.

    `bmap` is the BlockMap of x's level. One gemm of the (owners, 8*c)
    block view with the (out, 8*c) weight; empty children read as zeros,
    parent rows that own no children get zero rows. The input gradient is
    skipped when x takes none.
    """
    if weight.values.shape[1] != 8 * x.channels:
        raise DomainError("downsample channel mismatch")
    if bmap.rows != x.rows:
        raise DomainError("block map row mismatch")
    rows, shape = bmap.owner_rows, (bmap.owners, 8 * x.channels)
    xv, w, need_gx = x.values, weight.values, ad.tracked(x)
    out = np.zeros((bmap.parent_rows, w.shape[0]), dtype=np.result_type(xv, w))
    out[rows] = bmap.read(xv).reshape(shape) @ w.T

    def back(g):
        go = g[rows]
        gx = None
        if need_gx:
            gx = (go @ w).reshape(xv.shape)
            if bmap.empty is not None:
                gx[bmap.empty_rows] = 0
        # the block view again: the closure keeps no masked copy of x
        return gx, go.T @ bmap.read(xv).reshape(shape)

    out_level = None if x.level is None else x.level - 1
    return ad.custom_op(out, [x, weight], back, level=out_level)


def upsample(x, bmap, weight):
    """Deconvolution with kernel 2, stride 2.

    `bmap` is the BlockMap of the output level and x is on its parent
    level: each owner row of x projects to its 8 child rows. The weight
    layout is (8*out, in), child slot t using the t-th block of rows.
    """
    if weight.values.shape[1] != x.channels:
        raise DomainError("upsample channel mismatch")
    if x.rows != bmap.parent_rows:
        raise DomainError(f"{x.rows} rows cannot be the parent level of {bmap.parent_rows}")
    rows = bmap.owner_rows
    xv, w = x.values, weight.values
    out = (xv[rows] @ w.T).reshape(8 * len(rows), -1)

    def back(g):
        # owner rows are distinct: the input gradient rows are assigned
        gb = g.reshape(len(rows), w.shape[0])
        gx = np.zeros_like(xv)
        gx[rows] = gb @ w
        # the owner rows again: the closure keeps x, not a copy of its
        # rows; the status head of x's level keeps x anyway, and on the
        # first decoder level every row is an owner
        return gx, gb.T @ xv[rows]

    out_level = None if x.level is None else x.level + 1
    return ad.custom_op(out, [x, weight], back, level=out_level)


def max_pool(x, bmap):
    """Per-channel max over each node's 8 children.

    `bmap` is the BlockMap of x's level. Children flagged empty count as
    -inf; parent rows whose children are all empty (or that own none)
    produce zero rows. The gradient routes to the argmax child only.
    """
    if bmap.rows != x.rows:
        raise DomainError("block map row mismatch")
    owners, c = bmap.owners, x.channels
    empty = np.zeros(x.rows, dtype=bool) if bmap.empty is None else bmap.empty
    vals = np.where(empty[:, None], -np.inf, x.values).reshape(owners, 8, c)
    arg = vals.argmax(axis=1)  # (owners, c)
    best = np.take_along_axis(vals, arg[:, None, :], axis=1)[:, 0, :]
    dead = empty.reshape(owners, 8).all(axis=1)[:, None]
    out = np.zeros((bmap.parent_rows, c), dtype=x.values.dtype)
    out[bmap.owner_rows] = np.where(dead, 0.0, best)
    arg = arg.astype(np.uint8)  # the argmax child slot, one byte per (owner, channel)
    shape, dtype = x.values.shape, x.values.dtype

    def back(g):
        src = 8 * np.arange(owners)[:, None] + arg  # (owners, c) argmax child rows
        # each child row has one parent and each (parent, channel) one argmax,
        # so the (row, channel) targets are unique: assignment, not a scatter
        ga = np.zeros(shape, dtype)
        valid = ~empty[src]
        cols = np.broadcast_to(np.arange(c), src.shape)
        ga[src[valid], cols[valid]] = g[bmap.owner_rows][valid]
        return (ga,)

    return ad.custom_op(out, [x], back, level=None if x.level is None else x.level - 1)


# Batch norm walks a map in row blocks of about this many bytes, so each
# block's centred copy, products and column sums are made while the block
# sits in L2 (2 MiB per core on the 2-core x86 the timings come from).
BN_BLOCK_BYTES = 256 * 1024

# A block whose channels divide this width is read as rows of this width,
# against each per-channel row tiled to it: numpy runs an (n, c) by (c,)
# op as n inner loops of length c. On a 64 KiB-element float32 block a
# subtraction took 168 us at 4 channels, 99 at 8, 69 at 16 and 49 at 32
# untiled, against 41-45 us tiled and 24 us for a same-shape product
# (2-core x86). Bit for bit the same elementwise arithmetic.
_TILE = 256


def _row_blocks(x):
    """x's rows as (slice, width) blocks of about BN_BLOCK_BYTES each, the
    last one ragged; width is _TILE where the block's elements fill rows of
    _TILE whole channel runs, else the channel count."""
    n, c = x.shape
    step = max(1, BN_BLOCK_BYTES // (c * x.itemsize))
    blocks = []
    for a in range(0, n, step):
        rows = min(step, n - a)
        tiled = _TILE % c == 0 and rows * c % _TILE == 0
        blocks.append((slice(a, a + rows), _TILE if tiled else c))
    return blocks


def _tiled(blocks, *rows):
    """Per block: its slice, its width and each per-channel row of `rows`
    tiled to that width."""
    cache = {}
    for b, w in blocks:
        if w not in cache:
            cache[w] = [np.tile(np.ravel(r), w // np.size(r)) for r in rows]
        yield b, w, cache[w]


def _totals(acc, c):
    """Per-channel totals of `acc`, per block width the float64 rows into
    which blocks of that width added their column sums."""
    return sum(a.reshape(len(a), -1, c).sum(axis=1) for a in acc.values())


def batch_norm(x, params, train, relu=False):
    """Per-channel normalization over all stored rows of the map.

    Train mode takes every per-channel reduction as a BLAS gemv with a ones
    vector (kernels.column_sums) and walks the map in row blocks
    (BN_BLOCK_BYTES), so a block's centred copy and products are summed or
    written while it is in cache; the block sums add up in float64. Forward
    takes the gemv mean of the whole map, then one block pass for the mean
    and variance of x centred on it (the corrected two-pass algorithm),
    then one that writes each block of the output as (x - mean) * scale +
    shift, centring before scaling so a mean far from zero costs no digits.
    Backward takes the beta and gamma gradients in one block pass and
    writes the input gradient, whose two means derive from them, in a
    second. No full-size buffer is made besides the output and the input
    gradient. Only the per-channel mean and inverse deviation are kept;
    backward recomputes x - mean. With `relu`, the op is followed by
    ad.relu's rule (ad.relu_values) as one op; backward masks the gradient
    by its own output being > 0, so neither the normalized map nor a mask
    is kept; without it backward does not hold the output, which is freed
    once the caller drops it. Eval mode writes x * scale + shift and the
    relu block by block too.
    """
    if x.rows == 0:
        raise DomainError("batch_norm on an empty feature map")
    if x.channels != params.gamma.values.shape[1]:
        raise DomainError("batch_norm channel mismatch")
    xv = x.values
    n, c = xv.shape
    gamma = params.gamma.values
    blocks = _row_blocks(xv)
    out = np.empty(xv.shape, xv.dtype)  # C order: its blocks' views are written
    kept = out if relu else None  # backward reads the output only to mask by it
    if train:
        mu0 = kernels.column_sums(xv) / n
        dtype = mu0.dtype
        acc = {w: np.zeros((2, w)) for _, w in blocks}
        for b, w, (m0,) in _tiled(blocks, mu0):
            d = xv[b].reshape(-1, w) - m0
            acc[w][0] += kernels.column_sums(d)
            d *= d
            acc[w][1] += kernels.column_sums(d)
        corr, sq = (_totals(acc, c) / n).astype(dtype)
        var = sq - corr * corr
        mu = mu0 + corr
        inv = 1.0 / np.sqrt(var + BN_EPSILON)
        s = gamma * inv
        shift = params.beta.values - corr * s
        for b, w, (m0, sw, hw) in _tiled(blocks, mu0, s, shift):
            o = out[b].reshape(-1, w)
            np.subtract(xv[b].reshape(-1, w), m0, out=o)
            o *= sw
            o += hw
            if relu:
                ad.relu_values(o, out=o)
        m = BN_MOMENTUM
        params.running_mean *= m
        params.running_mean += (1.0 - m) * mu
        params.running_var *= m
        params.running_var += (1.0 - m) * var

        def back(g):
            # gx = inv * (g*gamma - mean(g*gamma) - xhat * mean(g*gamma*xhat)),
            # where mean(g*gamma) = gamma*gbeta/n and mean(g*gamma*xhat) =
            # gamma*ggamma/n; with s = gamma*inv and xhat = d*inv, d = x - mu:
            # gx = g*s - s*gbeta/n - d * (s*inv*ggamma/n)
            # with relu the first pass stores the masked g in gx's blocks,
            # which the second then scales in place
            gdtype = np.result_type(g, dtype)
            gx = np.empty(g.shape, gdtype)
            acc = {w: np.zeros((2, w)) for _, w in blocks}
            for b, w, (mw,) in _tiled(blocks, mu):
                gb = g[b].reshape(-1, w)
                if relu:
                    gb = np.multiply(gb, kept[b].reshape(-1, w) > 0, out=gx[b].reshape(-1, w))
                acc[w][0] += kernels.column_sums(gb)
                acc[w][1] += kernels.column_sums(gb * (xv[b].reshape(-1, w) - mw))
            gbeta, ggamma = _totals(acc, c)
            gbeta = gbeta.astype(g.dtype)
            ggamma = ggamma.astype(gdtype) * inv
            row = s * (gbeta / n)
            scale = s * inv * (ggamma / n)
            gm = gx if relu else g
            for b, w, (mw, sw, rw, kw) in _tiled(blocks, mu, s, row, scale):
                o = gx[b].reshape(-1, w)
                np.multiply(gm[b].reshape(-1, w), sw, out=o)
                o -= rw
                d = xv[b].reshape(-1, w) - mw
                d *= kw
                o -= d
            return gx.astype(xv.dtype, copy=False), ggamma[None], gbeta[None]
    else:
        rmean = params.running_mean
        inv = 1.0 / np.sqrt(params.running_var + BN_EPSILON)
        scale_row = (gamma * inv).astype(xv.dtype)
        shift = (params.beta.values - gamma * rmean * inv).astype(xv.dtype)
        for b, w, (sw, hw) in _tiled(blocks, scale_row, shift):
            o = out[b].reshape(-1, w)
            np.multiply(xv[b].reshape(-1, w), sw, out=o)
            o += hw
            if relu:
                ad.relu_values(o, out=o)

        def back(g):
            if relu:
                g = g * (kept > 0)
            return (
                g * scale_row,
                (g * ((xv - rmean) * inv)).sum(axis=0, keepdims=True),
                g.sum(axis=0, keepdims=True),
            )

    return ad.custom_op(out, [x, params.gamma, params.beta], back, level=x.level)


class ConvBnRelu:
    """conv(c, k, s) in the Fig.-style notation: conv + BN + ReLU, no bias.

    Kernel 3 runs at stride 1 (octree_conv), kernel 2 at stride 2
    (downsample).
    """

    def __init__(self, params, prefix, in_c, out_c, kernel=3, rng=None):
        self.kernel = kernel
        taps = {3: 27, 2: 8}[kernel]
        self.w = params.create(f"{prefix}.w", he_init(rng, out_c, in_c * taps))
        self.bn = make_bn(params, f"{prefix}.bn", out_c)

    def forward(self, x, bmap, train):
        """`bmap` is the BlockMap of x's level."""
        op = downsample if self.kernel == 2 else octree_conv
        return batch_norm(op(x, bmap, self.w), self.bn, train, relu=True)


class Deconv:
    """Upsample(c): deconvolution (k=2, s=2) + BN + ReLU."""

    def __init__(self, params, prefix, in_c, out_c, rng=None):
        self.w = params.create(f"{prefix}.w", he_init(rng, 8 * out_c, in_c))
        self.bn = make_bn(params, f"{prefix}.bn", out_c)

    def forward(self, x, bmap, train):
        """`bmap` is the BlockMap of the output level."""
        return batch_norm(upsample(x, bmap, self.w), self.bn, train, relu=True)


def make_bn(params, prefix, c):
    gamma = params.create(f"{prefix}.gamma", np.ones((1, c)), decay=False)
    beta = params.create(f"{prefix}.beta", np.zeros((1, c)), decay=False)
    rm = params.create(f"{prefix}.rmean", np.zeros((1, c)), trainable=False, decay=False)
    rv = params.create(f"{prefix}.rvar", np.ones((1, c)), trainable=False, decay=False)
    return BNParams(
        gamma=gamma,
        beta=beta,
        running_mean=rm.values,
        running_var=rv.values,
    )


class ResBlockStack:
    """Resblock(n, c): n bottleneck residual blocks at channel width c.

    Each block is conv(c/4, 3, 1) + conv(c, 3, 1) around an identity skip;
    entering with a different channel count inserts a 1x1 projection.
    """

    def __init__(self, params, prefix, in_c, c, n, rng=None):
        if c % 4 != 0:
            raise DomainError("resblock channels must be divisible by 4")
        self.blocks = []
        self.projection = None  # the 1x1 projection's weight, when in_c != c
        if in_c != c:
            self.projection = params.create(f"{prefix}.proj.w", he_init(rng, c, in_c))
            self.proj_bn = make_bn(params, f"{prefix}.proj.bn", c)
        for i in range(n):
            c1 = ConvBnRelu(params, f"{prefix}.b{i}.conv1", c, c // 4, 3, rng=rng)
            w2 = params.create(f"{prefix}.b{i}.conv2.w", he_init(rng, c, (c // 4) * 27))
            bn2 = make_bn(params, f"{prefix}.b{i}.conv2.bn", c)
            self.blocks.append((c1, w2, bn2))

    def forward(self, x, bmap, train):
        if self.projection is not None:
            x = batch_norm(ad.linear(x, self.projection), self.proj_bn, train)
        for c1, w2, bn2 in self.blocks:
            h = c1.forward(x, bmap, train)
            h = batch_norm(octree_conv(h, bmap, w2), bn2, train)
            x = ad.relu(ad.add(x, h))
        return x


class MLPHead:
    """Shared 2-layer MLP applied per node (status prediction, regression)."""

    def __init__(self, params, prefix, in_c, hidden, out_c, rng=None):
        self.w1 = params.create(f"{prefix}.w1", he_init(rng, hidden, in_c))
        self.b1 = params.create(f"{prefix}.b1", np.zeros((1, hidden)), decay=False)
        self.w2 = params.create(f"{prefix}.w2", he_init(rng, out_c, hidden))
        self.b2 = params.create(f"{prefix}.b2", np.zeros((1, out_c)), decay=False)

    def forward(self, x):
        h = ad.relu(ad.linear(x, self.w1, self.b1))
        return ad.linear(h, self.w2, self.b2)
