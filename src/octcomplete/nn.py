"""Octree-restricted neural operators.

All operators act on node-major FeatureMaps. The finer level's BlockMap,
built once per level from the parent level's 27 tap pairs as full-sibling
blocks of 8 rows, is the one description of a level and its parent: every
op on a level or between it and its parent takes it.
Each op takes its weight FeatureMap and checks the input channels against
the weight's shape. Empty sibling slots are stored rows of a level's
convolution and batch-norm outputs, so they take part in batch-norm
statistics, but a convolution or downsample reads only the level's
nonempty rows (nonempty), its stencil reading the empty ones as zeros.
A convolution adds each group's product rows in place onto its output
(kernels.add_rows) and builds no sparse matrix.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
_CENTRE_ENTRIES = slice(_BLOCK_START[_CENTRE], _BLOCK_START[_CENTRE + 1])


@lru_cache(maxsize=None)
def _matrix_rows(cin):
    """The (216*cin,) rows of w.T, a (cout, 27*cin) weight's transpose,
    that make the 27 parent taps' gemm matrices one after another: row
    (child, in channel, slot) of T's (k, cin, k) block is tap*cin +
    channel, tap being the (child, slot) entry's. Entries a..b of
    _BLOCK_TAPS are rows cin*a..cin*b of the gather."""
    rows = []
    for T, slots in enumerate(_BLOCK_SLOTS):
        k = len(slots)
        taps = _BLOCK_TAPS[_BLOCK_START[T] : _BLOCK_START[T + 1]].reshape(k, 1, k)
        rows.append((taps * cin + np.arange(cin)[:, None]).ravel())
    rows = np.concatenate(rows)
    rows.flags.writeable = False  # every caller shares it
    return rows


def _fold(gathered):
    """The adjoint of the _matrix_rows(cin) gather: each row of gathered, a
    (216*cin, cout) array in the gather's layout, added back onto the row
    of w.T it came from (kernels.add_rows, in row order), as a (27*cin,
    cout) array."""
    cin = len(gathered) // len(_BLOCK_TAPS)
    out = np.zeros((27 * cin, gathered.shape[1]), gathered.dtype)
    return kernels.add_rows(out, _matrix_rows(cin), gathered)


def _matrix(gathered, e, k):
    """Entries e, a slice of _BLOCK_TAPS, of an array laid out as
    _matrix_rows(cin) gathers the rows of w.T, as a gemm matrix of k
    slots: a (len(e)*cin/k, k*cout) reshape view of their rows."""
    cin = len(gathered) // len(_BLOCK_TAPS)
    return gathered[cin * e.start : cin * e.stop].reshape(-1, k * gathered.shape[1])


# A parent tap runs as one gemm over all the children its pairs gather
# (MERGED) unless fewer than this share of them are read; then it runs as
# one gemm per child over the pairs that read that child (SPLIT). In
# perfbench's train-shape steps (CPU time, medians of 8 to 16 steps per
# rule, alternated, 2-core x86, one BLAS thread) 0.3 ran 5-12 % faster
# than 0.5 and 0.15 or 0.4 no faster; train-scene timed the same at 0.15
# to 0.5. A split tap holds more product rows than a merged one once a
# block's k children read more than one row on average, so the lower
# rule also keeps the product rows fewer.
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
    ``groups`` holds (child index or None, entries, k, out slice, in
    slice) per group, its gemm matrix being the entries' rows of the
    weight gather (_matrix). Each group's product rows are added in place
    onto the output rows rows_out[out slice] (kernels.add_rows), and its
    input-gradient rows onto rows_in[in slice], one group at a time
    through one buffer of the map's largest group (``most_out`` and
    ``most_in`` rows). Rows flagged empty in `child_status` hold no
    features: ``full_rows`` lists the nonempty rows in order (None where
    no row is empty), the ``n_nonempty`` rows that the level's
    convolutions and downsample read (nonempty), which `fill` zero-fills
    to every row for the stencil and `take` takes back; without
    `child_status` every row is nonempty, as on a decoder level. Where a
    merged group or the merged centre reads an empty row (``fills``), a
    convolution reads the level filled; elsewhere, as on a map of split
    groups alone, rows_in are positions among the nonempty rows, set once
    here, and a convolution gathers those rows as they are.
    """

    def __init__(self, level, pairs, child_status=None):
        rank = (level.child_start // 8).astype(np.int32)
        self.owner_rows = np.flatnonzero(level.child_start >= 0)
        self.parent_rows = len(level.child_start)
        self.owners = len(self.owner_rows)
        self.rows = 8 * self.owners
        self.empty = self.full_rows = None
        self.n_nonempty = self.rows
        if child_status is not None:
            if len(child_status) != self.rows:
                raise DomainError(f"{self.owners} owners cannot read {len(child_status)} rows")
            if not child_status.all():
                self.empty = child_status == 0
                self.full_rows = np.flatnonzero(child_status)
                self.n_nonempty = len(self.full_rows)
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
            a, k = _BLOCK_START[T], len(_BLOCK_SLOTS[T])
            for c, ko, rin_g in parts:
                if len(ko) == 0:
                    continue
                rout = ((8 * ko)[:, None] + _BLOCK_SLOTS[T]).ravel()
                e = slice(a, a + k * k) if c is None else slice(a + c * k, a + (c + 1) * k)
                self.groups.append(
                    (c, e, k, slice(n_out, n_out + len(rout)), slice(n_in, n_in + len(rin_g)))
                )
                outs.append(rout)
                ins.append(rin_g)
                n_out += len(rout)
                n_in += len(rin_g)
        none = np.zeros(0, dtype=np.int32)
        self.rows_out = np.concatenate(outs + [none]).astype(np.int32, copy=False)
        self.rows_in = np.concatenate(ins + [none]).astype(np.int32, copy=False)
        # a pair row that owns no children has rank -1
        if min(self.rows_out.min(initial=0), self.rows_in.min(initial=0)) < 0:
            raise DomainError("a tap pair names a row that owns no children")
        self.most_out = max((so.stop - so.start for *_, so, _ in self.groups), default=0)
        self.most_in = max((si.stop - si.start for *_, si in self.groups), default=0)
        self.fills = self.empty is not None and (
            self.centre_merged or self.empty[self.rows_in].any()
        )
        if self.empty is not None and not self.fills:
            self.rows_in = np.searchsorted(self.full_rows, self.rows_in).astype(np.int32)

    @property
    def kinds(self):
        """The group kinds the map runs, the centre's reshape as MERGED."""
        kinds = {MERGED if c is None else SPLIT for c, *_ in self.groups}
        return kinds | {MERGED} if self.centre_merged and self.owners else kinds

    def fill(self, nonempty):
        """The level's rows from the array of its nonempty rows, in order
        (full_rows), the empty rows zero; the array itself where no row is
        empty."""
        if self.empty is None:
            return nonempty
        # zeros and one assignment of the nonempty rows: 2.4 times as fast
        # as np.where at 87.5 % empty rows (109k x 32), 2.1 to 2.8 times at
        # 46-60 % (2-core x86)
        out = np.zeros((self.rows, nonempty.shape[1]), nonempty.dtype)
        out[self.full_rows] = nonempty
        return out

    def take(self, a):
        """The nonempty rows of a, an array of the level's rows, in order
        (full_rows): fill's inverse; a itself where no row is empty."""
        return a if self.full_rows is None else np.take(a, self.full_rows, axis=0)

    def conv(self, x, w):
        """The (rows, cout) convolution of x, the level's nonempty rows
        (full_rows), by the (cout, 27*cin) weight w. Each group's gemm
        writes one buffer, which is then added onto its output rows: the
        same sums, in the same order, as one CSC product of every group's
        rows at once."""
        x = self.fill(x) if self.fills else x
        cin, cout = x.shape[1], w.shape[0]
        dtype = np.result_type(x, w)
        mats = np.take(w.T, _matrix_rows(cin), axis=0)  # (216*cin, cout)
        out = np.zeros((self.rows, cout), dtype)
        buf = np.empty((self.most_out, cout), dtype)
        for _, e, k, so, si in self.groups:
            m = _matrix(mats, e, k)
            src = np.take(x, self.rows_in[si], axis=0).reshape(-1, m.shape[0])
            prod = buf[: so.stop - so.start]
            np.matmul(src, m, out=prod.reshape(-1, m.shape[1]))
            kernels.add_rows(out, self.rows_out[so], prod)
        del buf
        if self.centre_merged:
            blocks = out.reshape(self.owners, 8 * cout)
            blocks += x.reshape(self.owners, 8 * cin) @ _matrix(mats, _CENTRE_ENTRIES, 8)
        return out

    def grads(self, x, g, w, need_gx):
        """The input gradient (None unless need_gx) and the (cout, 27*cin)
        weight gradient of conv for the output gradient g. x is conv's, and
        the input gradient is at its rows: the level's nonempty rows. Each
        group's input-gradient rows are added onto rows_in in turn, as
        conv's output rows, through one buffer.

        The weight gradient is the adjoint of conv's weight gather: each
        group's product goes to its own rows of a buffer in the gather's
        layout, which _fold then adds back onto the rows of w.T."""
        x = self.fill(x) if self.fills else x
        cin, cout = x.shape[1], g.shape[1]
        mats = np.take(w.T, _matrix_rows(cin), axis=0)
        # each group writes its own entries' rows; rows no group writes stay zero
        gmats = np.zeros(mats.shape, g.dtype)
        gx = np.zeros((len(x), cin), g.dtype) if need_gx else None
        buf = np.empty((self.most_in, cin), g.dtype) if need_gx else None
        for _, e, k, so, si in self.groups:
            m = _matrix(mats, e, k)
            go = np.take(g, self.rows_out[so], axis=0).reshape(-1, m.shape[1])
            src = np.take(x, self.rows_in[si], axis=0).reshape(-1, m.shape[0])
            np.matmul(src.T, go, out=_matrix(gmats, e, k))
            if need_gx:
                prod = buf[: si.stop - si.start]
                np.matmul(go, m.T, out=prod.reshape(-1, m.shape[0]))
                kernels.add_rows(gx, self.rows_in[si], prod)
        del buf
        if self.centre_merged:
            gb = g.reshape(self.owners, 8 * cout)
            xb = x.reshape(self.owners, 8 * cin)
            np.matmul(xb.T, gb, out=_matrix(gmats, _CENTRE_ENTRIES, 8))
            if need_gx:
                blocks = gx.reshape(self.owners, 8 * cin)
                blocks += gb @ _matrix(mats, _CENTRE_ENTRIES, 8).T
        if need_gx and self.fills:
            gx = self.take(gx)
        return gx, _fold(gmats).T


def octree_conv(x, bmap, weight):
    """3x3x3 convolution over the stored nodes of one level.

    `bmap` is the level's BlockMap, built once per level from its parent
    level's tap pairs (network.LevelStack.block_map) and shared with the
    ops between the level and its parent; x holds the level's nonempty
    rows (nonempty), as downsample's does, and the output every row of
    the level, its empty neighbors read as zero. `weight` is (out, 27 *
    in), one (out, in) block W_t per tap t.

    Forward and backward run the map's groups (BlockMap.conv, .grads) on
    x: one gather, one gemm and one in-place add of its product rows
    (kernels.add_rows) per group, through one buffer of the largest
    group, with the centre as a reshape. The map zero-fills x to every row
    (BlockMap.fill) only where a merged group or the merged centre reads
    an empty row; a split-only map gathers x as it is. Every gemm matrix
    is a row range of one gather of the rows of w.T (_matrix_rows);
    backward writes each group's weight product into the same layout and
    folds it back onto the rows of w.T by the gather's adjoint (_fold).
    Backward reads x again through its reader, so its closure keeps no
    filled copy, and an x that carries a recipe is remade whole. The input
    gradient, at x's rows, is skipped when x takes none.
    """
    if weight.values.shape[1] != 27 * x.channels:
        raise DomainError("conv channel mismatch")
    if bmap.n_nonempty != x.rows:
        raise DomainError("block map row mismatch")
    w, need_gx, read = weight.values, ad.tracked(x), ad.reader(x)
    out = bmap.conv(x.values, w)

    def back(g):
        return bmap.grads(read(), g, w, need_gx)

    return ad.custom_op(out, [x, weight], back, level=x.level)


def nonempty(x, bmap):
    """The nonempty rows of x, a map of `bmap`'s level, in order
    (BlockMap.full_rows): the form in which a level keeps its residual
    stream and in which its convolutions and downsample read their input.
    x itself on a level with no empty row. The input gradient is zero at
    the empty rows. A taped output carries a recipe over x's reader, which
    reads x at the rows asked for alone, so an x that carries a recipe (a
    batch-norm output) is remade at its nonempty rows only."""
    if bmap.rows != x.rows:
        raise DomainError("block map row mismatch")
    full = bmap.full_rows
    if full is None:
        return x
    read, shape, dtype = ad.reader(x), x.values.shape, x.values.dtype

    def back(g):
        gx = np.zeros(shape, dtype)
        gx[full] = g
        return (gx,)

    def remake(rows=None):
        return read(full if rows is None else full[rows])

    return ad.custom_op(bmap.take(x.values), [x], back, level=x.level, remake=remake)


def downsample(x, bmap, weight):
    """conv(c, 2, 2): strided conv over each node's 8 children -> parent rows.

    `bmap` is the BlockMap of x's level, and x holds that level's
    nonempty rows (nonempty), as the residual stream keeps them. One gemm
    of the (owners, 8*c) block view, zero-filled from x (BlockMap.fill),
    with the (out, 8*c) weight; parent rows that own no children get zero
    rows. Backward fills the block view again from x's reader, so its
    closure keeps no block view, and an x that carries a recipe is remade
    whole. The input gradient, the block view's at x's rows, is skipped
    when x takes none.
    """
    if weight.values.shape[1] != 8 * x.channels:
        raise DomainError("downsample channel mismatch")
    if bmap.n_nonempty != x.rows:
        raise DomainError("block map row mismatch")
    rows, shape = bmap.owner_rows, (bmap.owners, 8 * x.channels)
    w, need_gx, read = weight.values, ad.tracked(x), ad.reader(x)
    out = np.zeros((bmap.parent_rows, w.shape[0]), dtype=np.result_type(x.values, w))
    out[rows] = bmap.fill(x.values).reshape(shape) @ w.T

    def back(g):
        go = g[rows]
        gx = bmap.take((go @ w).reshape(bmap.rows, -1)) if need_gx else None
        return gx, go.T @ bmap.fill(read()).reshape(shape)

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
    w, read = weight.values, ad.reader(x)
    shape, dtype = x.values.shape, x.values.dtype
    out = (x.values[rows] @ w.T).reshape(8 * len(rows), -1)

    def back(g):
        # owner rows are distinct: the input gradient rows are assigned
        gb = g.reshape(len(rows), w.shape[0])
        gx = np.zeros(shape, dtype)
        gx[rows] = gb @ w
        # the owner rows again: the closure reads x, not a copy of its
        # rows, and an x that carries a recipe is remade at them only; on
        # the first decoder level every row is an owner
        return gx, gb.T @ read(rows)

    out_level = None if x.level is None else x.level + 1
    return ad.custom_op(out, [x, weight], back, level=out_level)


def max_pool(x, bmap):
    """Per-channel max over each node's 8 children -> one row per owner.

    `bmap` is the BlockMap of x's level, and the output holds one row per
    owner of it (``owner_rows``, in order): on an encoder level, the
    parent level's nonempty rows, which its convolutions read. Children
    flagged empty count as -inf; an owner whose children are all empty
    gives a zero row. The gradient routes to the argmax child only, kept
    as one byte per (owner, channel); backward reads no values. The
    forward walks the owners in blocks of about BN_BLOCK_BYTES of input,
    so the -inf copy and the int64 argmax exist one block at a time.
    """
    if bmap.rows != x.rows:
        raise DomainError("block map row mismatch")
    owners, c = bmap.owners, x.channels
    empty = np.zeros(x.rows, dtype=bool) if bmap.empty is None else bmap.empty
    empty8, xv = empty.reshape(owners, 8), x.values.reshape(owners, 8, c)
    shape, dtype = x.values.shape, x.values.dtype
    out = np.empty((owners, c), dtype)
    arg = np.empty((owners, c), np.uint8)  # the argmax child slot, one byte per (owner, channel)
    step = max(1, BN_BLOCK_BYTES // (8 * c * x.values.itemsize))
    for a in range(0, owners, step):
        b = slice(a, a + step)
        vals = np.where(empty8[b, :, None], -np.inf, xv[b])
        k = vals.argmax(axis=1)
        arg[b] = k
        out[b] = np.take_along_axis(vals, k[:, None, :], axis=1)[:, 0, :]
    out[empty8.all(axis=1)] = 0.0

    def back(g):
        src = 8 * np.arange(owners)[:, None] + arg  # (owners, c) argmax child rows
        # each child row has one parent and each (parent, channel) one argmax,
        # so the (row, channel) targets are unique: assignment, not a scatter
        ga = np.zeros(shape, dtype)
        valid = ~empty[src]
        cols = np.broadcast_to(np.arange(c), src.shape)
        ga[src[valid], cols[valid]] = g[valid]
        return (ga,)

    out_level = None if x.level is None else x.level - 1
    return ad.custom_op(out, [x], back, level=out_level)


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


def _affine(xb, cw, sw, hw, out):
    """(xb - cw) * sw + hw into `out`: batch norm's arithmetic on one block."""
    np.subtract(xb, cw, out=out)
    out *= sw
    out += hw
    return out


def _normalized(x, blocks, centre, s, shift, relu):
    """The batch-norm output (x - centre) * s + shift, written block by
    block, and with `relu` mapped by ad.relu_values in the block."""
    out = np.empty(x.shape, x.dtype)  # C order: its blocks' views are written
    for b, w, (cw, sw, hw) in _tiled(blocks, centre, s, shift):
        o = _affine(x[b].reshape(-1, w), cw, sw, hw, out[b].reshape(-1, w))
        if relu:
            ad.relu_values(o, out=o)
    return out


def _sums(blocks, x, centre, g=None, relu=None, into=None):
    """Per-channel sums of u and of u * (x - centre) over x's row blocks,
    added up in float64 as a (2, channels) array. u is x - centre itself
    or, given g, the block of g; with `relu`, the (centre, s, shift) rows
    of a BN-ReLU forward, g masked by that forward's output being > 0 and
    stored in the block of `into`. The mask is remade per block: the block
    of `into` first takes the forward's pre-activation by its own
    arithmetic (_affine), which is > 0 exactly where the output is."""
    acc = {w: np.zeros((2, w)) for _, w in blocks}
    for b, w, (cw, *fw) in _tiled(blocks, centre, *(relu or ())):
        xb = x[b].reshape(-1, w)
        d = xb - cw
        u = d if g is None else g[b].reshape(-1, w)
        if relu is not None:
            o = _affine(xb, *fw, into[b].reshape(-1, w))
            u = np.multiply(u, o > 0, out=o)
        acc[w][0] += kernels.column_sums(u)
        d *= u
        acc[w][1] += kernels.column_sums(d)
    c = x.shape[1]
    return sum(a.reshape(len(a), -1, c).sum(axis=1) for a in acc.values())


def batch_norm(x, params, train, relu=False):
    """Per-channel normalization over all stored rows of the map.

    Both modes walk the map in row blocks (BN_BLOCK_BYTES), so a block's
    centred copy and products are summed or written while it is in cache,
    and take every per-channel reduction as a BLAS gemv with a ones vector
    (kernels.column_sums), the block sums added up in float64 (_sums). One
    block pass writes the output as (x - centre) * s + shift, centring
    before scaling so a mean far from zero costs no digits (_normalized).
    Train mode centres on the gemv mean of the whole map and takes the mean
    and variance of x centred on it in one sums pass (the corrected
    two-pass algorithm); eval mode centres on a copy of the running mean,
    with shift = beta.
    Backward takes the beta and gamma gradients in one sums pass over the
    gradient and writes the input gradient in a second block pass: g * s,
    less in train mode the two means that derive from those sums. No
    full-size buffer is made besides the output and the input gradient,
    and only per-channel rows are kept; backward recomputes x - centre.
    x is held through its reader (ad.reader): an x that carries a recipe
    (the 1x1 projection's, ResBlockStack) is remade whole by backward and
    at the rows asked for by this op's own recipe, so no backward holds it.
    With `relu`, the op is followed by ad.relu's rule (ad.relu_values) as
    one op, and backward masks the gradient by its output being > 0: the
    sums pass remakes that mask per block from x and the forward's own
    centre, s and shift, bit for bit the forward's, so neither the output
    nor a mask is kept. No output is kept at all: a taped output carries
    the recipe that remakes it from the same rows and x's reader
    (custom_op's `remake`), which the ops that read it in backward call
    (ad.reader), for all rows or for the rows they read: the arithmetic is
    elementwise, so a row block of x gives its rows of the output bit for
    bit.
    """
    if x.rows == 0:
        raise DomainError("batch_norm on an empty feature map")
    if x.channels != params.gamma.values.shape[1]:
        raise DomainError("batch_norm channel mismatch")
    xv, read = x.values, ad.reader(x)
    n, c = xv.shape
    gamma = params.gamma.values
    blocks = _row_blocks(xv)
    if train:
        mu0 = kernels.column_sums(xv) / n
        corr, sq = (_sums(blocks, xv, mu0) / n).astype(xv.dtype)
        var = sq - corr * corr
        centre, mu = mu0, mu0 + corr
        inv = 1.0 / np.sqrt(var + BN_EPSILON)
        s = gamma * inv
        shift = params.beta.values - corr * s
        m = BN_MOMENTUM
        params.running_mean *= m
        params.running_mean += (1.0 - m) * mu
        params.running_var *= m
        params.running_var += (1.0 - m) * var
    else:
        # a copy: a later train-mode call may update the running mean in
        # place before backward remakes this output from it
        centre = mu = params.running_mean[0].copy()
        inv = 1.0 / np.sqrt(params.running_var[0] + BN_EPSILON)
        s = gamma * inv
        shift = params.beta.values
    out = _normalized(xv, blocks, centre, s, shift, relu)
    relu_rows = (centre, s, shift) if relu else None

    def back(g):
        # train: gx = inv * (g*gamma - mean(g*gamma) - xhat * mean(g*gamma*xhat)),
        # where mean(g*gamma) = gamma*gbeta/n and mean(g*gamma*xhat) =
        # gamma*ggamma/n; with s = gamma*inv and xhat = d*inv, d = x - mu:
        # gx = g*s - s*gbeta/n - d * (s*inv*ggamma/n); eval: gx = g*s.
        # With relu the sums pass stores the masked g in gx's blocks, which
        # the second pass then scales in place. g has the output's dtype,
        # which is x's (autodiff._accum), so gx's blocks hold the
        # pre-activation at the forward's precision
        xv = read()
        gx = np.empty(g.shape, xv.dtype)
        gbeta, ggamma = _sums(blocks, xv, mu, g, relu_rows, gx)
        gbeta = gbeta.astype(g.dtype)
        ggamma = ggamma.astype(gx.dtype) * inv
        gm = gx if relu else g
        rows = (s, mu, s * (gbeta / n), s * inv * (ggamma / n)) if train else (s,)
        for b, w, (sw, *terms) in _tiled(blocks, *rows):
            o = gx[b].reshape(-1, w)
            np.multiply(gm[b].reshape(-1, w), sw, out=o)
            if train:
                mw, rw, kw = terms
                o -= rw
                d = xv[b].reshape(-1, w) - mw
                d *= kw
                o -= d
        return gx, ggamma[None], gbeta[None]

    def remake(rows=None):
        xr = read(rows)
        return _normalized(xr, _row_blocks(xr), centre, s, shift, relu)

    return ad.custom_op(
        out, [x, params.gamma, params.beta], back, level=x.level, remake=remake
    )


class ConvBnRelu:
    """conv(c, k, s) in the Fig.-style notation: conv + BN + ReLU, no bias.

    Either kernel reads the level's nonempty rows (nonempty): kernel 3
    runs at stride 1 (octree_conv) and kernel 2 at stride 2 (downsample).
    """

    def __init__(self, params, prefix, in_c, out_c, kernel, rng):
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

    def __init__(self, params, prefix, in_c, out_c, rng):
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

    Each block is conv(c/4, 3, 1) + conv(c, 3, 1) around an identity skip,
    joined by ad.add_relu; entering with a different channel count inserts
    a 1x1 projection (ad.linear, then batch norm). `forward` takes a map of
    every row of bmap's level and returns the residual stream as the
    level's nonempty rows (nonempty), which no op reads at an empty row:
    the stream, every block's input and output, is kept at those rows,
    each block's conv1 reads it as it is, and conv2 reads conv1's nonempty
    rows. The convolution and batch-norm outputs stay at every row, as
    batch-norm statistics take the empty rows in. On a level with no empty
    row `nonempty` is the map itself.
    In a taped forward the projection's linear output is remade in
    backward (ad.linear's recipe), by its batch norm's backward and recipe,
    and the block outputs alternate, first to last, between remade in
    backward (a recipe over the block's input and its second batch-norm
    output's nonempty rows) and kept, so no residual recipe reads another;
    the last is always kept, so the next layer's backward reads the
    stack's output as it is. On the scene head's depth-7 level (`head.rb7`,
    109,224 rows x 32, 87.5 % empty) the kept output and the projection's
    batch-norm output that the blocks read are 1.7 MiB each, not 13.3.
    """

    def __init__(self, params, prefix, in_c, c, n, rng):
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
        x = nonempty(x, bmap)
        last = len(self.blocks) - 1
        for i, (c1, w2, bn2) in enumerate(self.blocks):
            h = c1.forward(x, bmap, train)
            h = batch_norm(octree_conv(nonempty(h, bmap), bmap, w2), bn2, train)
            x = ad.add_relu(x, nonempty(h, bmap), remade=i % 2 == 0 and i < last)
        return x


class MLPHead:
    """Shared 2-layer MLP applied per node (status prediction, regression).

    The hidden layer is ad.linear_relu's: in a taped forward it is remade
    in backward for the output layer's weight gradient, not kept.
    """

    def __init__(self, params, prefix, in_c, hidden, out_c, rng):
        self.w1 = params.create(f"{prefix}.w1", he_init(rng, hidden, in_c))
        self.b1 = params.create(f"{prefix}.b1", np.zeros((1, hidden)), decay=False)
        self.w2 = params.create(f"{prefix}.w2", he_init(rng, out_c, hidden))
        self.b2 = params.create(f"{prefix}.b2", np.zeros((1, out_c)), decay=False)

    def forward(self, x):
        h = ad.linear_relu(x, self.w1, self.b1)
        return ad.linear(h, self.w2, self.b2)
