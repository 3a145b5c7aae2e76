"""Output-guided skip connections.

Encoder features are added to decoder features only at decoder nodes whose
parent was predicted nonempty and that are co-located with a (nonempty)
input octree node; everywhere else the encoder contribution is zero. The
mask carries no gradient: an encoder row gets the gradient of the decoder
row it was added to, or zero.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DomainError
from .octree import find_in_sorted  # not called here; perfbench/spans.py probes skip.find_in_sorted


@dataclass
class StatusMask:
    """Per-node status values at one decoder level, each 0 or 1."""

    s: np.ndarray

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=np.float64).reshape(-1)


def guided_skip_add(d_map, e_map, align_idx, parent_index, mask: StatusMask):
    """out(x) = D(x) + E(x) * S(parent(x)) over one decoder level.

    `align_idx` maps decoder rows to rows of `e_map` (-1 -> zero row) and
    `parent_index` maps each decoder row to its parent row at the level of
    `mask`. The network's `e_map` is the encoder level's nonempty rows, as
    encode keeps them (nn.nonempty), and `align_idx` their positions there
    (OctreeBatch.nonempty_index): an empty encoder row is never added. The
    encoder rows named must be distinct, as those of distinct decoder keys
    are: backward assigns their gradient rows. Backward reads no values,
    and a taped output carries a recipe over the inputs' readers, so the
    ops that read it remake it in backward.
    """
    if d_map.channels != e_map.channels:
        raise DomainError("skip channel mismatch between encoder and decoder")
    align_idx = np.asarray(align_idx, dtype=np.int64)
    parent_index = np.asarray(parent_index, dtype=np.int64)
    if len(align_idx) != d_map.rows or len(parent_index) != d_map.rows:
        raise DomainError("skip index length mismatch")
    if mask.s.shape[0] <= parent_index.max(initial=-1):
        raise DomainError("status mask shorter than parent index range")
    open_rows = np.flatnonzero((align_idx >= 0) & (mask.s[parent_index] != 0))
    e_rows = align_idx[open_rows]
    out = d_map.values.copy()
    out[open_rows] += e_map.values[e_rows]
    e_shape, e_dtype = e_map.values.shape, e_map.values.dtype

    read_d, read_e = ad.reader(d_map), ad.reader(e_map)
    fresh = ad.remade(d_map)  # then each read of d_map is a new array

    def back(g):
        ge = np.zeros(e_shape, e_dtype)
        ge[e_rows] = g[open_rows]
        return g, ge

    def remake(rows=None):
        v = read_d() if fresh else read_d().copy()
        v[open_rows] += read_e(e_rows)
        return v if rows is None else np.take(v, rows, axis=0)

    return ad.custom_op(out, [d_map, e_map], back, level=d_map.level, remake=remake)
