"""Output-guided skip connections.

Encoder features are added to decoder features only at decoder nodes whose
parent was predicted nonempty and that are co-located with a (nonempty)
input octree node; everywhere else the encoder contribution is zero. The
mask carries no gradient, so encoder gradients are scaled by the rounded
parent status and nothing else.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DomainError
from .octree import find_in_sorted


@dataclass
class StatusMask:
    """Per-node status values at one decoder level: {0,1} or [0,1] if soft."""

    level: int
    s: np.ndarray

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=np.float64).reshape(-1)


def align_encoder_rows(encoder_octree, decoder_keys, level):
    """Per decoder key, the stored encoder row at `level`, -1 when absent.

    `encoder_octree` is an Octree or a network.OctreeBatch, whose keys carry
    the sample id that the decoder keys carry too. Encoder slots flagged
    empty count as absent (their features are padding).
    """
    lv = encoder_octree.levels[level]
    idx = find_in_sorted(lv.keys, np.asarray(decoder_keys, dtype=np.uint64))
    found = idx >= 0
    keep = np.zeros_like(found)
    keep[found] = lv.status[idx[found]] == 1
    idx[~keep] = -1
    return idx


def guided_skip_add(d_map, e_map, align_idx, parent_index, mask: StatusMask):
    """out(x) = D(x) + E(x) * S(parent(x)) over one decoder level.

    `align_idx` maps decoder rows to encoder rows (-1 -> zero row) and
    `parent_index` maps each decoder row to its parent row at the level of
    `mask`.
    """
    if d_map.channels != e_map.channels:
        raise DomainError("skip channel mismatch between encoder and decoder")
    align_idx = np.asarray(align_idx, dtype=np.int64)
    parent_index = np.asarray(parent_index, dtype=np.int64)
    if len(align_idx) != d_map.rows or len(parent_index) != d_map.rows:
        raise DomainError("skip index length mismatch")
    if mask.s.shape[0] <= parent_index.max(initial=-1):
        raise DomainError("status mask shorter than parent index range")
    row_mask_vals = mask.s[parent_index]
    e_rows = ad.row_gather(e_map, align_idx)
    return ad.add(d_map, ad.row_mask(e_rows, row_mask_vals))
