import gc

import numpy as np
import pytest

from octcomplete import autodiff as ad
from octcomplete import nn
from octcomplete.network import CompletionNet
from octcomplete.octree import _CHILD_SLOT, _PARENT_TAP, child_rows, find_in_sorted, neighbor_table


def numeric_grad(f, arrays, which, h=1e-5):
    """Central finite differences of scalar f w.r.t. arrays[which]."""
    a = arrays[which]
    g = np.zeros_like(a)
    it = np.nditer(a, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = a[i]
        a[i] = orig + h
        fp = f()
        a[i] = orig - h
        fm = f()
        a[i] = orig
        g[i] = (fp - fm) / (2 * h)
    return g


def check_grads(build, arrays, rtol=1e-4, h=1e-5):
    """Compare taped gradients against central differences.

    `build` runs the op and returns the scalar loss FeatureMap; `arrays` maps
    name -> float64 ndarray that `build` reads through ad.parameter wrappers
    created by the caller. The caller passes the same FeatureMap objects each
    call so edits to `arrays` values are visible.
    """
    with ad.Tape():
        loss = build()
        ad.backward(loss)
    for name, (fm, arr) in arrays.items():
        got = fm.grad
        assert got is not None, f"no gradient for {name}"
        want = numeric_grad(lambda: float(build().values[0, 0]), {name: arr}, name, h=h)
        denom = np.maximum(np.abs(want), 1.0)
        err = np.abs(got - want) / denom
        assert err.max() < rtol, f"{name}: max rel err {err.max():.2e}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def collector_off():
    """Run the test with the cyclic collector off, so garbage that only the
    collector can free stays countable by `gc.collect()`; restored after."""
    was_on = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if was_on:
        gc.enable()


class _Float64Parameters(nn.Parameters):
    def __init__(self):
        super().__init__(np.float64)


def float64_net(spec, seed=0):
    """A CompletionNet(spec, seed) whose parameters are float64, so that
    every op of its forward and backward runs in float64: the net is built
    with nn.Parameters swapped for a float64 store, the same weights drawn
    and cast to float64 rather than float32."""
    made = nn.Parameters
    nn.Parameters = _Float64Parameters
    try:
        return CompletionNet(spec, seed)
    finally:
        nn.Parameters = made


def nbr_table(octree, level):
    """The search oracle's (rows, 27) neighbor table of an Octree's `level`."""
    lv = octree.levels[level]
    return neighbor_table(lv.keys, lv.status, level)


def table_pairs(table):
    """The per-tap (out, in) pairs of a (rows, taps) neighbor table, in row
    order: the form octree.child_pairs derives."""
    return [(np.flatnonzero(col >= 0), col[col >= 0]) for col in table.T]


def conv_oracle(xv, wv, table, g):
    """The 3x3x3 convolution over a level's (rows, 27) neighbor table pair
    by pair, scattered with np.add.at: the output for input xv and weight
    wv, and the input and weight gradients for the output gradient g."""
    w = wv.reshape(wv.shape[0], 27, -1)
    out = np.zeros((len(table), w.shape[0]), dtype=xv.dtype)
    gx, gw = np.zeros_like(xv), np.empty_like(w)
    for t, (o, i) in enumerate(table_pairs(table)):
        np.add.at(out, o, xv[i] @ w[:, t].T)
        np.add.at(gx, i, g[o] @ w[:, t])
        gw[:, t] = g[o].T @ xv[i]
    return out, gx, gw.reshape(wv.shape)


def assert_pairs_match_table(pairs, table):
    """Tap by tap, `pairs` hold exactly the (out, in) pairs of `table`."""
    assert len(pairs) == table.shape[1]
    for t, ((o, i), (want_o, want_i)) in enumerate(zip(pairs, table_pairs(table))):
        assert len(o) == len(i) == len(want_o), f"tap {t}"
        got = np.unique(np.stack([o, i], axis=1).astype(np.int64), axis=0)
        assert np.array_equal(got, np.stack([want_o, want_i], axis=1)), f"tap {t}"


def root_table(status):
    """(B, 27) neighbor table of B roots with `status`: a nonempty root's
    only neighbor is itself, at the center tap 13."""
    out = np.full((27, len(status)), -1, dtype=np.int64)
    out[13] = np.where(status == 1, np.arange(len(status)), -1)
    return out.T


def child_neighbor_table(level, table, next_status=None):
    """The next level's (rows, 27) neighbor table from `level`'s `table`,
    through the (slot, tap) lookup over all 27 x rows entries, masked as
    octree.child_rows is: the table form of octree.child_pairs' rule."""
    parent_nbrs = table.T[:, level.child_start >= 0]  # (27, parents), child block order
    # [tap, parent, slot]: the parent's neighbor at the slot's parent tap
    nbrs = parent_nbrs[_PARENT_TAP.T].transpose(0, 2, 1)
    out = child_rows(level, nbrs, _CHILD_SLOT.T[:, None, :], next_status)
    return out.reshape(27, -1).T


def align_encoder_rows(encoder_octree, decoder_keys, level):
    """The search oracle's encoder row of each decoder key at `level`, -1
    when absent.

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


def child_table(octree, level):
    """(rows, 8) indices into level + 1 for each stored node at `level`.

    Empty children and children of empty nodes are -1. This is the oracle
    of the full-sibling block layout that downsample and max_pool read
    directly; it works on an Octree and on an OctreeBatch alike.
    """
    lv = octree.levels[level]
    nxt = octree.levels[level + 1]
    tab = np.full((lv.num_nodes, 8), -1, dtype=np.int64)
    has = lv.child_start >= 0
    tab[has] = lv.child_start[has, None] + np.arange(8)[None, :]
    flat = tab.ravel()
    ok = flat >= 0
    drop = np.zeros_like(ok)
    drop[ok] = nxt.status[flat[ok]] == 0
    flat[drop] = -1
    return tab
