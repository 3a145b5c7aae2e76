import numpy as np
import pytest

from octcomplete import autodiff as ad
from octcomplete.octree import neighbor_table


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


def nbr_table(octree, level):
    """The search oracle's (rows, 27) neighbor table of an Octree's `level`."""
    lv = octree.levels[level]
    return neighbor_table(lv.keys, lv.status, level)


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
