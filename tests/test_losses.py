"""Loss values against analytic/hand-computed oracles; metric oracles."""

import os

import numpy as np
import pytest
from scipy.spatial import cKDTree

from octcomplete import autodiff as ad
from octcomplete import data as dt
from octcomplete import evaluate, kernels, losses
from octcomplete.errors import DomainError
from octcomplete.losses import (
    chamfer_distance,
    completion_task_loss,
    iou,
    semantic_task_loss,
    structure_loss,
    total_loss,
)
from octcomplete.network import CompletionNet, NetworkSpec
from octcomplete.octree import PointSet

from conftest import numeric_grad


def test_structure_loss_at_zero_logits():
    logits = ad.constant(np.zeros((10, 1)))
    y = np.random.default_rng(0).integers(0, 2, size=10)
    loss = structure_loss(logits, y)
    assert abs(loss.values[0, 0] - np.log(2.0)) < 1e-7


def test_structure_loss_hand_value():
    z = np.array([[2.0], [-1.0]])
    y = np.array([1.0, 0.0])
    want = np.mean([np.log1p(np.exp(-2.0)), np.log1p(np.exp(-1.0))])
    loss = structure_loss(ad.constant(z), y)
    assert abs(loss.values[0, 0] - want) < 1e-12


def test_structure_loss_stable_at_extremes():
    z = np.array([[500.0], [-500.0]])
    loss = structure_loss(ad.constant(z), np.array([1.0, 0.0]))
    assert np.isfinite(loss.values[0, 0])
    assert loss.values[0, 0] < 1e-8


@pytest.mark.parametrize("seed", range(20))
def test_grad_structure_loss(seed):
    rng = np.random.default_rng(seed)
    zv = rng.normal(size=(6, 1))
    y = rng.integers(0, 2, size=6).astype(np.float64)
    z = ad.parameter(zv)
    with ad.Tape():
        ad.backward(structure_loss(z, y))
    want = numeric_grad(
        lambda: float(structure_loss(z, y).values[0, 0]), {"a": zv}, "a"
    )
    err = np.abs(z.grad - want) / np.maximum(np.abs(want), 1.0)
    assert err.max() < 1e-4


def test_completion_loss_hand_value():
    pred = ad.constant(np.array([[1.0, 0.0, 0.0, 0.5], [0.0, 1.0, 0.0, -0.5]]))
    target = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    # node 1: ||n-n*||^2 = 2, d^2 = 0.25; node 2: 0 + 0.25
    want = (2.25 + 0.25) / 2
    loss = completion_task_loss(pred, target)
    assert abs(loss.values[0, 0] - want) < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_grad_completion_loss(seed):
    rng = np.random.default_rng(seed)
    pv = rng.normal(size=(5, 4))
    target = rng.normal(size=(5, 4))
    p = ad.parameter(pv)
    with ad.Tape():
        ad.backward(completion_task_loss(p, target))
    want = numeric_grad(
        lambda: float(completion_task_loss(p, target).values[0, 0]), {"a": pv}, "a"
    )
    err = np.abs(p.grad - want) / np.maximum(np.abs(want), 1.0)
    assert err.max() < 1e-4


def test_semantic_loss_uniform_logits():
    k = 5
    logits = ad.constant(np.zeros((7, k)))
    labels = np.arange(7) % k
    loss = semantic_task_loss(logits, labels)
    assert abs(loss.values[0, 0] - np.log(k)) < 1e-7


@pytest.mark.parametrize("seed", range(20))
def test_grad_semantic_loss(seed):
    rng = np.random.default_rng(seed)
    zv = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    z = ad.parameter(zv)
    with ad.Tape():
        ad.backward(semantic_task_loss(z, labels))
    want = numeric_grad(
        lambda: float(semantic_task_loss(z, labels).values[0, 0]), {"a": zv}, "a"
    )
    err = np.abs(z.grad - want) / np.maximum(np.abs(want), 1.0)
    assert err.max() < 1e-4


def test_semantic_loss_label_range():
    with pytest.raises(DomainError):
        semantic_task_loss(ad.constant(np.zeros((2, 3))), np.array([0, 3]))


def test_total_loss_sums_levels():
    struct = {l: ad.constant(np.full((1, 1), 0.1 * l)) for l in range(3, 6)}
    task = ad.constant(np.full((1, 1), 2.0))
    loss, report = total_loss(struct, task, depth=5, w=1.0)
    want = 0.3 + 0.4 + 0.5 + 2.0
    assert abs(loss.values[0, 0] - want) < 1e-6
    assert report.task == pytest.approx(2.0)
    assert report.structure == {3: pytest.approx(0.3), 4: pytest.approx(0.4), 5: pytest.approx(0.5)}


def test_total_loss_missing_level():
    with pytest.raises(DomainError):
        total_loss({3: ad.constant(np.zeros((1, 1)))}, ad.constant(np.zeros((1, 1))), depth=5)


def brute_chamfer(a, b, scale, squared):
    a = a * scale
    b = b * scale
    d_ab = np.sqrt(((a[:, None] - b[None]) ** 2).sum(-1)).min(axis=1)
    d_ba = np.sqrt(((a[:, None] - b[None]) ** 2).sum(-1)).min(axis=0)
    if squared:
        return (d_ab**2).mean() + (d_ba**2).mean()
    return d_ab.mean() + d_ba.mean()


@pytest.mark.parametrize("squared", [False, True])
def test_chamfer_brute_force(squared, rng):
    a = rng.random((120, 3))
    b = rng.random((80, 3))
    got = chamfer_distance(a, b, squared=squared)
    want = brute_chamfer(a, b, 128.0, squared)
    assert got == pytest.approx(want, rel=1e-12)


def test_chamfer_identical_sets_zero(rng):
    a = rng.random((50, 3))
    assert chamfer_distance(a, a) == 0.0


def test_chamfer_accepts_pointsets(rng):
    pos = rng.random((30, 3))
    ps = PointSet(positions=pos, normals=np.tile((0.0, 0.0, 1.0), (30, 1)))
    assert chamfer_distance(ps, pos) == 0.0


def two_clouds(cloud, rng):
    """Two unit-box point sets: random, or a shuffled lattice and a
    lattice offset from it by half a step, which makes exact ties between
    nearest neighbors."""
    if cloud == "random":
        return rng.random((700, 3)), rng.random((500, 3))
    g = np.stack(np.meshgrid(*[np.arange(7.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
    return g[rng.permutation(len(g))] / 8, (g[::3] + 0.5) / 8


@pytest.mark.parametrize("k", [1, 17])
@pytest.mark.parametrize("cloud", ["random", "lattice"])
def test_kd_tree_queries_equal_scipy_spatials_bit_for_bit(cloud, k, rng):
    """kernels.kd_tree, with _cloud's options and with the defaults,
    answers k-nearest queries with the distances and indices of a
    scipy.spatial.cKDTree of the same options, bit for bit."""
    a, b = two_clouds(cloud, rng)
    pa, tree = losses._cloud(a)
    pb = b * losses.CHAMFER_SCALE
    pairs = [
        (tree, cKDTree(pa, balanced_tree=False, compact_nodes=False)),
        (kernels.kd_tree(pa), cKDTree(pa)),
    ]
    for got, want in pairs:
        (gd, gi), (wd, wi) = got.query(pb, k=k), want.query(pb, k=k)
        assert np.array_equal(gd, wd) and np.array_equal(gi, wi)


@pytest.mark.parametrize("squared", [False, True])
@pytest.mark.parametrize("cloud", ["random", "lattice"])
def test_chamfer_distances_equal_a_plain_tree_query(cloud, squared, rng):
    """_chamfer's per-point distances, queried in tree order on every CPU
    by a midpoint-split tree, equal a balanced tree's single-worker query
    in input order bit for bit, so the means do too; the lattice makes
    exact ties between nearest neighbors."""
    a, b = two_clouds(cloud, rng)
    ca, cb = losses._cloud(a), losses._cloud(b)
    pa, pb = a * 128.0, b * 128.0
    da = cKDTree(pb).query(pa, workers=1)[0]
    db = cKDTree(pa).query(pb, workers=1)[0]
    assert np.array_equal(losses._nearest(cb[1], pa, ca[1].indices), da)
    assert np.array_equal(losses._nearest(ca[1], pb, cb[1].indices), db)
    if squared:
        want = float((da**2).mean() + (db**2).mean())
    else:
        want = float(da.mean() + db.mean())
    assert losses._chamfer(ca, cb, squared) == want


def test_chamfer_without_cpu_affinity(monkeypatch, rng):
    """Where os has no sched_getaffinity (macOS, Windows), the tree queries
    run on os.cpu_count() workers and every score equals the affinity
    path's."""
    complete = dt.make_shape("sphere", density=2500, seed=0)
    partial = dt.virtual_scan(complete, dt.ScanConfig(num_views=2, seed=0))
    a, b = rng.random((700, 3)), rng.random((500, 3))
    want = [
        chamfer_distance(a, b),
        chamfer_distance(a, b, squared=True),
        evaluate.identity_baseline(partial, complete),
    ]
    monkeypatch.delattr(os, "sched_getaffinity")
    assert losses._cpus() == (os.cpu_count() or 1)
    got = [
        chamfer_distance(a, b),
        chamfer_distance(a, b, squared=True),
        evaluate.identity_baseline(partial, complete),
    ]
    assert got == want


def test_chamfer_empty_error():
    with pytest.raises(DomainError):
        chamfer_distance(np.zeros((0, 3)), np.ones((3, 3)))


def test_eval_completion_sample_shares_the_complete_clouds_tree(monkeypatch):
    """The raw scan and the completion are both scored against one k-d tree
    of the complete cloud (three trees built through kernels.kd_tree), and
    both scores equal separate chamfer_distance calls bit for bit."""
    spec = NetworkSpec(input_depth=4, output_depth=4, n_res=1, c0=8, c_max=16, hidden=8)
    net = CompletionNet(spec, seed=3)
    complete = dt.make_shape("sphere", density=2500, seed=0)
    partial = dt.virtual_scan(complete, dt.ScanConfig(num_views=2, seed=0))
    built = []

    kd_tree = kernels.kd_tree

    def counted_tree(points, **options):
        built.append(len(points))
        return kd_tree(points, **options)

    monkeypatch.setattr(kernels, "kd_tree", counted_tree)
    metrics, pred = evaluate.eval_completion_sample(net, partial, complete)
    assert pred is not None
    assert built == [len(complete.positions), len(partial.positions), len(pred.positions)]
    monkeypatch.undo()
    assert metrics["baseline"] == chamfer_distance(partial, complete)
    assert metrics["baseline"] == evaluate.identity_baseline(partial, complete)
    assert metrics["chamfer"] == chamfer_distance(pred, complete)


def test_eval_completion_samples_pair_i_with_seed_i():
    """eval_completion's row i is eval_completion_sample's metrics at
    seed i, and the mean chamfer is the rows' mean; at one seed for every
    pair the rows would differ, as the sampled points do."""
    spec = NetworkSpec(input_depth=4, output_depth=4, n_res=1, c0=8, c_max=16, hidden=8)
    net = CompletionNet(spec, seed=3)
    complete = dt.make_shape("sphere", density=2500, seed=0)
    partial = dt.virtual_scan(complete, dt.ScanConfig(num_views=2, seed=0))
    report = evaluate.eval_completion(net, [(partial, complete)] * 2)
    rows = [evaluate.eval_completion_sample(net, partial, complete, seed=i)[0] for i in (0, 1)]
    assert report["per_sample"] == rows
    assert rows[0]["chamfer"] != rows[1]["chamfer"]
    assert report["chamfer"] == float(np.mean([r["chamfer"] for r in rows]))


def test_iou_counting_oracle(rng):
    pred = rng.integers(-1, 3, size=(8, 8, 8))
    gt = rng.integers(-1, 3, size=(8, 8, 8))
    got = iou(pred, gt)
    for k in range(3):
        inter = ((pred == k) & (gt == k)).sum()
        union = ((pred == k) | (gt == k)).sum()
        if union:
            assert got["per_class"][k] == pytest.approx(inter / union)
    occ_p, occ_g = pred >= 0, gt >= 0
    assert got["completion_iou"] == pytest.approx(
        (occ_p & occ_g).sum() / (occ_p | occ_g).sum()
    )
    assert got["completion_precision"] == pytest.approx(
        (occ_p & occ_g).sum() / occ_p.sum()
    )


def test_iou_identical_grids(rng):
    g = rng.integers(-1, 4, size=(6, 6, 6))
    got = iou(g, g)
    assert got["mean_iou"] == 1.0
    assert got["completion_recall"] == 1.0


def test_iou_ignores_absent_classes():
    pred = np.full((4, 4, 4), -1)
    gt = np.full((4, 4, 4), -1)
    pred[0, 0, 0] = 2
    gt[0, 0, 0] = 2
    got = iou(pred, gt)
    assert got["per_class"] == {2: 1.0}
    assert got["mean_iou"] == 1.0
