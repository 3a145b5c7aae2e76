"""Optimizer arithmetic, schedules, checkpoint resume, config round-trips."""

import gc
import os
import subprocess
import sys
import time
import weakref

import numpy as np
import pytest

from octcomplete import data as dt
from octcomplete import train
from octcomplete.errors import NumericalError
from octcomplete.network import CompletionNet, NetworkSpec, OctreeBatch
from octcomplete.nn import Parameters
from octcomplete.octree import find_in_sorted
from octcomplete.train import (
    SGD,
    TrainConfig,
    Trainer,
    _head_targets,
    lr_at_epoch,
    net_from_checkpoint,
    prepare_sample,
    spec_config_values,
    spec_from_config_values,
)


BENCH_WEIGHTS = os.path.join(
    os.path.dirname(__file__), os.pardir, "perfbench", "weights", "shape_d5.ockp"
)


def test_committed_benchmark_weights_load():
    """The infer-shape benchmark's weights match the network's parameter
    names and shapes, so a renamed or reshaped parameter fails here too."""
    net, ck = net_from_checkpoint(BENCH_WEIGHTS)
    stored = {k for k in ck["arrays"] if not k.startswith("opt.")}
    assert stored == set(net.params.names())
    assert net.spec.task == "completion" and net.spec.input_depth == 5


def one_param(value, decay=True):
    params = Parameters(dtype=np.float64)
    fm = params.create("w", np.array([[value]]), decay=decay)
    return params, fm


def test_sgd_single_step_hand_value():
    # w=1, g=0, lr=0.1, wd=5e-4, no momentum: w <- 1 - 0.1*5e-4 = 0.99995
    params, fm = one_param(1.0)
    opt = SGD(params, TrainConfig(momentum=0.0))
    fm.grad = np.zeros((1, 1))
    opt.step(0.1)
    assert fm.values[0, 0] == pytest.approx(0.99995, abs=1e-12)


def test_sgd_momentum_two_step_recurrence():
    cfg = TrainConfig(momentum=0.9, weight_decay=0.0)
    params, fm = one_param(0.0)
    opt = SGD(params, cfg)
    for g in (1.0, 2.0):
        fm.grad = np.array([[g]])
        opt.step(0.1)
    # v1 = 1; w1 = -0.1.  v2 = 0.9*1 + 2 = 2.9; w2 = -0.1 - 0.29 = -0.39
    assert fm.values[0, 0] == pytest.approx(-0.39, abs=1e-12)
    assert opt.velocity["w"][0, 0] == pytest.approx(2.9, abs=1e-12)


def test_sgd_decay_flag_skips_weight_decay():
    params, fm = one_param(2.0, decay=False)
    opt = SGD(params, TrainConfig(momentum=0.0))
    fm.grad = np.zeros((1, 1))
    opt.step(0.1)
    assert fm.values[0, 0] == 2.0


def test_sgd_missing_grad_treated_as_zero():
    params, fm = one_param(1.0, decay=False)
    opt = SGD(params, TrainConfig())
    opt.step(0.1)
    assert fm.values[0, 0] == 1.0


def test_sgd_nonfinite_grad_raises():
    params, fm = one_param(1.0)
    opt = SGD(params, TrainConfig())
    fm.grad = np.array([[np.nan]])
    with pytest.raises(NumericalError):
        opt.step(0.1)


def test_lr_step_schedule():
    cfg = TrainConfig(lr=0.1, lr_drop_epochs=(6, 12, 18), lr_drop_factor=10.0)
    assert lr_at_epoch(cfg, 0) == pytest.approx(0.1)
    assert lr_at_epoch(cfg, 5) == pytest.approx(0.1)
    assert lr_at_epoch(cfg, 6) == pytest.approx(0.01)
    assert lr_at_epoch(cfg, 12) == pytest.approx(0.001)
    assert lr_at_epoch(cfg, 19) == pytest.approx(0.0001)


def test_train_config_roundtrip():
    cfg = TrainConfig(epochs=3, lr=0.05, lr_drop_epochs=(2,), shuffle=False)
    d = {k: str(v) for k, v in cfg.to_dict().items()}
    assert TrainConfig.from_dict(d) == cfg


def test_spec_config_roundtrip():
    spec = NetworkSpec(
        input_depth=5, output_depth=5, n_res=1, c0=8, c_max=16, hidden=8
    )
    values = {k: str(v) for k, v in spec_config_values(spec).items()}
    assert spec_from_config_values(values) == spec


def tiny_setup(n_samples=2):
    spec = NetworkSpec(input_depth=4, output_depth=4, n_res=0, c0=4, c_max=8, hidden=4)
    net = CompletionNet(spec, seed=0)
    samples = []
    for i in range(n_samples):
        shape = dt.make_shape("sphere", density=1200, seed=i)
        scan = dt.virtual_scan(shape, dt.ScanConfig(num_views=2, seed=i))
        samples.append(prepare_sample(dt.SamplePair(scan, shape), spec))
    return spec, net, samples


def test_step_decreases_loss_and_reports():
    spec, net, samples = tiny_setup()
    cfg = TrainConfig(lr=0.05, batch_size=2, epochs=1, shuffle=False)
    tr = Trainer(net, cfg, samples)
    first = tr.step(np.arange(2), 0.05)
    for _ in range(4):
        last = tr.step(np.arange(2), 0.05)
    assert last.total < first.total
    assert set(last.metrics["status_accuracy"]) == {3, 4}
    assert last.structure.keys() == {3, 4}


IMPORT_CHECK = """
import sys

import numpy as np

import octcomplete.cli, octcomplete.evaluate, octcomplete.train
from octcomplete import data as dt, kernels, losses
from octcomplete.network import CompletionNet, NetworkSpec
from octcomplete.train import TrainConfig, Trainer, prepare_sample

spec = NetworkSpec(input_depth=4, output_depth=4, n_res=0, c0=4, c_max=8, hidden=4)
shape = dt.make_shape("sphere", density=1200, seed=0)
scan = dt.virtual_scan(shape, dt.ScanConfig(num_views=2, seed=0))
samples = [prepare_sample(dt.SamplePair(scan, shape), spec)]
Trainer(CompletionNet(spec, seed=0), TrainConfig(lr=0.01, batch_size=1), samples).step([0], 0.01)
tree_free = ("scipy.spatial", "scipy.linalg", "scipy.special")
for name in tree_free + ("scipy.sparse",):
    assert name not in sys.modules, f"{name} loaded by import or by a train step"
assert kernels._ckdtree is None, "the k-d tree module loaded by import or by a train step"

built, kd_tree = [], kernels.kd_tree
kernels.kd_tree = lambda points, **options: built.append(len(points)) or kd_tree(points, **options)
losses.chamfer_distance(scan, shape)
assert built == [len(scan), len(shape)], "chamfer_distance built no k-d tree"
dt.add_noise(scan, dt.ScanConfig(noise_std_fraction=0.01, seed=0))  # estimate_normals
assert built[2:] == [len(scan)], "add_noise built no k-d tree"
for name in tree_free:
    assert name not in sys.modules, f"{name} loaded by a k-d tree"

from scipy.spatial import cKDTree

p = np.random.default_rng(0).random((500, 3))
got, want = kd_tree(p).query(p, k=5), cKDTree(p).query(p, k=5)
assert all(np.array_equal(g, w) for g, w in zip(got, want)), "trees differ"
"""


def test_training_does_not_load_the_kd_tree_library():
    """Importing the CLI, training and evaluation modules and running a
    teacher-forced step leave scipy.sparse, scipy.spatial, scipy.linalg and
    scipy.special unloaded and load no k-d tree module (the convolutions
    load scipy's compiled row-add extension alone). The k-d trees of
    chamfer_distance and of add_noise's estimate_normals load scipy's
    compiled tree module from its file, still without scipy.spatial,
    scipy.linalg or scipy.special; scipy.spatial imported after it gives
    the same query results bit for bit."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_CHECK], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_failed_step_leaves_no_cyclic_garbage(monkeypatch, collector_off):
    """A step that raises inside its tape leaves no graph for the cyclic
    collector: the tape and every activation it recorded die with the step."""
    _, net, samples = tiny_setup()
    tr = Trainer(net, TrainConfig(lr=0.01, batch_size=2), samples)
    total_loss = train.total_loss

    def nan_total(*args, **kwargs):
        loss, report = total_loss(*args, **kwargs)
        report.total = float("nan")
        return loss, report

    monkeypatch.setattr(train, "total_loss", nan_total)
    # a failed earlier test can leave cyclic garbage after the fixture's
    # collection; only what the step leaves is counted
    gc.collect()
    with pytest.raises(NumericalError, match="non-finite loss"):
        tr.step(np.arange(2), 0.01)
    assert gc.collect() == 0


def test_step_frees_batches_and_decoder_state_before_backward(monkeypatch, collector_off):
    """No backward reads the octree batches' levels or tap pairs, nor the
    decoder state: both batches are freed by the time backward runs, and
    the step still reports every level's status accuracy."""
    _, net, samples = tiny_setup()
    tr = Trainer(net, TrainConfig(lr=0.01, batch_size=2), samples)
    batches, alive = [], []

    def batch_spy(octrees):
        b = OctreeBatch(octrees)
        batches.append(weakref.ref(b))
        return b

    def backward_spy(loss):
        alive.extend(r for r in batches if r() is not None)
        return backward(loss)

    backward = train.ad.backward
    monkeypatch.setattr(train, "OctreeBatch", batch_spy)
    monkeypatch.setattr(train.ad, "backward", backward_spy)
    report = tr.step(np.arange(2), 0.01)
    assert len(batches) == 2 and alive == []
    assert set(report.metrics["status_accuracy"]) == {3, 4}


@pytest.mark.parametrize("task", ["completion", "semantic"])
def test_head_targets_follow_each_sample(task):
    """Batched head targets against a lookup in each key's own sample."""
    spec = NetworkSpec(input_depth=4, output_depth=4, task=task, num_classes=4)
    samples = []
    for i in range(3):
        if task == "completion":
            points = dt.make_shape(("sphere", "box", "cylinder")[i], density=1200, seed=i)
        else:
            points, _ = dt.make_scene(dt.SceneConfig(seed=i))
        scan = dt.virtual_scan(points, dt.ScanConfig(num_views=2, seed=i))
        samples.append(prepare_sample(dt.SamplePair(scan, points), spec))
    gt_batch = OctreeBatch([s.gt for s in samples])
    lv = gt_batch.levels[4]
    keys = np.random.default_rng(0).permutation(lv.keys[lv.status == 1])
    got = _head_targets(samples, gt_batch, find_in_sorted(lv.keys, keys), task)
    for key, value in zip(keys, got):
        b, cell = int(key) >> 12, int(key) & 0xFFF  # the id sits above level 4's 12 bits
        own = samples[b].gt.levels[4]
        row = int(np.searchsorted(own.keys, cell))
        assert own.keys[row] == cell and own.status[row] == 1
        if task == "completion":
            assert np.array_equal(value, samples[b].targets[int(own.status[:row].sum())])
        else:
            assert value == samples[b].labels[row]


def test_checkpoint_roundtrip_bitwise(tmp_path):
    spec, net, samples = tiny_setup()
    cfg = TrainConfig(lr=0.05, batch_size=2, epochs=1, shuffle=False)
    tr = Trainer(net, cfg, samples)
    tr.step(np.arange(2), 0.05)
    tr.epoch = 1
    values = {**spec_config_values(spec), **cfg.to_dict()}
    path = tmp_path / "ck.ockp"
    tr.save(path, values)

    net2 = CompletionNet(spec, seed=99)
    tr2 = Trainer(net2, cfg, samples)
    tr2.load(path, expect_config=values)
    assert tr2.epoch == 1
    for name, fm in net.params.store.items():
        assert net2.params.store[name].values.tobytes() == fm.values.tobytes()
    for name, v in tr.opt.velocity.items():
        assert tr2.opt.velocity[name].tobytes() == v.tobytes()


def test_checkpoint_config_guard(tmp_path):
    spec, net, samples = tiny_setup()
    cfg = TrainConfig(epochs=1)
    tr = Trainer(net, cfg, samples)
    path = tmp_path / "ck.ockp"
    tr.save(path, {"a": "1"})
    from octcomplete.fileio import DataError

    with pytest.raises(DataError):
        tr.load(path, expect_config={"a": "2"})


def test_resume_matches_straight_run(tmp_path):
    # two epochs in one go must equal one epoch, save, load, one more epoch
    cfg = TrainConfig(lr=0.05, batch_size=2, epochs=2, shuffle=True, seed=5)
    values = {"run": "resume-test"}

    spec, net_a, samples = tiny_setup()
    tr_a = Trainer(net_a, cfg, samples)
    tr_a.run()

    _, net_b, _ = tiny_setup()
    cfg_one = TrainConfig(lr=0.05, batch_size=2, epochs=1, shuffle=True, seed=5)
    tr_b = Trainer(net_b, cfg_one, samples)
    tr_b.run(checkpoint_path=tmp_path / "ck.ockp", config_values=values)

    _, net_c, _ = tiny_setup()
    tr_c = Trainer(net_c, cfg, samples)
    tr_c.load(tmp_path / "ck.ockp", expect_config=values)
    assert tr_c.epoch == 1
    tr_c.run()

    for name, fm in net_a.params.store.items():
        assert np.array_equal(net_c.params.store[name].values, fm.values), name


def test_net_from_checkpoint(tmp_path):
    spec, net, samples = tiny_setup()
    cfg = TrainConfig(epochs=1)
    tr = Trainer(net, cfg, samples)
    path = tmp_path / "ck.ockp"
    tr.save(path, {**spec_config_values(spec), **cfg.to_dict()})
    net2, ck = net_from_checkpoint(path)
    assert net2.spec == spec
    for name, fm in net.params.store.items():
        assert np.array_equal(net2.params.store[name].values, fm.values)


def test_run_history_keeps_status_accuracy_and_step_time():
    spec, net, samples = tiny_setup()
    cfg = TrainConfig(lr=0.01, batch_size=1, epochs=2, shuffle=False)
    tr = Trainer(net, cfg, samples)
    reports = []
    step = tr.step

    def recording_step(idx, lr):
        reports.append(step(idx, lr))
        return reports[-1]

    tr.step = recording_step
    t0 = time.perf_counter()
    history = tr.run()
    wall = time.perf_counter() - t0
    # 2 samples at batch 1: two steps per epoch
    assert len(history) == 2 and len(reports) == 4
    for entry, epoch_reports in zip(history, (reports[:2], reports[2:])):
        accs = [r.metrics["status_accuracy"] for r in epoch_reports]
        assert entry["status_accuracy"] == {
            l: float(np.mean([a[l] for a in accs])) for l in (3, 4)
        }
        assert 0 < entry["step_s"]
    assert 2 * sum(entry["step_s"] for entry in history) <= wall


def test_max_steps_caps_run():
    spec, net, samples = tiny_setup()
    cfg = TrainConfig(lr=0.01, batch_size=1, epochs=10, max_steps=3, shuffle=False)
    tr = Trainer(net, cfg, samples)
    logs = []
    tr.run(log=logs.append)
    # 2 samples per epoch at batch 1: the cap lands mid-epoch 2
    assert tr.epoch == 2
