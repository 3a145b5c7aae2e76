"""Whole-network gradients: ad.backward of a training loss against central
differences, in float64, on tiny nets.

Each op has its own finite-difference or oracle test; this one checks how
they compose in a taped train step: the recipes, the row move onto a
level's nonempty rows, the guided skip, the scene head, and values freed
before backward. Trainer.step gives the gradients, its update switched
off; the differences come from forward runs of the same loss.
"""

import numpy as np
import pytest

from octcomplete import cli, train
from octcomplete.losses import (
    completion_task_loss,
    semantic_task_loss,
    structure_loss,
    total_loss,
)
from octcomplete.network import NetworkSpec, OctreeBatch

from conftest import float64_net

# The central-difference step, along one unit direction per group. A
# train loss of 4 to 20 rounds by about 1e-15 relative in float64, so the
# quotient carries about 1e-7 of absolute noise at this step; along a unit
# direction the pre-activations move by about H, so a ReLU kink between
# the two runs, whose error is the step's own share of the loss, is rare.
H = 1e-7

# A group whose two derivatives are both below this is skipped: the
# quotient's rounding noise, about 1e-7, would be 1e-3 of it.
FLOOR = 1e-4

# Bound on |fd - ad| / max(|fd|, |ad|) per group, by stage. The worst
# errors measured over the five cases (2-core x86, OpenBLAS) were 1.4e-6
# (encoder), 1.6e-5 (decoder, a level of the scene net) and 8.9e-8 (scene
# head), against 2e-2 and more where a recipe returned its rows reversed.
TOLERANCE = {"enc": 2e-5, "dec": 1e-4, "head": 1e-5}


def shape_samples(spec):
    pairs = [cli.make_shape_pair(seed, views=2, density=3000) for seed in (0, 1)]
    return [train.prepare_sample(p, spec) for p in pairs]


def scene_samples(spec):
    return [train.prepare_sample(cli.make_scene_pair(0, views=2), spec)]


CASES = {
    "shape-nres0-guided": (dict(n_res=0, skip_mode="guided"), shape_samples),
    "shape-nres0-off": (dict(n_res=0, skip_mode="off"), shape_samples),
    "shape-nres2-guided": (dict(n_res=2, skip_mode="guided"), shape_samples),
    "shape-nres2-off": (dict(n_res=2, skip_mode="off"), shape_samples),
    "scene": (
        dict(input_depth=8, output_depth=6, n_res=1, scene_head=True, task="semantic", num_classes=4),
        scene_samples,
    ),
}


def loss_value(net, samples, cfg):
    """Trainer.step's loss over `samples`, forward only."""
    spec = net.spec
    ib = OctreeBatch([s.partial for s in samples])
    gb = OctreeBatch([s.gt for s in samples])
    code, feats = net.encode(ib, train=True)
    res = net.decode(code, ib, feats, gt_batch=gb, train=True)
    struct = {l: structure_loss(res.logits[l], res.gt_status[l]) for l in res.logits}
    d = spec.output_depth
    targets = train._head_targets(samples, gb, res.state.gt_rows[d][res.head_rows], spec.task)
    task_loss = completion_task_loss if spec.task == "completion" else semantic_task_loss
    _, report = total_loss(
        struct, task_loss(res.head_out, targets), d, w=cfg.task_weight, start_level=spec.coarsest + 1
    )
    return report.total


def groups(net):
    """The trainable parameters grouped by stage (the scene head, the
    encoder, the decoder) and level, the encoder's lift and the decoder's
    output head on their own."""
    out = {}
    for name in net.params.names():
        if net.params.meta[name]["trainable"]:
            stage, layer = name.split(".")[:2]
            level = layer.lstrip("abcdefghijklmnopqrstuvwxyz")
            out.setdefault(f"{stage}.{level or layer}", []).append(name)
    return out


@pytest.mark.parametrize("case", list(CASES))
def test_train_step_gradients_match_central_differences(case, monkeypatch):
    """Every group's directional derivative along a random unit direction:
    ad.backward's, from a Trainer.step whose update does nothing, against
    the central difference of the loss at step H, within TOLERANCE of its
    kind; MLP biases (zero at init) are moved off zero, so that no hidden
    unit and no status logit sits at exactly zero, where a ReLU or the
    guided skip's status threshold has a kink or a jump."""
    over, make_samples = CASES[case]
    spec = NetworkSpec(**{**dict(input_depth=5, output_depth=5, c0=4, c_max=8, hidden=4), **over})
    net = float64_net(spec, seed=1)
    rng = np.random.default_rng(7)
    for name in net.params.names():
        if name.rsplit(".", 1)[-1] in ("b1", "b2"):
            net.params[name].values[...] = 0.1 * rng.normal(size=net.params[name].values.shape)
    assert {fm.values.dtype for fm in net.params.store.values()} == {np.dtype(np.float64)}
    samples = make_samples(spec)
    cfg = train.TrainConfig()
    trainer = train.Trainer(net, cfg, samples)
    monkeypatch.setattr(trainer.opt, "step", lambda lr: None)
    report = trainer.step(list(range(len(samples))), lr=0.0)
    assert loss_value(net, samples, cfg) == report.total

    skipped, errors = [], {}
    for key, names in groups(net).items():
        params = [net.params[n] for n in names]
        assert all(p.grad is not None for p in params), key
        v = [rng.normal(size=p.values.shape) for p in params]
        norm = np.sqrt(sum(np.vdot(d, d) for d in v))
        v = [d / norm for d in v]
        got = sum(float(np.vdot(p.grad, d)) for p, d in zip(params, v))
        sides = []
        for sign in (1.0, -1.0):
            for p, d in zip(params, v):
                p.values += sign * H * d
            sides.append(loss_value(net, samples, cfg))
            for p, d in zip(params, v):
                p.values -= sign * H * d
        want = (sides[0] - sides[1]) / (2 * H)
        scale = max(abs(got), abs(want))
        if scale < FLOOR:
            skipped.append(key)
        else:
            errors[key] = abs(got - want) / scale
    assert len(skipped) <= 1, skipped
    assert {k: e for k, e in errors.items() if e > TOLERANCE[k.split(".")[0]]} == {}, errors
