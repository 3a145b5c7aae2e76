"""SGD training loop with teacher forcing, checkpoints and resume."""

import time
from dataclasses import dataclass, fields
from typing import Dict, List, Optional

import numpy as np

from . import autodiff as ad
from . import fileio
from .data import SamplePair, plane_fit_targets
from .errors import DomainError, NumericalError
from .losses import (
    completion_task_loss,
    semantic_task_loss,
    structure_loss,
    total_loss,
)
from .network import CompletionNet, NetworkSpec, OctreeBatch
from .octree import (
    build_octree,
    find_in_sorted,  # not called here; perfbench/spans.py probes train.find_in_sorted
    majority_labels,
)


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 8
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_drop_epochs: tuple = (6, 12, 18)
    lr_drop_factor: float = 10.0
    task_weight: float = 1.0
    seed: int = 0
    shuffle: bool = True
    max_steps: int = 0          # 0 means no cap
    log_every: int = 10

    def validate(self):
        for name, low in (
            ("batch_size", 1), ("log_every", 1), ("epochs", 0), ("max_steps", 0), ("seed", 0)
        ):
            if getattr(self, name) < low:
                raise DomainError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("lr", "lr_drop_factor"):
            if not 0 < getattr(self, name) < np.inf:
                raise DomainError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        for name in ("weight_decay", "task_weight"):
            if not 0 <= getattr(self, name) < np.inf:
                raise DomainError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if not 0 <= self.momentum < 1:
            raise DomainError(f"momentum must be in [0, 1), got {self.momentum}")

    def to_dict(self):
        d = dict(self.__dict__)
        d["lr_drop_epochs"] = ",".join(str(e) for e in self.lr_drop_epochs)
        return d

    @classmethod
    def from_dict(cls, d, prefix=""):
        return cls(**parse_fields(cls, d, prefix))


def _parse_bool(v):
    if str(v) not in ("True", "true", "1", "False", "false", "0"):
        raise ValueError(f"{v!r} is not one of True, true, 1, False, false, 0")
    return str(v) in ("True", "true", "1")


def _parse_ints(v):
    """Comma-separated integers, as TrainConfig.to_dict writes lr_drop_epochs."""
    return tuple(int(x) for x in str(v).split(",") if x != "")


_PARSERS = {int: int, float: float, bool: _parse_bool, tuple: _parse_ints}


def parse_fields(cls, values, prefix=""):
    """Keyword arguments for the dataclass `cls` from the `values` keyed
    prefix + field name, for the fields present.

    int, float, bool and tuple fields are parsed; other fields pass through.
    A value that does not parse raises DataError naming its key.
    """
    kw = {}
    for f_ in fields(cls):
        key = prefix + f_.name
        if key not in values:
            continue
        parse = _PARSERS.get(f_.type)
        try:
            kw[f_.name] = values[key] if parse is None else parse(values[key])
        except ValueError as e:
            raise fileio.DataError(f"config value {key}: {e}") from e
    return kw


def lr_at_epoch(cfg: TrainConfig, epoch):
    """Step decay: divide by the drop factor at each listed epoch."""
    drops = sum(1 for e in cfg.lr_drop_epochs if epoch >= e)
    return cfg.lr / (cfg.lr_drop_factor**drops)


@dataclass
class TrainSample:
    """One training pair in octree form, with precomputed regression targets."""

    partial: object
    gt: object
    targets: Optional[np.ndarray] = None   # (n_nonempty, 4) planes, completion task
    labels: Optional[np.ndarray] = None    # per stored finest node, semantic task


def prepare_sample(pair: SamplePair, spec: NetworkSpec) -> TrainSample:
    """Octree-ify a point pair: input at input_depth, target at output_depth."""
    partial = build_octree(pair.partial, spec.input_depth)
    gt = build_octree(pair.complete, spec.output_depth)
    if spec.task == "completion":
        return TrainSample(partial, gt, targets=plane_fit_targets(pair.complete, gt))
    return TrainSample(partial, gt, labels=majority_labels(gt, pair.complete))


def _head_targets(samples, gt_batch, rows, task):
    """Targets of the finest-level `rows` of `gt_batch` (built from
    `samples`, in order), all of them nonempty."""
    lv = gt_batch.levels[gt_batch.depth]
    if task == "completion":
        # each sample's targets are in nonempty-rank order, so the batch's
        # are in the merged level's nonempty-rank order
        rank = np.cumsum(lv.status.astype(np.int64)) - 1
        return np.concatenate([s.targets for s in samples])[rank[rows]]
    return np.concatenate([s.labels for s in samples])[rows]


class SGD:
    """Momentum SGD with decoupled-from-nothing classic weight decay.

    decay is added to the gradient before the momentum update and skipped
    for parameters flagged decay=False (norm scales/shifts, biases).
    """

    def __init__(self, params, cfg: TrainConfig):
        self.params = params
        self.cfg = cfg
        self.velocity = {
            name: np.zeros_like(fm.values)
            for name, fm in params.store.items()
            if params.meta[name]["trainable"]
        }

    def step(self, lr):
        cfg = self.cfg
        for name, v in self.velocity.items():
            fm = self.params.store[name]
            g = fm.grad if fm.grad is not None else np.zeros_like(fm.values)
            if not np.all(np.isfinite(g)):
                raise NumericalError(f"non-finite gradient in {name}")
            g = g.astype(fm.values.dtype)
            if self.params.meta[name]["decay"]:
                g = g + cfg.weight_decay * fm.values
            v *= cfg.momentum
            v += g
            fm.values -= lr * v
        self.params.zero_grad()


class Trainer:
    def __init__(self, net: CompletionNet, cfg: TrainConfig, samples: List[TrainSample]):
        if not samples:
            raise DomainError("no training samples")
        cfg.validate()
        self.net = net
        self.cfg = cfg
        self.samples = samples
        self.opt = SGD(net.params, cfg)
        self.epoch = 0
        self.history: List[Dict] = []

    # -- one optimization step --------------------------------------------

    def step(self, indices, lr):
        net = self.net
        task = net.spec.task
        batch = [self.samples[i] for i in indices]
        in_batch = OctreeBatch([s.partial for s in batch])
        gt_batch = OctreeBatch([s.gt for s in batch])

        with ad.Tape():
            code, feats = net.encode(in_batch, train=True)
            res = net.decode(code, in_batch, feats, gt_batch=gt_batch, train=True)
            struct = {
                l: structure_loss(res.logits[l], res.gt_status[l])
                for l in res.logits
            }
            d = net.spec.output_depth
            if res.head_out is None:
                raise NumericalError("teacher-forced decode produced no output nodes")
            # teacher forcing: the head's rows are ground-truth nodes, found
            # by DecoderState.subdivide
            gt_rows = res.state.gt_rows[d][res.head_rows]
            targets = _head_targets(batch, gt_batch, gt_rows, task)
            if task == "completion":
                task_l = completion_task_loss(res.head_out, targets)
            else:
                if np.any(targets < 0):
                    raise DomainError("unlabeled ground-truth node reached the head")
                task_l = semantic_task_loss(res.head_out, targets)
            loss, report = total_loss(
                struct, task_l, d, w=self.cfg.task_weight, start_level=net.spec.coarsest + 1
            )
            if not np.isfinite(report.total):
                raise NumericalError(f"non-finite loss {report.total}")
            # no backward reads the batches' levels or tap pairs, nor the
            # decoder state; after backward only the statuses are read
            res.state = None
            del in_batch, gt_batch, code, feats
            ad.backward(loss)
        self.opt.step(lr)

        acc = {
            l: float((res.pred_status[l] == res.gt_status[l]).mean())
            for l in res.pred_status
        }
        report.metrics["status_accuracy"] = acc
        report.metrics["lr"] = lr
        return report

    # -- epochs ------------------------------------------------------------

    def run(self, checkpoint_path=None, config_values=None, log=None):
        """Train up to cfg.epochs (or cfg.max_steps steps) and return the
        history: per epoch, the mean loss, the lr, the mean status accuracy
        of each decoder level and the mean wall time of a step (`step_s`)."""
        cfg = self.cfg
        n = len(self.samples)
        steps_done = 0
        while self.epoch < cfg.epochs:
            rng = np.random.default_rng(cfg.seed + 1000 * self.epoch)
            order = rng.permutation(n) if cfg.shuffle else np.arange(n)
            lr = lr_at_epoch(cfg, self.epoch)
            epoch_losses, step_secs, accuracy = [], [], {}
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                t0 = time.perf_counter()
                report = self.step(idx, lr)
                step_secs.append(time.perf_counter() - t0)
                epoch_losses.append(report.total)
                for level, acc in report.metrics["status_accuracy"].items():
                    accuracy.setdefault(level, []).append(acc)
                steps_done += 1
                if log and steps_done % cfg.log_every == 0:
                    log(
                        f"epoch {self.epoch} step {steps_done} "
                        f"loss {report.total:.4f} task {report.task:.4f} lr {lr:g}"
                    )
                if cfg.max_steps and steps_done >= cfg.max_steps:
                    break
            self.epoch += 1
            self.history.append(
                {
                    "epoch": self.epoch,
                    "loss": float(np.mean(epoch_losses)),
                    "lr": lr,
                    "status_accuracy": {l: float(np.mean(a)) for l, a in accuracy.items()},
                    "step_s": float(np.mean(step_secs)),
                }
            )
            if checkpoint_path:
                self.save(checkpoint_path, config_values or {})
            if cfg.max_steps and steps_done >= cfg.max_steps:
                break
        return self.history

    # -- persistence --------------------------------------------------------

    def save(self, path, config_values):
        arrays = dict(self.net.params.state_arrays())
        for name, v in self.opt.velocity.items():
            arrays["opt." + name] = v
        text = fileio.config_to_text(config_values)
        fileio.save_checkpoint(path, arrays, text, self.epoch)

    def load(self, path, expect_config=None):
        ck = fileio.load_checkpoint(path)
        if expect_config is not None:
            text = fileio.config_to_text(expect_config)
            if text != ck["config_text"]:
                raise fileio.DataError("checkpoint config does not match this run")
        load_arrays(self.net.params.state_arrays(), ck["arrays"])
        # a checkpoint without optimizer state resumes at zero velocity
        load_arrays(self.opt.velocity, ck["arrays"], prefix="opt.", required=False)
        self.epoch = ck["epoch"]
        return ck


def load_arrays(targets, arrays, prefix="", required=True):
    """Copy checkpointed tensors arrays[prefix + name] into each ndarray of
    `targets` by name.

    A tensor of another shape is a DataError, and so is a missing one
    when `required`; else a missing tensor leaves its target as it is."""
    for name, v in targets.items():
        key = prefix + name
        if key not in arrays:
            if required:
                raise fileio.DataError(f"checkpoint missing tensor {key}")
            continue
        if arrays[key].shape != v.shape:
            raise fileio.DataError(f"tensor {key} shape {arrays[key].shape} != {v.shape}")
        v[...] = arrays[key]


def spec_config_values(spec: NetworkSpec):
    return {f"net.{k}": v for k, v in spec.__dict__.items()}


def net_from_checkpoint(path):
    """Rebuild the network a checkpoint was trained with and load its weights."""
    ck = fileio.load_checkpoint(path)
    values = fileio.parse_config(ck["config_text"], path)
    net = CompletionNet(spec_from_config_values(values))
    load_arrays(net.params.state_arrays(), ck["arrays"])
    return net, ck


def check_config_keys(values):
    """Raise DataError naming the first key of a train config that is not
    "net." and a NetworkSpec field or "train." and a TrainConfig field."""
    known = {f"net.{f.name}" for f in fields(NetworkSpec)}
    known.update(f"train.{f.name}" for f in fields(TrainConfig))
    for key in values:
        if key not in known:
            raise fileio.DataError(f"unknown config key {key}")


def spec_from_config_values(values):
    return NetworkSpec(**parse_fields(NetworkSpec, values, "net."))
