"""Evaluation drivers: surface distance for completion, grid IoU for scenes."""

import numpy as np

from .data import shape_to_label_grid
from .errors import DomainError
from .losses import _chamfer, _cloud, chamfer_distance, iou
from .network import CompletionNet, sample_points
from .octree import PointSet, build_octree

# Points sampled per predicted leaf before a completion is scored.
SAMPLES_PER_NODE = 4


def identity_baseline(partial: PointSet, complete: PointSet):
    """Distance of the raw partial input to the ground truth.

    A completion model should beat this number: it measures how much is
    missing when nothing is predicted at all.
    """
    return chamfer_distance(partial, complete)


def eval_completion_sample(
    net: CompletionNet,
    partial: PointSet,
    complete: PointSet,
    seed=0,
):
    """Chamfer distance of the completed scan and of the raw scan (the
    identity baseline) to the complete cloud, whose k-d tree both share.
    The completion is scored at SAMPLES_PER_NODE points per leaf, sampled
    with `seed`."""
    octree = build_octree(partial, net.spec.input_depth)
    shape = net.complete(octree)
    truth = _cloud(complete)
    out = {
        "baseline": _chamfer(_cloud(partial), truth),
        "nodes": int(len(shape.leaf_codes)),
    }
    if shape.empty:
        out["chamfer"] = float("inf")
        return out, None
    pred_points = sample_points(shape, samples_per_node=SAMPLES_PER_NODE, seed=seed)
    out["chamfer"] = _chamfer(_cloud(pred_points), truth)
    return out, pred_points


def eval_completion(net, pairs):
    """Mean metrics over (partial, complete) point-set pairs; pair i's
    completion is sampled with seed i."""
    if not pairs:
        raise DomainError("nothing to evaluate")
    rows = []
    for i, (partial, complete) in enumerate(pairs):
        metrics, _ = eval_completion_sample(net, partial, complete, seed=i)
        rows.append(metrics)
    return {
        "chamfer": float(np.mean([r["chamfer"] for r in rows])),
        "baseline": float(np.mean([r["baseline"] for r in rows])),
        "per_sample": rows,
    }


def eval_semantic_sample(net: CompletionNet, partial: PointSet, gt_grid):
    octree = build_octree(partial, net.spec.input_depth)
    shape = net.complete(octree)
    if shape.empty:
        pred_grid = np.full(np.asarray(gt_grid).shape, -1, dtype=np.int32)
    else:
        labels = np.argmax(shape.semantic_logits, axis=1)
        pred_grid = shape_to_label_grid(
            shape.leaf_codes, labels, shape.depth, dims=np.asarray(gt_grid).shape
        )
    return iou(pred_grid, gt_grid), pred_grid


def eval_semantic(net, items):
    """Mean IoU metrics over (partial_points, gt_grid) pairs."""
    if not items:
        raise DomainError("nothing to evaluate")
    rows = []
    for partial, gt_grid in items:
        metrics, _ = eval_semantic_sample(net, partial, gt_grid)
        rows.append(metrics)
    keys = ("mean_iou", "completion_precision", "completion_recall", "completion_iou")
    out = {k: float(np.mean([r[k] for r in rows])) for k in keys}
    out["per_sample"] = rows
    return out

