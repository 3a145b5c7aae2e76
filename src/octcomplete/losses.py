"""Structure / task losses and the evaluation metrics."""

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from . import autodiff as ad
from .errors import DomainError


def structure_loss(logits, gt_status):
    """Mean sigmoid cross-entropy of per-node status logits.

    Uses the log-sum-exp form: max(z,0) - z*y + log1p(exp(-|z|)).
    """
    y = np.asarray(gt_status, dtype=logits.values.dtype).reshape(-1, 1)
    if y.shape[0] != logits.rows:
        raise DomainError("structure loss length mismatch")
    z = logits.values
    n = z.shape[0]
    per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    out = np.full((1, 1), per.mean(), dtype=z.dtype)

    def back(g):
        e = np.exp(-np.abs(z))
        sig = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        return ((g[0, 0] / n) * (sig - y),)

    return ad.custom_op(out, [logits], back)


def completion_task_loss(pred, target):
    """(1/n) sum over nodes of ||n - n*||^2 + |d - d*|^2.

    `pred` rows are raw (nx, ny, nz, d); `target` is a constant (n, 4)
    array with unit plane normals and node-local displacements.
    """
    target = np.asarray(target, dtype=pred.values.dtype)
    if target.shape != pred.values.shape:
        raise DomainError("patch target shape mismatch")
    diff = ad.sub(pred, ad.constant(target))
    return ad.scale(ad.sum_all(ad.mul(diff, diff)), 1.0 / pred.rows)


def semantic_task_loss(logits, labels):
    """Mean softmax cross-entropy over nonempty finest nodes."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    n, k = logits.values.shape
    if labels.shape[0] != n:
        raise DomainError("label length mismatch")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise DomainError("label out of range")
    z = logits.values
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax + np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))
    per = lse[:, 0] - z[np.arange(n), labels]
    out = np.full((1, 1), per.mean(), dtype=z.dtype)

    def back(g):
        soft = np.exp(z - lse)
        soft[np.arange(n), labels] -= 1.0
        return ((g[0, 0] / n) * soft,)

    return ad.custom_op(out, [logits], back)


@dataclass
class LossReport:
    structure: Dict[int, float] = field(default_factory=dict)
    task: float = 0.0
    total: float = 0.0
    w: float = 1.0
    metrics: Dict[str, float] = field(default_factory=dict)


def total_loss(structure_losses, task_loss, depth, w=1.0, start_level=3):
    """Loss = sum_{l=3}^{d} L_struct^l + w * L_task (taped scalar + report)."""
    acc = None
    report = LossReport(w=w)
    for l in range(start_level, depth + 1):
        if l not in structure_losses:
            raise DomainError(f"missing structure loss for level {l}")
        term = structure_losses[l]
        report.structure[l] = float(term.values[0, 0])
        acc = term if acc is None else ad.add(acc, term)
    report.task = float(task_loss.values[0, 0])
    acc = ad.add(acc, ad.scale(task_loss, w)) if acc is not None else ad.scale(task_loss, w)
    report.total = float(acc.values[0, 0])
    return acc, report


def _positions(obj):
    pos = getattr(obj, "positions", obj)
    return np.asarray(pos, dtype=np.float64).reshape(-1, 3)


def _cloud(points, scale):
    """A point set's positions scaled by `scale` and the k-d tree over them.

    scipy.spatial is imported here, where a tree is built, not with the
    module: a training process builds none and so never loads it.
    """
    from scipy.spatial import cKDTree

    p = _positions(points) * scale
    if len(p) == 0:
        raise DomainError("chamfer on an empty point set")
    return p, cKDTree(p)


def _chamfer(a, b, squared=False):
    """chamfer_distance of two `_cloud` results, querying their trees; a
    caller that scores several clouds against one builds that one once."""
    (pa, tree_a), (pb, tree_b) = a, b
    da, _ = tree_b.query(pa)
    db, _ = tree_a.query(pb)
    if squared:
        return float((da**2).mean() + (db**2).mean())
    return float(da.mean() + db.mean())


def chamfer_distance(a, b, scale=128.0, squared=False):
    """Symmetric sum of mean nearest-neighbor distances.

    Coordinates are scaled so the unit box maps to a box of size `scale`
    before distances are taken. Nearest neighbors come from a k-d tree and
    are exact.
    """
    return _chamfer(_cloud(a, scale), _cloud(b, scale), squared)


def iou(pred_voxels, gt_voxels):
    """Per-class and mean IoU plus binary completion precision/recall/IoU.

    Grids hold -1 for empty voxels and class ids >= 0 elsewhere. Classes
    absent from both grids are excluded from the mean.
    """
    pred = np.asarray(pred_voxels)
    gt = np.asarray(gt_voxels)
    if pred.shape != gt.shape:
        raise DomainError("voxel grid shape mismatch")
    per_class = {}
    classes = np.union1d(np.unique(pred), np.unique(gt))
    for k in classes:
        if k < 0:
            continue
        p = pred == k
        g = gt == k
        union = np.logical_or(p, g).sum()
        if union == 0:
            continue
        per_class[int(k)] = float(np.logical_and(p, g).sum() / union)
    mean_iou = float(np.mean(list(per_class.values()))) if per_class else 0.0

    p_occ = pred >= 0
    g_occ = gt >= 0
    inter = float(np.logical_and(p_occ, g_occ).sum())
    n_pred = float(p_occ.sum())
    n_gt = float(g_occ.sum())
    union = float(np.logical_or(p_occ, g_occ).sum())
    return {
        "per_class": per_class,
        "mean_iou": mean_iou,
        "completion_precision": inter / n_pred if n_pred else 0.0,
        "completion_recall": inter / n_gt if n_gt else 0.0,
        "completion_iou": inter / union if union else 0.0,
    }
