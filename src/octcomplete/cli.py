"""Command-line surface: dataset generation, training, inference, evaluation.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical abort.
"""

import argparse
import os
import sys

import numpy as np

from . import data as dt
from . import evaluate as ev
from . import fileio
from .errors import DomainError, NumericalError
from .network import CompletionNet, sample_points
from .octree import build_octree
from .train import (
    TrainConfig,
    Trainer,
    check_config_keys,
    net_from_checkpoint,
    prepare_sample,
    spec_config_values,
    spec_from_config_values,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_SHAPE_KINDS = ("sphere", "box", "cylinder", "union")


def _shape_params(kind, rng):
    if kind == "sphere":
        return {"radius": float(rng.uniform(0.25, 0.4))}
    if kind == "box":
        return {"half": tuple(rng.uniform(0.15, 0.35, size=3))}
    if kind == "cylinder":
        return {
            "radius": float(rng.uniform(0.15, 0.3)),
            "height": float(rng.uniform(0.4, 0.7)),
        }
    return {
        "parts": [
            {"kind": "box", "half": tuple(rng.uniform(0.15, 0.3, size=3))},
            {
                "kind": "sphere",
                "radius": float(rng.uniform(0.15, 0.25)),
                "offset": tuple(rng.uniform(-0.15, 0.15, size=3)),
            },
        ]
    }


def make_shape_pair(seed, views=None, noise=0.0, density=20000):
    """One seeded (partial, complete) pair from a random primitive."""
    rng = np.random.default_rng(seed)
    kind = _SHAPE_KINDS[int(rng.integers(len(_SHAPE_KINDS)))]
    complete = dt.make_shape(kind, _shape_params(kind, rng), density=density, seed=seed)
    nv = views if views else int(rng.integers(1, 7))
    cfg = dt.ScanConfig(num_views=nv, noise_std_fraction=noise, seed=seed)
    partial = dt.virtual_scan(complete, cfg)
    partial = dt.add_noise(partial, cfg)
    return dt.SamplePair(partial=partial, complete=complete, seed=seed)


def make_scene_pair(seed, views=None, num_classes=4):
    points, grid = dt.make_scene(dt.SceneConfig(seed=seed, num_classes=num_classes))
    nv = views if views else 2
    cfg = dt.ScanConfig(num_views=nv, seed=seed)
    partial = dt.virtual_scan(points, cfg)
    return dt.SamplePair(partial=partial, complete=points, grid=grid, seed=seed)


def cmd_gen(args):
    for name, low in (("seed", 0), ("count", 1)):
        if getattr(args, name) < low:
            raise DomainError(f"--{name} must be >= {low}, got {getattr(args, name)}")
    if args.task == "scene" and args.noise != 0:
        raise DomainError(f"--noise is for shape scans; scene scans take none, got {args.noise}")
    # ScanConfig's own checks of the view count and noise, before anything
    # is written; 0 views draws a count per sample
    dt.ScanConfig(num_views=args.views or 1, noise_std_fraction=args.noise)
    os.makedirs(args.out, exist_ok=True)
    entries = []
    for i in range(args.count):
        seed = args.seed * 100003 + i
        if args.task == "shape":
            pair = make_shape_pair(seed, views=args.views, noise=args.noise)
        else:
            pair = make_scene_pair(seed, views=args.views)
        p_path = os.path.join(args.out, f"sample_{i:04d}_partial.ply")
        c_path = os.path.join(args.out, f"sample_{i:04d}_complete.ply")
        fileio.write_ply(p_path, pair.partial)
        fileio.write_ply(c_path, pair.complete)
        g_path = None
        if pair.grid is not None:
            g_path = os.path.join(args.out, f"sample_{i:04d}.sgrid")
            fileio.save_sgrid(g_path, pair.grid)
        entries.append(
            {"partial": p_path, "complete": c_path, "grid": g_path, "seed": seed}
        )
    fileio.write_manifest(os.path.join(args.out, "manifest.txt"), entries)
    print(f"wrote {len(entries)} samples to {args.out}")
    return EXIT_OK


def cmd_build_octree(args):
    points = fileio.read_points(getattr(args, "in"))
    octree = build_octree(points, args.depth)
    fileio.save_octree(args.out, octree)
    print(f"depth {octree.depth}, nonempty leaves {octree.levels[octree.depth].num_nonempty}")
    return EXIT_OK


def _load_pairs(manifest_path):
    entries = fileio.read_manifest(manifest_path)
    pairs = []
    for e in entries:
        pairs.append(
            dt.SamplePair(
                partial=fileio.read_points(e["partial"]),
                complete=fileio.read_points(e["complete"]),
                grid=None if e["grid"] is None else fileio.load_sgrid(e["grid"]),
                seed=e["seed"],
            )
        )
    return pairs


def cmd_train(args):
    values = fileio.read_config(args.config)
    check_config_keys(values)
    spec = spec_from_config_values(values)
    spec.validate()  # before the manifest is read, as is the train config
    tcfg = TrainConfig.from_dict(values, prefix="train.")
    tcfg.validate()  # before the net draws its weights from train.seed
    pairs = _load_pairs(args.data)
    samples = [prepare_sample(p, spec) for p in pairs]
    net = CompletionNet(spec, seed=tcfg.seed)
    trainer = Trainer(net, tcfg, samples)

    config_values = dict(spec_config_values(spec))
    config_values.update({f"train.{k}": v for k, v in tcfg.to_dict().items()})

    os.makedirs(args.out, exist_ok=True)
    ckpt = os.path.join(args.out, "checkpoint.ockp")
    if args.resume and os.path.exists(ckpt):
        trainer.load(ckpt, expect_config=config_values)
        print(f"resumed from epoch {trainer.epoch}")
    history = trainer.run(
        checkpoint_path=ckpt, config_values=config_values, log=print
    )
    fileio.write_metrics(os.path.join(args.out, "history.json"), {"epochs": history})
    if history:
        print(f"final epoch loss {history[-1]['loss']:.4f}")
    return EXIT_OK


def cmd_complete(args):
    net, _ = net_from_checkpoint(args.ckpt)
    points = fileio.read_points(getattr(args, "in"))
    octree = build_octree(points, net.spec.input_depth)
    shape = net.complete(octree)
    for level, (expanded, cap) in sorted(shape.growth.items()):
        print(f"level {level}: expanded {expanded} rows, cap {cap:g}")
    if shape.empty:
        raise NumericalError("network predicted an empty shape")
    if net.spec.task == "completion":
        labels = np.zeros(len(shape.leaf_codes), dtype=np.int32)
        out = sample_points(shape, samples_per_node=args.samples_per_node)
    else:
        # semantic leaves have no patches; emit their centers
        labels = np.argmax(shape.semantic_logits, axis=1).astype(np.int32)
        out = dt.leaf_center_points(shape.leaf_codes, labels, shape.depth)
    fileio.write_ply(args.out, out)
    if args.export_grid:
        grid = dt.shape_to_label_grid(shape.leaf_codes, labels, shape.depth)
        fileio.save_sgrid(args.export_grid, grid)
    print(f"completed shape: {len(shape.leaf_codes)} leaves, {len(out)} points")
    return EXIT_OK


# the checkpoint task each eval metric reads
_METRIC_TASK = {"chamfer": "completion", "iou": "semantic"}


def cmd_eval(args):
    net, _ = net_from_checkpoint(args.ckpt)
    task = _METRIC_TASK[args.metric]
    if net.spec.task != task:
        raise fileio.DataError(
            f"metric {args.metric} needs a {task} checkpoint, {args.ckpt} is a {net.spec.task} one"
        )
    pairs = _load_pairs(args.data)
    if args.metric == "chamfer":
        report = ev.eval_completion(net, [(p.partial, p.complete) for p in pairs])
        print(f"mean chamfer {report['chamfer']:.4f} (baseline {report['baseline']:.4f})")
    else:
        items = [(p.partial, p.grid) for p in pairs]
        if any(g is None for _, g in items):
            raise fileio.DataError("iou metric needs label grids in the manifest")
        report = ev.eval_semantic(net, items)
        print(f"mean iou {report['mean_iou']:.4f}")
    if args.report:
        fileio.write_metrics(args.report, report)
    return EXIT_OK


def cmd_inspect(args):
    octree = fileio.load_octree(getattr(args, "in"))
    total_bytes = 0
    print(f"depth {octree.depth}")
    for l, lv in enumerate(octree.levels):
        b = lv.keys.nbytes + lv.status.nbytes + lv.child_start.nbytes
        total_bytes += b
        print(f"level {l}: nodes {lv.num_nodes} nonempty {lv.num_nonempty} bytes {b}")
    total_bytes += octree.signal.nbytes
    print(f"signal bytes {octree.signal.nbytes}")
    print(f"total bytes {total_bytes}")
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(prog="octcomplete")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    g.add_argument("--task", choices=("shape", "scene"), required=True)
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--views", type=int, default=0, help="0 draws 1..6 per sample")
    g.add_argument("--noise", type=float, default=0.0)
    g.set_defaults(func=cmd_gen)

    b = sub.add_parser("build-octree", help="voxelize a point cloud into an octree")
    b.add_argument("--in", required=True)
    b.add_argument("--depth", type=int, required=True)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_build_octree)

    t = sub.add_parser("train", help="train from a manifest")
    t.add_argument("--config", required=True)
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--resume", action="store_true")
    t.set_defaults(func=cmd_train)

    c = sub.add_parser("complete", help="run completion on one point cloud")
    c.add_argument("--ckpt", required=True)
    c.add_argument("--in", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--export-grid", default=None)
    c.add_argument("--samples-per-node", type=int, default=4)
    c.set_defaults(func=cmd_complete)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--metric", choices=("chamfer", "iou"), required=True)
    e.add_argument("--report", default=None)
    e.set_defaults(func=cmd_eval)

    i = sub.add_parser("inspect", help="print octree level statistics")
    i.add_argument("--in", required=True)
    i.set_defaults(func=cmd_inspect)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (fileio.DataError, DomainError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
