"""Seeded end-to-end workloads of octcomplete, measured from outside.

Each workload is a closed loop: one client in one process runs an
iteration (a teacher-forced training step of one batch, or a batch of
held-out scans, each through inference and scoring), waits for it, and starts
the next. The
workload seed picks the inputs; the package only receives the generated
data. See README.md in this directory for why each workload exists and what
every metric should move.
"""

import argparse
import dataclasses
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy

from octcomplete import autodiff as ad
from octcomplete import cli, evaluate, kernels, losses, network, octree, train
from octcomplete.errors import DomainError, NumericalError

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

SETUP_REPEATS = 3      # setup_s is the median of this many complete set-ups
TAIL_BEYOND = 10       # a tail percentile needs this many samples above it
SAMPLES_PER_NODE = 4   # points sampled per predicted leaf, as in evaluate
VIEWS = 3              # scan views per partial input; keeps scan sizes steady
LR = 0.01              # TrainConfig's default 0.1 diverges on the shape spec
SIZE_BAND = 0.05       # each shape pair is within this share of its kind's stated size
MAX_DRAWS = 50         # candidate seeds per accepted pair before giving up

SHAPE_SPEC = dict(input_depth=5, output_depth=5, c0=32, c_max=128, n_res=2)
# median size (see make_pairs) of 150 three-view pairs of each kind at depth 4
SHAPE_PAIR_CELLS = {"sphere": 1820, "box": 1790, "cylinder": 1720, "union": 2570}
SHAPE_WEIGHTS = os.path.join(HERE, "weights", "shape_d5.ockp")
# sha256 of SHAPE_WEIGHTS as written by make_weights.py; a mismatch is fatal
SHAPE_WEIGHTS_SHA256 = "8ec267c38432525466df3f6ba0bef7c7bf3ea05b5e6d8fefabf3f68ace47cf21"


class BenchError(RuntimeError):
    """The benchmark cannot run as committed (exit code 2, no result)."""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str              # "train" or "infer"
    spec: dict             # NetworkSpec fields; scene_head selects scene rooms
    batch_size: int        # samples (train) or scans (infer) per iteration
    distinct: int          # distinct batches cycled over
    prefix: int            # iterations every run completes; fingerprint and trace use them
    label: str
    pair_cells: Optional[dict] = None  # stated size of a shape pair per kind, see make_pairs
    weights: Optional[str] = None
    weights_sha256: Optional[str] = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-shape", "train", SHAPE_SPEC, batch_size=4, distinct=2, prefix=6,
            label="train step, batch 4", pair_cells=SHAPE_PAIR_CELLS,
        ),
        Workload(
            "train-scene", "train",
            dict(input_depth=8, output_depth=6, c0=16, c_max=64, n_res=1,
                 task="semantic", num_classes=4, scene_head=True),
            batch_size=2, distinct=1, prefix=4, label="semantic train step, batch 2",
        ),
        Workload(
            "infer-shape", "infer", SHAPE_SPEC, batch_size=4, distinct=2, prefix=4,
            label="batch of 4 held-out scans", pair_cells=SHAPE_PAIR_CELLS,
            weights=SHAPE_WEIGHTS, weights_sha256=SHAPE_WEIGHTS_SHA256,
        ),
    )
}

# end-to-end metrics (untraced runs): name -> unit
E2E_UNITS = {
    "setup_s": "s",
    "iter_s.p50": "s",
    "samples_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "fingerprint": "score",
}
# the names the metrics take in the prose of README.md, per workload kind
ALIASES = {
    "train": {"iter_s": "step_s", "samples_per_s": "train_samples_per_s",
              "fingerprint": "loss_final"},
    "infer": {"iter_s": "batch_s", "samples_per_s": "scans_per_s",
              "fingerprint": "chamfer"},
}

LEVELS = (3, 4, 5, 6)
TIMED_LAYERS = (
    "kernels.scatter_add", "kernels.gather", "kernels.morton", "autodiff.backward",
    "nn.conv", "nn.upsample", "nn.batch_norm", "nn.max_pool", "octree.build",
    "octree.neighbor_table", "octree.find_in_sorted", "network.encode",
    "network.decode", "network.complete", "network.sample_points",
    "skip.guided_add", "losses.train", "losses.chamfer", "train.sgd",
    "evaluate.identity_baseline", "fileio.load_checkpoint", "data.scan",
)
COUNTED = {
    "kernels.scatter_add.calls": "count", "kernels.scatter_add.mb": "MB",
    "kernels.gather.calls": "count", "kernels.gather.mb": "MB",
    "autodiff.tape_ops": "count", "nn.conv.calls": "count", "nn.conv.rows": "count",
    "octree.neighbor_table.rows": "count", "octree.find_in_sorted.queries": "count",
    **{f"network.decode.rows.l{l}": "count" for l in LEVELS},
    "network.leaves": "count", "network.expand_headroom": "ratio",
    "skip.open_frac": "ratio",
}
# per-layer metrics (traced runs): name -> unit
LAYER_UNITS = {
    **{f"{name}.s": "s" for name in TIMED_LAYERS},
    **COUNTED,
    **{f"train.status_accuracy.l{l}": "ratio" for l in LEVELS},
    "trace.overhead_frac": "ratio",
}


def environment(blas_threads):
    """Versions and thread settings that can move the numbers."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "have_numba": bool(getattr(kernels, "HAVE_NUMBA", False)),
    }


def seed_stream(seed):
    """Per-sample generator seeds; all at or above 2**20, so they never meet
    the small seeds make_weights.py trains on."""
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(2**20, 2**31))


def occupied_cells(points, depth):
    """Cells holding a point at `depth`; an octree stores 8 rows per cell one level down."""
    n = 1 << depth
    c = np.clip(np.floor(points.positions * n).astype(np.int64), 0, n - 1)
    return len(np.unique((c[:, 0] * n + c[:, 1]) * n + c[:, 2]))


def shape_kind(seed):
    """The primitive cli.make_shape_pair draws first from `seed`."""
    kinds = cli._SHAPE_KINDS
    return kinds[int(np.random.default_rng(seed).integers(len(kinds)))]


def make_pairs(wl, seed):
    """The run's samples, in order.

    Shape pairs cycle through the primitive kinds (sphere, box, cylinder,
    union), so every batch of 4 holds one of each and a run's mix of kinds
    never depends on the draw. With wl.pair_cells set, a candidate is also
    taken only if its size, the occupied cells of complete plus partial one
    level above the finest, is within SIZE_BAND of its kind's stated size.
    Step and scan times then follow the code, not the seed.
    """
    n = wl.batch_size * wl.distinct
    seeds = seed_stream(seed)
    if wl.spec.get("scene_head"):
        return [cli.make_scene_pair(next(seeds), views=VIEWS) for _ in range(n)]
    kinds = cli._SHAPE_KINDS
    depth = wl.spec["input_depth"] - 1
    pairs = []
    for s in itertools.islice(seeds, MAX_DRAWS * n):
        kind = kinds[len(pairs) % len(kinds)]
        if shape_kind(s) != kind:
            continue
        pair = cli.make_shape_pair(s, views=VIEWS)
        if wl.pair_cells:
            size = occupied_cells(pair.complete, depth) + occupied_cells(pair.partial, depth)
            if abs(size / wl.pair_cells[kind] - 1) > SIZE_BAND:
                continue
        pairs.append(pair)
        if len(pairs) == n:
            return pairs
    raise BenchError(f"{wl.name}: no {n} pairs near {wl.pair_cells} cells")


def load_weights(wl):
    try:
        with open(wl.weights, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
    except OSError as e:
        raise BenchError(f"cannot read weights: {e}") from e
    if digest != wl.weights_sha256:
        raise BenchError(
            f"{wl.weights}: sha256 {digest} does not match the committed "
            f"{wl.weights_sha256}; the benchmark never retrains silently"
        )
    net, _ = train.net_from_checkpoint(wl.weights)
    if dataclasses.asdict(net.spec) != dataclasses.asdict(network.NetworkSpec(**wl.spec)):
        raise BenchError(f"{wl.weights}: checkpoint spec differs from {wl.name}")
    return net


# -- one iteration per workload kind ----------------------------------------


class TrainRun:
    """Teacher-forced Trainer.step cycling over a fixed set of batches."""

    def __init__(self, wl, seed):
        spec = network.NetworkSpec(**wl.spec)
        samples = [train.prepare_sample(p, spec) for p in make_pairs(wl, seed)]
        net = network.CompletionNet(spec, seed=0)
        cfg = train.TrainConfig(lr=LR, batch_size=wl.batch_size)
        self.trainer = train.Trainer(net, cfg, samples)
        b = wl.batch_size
        self.batches = [list(range(i * b, (i + 1) * b)) for i in range(wl.distinct)]
        # untimed warm-up: one teacher-forced forward pass per distinct batch
        # fills Octree._tables and anything else built lazily on first use
        for idx in self.batches:
            in_b = network.OctreeBatch([samples[i].partial for i in idx])
            gt_b = network.OctreeBatch([samples[i].gt for i in idx])
            with ad.Tape():
                code, feats = net.encode(in_b, train=True)
                net.decode(code, in_b, feats, gt_batch=gt_b, train=True)

    def iterate(self, k):
        """One step; returns its outputs, or raises on a failed step."""
        report = self.trainer.step(self.batches[k % len(self.batches)], LR)
        values = [report.total, report.task, *report.structure.values()]
        if not all(np.isfinite(values)):
            return {"ok": False, "why": f"non-finite loss {values}"}
        return {
            "ok": True,
            "score": float(report.total),
            "accuracy": {int(l): float(a) for l, a in report.metrics["status_accuracy"].items()},
        }


class InferRun:
    """build_octree -> complete -> sample_points -> chamfer, per held-out scan,
    for each scan of a batch in turn."""

    def __init__(self, wl, seed):
        self.net = load_weights(wl)
        self.pairs = make_pairs(wl, seed)
        b = wl.batch_size
        self.batches = [self.pairs[i * b : (i + 1) * b] for i in range(wl.distinct)]
        depth = self.net.spec.input_depth
        # untimed warm-up of the network on every distinct scan; a scan that
        # fails here fails again, and is counted, when it is timed
        for pair in self.pairs:
            try:
                self.net.complete(octree.build_octree(pair.partial, depth))
            except (NumericalError, DomainError):
                pass

    def iterate(self, k):
        """One batch; a scan that fails fails the batch."""
        outs = [self.scan(pair) for pair in self.batches[k % len(self.batches)]]
        bad = [o["why"] for o in outs if not o["ok"]]
        if bad:
            return {"ok": False, "why": "; ".join(bad)}
        return {
            "ok": True,
            "score": float(np.mean([o["score"] for o in outs])),
            "leaves": [o["leaves"] for o in outs],
        }

    def scan(self, pair):
        tree = octree.build_octree(pair.partial, self.net.spec.input_depth)
        shape = self.net.complete(tree)
        if shape.empty:
            raise DomainError("empty predicted shape")
        pts = network.sample_points(shape, samples_per_node=SAMPLES_PER_NODE, seed=pair.seed)
        chamfer = losses.chamfer_distance(pts, pair.complete)
        baseline = evaluate.identity_baseline(pair.partial, pair.complete)
        pos, nrm = pts.positions, pts.normals
        checks = {
            "points finite": np.all(np.isfinite(pos)) and np.all(np.isfinite(nrm)),
            "points in unit cube": np.all((pos >= 0.0) & (pos <= 1.0)),
            "unit normals": np.allclose(np.linalg.norm(nrm, axis=1), 1.0, atol=1e-6),
            "finite chamfer": np.isfinite(chamfer) and np.isfinite(baseline),
        }
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            return {"ok": False, "why": ", ".join(bad)}
        return {"ok": True, "score": float(chamfer), "leaves": len(shape.leaf_codes)}


def start(wl, seed):
    run = TrainRun(wl, seed) if wl.kind == "train" else InferRun(wl, seed)
    # the warm-up's tapes are reference cycles: free them as part of set-up,
    # not at some point inside the timed loop
    gc.collect()
    return run


# -- measurement ------------------------------------------------------------


@dataclass
class Loop:
    times: list = field(default_factory=list)     # seconds per successful iteration
    outputs: list = field(default_factory=list)   # per iteration, None when it failed
    wall: float = 0.0
    failed: int = 0
    errors: list = field(default_factory=list)


def run_loop(run, wl, stop, tracer=None):
    """Iterate until stop(k, elapsed) says so. Failed iterations (NumericalError,
    DomainError) are counted and never retried, re-seeded or dropped."""
    loop = Loop()
    t_start = time.perf_counter()
    k = 0
    while not stop(k, time.perf_counter() - t_start):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = run.iterate(k)
            else:
                with tracer.span("bench.iter"):
                    out = run.iterate(k)
        except (NumericalError, DomainError) as e:
            out = None
            loop.failed += 1
            loop.errors.append(f"iteration {k}: {type(e).__name__}: {e}")
        else:
            loop.times.append(time.perf_counter() - t0)
        loop.outputs.append(out)
        k += 1
    loop.wall = time.perf_counter() - t_start
    return loop


def fingerprint(wl, outputs):
    """Mean score (total loss, or a batch's mean Chamfer) over the last cycle
    of the fixed prefix, so it does not depend on how many iterations fit in
    a run."""
    window = outputs[wl.prefix - wl.distinct : wl.prefix]
    scores = [o["score"] for o in window if o is not None and o["ok"]]
    return float(np.mean(scores)) if scores else float("nan")


def tail(times):
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples
    above it, or None when the run has too few samples."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(times)[n - TAIL_BEYOND - 1]


def output_errors(loop):
    return [o["why"] for o in loop.outputs if o is not None and not o["ok"]]


def untraced(wl, seed, seconds):
    """End-to-end metrics with no probes installed."""
    setups = []
    for _ in range(SETUP_REPEATS):
        run = None  # release the previous set-up before building the next
        t0 = time.perf_counter()
        run = start(wl, seed)
        setups.append(time.perf_counter() - t0)

    # untraced runs end on a whole cycle of batches, so the median weighs
    # every batch the same
    def stop(k, elapsed):
        return k >= wl.prefix and elapsed >= seconds and k % wl.distinct == 0

    loop = run_loop(run, wl, stop)
    attempted = len(loop.outputs)
    ok = attempted - loop.failed
    fp = fingerprint(wl, loop.outputs)
    errors = output_errors(loop)
    if not np.isfinite(fp):
        errors.append("no successful iteration in the fingerprint window")
    metrics = {
        "setup_s": statistics.median(setups),
        "iter_s.p50": statistics.median(loop.times) if loop.times else float("nan"),
        "samples_per_s": ok * wl.batch_size / loop.wall,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": fp,
    }
    extra = {"times": loop.times, "tail": tail(loop.times),
             "fail_frac": loop.failed / attempted, "errors": loop.errors}
    return result(errors, attempted, loop.failed, metrics, E2E_UNITS), extra


def prefix_pass(wl, seed, tracer):
    """One set-up plus the fixed prefix, with probes installed throughout."""
    probes = spans.install(tracer)
    try:
        with tracer.span("bench.setup"):
            run = start(wl, seed)
        loop = run_loop(run, wl, lambda k, _: k >= wl.prefix, tracer=tracer)
    finally:
        probes.remove()
    return loop, probes.missing


def comparable(wl, tracer, loop):
    """Everything the two trace passes must agree on exactly."""
    return {
        "fingerprint": fingerprint(wl, loop.outputs),
        "outputs": loop.outputs,
        "failed": loop.failed,
        "counts": dict(tracer.counts),
        "headroom": tracer.headroom,
    }


def traced(wl, seed):
    """Per-layer metrics. Pass A only counts; pass B also records spans. Both
    run one set-up and the fixed prefix from scratch and must agree exactly."""
    count_only = spans.Tracer(timed=False)
    loop_a, missing = prefix_pass(wl, seed, count_only)
    timed = spans.Tracer(timed=True)
    loop_b, _ = prefix_pass(wl, seed, timed)

    errors = output_errors(loop_b)
    a, b = comparable(wl, count_only, loop_a), comparable(wl, timed, loop_b)
    for key in a:
        if a[key] != b[key]:
            errors.append(f"tracing changed {key}")
    if missing:
        print(f"unprobed (absent in this version): {', '.join(missing)}")

    st = spans.self_times(timed.spans)
    c = timed.counts
    metrics = {f"{name}.s": st.get(name, 0.0) for name in TIMED_LAYERS}
    for name in COUNTED:
        metrics[name] = float(c.get(name, 0.0))
    metrics["network.expand_headroom"] = min(timed.headroom, default=0.0)
    metrics["skip.open_frac"] = c["skip.open_rows"] / c["skip.rows"] if c["skip.rows"] else 0.0
    ok_out = [o for o in loop_b.outputs if o is not None and o["ok"]]
    for l in LEVELS:
        acc = [o["accuracy"][l] for o in ok_out if l in o.get("accuracy", {})]
        metrics[f"train.status_accuracy.l{l}"] = float(np.mean(acc)) if acc else 0.0
    metrics["trace.overhead_frac"] = (loop_b.wall - loop_a.wall) / loop_a.wall

    os.makedirs(OUT_DIR, exist_ok=True)
    timed.dump(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.json"))
    attempted = len(loop_b.outputs)
    extra = {"times": loop_b.times, "tail": None,
             "fail_frac": loop_b.failed / attempted, "errors": loop_b.errors}
    return result(errors, attempted, loop_b.failed, metrics, LAYER_UNITS), extra


def result(errors, attempted, failed, metrics, units):
    for name, value in metrics.items():
        if not np.isfinite(value):
            errors.append(f"{name} is not finite")
            metrics[name] = 0.0
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
        "errors": errors,
    }


def run_workload(wl, seed, seconds, trace):
    return traced(wl, seed) if trace else untraced(wl, seed, seconds)


# -- command line -----------------------------------------------------------


def report(wl, res, extra):
    """Human-readable lines; the JSON result follows as the last line."""
    alias = ALIASES[wl.kind]
    for name, m in res["metrics"].items():
        stem = name.split(".")[0]
        also = f"  ({name.replace(stem, alias[stem], 1)})" if stem in alias else ""
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}{also}")
    if res["metrics"].keys() == E2E_UNITS.keys():
        t = extra["tail"]
        where = f"p{t[0]:.0f} = {t[1]:.6g} s" if t else (
            f"n/a: needs more than {TAIL_BEYOND} samples")
        print(f"  iter_s.tail                        {where}")
    print(f"  samples {len(extra['times'])} ({wl.label}), fail_frac {extra['fail_frac']:.3g}")
    print("  iteration s: " + " ".join(f"{t:.3f}" for t in extra["times"]))
    for line in extra["errors"] + res["errors"]:
        print(f"  ! {line}")


def main(argv=None, blas_threads=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(blas_threads), sort_keys=True))
    try:
        res, extra = run_workload(wl, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    report(wl, res, extra)
    res.pop("errors")
    print(json.dumps(res))
    return 0
