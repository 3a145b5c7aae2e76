"""Time and peak memory of teacher-forced train steps at the depth-6 spec.

Run directly:

    PYTHONPATH=src python3 benchmarks/bench_step.py [--steps 3] [--n-res 2] [--scene]

Every step is one Trainer.step over the same batch of 4 samples: the shape
pairs cli.make_shape_pair(seed, views=3) for seeds 0-3, a completion net
with input and output depth 6, c0=32, c_max=128 and `--n-res` residual
blocks per stack (default 2, 51 layers; 4 gives 83), at lr 0.01, under one
BLAS thread. With `--scene` the batch is instead the 2 rooms
cli.make_scene_pair(seed, views=3) for seeds 0-1 under perfbench's
train-scene spec: a semantic net of 4 classes with the depth-8 scene head,
output depth 6, c0=16, c_max=64 and `--n-res` (default 1) residual blocks
per stack. For each step it prints the seconds, the total loss, the
process's peak resident set so far (ru_maxrss, in MiB) and `params`, the
first 16 hex digits of a sha256 over every parameter (running batch-norm
statistics included) after the step. The first step's peak includes
set-up; later steps show whether the step itself sets the peak. Two runs
of equal code print equal losses and digests, so comparing them across two
checkouts shows whether a change kept the arithmetic bit for bit.
"""

import os

if __name__ == "__main__":
    # before numpy is first imported, or the setting has no effect; float
    # sums in BLAS depend on the thread count, so losses repeat only with it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

import argparse
import hashlib
import resource
import time

import numpy as np

from octcomplete import cli, train
from octcomplete.network import CompletionNet, NetworkSpec

SPEC = dict(input_depth=6, output_depth=6, c0=32, c_max=128, n_res=2)
SEEDS = range(4)  # one batch
# perfbench's train-scene spec, and its batch size
SCENE_SPEC = dict(input_depth=8, output_depth=6, c0=16, c_max=64, n_res=1,
                  task="semantic", num_classes=4, scene_head=True)
SCENE_SEEDS = range(2)
VIEWS = 3
LR = 0.01


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def params_digest(params):
    """16 hex digits of a sha256 over every parameter, in name order."""
    h = hashlib.sha256()
    for name in params.names():
        h.update(name.encode())
        h.update(params[name].values.tobytes())
    return h.hexdigest()[:16]


def make_pairs(spec):
    """The batch's sample pairs: rooms for a spec with the scene head,
    else shapes."""
    if spec.scene_head:
        return [cli.make_scene_pair(s, views=VIEWS) for s in SCENE_SEEDS]
    return [cli.make_shape_pair(s, views=VIEWS) for s in SEEDS]


def bench(steps, spec=SPEC):
    """Print a line naming the run, then one line per step; return the
    (seconds, loss, peak MiB, parameter digest) rows."""
    net_spec = NetworkSpec(**spec)
    samples = [train.prepare_sample(p, net_spec) for p in make_pairs(net_spec)]
    trainer = train.Trainer(CompletionNet(net_spec, seed=0), train.TrainConfig(lr=LR), samples)
    batch = np.arange(len(samples))
    print(f"spec {spec}, batch {len(samples)}, lr {LR}, "
          f"BLAS threads {os.environ.get('OPENBLAS_NUM_THREADS')}", flush=True)
    rows = []
    for k in range(steps):
        t0 = time.perf_counter()
        loss = trainer.step(batch, LR).total
        secs, rss = time.perf_counter() - t0, peak_rss_mib()
        digest = params_digest(trainer.net.params)
        rows.append((secs, loss, rss, digest))
        print(f"step {k}  s {secs:.3f}  loss {loss:.9g}  peak_rss_mib {rss:.1f}  "
              f"params {digest}", flush=True)
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=3)
    ap.add_argument("--n-res", type=int, default=None,
                    help="residual blocks per resblock stack (default: the spec's)")
    ap.add_argument("--scene", action="store_true",
                    help="train perfbench's train-scene spec on 2 rooms")
    args = ap.parse_args()
    spec = SCENE_SPEC if args.scene else SPEC
    if args.n_res is not None:
        spec = dict(spec, n_res=args.n_res)
    bench(args.steps, spec)


if __name__ == "__main__":
    main()
