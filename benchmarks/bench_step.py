"""Time and peak memory of teacher-forced train steps at the depth-6 spec.

Run directly:

    PYTHONPATH=src python3 benchmarks/bench_step.py [--steps 3] [--n-res 2]

Every step is one Trainer.step over the same batch of 4 samples: the shape
pairs cli.make_shape_pair(seed, views=3) for seeds 0-3, a completion net
with input and output depth 6, c0=32, c_max=128 and `--n-res` residual
blocks per stack (default 2, 51 layers; 4 gives 83), at lr 0.01, under one
BLAS thread. For each step it prints the seconds, the total loss, the
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


def bench(steps, spec=SPEC):
    """Print one line per step; return the (seconds, loss, peak MiB,
    parameter digest) rows."""
    spec = NetworkSpec(**spec)
    samples = [train.prepare_sample(cli.make_shape_pair(s, views=VIEWS), spec) for s in SEEDS]
    trainer = train.Trainer(CompletionNet(spec, seed=0), train.TrainConfig(lr=LR), samples)
    batch = np.arange(len(samples))
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
    ap.add_argument("--n-res", type=int, default=SPEC["n_res"],
                    help="residual blocks per resblock stack")
    args = ap.parse_args()
    spec = dict(SPEC, n_res=args.n_res)
    print(f"spec {spec}, batch {len(SEEDS)}, lr {LR}, "
          f"BLAS threads {os.environ.get('OPENBLAS_NUM_THREADS')}")
    bench(args.steps, spec)


if __name__ == "__main__":
    main()
