"""Train the fixed infer-shape weights once; the result is committed.

    python3 perfbench/make_weights.py

Trains the train-shape spec for a fixed budget on shape pairs with small
seeds (the benchmark's held-out scans use seeds of 2**20 and up), writes
weights/shape_d5.ockp and prints its sha256. Paste the digest into
SHAPE_WEIGHTS_SHA256 in bench.py; the benchmark refuses weights that do not
match it. Rerunning this script is a change of the benchmark, not a fix.
"""

import hashlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

TRAIN_SEEDS = range(8)
STEPS = 12
BATCH = 4
LR = 0.01


def train_weights(spec_fields, path, steps=STEPS, seeds=TRAIN_SEEDS, views=3):
    """Seeded fixed-budget training; saves parameters only and returns the sha256."""
    from octcomplete import cli, fileio, train
    from octcomplete.network import CompletionNet, NetworkSpec

    spec = NetworkSpec(**spec_fields)
    samples = [train.prepare_sample(cli.make_shape_pair(s, views=views), spec) for s in seeds]
    net = CompletionNet(spec, seed=0)
    cfg = train.TrainConfig(lr=LR, batch_size=BATCH, epochs=10**6, max_steps=steps, seed=0)
    train.Trainer(net, cfg, samples).run()
    text = fileio.config_to_text(train.spec_config_values(spec))
    fileio.save_checkpoint(path, net.params.state_arrays(), text, steps)
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def main():
    import run

    # same thread pinning and import path as a benchmark run
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(run.BLAS_THREADS)
    sys.path.insert(0, run.SRC)
    import bench

    digest = train_weights(bench.SHAPE_SPEC, bench.SHAPE_WEIGHTS)
    print(f"{digest}  {os.path.relpath(bench.SHAPE_WEIGHTS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
