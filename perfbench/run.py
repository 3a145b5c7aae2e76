"""Run one benchmark workload and print its metrics; the last line is JSON.

    python3 perfbench/run.py --workload train-shape --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports octcomplete from its
src/ directory only: without it the run fails (exit code 2) and prints no
result.
"""

import os
import sys

# At or below nproc. One thread keeps runs on a shared machine steady, and
# float sums in BLAS depend on the thread count.
BLAS_THREADS = 1

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None):
    # before numpy is first imported, or the setting has no effect
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [SRC, HERE]
    try:
        import octcomplete
    except ImportError as e:
        print(f"perfbench: cannot import octcomplete from {SRC}: {e}", file=sys.stderr)
        return 2
    if not os.path.abspath(octcomplete.__file__).startswith(SRC + os.sep):
        print(f"perfbench: octcomplete comes from {octcomplete.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import bench

    return bench.main(argv, blas_threads=BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
