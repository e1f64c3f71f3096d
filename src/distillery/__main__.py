"""The command line, `python -m distillery` or the `distillery` script.

BLAS threads do not pay on this program's matrices: they took up to twice
the CPU time of a run for no gain in wall time. So each CLI process runs
one BLAS thread, and `--threads N` (worker processes) is its one
parallelism setting. The
thread count is fixed before numpy loads, since OpenBLAS reads it once, at
load. A caller who sets any of the variables below keeps that setting; the
library itself never sets them.

The objects the imports leave alive (numpy, argparse, the package: about
22 000) are frozen into the collector's permanent generation before the
run. Interpreter exit then skips them in its cyclic collections, which took
about 15 ms of each process, and `--threads` workers, forked on Linux,
start from a frozen heap. Only this entry freezes: importing the package or
calling `cli.main` leaves the collector alone.
"""

import gc
import os
import sys

_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None):
    if not any(name in os.environ for name in _BLAS_THREAD_VARIABLES):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import main as cli_main

    gc.freeze()
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
