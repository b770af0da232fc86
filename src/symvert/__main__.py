"""The `symvert` command, also run as `python -m symvert`.

numpy's BLAS gets one thread unless the environment already names a
count in any of the variables below: the products here are small, and
extra threads only slow them down.  The variables must be set before
numpy is imported, so `cli` is imported only after; importing the
library leaves the environment alone.
"""

import os
import sys

THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def main() -> int:
    # all or none: OpenBLAS reads OPENBLAS_NUM_THREADS before
    # OMP_NUM_THREADS, so setting the others would override a user's
    # OMP_NUM_THREADS
    if not any(name in os.environ for name in THREAD_ENV):
        os.environ.update(dict.fromkeys(THREAD_ENV, "1"))
    from . import cli

    return cli.main()


if __name__ == "__main__":
    sys.exit(main())
