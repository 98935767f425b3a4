"""The `cfrank` command, also run as `python -m cfrank`.

OpenBLAS gets one thread unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is
set: the pipeline's matrix products are small, more threads made them
slower, and `cli.run_pipeline` overlaps two stages only with one BLAS
thread per process. The default must be in the environment before numpy
loads, so it is set here, before `cli` is imported. `cli.main` then fixes
glibc's mmap and trim thresholds for the process (see `cli`), so training
steps reuse freed heap blocks instead of faulting in fresh pages. Importing
the package or one of its modules as a library sets neither.
"""

import os
import sys

if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
