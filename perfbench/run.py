"""Benchmark command: ``python3 perfbench/run.py --workload {fan,toffoli,small}
--seed N --seconds S --trace {0,1}``, run from the repository root.

The BLAS thread count is fixed before numpy is imported, so every run uses
one BLAS thread whatever the caller's environment says.
"""

import os
import sys

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import harness

    sys.exit(harness.main(sys.argv[1:]))
