"""Set-up phase of one revtone run, in a process of its own.

    python3 bench/setup_probe.py RUN.cfg

Imports revtone, parses the config, builds and validates the profile and
constructs the ActionEvaluator, then exits; the caller times the whole
process.  The last stdout line is a JSON view of the environment this
child saw.
"""
from __future__ import annotations

import json
import os
import platform
import sys

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_view() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
            "REVTONE_THREADS": os.environ.get("REVTONE_THREADS"),
            "blas_env": {k: os.environ[k] for k in BLAS_VARS if k in os.environ}}


def main(argv):
    from revtone import config

    cfg = config.load_config(argv[0])
    profile = config.build_profile(cfg)
    config.build_evaluator(cfg, profile)
    print(json.dumps(child_view()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
