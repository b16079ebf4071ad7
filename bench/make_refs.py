"""Regenerate the seed-0 reference artifacts under bench/refs/.

    python3 bench/make_refs.py ellipsoid-density ellipsoid-spectrum sphere-converge

Runs `revtone` on each workload's seed-0 config and copies its CSV
artifacts, the ones checks.py compares, into refs/<workload>/.  References are meant to come from the
commit that introduced them; regenerate only when a change of results is
intended and reviewed.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run as _run
import workloads as _workloads


def main(names) -> int:
    for name in names:
        p = _workloads.params(name, 0)
        with tempfile.TemporaryDirectory(dir=_run.ROOT) as tmp:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text(_workloads.config_text(p), encoding="utf-8")
            out = Path(tmp) / "out"
            subprocess.run([sys.executable, "-m", "revtone", "--config", str(cfg),
                            "--out", str(out)], cwd=_run.ROOT, env=_run._child_env(), check=True)
            dest = _run.BENCH / "refs" / name
            dest.mkdir(parents=True, exist_ok=True)
            for artifact in _workloads.artifacts(p):
                if not artifact.endswith(".csv"):
                    continue
                shutil.copyfile(out / artifact, dest / artifact)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
