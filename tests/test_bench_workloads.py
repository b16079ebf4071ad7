"""The benchmark's seed-0 workloads, run in process through `revtone.cli.main` and checked
against the reference artifacts in bench/refs, so that a change that moves a reference
column fails here rather than only when the benchmark runs."""
import sys
from pathlib import Path

import pytest

from revtone.cli import main

import oracles

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import checks  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.BASE))
def test_seed0_workload_matches_its_references(tmp_path, workload):
    p = workloads.params(workload, 0)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(workloads.config_text(p), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out)])
    chk = checks.check_run(workload, p, 0, str(out), code, workloads.artifacts(p), oracles)
    assert chk.failed == 0, chk.failures()
    # every CSV artifact was compared with its reference
    compared = {name.split(":")[0] for name, *_ in chk.items if name.endswith(":shape")}
    assert compared == {a[:-4] for a in workloads.artifacts(p) if a.endswith(".csv")}
