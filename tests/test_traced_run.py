"""The benchmark's traced path, run once per command on a small profile."""
import json
import subprocess
import sys
from pathlib import Path

TRACED_CHILD = Path(__file__).resolve().parents[1] / "bench" / "traced_child.py"


def _traced_spans(tmp_path, config):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    spans = tmp_path / "spans.json"
    done = subprocess.run([sys.executable, str(TRACED_CHILD), str(spans), "--config", str(cfg),
                           "--out", str(tmp_path / "out")], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return {span["name"] for span in json.loads(spans.read_text())["spans"]}


def test_traced_converge_records_the_measure_spans(tmp_path):
    names = _traced_spans(tmp_path, "profile.kind = round_sphere\nspectral.grid_size = 500\n"
                                    "run.command = converge\nrun.ells = 10, 20\n"
                                    "symbol.kind = radial_mult\nsymbol.expr = cos(r)^2\n")
    assert {"wasserstein1", "limit_measure_mu"} <= names


def test_traced_spectrum_records_the_joint_slice_span(tmp_path):
    # the tracer wraps spectral.eigh_tridiagonal, which the ellipsoid's coarse m = 0 pair calls
    names = _traced_spans(tmp_path, "profile.kind = ellipsoid\nprofile.aspect = 1.3\n"
                                    "spectral.grid_size = 500\nrun.command = spectrum\n"
                                    "run.ells = 10\n")
    assert "joint_slice" in names
