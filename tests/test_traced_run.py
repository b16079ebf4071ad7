"""The benchmark's traced path, run once on a small sphere convergence sweep."""
import json
import subprocess
import sys
from pathlib import Path

TRACED_CHILD = Path(__file__).resolve().parents[1] / "bench" / "traced_child.py"


def test_traced_converge_records_the_measure_spans(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("profile.kind = round_sphere\nspectral.grid_size = 500\n"
                   "run.command = converge\nrun.ells = 10, 20\n"
                   "symbol.kind = radial_mult\nsymbol.expr = cos(r)^2\n")
    spans = tmp_path / "spans.json"
    done = subprocess.run([sys.executable, str(TRACED_CHILD), str(spans), "--config", str(cfg),
                           "--out", str(tmp_path / "out")], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    names = {span["name"] for span in json.loads(spans.read_text())["spans"]}
    assert {"wasserstein1", "limit_measure_mu"} <= names
