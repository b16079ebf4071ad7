"""Smoke tests for the experiment scripts under scripts/."""
import csv
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_profile_family_study_writes_plain_floats(tmp_path):
    study = _load("profile_family_study")
    assert study.main(["--aspects", "1.0", "--density-n", "20", "--out", str(tmp_path)]) == 0
    tables = sorted(tmp_path.glob("*.csv"))
    assert tables
    for path in tables:
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["c", "density_unnorm", "cdf"]
        assert len(rows) == 19
        for row in rows:
            for cell in row:
                float(cell)
