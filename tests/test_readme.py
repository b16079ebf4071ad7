"""The README's Quick start, run as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(plateau, capsys):
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None, "README has no Quick start python block"
    with plateau("nu"):  # the 1.3 ellipsoid's cos r series has no plateau
        exec(compile(block.group(1), str(README), "exec"), {})
    w1, fit = capsys.readouterr().out.splitlines()
    assert 0.0 < float(w1) < 0.1
    assert "'w1_exponent'" in fit and "'w1_r2'" in fit
