"""Tests of the benchmark's own logic: self-time arithmetic, the
correctness checks, workload generation and metric naming."""
from __future__ import annotations

import json
import re
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _span(id, parent, layer, thread, start, end, child=0.0, hot=None, name="f"):
    s = tracer.Span(id, parent, layer, name, thread, start)
    s.end, s.child = end, child
    s.hot = hot or {}
    return s


def _agg(total):
    return [1, 1, total, total, 1, total]


def test_self_time_on_synthetic_tree():
    spans = [
        # cli root, 10 s; its same-thread callees: A (2 s), a hot call (1 s), sweep (5 s)
        _span(1, None, "cli", 1, 0.0, 10.0, child=8.0,
              hot={("quadrature", "map_to_interval", False): _agg(1.0)}),
        _span(2, 1, "actions", 1, 1.0, 3.0, child=0.5,
              hot={("surface", "profile.scalar", False): _agg(0.5)}),
        _span(3, 1, "measures", 1, 4.0, 9.0),
        # two pool rows of 4 s each overlap the sweep's 5 s: scaled by 5/8
        _span(4, 3, "measures", 2, 4.5, 8.5, child=2.0,
              hot={("spectral", "eigensolve", False): _agg(2.0)}),
        _span(5, 3, "measures", 3, 4.5, 8.5),
    ]
    got = tracer.attribute(spans)
    want = {"cli": 2.0, "actions": 1.5, "surface": 0.5, "quadrature": 1.0,
            "measures": 0.0 + 2.0 * 5 / 8 + 4.0 * 5 / 8, "spectral": 2.0 * 5 / 8}
    assert got == pytest.approx(want)
    assert sum(got.values()) == pytest.approx(10.0)


def test_self_time_sequential_children_are_not_scaled():
    spans = [_span(1, None, "measures", 1, 0.0, 10.0),
             _span(2, 1, "spectral", 2, 1.0, 3.0),
             _span(3, 1, "spectral", 2, 3.0, 6.0)]
    got = tracer.attribute(spans)
    assert got == pytest.approx({"measures": 5.0, "spectral": 5.0})


def test_tracer_wrappers_sum_to_root_wall():
    t = tracer.Tracer()
    leaf = t.hot("surface", "profile.scalar", lambda x: sum(range(2000)) + x)
    row = t.span("measures", "sweep_row", lambda k: [leaf(i) for i in range(50 * k)])

    def sweep(ks):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(row, ks))

    sweep = t.span("measures", "convergence_sweep", sweep, fan_out=True)
    root = t.span("cli", "main", lambda: (leaf(0), sweep([1, 2, 3, 4])))
    root()
    by_name = {}
    for s in t.spans:
        by_name.setdefault(s.name, []).append(s)
    (main,), (sw,) = by_name["main"], by_name["convergence_sweep"]
    assert sw.parent == main.id
    assert all(r.parent == sw.id and r.thread != sw.thread for r in by_name["sweep_row"])
    assert main.hot[("surface", "profile.scalar", False)][0] == 1
    assert tracer.hot_totals(t.spans)[("surface", "profile.scalar")][0] == 1 + 50 * 10
    got = tracer.attribute(t.spans)
    assert sum(got.values()) == pytest.approx(main.dur, rel=1e-9)
    assert min(got.values()) >= 0.0


def test_spans_round_trip_through_json(tmp_path):
    t = tracer.Tracer()
    f = t.span("spectral", "joint_slice", t.hot("spectral", "eigensolve", lambda: 1))
    f()
    path = tmp_path / "spans.json"
    t.dump(str(path), {"k": 1})
    meta, spans = tracer.load(str(path))
    assert meta == {"k": 1}
    assert [s.as_dict() for s in spans] == [s.as_dict() for s in t.spans]


def test_hot_calls_nested_in_hot_calls_split_self_time():
    t = tracer.Tracer()
    inner = t.hot("surface", "profile.array", lambda: sum(range(20000)))
    outer = t.hot("actions", "action_I2", lambda: inner())
    t.span("actions", "normalization_M", lambda: [outer() for _ in range(3)])()
    (s,) = t.spans
    a = s.hot[("actions", "action_I2", False)]
    b = s.hot[("surface", "profile.array", False)]
    assert a[0] == b[0] == 3
    assert a[3] == pytest.approx(a[2] - b[2])
    assert a[4] == 0 and b[4] == 3          # only the inner calls are leaves
    assert s.child == pytest.approx(a[2])


# ---------------------------------------------------------------------------
# correctness checks

def _ref_run(tmp_path, workload):
    out = tmp_path / "out"
    shutil.copytree(checks.REF_DIR / workload, out)
    return out


def _perturb(path, row, col, factor):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload", ["ellipsoid-density", "ellipsoid-spectrum"])
def test_reference_artifacts_pass_and_perturbed_fail(tmp_path, workload):
    p = workloads.params(workload, 0)
    expected = workloads.artifacts(p)
    out = _ref_run(tmp_path, workload)
    ok = checks.check_run(workload, p, 0, out, 0, expected, None)
    assert ok.failed == 0 and ok.attempted > len(expected)
    assert ok.worst_ratio() < 1.0

    target = out / expected[-1]
    _perturb(target, 5, 3, 1.0 + 1e-6)     # cdf in density.csv, lambda in a slice
    bad = checks.check_run(workload, p, 0, out, 0, expected, None)
    assert bad.failed >= 1
    assert bad.worst_ratio() > 1.0


def test_missing_artifact_and_exit_code_fail(tmp_path):
    p = workloads.params("ellipsoid-density", 0)
    res = checks.check_run("ellipsoid-density", p, 0, tmp_path, 3, ["density.csv"], None)
    assert res.attempted == 2 and res.failed == 2


def test_density_invariants_catch_asymmetry(tmp_path):
    p = workloads.params("ellipsoid-density", 0)
    out = _ref_run(tmp_path, "ellipsoid-density")
    _perturb(out / "density.csv", 3, 1, 1.0 + 1e-7)
    res = checks.check_run("ellipsoid-density", p, 7, out, 0, ["density.csv"], None)
    assert [item[0] for item in res.failures()] == ["density:symmetric"]


def _write_fit(out):
    """converge.json with the log-log fit of converge.csv's w1_mu, as revtone writes it."""
    header, rows = checks.read_csv(out / "converge.csv")
    x = np.log([r[header.index("ell")] for r in rows])
    y = np.log([r[header.index("w1_mu")] for r in rows])
    slope, intercept = np.polyfit(x, y, 1)
    r2 = 1.0 - np.sum((y - slope * x - intercept) ** 2) / np.sum((y - np.mean(y)) ** 2)
    (out / "converge.json").write_text(json.dumps(
        {"fit": {"w1_exponent": float(slope), "w1_r2": float(r2)}}))


def _sphere_run(out, oracles, ells, w1_factor=1.0):
    lines = ["ell,M_ell,M_ell_over_ell,ks_mu,w1_mu,ks_nu,w1_nu"]
    for ell in ells:
        atoms, mass = oracles.sphere_mu_atoms(ell)
        ks = checks.ks_vs_cdf(atoms, oracles.arcsine_cdf)
        w1 = checks.w1_vs_arcsine(atoms) * w1_factor
        lines.append(f"{ell},{mass!r},{mass / ell!r},{ks!r},{w1!r},0.1,0.1")
    (out / "converge.csv").write_text("\n".join(lines) + "\n")
    _write_fit(out)


def test_sphere_oracle_accepts_closed_form_and_rejects_perturbed(tmp_path):
    oracles = checks.load_oracles()
    p = workloads.params("sphere-converge", 4)
    expected = workloads.artifacts(p)
    _sphere_run(tmp_path, oracles, p["ells"])
    ok = checks.check_run("sphere-converge", p, 4, tmp_path, 0, expected, oracles)
    assert ok.failed == 0 and ok.worst_ratio() < 1e-6
    _sphere_run(tmp_path, oracles, p["ells"], w1_factor=1.01)
    bad = checks.check_run("sphere-converge", p, 4, tmp_path, 0, expected, oracles)
    assert [item[0] for item in bad.failures()] == ["converge:w1_mu_vs_closed_form"]


def test_sphere_fit_must_match_the_rows(tmp_path):
    oracles = checks.load_oracles()
    p = workloads.params("sphere-converge", 4)
    _sphere_run(tmp_path, oracles, p["ells"])
    report = json.loads((tmp_path / "converge.json").read_text())
    report["fit"]["w1_exponent"] += 1e-6
    (tmp_path / "converge.json").write_text(json.dumps(report))
    res = checks.check_run("sphere-converge", p, 4, tmp_path, 0, workloads.artifacts(p), oracles)
    assert [item[0] for item in res.failures()] == ["converge:fit_w1_exponent"]


@pytest.mark.parametrize("col", [5, 6])     # ks_nu, w1_nu
def test_sphere_reference_passes_and_perturbed_nu_fails(tmp_path, col):
    oracles = checks.load_oracles()
    p = workloads.params("sphere-converge", 0)
    expected = workloads.artifacts(p)
    out = _ref_run(tmp_path, "sphere-converge")
    _write_fit(out)
    ok = checks.check_run("sphere-converge", p, 0, out, 0, expected, oracles)
    assert ok.failed == 0 and ok.worst_ratio() < 1.0
    _perturb(out / "converge.csv", 2, col, 1.0 + 1e-6)
    bad = checks.check_run("sphere-converge", p, 0, out, 0, expected, oracles)
    name = "converge:" + ("ks_nu" if col == 5 else "w1_nu")
    assert [item[0] for item in bad.failures()] == [name]


def test_w1_closed_form_matches_hand_derived_value():
    oracles = checks.load_oracles()
    atoms, _ = oracles.sphere_mu_atoms(1)
    assert checks.w1_vs_arcsine(atoms) == pytest.approx(oracles.W1_SPHERE_ELL1_VS_ARCSINE,
                                                        abs=1e-14)


# ---------------------------------------------------------------------------
# workloads and metric names

def test_seed_zero_is_the_base_config_and_other_seeds_jitter():
    for name, base in workloads.BASE.items():
        assert workloads.params(name, 0) == base
        for seed in range(1, 30):
            p = workloads.params(name, seed)
            assert p == workloads.params(name, seed)
            if p["profile"] == "ellipsoid":
                assert 1.25 <= p["aspect"] <= 1.35
                assert p["command"] == "spectrum" or p["aspect"] == 1.3
            if "density_n" in p:
                assert p["density_n"] % 2 == 0 and abs(p["density_n"] - 200) <= 10
            if "ells" in p:
                assert all(abs(a - b) <= 2 for a, b in zip(p["ells"], base["ells"]))
                assert list(p["ells"]) == sorted(set(p["ells"]))


def test_metric_names_and_units_are_well_formed():
    for table in (run.END_TO_END, run.PER_LAYER):
        for name, unit in table.items():
            assert NAME.match(name), name
            assert UNIT.match(unit), unit
    assert not set(run.END_TO_END) & set(run.PER_LAYER)
    assert all(NAME.match(name) for name in workloads.BASE)


def test_traced_run_yields_every_per_layer_metric():
    m = run.layer_metrics([], 1.0, 1.0)
    assert set(m) | {"cli.bytes_written"} == set(run.PER_LAYER)
