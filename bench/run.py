"""revtone benchmark: runs `revtone` commands as a user does and reports
end-to-end metrics (untraced) or per-layer metrics (traced).

    python3 bench/run.py --workload ellipsoid-density --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 0

Load is a closed loop with one client: one `revtone` process at a time.
A run repeats whole invocations until the next one would end after
--seconds (always at least one) and reports medians.  With --trace 0
it also times the set-up phase in separate processes.  With --trace 1
each invocation is paired with a traced one (bench/traced_child.py) and
the per-layer metrics come from its spans.

Every invocation's artifacts are checked (bench/checks.py).  The last
stdout line is one JSON object: correct, attempted and failed count
the checks (fail_frac = failed / attempted), metrics holds the values.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks as _checks
import tracer as _tracer
import workloads as _workloads
from setup_probe import BLAS_VARS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_runs"

# set-up probes per run, half before and half after the timed invocations,
# so that their median spans the run rather than one moment of it
SETUP_REPEATS = 16
# each run ends well inside 180 s, even when an invocation hangs (the
# probes after it are then killed after 1 s each)
RUN_DEADLINE_S = 160.0

# metric names and units, in BENCHMARK.json's order
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
LAYERS = ("surface", "quadrature", "actions", "spectral", "measures", "cli")
SERIES_BUILDS = {"normalization_M", "liouville_state", "nu_mass_and_cdf"}


# ---------------------------------------------------------------------------
# child processes

def _child_env() -> dict:
    """The checkout's src/ on the path; BLAS single-threaded unless set,
    so that the converge pool's threads are the program's only ones."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_VARS:
        env.setdefault(var, "1")
    return env


def run_child(argv: list, log_path, deadline: float):
    """Run argv to completion; (returncode, wall_s, cpu_s, peak_rss_mb).

    Killed once `deadline` (a perf_counter time) passes."""
    t0 = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _last_json_line(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.startswith("{")]
        return json.loads(lines[-1]) if lines else {}
    except (OSError, ValueError):
        return {}


def _dir_bytes(path) -> int:
    return sum(f.stat().st_size for f in Path(path).iterdir() if f.is_file())


# ---------------------------------------------------------------------------
# per-layer metrics from a span file

def layer_metrics(spans: list, traced_wall: float, untraced_wall: float) -> dict:
    hot = _tracer.hot_totals(spans)
    zero = [0, 0, 0.0, 0.0, 0, 0.0]

    def h(layer, name):
        return hot.get((layer, name), zero)

    def named(layer, name):
        return sorted((s for s in spans if s.layer == layer and s.name == name),
                      key=lambda s: s.start)

    def total(layer, name):
        return sum(s.dur for s in named(layer, name))

    def first(layer, name):
        found = named(layer, name)
        return found[0].dur if found else 0.0

    nu = sorted((s for s in spans if s.layer == "actions"
                 and s.name in {"liouville_state", "nu_mass_and_cdf"}), key=lambda s: s.start)
    series = _tracer.hot_totals(spans, under=SERIES_BUILDS)
    self_s = _tracer.attribute(spans)
    sweeps = named("measures", "convergence_sweep")
    rows = named("measures", "sweep_row")
    sweep_ids = {s.id for s in sweeps}
    threads = {s.thread for s in rows if s.parent in sweep_ids}
    cdf_leaf = h("actions", "limit_cdf")
    scalar, array = h("surface", "profile.scalar"), h("surface", "profile.array")
    m = {
        "surface.build.s": total("surface", "build"),
        "surface.scalar.calls": scalar[0],
        "surface.array.calls": array[0],
        "surface.array.points": array[1],
        "surface.eval.s": scalar[2] + array[2],
        "quadrature.radial_integrals": h("quadrature", "map_to_interval")[0],
        "actions.mu_series.cold_s": first("actions", "normalization_M"),
        "actions.nu_series.cold_s": nu[0].dur if nu else 0.0,
        "actions.series.density_evals": (series.get(("actions", "limit_density_unnorm"), zero)[0]
                                         + series.get(("actions", "torus_average"), zero)[0]),
        "actions.energy_K.calls": h("actions", "energy_K")[0],
        "actions.energy_K.s": h("actions", "energy_K")[2],
        "actions.action_I2.calls": h("actions", "action_I2")[0],
        "actions.dI2_dE.calls": h("actions", "dI2_dE")[0],
        "actions.turning_points.calls": h("actions", "turning_points")[0],
        "actions.turning_points.s": h("actions", "turning_points")[2],
        "actions.limit_density_unnorm.calls": h("actions", "limit_density_unnorm")[0],
        "actions.limit_cdf.calls": cdf_leaf[0],
        "actions.limit_cdf.warm_us": 1e6 * cdf_leaf[5] / cdf_leaf[4] if cdf_leaf[4] else 0.0,
        "spectral.joint_slice.calls": len(named("spectral", "joint_slice")),
        "spectral.joint_slice.s": total("spectral", "joint_slice"),
        "spectral.eigensolves": h("spectral", "eigensolve")[0],
        "spectral.eigensolve.s": h("spectral", "eigensolve")[2],
        "spectral.modes": sum(s.extra.get("modes", 0) for s in named("spectral", "joint_slice")),
        "spectral.ebk_residual.s": h("spectral", "ebk_residual")[2],
        "spectral.matrix_element_radial.calls": h("spectral", "matrix_element_radial")[0],
        "spectral.matrix_element_radial.s": h("spectral", "matrix_element_radial")[2],
        "measures.wasserstein1.calls": len(named("measures", "wasserstein1")),
        "measures.wasserstein1.s": total("measures", "wasserstein1"),
        "measures.ks_distance.s": total("measures", "ks_distance"),
        "measures.empirical_mu.s": total("measures", "empirical_mu"),
        "measures.empirical_nu.s": total("measures", "empirical_nu"),
        "measures.cdf.calls": h("measures", "cdf")[0],
        "measures.cdf.points": h("measures", "cdf")[1],
        "measures.sweep_parallelism": (sum(s.dur for s in rows if s.parent in sweep_ids)
                                       / sum(s.dur for s in sweeps)) if sweeps else 0.0,
        "measures.sweep_threads": len(threads),
        "cli.write.s": total("cli", "write"),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.remainder_s": traced_wall - sum(self_s.values()),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return m


# ---------------------------------------------------------------------------
# one run

class Run:
    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.workdir = workdir
        self.p = _workloads.params(workload, seed)
        self.expected = _workloads.artifacts(self.p)
        self.cfg = workdir / "run.cfg"
        self.cfg.write_text(_workloads.config_text(self.p), encoding="utf-8")
        self.oracles = _checks.load_oracles()
        self.t_start = time.perf_counter()
        self.deadline = self.t_start + RUN_DEADLINE_S
        self.attempted = self.failed = 0
        self.worst_ratio = 0.0
        self.failures = []
        self.child_view = {}
        self._n = 0

    def _tag(self, kind: str) -> Path:
        self._n += 1
        return self.workdir / f"{kind}{self._n}"

    def _record(self, chk: _checks.Checks):
        self.attempted += chk.attempted
        self.failed += chk.failed
        self.worst_ratio = max(self.worst_ratio, chk.worst_ratio())
        self.failures.extend(chk.failures())

    def invoke(self, traced: bool):
        """One revtone invocation, checked; (wall_s, cpu_s, peak_rss_mb, out_dir, spans path)."""
        out = self._tag("traced" if traced else "run")
        spans = out.with_suffix(".spans.json")
        prefix = [sys.executable]
        if traced:
            prefix += [str(BENCH / "traced_child.py"), str(spans)]
        else:
            prefix += ["-m", "revtone"]
        argv = prefix + ["--config", str(self.cfg), "--out", str(out)]
        rc, wall, cpu, rss = run_child(argv, out.with_suffix(".log"), self.deadline)
        self._record(_checks.check_run(self.workload, self.p, self.seed, out, rc,
                                       self.expected, self.oracles))
        return wall, cpu, rss, out, spans

    def setup_times(self, repeats: int) -> list:
        times = []
        for _ in range(repeats):
            log = self._tag("setup").with_suffix(".log")
            rc, wall, _cpu, _rss = run_child(
                [sys.executable, str(BENCH / "setup_probe.py"), str(self.cfg)], log, self.deadline)
            chk = _checks.Checks()
            chk.flag("setup_exit_code_0", rc == 0)
            self._record(chk)
            self.child_view = _last_json_line(log) or self.child_view
            times.append(wall)
        return times

    def more(self, last: float) -> bool:
        now = time.perf_counter() - self.t_start
        return now + last <= self.seconds and self.t_start + now + 2 * last < self.deadline

    def untraced(self) -> dict:
        setup = self.setup_times(SETUP_REPEATS // 2)
        self.t_start = time.perf_counter()
        samples = []
        while True:
            wall, cpu, rss, _out, _spans = self.invoke(traced=False)
            samples.append((wall, cpu, rss))
            if not self.more(wall):
                break
        self.samples = len(samples)
        setup += self.setup_times(SETUP_REPEATS - SETUP_REPEATS // 2)
        return {"wall_s": statistics.median(s[0] for s in samples),
                "cpu_s": statistics.median(s[1] for s in samples),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": statistics.median(s[2] for s in samples),
                "err_ref": 1.0 + self.worst_ratio}

    def traced(self) -> dict:
        pairs = []
        while True:
            t0 = time.perf_counter()
            plain_wall = self.invoke(traced=False)[0]
            wall, _cpu, _rss, out, spans_path = self.invoke(traced=True)
            try:
                meta, spans = _tracer.load(spans_path)
            except (OSError, ValueError, KeyError):
                chk = _checks.Checks()
                chk.flag("trace_spans_written", False)
                self._record(chk)
                meta, spans = {}, []
            self.child_view = meta.get("child", self.child_view)
            m = layer_metrics(spans, wall, plain_wall)
            m["cli.bytes_written"] = _dir_bytes(out) if out.is_dir() else 0
            pairs.append(m)
            if not self.more(time.perf_counter() - t0):
                break
        self.samples = len(pairs)
        return {k: statistics.median(m[k] for m in pairs) for k in PER_LAYER}

    def header(self, traced_metrics: dict | None) -> dict:
        hdr = {"workload": self.workload, "seed": self.seed, "params": self.p,
               "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
               "python": platform.python_version(), "git_commit": _git_commit(),
               "child": self.child_view}
        if traced_metrics is not None and self.p["command"] == "converge":
            # threads that ran the sweep's rows, as the spans recorded them
            hdr["sweep_pool_size"] = int(traced_metrics["measures.sweep_threads"])
        return hdr


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        run = Run(workload, seed, seconds, workdir)
        if trace:
            values = run.traced()
            units = PER_LAYER
        else:
            values = run.untraced()
            units = END_TO_END
        print("header " + json.dumps(run.header(values if trace else None), sort_keys=True))
        for name, unit in units.items():
            shown = int(values[name]) if unit in ("count", "B") else f"{values[name]:.6g}"
            print(f"{workload} {name} = {shown} {unit}")
        print(f"{workload} fail_frac = {run.failed / max(run.attempted, 1):.6g} 1 "
              f"({run.failed} of {run.attempted} checks failed; "
              f"{run.samples} invocation(s) measured)")
        for name, _passed, dev, tol in run.failures:
            print(f"{workload} FAILED {name}" + ("" if dev is None else f" {dev!r} > {tol!r}"))
        return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
                "metrics": {name: {"value": values[name], "unit": unit}
                            for name, unit in units.items()}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*_workloads.BASE, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "revtone" / "__init__.py", _checks.ORACLES) if not p.is_file()]
    if missing:
        print("bench: not a revtone checkout, missing " + ", ".join(map(str, missing)),
              file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in _workloads.BASE}
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": {w: r["metrics"] for w, r in results.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
