"""The benchmark's workloads: revtone run configs generated from a seed.

Seed 0 gives the base configs exactly.  Any other seed jitters the
inputs a little (each ell by up to 2, density.n by up to 10 and kept
even, the ellipsoid-spectrum aspect within [1.25, 1.35]) so that a
claim can be rechecked on inputs nobody tuned for, while the cost of a
run stays about the same.

ellipsoid-density keeps aspect 1.3 at every seed: whether the adaptive
mu-series build stops after two of its four degrees flips between
nearby aspects (1.2705: 10 s, 1.2704: 23 s at the seed commit), which
would make a seed's cost bimodal rather than jittered.
"""
from __future__ import annotations

import random

BASE = {
    "ellipsoid-density": {"profile": "ellipsoid", "aspect": 1.3, "command": "density",
                          "density_n": 200},
    "ellipsoid-spectrum": {"profile": "ellipsoid", "aspect": 1.3, "command": "spectrum",
                           "grid_size": 4000, "ells": (25, 50, 100)},
    "sphere-converge": {"profile": "round_sphere", "command": "converge", "grid_size": 4000,
                        "ells": (50, 100, 150, 200), "symbol": "cos(r)^2"},
}

def params(name: str, seed: int) -> dict:
    """Run parameters of workload `name` at `seed`."""
    p = dict(BASE[name])
    if seed == 0:
        return p
    rng = random.Random(f"{name}/{seed}")
    if p["command"] == "spectrum":
        p["aspect"] = round(rng.uniform(1.25, 1.35), 4)
    if "density_n" in p:
        # even, so that c = 0 is a grid point and cdf(0) = 1/2 can be checked
        p["density_n"] += 2 * rng.randint(-5, 5)
    if "ells" in p:
        p["ells"] = tuple(ell + rng.randint(-2, 2) for ell in p["ells"])
    return p


def config_text(p: dict) -> str:
    lines = [f"profile.kind = {p['profile']}"]
    if p["profile"] == "ellipsoid":
        lines.append(f"profile.aspect = {p['aspect']!r}")
    if "grid_size" in p:
        lines.append(f"spectral.grid_size = {p['grid_size']}")
    lines.append(f"run.command = {p['command']}")
    if "ells" in p:
        lines.append("run.ells = " + ", ".join(str(ell) for ell in p["ells"]))
    if "density_n" in p:
        lines.append(f"density.n = {p['density_n']}")
    if "symbol" in p:
        lines.append("symbol.kind = radial_mult")
        lines.append(f"symbol.expr = {p['symbol']}")
    return "\n".join(lines) + "\n"


def artifacts(p: dict) -> list:
    """Files a successful run writes into its output directory."""
    if p["command"] == "density":
        return ["density.csv"]
    if p["command"] == "spectrum":
        return [f"slice_{ell}.csv" for ell in p["ells"]]
    return ["converge.json", "converge.csv"]
