#!/usr/bin/env python3
"""Sweep a family of ellipsoid profiles and tabulate their limit data.

For each aspect ratio this writes a density/CDF table and collects the
equator geometry, mass constant, and boundary frequencies into one
summary JSON, so the deformation away from the round sphere is easy to
plot from a single run.

Usage:
    python scripts/profile_family_study.py --aspects 0.7 1.0 1.3 2.0 --out results/family
"""
import argparse
import csv
import json
import os

import numpy as np

from revtone import (
    ActionEvaluator,
    frequencies,
    limit_cdf,
    limit_density_unnorm,
    make_ellipsoid,
    make_round_sphere,
    normalization_M,
)


def profile_for(aspect: float):
    if aspect == 1.0:
        return make_round_sphere()
    return make_ellipsoid(aspect)


def density_rows(ev, n: int):
    rows = []
    for k in range(1, n):
        c = -1.0 + 2.0 * k / n
        unnorm = limit_density_unnorm(ev, c)
        rows.append((c, unnorm, limit_cdf(ev, c)))
    return rows


def study_aspect(aspect: float, n: int, out_dir: str) -> dict:
    profile = profile_for(aspect)
    ev = ActionEvaluator(profile)
    mass = normalization_M(ev)

    path = os.path.join(out_dir, f"density_aspect_{aspect:g}.csv")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["c", "density_unnorm", "cdf"])
        for c, unnorm, cdf in density_rows(ev, n):
            writer.writerow([repr(float(x)) for x in (c, unnorm, cdf)])

    omega1_half, omega2_half = frequencies(ev, 0.5)
    return {
        "aspect": aspect,
        "profile": profile.name,
        "meridian_length": profile.L,
        "equator_r": profile.r0,
        "equator_radius": profile.a_r0,
        "mass_constant": mass,
        "omega_at_half": [omega1_half, omega2_half],
        "omega2_at_boundary": frequencies(ev, 1.0)[1],
        "density_table": os.path.basename(path),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--aspects", type=float, nargs="+",
                        default=[0.7, 1.0, 1.3, 2.0])
    parser.add_argument("--density-n", type=int, default=400,
                        help="grid count N; rows at c = -1 + 2k/N")
    parser.add_argument("--out", default="results/family")
    args = parser.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    summary = []
    for aspect in args.aspects:
        entry = study_aspect(aspect, args.density_n, args.out)
        summary.append(entry)
        print(f"aspect {aspect:g}: L = {entry['meridian_length']:.6f}, "
              f"M = {entry['mass_constant']:.6f}, "
              f"omega2(1) = {entry['omega2_at_boundary']:.6f}")

    with open(os.path.join(args.out, "summary.json"), "w") as f:
        json.dump({"aspects": summary}, f, indent=2)
    print(f"wrote {len(summary)} tables to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
