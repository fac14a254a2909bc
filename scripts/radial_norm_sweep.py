#!/usr/bin/env python3
"""Sweep the radial norm-formula estimates across the example spaces.

Writes one CSV per space with (r, estimate, direct) rows, the last at r = 1,
and a combined SVG of the relative gaps over the schedule radii; prints the
exact r = 1 limit against the direct norm. Usage:
python scripts/radial_norm_sweep.py [OUTDIR]
"""

import sys

import numpy as np

from hbspace.analysis import LimitSchedule, norm_limit_estimate
from hbspace.catalog import named_space
from hbspace.reporting import line_plot, write_csv

OUT = sys.argv[1] if len(sys.argv) > 1 else "out"
SPACES = ["h2", "rank1-half", "cusp", "dirichlet-pair"]
TEST_FUNCTION = np.array([0.0, 1.0, 0.5, -0.25j])


def main():
    schedule = LimitSchedule(4, 10)
    gaps = {}
    radii = schedule.radii
    for name in SPACES:
        space = named_space(name)
        direct = space.poly_norm_sq(TEST_FUNCTION)
        est = norm_limit_estimate(space, TEST_FUNCTION, schedule)
        rows = [(r, v, direct) for r, v in est.rows] + [(1.0, est.final, direct)]
        write_csv(f"{OUT}/norm_sweep_{name}.csv", ["r", "estimate", "direct"],
                  rows, {"space": name})
        gaps[name] = [abs(v - direct) / direct for _, v in est.rows]
        print(f"{name:16s} direct={direct:.15g} final={est.final:.15g} "
              f"gap={abs(est.final - direct) / direct:.2e}")
    line_plot(f"{OUT}/norm_sweep_gaps.svg", radii, gaps,
              title="relative gap of the radial norm estimate",
              xlabel="r", ylabel="relative gap")


if __name__ == "__main__":
    main()
