#!/usr/bin/env python3
"""Tabulate the reverse-Carleson constant, the kernel density h2 at the deep
radius and the minimal boundary density g for the symbol-backed example
spaces, plus the exact criterion for a family of one-atom Dirichlet
measures sliding toward the boundary.

Usage: python scripts/carleson_densities.py [OUTDIR]
"""

import sys

import numpy as np

from hbspace.analysis import dirichlet_reverse_carleson, reverse_carleson
from hbspace.catalog import named_space
from hbspace.reporting import write_csv
from hbspace.symbols import MeasureSpec

OUT = sys.argv[1] if len(sys.argv) > 1 else "out"


def main():
    for name in ("h2", "rank1-half", "cusp"):
        rc = reverse_carleson(named_space(name))
        write_csv(f"{OUT}/carleson_{name}.csv", ["lam", "h2", "g"],
                  list(zip(rc.lam, rc.h2, rc.g)),
                  {"space": name, "admits": rc.admits, "constant": rc.constant,
                   "radius_h2": rc.radius_h2})
        print(f"{name:12s} admits={rc.admits}  constant={rc.constant:.16g}")

    rows = []
    for radius in np.linspace(0.0, 0.999, 12):
        rep = dirichlet_reverse_carleson(MeasureSpec(atoms=[(radius, 1.0)]))
        rows.append((radius, rep.admits, rep.integral, rep.h_at(1.0)))
        print(f"atom at {radius:.3f}: admits={rep.admits} "
              f"integral={rep.integral:.4g} h(1)={rep.h_at(1.0):.6g}")
    write_csv(f"{OUT}/carleson_dirichlet_family.csv",
              ["atom_radius", "admits", "integral", "h_at_one"], rows)


if __name__ == "__main__":
    main()
