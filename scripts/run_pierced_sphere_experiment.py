#!/usr/bin/env python3
"""Flow on a sphere with four disk holes (genus 0, b1 = 3).

A projected rigid rotation drives the flow against homogeneous no-slip
conditions on the four rims; the rotation axis is tilted relative to the
hole arrangement so that the net circulations through the holes (the three
harmonic coefficients) are nonzero.

The run is configs/nse_pierced_sphere.cfg with t_end = n_steps * dt and a snapshot
every n_steps // 10 steps (at least every step).

Usage: python scripts/run_pierced_sphere_experiment.py [out_dir] [n_steps]
"""

import dataclasses
import os
import sys

import numpy as np

from surfhodge import meshes
from surfhodge.config import load_simulation_config
from surfhodge.flow import run_simulation

CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs",
                      "nse_pierced_sphere.cfg")


def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "out/pierced_sphere"
    n_steps = int(sys.argv[2]) if len(sys.argv) > 2 else 200
    config, values = load_simulation_config(CONFIG)
    mesh = meshes.resolve(values["mesh"])
    config = dataclasses.replace(config, t_end=n_steps * config.dt,
                                 output_every=max(n_steps // 10, 1))
    result = run_simulation(mesh, config, out_dir=out_dir)
    rec = result.records
    print(f"harmonic space dimension: {result.basis.dimension}")
    print("     t    kinetic energy   |u_harm|   h coefficients")
    for idx in np.linspace(0, len(rec) - 1, 6).astype(int):
        t, ke, hn = rec[idx, :3]
        hs = ", ".join(f"{v:+.4f}" for v in rec[idx, 4:])
        print(f"{t:7.3f}   {ke:14.6e}   {hn:8.4f}   [{hs}]")
    print(f"outputs in {out_dir}: {len(result.output_files)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
