#!/usr/bin/env python3
"""Coarse flow experiment on a knotted genus-1 tube.

A constant band force drives a tangential jet on half of the tube; the
incompressibility constraint makes the response global, and on a genus-1
surface the harmonic component picks up the net circulation along the tube
while the streamfunction part carries the local vortical motion.  The run
writes VTK snapshots of the velocity and its two parts plus a CSV time
series, and prints the energy split at a few times.

The run is configs/nse_trefoil.cfg with t_end = n_steps * dt and a snapshot
every n_steps // 10 steps (at least every step).

Usage: python scripts/run_trefoil_experiment.py [out_dir] [n_steps]
"""

import dataclasses
import os
import sys

import numpy as np

from surfhodge import meshes
from surfhodge.config import load_simulation_config
from surfhodge.flow import run_simulation

CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs",
                      "nse_trefoil.cfg")


def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "out/trefoil"
    n_steps = int(sys.argv[2]) if len(sys.argv) > 2 else 500
    config, values = load_simulation_config(CONFIG)
    mesh = meshes.resolve(values["mesh"])
    config = dataclasses.replace(config, t_end=n_steps * config.dt,
                                 output_every=max(n_steps // 10, 1))
    result = run_simulation(mesh, config, out_dir=out_dir)
    rec = result.records
    print(f"harmonic space dimension: {result.basis.dimension}")
    print("     t    kinetic energy   |u_harm|    |u_rot|")
    for idx in np.linspace(0, len(rec) - 1, 6).astype(int):
        t, ke, hn, rn = rec[idx, :4]
        print(f"{t:7.2f}   {ke:14.6e}   {hn:8.4f}   {rn:8.4f}")
    print(f"outputs in {out_dir}: {len(result.output_files)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
