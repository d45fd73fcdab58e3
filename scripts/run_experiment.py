#!/usr/bin/env python3
"""Run a Navier-Stokes experiment config and print its energy split.

The experiments are configs/nse_trefoil.cfg, a band force driving a jet on
a knotted genus-1 tube, and configs/nse_pierced_sphere.cfg, a tilted rigid
rotation on a sphere with four no-slip holes (b1 = 3); in each the harmonic
part carries the net circulation.  The run is CONFIG with t_end = n_steps *
dt and a snapshot every n_steps // 10 steps (at least every step); n_steps
defaults to the config's own, t_end / dt rounded.  It writes VTK snapshots
of the velocity and its two parts and a CSV time series to out_dir (by
default out/<config name without nse_>), and prints the kinetic energy,
|u_harm|, |u_rot| and the harmonic coefficients at six times.

Usage: python scripts/run_experiment.py CONFIG [out_dir] [n_steps]
"""

import dataclasses
import os
import sys

import numpy as np

from surfhodge import meshes
from surfhodge.config import load_simulation_config
from surfhodge.flow import run_simulation


def main() -> int:
    if len(sys.argv) < 2:
        sys.exit("usage: python scripts/run_experiment.py CONFIG [out_dir] [n_steps]")
    path = sys.argv[1]
    name = os.path.splitext(os.path.basename(path))[0].removeprefix("nse_")
    out_dir = sys.argv[2] if len(sys.argv) > 2 else os.path.join("out", name)
    config, values = load_simulation_config(path)
    n_steps = int(sys.argv[3]) if len(sys.argv) > 3 else round(config.t_end / config.dt)
    mesh = meshes.resolve(values["mesh"])
    config = dataclasses.replace(config, t_end=n_steps * config.dt,
                                 output_every=max(n_steps // 10, 1))
    result = run_simulation(mesh, config, out_dir=out_dir)
    rec = result.records
    print(f"harmonic space dimension: {result.basis.dimension}")
    print("      t    kinetic energy   |u_harm|    |u_rot|   h coefficients")
    for idx in np.linspace(0, len(rec) - 1, 6).astype(int):
        t, ke, hn, rn = rec[idx, :4]
        hs = ", ".join(f"{v:+.4f}" for v in rec[idx, 4:])
        print(f"{t:8.3f}   {ke:14.6e}   {hn:8.4f}   {rn:8.4f}   [{hs}]")
    print(f"outputs in {out_dir}: {len(result.output_files)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
