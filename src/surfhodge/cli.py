"""Command line interface.

Verbs: topology | harmonic | decompose | stokes | nse | verify.
Exit codes: 0 success, 3 algorithmic failure, 4 solver failure, 2 input
error (every other package error).  Every command prints a human-readable
summary; the last stdout line is a JSON object for machine consumption.
With --out-dir, output files plus a run manifest (config snapshot, mesh
checksum, seed, phase timings, output list) are written there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__, assembly as asm, meshes, vtkio
from .config import (
    expression_forcing,
    load_simulation_config,
    parse_config_file,
    simulation_config_from_dict,
)
from .errors import AlgorithmError, MeshInputError, SolverError, SurfHodgeError
from .fespace import FeField, build_space, count_dofs
from .flow import FlowOperators, run_simulation
from .hodge import HarmonicBasis, HodgeSolver, verify_dimension
from .mesh import analyze_topology, load_mesh

MESH_BUILDERS = dict(meshes.CORPUS_BUILDERS)
MESH_BUILDERS.update({
    "genus2_chain": lambda: meshes.genus_g_torus_chain(2),
    "flat_patch": lambda: meshes.flat_patch(4),
    "square": meshes.square_two_triangles,
})


class RunManifest:
    """Phase timings and output records of one CLI invocation."""

    def __init__(self, command: str, args_snapshot: dict):
        self.data = {
            "tool": "surfhodge",
            "version": __version__,
            "command": command,
            "config": args_snapshot,
            "mesh_checksum": None,
            "seed": args_snapshot.get("seed"),
            "timings_s": {},
            "outputs": [],
        }
        self._t0 = time.perf_counter()
        self._phase = None

    def phase(self, name: str):
        now = time.perf_counter()
        if self._phase is not None:
            self.data["timings_s"][self._phase] = round(now - self._t0, 6)
        self._phase, self._t0 = name, now

    def add_output(self, path) -> str:
        self.data["outputs"].append(str(path))
        return str(path)

    def write(self, out_dir) -> str:
        self.phase("done")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(str(out_dir), "manifest.json")
        with open(path, "w") as fh:
            json.dump(self.data, fh, indent=2)
        return path


def _args_snapshot(args) -> dict:
    return {k: v for k, v in vars(args).items()
            if isinstance(v, (str, int, float, bool, type(None)))}


def _resolve_mesh(spec: str):
    if spec.startswith("builtin:"):
        name = spec.split(":", 1)[1]
        if name not in MESH_BUILDERS:
            raise MeshInputError(
                f"unknown builtin mesh {name!r}; available: {sorted(MESH_BUILDERS)}")
        return MESH_BUILDERS[name]()
    return load_mesh(spec)


def _emit(summary_lines, payload: dict):
    for line in summary_lines:
        print(line)
    print(json.dumps(payload))


# ----------------------------------------------------------------- commands
def cmd_topology(args) -> int:
    manifest = RunManifest("topology", {"mesh": args.mesh})
    manifest.phase("load")
    mesh = _resolve_mesh(args.mesh)
    manifest.data["mesh_checksum"] = mesh.checksum()
    manifest.phase("analyze")
    topo = analyze_topology(mesh)
    payload = topo.to_dict()
    payload["orientation_repaired"] = mesh.orientation_repaired
    payload["boundary_loops"] = len(mesh.boundary_loops)
    lines = [
        f"vertices {topo.n_vertices}  edges {topo.n_edges}  triangles {topo.n_triangles}",
        f"euler characteristic {topo.euler_characteristic}  components {topo.n_components}",
        f"betti numbers b0={topo.b0} b1={topo.b1} b2={topo.b2}  "
        f"closed={topo.closed}  boundary loops={len(mesh.boundary_loops)}",
    ]
    if args.out_dir:
        manifest.phase("write")
        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(args.out_dir, "topology.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
        manifest.add_output(path)
        manifest.write(args.out_dir)
    _emit(lines, payload)
    return 0


def cmd_harmonic(args) -> int:
    manifest = RunManifest("harmonic", {
        "mesh": args.mesh, "k": args.k, "seed": args.seed, "tol": args.tol})
    manifest.phase("load")
    mesh = _resolve_mesh(args.mesh)
    manifest.data["mesh_checksum"] = mesh.checksum()
    manifest.phase("basis")
    solver = HodgeSolver(mesh, args.k)
    basis = solver.harmonic_basis(seed=args.seed, tol=args.tol)
    payload = {
        "b1": basis.dimension,
        "k": args.k,
        "seed": args.seed,
        "attempts": basis.n_attempts,
        "gram_residual": basis.gram_residual,
    }
    lines = [
        f"harmonic space dimension b1 = {basis.dimension} (degree {args.k})",
        f"accepted after {basis.n_attempts} draws; Gram residual {basis.gram_residual:.2e}",
    ]
    if args.out_dir:
        manifest.phase("write")
        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(args.out_dir, "harmonic_basis.json")
        basis.save_json(path)
        payload["basis_file"] = manifest.add_output(path)
        manifest.write(args.out_dir)
    _emit(lines, payload)
    return 0


def _decompose_input(args, solver: HodgeSolver) -> FeField:
    rng = np.random.default_rng(args.field_seed)
    if args.field_mode == "random":
        return FeField(solver.V, rng.standard_normal(solver.V.total_dofs))
    if args.field_mode == "rot":
        psi = rng.standard_normal(solver.S.total_dofs)
        return FeField(solver.V, solver.E @ psi)
    f = expression_forcing(args.fx, args.fy, args.fz)
    load = asm.assemble_load(solver.V, f, time=0.0)
    return FeField(solver.V, solver.mass_operator.solve(load))


def cmd_decompose(args) -> int:
    manifest = RunManifest("decompose", {
        "mesh": args.mesh, "k": args.k, "seed": args.seed,
        "field_mode": args.field_mode, "field_seed": args.field_seed})
    manifest.phase("load")
    mesh = _resolve_mesh(args.mesh)
    manifest.data["mesh_checksum"] = mesh.checksum()
    manifest.phase("basis")
    solver = HodgeSolver(mesh, args.k)
    if args.basis:
        basis = HarmonicBasis.load_json(args.basis)
    else:
        basis = solver.harmonic_basis(seed=args.seed)
    manifest.phase("decompose")
    v = _decompose_input(args, solver)
    comp = solver.decompose(v, basis)
    M = solver.M

    def mnorm(c):
        return float(np.sqrt(max(c @ (M @ c), 0.0)))

    norms = {
        "input_norm": mnorm(v.coefficients),
        "rot_norm": mnorm(comp.rot_part),
        "harmonic_norm": float(np.linalg.norm(comp.h_coeffs)),
        "gradient_norm": mnorm(comp.gradient_part),
        "residual": comp.residual_norm,
    }
    norms["pythagoras_gap"] = abs(
        norms["input_norm"] ** 2
        - (norms["rot_norm"] ** 2 + norms["harmonic_norm"] ** 2
           + norms["gradient_norm"] ** 2 + norms["residual"] ** 2))
    lines = [
        f"decomposed field (degree {args.k}, b1 = {basis.dimension})",
        f"  |v| = {norms['input_norm']:.6g}",
        f"  |rot part| = {norms['rot_norm']:.6g}  |harmonic| = {norms['harmonic_norm']:.6g}"
        f"  |gradient| = {norms['gradient_norm']:.6g}",
        f"  reconstruction residual = {norms['residual']:.3e}",
    ]
    if args.out_dir:
        manifest.phase("write")
        os.makedirs(args.out_dir, exist_ok=True)
        vtk_path = os.path.join(args.out_dir, "decomposition.vtk")
        vtkio.write_decomposition_vtk(vtk_path, mesh, solver.V, v, comp, basis)
        manifest.add_output(vtk_path)
        json_path = os.path.join(args.out_dir, "decomposition.json")
        with open(json_path, "w") as fh:
            json.dump(norms, fh, indent=2)
        manifest.add_output(json_path)
        manifest.write(args.out_dir)
    _emit(lines, norms)
    return 0


def _load_flow_setup(args):
    values = parse_config_file(args.config) if args.config else {}
    if args.k is not None:
        values["k"] = args.k
    if args.seed is not None:
        values["seed"] = args.seed
    config = simulation_config_from_dict(values)
    mesh_spec = args.mesh or values.get("mesh")
    if not mesh_spec:
        raise MeshInputError("no mesh given (config key 'mesh' or --mesh)")
    mesh = _resolve_mesh(str(mesh_spec))
    basis = None
    basis_path = getattr(args, "basis", None) or values.get("basis")
    if basis_path:
        basis = HarmonicBasis.load_json(str(basis_path))
    return mesh, config, values, basis


def cmd_stokes(args) -> int:
    manifest = RunManifest("stokes", {
        "config": args.config, "mesh": args.mesh, "k": args.k, "seed": args.seed})
    manifest.phase("setup")
    mesh, config, values, basis = _load_flow_setup(args)
    manifest.data["mesh_checksum"] = mesh.checksum()
    manifest.data["config"] = {**values, "command_line": _args_snapshot(args)}
    ops = FlowOperators(mesh, config, basis=basis)
    manifest.phase("solve")
    state, info = ops.stokes_reduced(t=0.0)
    un = np.sqrt(max(state.u.coefficients @ (ops.M @ state.u.coefficients), 0.0))
    payload = {
        "kinetic_energy": state.kinetic_energy,
        "velocity_norm": float(un),
        "harmonic_coeffs": state.h_coeffs.tolist(),
        "div_norm": asm.divergence_norm(ops.V, state.u.coefficients),
        "sparse_solves": info["sparse_solves"],
    }
    lines = [
        f"stokes solve: |u| = {un:.6g}, kinetic energy = {state.kinetic_energy:.6g}",
        f"harmonic coefficients: {state.h_coeffs.tolist()}",
        f"divergence norm: {payload['div_norm']:.3e}  "
        f"({info['sparse_solves']} sparse solves)",
    ]
    if args.compare_saddle:
        manifest.phase("saddle")
        u_s, p_s = ops.stokes_saddle(t=0.0)
        du = state.u.coefficients - u_s.coefficients
        rel = float(np.sqrt(max(du @ (ops.M @ du), 0.0)) / max(
            np.sqrt(max(u_s.coefficients @ (ops.M @ u_s.coefficients), 0.0)), 1e-300))
        p_rec = ops.reconstruct_pressure(state)
        Mq = asm.assemble_mass(ops.Q)
        mq = asm.assemble_moment(ops.Q)
        area = mq.sum()
        pr = p_rec.coefficients - (mq @ p_rec.coefficients) / area
        ps = p_s.coefficients - (mq @ p_s.coefficients) / area
        dp = pr - ps
        rel_p = float(np.sqrt(max(dp @ (Mq @ dp), 0.0)) / max(
            np.sqrt(max(ps @ (Mq @ ps), 0.0)), 1e-300))
        payload["saddle_velocity_discrepancy"] = rel
        payload["saddle_pressure_discrepancy"] = rel_p
        lines.append(f"saddle-point cross-check: velocity discrepancy {rel:.3e}, "
                     f"pressure discrepancy {rel_p:.3e}")
    if args.out_dir:
        manifest.phase("write")
        os.makedirs(args.out_dir, exist_ok=True)
        manifest.add_output(vtkio.write_flow_snapshot(args.out_dir, 0, ops, state))
        json_path = os.path.join(args.out_dir, "stokes.json")
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
        manifest.add_output(json_path)
        manifest.write(args.out_dir)
    _emit(lines, payload)
    return 0


def cmd_nse(args) -> int:
    manifest = RunManifest("nse", {
        "config": args.config, "mesh": args.mesh, "k": args.k, "seed": args.seed})
    manifest.phase("setup")
    mesh, config, values, basis = _load_flow_setup(args)
    manifest.data["mesh_checksum"] = mesh.checksum()
    manifest.data["config"] = {**values, "command_line": _args_snapshot(args)}
    manifest.phase("run")
    result = run_simulation(mesh, config, basis=basis, out_dir=args.out_dir)
    ke = result.kinetic_energy
    payload = {
        "steps": len(result.records) - 1,
        "t_end": float(result.times[-1]),
        "kinetic_energy_initial": float(ke[0]),
        "kinetic_energy_final": float(ke[-1]),
        "harmonic_norm_final": float(result.harmonic_norms[-1]),
        "b1": result.basis.dimension,
        "outputs": [str(p) for p in result.output_files],
    }
    lines = [
        f"navier-stokes run: {payload['steps']} steps to t = {payload['t_end']:g}",
        f"kinetic energy {ke[0]:.6g} -> {ke[-1]:.6g}; "
        f"final harmonic norm {payload['harmonic_norm_final']:.6g} (b1 = {payload['b1']})",
    ]
    if args.out_dir:
        manifest.phase("write")
        for p in result.output_files:
            manifest.add_output(p)
        manifest.write(args.out_dir)
    _emit(lines, payload)
    return 0


def cmd_verify(args) -> int:
    manifest = RunManifest("verify", {"mesh": args.mesh, "k_max": args.k_max})
    if args.mesh:
        corpus = {"input": _resolve_mesh(args.mesh)}
    else:
        corpus = {name: MESH_BUILDERS[name]()
                  for name in ("tetrahedron", "torus", "genus2", "sphere_4holes")}
    checks = []

    def check(name, ok, detail=""):
        checks.append({"name": name, "pass": bool(ok), "detail": detail})
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))

    for name, mesh in corpus.items():
        topo = analyze_topology(mesh)
        check(f"{name}: euler identity",
              topo.euler_characteristic == topo.n_vertices - topo.n_edges + topo.n_triangles)
        check(f"{name}: boundary edge/vertex balance",
              topo.n_boundary_edges == topo.n_boundary_vertices)
        loop_edges = sum(len(loop) for loop in mesh.boundary_loops)
        check(f"{name}: boundary loops partition boundary edges",
              loop_edges == topo.n_boundary_edges)
        counts_ok = True
        for kind, degrees in (
            ("lagrange", range(1, args.k_max + 2)),
            ("bdm", range(0, args.k_max + 1)),
            ("dg_pressure", range(0, args.k_max + 1)),
            ("crouzeix_raviart", (1,)),
            ("facet_tangential", range(0, args.k_max + 1)),
        ):
            for d in degrees:
                space = build_space(mesh, kind, d)
                if space.total_dofs != count_dofs(topo, kind, d):
                    counts_ok = False
        check(f"{name}: dof counts match closed forms", counts_ok)
        for k in range(0, args.k_max + 1):
            rep = verify_dimension(topo, k)
            check(f"{name}: dimension identity k={k}", rep.consistent,
                  f"dim J - dim rot = {rep.difference}, b1 = {rep.b1}")
        for k in range(0, min(args.k_max, 2) + 1):
            solver = HodgeSolver(mesh, k)
            BE = solver.B @ solver.E
            scale = abs(solver.B).dot(abs(solver.E)).max() if BE.nnz else 1.0
            resid = abs(BE).max() if BE.nnz else 0.0
            check(f"{name}: div o rot = 0 (k={k})", resid <= 1e-12 * max(scale, 1e-300),
                  f"residual {resid:.2e}")
            basis = solver.harmonic_basis(seed=args.seed or 0, tol=args.tol)
            ok = basis.dimension == topo.b1 and basis.gram_residual <= 1e-10
            detail = f"b1 {basis.dimension} vs {topo.b1}, gram {basis.gram_residual:.1e}"
            if ok and basis.dimension:
                div_ok = all(
                    asm.divergence_norm(solver.V, h) <= 1e-10
                    for h in basis.vectors)
                rot_ok = all(
                    np.abs(solver.E.T @ (solver.M @ h)).max() <= 1e-10
                    for h in basis.vectors)
                ok = div_ok and rot_ok
            check(f"{name}: harmonic basis k={k}", ok, detail)
    n_fail = sum(not c["pass"] for c in checks)
    payload = {"checks": checks, "failures": n_fail}
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(args.out_dir, "verify.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
        manifest.add_output(path)
        manifest.write(args.out_dir)
    print(json.dumps({"failures": n_fail, "checks": len(checks)}))
    if n_fail:
        raise AlgorithmError(f"{n_fail} verification checks failed")
    return 0


# -------------------------------------------------------------------- main
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="surfhodge",
        description="Helmholtz-Hodge decompositions and pressure-free "
                    "Stokes/Navier-Stokes solvers on triangulated surfaces.")
    p.add_argument("--version", action="version", version=f"surfhodge {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, mesh_required=True):
        sp.add_argument("--mesh", required=mesh_required,
                        help="mesh file (.off/.obj) or builtin:<name>")
        sp.add_argument("--out-dir", default=None)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--tol", type=float, default=1e-8)

    sp = sub.add_parser("topology", help="entity counts, Euler characteristic, Betti numbers")
    add_common(sp)
    sp.set_defaults(fn=cmd_topology)

    sp = sub.add_parser("harmonic", help="construct the orthonormal harmonic basis")
    add_common(sp)
    sp.add_argument("--k", type=int, default=0)
    sp.set_defaults(fn=cmd_harmonic)

    sp = sub.add_parser("decompose", help="three-way decomposition of a vector field")
    add_common(sp)
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--basis", default=None, help="harmonic basis JSON to reuse")
    sp.add_argument("--field-mode", choices=("random", "rot", "expression"),
                    default="random")
    sp.add_argument("--field-seed", type=int, default=0)
    sp.add_argument("--fx", default="0")
    sp.add_argument("--fy", default="0")
    sp.add_argument("--fz", default="0")
    sp.set_defaults(fn=cmd_decompose)

    for verb, fn, hlp in (("stokes", cmd_stokes, "steady Stokes solve"),
                          ("nse", cmd_nse, "unsteady Navier-Stokes run")):
        sp = sub.add_parser(verb, help=hlp)
        sp.add_argument("--config", required=True, help="key = value config file")
        sp.add_argument("--mesh", default=None, help="override config mesh")
        sp.add_argument("--k", type=int, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out-dir", default=None)
        sp.add_argument("--basis", default=None,
                        help="harmonic basis JSON to reuse (or config key 'basis')")
        if verb == "stokes":
            sp.add_argument("--compare-saddle", action="store_true")
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("verify", help="dimension and invariant suites")
    sp.add_argument("--mesh", default=None,
                    help="single mesh instead of the built-in corpus")
    sp.add_argument("--k-max", type=int, default=2)
    sp.add_argument("--out-dir", default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except MeshInputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except AlgorithmError as exc:
        print(f"algorithmic failure: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4
    except SurfHodgeError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
