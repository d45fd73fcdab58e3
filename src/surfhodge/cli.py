"""Command line interface.

Verbs: topology | harmonic | decompose | stokes | nse | verify.
Exit codes: 0 success, 3 algorithmic failure, 4 solver failure or out of
memory, 2 input error (every other package error).  Every command prints a
human-readable summary; the last stdout line is a JSON object for machine
consumption.  With --out-dir, output files plus a run manifest (config
snapshot, mesh checksum, seed, phase timings, peak resident size, output
list, and the environment that sets the bits) are written there.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import time

import numpy as np
import scipy

from . import __version__, assembly as asm, meshes, vtkio
from .config import expression_forcing, parse_config_file, simulation_config_from_dict
from .errors import (AlgorithmError, MeshInputError, NaNDetected, NonpositiveParameter,
                     SolverError, SurfHodgeError)
from .fespace import FeField
from .flow import FlowOperators, run_simulation
from .linalg import FactorizedOperator, mnorm
from .hodge import HarmonicBasis, HodgeSolver, verify_dimension
from .mesh import analyze_topology


try:  # numpy's bundled OpenBLAS (a numpy wheel's libscipy_openblas64_); None where it has none
    _LIBS = os.path.dirname(np.__file__) + ".libs"
    _OPENBLAS = ctypes.CDLL(os.path.join(_LIBS, next(
        name for name in os.listdir(_LIBS) if name.startswith("libscipy_openblas64_"))))
    _OPENBLAS_CONFIG = _OPENBLAS.scipy_openblas_get_config64_
    _OPENBLAS_THREADS = _OPENBLAS.scipy_openblas_get_num_threads64_
    _OPENBLAS_CONFIG.argtypes, _OPENBLAS_CONFIG.restype = [], ctypes.c_char_p
    _OPENBLAS_THREADS.argtypes, _OPENBLAS_THREADS.restype = [], ctypes.c_int
except (StopIteration, AttributeError, OSError):  # OSError: no such directory
    _OPENBLAS_CONFIG = _OPENBLAS_THREADS = None


def _environment() -> dict:
    """What sets an output's bits besides the inputs: the numpy and scipy
    versions, numpy's BLAS configuration (the string its OpenBLAS reports,
    with the kernel it chose for this CPU) and numpy's OpenBLAS thread
    count; the last two are None where numpy bundles no OpenBLAS."""
    found = _OPENBLAS_THREADS is not None
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": _OPENBLAS_CONFIG().decode() if found else None,
            "blas_threads": _OPENBLAS_THREADS() if found else None}


class RunManifest:
    """One CLI invocation: its environment, phase timings, mesh checksum,
    peak resident size and output files.  `finish` is the run tail every
    command shares."""

    def __init__(self, args):
        self.out_dir = args.out_dir
        self.data = {
            "tool": "surfhodge",
            "version": __version__,
            "command": args.command,
            "config": {k: v for k, v in vars(args).items()
                       if isinstance(v, (str, int, float, bool, type(None)))},
            "mesh_checksum": None,
            "seed": getattr(args, "seed", None),
            "environment": _environment(),
            "timings_s": {},
            "peak_rss_mb": None,
            "outputs": [],
        }
        self._t0 = time.perf_counter()
        self._phase = None

    def phase(self, name: str):
        now = time.perf_counter()
        if self._phase is not None:
            self.data["timings_s"][self._phase] = round(now - self._t0, 6)
        self._phase, self._t0 = name, now

    def mesh(self, spec: str):
        """The mesh of a spec (meshes.resolve), its checksum recorded."""
        mesh = meshes.resolve(spec)
        self.data["mesh_checksum"] = mesh.checksum()
        return mesh

    def finish(self, lines, payload: dict, *writers) -> int:
        """With --out-dir, call each writer with the directory (it returns
        the path or the list of paths it wrote), list those paths under
        outputs and write manifest.json.  Then print the summary lines and
        the payload as the last stdout line.  A payload number that is not
        finite raises NaNDetected before anything is written."""
        try:
            json.dumps(payload, allow_nan=False)
        except ValueError:  # NaN or infinity
            raise NaNDetected(f"non-finite number in the {self.data['command']} result") from None
        if self.out_dir:
            self.phase("write")
            os.makedirs(self.out_dir, exist_ok=True)
            for write in writers:
                written = write(self.out_dir)
                self.data["outputs"] += [written] if isinstance(written, str) else written
            self.phase("done")
            self.data["peak_rss_mb"] = round(_peak_rss_mb(), 1)
            with open(os.path.join(self.out_dir, "manifest.json"), "w") as fh:
                json.dump(self.data, fh, indent=2)
        for line in lines:
            print(line)
        print(json.dumps(payload))
        return 0


def _peak_rss_mb() -> float:
    """This process's peak resident size in MiB: VmHWM where /proc has it
    (on Linux ru_maxrss keeps a parent's peak across exec), else ru_maxrss."""
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
    except (OSError, StopIteration):
        import resource  # POSIX only

        scale = 1 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes on macOS, KiB elsewhere
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale / 2**20


def _json_file(name: str, data):
    """A writer of `data` as the JSON file `name`."""
    def write(out_dir):
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2)
        return path
    return write


# ----------------------------------------------------------------- commands
def cmd_topology(args) -> int:
    manifest = RunManifest(args)
    manifest.phase("load")
    mesh = manifest.mesh(args.mesh)
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
    return manifest.finish(lines, payload, _json_file("topology.json", payload))


def cmd_harmonic(args) -> int:
    manifest = RunManifest(args)
    manifest.phase("load")
    mesh = manifest.mesh(args.mesh)
    manifest.phase("basis")
    solver = HodgeSolver(mesh, args.k)
    basis = solver.harmonic_basis(seed=args.seed)
    payload = {
        "b1": basis.dimension,
        "k": args.k,
        "seed": args.seed,
        "attempts": basis.n_attempts,
        "gram_residual": basis.gram_residual,
    }
    lines = [
        f"harmonic space dimension b1 = {basis.dimension} (degree {args.k})",
        f"drawn as a block of {basis.n_attempts} fields; Gram residual {basis.gram_residual:.2e}",
    ]

    def save_basis(out_dir):
        payload["basis_file"] = os.path.join(out_dir, "harmonic_basis.json")
        basis.save_json(payload["basis_file"])
        return payload["basis_file"]

    return manifest.finish(lines, payload, save_basis)


def _decompose_input(args, solver: HodgeSolver, f) -> FeField:
    rng = np.random.default_rng(args.field_seed)
    if args.field_mode == "random":
        return FeField(solver.V, rng.standard_normal(solver.V.total_dofs))
    if args.field_mode == "rot":
        psi = rng.standard_normal(solver.S.total_dofs)
        return FeField(solver.V, solver.E @ psi)
    load = asm.assemble_load(solver.V, f)
    return FeField(solver.V, FactorizedOperator(solver.M).solve(load))


def cmd_decompose(args) -> int:
    manifest = RunManifest(args)
    manifest.phase("load")
    mesh = manifest.mesh(args.mesh)
    # the field options are checked before the set-up; only expression mode reads --fx/--fy/--fz
    if args.field_seed < 0:
        raise NonpositiveParameter(f"--field-seed must be nonnegative, got {args.field_seed}")
    f = expression_forcing(args.fx, args.fy, args.fz) if args.field_mode == "expression" else None
    manifest.phase("basis")
    solver = HodgeSolver(mesh, args.k)
    if args.basis:
        basis = HarmonicBasis.load_json(args.basis)
        solver.validate_basis(basis)
    else:
        basis = solver.harmonic_basis(seed=args.seed)
    manifest.phase("decompose")
    v = _decompose_input(args, solver, f)
    comp = solver.decompose(v, basis)
    M = solver.M
    with np.errstate(over="ignore", invalid="ignore"):  # finish reports a non-finite norm
        norms = {
            "input_norm": mnorm(v.coefficients, M),
            "rot_norm": mnorm(comp.rot_part, M),
            "harmonic_norm": mnorm(comp.h_coeffs),
            "gradient_norm": mnorm(comp.gradient_part, M),
            "residual": comp.residual_norm,
        }
        # squares of the norms scaled by the power of 2 of the largest, an
        # exact scaling: the gap overflows only when it is itself too large
        _, e = np.frexp(max(norms.values()))
        v_sq, *parts_sq = (y * y for y in np.ldexp(list(norms.values()), -e))
        norms["pythagoras_gap"] = float(np.ldexp(abs(v_sq - sum(parts_sq)), 2 * e))
    lines = [
        f"decomposed field (degree {args.k}, b1 = {basis.dimension})",
        f"  |v| = {norms['input_norm']:.6g}",
        f"  |rot part| = {norms['rot_norm']:.6g}  |harmonic| = {norms['harmonic_norm']:.6g}"
        f"  |gradient| = {norms['gradient_norm']:.6g}",
        f"  reconstruction residual = {norms['residual']:.3e}",
    ]
    return manifest.finish(
        lines, norms,
        lambda out_dir: vtkio.write_decomposition_vtk(
            os.path.join(out_dir, "decomposition.vtk"), solver.V, v, comp),
        _json_file("decomposition.json", norms))


def _flow_setup(args, manifest: RunManifest):
    """Mesh, SimulationConfig and optional basis of a stokes or nse run:
    the config file with --k, --seed, --mesh and --basis overriding it."""
    values = parse_config_file(args.config)
    values.update({key: getattr(args, key) for key in ("k", "seed")
                   if getattr(args, key) is not None})
    config = simulation_config_from_dict(values)
    manifest.data["config"] = {**values, "command_line": manifest.data["config"]}
    manifest.data["seed"] = config.seed
    mesh_spec = args.mesh or values.get("mesh")
    if not mesh_spec:
        raise MeshInputError("no mesh given (config key 'mesh' or --mesh)")
    mesh = manifest.mesh(str(mesh_spec))
    basis_path = args.basis or values.get("basis")
    basis = HarmonicBasis.load_json(str(basis_path)) if basis_path else None
    return mesh, config, basis


def cmd_stokes(args) -> int:
    manifest = RunManifest(args)
    manifest.phase("setup")
    mesh, config, basis = _flow_setup(args, manifest)
    ops = FlowOperators(mesh, config, basis=basis)
    if not args.compare_saddle:
        vars(ops.hodge).pop("right_inverse", None)  # only the oracle reads the pressure side
    manifest.phase("solve")
    state, info = ops.stokes_reduced()
    del ops.A_red  # read last by the reduced solve; the oracle's factor lands without it
    un = mnorm(state.u.coefficients, ops.M)
    payload = {
        "kinetic_energy": state.kinetic_energy,
        "velocity_norm": un,
        "harmonic_coeffs": state.h_coeffs.tolist(),
        "div_norm": asm.divergence_norm(ops.V, state.u.coefficients),
        "sparse_solves": info["sparse_solves"],
        "refinement_solves": info["refinement_solves"],
    }
    lines = [
        f"stokes solve: |u| = {un:.6g}, kinetic energy = {state.kinetic_energy:.6g}",
        f"harmonic coefficients: {state.h_coeffs.tolist()}",
        f"divergence norm: {payload['div_norm']:.3e}  "
        f"({info['sparse_solves']} sparse solves)",
    ]
    if args.compare_saddle:
        manifest.phase("saddle")
        # the reconstructed pressure starts the oracle and is compared with
        # its answer, which does not depend on the start
        p_rec = ops.reconstruct_pressure(state)
        u_s, p_s = ops.stokes_saddle(pressure=p_rec)
        rel = _relative_gap(state.u, u_s, ops.M)
        # both pressures are zero-mean already: compare them directly
        rel_p = _relative_gap(p_rec, p_s, ops.pressure_mass)
        payload["saddle_velocity_discrepancy"] = rel
        payload["saddle_pressure_discrepancy"] = rel_p
        lines.append(f"saddle-point cross-check: velocity discrepancy {rel:.3e}, "
                     f"pressure discrepancy {rel_p:.3e}")
    return manifest.finish(
        lines, payload,
        lambda out_dir: vtkio.write_flow_snapshot(out_dir, 0, ops, state),
        _json_file("stokes.json", payload))


def _relative_gap(x, ref, M) -> float:
    """|x - ref|_M / |ref|_M for two fields."""
    return mnorm(x.coefficients - ref.coefficients, M) / max(mnorm(ref.coefficients, M), 1e-300)


def cmd_nse(args) -> int:
    manifest = RunManifest(args)
    manifest.phase("setup")
    mesh, config, basis = _flow_setup(args, manifest)
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
    # run_simulation has written the files already; the tail only lists them
    return manifest.finish(lines, payload, lambda out_dir: payload["outputs"])


def cmd_verify(args) -> int:
    if args.k_max < 0:
        raise NonpositiveParameter(f"--k-max must be nonnegative, got {args.k_max}")
    manifest = RunManifest(args)
    manifest.phase("checks")
    if args.mesh:
        corpus = {"input": manifest.mesh(args.mesh)}
    else:
        corpus = {name: meshes.BUILTIN[name]()
                  for name in ("tetrahedron", "torus", "genus2", "sphere_4holes")}
    checks = []

    def check(name, ok, detail=""):
        checks.append({"name": name, "pass": bool(ok), "detail": detail})
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))

    for name, mesh in corpus.items():
        topo = analyze_topology(mesh)
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
            basis = solver.harmonic_basis(seed=args.seed)
            ok = basis.dimension == topo.b1 and basis.gram_residual <= 1e-10
            detail = f"b1 {basis.dimension} vs {topo.b1}, gram {basis.gram_residual:.1e}"
            if ok:  # each field divergence-free and orthogonal to rot
                ok = all(asm.divergence_norm(solver.V, h) <= 1e-10
                         and np.abs(solver.E.T @ (solver.M @ h)).max() <= 1e-10
                         for h in basis.vectors)
            check(f"{name}: harmonic basis k={k}", ok, detail)
    n_fail = sum(not c["pass"] for c in checks)
    manifest.finish([], {"failures": n_fail, "checks": len(checks)},
                    _json_file("verify.json", {"checks": checks, "failures": n_fail}))
    if n_fail:
        raise AlgorithmError(f"{n_fail} verification checks failed")
    return 0


# -------------------------------------------------------------------- main
# Options that several verbs share, each declared once; build_parser
# names the verbs that take each of them.
_SHARED_OPTIONS = {
    "--mesh": dict(help="mesh file (.off/.obj) or builtin:<name>; for stokes and nse "
                        "it overrides the config's mesh, for verify it replaces the corpus"),
    "--k": dict(type=int, default=0),
    "--seed": dict(type=int, default=0),
    "--basis": dict(default=None, help="harmonic basis JSON to reuse"),
    "--out-dir": dict(default=None),
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are input errors, which main
    reports in one line with exit 2; --help and --version exit as usual."""

    def error(self, message):
        raise SurfHodgeError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="surfhodge",
        description="Helmholtz-Hodge decompositions and pressure-free "
                    "Stokes/Navier-Stokes solvers on triangulated surfaces.")
    p.add_argument("--version", action="version", version=f"surfhodge {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def verb(name, fn, hlp, shared, required=()):
        sp = sub.add_parser(name, help=hlp)
        for flag in shared:
            sp.add_argument(flag, required=flag in required, **_SHARED_OPTIONS[flag])
        sp.set_defaults(fn=fn)
        return sp

    verb("topology", cmd_topology, "entity counts, Euler characteristic, Betti numbers",
         ("--mesh", "--out-dir"), required=("--mesh",))
    verb("harmonic", cmd_harmonic, "construct the orthonormal harmonic basis",
         ("--mesh", "--k", "--seed", "--out-dir"), required=("--mesh",))
    sp = verb("decompose", cmd_decompose, "three-way decomposition of a vector field",
              ("--mesh", "--k", "--seed", "--basis", "--out-dir"),
              required=("--mesh",))
    sp.add_argument("--field-mode", choices=("random", "rot", "expression"),
                    default="random")
    sp.add_argument("--field-seed", type=int, default=0)
    sp.add_argument("--fx", default="0")
    sp.add_argument("--fy", default="0")
    sp.add_argument("--fz", default="0")

    for name, fn, hlp in (("stokes", cmd_stokes, "steady Stokes solve"),
                          ("nse", cmd_nse, "unsteady Navier-Stokes run")):
        sp = verb(name, fn, hlp, ("--mesh", "--k", "--seed", "--basis", "--out-dir"))
        sp.add_argument("--config", required=True, help="key = value config file")
        sp.set_defaults(k=None, seed=None)  # unset: the config's value
        if name == "stokes":
            sp.add_argument("--compare-saddle", action="store_true")

    sp = verb("verify", cmd_verify, "dimension and invariant suites",
              ("--mesh", "--seed", "--out-dir"))
    sp.add_argument("--k-max", type=int, default=2)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except AlgorithmError as exc:
        print(f"algorithmic failure: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4
    except SurfHodgeError as exc:  # MeshInputError and every other input error
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # outside a factor, which reports it as SolverFailure
        print(f"out of memory: {exc}" if str(exc) else "out of memory", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
