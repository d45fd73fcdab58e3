import functools
import json
import os
import re
import subprocess
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

from surfhodge import cli, config, meshes
from surfhodge.cli import build_parser, main
from surfhodge.hodge import HodgeSolver
from surfhodge.mesh import SurfaceMesh, analyze_topology, save_obj, save_off

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    payload = json.loads(out.strip().splitlines()[-1]) if out.strip() else {}
    return code, payload, out


TETRA_OFF = """OFF
4 4 0
1 1 1
1 -1 -1
-1 1 -1
-1 -1 1
3 0 1 2
3 0 3 1
3 0 2 3
3 1 3 2
"""


# ----------------------------------------------------------------- topology
def test_topology_tetra_off(tmp_path, capsys):
    path = tmp_path / "tetra.off"
    path.write_text(TETRA_OFF)
    code, payload, _ = run_cli(capsys, "topology", "--mesh", str(path))
    assert code == 0
    assert payload["b1"] == 0
    assert payload["euler_characteristic"] == 2


def test_topology_torus_obj(tmp_path, capsys):
    path = tmp_path / "torus.obj"
    save_obj(meshes.torus_structured(4, 4), path)
    code, payload, _ = run_cli(capsys, "topology", "--mesh", str(path))
    assert code == 0 and payload["b1"] == 2


def test_topology_four_hole_sphere(capsys):
    code, payload, _ = run_cli(capsys, "topology", "--mesh", "builtin:sphere_4holes")
    assert code == 0 and payload["b1"] == 3


def test_topology_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.off"
    path.write_text("garbage\n")
    assert main(["topology", "--mesh", str(path)]) == 2


def test_topology_nonmanifold_exit_2(tmp_path, capsys):
    path = tmp_path / "nm.off"
    path.write_text(
        "OFF\n5 3 0\n0 0 0\n1 0 0\n0 1 0\n0 -1 0\n0 0 1\n3 0 1 2\n3 1 0 3\n3 0 1 4\n")
    assert main(["topology", "--mesh", str(path)]) == 2


_TRIANGLE_VERTICES = "0 0 0\n1 0 0\n0 1 0\n"
MALFORMED_MESHES = {
    "short_face.off": f"OFF\n3 1 0\n{_TRIANGLE_VERTICES}3 0 1\n",
    "word_index.off": f"OFF\n3 1 0\n{_TRIANGLE_VERTICES}3 0 1 x\n",
    "fractional_index.off": f"OFF\n3 1 0\n{_TRIANGLE_VERTICES}3 0 1 2.5\n",
    "two_coordinates.obj": "v 0 0 0\nv 1 0\nv 0 1 0\nf 1 2 3\n",
}


@pytest.mark.parametrize("name", MALFORMED_MESHES)
def test_topology_malformed_record_exit_2(tmp_path, capsys, name):
    """A short or non-numeric record in a mesh file is an input error with
    one stderr line, not a traceback."""
    path = tmp_path / name
    path.write_text(MALFORMED_MESHES[name])
    assert_input_error(capsys, ["topology", "--mesh", str(path)])


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", [["topology"], ["decompose", "--k", "1"]])
def test_non_finite_vertex_exit_2(tmp_path, capsys, command, value):
    """A mesh file with a non-finite vertex coordinate is an input error,
    before any topology or assembly runs."""
    path = tmp_path / "tetra.off"
    path.write_text(TETRA_OFF.replace("\n1 1 1\n", f"\n{value} 1 0\n", 1))
    assert_input_error(capsys, [command[0], "--mesh", str(path), *command[1:]])


# ----------------------------------------------------------------- harmonic
def test_harmonic_sphere_empty_basis(tmp_path, capsys):
    code, payload, _ = run_cli(capsys, "harmonic", "--mesh", "builtin:tetrahedron",
                               "--k", "1", "--out-dir", str(tmp_path))
    assert code == 0 and payload["b1"] == 0
    basis = json.loads((tmp_path / "harmonic_basis.json").read_text())
    assert basis["b1"] == 0 and basis["vectors"] == []


def test_harmonic_seeds_same_span(tmp_path, capsys):
    outs = {}
    for seed in (1, 2):
        d = tmp_path / f"s{seed}"
        code, payload, _ = run_cli(
            capsys, "harmonic", "--mesh", "builtin:torus", "--k", "0",
            "--seed", str(seed), "--out-dir", str(d))
        assert code == 0 and payload["b1"] == 2
        outs[seed] = json.loads((d / "harmonic_basis.json").read_text())
    from surfhodge.assembly import assemble_mass
    from surfhodge.fespace import build_space

    mesh = meshes.torus_structured(8, 8)
    M = assemble_mass(build_space(mesh, "bdm", 0, "zero_normal_trace")).toarray()
    P = {}
    for seed, data in outs.items():
        H = np.array(data["vectors"])
        assert np.abs(H - np.array(outs[1]["vectors"])).max() > 1e-8 or seed == 1
        P[seed] = H.T @ (H @ M)
    assert np.abs(P[1] - P[2]).max() < 1e-8  # same span, different vectors


def test_harmonic_genus2(capsys):
    code, payload, _ = run_cli(capsys, "harmonic", "--mesh", "builtin:genus2",
                               "--k", "0")
    assert code == 0 and payload["b1"] == 4


@pytest.fixture
def overstated_b1(monkeypatch):
    """hodge.analyze_topology with b1 one too large: a drawn block's Gram
    spectrum then shows one rank less than the solver expects."""
    from surfhodge import hodge

    analyze = hodge.analyze_topology

    def overstated(mesh):
        topology = analyze(mesh)
        return replace(topology, b1=topology.b1 + 1)

    monkeypatch.setattr(hodge, "analyze_topology", overstated)


def test_harmonic_max_attempts_exit_3(capsys, overstated_b1):
    assert_one_line_failure(capsys, ["harmonic", "--mesh", "builtin:torus", "--k", "0"],
                            3, "algorithmic failure:")


def test_decompose_rank_mismatch_exit_3(capsys, overstated_b1):
    """decompose draws its basis as harmonic does, and a drawn block of
    another rank than b1 exits 3 there too."""
    assert_one_line_failure(capsys, ["decompose", "--mesh", "builtin:torus", "--k", "1"],
                            3, "algorithmic failure:")


@pytest.mark.parametrize("joined", [True, False])
@pytest.mark.parametrize("verb", ["harmonic", "decompose", "verify"])
def test_removed_tol_flag_exit_2(capsys, verb, joined):
    """--tol left harmonic, decompose and verify on purpose (the draws'
    rank threshold is hodge.RANK_TOL): argparse refuses it, as --tol=1e-8
    and as --tol 1e-8, with one input-error line."""
    tol = ["--tol=1e-8"] if joined else ["--tol", "1e-8"]
    assert_input_error(capsys, [verb, "--mesh", "builtin:torus", *tol])


# ---------------------------------------------------------------- decompose
def test_decompose_rot_input(capsys, tmp_path):
    code, payload, _ = run_cli(
        capsys, "decompose", "--mesh", "builtin:torus", "--k", "1",
        "--field-mode", "rot", "--out-dir", str(tmp_path))
    assert code == 0
    assert payload["harmonic_norm"] <= 1e-10 * payload["input_norm"]
    assert payload["gradient_norm"] <= 1e-10 * payload["input_norm"]
    assert (tmp_path / "decomposition.vtk").exists()


def test_decompose_random_pythagoras(capsys):
    code, payload, _ = run_cli(capsys, "decompose", "--mesh", "builtin:torus",
                               "--k", "1", "--field-mode", "random")
    assert code == 0
    assert payload["pythagoras_gap"] <= 1e-10 * payload["input_norm"] ** 2
    assert payload["residual"] <= 1e-10 * payload["input_norm"]


def test_decompose_handle_mesh_has_harmonic_part(capsys):
    code, payload, _ = run_cli(capsys, "decompose", "--mesh", "builtin:genus2",
                               "--k", "0", "--field-mode", "random")
    assert code == 0
    assert payload["harmonic_norm"] > 1e-3 * payload["input_norm"]


def test_decompose_expression_field(capsys):
    code, payload, _ = run_cli(
        capsys, "decompose", "--mesh", "builtin:torus", "--k", "1",
        "--field-mode", "expression", "--fx=-y", "--fy", "x", "--fz", "0")
    assert code == 0
    assert payload["residual"] <= 1e-10 * payload["input_norm"]


@pytest.mark.parametrize("field", [["--field-seed", "-1"],
                                   ["--field-mode", "expression", "--fx", "x +"]],
                         ids=["negative_field_seed", "malformed_expression"])
def test_decompose_checks_field_before_setup(capsys, monkeypatch, field):
    """A bad field option exits 2 with one line before any solver is built."""
    built = []
    monkeypatch.setattr(cli, "HodgeSolver", lambda *a, **kw: built.append(a))
    assert_input_error(capsys, ["decompose", "--mesh", "builtin:torus", "--k", "1", *field])
    assert built == []


def test_decompose_basis_reuse(tmp_path, capsys):
    """A basis written by `harmonic` passes the load checks and decomposes
    exactly as the basis drawn with the same seed."""
    d = tmp_path / "basis"
    run_cli(capsys, "harmonic", "--mesh", "builtin:torus", "--k", "1",
            "--out-dir", str(d))
    code, payload, _ = run_cli(
        capsys, "decompose", "--mesh", "builtin:torus", "--k", "1",
        "--basis", str(d / "harmonic_basis.json"))
    assert code == 0
    code, fresh, _ = run_cli(capsys, "decompose", "--mesh", "builtin:torus", "--k", "1")
    assert code == 0
    for key in ("rot_norm", "harmonic_norm", "gradient_norm", "residual"):
        assert payload[key] == fresh[key]


# ------------------------------------------------------------------- flows
def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_stokes_zero_forcing(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "mesh = builtin:torus\nk = 1\nmu = 0.5\n"
                              "dt = 1e-2\nt_end = 0\nforcing = zero\n")
    code, payload, _ = run_cli(capsys, "stokes", "--config", cfg,
                               "--out-dir", str(tmp_path / "out"))
    assert code == 0
    assert payload["velocity_norm"] <= 1e-12
    assert (tmp_path / "out" / "flow_000000.vtk").exists()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["command"] == "stokes"
    assert all(os.path.exists(p) for p in manifest["outputs"])


def test_stokes_compare_saddle(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "mesh = builtin:torus\nk = 1\nmu = 0.5\n"
                              "dt = 1e-2\nt_end = 0\nforcing = expression\n"
                              "fx = sin(y)\nfy = cos(z)\nfz = 0.2*x\n")
    code, payload, _ = run_cli(capsys, "stokes", "--config", cfg, "--compare-saddle")
    assert code == 0
    assert payload["saddle_velocity_discrepancy"] <= 1e-8
    assert payload["saddle_pressure_discrepancy"] <= 1e-8
    assert payload["sparse_solves"] == 3


def test_stokes_compare_saddle_high_viscosity(tmp_path, capsys):
    """mu = 1e3 on the 16x8 torus at k = 2: the saddle oracle solves (it
    exited 4, "numerically singular", under a partial-pivot LU)."""
    mesh_path = tmp_path / "torus16x8.obj"
    save_obj(meshes.torus_structured(16, 8), mesh_path)
    cfg = write_cfg(tmp_path, f"mesh = {mesh_path}\nk = 2\nmu = 1e3\n"
                              "dt = 1e-2\nt_end = 0\nforcing = expression\n"
                              "fx = sin(y)\nfy = cos(z)\nfz = 0.2*x\n")
    code, payload, _ = run_cli(capsys, "stokes", "--config", cfg, "--compare-saddle")
    assert code == 0
    assert payload["saddle_velocity_discrepancy"] <= 1e-8
    assert payload["saddle_pressure_discrepancy"] <= 1e-8


def test_stokes_compare_saddle_k4_high_penalty(tmp_path, capsys):
    """alpha = 1e4 on the 16x8 torus at k = 4: the oracle's block on the
    kernel of B[qp] factors and matches the reduced solve (measured 8.3e-10
    in velocity and 8.7e-10 in pressure); the full n_V x n_V penalized
    block was refused as numerically singular (exit 4)."""
    mesh_path = tmp_path / "torus16x8.obj"
    save_obj(meshes.torus_structured(16, 8), mesh_path)
    cfg = write_cfg(tmp_path, f"mesh = {mesh_path}\nk = 4\nmu = 0.5\nalpha = 1e4\n"
                              "forcing = expression\nfx = sin(y)\nfy = cos(z)\nfz = 0.2*x\n")
    code, payload, _ = run_cli(capsys, "stokes", "--config", cfg, "--compare-saddle")
    assert code == 0
    assert payload["saddle_velocity_discrepancy"] <= 1e-8
    assert payload["saddle_pressure_discrepancy"] <= 1e-8


@pytest.mark.parametrize("mesh", ["flat_patch", "sphere_4holes"])
def test_stokes_compare_saddle_k4(mesh, capsys):
    """At k = 4 the oracle's relative divergence levels off at 3e-13 to
    7e-13, above its 1e-13 stop; the loop stops at that plateau (it exited
    4, "did not converge in 100 steps") and agrees with the reduced solve."""
    code, payload, _ = run_cli(capsys, "stokes", "--config",
                               os.path.join(ROOT, "configs", "stokes_torus.cfg"),
                               "--mesh", f"builtin:{mesh}", "--k", "4", "--compare-saddle")
    assert code == 0
    assert payload["saddle_velocity_discrepancy"] <= 1e-8
    assert payload["saddle_pressure_discrepancy"] <= 1e-8


def test_nse_switched_off_forcing_monotone(tmp_path, capsys):
    # forcing active at t = 0 (sets the initial Stokes state), switched off
    # for t > 0: the CSV energy decays monotonically
    cfg = write_cfg(tmp_path, (
        "mesh = builtin:torus\nk = 1\nmu = 0.1\ndt = 5e-3\nt_end = 5e-2\n"
        "output_every = 5\nforcing = expression\n"
        "fx = 0.002*sin(y)*step(0.0025 - t)\nfy = 0.002*cos(z)*step(0.0025 - t)\n"
        "fz = 0\n"))
    out = tmp_path / "out"
    code, payload, _ = run_cli(capsys, "nse", "--config", cfg, "--out-dir", str(out))
    assert code == 0
    rows = (out / "timeseries.csv").read_text().splitlines()
    ke = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert ke[0] > 0
    assert (np.diff(ke) <= 1e-10 * ke[0]).all()
    manifest = json.loads((out / "manifest.json").read_text())
    assert any(p.endswith("timeseries.csv") for p in manifest["outputs"])


def test_outputs_bitwise_reproducible(tmp_path, capsys):
    cfg = write_cfg(tmp_path, (
        "mesh = builtin:torus\nk = 1\nmu = 0.2\ndt = 1e-2\nt_end = 3e-2\n"
        "output_every = 1\nseed = 3\nforcing = expression\n"
        "fx = 0.001*sin(y)\nfy = 0\nfz = 0\n"))
    outs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        code, _, _ = run_cli(capsys, "nse", "--config", cfg, "--out-dir", str(d))
        assert code == 0
        outs.append(d)
    for name in sorted(os.listdir(outs[0])):
        if name == "manifest.json":
            continue  # contains wall-clock timings
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, name


def test_nse_steady_load_writes_per_step_bytes(tmp_path, capsys, monkeypatch):
    """The trefoil run assembles its constant band load once; the same
    preset wrapped in a plain lambda carries no steady mark and is
    assembled every step.  Both write the same bytes."""
    argv = ["nse", "--config", os.path.join(ROOT, "configs", "nse_trefoil.cfg"), "--out-dir"]
    assert main(argv + [str(tmp_path / "steady")]) == 0
    band = config.FORCING_PRESETS["constant_band"]

    @functools.wraps(band)  # keeps band's signature, which names the config keys
    def plain(**kw):
        f = band(**kw)
        return lambda x, t=0.0: f(x, t)

    monkeypatch.setitem(config.FORCING_PRESETS, "constant_band", plain)
    assert main(argv + [str(tmp_path / "plain")]) == 0
    capsys.readouterr()
    names = sorted(os.listdir(tmp_path / "steady"))
    assert names == sorted(os.listdir(tmp_path / "plain")) and len(names) == 13
    for name in names:
        if name != "manifest.json":  # contains wall-clock timings
            assert (tmp_path / "steady" / name).read_bytes() == \
                (tmp_path / "plain" / name).read_bytes(), name


def test_nse_non_finite_steady_forcing_exit_3_at_setup(tmp_path, capsys):
    """A forcing that does not read t is assembled while the run is set up,
    so it fails there, before the first step, even from rest."""
    cfg = write_cfg(tmp_path, "mesh = builtin:torus\nk = 1\ninitial = zero\nt_end = 0\n"
                              "forcing = expression\nfx = sqrt(-1-x*x)\nfy = 0\nfz = 0\n")
    assert main(["nse", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("algorithmic failure: non-finite load") and len(err.splitlines()) == 1


# ------------------------------------------------------------------- verify
def test_verify_corpus_passes(capsys):
    code, payload, out = run_cli(capsys, "verify", "--k-max", "1")
    assert code == 0
    assert payload["failures"] == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_flipped_triangles_repaired(tmp_path, capsys):
    mesh = meshes.torus_structured(4, 4)
    tris = mesh.triangles.copy()
    tris[::3] = tris[::3][:, ::-1]  # corrupt orientation
    path = tmp_path / "flipped.off"
    save_off((mesh.vertices, tris), path)
    code, payload, _ = run_cli(capsys, "verify", "--mesh", str(path), "--k-max", "1")
    assert code == 0
    assert payload["failures"] == 0


def test_verify_failures_exit_3(tmp_path, capsys, monkeypatch):
    """A topology that overstates b1 by one fails both dimension identities
    and both harmonic-basis checks; verify still writes its report, then
    exits 3 with one line on stderr."""
    def overstated(mesh):
        topo = analyze_topology(mesh)
        return replace(topo, b1=topo.b1 + 1)

    monkeypatch.setattr(cli, "analyze_topology", overstated)
    code = main(["verify", "--mesh", "builtin:torus", "--k-max", "1", "--out-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 3
    assert err == "algorithmic failure: 4 verification checks failed\n"
    assert json.loads(out.strip().splitlines()[-1]) == {"failures": 4, "checks": 6}
    report = json.loads((tmp_path / "verify.json").read_text())
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert report["failures"] == 4
    assert failed == [f"input: dimension identity k={k}" for k in (0, 1)] + [
        f"input: harmonic basis k={k}" for k in (0, 1)]


def test_verify_nonmanifold_exit_2(tmp_path):
    path = tmp_path / "nm.off"
    path.write_text(
        "OFF\n5 3 0\n0 0 0\n1 0 0\n0 1 0\n0 -1 0\n0 0 1\n3 0 1 2\n3 1 0 3\n3 0 1 4\n")
    assert main(["verify", "--mesh", str(path)]) == 2


def test_flow_reuses_precomputed_basis(tmp_path, capsys):
    d = tmp_path / "basis"
    run_cli(capsys, "harmonic", "--mesh", "builtin:torus", "--k", "1",
            "--out-dir", str(d))
    cfg = write_cfg(tmp_path, "mesh = builtin:torus\nk = 1\nmu = 0.5\n"
                              "dt = 1e-2\nt_end = 2e-2\nforcing = expression\n"
                              "fx = 0.001*sin(y)\nfy = 0\nfz = 0\n")
    code, payload, _ = run_cli(capsys, "nse", "--config", cfg,
                               "--basis", str(d / "harmonic_basis.json"))
    assert code == 0 and payload["b1"] == 2


def test_stokes_inviscid_exit_4(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "mesh = builtin:icosphere\nk = 1\nmu = 0\n"
                              "allow_inviscid = true\nforcing = expression\n"
                              "fx = sin(y)\nfy = cos(z)\nfz = 0.2*x\n")
    assert main(["stokes", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert err.startswith("solver failure:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("message,line", [
    ("Unable to allocate 1.17 GiB for an array", "out of memory: Unable to allocate 1.17 GiB"),
    ("", "out of memory"),
])
def test_memory_error_in_setup_exit_4(tmp_path, capsys, monkeypatch, message, line):
    """A MemoryError outside a factor (which reports SolverFailure), here
    while the operators are set up, exits 4 with one stderr line."""
    def operators(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "FlowOperators", operators)
    cfg = write_cfg(tmp_path, "mesh = builtin:torus\nk = 1\n")
    assert_one_line_failure(capsys, ["stokes", "--config", cfg], 4, line)


def test_only_the_saddle_oracle_releases_free_heap(tmp_path, capsys, monkeypatch):
    """stokes --compare-saddle hands the C heap's free pages back to the OS
    once, before the oracle's factor; stokes without the oracle and nse
    never do."""
    from surfhodge import linalg

    calls = []
    monkeypatch.setattr(linalg, "_MALLOC_TRIM", calls.append)
    stokes = ["stokes", "--config", os.path.join(ROOT, "configs", "stokes_torus.cfg"),
              "--mesh", "builtin:torus", "--k", "1"]
    nse = write_cfg(tmp_path, "mesh = builtin:torus\nk = 1\nt_end = 0.05\ndt = 0.01\n")
    for argv, expected in ((stokes + ["--compare-saddle"], [0]), (stokes, []),
                           (["nse", "--config", nse], [])):
        calls.clear()
        assert run_cli(capsys, *argv)[0] == 0
        assert calls == expected, argv


# ------------------------------------------------------ other input errors
def assert_one_line_failure(capsys, argv, code, prefix):
    """argv exits with code, one stderr line starting with prefix and no
    traceback, and prints no NaN or Infinity."""
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(prefix) and len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err
    assert "NaN" not in captured.out and "Infinity" not in captured.out


def assert_input_error(capsys, argv):
    assert_one_line_failure(capsys, argv, 2, "input error:")


_TETRA = meshes.tetrahedron()
TWO_TETRAHEDRA = SurfaceMesh(np.vstack([_TETRA.vertices, _TETRA.vertices + 10.0]),
                             np.vstack([_TETRA.triangles, _TETRA.triangles + 4]))
DEEP_INPUT_ERRORS = {  # argv, its files (name -> text or mesh) and the stderr line
    "stokes_config_without_mesh": (
        ["stokes", "--config", "run.cfg"], {"run.cfg": "k = 1\nt_end = 0\n"},
        "no mesh given (config key 'mesh' or --mesh)"),
    "unknown_builtin": (
        ["topology", "--mesh", "builtin:nosuch"], {},
        f"unknown builtin mesh 'nosuch'; available: {sorted(meshes.BUILTIN)}"),
    "harmonic_on_two_components": (
        ["harmonic", "--mesh", "two.off"], {"two.off": TWO_TETRAHEDRA},
        "decomposition requires a connected mesh"),
    "expression_with_string_constant": (
        ["stokes", "--config", "run.cfg"],
        {"run.cfg": "mesh = builtin:torus\nk = 1\nt_end = 0\nforcing = expression\n"
                    "fx = 'a'\nfy = 0\nfz = 0\n"},
        "non-numeric constant in \"'a'\""),
    "off_without_counts": (
        ["topology", "--mesh", "bare.off"], {"bare.off": "OFF\n"},
        "missing OFF counts line"),
}


@pytest.mark.parametrize("case", DEEP_INPUT_ERRORS)
def test_input_failure_paths_exit_2(tmp_path, capsys, monkeypatch, case):
    """Input errors raised deep in the mesh, config and Hodge layers reach
    main as exit 2 with their one line."""
    argv, files, message = DEEP_INPUT_ERRORS[case]
    for name, content in files.items():
        if isinstance(content, str):
            (tmp_path / name).write_text(content)
        else:
            save_off(content, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    assert_one_line_failure(capsys, argv, 2, f"input error: {message}\n")


def test_harmonic_unsupported_degree_exit_2(capsys):
    assert_input_error(capsys, ["harmonic", "--mesh", "builtin:torus", "--k", "9"])


def test_decompose_foreign_basis_exit_2(tmp_path, capsys):
    d = tmp_path / "basis"
    run_cli(capsys, "harmonic", "--mesh", "builtin:genus2", "--k", "0",
            "--out-dir", str(d))
    assert_input_error(capsys, ["decompose", "--mesh", "builtin:torus", "--k", "0",
                                "--basis", str(d / "harmonic_basis.json")])


def test_config_unknown_bc_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "mesh = builtin:torus\nk = 1\nbc = weird\n")
    assert_input_error(capsys, ["stokes", "--config", cfg])


@pytest.mark.parametrize("bad", ["dt = nan", "mu = nan", "mu = inf", "alpha = nan",
                                 "t_end = inf", "t_end = nan", "seed = 1.5", "seed = -1",
                                 "k = 1.5", "allow_inviscid = maybe", "allow_inviscid = 1",
                                 "harmonic --seed -1", "harmonic --tol nan",
                                 "harmonic --tol -1", "harmonic --tol 0", "harmonic --tol inf",
                                 "verify --k-max -1"])
def test_bad_parameter_value_exit_2(tmp_path, capsys, bad):
    """A config value (nse), a seed flag (harmonic) or a degree bound
    (verify) out of its domain is an input error: no solver failure,
    traceback or silent acceptance.  harmonic no longer takes --tol, so
    argparse refuses each --tol value as an unknown flag."""
    if bad.startswith(("harmonic", "verify")):
        argv = [*bad.split(), "--mesh", "builtin:torus"]
    else:
        argv = ["nse", "--config", write_cfg(tmp_path, f"mesh = builtin:torus\n{bad}\n")]
    assert_input_error(capsys, argv)


@pytest.mark.parametrize("forcing, bad", [
    ("zero", "mu = true"), ("zero", "alpha = true"), ("zero", "dt = true"),
    ("zero", "t_end = true"), ("constant_band", "amplitude = true"),
    ("constant_band", "band_axis = 0.0"), ("constant_band", "band_axis = 1.5"),
    ("constant_band", "band_axis = true"), ("constant_band", "band_max = true"),
    ("constant_band", "band_min = false"), ("rigid_rotation", "amplitude = true"),
    ("expression", "fx = true"), ("expression", "fy = false"), ("expression", "fz = true"),
])
@pytest.mark.parametrize("verb", ["stokes", "nse"])
def test_wrong_typed_config_value_exit_2(tmp_path, capsys, verb, forcing, bad):
    """A bool for a key other than allow_inviscid, and a float for
    band_axis, are input errors.  Both ran before: true read as 1, and
    band_axis = 1.5 as axis 1 (tests/test_cli_fuzz.py's value types)."""
    cfg = write_cfg(tmp_path, f"mesh = builtin:tetrahedron\nforcing = {forcing}\n{bad}\n")
    assert_input_error(capsys, [verb, "--config", cfg])


@pytest.mark.parametrize("bad", ["band_max = nan", "band_min = nan"])
@pytest.mark.parametrize("verb", ["stokes", "nse"])
def test_nan_band_bound_exit_2(tmp_path, capsys, verb, bad):
    """A NaN band bound is an input error: every comparison with NaN is
    false, so the band would hold no point and the run would go unforced
    (both exited 0 before)."""
    cfg = write_cfg(tmp_path, f"mesh = builtin:tetrahedron\nforcing = constant_band\n{bad}\n")
    assert_input_error(capsys, [verb, "--config", cfg])


def test_infinite_band_bounds_stay_valid(tmp_path, capsys):
    """band_min = -inf and band_max = inf still name the whole surface."""
    cfg = write_cfg(tmp_path, "mesh = builtin:torus\nk = 1\nforcing = constant_band\n"
                              "band_min = -inf\nband_max = inf\n")
    code, payload, _ = run_cli(capsys, "stokes", "--config", cfg)
    assert code == 0 and payload["kinetic_energy"] > 0


def test_config_bad_forcing_vector_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "mesh = builtin:torus\nk = 1\n"
                              "forcing = rigid_rotation\ncenter = 0 0 0\n")
    assert_input_error(capsys, ["stokes", "--config", cfg])


def test_config_unknown_key_exit_2(tmp_path, capsys):
    """A misspelt key or a parameter of another forcing is refused by name
    instead of running with the defaults."""
    cfg = write_cfg(tmp_path, "mesh = builtin:torus\nk = 1\nviscosity = 5.0\n"
                              "forcing = constant_band\ncenter = 1,2,3\n")
    assert_input_error(capsys, ["stokes", "--config", cfg])
    cfg = write_cfg(tmp_path, "mesh = builtin:torus\nk = 1\ndiv_tol = 1e-10\n")
    assert main(["stokes", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "'div_tol'" in err and len(err.splitlines()) == 1


def test_config_missing_file_exit_2(tmp_path, capsys):
    assert_input_error(capsys, ["stokes", "--config", str(tmp_path / "nope.cfg")])


def test_config_bad_forcing_amplitude_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "mesh = builtin:torus\nk = 1\n"
                              "forcing = constant_band\namplitude = abc\n")
    assert_input_error(capsys, ["stokes", "--config", cfg])


def _expression_cfg(tmp_path, fx):
    return write_cfg(tmp_path, "mesh = builtin:torus\nk = 1\nforcing = expression\n"
                               f"fx = {fx}\nfy = 0\nfz = 0\n")


def test_forcing_singular_at_origin_runs(tmp_path, capsys):
    """The eager check probes syntax and arity at the origin, not the
    domain: 1/x is finite at every quadrature point of the torus."""
    code, payload, _ = run_cli(capsys, "stokes", "--config", _expression_cfg(tmp_path, "1/x"))
    assert code == 0 and np.isfinite(payload["kinetic_energy"])


def test_forcing_wrong_arity_exit_2(tmp_path, capsys):
    assert_input_error(capsys, ["stokes", "--config", _expression_cfg(tmp_path, "sin(1,2)")])


@pytest.mark.parametrize("command", ["stokes", "decompose"])
def test_forcing_non_finite_load_exit_3(tmp_path, capsys, command):
    fx = "sqrt(-1-x*x)"
    argv = (["stokes", "--config", _expression_cfg(tmp_path, fx)] if command == "stokes" else
            ["decompose", "--mesh", "builtin:torus", "--k", "1", "--field-mode", "expression",
             "--fx", fx, "--fy", "0", "--fz", "0"])
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("algorithmic failure: non-finite load") and len(err.splitlines()) == 1


DEEP_EXPRESSIONS = {
    "3000_minus_signs": "-" * 3000 + "x",
    "20000_term_sum": "+".join(["x"] * 20000),
    "990_term_sum": "+".join(["x"] * 990),  # parses, but overflowed the stack in a load
}


@pytest.mark.parametrize("name", DEEP_EXPRESSIONS)
@pytest.mark.parametrize("command", ["stokes", "decompose"])
def test_deep_forcing_expression_exit_2(tmp_path, capsys, command, name):
    """An expression nested deeper than the evaluator allows is an input
    error, whether the parser or the evaluation would run out of stack."""
    fx = DEEP_EXPRESSIONS[name]
    argv = (["stokes", "--config", _expression_cfg(tmp_path, fx)] if command == "stokes" else
            ["decompose", "--mesh", "builtin:torus", "--k", "1", "--field-mode", "expression",
             f"--fx={fx}"])  # '=': a value starting with '-' is not an option
    assert_input_error(capsys, argv)


_LOAD = "forcing = expression\nfx = sin(y)\nfy = cos(z)\nfz = 0.2*x\n"
EXTREME_RUNS = {
    # a velocity too large for its energy to be a float, with or without the oracle
    "mu_1e-300": (f"mu = 1e-300\n{_LOAD}", [], 3,
                  "algorithmic failure: non-finite state at t = 0"),
    "mu_1e-300_saddle": (f"mu = 1e-300\n{_LOAD}", ["--compare-saddle"], 3,
                         "algorithmic failure: non-finite state at t = 0"),
    # a viscous form that overflows
    "mu_1e308": (f"mu = 1e308\n{_LOAD}", [], 4, "solver failure: viscous form is not finite"),
    "mu_1e308_saddle": (f"mu = 1e308\n{_LOAD}", ["--compare-saddle"], 4,
                        "solver failure: viscous form is not finite"),
    # a forcing constant that is infinite, or an integer beyond the float range
    "fx_1e400": ("forcing = expression\nfx = 1e400*x\n", [], 3,
                 "algorithmic failure: non-finite load"),
    "fx_400_digits": (f"forcing = expression\nfx = 1{'0' * 400}*x\n", [], 2, "input error:"),
}


@pytest.mark.parametrize("name", EXTREME_RUNS)
def test_extreme_numbers_one_line_failure(tmp_path, capsys, name):
    """Parameters and forcings at the ends of the float range exit with
    their documented code and one stderr line, not a numpy warning, a
    traceback or a NaN in the JSON line."""
    text, flags, code, prefix = EXTREME_RUNS[name]
    cfg = write_cfg(tmp_path, f"mesh = builtin:torus\nk = 1\n{text}")
    assert_one_line_failure(capsys, ["stokes", "--config", cfg, *flags], code, prefix)


def test_indefinite_viscous_form_exit_4(tmp_path, capsys):
    """configs/nse_trefoil.cfg with alpha = 4, a quarter of the default:
    the Stokes block has 18 negative eigenvalues, its band factor breaks
    down, and the run exits 4 with one line naming the penalty (it ran to
    exit 0 before, its kinetic energy growing from 0.08 to 38.8 by t = 2)."""
    with open(os.path.join(ROOT, "configs", "nse_trefoil.cfg")) as f:
        cfg = write_cfg(tmp_path, f.read() + "alpha = 4\n")
    assert_one_line_failure(
        capsys, ["nse", "--config", cfg, "--out-dir", str(tmp_path / "out")], 4,
        "solver failure: viscous form is not positive definite at alpha = 4")


def test_decompose_infinite_forcing_constant_exit_3(capsys):
    assert_one_line_failure(
        capsys, ["decompose", "--mesh", "builtin:torus", "--k", "1", "--field-mode",
                 "expression", "--fx", "1e400*x"], 3, "algorithmic failure: non-finite load")


def test_decompose_large_field_exit_0(capsys):
    """The norms and the Pythagoras gap are formed on the field scaled by a
    power of 2, so a field with |v|_M near 1.9e154, whose squared norm is
    beyond the float range, decomposes with exit 0, its norms 2e153 times
    those of the field x."""
    argv = ["decompose", "--mesh", "builtin:torus", "--k", "1", "--field-mode", "expression"]
    code, big, _ = run_cli(capsys, *argv, "--fx", "2e153*x")
    assert code == 0
    code, unit, _ = run_cli(capsys, *argv, "--fx", "x")
    for key in ("input_norm", "rot_norm", "harmonic_norm", "gradient_norm"):
        assert abs(big[key] - 2e153 * unit[key]) <= 1e-12 * big["input_norm"], key
    assert big["pythagoras_gap"] / big["input_norm"] / big["input_norm"] <= 1e-10


def test_decompose_overflowing_norms_exit_3(capsys):
    """A field whose Pythagoras gap (about 1e-14 |v|_M^2 here) overflows
    fails the non-finite JSON check with one stderr line; its residual and
    norms raise no numpy warning first (tier-1 turns a warning into an
    error)."""
    assert_one_line_failure(
        capsys, ["decompose", "--mesh", "builtin:torus", "--k", "1", "--field-mode",
                 "expression", "--fx", "1e300*x"], 3,
        "algorithmic failure: non-finite number in the decompose result")


def test_nse_diverging_run_stops_at_first_overflow(tmp_path):
    """A run far beyond its CFL bound overflows within two steps.  It exits
    3 at the first step whose state is not finite, and its stderr holds the
    CFL warning and the failure line, with no numpy overflow warning."""
    cfg = write_cfg(tmp_path, "mesh = builtin:torus\nk = 1\nmu = 1e-3\ndt = 1\nt_end = 20\n"
                              "forcing = expression\nfx = 1e50*sin(y)\nfy = 1e50*cos(z)\n"
                              "fz = 0\n")
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run([sys.executable, "-m", "surfhodge.cli", "nse", "--config", cfg],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    err = proc.stderr.splitlines()
    assert err[-1] == "algorithmic failure: non-finite state at t = 2"
    assert "exceeds the convective CFL bound" in err[0] and len(err) == 3
    assert not any("overflow" in line or "invalid value" in line for line in err)


def test_harmonic_basis_moves_by_rounding_with_the_blas_thread_count(tmp_path):
    """Output bits hold for one environment, which includes numpy's BLAS
    thread count.  harmonic on sphere_with_holes(3, 4) at k = 3 wrote
    different bases with OPENBLAS_NUM_THREADS = 1 and 2 on a 2-core x86_64
    VM (52,337 entries differ, by at most 1.3e-13 of the largest).  Whether
    or not the bytes differ, the two bases agree to 1e-11 of the largest
    entry."""
    mesh = tmp_path / "pierced.off"
    save_off(meshes.sphere_with_holes(3, 4), str(mesh))
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    bases = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p),
               "OPENBLAS_NUM_THREADS": threads}
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run([sys.executable, "-m", "surfhodge.cli", "harmonic", "--mesh",
                               str(mesh), "--k", "3", "--out-dir", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        with open(out / "harmonic_basis.json") as fh:
            bases.append(np.array(json.load(fh)["vectors"]))
    one, two = bases
    assert one.shape == two.shape == (3, 17600)
    assert np.abs(one - two).max() <= 1e-11 * np.abs(one).max()


def test_decompose_moves_by_rounding_with_the_blas_thread_count(tmp_path):
    """decompose of one fixed basis on sphere_with_holes(3, 4) at k = 3,
    with OPENBLAS_NUM_THREADS = 1 and 2, wrote different decomposition.json
    bytes on a 2-core x86_64 VM: input_norm moved by 1.3e-16 of itself, the
    residual (3.5e-13) and the Pythagoras gap (2.0e-12) by 4e-4 and 6e-2 of
    themselves.  Whether or not the bytes differ, every norm moves by at
    most 1e-11 of |v|, and the gap, a difference of squares, by 1e-11 of
    |v|^2."""
    mesh = tmp_path / "pierced.off"
    save_off(meshes.sphere_with_holes(3, 4), str(mesh))
    basis = tmp_path / "basis.json"
    HodgeSolver(meshes.resolve(str(mesh)), 3).harmonic_basis(seed=0).save_json(basis)
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    norms = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p),
               "OPENBLAS_NUM_THREADS": threads}
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run([sys.executable, "-m", "surfhodge.cli", "decompose", "--mesh",
                               str(mesh), "--k", "3", "--basis", str(basis), "--out-dir",
                               str(out)], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        with open(out / "decomposition.json") as fh:
            norms.append(json.load(fh))
    one, two = norms
    assert one.keys() == two.keys() and len(one) == 6
    scale = {key: one["input_norm"] ** (2 if key == "pythagoras_gap" else 1) for key in one}
    assert {key: abs(one[key] - two[key]) / scale[key] for key in one
            if not abs(one[key] - two[key]) <= 1e-11 * scale[key]} == {}


def test_manifest_records_the_environment_that_sets_the_bits(tmp_path):
    """manifest.json's environment block holds the numpy and scipy
    versions, numpy's BLAS configuration and numpy's OpenBLAS thread count,
    which reads the OPENBLAS_NUM_THREADS the run was started with; the last
    two are null only where numpy bundles no OpenBLAS."""
    import scipy

    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p),
           "OPENBLAS_NUM_THREADS": "1"}
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "surfhodge.cli", "topology", "--mesh",
                           "builtin:tetrahedron", "--out-dir", str(out)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    environment = json.loads((out / "manifest.json").read_text())["environment"]
    assert set(environment) == {"numpy", "scipy", "blas", "blas_threads"}
    assert (environment["numpy"], environment["scipy"]) == (np.__version__, scipy.__version__)
    if cli._OPENBLAS_THREADS is None:
        assert environment["blas"] is environment["blas_threads"] is None
    else:
        assert environment["blas"].startswith("OpenBLAS") and environment["blas_threads"] == 1


def test_nse_step_count_overflow_exit_2(tmp_path, capsys):
    """t_end / dt beyond the float range is refused with the config, not
    when the run converts it to a step count."""
    cfg = write_cfg(tmp_path, "mesh = builtin:torus\nk = 1\ndt = 1e-300\nt_end = 1e10\n")
    assert_input_error(capsys, ["nse", "--config", cfg])


def test_nse_step_count_above_bound_exit_2(tmp_path, capsys):
    """A finite step count above MAX_STEPS is refused with the config:
    t_end = 2**63 asks for 4.6e20 steps, and exits 2 at once instead of
    running until killed."""
    cfg = write_cfg(tmp_path, "mesh = builtin:tetrahedron\nt_end = 9223372036854775808\n")
    assert_one_line_failure(capsys, ["nse", "--config", cfg], 2,
                            "input error: bad config: step count t_end / dt = "
                            "9.22337e+18 / 0.001 is above MAX_STEPS = 10000000")


def test_non_finite_payload_exit_3(tmp_path, capsys, monkeypatch):
    """A result number that is not finite fails the run before anything is
    written, so an exit of 0 prints only finite numbers."""
    monkeypatch.setattr(cli.asm, "divergence_norm", lambda V, u: float("inf"))
    cfg = write_cfg(tmp_path, f"mesh = builtin:torus\nk = 1\n{_LOAD}")
    out = tmp_path / "out"
    assert_one_line_failure(capsys, ["stokes", "--config", cfg, "--out-dir", str(out)], 3,
                            "algorithmic failure: non-finite number in the stokes result")
    assert not out.exists()


def test_stokes_compare_saddle_starts_oracle_from_reconstructed_pressure(
        tmp_path, capsys, flow_factors):
    """On the benchmark's 32x16 torus at k = 2 the oracle, started from the
    reconstructed pressure, makes at most 3 solves (2 measured; 9 from
    zero) and still agrees with the reduced solve."""
    mesh_path = tmp_path / "torus32x16.off"
    save_off(meshes.torus_structured(32, 16), mesh_path)
    code, payload, _ = run_cli(capsys, "stokes", "--config",
                               os.path.join(ROOT, "configs", "stokes_torus.cfg"),
                               "--mesh", str(mesh_path), "--k", "2", "--compare-saddle")
    assert code == 0
    reduced, oracle = flow_factors
    assert reduced.solve_count == payload["sparse_solves"] + payload["refinement_solves"]
    assert oracle.solve_count <= 3
    assert payload["saddle_velocity_discrepancy"] <= 1e-11
    assert payload["saddle_pressure_discrepancy"] <= 1e-10


def test_compare_saddle_factors_its_oracle_without_reduced_operator(capsys, monkeypatch):
    """stokes --compare-saddle releases A_red after the reduced solve: the
    saddle oracle's factor, the run's largest, is built with no A_red alive."""
    from surfhodge import flow

    reduced, alive = [], []

    class Operators(flow.FlowOperators):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            reduced.append(weakref.ref(self.A_red))

    class Recording(flow.FactorizedOperator):
        def __init__(self, A, *args, **kwargs):
            alive.append([ref() is not None for ref in reduced])
            super().__init__(A, *args, **kwargs)

    monkeypatch.setattr(cli, "FlowOperators", Operators)
    monkeypatch.setattr(flow, "FactorizedOperator", Recording)
    code, payload, _ = run_cli(capsys, "stokes", "--config",
                               os.path.join(ROOT, "configs", "stokes_torus.cfg"),
                               "--mesh", "builtin:torus", "--k", "1", "--compare-saddle")
    assert code == 0 and payload["saddle_velocity_discrepancy"] <= 1e-11
    assert alive == [[True], [False]]  # the reduced solve's factor, then the oracle's


@pytest.mark.parametrize("compare", [False, True])
def test_stokes_releases_the_pressure_side_unless_it_compares(capsys, monkeypatch, compare):
    """Only --compare-saddle reads the pressure side that the basis draws
    built, HodgeSolver.right_inverse (PK, B0, G and L0): without the flag it
    is gone before the Stokes factor is built; with it, it stays for the
    oracle."""
    from surfhodge import flow

    owners, alive = [], []

    class Operators(flow.FlowOperators):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            owners.append(weakref.ref(self.hodge.right_inverse))

    class Recording(flow.FactorizedOperator):
        def __init__(self, A, *args, **kwargs):
            alive.append([ref() is not None for ref in owners])
            super().__init__(A, *args, **kwargs)

    monkeypatch.setattr(cli, "FlowOperators", Operators)
    monkeypatch.setattr(flow, "FactorizedOperator", Recording)
    code, payload, _ = run_cli(capsys, "stokes", "--config",
                               os.path.join(ROOT, "configs", "stokes_torus.cfg"),
                               "--mesh", "builtin:torus", "--k", "1",
                               *(["--compare-saddle"] if compare else []))
    assert code == 0 and payload["sparse_solves"] == 3
    assert alive == ([[True], [True]] if compare else [[False]])


@pytest.mark.parametrize("argv, assembled", [
    (["nse", "nse_torus_decay.cfg"], 0),
    (["stokes", "stokes_torus.cfg"], 0),
    (["stokes", "stokes_torus.cfg", "--compare-saddle"], 1),
], ids=["nse", "stokes", "stokes_compare_saddle"])
def test_only_the_saddle_comparison_assembles_the_pressure_mass(tmp_path, capsys, monkeypatch,
                                                                argv, assembled):
    """The pressure mass is built on first use: stokes --compare-saddle,
    whose oracle and pressure discrepancy read it, assembles it once; nse
    and stokes without the oracle never assemble it."""
    from surfhodge import assembly

    assemble, kinds = assembly.assemble_mass, []
    monkeypatch.setattr(assembly, "assemble_mass",
                        lambda space: kinds.append(space.kind) or assemble(space))
    verb, cfg, *flags = argv
    code, _, _ = run_cli(capsys, verb, "--config", os.path.join(ROOT, "configs", cfg),
                         "--mesh", "builtin:torus", "--k", "1", "--out-dir", str(tmp_path), *flags)
    assert code == 0 and kinds.count("dg_pressure") == assembled


def test_topology_missing_mesh_exit_2(tmp_path, capsys):
    assert_input_error(capsys, ["topology", "--mesh", str(tmp_path / "nope.off")])


@pytest.mark.parametrize("argv", [
    ["harmonic", "--mesh", "builtin:torus", "--seed", "-inf"],  # -inf is read as a flag
    ["harmonic", "--mesh", "builtin:torus", "--no-such-flag"],
    ["topology"],
])
def test_usage_error_exit_2(capsys, argv):
    """Usage errors that argparse finds are input errors of one line too."""
    assert_input_error(capsys, argv)


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith(
        "usage:" if flag == "--help" else "surfhodge ")


def test_decompose_non_json_basis_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("this is not json\n")
    assert_input_error(capsys, ["decompose", "--mesh", "builtin:torus", "--k", "0",
                                "--basis", str(path)])


def test_decompose_basis_without_vectors_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "surfhodge-harmonic-basis"}))
    assert_input_error(capsys, ["decompose", "--mesh", "builtin:torus", "--k", "0",
                                "--basis", str(path)])


@pytest.mark.parametrize("damage", ["tampered", "nan", "huge"])
@pytest.mark.parametrize("command", ["decompose", "stokes"])
def test_damaged_basis_file_exit_2(tmp_path, capsys, damage, command):
    """Numeric checks on a basis read from a file: one changed entry breaks
    orthonormality and harmonicity, a NaN is not finite, and an entry of
    1e308 overflows the Gram check, which fails without a numpy warning."""
    d = tmp_path / "basis"
    run_cli(capsys, "harmonic", "--mesh", "builtin:torus", "--k", "1",
            "--out-dir", str(d))
    path = d / "harmonic_basis.json"
    payload = json.loads(path.read_text())
    payload["vectors"][1][7] = {"nan": float("nan"), "huge": 1e308}.get(
        damage, payload["vectors"][1][7] + 1e-3)
    path.write_text(json.dumps(payload))
    if command == "decompose":
        argv = ["decompose", "--mesh", "builtin:torus", "--k", "1", "--basis", str(path)]
    else:
        cfg = write_cfg(tmp_path, "mesh = builtin:torus\nk = 1\nmu = 0.5\n")
        argv = ["stokes", "--config", cfg, "--basis", str(path)]
    assert_input_error(capsys, argv)


# --------------------------------------------------------- out-dir contract
MANIFEST_KEYS = {"tool", "version", "command", "config", "mesh_checksum", "seed",
                 "environment", "timings_s", "peak_rss_mb", "outputs"}
NSE_CFG = ("mesh = builtin:torus\nk = 0\nmu = 0.1\ndt = 1e-2\nt_end = 2e-2\n"
           "output_every = 1\nforcing = rigid_rotation\n")
# each verb's argv and the files it writes, in write order
OUT_DIR_RUNS = {
    "topology": (["--mesh", "builtin:tetrahedron"], ["topology.json"]),
    "harmonic": (["--mesh", "builtin:torus", "--k", "0"], ["harmonic_basis.json"]),
    "decompose": (["--mesh", "builtin:torus", "--k", "0"],
                  ["decomposition.vtk", "decomposition.json"]),
    "stokes": (["--config", "CFG", "--compare-saddle"], ["flow_000000.vtk", "stokes.json"]),
    "nse": (["--config", "CFG"],
            ["flow_000000.vtk", "flow_000001.vtk", "flow_000002.vtk", "timeseries.csv"]),
    "verify": (["--mesh", "builtin:tetrahedron", "--k-max", "0"], ["verify.json"]),
}


@pytest.mark.parametrize("verb", sorted(OUT_DIR_RUNS))
def test_out_dir_contract(tmp_path, capsys, verb):
    """With --out-dir every verb writes its files and a manifest listing
    exactly them, in write order; JSON outputs agree with the printed line."""
    args, files = OUT_DIR_RUNS[verb]
    args = [write_cfg(tmp_path, NSE_CFG) if a == "CFG" else a for a in args]
    out = tmp_path / "out"
    code, payload, _ = run_cli(capsys, verb, *args, "--out-dir", str(out))
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["command"] == verb
    assert 0 < manifest["peak_rss_mb"] < 4096  # MiB: a desk-scale run's resident peak
    assert manifest["outputs"] == [os.path.join(str(out), f) for f in files]
    assert sorted(os.listdir(out)) == sorted(files + ["manifest.json"])
    if verb in ("topology", "stokes", "decompose"):
        name = "decomposition.json" if verb == "decompose" else f"{verb}.json"
        assert json.loads((out / name).read_text()) == payload
    if verb == "verify":
        written = json.loads((out / "verify.json").read_text())
        assert written["failures"] == payload["failures"] == 0
        assert len(written["checks"]) == payload["checks"] > 0
    if verb == "harmonic":
        assert payload["basis_file"] == manifest["outputs"][0]
    if verb == "nse":
        assert payload["outputs"] == manifest["outputs"]


def _readme_synopsis() -> dict:
    """verb -> flags of README's "Command line" block."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    flags, verb = {}, None
    for line in block.splitlines():
        if line.startswith("surfhodge "):
            verb = line.split()[1]
        if verb:
            flags.setdefault(verb, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    return flags


def test_readme_synopsis_lists_every_flag():
    parser = build_parser()
    verbs = next(a for a in parser._actions if a.dest == "command").choices
    synopsis = _readme_synopsis()
    assert set(synopsis) == set(verbs)
    for verb, sp in verbs.items():
        options = {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"}
        assert synopsis[verb] == options, verb
