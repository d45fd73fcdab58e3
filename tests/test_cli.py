import json
import os

import numpy as np

from surfhodge import meshes
from surfhodge.cli import main
from surfhodge.mesh import save_obj, save_off


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


def test_harmonic_max_attempts_exit_3(capsys):
    code = main(["harmonic", "--mesh", "builtin:torus", "--k", "0", "--tol", "10"])
    assert code == 3


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


def test_decompose_basis_reuse(tmp_path, capsys):
    d = tmp_path / "basis"
    run_cli(capsys, "harmonic", "--mesh", "builtin:torus", "--k", "1",
            "--out-dir", str(d))
    code, payload, _ = run_cli(
        capsys, "decompose", "--mesh", "builtin:torus", "--k", "1",
        "--basis", str(d / "harmonic_basis.json"))
    assert code == 0


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


# ------------------------------------------------------ other input errors
def assert_input_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and len(err.splitlines()) == 1


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


def test_config_bad_forcing_vector_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "mesh = builtin:torus\nk = 1\n"
                              "forcing = rigid_rotation\ncenter = 0 0 0\n")
    assert_input_error(capsys, ["stokes", "--config", cfg])
