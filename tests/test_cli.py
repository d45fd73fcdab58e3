import json
import os
import re

import numpy as np
import pytest

from surfhodge import config, meshes
from surfhodge.cli import build_parser, main
from surfhodge.mesh import save_obj, save_off

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


def test_decompose_passes_tol_exit_3(capsys):
    """decompose builds its basis with --tol, as harmonic does: no draw
    reaches a norm of 1e300."""
    assert main(["decompose", "--mesh", "builtin:torus", "--k", "1", "--tol", "1e300"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("algorithmic failure:") and len(err.splitlines()) == 1


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


@pytest.mark.parametrize("bad", ["dt = nan", "mu = nan", "mu = inf", "alpha = nan",
                                 "t_end = inf", "t_end = nan", "seed = 1.5", "seed = -1",
                                 "k = 1.5", "allow_inviscid = maybe", "allow_inviscid = 1",
                                 "harmonic --seed -1", "harmonic --tol nan",
                                 "harmonic --tol -1", "harmonic --tol 0", "harmonic --tol inf",
                                 "verify --k-max -1"])
def test_bad_parameter_value_exit_2(tmp_path, capsys, bad):
    """A config value (nse), a seed or tol flag (harmonic) or a degree bound
    (verify) out of its domain is an input error: no solver failure,
    traceback or silent acceptance."""
    if bad.startswith(("harmonic", "verify")):
        argv = [*bad.split(), "--mesh", "builtin:torus"]
    else:
        argv = ["nse", "--config", write_cfg(tmp_path, f"mesh = builtin:torus\n{bad}\n")]
    assert_input_error(capsys, argv)


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


def test_topology_missing_mesh_exit_2(tmp_path, capsys):
    assert_input_error(capsys, ["topology", "--mesh", str(tmp_path / "nope.off")])


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


@pytest.mark.parametrize("damage", ["tampered", "nan"])
@pytest.mark.parametrize("command", ["decompose", "stokes"])
def test_damaged_basis_file_exit_2(tmp_path, capsys, damage, command):
    """Numeric checks on a basis read from a file: one changed entry breaks
    orthonormality and harmonicity, a NaN is not finite."""
    d = tmp_path / "basis"
    run_cli(capsys, "harmonic", "--mesh", "builtin:torus", "--k", "1",
            "--out-dir", str(d))
    path = d / "harmonic_basis.json"
    payload = json.loads(path.read_text())
    payload["vectors"][1][7] = float("nan") if damage == "nan" else payload["vectors"][1][7] + 1e-3
    path.write_text(json.dumps(payload))
    if command == "decompose":
        argv = ["decompose", "--mesh", "builtin:torus", "--k", "1", "--basis", str(path)]
    else:
        cfg = write_cfg(tmp_path, "mesh = builtin:torus\nk = 1\nmu = 0.5\n")
        argv = ["stokes", "--config", cfg, "--basis", str(path)]
    assert_input_error(capsys, argv)


# --------------------------------------------------------- out-dir contract
MANIFEST_KEYS = {"tool", "version", "command", "config", "mesh_checksum", "seed",
                 "timings_s", "outputs"}
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
