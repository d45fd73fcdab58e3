import pathlib

import numpy as np
import pytest

from surfhodge.config import (
    FORCING_PRESETS,
    compile_expression,
    constant_band_forcing,
    expression_forcing,
    forcing_from_dict,
    load_simulation_config,
    parse_config_file,
    rigid_rotation_forcing,
)
from surfhodge.errors import ParseError


def test_expression_basics():
    f = compile_expression("sin(x) + 2*y**2 - z/2 + t")
    env = {"x": np.array([0.0, np.pi / 2]), "y": np.array([1.0, 2.0]),
           "z": np.array([2.0, 4.0]), "t": 3.0}
    got = f(env)
    assert np.allclose(got, [0 + 2 - 1 + 3, 1 + 8 - 2 + 3])


def test_expression_step_and_constants():
    f = compile_expression("step(1 - x) * pi")
    env = {"x": np.array([0.0, 2.0]), "y": 0.0, "z": 0.0, "t": 0.0}
    assert np.allclose(f(env), [np.pi, 0.0])


def test_expression_reports_variables_read():
    assert compile_expression("sin(x) * pi + t").names == {"x", "t"}
    assert compile_expression("2*e").names == set()


def test_forcings_steady_unless_an_expression_reads_t():
    assert all(preset().steady for preset in FORCING_PRESETS.values())
    assert expression_forcing("sin(y)", "cos(z)", "0.2*x").steady
    assert not expression_forcing("y", "0", "step(0.0025 - t)").steady


def test_expression_rejects_unsafe():
    for bad in ("__import__('os')", "x.__class__", "lambda: 1", "open('f')",
                "unknown_name", "foo(x)"):
        with pytest.raises(ParseError):
            compile_expression(bad)


def test_expression_nesting_bound():
    """A 150-term sum (152 levels) compiles and evaluates; 200 terms, 200
    nested calls or an integer beyond the float range raise ParseError,
    with the source cut to a short excerpt in the message."""
    env = {"x": np.array([1.0, 2.0]), "y": 0.0, "z": 0.0, "t": 0.0}
    assert np.array_equal(compile_expression("+".join(["x"] * 150))(env), [150.0, 300.0])
    for bad in ("+".join(["x"] * 200), "abs(" * 200 + "x" + ")" * 200, "1" + "0" * 400):
        with pytest.raises(ParseError) as info:
            compile_expression(bad)
        assert len(str(info.value)) < 200


def test_expression_forcing_vectorized():
    f = expression_forcing("y", "-x", "0")
    pts = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 0.5]])
    got = f(pts, t=0.0)
    assert np.allclose(got, [[2.0, -1.0, 0.0], [-1.0, 0.0, 0.0]])


def test_constant_band_forcing():
    f = constant_band_forcing(direction=(0, 1, 0), amplitude=2.0,
                              band_axis=0, band_max=1.0)
    pts = np.array([[0.5, 0, 0], [1.5, 0, 0]])
    assert np.allclose(f(pts, 0.0), [[0, 2.0, 0], [0, 0, 0]])


def test_rigid_rotation_forcing():
    f = rigid_rotation_forcing(center=(0, 0, 0), axis=(0, 0, 1), amplitude=3.0)
    pts = np.array([[2.0, 0.0, 0.0]])
    # (x/|x|) x e_z = (1,0,0) x (0,0,1) = (0,-1,0)
    assert np.allclose(f(pts, 0.0), [[0.0, -3.0, 0.0]])


def test_config_file_round_trip(tmp_path):
    cfg_text = """# demo
mesh = builtin:torus
k = 2
mu = 0.25
dt = 1e-3
t_end = 0.01
output_every = 5
seed = 7
bc = noslip
forcing = constant_band
direction = 0,1,0
amplitude = 4e-5
band_axis = 0
band_max = 40
"""
    path = tmp_path / "run.cfg"
    path.write_text(cfg_text)
    values = parse_config_file(path)
    assert values["k"] == 2
    assert values["direction"] == (0.0, 1.0, 0.0)
    config, raw = load_simulation_config(path)
    assert config.k == 2 and config.mu == 0.25 and config.seed == 7
    pts = np.array([[10.0, 0, 0], [50.0, 0, 0]])
    assert np.allclose(config.forcing(pts, 0.0), [[0, 4e-5, 0], [0, 0, 0]])


def test_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a key value line\n")
    with pytest.raises(ParseError):
        parse_config_file(bad)
    with pytest.raises(ParseError):
        forcing_from_dict({"forcing": "warp_drive"})


@pytest.mark.parametrize("values", [
    {"forcing": "constant_band", "amplitude": "abc"},
    {"forcing": "constant_band", "direction": (0.0, 1.0)},
    {"forcing": "constant_band", "band_axis": 3},
    {"forcing": "rigid_rotation", "amplitude": (1.0, 2.0)},
    {"forcing": "rigid_rotation", "axis": 1.0},
])
def test_bad_preset_parameters_rejected_on_read(values):
    with pytest.raises(ParseError):
        forcing_from_dict(values)


def test_shipped_configs_load():
    """Every config under configs/ parses and builds its SimulationConfig
    and forcing (no unknown key)."""
    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    paths = sorted(root.glob("*.cfg"))
    assert paths
    for path in paths:
        config, _ = load_simulation_config(path)
        assert config.forcing(np.zeros((1, 3)), 0.0).shape == (1, 3)
