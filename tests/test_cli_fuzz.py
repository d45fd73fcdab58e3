"""Fuzzing of the command line's inputs.

Mesh files (the OFF and OBJ text of three corpus meshes, through
`topology`) and config files (configs/stokes_torus.cfg and
configs/nse_trefoil.cfg, its 500 steps cut to 10, on the tetrahedron,
through `stokes` and `nse`)
are mutated line by line, token by token and byte by byte, and a harmonic
basis file (written by `harmonic --out-dir` on the built-in torus at k = 0,
read by `stokes --basis`) in its values, shapes, keys and types.  The
numeric flags of README's synopsis get any value argparse accepts: ints of
any sign and size for --k, --seed, --field-seed and --k-max, each run
through every verb that takes the flag, as --flag=value or as --flag value (a
value that starts with - and is not a number is then argparse's usage
error).  cli.main runs in process on each.  It
must exit 0, 2, 3 or 4; a failure writes exactly one stderr line and no
traceback, and a success writes no NaN or Infinity.  Every known config
key (each SimulationConfig field and each forcing preset's parameter)
gets values of the wrong type through `stokes` and `nse`: a string, a
vector for a scalar, a float for an integer key and a bool; each is an
input error, exit 2 with one `input error:` line.  Seeds are
derandomized, so a run is reproducible.
"""

import contextlib
import copy
import inspect
import io
import json
import re
import string
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from surfhodge import cli, meshes
from surfhodge.cli import main
from surfhodge.config import FORCING_PRESETS, _parse_value
from surfhodge.flow import SimulationConfig
from surfhodge.mesh import save_obj, save_off

ROOT = Path(__file__).resolve().parents[1]
# values put in place of a token, among them bytes that are not UTF-8 and
# 2**63 in digits (a config's t_end = 2**63 is above flow.MAX_STEPS)
SPECIALS = [b"nan", b"inf", b"1e400", b"-1", b"2**63", b"\xff\xfe\x80", b"",
            str(2**63).encode()]
OPS = ["drop line", "duplicate line", "swap lines", "drop token", "duplicate token",
       "swap tokens", "special token", "unknown key"]
FUZZ = settings(deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

PARSER = cli.build_parser()


@pytest.fixture(autouse=True)
def one_parser(monkeypatch):
    """Every run parses its argv with PARSER: building the parser takes
    about 2 ms, most of a run that ends in an input error, and argparse
    keeps no state between parses."""
    monkeypatch.setattr(cli, "build_parser", lambda: PARSER)


def _mesh_sources() -> list[tuple[str, bytes]]:
    corpus = meshes.corpus()
    sources = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("tetrahedron", "torus", "sphere_4holes"):
            for ext, save in ((".off", save_off), (".obj", save_obj)):
                path = Path(tmp) / f"{name}{ext}"
                save(corpus[name], path)
                sources.append((ext, path.read_bytes()))
    return sources


MESH_SOURCES = _mesh_sources()
# the shipped configs, nse_trefoil.cfg with t_end = 0.2, so that an nse
# example of it steps 10 times, not 500
TREFOIL_CFG = (ROOT / "configs" / "nse_trefoil.cfg").read_bytes()
assert b"\nt_end = 10.0\n" in TREFOIL_CFG
CONFIG_SOURCES = [(".cfg", (ROOT / "configs" / "stokes_torus.cfg").read_bytes()),
                  (".cfg", TREFOIL_CFG.replace(b"\nt_end = 10.0\n", b"\nt_end = 0.2\n"))]


def _basis_payload() -> dict:
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        assert main(["harmonic", "--mesh", "builtin:torus", "--k", "0", "--out-dir", tmp]) == 0
        return json.loads((Path(tmp) / "harmonic_basis.json").read_text())


BASIS = _basis_payload()
# values put in place of a key's value or of one basis entry
BASIS_SPECIALS = [float("nan"), float("inf"), -float("inf"), 1e308, 0, -1, 1.5, 2**63, True,
                  None, "x", [], [[1.0]], {}]
BASIS_OPS = ["value", "entry", "drop row", "duplicate row", "drop column", "resize",
             "drop key", "unknown key"]


@st.composite
def mutated_basis(draw):
    """The JSON text of BASIS after one to three mutations, truncated at a
    random byte a quarter of the time."""
    payload = copy.deepcopy(BASIS)
    for op in draw(st.lists(st.sampled_from(BASIS_OPS), min_size=1, max_size=3)):
        rows = payload.get("vectors")
        matrix = isinstance(rows, list) and rows and all(isinstance(r, list) and r for r in rows)
        if op == "unknown key":
            payload["no_such_key"] = 1
        elif not payload:
            continue
        elif op in ("value", "drop key"):
            key = draw(st.sampled_from(sorted(payload)))
            if op == "drop key":
                del payload[key]
            else:
                payload[key] = draw(st.sampled_from(BASIS_SPECIALS))
        elif op == "resize":  # b1 or n_dofs off the vectors' shape
            key = draw(st.sampled_from(["b1", "n_dofs"]))
            payload[key] = draw(st.sampled_from([0, 1, 3, 191, 193, 384, -1]))
        elif matrix:
            i = draw(st.integers(0, len(rows) - 1))
            if op == "entry":
                rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(
                    st.sampled_from(BASIS_SPECIALS))
            elif op == "drop row":
                del rows[i]
            elif op == "duplicate row":
                rows.insert(i, list(rows[i]))
            else:  # one entry of every row, so the shape stays rectangular
                j = draw(st.integers(0, min(len(r) for r in rows) - 1))
                for r in rows:
                    del r[j]
    data = json.dumps(payload).encode()
    if draw(st.integers(0, 3)) == 0:
        data = data[:draw(st.integers(0, len(data)))]
    return data


@st.composite
def mutated(draw, sources, specials):
    """(extension, bytes): a source after one to four line or token
    mutations, truncated at a random byte half of the time."""
    ext, text = draw(st.sampled_from(sources))
    lines = text.split(b"\n")
    for op in draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=4)):
        lines = lines or [b""]
        i = draw(st.integers(0, len(lines) - 1))
        if op == "drop line":
            del lines[i]
        elif op == "duplicate line":
            lines.insert(i, lines[i])
        elif op == "swap lines":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "unknown key":
            lines.insert(i, b"no_such_key = 1")
        else:  # tokens sit at the even positions, separators at the odd ones
            parts = re.split(rb"(\s+|,)", lines[i])
            t = 2 * draw(st.integers(0, len(parts) // 2))
            if op == "drop token":
                parts[t] = b""
            elif op == "duplicate token":
                parts[t] += b" " + parts[t]
            elif op == "swap tokens":
                u = 2 * draw(st.integers(0, len(parts) // 2))
                parts[t], parts[u] = parts[u], parts[t]
            else:
                parts[t] = draw(st.sampled_from(specials))
            lines[i] = b"".join(parts)
    data = b"\n".join(lines)
    if draw(st.booleans()):
        data = data[:draw(st.integers(0, len(data)))]
    return ext, data


def check_run(argv):
    """Run cli.main on argv in process and check its exit contract."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    if code:
        assert len(err.getvalue().splitlines()) == 1
        assert "Traceback" not in err.getvalue()
    else:
        assert "NaN" not in out.getvalue() and "Infinity" not in out.getvalue()


@settings(FUZZ, max_examples=300)
@given(mutated(MESH_SOURCES, SPECIALS))
def test_fuzz_mesh_files(case):
    ext, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"mesh{ext}"
        path.write_bytes(data)
        check_run(["topology", "--mesh", str(path)])


@settings(FUZZ, max_examples=100)
@given(mutated(CONFIG_SOURCES, SPECIALS), st.sampled_from(["stokes", "nse"]))
def test_fuzz_config_files(case, verb):
    _, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_bytes(data)
        check_run([verb, "--config", str(path), "--mesh", "builtin:tetrahedron"])


@settings(FUZZ, max_examples=100)
@given(mutated_basis())
def test_fuzz_basis_files(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "harmonic_basis.json"
        path.write_bytes(data)
        check_run(["stokes", "--config", str(ROOT / "configs" / "stokes_torus.cfg"),
                   "--k", "0", "--basis", str(path)])


# the verbs of README's synopsis that take each numeric flag
FLAG_VERBS = {
    "--k": ("harmonic", "decompose", "stokes", "nse"),
    "--seed": ("harmonic", "decompose", "stokes", "nse", "verify"),
    "--field-seed": ("decompose",),
    "--k-max": ("verify",),
}
# ints of any sign and size, with the 64-bit edges always among the draws
FLAG_INTS = st.one_of(st.sampled_from([2**31, 2**63, -2**63, 2**64 + 1, 10**30]), st.integers())
FLAG_VALUES = {flag: FLAG_INTS.map(str) for flag in FLAG_VERBS}


def _flag_run(verb: str, flag: str, value: str, joined: bool) -> list[str]:
    """argv of one run on the tetrahedron (stokes and nse with the shipped
    Stokes config), with the flag and its value as one argument
    --flag=value when joined, else as two."""
    if verb in ("stokes", "nse"):
        base = ["--config", str(ROOT / "configs" / "stokes_torus.cfg"),
                "--mesh", "builtin:tetrahedron"]
    else:
        base = ["--mesh", "builtin:tetrahedron"]
    return [verb, *base, *([f"{flag}={value}"] if joined else [flag, value])]


@pytest.mark.parametrize("flag", sorted(FLAG_VERBS))
def test_fuzz_flag_values(flag):
    @settings(FUZZ, max_examples=8)
    @given(FLAG_VALUES[flag], st.booleans())
    def run(value, joined):
        for verb in FLAG_VERBS[flag]:
            check_run(_flag_run(verb, flag, value, joined))

    run()


# every known config key with the type of its values
KEY_TYPES = {
    **dict.fromkeys(("k", "output_every", "seed", "band_axis"), int),
    **dict.fromkeys(("mu", "alpha", "dt", "t_end", "amplitude", "band_max", "band_min"), float),
    **dict.fromkeys(("direction", "center", "axis"), tuple),
    **dict.fromkeys(("forcing", "initial", "bc", "fx", "fy", "fz"), str),
    "allow_inviscid": bool,
}
# (the forcing a run selects, a key it reads): the SimulationConfig fields
# under the zero forcing, then each preset's parameters under that preset
CONFIG_KEYS = [("zero", f.name) for f in fields(SimulationConfig)] + [
    (name, key) for name, preset in FORCING_PRESETS.items()
    for key in inspect.signature(preset).parameters]
# values of each type as a config file spells them
TYPED_VALUES = {
    "string": st.text(string.ascii_letters + "_", min_size=1, max_size=8).filter(
        lambda s: isinstance(_parse_value(s), str)),
    "vector": st.lists(st.floats(), min_size=2, max_size=4).map(lambda v: ",".join(map(repr, v))),
    "float": st.floats().map(repr),
    "bool": st.sampled_from(["true", "false", "True", "FALSE"]),
}


def _wrong_types(kind: type) -> list[str]:
    """The value types wrong for a key of type kind: a string, a vector for
    a scalar, a float for an integer and a bool."""
    wrong = {"string": kind is not str, "vector": kind is not tuple, "float": kind is int,
             "bool": kind is not bool}
    return [name for name, is_wrong in wrong.items() if is_wrong]


def test_every_config_key_has_a_type():
    assert sorted({key for _, key in CONFIG_KEYS}) == sorted(KEY_TYPES)


@pytest.mark.parametrize("forcing, key", CONFIG_KEYS, ids=[f"{f}-{k}" for f, k in CONFIG_KEYS])
def test_fuzz_config_value_types(tmp_path, forcing, key):
    path = tmp_path / "run.cfg"

    @settings(FUZZ, max_examples=4)
    @given(st.tuples(*(TYPED_VALUES[name] for name in _wrong_types(KEY_TYPES[key]))))
    def run(values):
        for value in values:
            path.write_text(f"forcing = {forcing}\n{key} = {value}\n")
            for verb in ("stokes", "nse"):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main([verb, "--config", str(path), "--mesh", "builtin:tetrahedron"])
                assert (code, len(err.getvalue().splitlines())) == (2, 1), (value, err.getvalue())
                assert err.getvalue().startswith("input error:")

    run()
