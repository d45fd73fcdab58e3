"""Fuzzing of the command line's file inputs.

Mesh files (the OFF and OBJ text of three corpus meshes, through
`topology`) and config files (configs/stokes_torus.cfg and
configs/nse_trefoil.cfg on the tetrahedron, through `stokes` and `nse`)
are mutated line by line, token by token and byte by byte, and cli.main
runs in process on each.  It must exit 0, 2, 3 or 4; a failure writes
exactly one stderr line and no traceback, and a success writes no NaN or
Infinity.  Seeds are derandomized, so a run is reproducible.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from surfhodge import meshes
from surfhodge.cli import main
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
CONFIG_SOURCES = [(".cfg", (ROOT / "configs" / name).read_bytes())
                  for name in ("stokes_torus.cfg", "nse_trefoil.cfg")]


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
