"""Static checks in place of a linter: every name a module of surfhodge or
a script in scripts/ imports is used in that file or re-exported through
its __all__, every parameter of a function of surfhodge is read in its
body, every name in surfhodge.__all__ resolves, and every top-level
function, class and constant of surfhodge is referenced somewhere in the
package, scripts/ or tests/.  One run in a child process checks what the
CLI's verbs load."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import surfhodge

PACKAGE = Path(surfhodge.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys)\n") == ["os (line 1)"]
    assert unused_imports("from a import b as c\n__all__ = ['c']\n") == []


@pytest.mark.parametrize("path", MODULES + SCRIPTS,
                         ids=[p.name for p in MODULES] + [f"scripts/{p.name}" for p in SCRIPTS])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def unused_parameters(source: str) -> list[str]:
    """Parameters of each def (named by its dotted path through classes
    and enclosing defs) that its body, nested scopes included, never reads."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
                params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                found.extend(f"{prefix}{child.name}({p})" for p in params if p not in read)
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


# The forcing protocol f(points, t): a steady forcing ignores t.
UNREAD_BY_PROTOCOL = {
    "flow.py": ["_zero_forcing(t)"],
    "config.py": ["constant_band_forcing.f(t)", "rigid_rotation_forcing.f(t)"],
}


def test_checker_flags_an_unused_parameter():
    source = ("def f(a, b, *c, d=1, **e):\n    return a + d\n"
              "class C:\n    def m(self, x):\n        def g(y):\n            return x\n"
              "        return self, g\n")
    assert unused_parameters(source) == ["f(b)", "f(c)", "f(e)", "C.m.g(y)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_parameter_is_read(path):
    assert unused_parameters(path.read_text()) == UNREAD_BY_PROTOCOL.get(path.name, [])


def test_package_exports_resolve():
    """A stale __all__ entry breaks `from surfhodge import *`."""
    assert len(surfhodge.__all__) == len(set(surfhodge.__all__))
    missing = [name for name in surfhodge.__all__ if not hasattr(surfhodge, name)]
    assert missing == []
    namespace: dict = {}
    exec("from surfhodge import *", namespace)
    assert set(surfhodge.__all__) <= set(namespace)


def top_level_names(source: str) -> list[str]:
    """Functions, classes and assigned names defined at module level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def references(source: str) -> set[str]:
    """Names a file reads: loaded names, attributes, imported names and
    identifier strings (__all__ entries, monkeypatched attributes)."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def test_checker_flags_a_dead_helper():
    source = "X = 1\n_Y = 2\ndef f():\n    return X\nclass C:\n    pass\n"
    assert top_level_names(source) == ["X", "_Y", "f", "C"]
    assert references(source) == {"X"}


def test_every_top_level_name_is_referenced():
    """A helper that nothing reads any more (a leftover after a refactor)
    fails here; a name counts as read when any package module, script or
    test loads it, imports it by name or names it in a string."""
    refs = set().union(*(references(p.read_text()) for p in MODULES + SCRIPTS + TESTS))
    dead = [f"{path.name}:{name}" for path in MODULES
            for name in top_level_names(path.read_text()) if name not in refs]
    assert dead == []


def test_cli_runs_never_load_scipy_special(tmp_path):
    """The Gauss rules are tabulated, so no run imports scipy.special, the
    largest module the package would add to a process.  One process
    imports the CLI and runs stokes --compare-saddle and a short nse on the
    builtin torus, then harmonic and decompose on the pierced sphere at
    k = 3."""
    nse = tmp_path / "nse.cfg"
    nse.write_text("mesh = builtin:torus\nk = 1\nmu = 0.5\ndt = 1e-2\nt_end = 3e-2\n"
                   "output_every = 1\nforcing = expression\nfx = sin(y)\nfy = cos(z)\n"
                   "fz = 0.2*x\n")
    root = Path(__file__).resolve().parents[1]
    runs = [["stokes", "--config", str(root / "configs" / "stokes_torus.cfg"),
             "--compare-saddle"],
            ["nse", "--config", str(nse)],
            ["harmonic", "--mesh", "builtin:sphere_4holes", "--k", "3"],
            ["decompose", "--mesh", "builtin:sphere_4holes", "--k", "3"]]
    runs = [argv + ["--out-dir", str(tmp_path / argv[0])] for argv in runs]
    script = ("import json, sys\nfrom surfhodge import cli\n"
              "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
              "print(codes, 'scipy.special' in sys.modules)\n")
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] False"
