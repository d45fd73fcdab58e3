"""The test run's own configuration (pyproject.toml's pytest section)."""

import ast
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

_PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_deliberately_fails(n):
    assert n != n


def test_runs_after_the_failure():
    pass
'''


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    """filterwarnings = error turns the DeprecationWarning that Hypothesis's
    report hook raises for a failing @given test (mypy_extensions.TypedDict)
    into an INTERNALERROR that ends the whole run.  Under the project's
    configuration the failure stays an ordinary one and later tests run."""
    (tmp_path / "test_probe.py").write_text(_PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


def test_property_tests_are_derandomized():
    """Every @given test, also one defined inside another test, carries
    settings with derandomize=True, directly or from a module-level
    settings object.  Every run then draws the same examples, so two runs
    build the same meshes and factors and a failure reproduces."""
    found = 0
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        tree = ast.parse(path.read_text())
        named = {node.targets[0].id: node.value for node in tree.body
                 if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
        for node in ast.walk(tree):
            calls = {d.func.id: d for d in getattr(node, "decorator_list", [])
                     if isinstance(d, ast.Call) and isinstance(d.func, ast.Name)}
            if "given" not in calls:
                continue
            found += 1
            where = f"{path.name}::{node.name}"
            assert "settings" in calls, where
            own = calls["settings"]
            keys = {kw.arg: kw.value for kw in own.keywords}
            if "derandomize" not in keys and own.args:  # settings(PARENT, ...) inherits it
                keys = {kw.arg: kw.value for kw in named[own.args[0].id].keywords}
            assert "derandomize" in keys and ast.literal_eval(keys["derandomize"]) is True, where
    assert found >= 10



def _cached_properties(tree: ast.Module) -> set[str]:
    """Names of the methods decorated with cached_property or
    functools.cached_property."""
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            for d in node.decorator_list
            if getattr(d, "id", getattr(d, "attr", None)) == "cached_property"}


def _vars_pops(tree: ast.Module):
    """The first argument (None when there is none) of each
    vars(<obj>).pop(...) call in tree."""
    for node in ast.walk(tree):
        f = node.func if isinstance(node, ast.Call) else None
        if (isinstance(f, ast.Attribute) and f.attr == "pop" and isinstance(f.value, ast.Call)
                and isinstance(f.value.func, ast.Name) and f.value.func.id == "vars"):
            yield node.args[0] if node.args else None


def test_released_attributes_are_cached_properties():
    """A run releases HodgeSolver's factor L and its pressure side, which
    are built on first use and may not exist, by removing them from
    vars(solver); only a functools.cached_property is built again on its
    next read, and a misspelt name releases nothing and, with a default,
    raises nothing.  So every vars(<obj>).pop("<name>", ...) in the package
    names, as a string, one of those two.  A plain attribute is released
    with del, which raises on a misspelt name."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "surfhodge").glob("*.py"))}
    factors = {"right_inverse", "laplace_operator"}
    assert factors <= _cached_properties(trees["hodge.py"])
    released = [(name, arg) for name, tree in trees.items() for arg in _vars_pops(tree)]
    assert len(released) >= 2
    assert [f"{name}: {ast.unparse(arg) if arg else 'no name'}" for name, arg in released
            if not (isinstance(arg, ast.Constant) and arg.value in factors)] == []


def _eager_cached_properties(tree: ast.Module) -> list[str]:
    """Class.name for each cached_property of a class in tree that the
    class's own __init__, or a dataclass's __post_init__, reads as
    self.name."""
    found = []
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        cached = _cached_properties(ast.Module(body=cls.body, type_ignores=[]))
        for init in (n for n in cls.body if isinstance(n, ast.FunctionDef)
                     and n.name in ("__init__", "__post_init__")):
            found += sorted({f"{cls.name}.{node.attr}" for node in ast.walk(init)
                             if isinstance(node, ast.Attribute) and node.attr in cached
                             and isinstance(node.value, ast.Name) and node.value.id == "self"})
    return found


def test_no_cached_property_is_read_in_its_own_init():
    """A value a constructor builds is always there, so it is a plain
    attribute: no cached_property of the package is read in its own
    class's __init__ or __post_init__."""
    assert [f"{path.name}: {name}"
            for path in sorted((ROOT / "src" / "surfhodge").glob("*.py"))
            for name in _eager_cached_properties(ast.parse(path.read_text()))] == []


def test_eager_cached_property_check_flags_a_read_in_init():
    tree = ast.parse(
        "class A:\n"
        "    def __init__(self):\n"
        "        self.block\n"
        "        self.solver = f(self.system, other.lazy)\n"
        "    @cached_property\n"
        "    def block(self): ...\n"
        "    @functools.cached_property\n"
        "    def system(self): ...\n"
        "    @cached_property\n"
        "    def lazy(self): ...\n")
    assert _eager_cached_properties(tree) == ["A.block", "A.system"]


def test_eager_cached_property_check_flags_a_read_in_post_init():
    tree = ast.parse(
        "@dataclass\n"
        "class Split:\n"
        "    part: np.ndarray\n"
        "    def __post_init__(self):\n"
        "        self.part.flags.writeable = False\n"
        "        self.residual_norm\n"
        "    @cached_property\n"
        "    def residual_norm(self): ...\n"
        "    @cached_property\n"
        "    def lam(self): ...\n"
        "    def report(self):\n"
        "        return self.lam\n")
    assert _eager_cached_properties(tree) == ["Split.residual_norm"]


# the band backend's LAPACK routines, by any precision prefix, and scipy's wrapper
_BAND_CHOLESKY = re.compile(r"([sdcz]?pbtr[fs]|cholesky_banded)$")


def _superlu_uses(tree: ast.Module) -> list[int]:
    """Sorted line numbers of each import, attribute or name string of splu
    or of a banded Cholesky routine (cholesky_banded, pbtrf, pbtrs), and of
    each .solve(...) call on an attribute named _lu (a SuperLU factor) in
    tree."""
    lines = []
    for node in ast.walk(tree):
        name = getattr(node, "attr", getattr(node, "id", None))
        if isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value  # get_lapack_funcs(("pbtrf",)) names its routine
        f = node.func if isinstance(node, ast.Call) else None
        if (name == "splu" or (isinstance(name, str) and _BAND_CHOLESKY.match(name))
                or (isinstance(f, ast.Attribute) and f.attr == "solve"
                    and getattr(f.value, "attr", None) == "_lu")):
            lines.append(node.lineno)
    return sorted(lines)


def test_superlu_is_called_only_in_linalg():
    """One factorization abstraction: splu, the banded Cholesky routines,
    and solves on a SuperLU factor, appear only in linalg.py; every other
    module factors and solves through FactorizedOperator, so one backend
    rule, sweep and pivot policy holds for every factor."""
    uses = {path.name: _superlu_uses(ast.parse(path.read_text()))
            for path in sorted((ROOT / "src" / "surfhodge").glob("*.py"))}
    assert uses["linalg.py"]
    assert {name: lines for name, lines in uses.items() if lines and name != "linalg.py"} == {}


def test_superlu_scan_flags_splu_and_factor_solves():
    tree = ast.parse(
        "from scipy.sparse.linalg import splu\n"
        "lu = spla.splu(A)\n"
        "x = self._lu.solve(b, 'T')\n"
        "y = op.solve(b) + lu.solve(b)\n"
        "import scipy.sparse.linalg.splu\n"
        "c, info = lapack.dpbtrf(ab)\n"
        "x, info = dpbtrs(c, b)\n"
        "from scipy.linalg import cholesky_banded, solveh_banded\n"
        "potrs, pbtrf = get_lapack_funcs(('potrs', 'pbtrf'))\n"
        "c = scipy.linalg.cholesky_banded(ab)\n"
        "z = cho_solve(c, b) + band.solve(b)\n")
    assert _superlu_uses(tree) == [1, 2, 3, 5, 6, 7, 8, 9, 9, 10]


def _triangular_solve_sites(tree: ast.Module) -> dict[str, list[int]]:
    """Line numbers of each call in tree of dpbtrs, by any name path, and
    of .solve on an attribute named _lu (a SuperLU factor)."""
    sites = {"dpbtrs": [], "_lu.solve": []}
    for node in ast.walk(tree):
        name = _called_name(node)
        if name == "dpbtrs":
            sites["dpbtrs"].append(node.lineno)
        elif name == "solve" and getattr(node.func.value, "attr", None) == "_lu":
            sites["_lu.solve"].append(node.lineno)
    return sites


def test_each_backend_solves_from_one_site():
    """FactorizedOperator has one solve path for both backends, pinned or
    not: linalg.py calls dpbtrs once and a SuperLU factor's solve once,
    from the row-restricted solve that solve() and the near-null test
    share."""
    sites = _triangular_solve_sites(ast.parse((ROOT / "src" / "surfhodge" / "linalg.py").read_text()))
    assert {name: len(lines) for name, lines in sites.items()} == {"dpbtrs": 1, "_lu.solve": 1}


def test_solve_site_scan_counts_every_call():
    tree = ast.parse(
        "x = self._lu.solve(b)\n"
        "x[1:] = self._lu.solve(b[1:])\n"
        "y = lapack.dpbtrs(c, b)[0] + dpbtrs(c, r)[0]\n"
        "z = op.solve(b) + lu.solve(b) + self._lu.nnz\n")
    assert _triangular_solve_sites(tree) == {"dpbtrs": [3, 3], "_lu.solve": [1, 2]}


def _called_name(node) -> str | None:
    """The name a call node calls (f(...) or obj.f(...)), else None."""
    f = node.func if isinstance(node, ast.Call) else None
    return getattr(f, "attr", getattr(f, "id", None))


def _is_interpolated_rot_embedding(node) -> bool:
    """Whether node is an assemble_rot_embedding(...) call whose block, its
    third positional or block= argument, is not a snap_rounding(...) call:
    one that assembles E as interpolated."""
    if _called_name(node) != "assemble_rot_embedding":
        return False
    block = [kw.value for kw in node.keywords if kw.arg == "block"] or node.args[2:3]
    return not (block and _called_name(block[0]) == "snap_rounding")


def _interpolated_rot_embeddings(tree: ast.Module) -> list[int]:
    """Sorted line numbers of each call in tree that assembles E as
    interpolated."""
    return sorted(node.lineno for node in ast.walk(tree) if _is_interpolated_rot_embedding(node))


def _held_interpolated_rot_embeddings(tree: ast.Module) -> list[int]:
    """Sorted line numbers of each call in tree that assembles E as
    interpolated and is not an argument of another call, or is one of a
    call whose value is assigned to an attribute: each that can keep that E
    past its statement."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    lines = []
    for node in filter(_is_interpolated_rot_embedding, ast.walk(tree)):
        owner = parents[node]
        if isinstance(owner, ast.keyword):
            owner = parents[owner]
        statement = parents.get(owner)
        targets = (statement.targets if isinstance(statement, ast.Assign) else
                   [statement.target] if isinstance(statement, ast.AnnAssign) else [])
        if not isinstance(owner, ast.Call) or any(isinstance(t, ast.Attribute) for t in targets):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_flow_assembles_the_interpolated_rot_embedding():
    """HodgeSolver holds one rot embedding, E with its interpolation
    rounding snapped to 0.  The interpolated E, whose rounding entries shape
    the fill-reducing ordering of A_ss, is assembled only in flow.py, so the
    Hodge solver does not come to hold two embeddings again; and there only
    as a call argument whose call is not held as an attribute, so a flow
    run holds one embedding too, HodgeSolver.E."""
    found = {path.name: _interpolated_rot_embeddings(ast.parse(path.read_text()))
             for path in sorted((ROOT / "src" / "surfhodge").glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines and name != "flow.py"} == {}
    assert found["flow.py"]
    flow = ast.parse((ROOT / "src" / "surfhodge" / "flow.py").read_text())
    assert _held_interpolated_rot_embeddings(flow) == []


def test_rot_embedding_scan_flags_blocks_that_are_not_snapped():
    tree = ast.parse(
        "E = asm.assemble_rot_embedding(S, V)\n"
        "Es = asm.assemble_rot_embedding(S, V, asm.snap_rounding(rot))\n"
        "E = assemble_rot_embedding(S, V, rot)\n"
        "Es = assemble_rot_embedding(S, V, block=snap_rounding(rot))\n"
        "E = assemble_rot_embedding(S, V, block=rot)\n"
        "rot = asm.reference_rot_block(S, V)\n")
    assert _interpolated_rot_embeddings(tree) == [1, 3, 5]


def test_rot_embedding_scan_flags_interpolated_embeddings_that_are_held():
    tree = ast.parse(
        "self.E = asm.assemble_rot_embedding(S, V)\n"
        "E = assemble_rot_embedding(S, V)\n"
        "self.emb = JEmbedding(asm.assemble_rot_embedding(S, V), H)\n"
        "self.emb: JEmbedding = JEmbedding(E=assemble_rot_embedding(S, V), H=H)\n"
        "self.A_red = JEmbedding(asm.assemble_rot_embedding(S, V), H).reduce_matrix(A)\n"
        "red = JEmbedding(E=assemble_rot_embedding(S, V), H=H).reduce_matrix(A)\n"
        "self.emb = JEmbedding(asm.assemble_rot_embedding(S, V, asm.snap_rounding(rot)), H)\n")
    assert _held_interpolated_rot_embeddings(tree) == [1, 2, 3, 4]


def _attribute_reads(tree: ast.Module, name: str) -> list[int]:
    """Sorted line numbers of each attribute named name in tree."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == name)


def test_flow_and_cli_read_no_dof_map():
    """Which pressure dof of a triangle is its mean mode q0 is read off
    Q.dof_map behind HodgeSolver.right_inverse, which owns the mean-mode
    split (q0, B0 = B[q0], P, PK' r); flow.py and cli.py take it from there
    and never read a .dof_map themselves."""
    reads = {name: _attribute_reads(ast.parse((ROOT / "src" / "surfhodge" / name).read_text()),
                                    "dof_map") for name in ("flow.py", "cli.py")}
    assert reads == {"flow.py": [], "cli.py": []}
    assert _attribute_reads(ast.parse("q0 = self.Q.dof_map[:, 0]\nQ.dof_signs\n"),
                            "dof_map") == [1]
