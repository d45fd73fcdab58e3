"""README's "Removed API" table names what left the library on purpose.
Each entry of its first column must stay gone: a module-level name or class
attribute that resolves again, or a `f(param=)` whose `param` is back in
`inspect.signature(f)`, fails the test, so the table and the code cannot
drift apart.  The module table ("Library layout") names only live API:
each of its backquoted names must resolve, with its `f(param=...)`
keywords in f's signature."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import surfhodge
from surfhodge.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {m.name: importlib.import_module(f"surfhodge.{m.name}")
           for m in pkgutil.iter_modules(surfhodge.__path__)}
CLASSES = {obj.__name__: obj for mod in MODULES.values() for obj in vars(mod).values()
           if inspect.isclass(obj) and obj.__module__.startswith("surfhodge.")}

# table entries that name no module-level object or class attribute, so
# nothing is resolved
NOT_CHECKED = {
    "surfhodge topology --seed": "a CLI flag; topology's parser is tested in test_cli",
    "--tol": "a CLI flag of the same row",
    '"SPD"': "a value of the removed kind= argument",
    '"symmetric-indefinite"': "a value of the removed kind= argument",
    "f(x)": "prose: how assemble_load used to call a forcing",
    "SurfaceMesh.conormals": "an instance attribute, set by SurfaceMesh.__init__",
    "SurfaceMesh.metric": "an instance attribute, set by SurfaceMesh.__init__",
    "SurfaceMesh.inverse_metric": "an instance attribute, set by SurfaceMesh.__init__",
    "SurfaceMesh.tri_areas": "an instance attribute: a class-level lookup would miss its return",
    "n": "an instance attribute of FactorizedOperator",
    "lu_nnz": "an instance attribute of FactorizedOperator",
    "E": "an instance attribute of HodgeSolver",
    "pressure": "a parameter of stokes_saddle, named in the same cell",
    "manifest.json": "a file the CLI writes",
}
ENTRY = re.compile(r"(?:(\w+)\.|(\.))?(\w+)(?:\((.*)\))?")


def removed_rows(text: str) -> list[list[str]]:
    """The backquoted entries of the first column, one list per row."""
    lines = text.split("### Removed API", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| --- |"))
    rows = []
    for line in lines[start + 1:]:
        if not line.startswith("|"):
            break
        rows.append(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return rows


def module_table_entries(text: str) -> list[str]:
    """The backquoted entries of the module table's second column."""
    lines = text.split("## Library layout and dof conventions", 1)[1].splitlines()
    return [entry for line in lines if line.startswith("| `surfhodge.")
            for entry in re.findall(r"`([^`]+)`", line.split("|", 2)[2])]


def _has(owner, name: str) -> bool:
    if inspect.isclass(owner):
        return hasattr(owner, name) or name in getattr(owner, "__dataclass_fields__", {})
    return hasattr(owner, name)


def _find(name: str) -> list:
    """Every distinct module-level object or class attribute called name."""
    found = {}
    for owner in (*MODULES.values(), *CLASSES.values()):
        if _has(owner, name):
            found[id(inspect.getattr_static(owner, name, owner))] = owner
    return [getattr(owner, name, None) for owner in found.values()]


def problems(rows: list[list[str]]) -> list[str]:
    """Entries that resolve again, and entries that cannot be resolved.  An
    entry `.name` is an attribute of the row's previous callable."""
    out = []
    for row in rows:
        previous = None
        for entry in row:
            if entry in NOT_CHECKED:
                continue
            m = ENTRY.fullmatch(entry)
            if m is None:
                out.append(f"{entry}: cannot parse")
                continue
            qual, dot, name, args = m.groups()
            owner = previous if dot else MODULES.get(qual) or CLASSES.get(qual)
            if (qual or dot) and owner is None:
                out.append(f"{entry}: cannot resolve its owner")
                continue
            if owner is not None:
                found = [getattr(owner, name, None)] if _has(owner, name) else []
            else:
                found = _find(name)
            keywords = [a.split("=", 1) for a in (args or "").split(", ") if "=" in a]
            if not keywords:  # the name itself was removed
                if found:
                    out.append(f"{entry}: still resolves")
                continue
            if len(found) != 1:
                out.append(f"{entry}: {len(found)} objects to check, not one")
                continue
            previous = found[0]
            params = inspect.signature(previous).parameters
            for key, value in keywords:
                if key not in params:
                    continue
                try:
                    old = ast.literal_eval(value)
                except (ValueError, SyntaxError):  # `key=` or `key=[c]`: the parameter went
                    out.append(f"{entry}: {key} is still a parameter")
                    continue
                default = params[key].default
                if default is not inspect.Parameter.empty and default == old:
                    out.append(f"{entry}: {key} still defaults to {value}")
    return out


def unresolved(entries: list[str]) -> list[str]:
    """Names among entries that do not resolve, and f(param=...) keywords
    that are not parameters of f.  Entries that are not a name or
    Class.attr, such as formulas, are skipped."""
    out = []
    for entry in entries:
        m = ENTRY.fullmatch(entry)
        if m is None or m.group(2) or entry in NOT_CHECKED:
            continue
        qual, _, name, args = m.groups()
        if qual:
            owner = MODULES.get(qual) or CLASSES.get(qual)
            found = [getattr(owner, name, None)] if owner and _has(owner, name) else []
        else:
            found = _find(name)
        if not found:
            out.append(f"{entry}: does not resolve")
            continue
        for key in (a.split("=", 1)[0] for a in (args or "").split(", ") if "=" in a):
            if not any(key in inspect.signature(f).parameters for f in found if callable(f)):
                out.append(f"{entry}: {key} is not a parameter")
    return out


def test_removed_api_stays_removed():
    text = README.read_text()
    rows = removed_rows(text)
    assert len(rows) >= 40
    entries = {e for row in rows for e in row} | set(module_table_entries(text))
    assert set(NOT_CHECKED) <= entries, "an unchecked entry left the tables"
    assert problems(rows) == []


def test_module_table_names_live_api():
    entries = module_table_entries(README.read_text())
    assert len(entries) >= 30
    assert unresolved(entries) == []


def test_checker_flags_names_that_are_gone():
    assert unresolved([
        "structural_rot_embedding",             # removed from assembly
        "HodgeSolver.mass_operator",            # a class attribute that went
        "stokes_saddle(load=None, t=None)",     # a keyword that is not a parameter
        "nowhere.name",                         # an owner that does not exist
        "HodgeSolver.decompose", "pinned",      # these resolve
        "scipy.sparse.csgraph", "A + B",        # not a name: skipped
    ]) == [
        "structural_rot_embedding: does not resolve",
        "HodgeSolver.mass_operator: does not resolve",
        "stokes_saddle(load=None, t=None): t is not a parameter",
        "nowhere.name: does not resolve",
    ]


def test_checker_flags_names_that_are_back():
    assert problems([
        ["HodgeSolver.decompose"],            # a class attribute
        ["hodge.HodgeSolver"],                # a module-level name
        ["load_mesh"],                        # found without a qualifier
        ["assemble_load(time=0.0)"],          # a default that is still there
        ["FactorizedOperator(A=)", ".solve"],
        ["Nowhere.name"], ["nowhere(x=)"],    # nothing to check
        ["a b"],
    ]) == [
        "HodgeSolver.decompose: still resolves",
        "hodge.HodgeSolver: still resolves",
        "load_mesh: still resolves",
        "assemble_load(time=0.0): time still defaults to 0.0",
        "FactorizedOperator(A=): A is still a parameter",
        ".solve: still resolves",
        "Nowhere.name: cannot resolve its owner",
        "nowhere(x=): 0 objects to check, not one",
        "a b: cannot parse",
    ]


def readme_verify_suite(text: str) -> tuple[set[str], set[str]]:
    """The corpus and the check names (with `<k>` for the degree) that
    README's `verify` paragraph and list give."""
    paragraph, rest = text.split("`verify` checks each mesh of its corpus", 1)[1].split(
        "Its suite is exactly:", 1)
    corpus = set(re.findall(r"`(\w+)`", paragraph.split("else the builtins", 1)[1]
                            .split(")", 1)[0]))
    checks = set(re.findall(r"^- `([^`]+)`", rest.split("\n\n", 2)[1], re.M))
    return corpus, checks


def test_readme_lists_the_verify_suite(capsys):
    """README's list of verify's checks is what `surfhodge verify` runs."""
    assert main(["verify", "--k-max", "0"]) == 0
    names = [line[6:].split("  (", 1)[0] for line in capsys.readouterr().out.splitlines()
             if line[:6] in ("PASS  ", "FAIL  ")]
    corpus = {name.split(": ", 1)[0] for name in names}
    checks = {name.split(": ", 1)[1].replace("k=0", "k=<k>") for name in names}
    assert (corpus, checks) == readme_verify_suite(README.read_text())
    assert len(names) == len(corpus) * len(checks)
