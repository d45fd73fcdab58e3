"""Config files and forcing definitions for the command line driver.

Config format: flat ``key = value`` lines, ``#`` comments.  Values are
parsed as int, float, comma-separated float vectors, booleans (only
allow_inviscid's) or strings, tried in that order; see the README.

Forcings are named presets whose parameters are config keys (zero;
constant_band: a constant tangential push inside a coordinate slab;
rigid_rotation: a rotation field around an axis, tangentially projected;
expression: three arithmetic expressions fx, fy, fz in (x, y, z, t)
compiled through a restricted AST evaluator).  Every preset except an
expression that reads t is marked steady (f.steady = True), so a run
assembles its load once.
"""

from __future__ import annotations

import ast
import inspect
import operator
from dataclasses import fields

import numpy as np

from .errors import ParseError
from .flow import SimulationConfig, _zero_forcing

# ------------------------------------------------------ expression language
_BIN_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
    ast.Mod: operator.mod,
}
_UNARY_OPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "step": lambda v: np.where(np.asarray(v) > 0, 1.0, 0.0),
}
_CONSTANTS = {"pi": np.pi, "e": np.e}
_VARIABLES = ("x", "y", "z", "t")
# Nesting levels of a syntax tree: the evaluator recurses once per level, so
# this bound keeps an evaluation far inside the interpreter's recursion limit
# (1000) wherever a load is assembled.  A 150-term sum is 152 levels deep.
_MAX_DEPTH = 200


def _depth(tree: ast.AST) -> int:
    """Number of levels of a syntax tree, counted without recursion."""
    depth, level = 0, [tree]
    while level:
        depth += 1
        level = [child for node in level for child in ast.iter_child_nodes(node)]
    return depth


def compile_expression(source: str):
    """Compile an arithmetic expression over (x, y, z, t) into a vectorized
    evaluator env -> array.  Only arithmetic, the functions sin, cos, tan,
    exp, log, sqrt, abs, step and the constants pi, e are allowed, nested at
    most _MAX_DEPTH levels deep.  The evaluator's attribute `names` holds
    the variables the expression reads."""
    shown = repr(source if len(source) <= 60 else source[:57] + "...")  # for messages
    try:
        tree = ast.parse(source, mode="eval")
    except (SyntaxError, RecursionError) as exc:  # RecursionError: nested too deep to parse
        raise ParseError(f"bad expression {shown}: {exc}") from exc
    if _depth(tree) > _MAX_DEPTH:
        raise ParseError(f"expression {shown} is nested more than {_MAX_DEPTH} levels deep")

    def ev(node, env):
        if isinstance(node, ast.Expression):
            return ev(node.body, env)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)):
                try:
                    return np.float64(node.value)
                except OverflowError:  # an integer beyond the float range
                    raise ParseError(f"constant out of range in {shown}") from None
            raise ParseError(f"non-numeric constant in {shown}")
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            if node.id in _CONSTANTS:
                return np.float64(_CONSTANTS[node.id])
            raise ParseError(f"unknown name {node.id!r} in {shown}")
        if isinstance(node, ast.BinOp) and type(node.op) in _BIN_OPS:
            return _BIN_OPS[type(node.op)](ev(node.left, env), ev(node.right, env))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
            return _UNARY_OPS[type(node.op)](ev(node.operand, env))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            fn = _FUNCTIONS.get(node.func.id)
            if fn is None or node.keywords:
                raise ParseError(f"unknown function {node.func.id!r} in {shown}")
            if len(node.args) != 1:
                raise ParseError(f"{node.func.id} takes one argument in {shown}")
            return fn(ev(node.args[0], env))
        raise ParseError(f"unsupported syntax in expression {shown}")

    # Validate syntax and arity eagerly at the origin in float64, where a
    # value outside a function's domain yields inf or nan instead of
    # raising; non-finite forcing values are caught where the load is used.
    with np.errstate(all="ignore"):
        ev(tree, {v: np.float64(0.0) for v in _VARIABLES})

    def evaluate(env):
        return ev(tree, env)

    evaluate.names = frozenset(node.id for node in ast.walk(tree)
                               if isinstance(node, ast.Name) and node.id in _VARIABLES)
    return evaluate


def expression_forcing(fx="0", fy="0", fz="0"):
    """Forcing f(points, t) from three component expressions; steady when
    no component reads t.  A component is compiled from its text, so a
    number (the config parser reads fx = 0 as an int) is an expression."""
    comps = [compile_expression(str(s)) for s in (fx, fy, fz)]

    def f(points, t):
        points = np.atleast_2d(points)
        env = {"x": points[:, 0], "y": points[:, 1], "z": points[:, 2], "t": np.float64(t)}
        with np.errstate(all="ignore"):  # non-finite values are reported by the caller
            cols = [np.broadcast_to(np.asarray(c(env), dtype=float), (len(points),))
                    for c in comps]
        return np.stack(cols, axis=1)

    f.steady = not any("t" in c.names for c in comps)
    return f


# ----------------------------------------------------------------- presets
def _steady(f):
    """Mark a forcing as independent of t: its load is assembled once."""
    f.steady = True
    return f


def _vector3(name, value) -> np.ndarray:
    vec = np.asarray(value, dtype=float)
    if vec.shape != (3,):
        raise ValueError(f"{name} must have 3 components, got {value!r}")
    return vec


def constant_band_forcing(direction=(0.0, 1.0, 0.0), amplitude=1.0,
                          band_axis=0, band_max=0.0, band_min=None):
    """Constant force `amplitude * direction` where band_min <= x_axis <
    band_max (band_min defaults to -inf), zero elsewhere.  A NaN bound is
    refused: every comparison with it is false, so it would force nothing."""
    direction = _vector3("direction", direction)
    amplitude = float(amplitude)
    lo = -np.inf if band_min is None else float(band_min)
    hi = float(band_max)
    if np.isnan(lo) or np.isnan(hi):
        raise ValueError(f"band bounds must not be NaN, got [{lo}, {hi})")
    if isinstance(band_axis, float) or band_axis not in (0, 1, 2):
        raise ValueError(f"band_axis must be 0, 1 or 2, got {band_axis!r}")

    def f(points, t):
        points = np.atleast_2d(points)
        mask = (points[:, band_axis] >= lo) & (points[:, band_axis] < hi)
        return amplitude * mask[:, None] * direction[None, :]

    return _steady(f)


def rigid_rotation_forcing(center=(0.0, 0.0, 0.0), axis=(0.0, 0.0, 1.0),
                           amplitude=1.0):
    """Rotation-driving force: amplitude * (x-c)/|x-c| x axis."""
    center = _vector3("center", center)
    axis = _vector3("axis", axis)
    amplitude = float(amplitude)

    def f(points, t):
        points = np.atleast_2d(points)
        r = points - center[None, :]
        nrm = np.linalg.norm(r, axis=1)
        nrm = np.where(nrm > 0, nrm, 1.0)
        return amplitude * np.cross(r / nrm[:, None], axis[None, :])

    return _steady(f)


FORCING_PRESETS = {
    "zero": lambda: _zero_forcing,
    "constant_band": constant_band_forcing,
    "rigid_rotation": rigid_rotation_forcing,
    "expression": expression_forcing,
}


# -------------------------------------------------------------- config file
def _parse_value(text: str):
    text = text.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    # a text without a comma that float rejects fails the vector parse too
    for parse in (int, float, lambda s: tuple(float(p) for p in s.split(","))):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def parse_config_file(path) -> dict:
    """Parse a flat key = value config file into a typed dict."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config file {str(path)!r}: {exc}") from exc
    values: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        values[key.strip()] = _parse_value(val)
    return values


def forcing_from_dict(values: dict):
    """Build the forcing callable from config keys: forcing = <preset name>
    (default zero) selects a preset, called with the config keys named
    like its parameters."""
    name = str(values.get("forcing", "zero"))
    preset = FORCING_PRESETS.get(name)
    if preset is None:
        raise ParseError(f"unknown forcing {name!r}")
    kwargs = {k: values[k] for k in inspect.signature(preset).parameters if k in values}
    try:
        return preset(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad parameters for forcing {name!r}: {exc}") from exc


# keys read by the command line driver, then those of SimulationConfig
_RUN_KEYS = ("mesh", "basis", "forcing")
_CONFIG_KEYS = tuple(f.name for f in fields(SimulationConfig) if f.name != "forcing")


def simulation_config_from_dict(values: dict) -> SimulationConfig:
    """SimulationConfig from config keys.  A key other than mesh, basis,
    forcing, a SimulationConfig field or a parameter of the selected
    forcing raises ParseError naming it, and so does true or false as the
    value of a key other than allow_inviscid."""
    if flags := [k for k, v in values.items() if isinstance(v, bool) and k != "allow_inviscid"]:
        raise ParseError(f"config key {flags[0]!r} takes no true/false (only allow_inviscid does)")
    forcing = forcing_from_dict(values)
    name = str(values.get("forcing", "zero"))
    params = inspect.signature(FORCING_PRESETS[name]).parameters
    unknown = [k for k in values if k not in (*_RUN_KEYS, *_CONFIG_KEYS, *params)]
    if unknown:
        raise ParseError(f"unknown config key(s) {', '.join(map(repr, unknown))} "
                         f"(forcing = {name})")
    kwargs = {k: values[k] for k in _CONFIG_KEYS if k in values}
    try:
        return SimulationConfig(**kwargs, forcing=forcing)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad config: {exc}") from exc


def load_simulation_config(path) -> tuple[SimulationConfig, dict]:
    """Parse a config file; returns (SimulationConfig, raw key dict)."""
    values = parse_config_file(path)
    return simulation_config_from_dict(values), values
