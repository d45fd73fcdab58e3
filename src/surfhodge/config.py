"""Config files and forcing definitions for the command line driver.

Config format: flat ``key = value`` lines, ``#`` comments.  Values are
parsed as int, float, comma-separated float vectors, booleans or strings
(tried in that order).  See the README for the full key schema.

Forcings are either named presets (constant_band: a constant tangential
push inside a coordinate slab; rigid_rotation: a rotation field around an
axis, tangentially projected) or three arithmetic expressions in
(x, y, z, t) compiled through a restricted AST evaluator.
"""

from __future__ import annotations

import ast
import operator

import numpy as np

from .errors import ParseError
from .flow import SimulationConfig

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


def compile_expression(source: str):
    """Compile an arithmetic expression over (x, y, z, t) into a vectorized
    evaluator env -> array.  Only arithmetic, the functions sin, cos, tan,
    exp, log, sqrt, abs, step and the constants pi, e are allowed."""
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ParseError(f"bad expression {source!r}: {exc}") from exc

    def ev(node, env):
        if isinstance(node, ast.Expression):
            return ev(node.body, env)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)):
                return float(node.value)
            raise ParseError(f"non-numeric constant in {source!r}")
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            if node.id in _CONSTANTS:
                return _CONSTANTS[node.id]
            raise ParseError(f"unknown name {node.id!r} in {source!r}")
        if isinstance(node, ast.BinOp) and type(node.op) in _BIN_OPS:
            return _BIN_OPS[type(node.op)](ev(node.left, env), ev(node.right, env))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
            return _UNARY_OPS[type(node.op)](ev(node.operand, env))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            fn = _FUNCTIONS.get(node.func.id)
            if fn is None or node.keywords:
                raise ParseError(f"unknown function {node.func.id!r} in {source!r}")
            return fn(*(ev(a, env) for a in node.args))
        raise ParseError(f"unsupported syntax in expression {source!r}")

    # validate eagerly against a dummy environment
    ev(tree, {v: 0.0 for v in _VARIABLES})
    return lambda env: ev(tree, env)


def expression_forcing(fx: str, fy: str, fz: str):
    """Forcing f(points, t) from three component expressions."""
    comps = [compile_expression(s) for s in (fx, fy, fz)]

    def f(points, t=0.0):
        points = np.atleast_2d(points)
        env = {"x": points[:, 0], "y": points[:, 1], "z": points[:, 2], "t": t}
        cols = [np.broadcast_to(np.asarray(c(env), dtype=float), (len(points),))
                for c in comps]
        return np.stack(cols, axis=1)

    return f


# ----------------------------------------------------------------- presets
def constant_band_forcing(direction=(0.0, 1.0, 0.0), amplitude=1.0,
                          band_axis=0, band_max=0.0, band_min=None):
    """Constant force `amplitude * direction` where band_min <= x_axis <
    band_max (band_min defaults to -inf), zero elsewhere."""
    direction = np.asarray(direction, dtype=float)
    lo = -np.inf if band_min is None else float(band_min)
    hi = float(band_max)
    axis = int(band_axis)

    def f(points, t=0.0):
        points = np.atleast_2d(points)
        mask = (points[:, axis] >= lo) & (points[:, axis] < hi)
        return amplitude * mask[:, None] * direction[None, :]

    return f


def rigid_rotation_forcing(center=(0.0, 0.0, 0.0), axis=(0.0, 0.0, 1.0),
                           amplitude=1.0):
    """Rotation-driving force: amplitude * (x-c)/|x-c| x axis."""
    center = np.asarray(center, dtype=float)
    axis = np.asarray(axis, dtype=float)

    def f(points, t=0.0):
        points = np.atleast_2d(points)
        r = points - center[None, :]
        nrm = np.linalg.norm(r, axis=1)
        nrm = np.where(nrm > 0, nrm, 1.0)
        return amplitude * np.cross(r / nrm[:, None], axis[None, :])

    return f


FORCING_PRESETS = {
    "zero": lambda **kw: (lambda points, t=0.0: np.zeros_like(np.atleast_2d(points))),
    "constant_band": constant_band_forcing,
    "rigid_rotation": rigid_rotation_forcing,
}


# -------------------------------------------------------------- config file
def _parse_value(text: str):
    text = text.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if "," in text:
        try:
            return tuple(float(p) for p in text.split(","))
        except ValueError:
            pass
    return text


def parse_config_file(path) -> dict:
    """Parse a flat key = value config file into a typed dict."""
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            values[key.strip()] = _parse_value(val)
    return values


_FORCING_KEYS = {
    "constant_band": ("direction", "amplitude", "band_axis", "band_max", "band_min"),
    "rigid_rotation": ("center", "axis", "amplitude"),
    "zero": (),
}


def forcing_from_dict(values: dict):
    """Build the forcing callable from config keys.

    forcing = <preset name> selects a preset with its parameter keys;
    forcing = expression uses the fx, fy, fz component expressions.
    """
    name = str(values.get("forcing", "zero"))
    if name == "expression":
        return expression_forcing(
            str(values.get("fx", "0")), str(values.get("fy", "0")),
            str(values.get("fz", "0")))
    preset = FORCING_PRESETS.get(name)
    if preset is None:
        raise ParseError(f"unknown forcing {name!r}")
    kwargs = {k: values[k] for k in _FORCING_KEYS[name] if k in values}
    try:
        return preset(**kwargs)
    except ValueError as exc:
        raise ParseError(f"bad parameters for forcing {name!r}: {exc}") from exc


_CONFIG_KEYS = ("k", "mu", "alpha", "dt", "t_end", "output_every", "seed",
                "initial", "bc", "allow_inviscid", "div_tol")


def simulation_config_from_dict(values: dict) -> SimulationConfig:
    kwargs = {k: values[k] for k in _CONFIG_KEYS if k in values}
    kwargs["forcing"] = forcing_from_dict(values)
    try:
        return SimulationConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad config: {exc}") from exc


def load_simulation_config(path) -> tuple[SimulationConfig, dict]:
    """Parse a config file; returns (SimulationConfig, raw key dict)."""
    values = parse_config_file(path)
    return simulation_config_from_dict(values), values
