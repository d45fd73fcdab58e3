"""Outside-in span recorder for the surfhodge layers.

`instrument` wraps every public function, method and property of the
program's modules in place (classes at class level, so every importer sees
the wrapper; functions imported by name into other modules are rebound as
well) and returns a function that restores the originals.  Each call
records one span: name, layer, start, end and the id of the span that was
open when it started.  Spans stay in memory; `write_jsonl` writes them when
the run ends.  Untraced runs never install any of this.

`layer_metrics` turns the spans of one workload pass into the per-layer
metrics named in BENCHMARK.json: `_s` metrics are totals per pass, `_ms`
metrics are means per call, and a layer's self time is the time its spans
were open minus the time covered by their child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU

# The program's modules, named by layer.  `quadrature` is reached only
# through fespace/assembly and is left to their self time; `meshes` only
# generates benchmark inputs and is never timed.
LAYERS = ("mesh", "fespace", "assembly", "linalg", "hodge", "flow", "vtkio",
          "config", "cli")

# A factorization is attributed to the nearest enclosing span named here.
FACTOR_OWNERS = {
    "hodge.HodgeSolver.mixed_operator": "mixed",
    "hodge.HodgeSolver.laplace_operator": "stream",
    "flow.FlowOperators.stokes_reduced": "stokes",
    "flow.NavierStokesStepper.__init__": "step",
    "flow.FlowOperators.stokes_saddle": "saddle",
}
FACTOR_OPS = ("mixed", "stream", "stokes", "step", "saddle")
FACTOR_STATS = ("n", "nnz", "lu_nnz", "fill", "lu_mb")


class Span:
    __slots__ = ("id", "parent", "name", "layer", "start", "end", "info")

    def __init__(self, sid, parent, name, layer, start):
        self.id, self.parent, self.name, self.layer = sid, parent, name, layer
        self.start, self.end, self.info = start, start, None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span stack for a single-threaded run, timed by `clock`.
    While `active` is false, wrapped calls run without recording a span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.active = True

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, layer, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    def wrap(self, fn, name: str, layer: str, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if observe is not None:
                span.info = observe(args, result)
            return result

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name,
                                     "layer": s.layer, "start": s.start, "end": s.end,
                                     "info": s.info}) + "\n")


# ------------------------------------------------------------- observers
def _factor_stats(args, result):
    """Statistics of the factor object the program built, read from the
    instance; None when it no longer exposes a SuperLU factor."""
    A = args[1] if len(args) > 1 else None
    nnz = int(A.nnz) if sp.issparse(A) else 0
    lu = next((v for v in vars(args[0]).values() if isinstance(v, SuperLU)), None)
    if lu is None:
        # empty systems are not factorized at all
        return {"n": 0, "nnz": 0, "lu_nnz": 0} if sp.issparse(A) and A.shape[0] == 0 else None
    return {"n": int(lu.shape[0]), "nnz": nnz, "lu_nnz": int(lu.nnz)}


def _basis_stats(args, result):
    return {"draws": int(result.n_attempts), "b1": int(result.dimension),
            "gram_residual": float(result.gram_residual)}


def _schur_stats(args, result):
    return {"sparse_solves": int(result[1]["sparse_solves"])}


def _observer(name: str, layer: str):
    if layer == "linalg" and name.endswith(".__init__"):
        return _factor_stats
    if name == "hodge.HodgeSolver.harmonic_basis":
        return _basis_stats
    if name == "flow.FlowOperators.stokes_reduced":
        return _schur_stats
    return None


# ----------------------------------------------------------- instrumenting
def instrument(tracer: Tracer):
    """Wrap the public callables of every layer; returns the undo function."""
    saved: list[tuple[object, str, object]] = []
    replaced: dict = {}

    def traced(fn, name, layer):
        return tracer.wrap(fn, name, layer, _observer(name, layer))

    def wrap_member(cls, attr, member, layer):
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(member, property):
            if member.fget is None:
                return None
            return property(traced(member.fget, name, layer), member.fset,
                            member.fdel, member.__doc__)
        if isinstance(member, (classmethod, staticmethod)):
            return type(member)(traced(member.__func__, name, layer))
        if inspect.isfunction(member):
            return traced(member, name, layer)
        return None

    for layer in LAYERS:
        mod = importlib.import_module(f"surfhodge.{layer}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for mattr, member in list(vars(obj).items()):
                    if mattr.startswith("_") and mattr != "__init__":
                        continue
                    if mattr == "__init__" and dataclasses.is_dataclass(obj):
                        continue  # generated field assignment, not program work
                    new = wrap_member(obj, mattr, member, layer)
                    if new is not None:
                        saved.append((obj, mattr, member))
                        setattr(obj, mattr, new)
            elif inspect.isfunction(obj):
                replaced[obj] = traced(obj, f"{layer}.{attr}", layer)

    # Rebind every module-level reference, including names imported into
    # other modules (e.g. hodge.build_space, cli.run_simulation).
    for modname, mod in list(sys.modules.items()):
        if modname != "surfhodge" and not modname.startswith("surfhodge."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                saved.append((mod, attr, obj))
                setattr(mod, attr, replaced[obj])

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


# ----------------------------------------------------------------- metrics
# Per-layer metrics printed by a traced run.  Times are listed only where
# every workload exercises the code, so none reads a constant zero; the
# layer-specific times (SIP, convection, loads, the stokes/step/saddle
# factorizations, flow, vtkio, config and cli) are in the details line's
# `layers` block, next to these.  Counts and sizes are listed for all.
PER_LAYER = (
    [f"{layer}.self_s" for layer in ("mesh", "fespace", "assembly", "linalg", "hodge")]
    + [f"{layer}.calls" for layer in LAYERS]
    + ["mesh.build_s", "mesh.topology_s", "fespace.build_space_s",
       "assembly.rot_embedding_s", "assembly.mass_s", "assembly.div_s",
       "assembly.convection_calls",
       "linalg.factor.mixed_s", "linalg.factor.stream_s"]
    + [f"linalg.factor.{op}.{stat}" for op in FACTOR_OPS for stat in FACTOR_STATS]
    + ["linalg.solve_ms", "linalg.solves",
       "hodge.harmonic_basis_s", "hodge.draws", "hodge.accept_ratio", "hodge.gram_residual",
       "flow.schur_solves", "vtkio.snapshots"]
)


def layer_metrics(spans: list[Span]) -> tuple[dict, dict, list]:
    """All per-layer values, exact counts and missing factor statistics of
    one pass.

    spans must be the complete span list of the pass (all ids resolvable).
    """
    by_id = {s.id: s for s in spans}
    child = defaultdict(float)
    for s in spans:
        if s.parent in by_id:
            child[s.parent] += s.duration
    self_time = {s.id: s.duration - child[s.id] for s in spans}
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def total(*names):
        return sum(s.duration for n in names for s in named[n])

    def calls(*names):
        return sum(len(named[n]) for n in names)

    def mean_ms(*names, own=False):
        ss = [s for n in names for s in named[n]]
        if not ss:
            return 0.0
        return 1e3 * sum(self_time[s.id] if own else s.duration for s in ss) / len(ss)

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
        m[f"{layer}.calls"] = 0
    for s in spans:
        if s.layer in LAYERS:
            m[f"{s.layer}.self_s"] += self_time[s.id]
            m[f"{s.layer}.calls"] += 1

    m["mesh.build_s"] = total("mesh.SurfaceMesh.__init__")
    m["mesh.topology_s"] = total("mesh.analyze_topology")
    m["fespace.build_space_s"] = total("fespace.build_space")
    m["assembly.sip_s"] = total("assembly.assemble_sip")
    m["assembly.rot_embedding_s"] = total("assembly.assemble_rot_embedding")
    m["assembly.mass_s"] = total("assembly.assemble_mass")
    m["assembly.div_s"] = total("assembly.assemble_div")
    m["assembly.convection_ms"] = mean_ms("assembly.assemble_convection")
    m["assembly.convection_calls"] = calls("assembly.assemble_convection")
    m["assembly.load_ms"] = mean_ms("assembly.assemble_load")

    # Factorizations: linalg constructors holding a SuperLU factor.
    missing = []
    factors = defaultdict(lambda: {"s": 0.0, "n": 0, "nnz": 0, "lu_nnz": 0, "count": 0})
    for s in spans:
        if s.layer != "linalg" or not s.name.endswith(".__init__"):
            continue
        if s.info is None:
            if not any(by_id[c].layer == "linalg" for c in _children(spans, s.id)):
                missing.append(s.name)
            continue
        op = _factor_owner(s, by_id)
        f = factors[op]
        f["s"] += s.duration
        f["count"] += 1
        for key in ("n", "nnz", "lu_nnz"):
            f[key] += s.info[key]
    for op in FACTOR_OPS:
        f = factors[op]
        m[f"linalg.factor.{op}_s"] = f["s"]
        m[f"linalg.factor.{op}.n"] = f["n"]
        m[f"linalg.factor.{op}.nnz"] = f["nnz"]
        m[f"linalg.factor.{op}.lu_nnz"] = f["lu_nnz"]
        m[f"linalg.factor.{op}.fill"] = f["lu_nnz"] / f["nnz"] if f["nnz"] else 0.0
        # computed, not measured: one float64 value plus one int32 index per entry
        m[f"linalg.factor.{op}.lu_mb"] = f["lu_nnz"] * 12 / 2**20

    # Outermost linalg solves (a bordered solve wraps a plain one).
    solves = [s for s in spans if s.layer == "linalg" and s.name.endswith(".solve")
              and not (s.parent in by_id and by_id[s.parent].layer == "linalg")]
    m["linalg.solves"] = len(solves)
    m["linalg.solve_ms"] = 1e3 * sum(s.duration for s in solves) / len(solves) if solves else 0.0

    basis = [s.info for s in named["hodge.HodgeSolver.harmonic_basis"] if s.info]
    draws = sum(b["draws"] for b in basis)
    m["hodge.harmonic_basis_s"] = total("hodge.HodgeSolver.harmonic_basis")
    m["hodge.draws"] = draws
    m["hodge.accept_ratio"] = sum(b["b1"] for b in basis) / draws if draws else 0.0
    m["hodge.gram_residual"] = max((b["gram_residual"] for b in basis), default=0.0)
    m["hodge.decompose_self_ms"] = mean_ms("hodge.HodgeSolver.decompose", own=True)

    schur = [s.info["sparse_solves"] for s in named["flow.FlowOperators.stokes_reduced"]
             if s.info]
    m["flow.operators_self_s"] = sum(self_time[s.id] for s in named["flow.FlowOperators.__init__"])
    m["flow.schur_solves"] = max(schur, default=0)
    m["flow.stepper_s"] = total("flow.NavierStokesStepper.__init__")
    m["flow.step_self_ms"] = mean_ms("flow.NavierStokesStepper.step", own=True)
    m["flow.reduce_ms"] = mean_ms("flow.JEmbedding.reduce_vector")
    m["flow.make_state_ms"] = mean_ms("flow.FlowOperators.make_state")
    m["flow.stokes_s"] = total("flow.FlowOperators.stokes_reduced")
    m["flow.oracle_s"] = total("flow.FlowOperators.stokes_saddle",
                               "flow.FlowOperators.reconstruct_pressure")

    m["vtkio.snapshot_ms"] = mean_ms("vtkio.write_flow_snapshot")
    m["vtkio.snapshots"] = calls("vtkio.write_flow_snapshot")
    m["vtkio.csv_s"] = total("vtkio.write_timeseries_csv")
    # config work is reached from cli; count only the outermost config spans
    m["config.load_s"] = sum(s.duration for s in spans if s.layer == "config"
                             and not (s.parent in by_id and by_id[s.parent].layer == "config"))

    counts = Counter(s.name for s in spans)
    counts.update({f"factor.{op}.{k}": v for op, f in factors.items()
                   for k, v in f.items() if k != "s"})
    counts["linalg.solves"] = len(solves)
    counts["hodge.draws"] = draws
    counts["flow.schur_solves"] = m["flow.schur_solves"]
    counts["linalg.step_solves"] = sum(
        1 for s in solves if _has_ancestor(s, by_id, "flow.NavierStokesStepper.step"))
    return m, dict(counts), missing


def _children(spans, sid):
    return [s.id for s in spans if s.parent == sid]


def _has_ancestor(span, by_id, name) -> bool:
    p = by_id.get(span.parent)
    while p is not None:
        if p.name == name:
            return True
        p = by_id.get(p.parent)
    return False


def _factor_owner(span, by_id) -> str:
    p = by_id.get(span.parent)
    while p is not None:
        if p.name in FACTOR_OWNERS:
            return FACTOR_OWNERS[p.name]
        p = by_id.get(p.parent)
    return "other"
