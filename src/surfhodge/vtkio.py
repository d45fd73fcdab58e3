"""Output writers: VTK legacy ASCII polydata snapshots and CSV time series.

Snapshots carry the velocity and its rotational/harmonic parts as cell
vectors (piecewise fields evaluated at triangle centroids) and the
streamfunction as a point scalar.  Files contain no timestamps, so reruns
with identical inputs are bitwise identical.
"""

from __future__ import annotations

import os

import numpy as np

from .fespace import FeField

_CENTROID = np.array([[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]])


def cell_vectors(field: FeField) -> np.ndarray:
    """Evaluate a vector field at every triangle centroid: (T, 3)."""
    mesh = field.space.mesh
    return field.eval_cells(np.arange(mesh.n_triangles), _CENTROID)[:, 0, :]


def lagrange_vertex_values(field: FeField) -> np.ndarray:
    """Vertex values of a (nodal) Lagrange field; constrained dofs are 0."""
    space = field.space
    mesh = space.mesh
    out = np.zeros(mesh.n_vertices)
    vertex_nodes = space.ref.vertex_nodes
    for lv, node in enumerate(vertex_nodes):
        dofs = space.dof_map[:, node]
        ok = dofs >= 0
        out[mesh.triangles[ok, lv]] = field.coefficients[dofs[ok]]
    return out


def _block(row_format: str, values) -> str:
    """One line per row of values, formatted by a single % operation."""
    values = np.asarray(values)
    return (row_format * len(values)) % tuple(values.ravel().tolist())


def write_vtk(path, mesh, cell_vector_fields: dict, point_scalar_fields: dict,
              title: str) -> str:
    """Write a VTK legacy ASCII polydata file.

    cell_vector_fields: dict name -> (T, 3) arrays written as CELL_DATA
    VECTORS; point_scalar_fields: dict name -> (V,) arrays written as
    POINT_DATA SCALARS.  Floats are written with 17 significant digits.
    """
    path = str(path)
    parts = [
        f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET POLYDATA\n",
        f"POINTS {mesh.n_vertices} double\n",
        _block("%.17g %.17g %.17g\n", mesh.vertices),
        f"POLYGONS {mesh.n_triangles} {4 * mesh.n_triangles}\n",
        _block("3 %d %d %d\n", mesh.triangles),
    ]
    if point_scalar_fields:
        parts.append(f"POINT_DATA {mesh.n_vertices}\n")
        for name, vals in point_scalar_fields.items():
            parts.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            parts.append(_block("%.17g\n", vals))
    if cell_vector_fields:
        parts.append(f"CELL_DATA {mesh.n_triangles}\n")
        for name, vals in cell_vector_fields.items():
            parts.append(f"VECTORS {name} double\n")
            parts.append(_block("%.17g %.17g %.17g\n", vals))
    with open(path, "w") as fh:
        fh.write("".join(parts))
    return path


def write_flow_snapshot(out_dir, index: int, ops, state) -> str:
    """Snapshot of a flow state: u, u_rot, u_harm cell vectors + psi."""
    os.makedirs(out_dir, exist_ok=True)
    mesh = ops.mesh
    u_rot = FeField(ops.V, ops.emb.E @ state.psi.coefficients)
    u_harm = FeField(ops.V, ops.emb.H.T @ state.h_coeffs)  # zero when b1 = 0
    path = os.path.join(str(out_dir), f"flow_{index:06d}.vtk")
    return write_vtk(
        path,
        mesh,
        cell_vector_fields={
            "u": cell_vectors(state.u),
            "u_rot": cell_vectors(u_rot),
            "u_harm": cell_vectors(u_harm),
        },
        point_scalar_fields={"psi": lagrange_vertex_values(state.psi)},
        title=f"flow state t={state.t:.12g}",
    )


def write_timeseries_csv(out_dir, records: np.ndarray, n_harmonic: int) -> str:
    """CSV with header t,kinetic_energy,harmonic_norm,rot_norm,h_1..h_n."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(str(out_dir), "timeseries.csv")
    header = ["t", "kinetic_energy", "harmonic_norm", "rot_norm"]
    header += [f"h_{i + 1}" for i in range(n_harmonic)]
    records = np.asarray(records)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(_block(",".join(["%.17g"] * records.shape[1]) + "\n", records))
    return path


def write_decomposition_vtk(path, mesh, V, v_field, components, basis) -> str:
    """Snapshot of a three-way decomposition: input and its parts."""
    fields = {
        "v": cell_vectors(v_field),
        "v_rot": cell_vectors(FeField(V, components.rot_part)),
        "v_harm": cell_vectors(FeField(V, components.harmonic_part)),
        "v_grad": cell_vectors(FeField(V, components.gradient_part)),
    }
    scalars = {"psi": lagrange_vertex_values(components.psi)}
    return write_vtk(path, mesh, fields, scalars, title="hodge decomposition")
