"""The VTK and CSV writers against per-line f-string oracles: one %
operation per block writes the same bytes."""

from pathlib import Path
from types import SimpleNamespace

import numpy as np

from surfhodge.vtkio import write_timeseries_csv, write_vtk

# signed zeros, the smallest normal and subnormal doubles, integers beyond
# 2**53 and values whose shortest repr needs all 17 digits
AWKWARD = np.array([
    -0.0, 0.0, 1e-300, -1e-300, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e-310, 123456789012345678.0, -2.0**60, 2.0**53 + 2.0, 1e300, 0.1,
    1.0 / 3.0, -7.0, 6.02214076e23, np.nextafter(1.0, 2.0), -np.pi,
])


def _awkward(shape, seed):
    """Every AWKWARD value and standard normals, shuffled."""
    rng = np.random.default_rng(seed)
    vals = np.concatenate([AWKWARD, rng.standard_normal(np.prod(shape) - len(AWKWARD))])
    return rng.permutation(vals).reshape(shape)


def _vtk_oracle(mesh, cell_vector_fields, point_scalar_fields, title):
    lines = ["# vtk DataFile Version 3.0", title, "ASCII", "DATASET POLYDATA",
             f"POINTS {mesh.n_vertices} double"]
    for v in mesh.vertices:
        lines.append(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}")
    lines.append(f"POLYGONS {mesh.n_triangles} {4 * mesh.n_triangles}")
    for t in mesh.triangles:
        lines.append(f"3 {t[0]} {t[1]} {t[2]}")
    lines.append(f"POINT_DATA {mesh.n_vertices}")
    for name, vals in point_scalar_fields.items():
        lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        lines.extend(f"{v:.17g}" for v in vals)
    lines.append(f"CELL_DATA {mesh.n_triangles}")
    for name, vals in cell_vector_fields.items():
        lines.append(f"VECTORS {name} double")
        lines.extend(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}" for v in vals)
    return ("\n".join(lines) + "\n").encode()


def test_write_vtk_matches_per_line_oracle(tmp_path):
    n_v, n_t = 20, 8
    rng = np.random.default_rng(3)
    tris = rng.integers(0, n_v, size=(n_t, 3))
    tris[0] = [2**40, 2**62, 0]  # the writer formats indices, it does not check them
    mesh = SimpleNamespace(n_vertices=n_v, n_triangles=n_t, vertices=_awkward((n_v, 3), 0),
                           triangles=tris)
    cells = {"u": _awkward((n_t, 3), 1), "w": _awkward((n_t, 3), 2)}
    points = {"psi": _awkward(n_v, 4), "phi": _awkward(n_v, 5)}
    path = write_vtk(tmp_path / "a.vtk", mesh, cells, points, title="t=1e-300")
    data = Path(path).read_bytes()
    assert data == _vtk_oracle(mesh, cells, points, "t=1e-300")
    tokens = set(data.decode().split())
    assert {"-0", "4.9406564584124654e-324", "1e-300", "1.2345678901234568e+17",
            str(2**62)} <= tokens


def test_write_timeseries_csv_matches_per_line_oracle(tmp_path):
    records = _awkward((9, 6), 6)
    path = write_timeseries_csv(tmp_path, records, n_harmonic=2)
    want = "t,kinetic_energy,harmonic_norm,rot_norm,h_1,h_2\n" + "".join(
        ",".join(f"{x:.17g}" for x in row) + "\n" for row in records)
    assert Path(path).read_bytes() == want.encode()
