"""Legacy ASCII VTK unstructured-grid export.

File layout (column-exact; floats use Python's shortest round-trip repr):

    # vtk DataFile Version 3.0
    <title>
    ASCII
    DATASET UNSTRUCTURED_GRID
    POINTS <n_nodes> double
    <x> <y> 0.0                          one line per node
    CELLS <n_cells> <4*n_cells>
    3 <i> <j> <k>                        one line per triangle
    CELL_TYPES <n_cells>
    5                                    VTK_TRIANGLE
    POINT_DATA <n_nodes>                 if any point field
    VECTORS <name> double
    <ux> <uy> 0.0
    CELL_DATA <n_cells>                  if any cell field
    TENSORS <name> double
    <xx> <xy> 0.0                        three lines per cell (3x3, plane
    <xy> <yy> 0.0                        strain: out-of-plane entries zero)
    0.0 0.0 0.0

Packed symmetric cell tensors follow the (a11, a12, a22) component order.
"""

from __future__ import annotations

import numpy as np

from .mesh import Mesh


def _columns(field) -> list:
    """The columns of a 2-D field as lists of the shortest round-trip reprs of its floats."""
    field = np.asarray(field, dtype=float)
    strs = list(map(repr, field.ravel().tolist()))
    return [strs[j::field.shape[1]] for j in range(field.shape[1])]


def _check(fields: dict | None, shape: tuple, kind: str) -> None:
    """``ValueError`` unless every field of ``fields`` has ``shape``."""
    for name, field in (fields or {}).items():
        if np.shape(field) != shape:
            raise ValueError(f"{kind} field {name!r} has shape {np.shape(field)}")


def write_vtk(path, mesh: Mesh, point_vectors: dict | None = None,
              cell_tensors: dict | None = None, title: str = "rigiplast fields") -> None:
    """Write nodal vector fields and packed cell tensor fields to ``path``, block by block;
    a field of the wrong shape raises ``ValueError`` before the file is opened."""
    _check(point_vectors, (mesh.n_nodes, 2), "point")
    _check(cell_tensors, (mesh.n_cells, 3), "cell")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n"
                 f"POINTS {mesh.n_nodes} double\n")
        fh.write("".join(f"{x} {y} 0.0\n" for x, y in zip(*_columns(mesh.nodes))))
        fh.write(f"CELLS {mesh.n_cells} {4 * mesh.n_cells}\n")
        fh.write("".join(f"3 {i} {j} {k}\n" for i, j, k in mesh.triangles.tolist()))
        fh.write(f"CELL_TYPES {mesh.n_cells}\n" + "5\n" * mesh.n_cells)
        if point_vectors:
            fh.write(f"POINT_DATA {mesh.n_nodes}\n")
            for name, field in point_vectors.items():
                fh.write(f"VECTORS {name} double\n")
                fh.write("".join(f"{vx} {vy} 0.0\n" for vx, vy in zip(*_columns(field))))
        if cell_tensors:
            fh.write(f"CELL_DATA {mesh.n_cells}\n")
            for name, field in cell_tensors.items():
                fh.write(f"TENSORS {name} double\n")
                fh.write("".join(f"{a11} {a12} 0.0\n{a12} {a22} 0.0\n0.0 0.0 0.0\n"
                                 for a11, a12, a22 in zip(*_columns(field))))
