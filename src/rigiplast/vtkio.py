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


def write_vtk(path, mesh: Mesh, point_vectors: dict | None = None,
              cell_tensors: dict | None = None, title: str = "rigiplast fields") -> None:
    """Write nodal vector fields and packed cell tensor fields to ``path``."""
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_nodes} double",
    ]
    lines.extend(f"{x} {y} 0.0" for x, y in zip(*_columns(mesh.nodes)))
    lines.append(f"CELLS {mesh.n_cells} {4 * mesh.n_cells}")
    for tri in mesh.triangles:
        lines.append(f"3 {tri[0]} {tri[1]} {tri[2]}")
    lines.append(f"CELL_TYPES {mesh.n_cells}")
    lines.extend(["5"] * mesh.n_cells)

    if point_vectors:
        lines.append(f"POINT_DATA {mesh.n_nodes}")
        for name, field in point_vectors.items():
            field = np.asarray(field)
            if field.shape != (mesh.n_nodes, 2):
                raise ValueError(f"point field {name!r} has shape {field.shape}")
            lines.append(f"VECTORS {name} double")
            lines.extend(f"{vx} {vy} 0.0" for vx, vy in zip(*_columns(field)))

    if cell_tensors:
        lines.append(f"CELL_DATA {mesh.n_cells}")
        for name, field in cell_tensors.items():
            field = np.asarray(field)
            if field.shape != (mesh.n_cells, 3):
                raise ValueError(f"cell field {name!r} has shape {field.shape}")
            lines.append(f"TENSORS {name} double")
            for a11, a12, a22 in zip(*_columns(field)):
                lines += (f"{a11} {a12} 0.0", f"{a12} {a22} 0.0", "0.0 0.0 0.0")

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
