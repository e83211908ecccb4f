"""Structured triangulations of the unit square with a Dirichlet/Neumann split.

The square (0,1)^2 is divided into ``n x n`` cells, each cut by the diagonal
from its lower-left to its upper-right corner into two counter-clockwise
triangles (lower-right first, then upper-left). No crossed diagonals: the
orientation is uniform so results are reproducible cell-for-cell.

Boundary faces are named "left", "right", "bottom", "top". The boundary is
one set of arrays (``EdgeArrays``), one row per edge: its end nodes, outward
unit normal, length, adjacent cell, face and whether the face is a Dirichlet
face; the Neumann and Dirichlet edges are selections of it. Displacement
fields are nodal (P1, shape ``(n_nodes, 2)``); strain/stress fields are
cellwise packed symmetric tensors (P0, shape ``(n_cells, 3)``).

Everything derived from the mesh alone (the boundary selections, Dirichlet
nodes, lumped mass and its reciprocal at the free dofs, the weighted cell
areas, the cell dofs and strain blocks, the strain operator built from them,
its Dirichlet columns, its transpose and that in absolute value, the element
map of the free dofs, the slip set of relaxed mode with its element map, the
Dirichlet trace map and the load maps) is built on first use and kept on the
mesh instance; all but the element maps are marked read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

FACES = ("left", "right", "bottom", "top")

# outward unit normals, in the order the boundary runs: counter-clockwise from the origin
_FACE_NORMALS = {
    "bottom": (0.0, -1.0),
    "right": (1.0, 0.0),
    "top": (0.0, 1.0),
    "left": (-1.0, 0.0),
}


@dataclass(frozen=True)
class EdgeArrays:
    """Boundary edges as read-only arrays, one row per edge."""

    nodes: np.ndarray      # (m, 2) end nodes
    normals: np.ndarray    # (m, 2) outward unit normals
    lengths: np.ndarray    # (m,)
    cells: np.ndarray      # (m,) adjacent cell
    dirichlet: np.ndarray  # (m,) True on the edges of Dirichlet faces
    faces: np.ndarray      # (m,) face name

    def select(self, mask: np.ndarray) -> "EdgeArrays":
        """The rows where ``mask`` is True, in their order, as read-only arrays."""
        return EdgeArrays(*(_read_only(getattr(self, f.name)[mask]) for f in fields(self)))


class NeumannEdge(NamedTuple):
    """One row of ``Mesh.neumann_boundary``, for readers that go edge by edge."""

    nodes: tuple[int, int]
    normal: np.ndarray
    length: float
    cell: int
    face: str


def _read_only(x):
    """Mark an array, or the arrays behind a sparse matrix, read-only."""
    for a in (x.data, x.indices, x.indptr) if sp.issparse(x) else (x,):
        a.flags.writeable = False
    return x


@dataclass(frozen=True)
class Mesh:
    """Immutable triangulation with boundary metadata.

    nodes:     (n_nodes, 2) coordinates
    triangles: (n_cells, 3) CCW node indices
    areas:     (n_cells,) positive triangle areas
    boundary:  the edges partitioning the square's boundary, running bottom,
               right, top, left, each face counter-clockwise
    """

    nodes: np.ndarray
    triangles: np.ndarray
    areas: np.ndarray
    boundary: EdgeArrays
    n_side: int
    dirichlet_faces: frozenset[str]

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_cells(self) -> int:
        return self.triangles.shape[0]

    @property
    def centroids(self) -> np.ndarray:
        return self.nodes[self.triangles].mean(axis=1)

    @cached_property
    def dirichlet_nodes(self) -> np.ndarray:
        """Sorted indices of nodes on a Dirichlet edge."""
        return _read_only(np.unique(self.boundary.nodes[self.boundary.dirichlet]))

    @cached_property
    def neumann_boundary(self) -> EdgeArrays:
        return self.boundary.select(~self.boundary.dirichlet)

    @cached_property
    def dirichlet_boundary(self) -> EdgeArrays:
        return self.boundary.select(self.boundary.dirichlet)

    @cached_property
    def neumann_edges(self) -> tuple[NeumannEdge, ...]:
        """``neumann_boundary`` edge by edge; the package itself reads only the arrays."""
        b = self.neumann_boundary
        return tuple(map(NeumannEdge, map(tuple, b.nodes.tolist()), b.normals,
                         b.lengths.tolist(), b.cells.tolist(), b.faces.tolist()))

    @cached_property
    def lumped_mass(self) -> np.ndarray:
        """Nodal lumped mass: one third of the adjacent cell areas."""
        m = np.zeros(self.n_nodes)
        np.add.at(m, self.triangles.ravel(), np.repeat(self.areas / 3.0, 3))
        return _read_only(m)

    @cached_property
    def weighted_areas(self) -> np.ndarray:
        """Each cell's area times the contraction weight of each packed stress component
        (1, 2, 1), (3 n_cells,) in packed order."""
        from .tensors import WEIGHTS

        return _read_only((self.areas[:, None] * WEIGHTS).ravel())

    @cached_property
    def cell_dofs(self) -> np.ndarray:
        """The six interleaved dofs of every cell (x, y of each vertex), shape (n_cells, 6)."""
        return _read_only((2 * self.triangles[:, :, None] + np.arange(2)).reshape(-1, 6))

    @cached_property
    def cell_strains(self) -> np.ndarray:
        """Per cell, the (3, 6) map of its ``cell_dofs`` to its packed strain, from the
        gradients of the barycentric functions: exact for affine displacements."""
        v = self.nodes[self.triangles]
        x, y = v[..., 0], v[..., 1]
        a2 = 2.0 * self.areas[:, None]
        gx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1) / a2
        gy = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1) / a2
        strains = np.zeros((self.n_cells, 3, 6))
        strains[:, 0, 0::2] = gx          # e11 = du1/dx
        strains[:, 1, 0::2] = 0.5 * gy    # e12 = (du1/dy + du2/dx) / 2
        strains[:, 1, 1::2] = 0.5 * gx
        strains[:, 2, 1::2] = gy          # e22 = du2/dy
        return _read_only(strains)

    @cached_property
    def B(self) -> sp.csr_matrix:
        """Strain operator of ``rigiplast.fem.strain_matrix``."""
        from .fem import strain_matrix  # fem imports this module

        return _read_only(strain_matrix(self))

    @cached_property
    def elements(self):
        """``rigiplast.fem.element_map`` of the free dofs: the unknowns of every elastic system.

        Its arrays stay writeable: ``np.bincount`` copies a read-only index
        array on every call, which cost a traction run about 30 ms.
        """
        from .fem import element_map

        return element_map(self)

    @cached_property
    def slip_set(self) -> tuple:
        """The slip set of relaxed mode, the face-interior Dirichlet nodes (a corner keeps two
        normals and stays pinned): (nodes, unit tangents, lumped Dirichlet edge lengths, and the
        writeable ``rigiplast.fem.element_map`` of the free dofs, then one slip per node)."""
        from .fem import element_map

        d = self.dirichlet_boundary
        ends, normals = d.nodes.ravel(), np.repeat(d.normals, 2, axis=0)
        lo = np.full((self.n_nodes, 2), np.inf)
        hi = -lo
        np.minimum.at(lo, ends, normals)
        np.maximum.at(hi, ends, normals)
        nodes = np.unique(ends)
        nodes = _read_only(nodes[(lo[nodes] == hi[nodes]).all(axis=1)])  # corners: two normals
        tangents = _read_only(np.column_stack([-lo[nodes, 1], lo[nodes, 0]]))
        lengths = 0.5 * np.bincount(ends, weights=np.repeat(d.lengths, 2), minlength=self.n_nodes)
        return nodes, tangents, _read_only(lengths[nodes]), element_map(self, nodes, tangents)

    @cached_property
    def dirichlet_trace_map(self) -> sp.csr_matrix:
        """``rigiplast.fem.gauss_trace_map`` of the Dirichlet edges."""
        from .fem import gauss_trace_map

        return _read_only(gauss_trace_map(self.n_nodes, self.dirichlet_boundary))

    @cached_property
    def dirichlet_B(self) -> sp.csr_matrix:
        """The columns of ``B`` at the Dirichlet dofs (those off ``free_dofs``), in order: the
        entries of B at those columns, each row's in the order B holds them."""
        B, fixed = self.B, ~self.free_dofs
        keep = fixed[B.indices]
        indptr = np.append(0, np.cumsum(keep))[B.indptr]
        column = np.cumsum(fixed) - 1  # a Dirichlet dof's place among them
        return _read_only(sp.csr_matrix((B.data[keep], column[B.indices[keep]], indptr),
                                        shape=(B.shape[0], int(fixed.sum()))))

    @cached_property
    def B_T(self) -> sp.csr_matrix:
        """Transpose of ``B`` in CSR form: cell stresses to nodal forces."""
        return _read_only(self.B.T.tocsr())

    @cached_property
    def abs_B_T(self) -> sp.csr_matrix:
        """``B_T`` with every entry in absolute value, for round-off bounds."""
        return _read_only(abs(self.B_T))

    @cached_property
    def free_dofs(self) -> np.ndarray:
        """Mask of the interleaved nodal dofs off the Dirichlet nodes."""
        mask = np.ones((self.n_nodes, 2), dtype=bool)
        mask[self.dirichlet_nodes] = False
        return _read_only(mask.ravel())

    @cached_property
    def free_inv_mass(self) -> np.ndarray:
        """Reciprocal lumped mass at the free dofs, in dof order."""
        return _read_only((1.0 / np.repeat(self.lumped_mass, 2))[self.free_dofs])

    @cached_property
    def body_load_map(self) -> sp.csr_matrix:
        """Interleaved P0 cell loads to nodal forces: area / 3 to each vertex."""
        return _read_only(_scatter_map(self.n_nodes, self.triangles, self.areas / 3.0))

    @cached_property
    def traction_load_map(self) -> sp.csr_matrix:
        """Interleaved per-Neumann-edge tractions to nodal forces: half the length to each end."""
        neu = self.neumann_boundary
        return _read_only(_scatter_map(self.n_nodes, neu.nodes, 0.5 * neu.lengths))


def _scatter_map(n_nodes: int, ends: np.ndarray, weights: np.ndarray) -> sp.csr_matrix:
    """Sparse map adding ``weights[k]`` times the 2-vector of item k to each node in ``ends[k]``."""
    k, per_item = ends.shape
    rows = (2 * ends[:, :, None] + np.arange(2)).ravel()
    cols = np.broadcast_to((2 * np.arange(k))[:, None, None] + np.arange(2), (k, per_item, 2))
    vals = np.repeat(weights, 2 * per_item)
    return sp.csr_matrix((vals, (rows, cols.ravel())), shape=(2 * n_nodes, 2 * k))


def build_square_mesh(n_cells_per_side: int, dirichlet_faces) -> Mesh:
    """Uniform right-angled triangulation of (0,1)^2 with a Dirichlet/Neumann boundary.

    ``dirichlet_faces`` is an iterable of face names; it must be non-empty
    (the problem needs a hard device somewhere). Produces (n+1)^2 nodes and
    2 n^2 triangles of area 1/(2 n^2) each.
    """
    n = int(n_cells_per_side)
    if n < 1:
        raise ValueError("n_cells_per_side must be >= 1")
    dfaces = frozenset(dirichlet_faces)
    unknown = dfaces - set(FACES)
    if unknown:
        raise ValueError(f"unknown faces: {sorted(unknown)}")
    if not dfaces:
        raise ValueError("at least one Dirichlet face is required")

    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    s = n + 1  # node index step from one row of nodes to the next
    v00 = (s * np.arange(n)[:, None] + np.arange(n)).ravel()  # lower-left node of each cell
    triangles = np.column_stack([v00, v00 + 1, v00 + s + 1,    # lower-right of the cell
                                 v00, v00 + s + 1, v00 + s]    # upper-left of the cell
                                ).reshape(-1, 3)

    v = nodes[triangles]
    areas = 0.5 * np.abs(
        (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
        - (v[:, 2, 0] - v[:, 0, 0]) * (v[:, 1, 1] - v[:, 0, 1])
    )

    # the n edges of each face in _FACE_NORMALS order, each running counter-clockwise; cells
    # 2 (n j + i) and 2 (n j + i) + 1 are the lower-right and upper-left triangles of cell (i, j)
    k = np.arange(n)
    starts = np.concatenate([k, s * k + n, s * n + k + 1, s * (k + 1)])
    ends = np.concatenate([k + 1, s * (k + 1) + n, s * n + k, s * k])
    cells = np.concatenate([2 * k, 2 * (n * k + n - 1), 2 * (n * (n - 1) + k) + 1, 2 * n * k + 1])
    faces = np.repeat(list(_FACE_NORMALS), n)
    normals = np.repeat(list(_FACE_NORMALS.values()), n, axis=0)
    boundary = EdgeArrays(*map(_read_only, (np.column_stack([starts, ends]), normals,
                                            np.full(4 * n, 1.0 / n), cells,
                                            np.isin(faces, list(dfaces)), faces)))

    return Mesh(nodes=nodes, triangles=triangles, areas=areas,
                boundary=boundary, n_side=n, dirichlet_faces=dfaces)
