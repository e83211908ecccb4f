"""Structured triangulations of the unit square with a Dirichlet/Neumann split.

The square (0,1)^2 is divided into ``n x n`` cells, each cut by the diagonal
from its lower-left to its upper-right corner into two counter-clockwise
triangles (lower-right first, then upper-left). No crossed diagonals: the
orientation is uniform so results are reproducible cell-for-cell.

Boundary faces are named "left", "right", "bottom", "top"; each boundary edge
carries its outward unit normal and a Dirichlet/Neumann label. Displacement
fields are nodal (P1, shape ``(n_nodes, 2)``); strain/stress fields are
cellwise packed symmetric tensors (P0, shape ``(n_cells, 3)``).

Everything derived from the mesh alone (boundary-edge arrays, Dirichlet
nodes, lumped mass and its reciprocal at the free dofs, the cell dofs and
strain blocks, the strain operator built from them, its transpose and that
in absolute value, the element map of the free dofs, the slip set of relaxed
mode with its element map, and the load maps) is built on first use and
kept on the mesh instance; all but the element maps are marked read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

FACES = ("left", "right", "bottom", "top")

_FACE_NORMALS = {
    "left": np.array([-1.0, 0.0]),
    "right": np.array([1.0, 0.0]),
    "bottom": np.array([0.0, -1.0]),
    "top": np.array([0.0, 1.0]),
}

DIRICHLET = "dirichlet"
NEUMANN = "neumann"


@dataclass(frozen=True)
class BoundaryEdge:
    nodes: tuple[int, int]
    normal: np.ndarray
    label: str
    face: str
    length: float
    cell: int


@dataclass(frozen=True)
class EdgeArrays:
    """Boundary edges as arrays, one row per edge in the order of their tuple."""

    nodes: np.ndarray      # (m, 2) end nodes
    normals: np.ndarray    # (m, 2) outward unit normals
    lengths: np.ndarray    # (m,)
    cells: np.ndarray      # (m,) adjacent cell
    dirichlet: np.ndarray  # (m,) True on Dirichlet-labelled edges
    faces: np.ndarray      # (m,) face name

    @classmethod
    def of(cls, edges) -> "EdgeArrays":
        return cls(
            nodes=_read_only(np.array([e.nodes for e in edges], dtype=int).reshape(-1, 2)),
            normals=_read_only(np.array([e.normal for e in edges], dtype=float).reshape(-1, 2)),
            lengths=_read_only(np.array([e.length for e in edges], dtype=float)),
            cells=_read_only(np.array([e.cell for e in edges], dtype=int)),
            dirichlet=_read_only(np.array([e.label == DIRICHLET for e in edges], dtype=bool)),
            faces=_read_only(np.array([e.face for e in edges], dtype=str)),
        )


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
    edges:     boundary edges partitioning the square's boundary
    """

    nodes: np.ndarray
    triangles: np.ndarray
    areas: np.ndarray
    edges: tuple[BoundaryEdge, ...]
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
        """Sorted indices of nodes on a Dirichlet-labelled edge."""
        return _read_only(np.unique(self.boundary.nodes[self.boundary.dirichlet]))

    @cached_property
    def neumann_edges(self) -> tuple[BoundaryEdge, ...]:
        return tuple(e for e in self.edges if e.label == NEUMANN)

    @cached_property
    def dirichlet_edges(self) -> tuple[BoundaryEdge, ...]:
        return tuple(e for e in self.edges if e.label == DIRICHLET)

    @cached_property
    def boundary(self) -> EdgeArrays:
        return EdgeArrays.of(self.edges)

    @cached_property
    def neumann_boundary(self) -> EdgeArrays:
        return EdgeArrays.of(self.neumann_edges)

    @cached_property
    def dirichlet_boundary(self) -> EdgeArrays:
        return EdgeArrays.of(self.dirichlet_edges)

    @cached_property
    def lumped_mass(self) -> np.ndarray:
        """Nodal lumped mass: one third of the adjacent cell areas."""
        m = np.zeros(self.n_nodes)
        np.add.at(m, self.triangles.ravel(), np.repeat(self.areas / 3.0, 3))
        return _read_only(m)

    @cached_property
    def packed_areas(self) -> np.ndarray:
        """Each cell's area once per packed stress component, (3 n_cells,) in packed order."""
        return _read_only(np.repeat(self.areas, 3))

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
    """Uniform right-angled triangulation of (0,1)^2 with labelled boundary.

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

    def nid(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            v00, v10 = nid(i, j), nid(i + 1, j)
            v01, v11 = nid(i, j + 1), nid(i + 1, j + 1)
            tris.append((v00, v10, v11))  # lower-right of the cell
            tris.append((v00, v11, v01))  # upper-left of the cell
    triangles = np.array(tris, dtype=int)

    v = nodes[triangles]
    areas = 0.5 * np.abs(
        (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
        - (v[:, 2, 0] - v[:, 0, 0]) * (v[:, 1, 1] - v[:, 0, 1])
    )

    h = 1.0 / n

    def cell_of(i, j, upper):
        return 2 * (j * n + i) + (1 if upper else 0)

    edges = []
    for k in range(n):
        label = DIRICHLET if "bottom" in dfaces else NEUMANN
        edges.append(BoundaryEdge((nid(k, 0), nid(k + 1, 0)), _FACE_NORMALS["bottom"],
                                  label, "bottom", h, cell_of(k, 0, upper=False)))
    for k in range(n):
        label = DIRICHLET if "right" in dfaces else NEUMANN
        edges.append(BoundaryEdge((nid(n, k), nid(n, k + 1)), _FACE_NORMALS["right"],
                                  label, "right", h, cell_of(n - 1, k, upper=False)))
    for k in range(n):
        label = DIRICHLET if "top" in dfaces else NEUMANN
        edges.append(BoundaryEdge((nid(k + 1, n), nid(k, n)), _FACE_NORMALS["top"],
                                  label, "top", h, cell_of(k, n - 1, upper=True)))
    for k in range(n):
        label = DIRICHLET if "left" in dfaces else NEUMANN
        edges.append(BoundaryEdge((nid(0, k + 1), nid(0, k)), _FACE_NORMALS["left"],
                                  label, "left", h, cell_of(0, k, upper=True)))

    return Mesh(nodes=nodes, triangles=triangles, areas=areas,
                edges=tuple(edges), n_side=n, dirichlet_faces=dfaces)
