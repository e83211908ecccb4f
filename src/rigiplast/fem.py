"""P1 displacement / P0 strain finite elements on the structured mesh.

Quadrature is one-point per triangle (exact for P0 integrands and for P1
integrands via the centroid) and two-point Gauss per boundary edge (exact for
the P1 traces that appear here). Operators that depend on the mesh alone are
built once per mesh and cached read-only on it (``Mesh.B``, the load maps, the
boundary-edge arrays), so a strain or a load vector is one sparse matvec and
boundary sums are array code; callers assemble the external loads once per
load step and take each strain once. The stiffness matrix and the Newton
tangent are both B^T blockdiag(area W D_c) B, factorized by banded LU in the
grid order, where both are narrow bands. The stiffness depends only on the
mesh, the Hooke tensor and the Dirichlet node set, so its factor is kept and
reused; the tangent changes with every iterate and is factorized afresh.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .mesh import EdgeArrays, Mesh
from .tensors import WEIGHTS, HookeTensor, ddot

_GAUSS2 = (0.5 * (1 - 1 / np.sqrt(3.0)), 0.5 * (1 + 1 / np.sqrt(3.0)))  # on [0, 1]


class SolverError(RuntimeError):
    """Internal error: the elastic system could not be solved accurately."""


def strain_matrix(mesh: Mesh) -> sp.csr_matrix:
    """Sparse operator B mapping nodal displacements to packed cell strains.

    Rows are (cell, component) in packed order (e11, e12, e22); columns are
    nodal dofs interleaved (node0_x, node0_y, node1_x, ...). Exact for P1
    fields: affine displacements produce their exact constant strain.
    """
    tri = mesh.triangles
    v = mesh.nodes[tri]
    x, y = v[..., 0], v[..., 1]
    a2 = 2.0 * mesh.areas
    # gradients of the three barycentric functions
    gx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1) / a2[:, None]
    gy = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1) / a2[:, None]

    ncells = mesh.n_cells
    rows, cols, vals = [], [], []
    cell_rows = 3 * np.arange(ncells)
    for a in range(3):
        dofx = 2 * tri[:, a]
        dofy = dofx + 1
        # e11 = du1/dx
        rows.append(cell_rows + 0); cols.append(dofx); vals.append(gx[:, a])
        # e12 = (du1/dy + du2/dx) / 2
        rows.append(cell_rows + 1); cols.append(dofx); vals.append(0.5 * gy[:, a])
        rows.append(cell_rows + 1); cols.append(dofy); vals.append(0.5 * gx[:, a])
        # e22 = du2/dy
        rows.append(cell_rows + 2); cols.append(dofy); vals.append(gy[:, a])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return sp.coo_matrix((vals, (rows, cols)), shape=(3 * ncells, 2 * mesh.n_nodes)).tocsr()


def strain_of(u: np.ndarray, mesh: Mesh) -> np.ndarray:
    """Elementwise symmetric gradient ``mesh.B u`` of a nodal field, shape (n_cells, 3)."""
    if u.shape != (mesh.n_nodes, 2):
        raise ValueError(f"displacement shape {u.shape} does not match mesh ({mesh.n_nodes}, 2)")
    return (mesh.B @ u.ravel()).reshape(mesh.n_cells, 3)


def body_load_vector(mesh: Mesh, f_cells: np.ndarray) -> np.ndarray:
    """Assemble int f . phi for a P0 vector load, as an interleaved dof vector."""
    return mesh.body_load_map @ np.ravel(f_cells)


def traction_load_vector(mesh: Mesh, g_edges: np.ndarray) -> np.ndarray:
    """Assemble int_Gamma_N g . phi for per-edge constant tractions."""
    return mesh.traction_load_map @ np.ravel(g_edges)


def external_load_vector(mesh: Mesh, f_cells: np.ndarray | None = None,
                         g_edges: np.ndarray | None = None) -> np.ndarray:
    """int f . phi + int_Gamma_N g . phi as one dof vector; a missing load is zero."""
    F = np.zeros(2 * mesh.n_nodes) if f_cells is None else body_load_vector(mesh, f_cells)
    if g_edges is not None:
        F += traction_load_vector(mesh, g_edges)
    return F


def cell_tractions(sigma: np.ndarray, edges: EdgeArrays) -> np.ndarray:
    """sigma . nu on each edge from its adjacent cell, shape (m, 2)."""
    s, nu = sigma[edges.cells], edges.normals
    return np.column_stack([s[:, 0] * nu[:, 0] + s[:, 1] * nu[:, 1],
                            s[:, 1] * nu[:, 0] + s[:, 2] * nu[:, 1]])


def gauss_traces(field: np.ndarray, edges: EdgeArrays) -> np.ndarray:
    """A nodal P1 field at the two Gauss points of each edge, shape (2, m, 2)."""
    a, b = field[edges.nodes[:, 0]], field[edges.nodes[:, 1]]
    return np.stack([(1 - xi) * a + xi * b for xi in _GAUSS2])


def integrate_tensor_dot(areas: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """int a : b dx over the mesh for packed P0 tensor fields."""
    return float((areas * ddot(a, b)).sum())


def tensor_l2(areas: np.ndarray, a: np.ndarray) -> float:
    """L2(Omega) norm of a packed P0 tensor field."""
    return float(np.sqrt((areas * ddot(a, a)).sum()))


def scalar_l2(areas: np.ndarray, a: np.ndarray) -> float:
    return float(np.sqrt((areas * a * a).sum()))


class ElasticSystem:
    """Assembled elasticity operator with a cached banded LU factorization.

    Minimizes  (1/2) int C^eps (Eu - p):(Eu - p) - int f.u - int_Gamma_N g.u
    subject to prescribed values at Dirichlet nodes. The factorization is of
    the free-free block; changing p, loads or boundary values reuses it.
    ``solve_tangent`` assembles the same operator with a per-cell tangent in
    place of C^eps, for the inner solver's Newton steps, and factorizes it
    the same way.
    """

    def __init__(self, mesh: Mesh, hooke: HookeTensor):
        self.mesh = mesh
        self.hooke = hooke
        self.cmat = hooke.matrix()
        self.K = self._assemble(np.broadcast_to(self.cmat, (mesh.n_cells, 3, 3)), mesh.B).tocsc()
        self.fixed = np.flatnonzero(~mesh.free_dofs)
        self.free = np.flatnonzero(mesh.free_dofs)
        self.K_ff = self.K[np.ix_(self.free, self.free)]
        self.K_fc = self.K[np.ix_(self.free, self.fixed)]
        self._lu = _band_factor(self.K_ff, self.band_order, "elastic") if self.free.size else None

    @cached_property
    def B_f(self) -> sp.csr_matrix:
        """Columns of B at the free dofs."""
        return self.mesh.B[:, self.free].tocsr()

    @cached_property
    def band_order(self) -> np.ndarray:
        """Grid order of the free dofs, which makes K_ff and the tangent narrow bands."""
        return _band_order(self.B_f)

    @cached_property
    def stiffness_diagonal(self) -> np.ndarray:
        return self.K.diagonal()

    @cached_property
    def free_inv_mass(self) -> np.ndarray:
        """Reciprocal lumped mass at the free dofs."""
        return (1.0 / np.repeat(self.mesh.lumped_mass, 2))[self.free]

    def _assemble(self, tangent: np.ndarray, B: sp.spmatrix) -> sp.spmatrix:
        """B^T blockdiag(area W D_c) B for the packed per-cell tangents D_c, (n_cells, 3, 3)."""
        nc = self.mesh.n_cells
        blocks = self.mesh.areas[:, None, None] * WEIGHTS[None, :, None] * tangent
        cols = np.repeat(np.arange(3 * nc).reshape(nc, 1, 3), 3, axis=1)  # row 3c+i: 3c..3c+2
        D = sp.csr_matrix((blocks.ravel(), cols.ravel(), np.arange(0, 9 * nc + 1, 3)),
                          shape=(3 * nc, 3 * nc))
        return B.T @ (D @ B)

    def nodal_forces(self, sigma: np.ndarray, B_T=None) -> np.ndarray:
        """Assemble int sigma : E(phi) as a dof vector, through ``B_T`` if given."""
        B_T = self.mesh.B_T if B_T is None else B_T
        return B_T @ (np.repeat(self.mesh.areas, 3) * (sigma * WEIGHTS).ravel())

    def force_magnitudes(self, eu: np.ndarray, p: np.ndarray, loads: np.ndarray) -> np.ndarray:
        """``nodal_forces(C^eps (eu - p)) - loads`` with every term in absolute value.

        Scaled by eps_mach, it bounds the round-off in that residual.
        """
        cells = (np.abs(eu) + np.abs(p)) @ np.abs(self.cmat).T
        return self.nodal_forces(cells, self.mesh.abs_B_T) + np.abs(loads)

    def plastic_load_vector(self, p: np.ndarray) -> np.ndarray:
        """Assemble int C^eps p : E(phi) as a dof vector."""
        return self.nodal_forces(p @ self.cmat.T)

    def solve(self, p: np.ndarray, w_nodes: np.ndarray,
              loads: np.ndarray | None = None) -> np.ndarray:
        """Displacement minimizing the incremental energy under load vector ``loads``, p frozen."""
        mesh = self.mesh
        F = self.plastic_load_vector(p)
        if loads is not None:
            F += loads

        u = np.zeros(2 * mesh.n_nodes)
        u[self.fixed] = w_nodes.ravel()[self.fixed]
        if self.free.size:
            rhs = F[self.free] - self.K_fc @ u[self.fixed]
            u[self.free] = _guarded(self.K_ff, _band_solve(self._lu, rhs), rhs, "elastic")
        return u.reshape(mesh.n_nodes, 2)

    def solve_tangent(self, tangent: np.ndarray, rhs: np.ndarray,
                      B_free: sp.csr_matrix | None = None,
                      shift: np.ndarray | None = None) -> np.ndarray:
        """Solve K_T x = rhs, K_T = B_free^T blockdiag(area W D_c) B_free + diag(shift).

        ``tangent`` holds the packed per-cell tangents D_c, shape
        (n_cells, 3, 3); ``B_free`` maps the unknowns to cell strains and
        defaults to the columns of B at the free dofs. K_T is factorized by
        banded LU in the grid order of ``B_free``, not banded Cholesky: the
        consistent tangent is only positive semidefinite (a collapse mechanism
        makes it singular). A zero pivot or a failed residual guard raises
        ``SolverError``.
        """
        B_free = self.B_f if B_free is None else B_free
        order = self.band_order if B_free is self.B_f else _band_order(B_free)
        K = self._assemble(tangent, B_free)
        if shift is not None and np.any(shift):
            K = K + sp.diags(shift)
        x = _band_solve(_band_factor(K, order, "tangent"), rhs)
        return _guarded(K, x, rhs, "tangent")

    def energy(self, e: np.ndarray) -> float:
        """(1/2) int C^eps e:e of the elastic strain e = Eu - p."""
        return 0.5 * integrate_tensor_dot(self.mesh.areas, e @ self.cmat.T, e)


def _band_order(B: sp.csr_matrix) -> np.ndarray:
    """The columns of ``B`` sorted (stably) by the first row each one touches.

    Rows of a strain operator run cell by cell along the grid, so in this
    order every entry of ``B^T D B`` lies within a few grid rows of the
    diagonal, and slip columns appended last move next to their cells.
    """
    C = B.tocsc()  # row indices sorted within each column; no column is empty
    return np.argsort(C.indices[C.indptr[:-1]], kind="stable")


def _band_factor(K: sp.spmatrix, order: np.ndarray, what: str) -> tuple:
    """Banded LU with partial pivoting (LAPACK ``dgbtrf``) of K, unknowns permuted by ``order``.

    The band is stored densely, (3 bw + 1) x N doubles for half-bandwidth bw.
    A zero pivot raises ``SolverError``; the factor is what ``_band_solve`` takes.
    """
    pos = np.argsort(order)
    K = K.tocsr()
    K.sum_duplicates()
    rows, cols = pos[np.repeat(np.arange(len(order)), np.diff(K.indptr))], pos[K.indices]
    bw = int(np.abs(rows - cols).max(initial=0))
    ab = np.zeros((3 * bw + 1, len(order)), order="F")
    ab[2 * bw + rows - cols, cols] = K.data
    lu, piv, info = dgbtrf(ab, bw, bw, overwrite_ab=True)
    if info != 0:
        raise SolverError(f"{what} factorization failed: dgbtrf info {info}")
    return lu, piv, bw, order, pos


def _band_solve(factor: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve K x = rhs with a factor of ``_band_factor`` (LAPACK ``dgbtrs``)."""
    lu, piv, bw, order, pos = factor
    return dgbtrs(lu, bw, bw, rhs[order], piv, overwrite_b=True)[0][pos]


def _guarded(K, x, rhs, what: str) -> np.ndarray:
    """``x`` if it solves K x = rhs to the solver guard, else ``SolverError``."""
    res = np.linalg.norm(K @ x - rhs)
    scale = np.linalg.norm(rhs) + np.linalg.norm(x) + 1.0
    if not np.isfinite(res) or res > 1e-10 * scale:
        raise SolverError(f"{what} solve residual {res:.3e} exceeds tolerance")
    return x


def divergence_check(
    sigma: np.ndarray,
    mesh: Mesh,
    f_cells: np.ndarray | None = None,
    g_edges: np.ndarray | None = None,
) -> tuple[float, float]:
    """Discrete equilibrium residuals of a P0 stress field.

    Returns (interior_residual, flux_residual): the weak-form residual against
    P1 test functions vanishing on the Dirichlet nodes, measured in the dual
    norm of the lumped-L2 inner product, and the L2(Gamma_N) mismatch between
    the cell tractions sigma.nu and the prescribed g.
    """
    # dof vector of R(phi) = int sigma:E(phi) - int f.phi - int_Gamma_N g.phi
    r = mesh.B_T @ (np.repeat(mesh.areas, 3) * (sigma * WEIGHTS).ravel())
    r -= external_load_vector(mesh, f_cells, g_edges)
    m = np.repeat(mesh.lumped_mass, 2)
    mask = mesh.free_dofs
    interior = float(np.sqrt(np.sum(r[mask] ** 2 / m[mask])))

    neumann = mesh.neumann_boundary
    g = np.zeros((len(neumann.lengths), 2)) if g_edges is None else g_edges
    mismatch = cell_tractions(sigma, neumann) - g
    flux_sq = float((neumann.lengths * (mismatch ** 2).sum(axis=1)).sum())
    return interior, float(np.sqrt(flux_sq))


def boundary_integral_p1(sigma: np.ndarray, phi: np.ndarray, edges: EdgeArrays) -> float:
    """int (sigma.nu) . phi over the given boundary edges, exact for P1 phi."""
    mid = 0.5 * (phi[edges.nodes[:, 0]] + phi[edges.nodes[:, 1]])
    return float((edges.lengths * (cell_tractions(sigma, edges) * mid).sum(axis=1)).sum())


def weak_divergence_form(mesh: Mesh, sigma: np.ndarray, phi: np.ndarray) -> float:
    """Discrete  int div(sigma) . phi  := boundary flux minus int sigma : E(phi)."""
    vol = integrate_tensor_dot(mesh.areas, sigma, strain_of(phi, mesh))
    bdry = boundary_integral_p1(sigma, phi, mesh.boundary)
    return bdry - vol

