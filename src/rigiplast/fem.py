"""P1 displacement / P0 strain finite elements on the structured mesh.

Quadrature is one-point per triangle (exact for P0 integrands and for P1
integrands via the centroid) and two-point Gauss per boundary edge (exact for
the P1 traces that appear here). Operators that depend on the mesh alone are
built once per mesh and cached on it (the cells' dofs and (3, 6) strain
blocks S_c, ``Mesh.B`` scattered from them with its zero entries dropped,
its Dirichlet columns, the free dofs' ``ElementMap``, the load maps, the
Dirichlet trace map, the Neumann and Dirichlet selections of the boundary's
``EdgeArrays``), so a strain, a load vector, a boundary trace or
``nodal_forces`` is one sparse matvec and boundary sums are array code; a
load program assembles the loads of all its grid times once
(``LoadProgram.loads``), and callers take each strain once. The stiffness
matrix and the Newton tangent are both B^T blockdiag(area W D_c) B, a sum of
6x6 cell blocks S_c^T (area W D_c) S_c (``cell_blocks``), and so is
safeload's Gram matrix, with D_c = area_c times the 0/1 mask of the stress
components the tractions leave free. An ``ElementMap`` (of the free dofs,
or of a slip set) holds the S_c of its unknowns and the position of every
block entry in the upper LAPACK band of the row-major dof order, in which
these matrices are narrow bands. Each matrix is then one batched product of
the blocks and one ``bincount`` into the band, factorized by banded
Cholesky (``ElementMap.factor``), the package's one factorization; no
sparse matrix is built for it. An ``ElasticSystem`` holds what the Hooke
tensor C^eps sets, and one factor, of the unit-epsilon stiffness K(1): since
K(eps) = K(1)/eps, every elastic solve is eps times a solve with K(1), and
the systems ``with_epsilon`` makes share that factor, so a sweep lane
factorizes once for any epsilons; the tangent changes with every iterate
and is factorized afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .mesh import EdgeArrays, Mesh
from .tensors import WEIGHTS, HookeTensor, ddot

_GAUSS2 = (0.5 * (1 - 1 / np.sqrt(3.0)), 0.5 * (1 + 1 / np.sqrt(3.0)))  # on [0, 1]


class SolverError(RuntimeError):
    """Internal error: the elastic system could not be solved accurately."""


def strain_matrix(mesh: Mesh) -> sp.csr_matrix:
    """Sparse operator B mapping nodal displacements to packed cell strains.

    Rows are (cell, component) in packed order (e11, e12, e22); columns are
    nodal dofs interleaved (node0_x, node0_y, node1_x, ...). Row block c is
    the structural part of ``mesh.cell_strains[c]``: e11 and e22 read the x
    and the y dofs of the cell, e12 all six, with the columns sorted in each
    row. Only nonzero entries are kept: on a right triangle one vertex
    function is constant along x and one along y, so 4 of the 12 are 0.0. A
    CSR product adds its terms from +0.0 in column order, so a 0.0 * u term
    changes no sum, and the products are the same bit for bit with a third
    less work. Exact for P1 fields: affine displacements produce their exact
    constant strain.
    """
    S, dofs, n = mesh.cell_strains, mesh.cell_dofs, mesh.n_cells
    data = np.concatenate([S[:, 0, 0::2], S[:, 1], S[:, 2, 1::2]], axis=1)
    indices = np.concatenate([dofs[:, 0::2], dofs, dofs[:, 1::2]], axis=1)
    indptr = np.append((12 * np.arange(n)[:, None] + [0, 3, 9]).ravel(), 12 * n)
    B = sp.csr_matrix((data.ravel(), indices.ravel(), indptr),
                      shape=(3 * n, 2 * mesh.n_nodes))
    B.sort_indices()
    B.eliminate_zeros()
    return B


def strain_of(u: np.ndarray, mesh: Mesh) -> np.ndarray:
    """Elementwise symmetric gradient ``mesh.B u`` of a nodal field, shape (n_cells, 3)."""
    if u.shape != (mesh.n_nodes, 2):
        raise ValueError(f"displacement shape {u.shape} does not match mesh ({mesh.n_nodes}, 2)")
    return (mesh.B @ u.ravel()).reshape(mesh.n_cells, 3)


def nodal_forces(mesh: Mesh, sigma: np.ndarray, B_T=None) -> np.ndarray:
    """Assemble int sigma : E(phi) as a dof vector, through ``B_T`` (default ``mesh.B_T``).

    The weights 1, 2, 1 are powers of 2, so area times weight times sigma is
    the same number in either order of the products.
    """
    B_T = mesh.B_T if B_T is None else B_T
    return B_T @ (mesh.weighted_areas * sigma.ravel())


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


def gauss_trace_map(n_nodes: int, edges: EdgeArrays) -> sp.csr_matrix:
    """Sparse map of a nodal P1 field (raveled) to its values at the two Gauss points of
    each edge, raveled from shape (2, m, 2): (1 - xi) a + xi b at Gauss point xi of edge
    (a, b), two products and one sum per entry."""
    m = len(edges.lengths)
    rows = np.arange(4 * m).reshape(2, m, 2)
    ends = 2 * edges.nodes[:, :, None] + np.arange(2)  # (m, end, component)
    cols = np.broadcast_to(ends[None], (2, m, 2, 2)).transpose(0, 1, 3, 2)
    weights = np.array([[1 - xi, xi] for xi in _GAUSS2])[:, None, None, :]
    vals = np.broadcast_to(weights, (2, m, 2, 2))
    return sp.csr_matrix((vals.ravel(), (np.repeat(rows.ravel(), 2), cols.ravel())),
                         shape=(4 * m, 2 * n_nodes))


def dirichlet_traces(field: np.ndarray, mesh: Mesh) -> np.ndarray:
    """A nodal P1 field at the two Gauss points of each Dirichlet edge, shape (2, m, 2)."""
    return (mesh.dirichlet_trace_map @ field.ravel()).reshape(2, -1, 2)


def integrate_tensor_dot(areas: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """int a : b dx over the mesh for packed P0 tensor fields."""
    return float((areas * ddot(a, b)).sum())


def tensor_l2(areas: np.ndarray, a: np.ndarray) -> float:
    """L2(Omega) norm of a packed P0 tensor field."""
    return float(np.sqrt((areas * ddot(a, a)).sum()))


def scalar_l2(areas: np.ndarray, a: np.ndarray) -> float:
    return float(np.sqrt((areas * a * a).sum()))


def cell_blocks(mesh: Mesh, tangent: np.ndarray, strains: np.ndarray) -> np.ndarray:
    """S_c^T (area W D_c) S_c per cell, (n_cells, 6, 6), for cell strain matrices S_c and
    tangents D_c (one (3, 3) matrix, or one per cell)."""
    weighted = np.matmul(mesh.areas[:, None, None] * WEIGHTS[:, None] * tangent, strains)
    return np.matmul(strains.transpose(0, 2, 1), weighted)


@dataclass(frozen=True)
class ElementMap:
    """A system's unknowns cell by cell, and where each 6x6 cell block lands in its band.

    Displacement dof d moves by ``dof_weights[d]`` times unknown
    ``dof_unknowns[d]`` (``size`` where no unknown moves it). ``strains[c]``
    maps cell c's unknowns to its packed strain, (3, 6), and ``slots[c]``
    names the unknown behind each of its six local columns (x, y of each
    vertex), ``size`` where the column is none. Unknown k is row and column
    ``pos[k]`` of the band; ``order``, the inverse permutation, sorts the
    unknowns by dof number, a row-major grid order that keeps the
    half-bandwidth ``bw`` small.
    ``index`` holds the flat position, in the Fortran-ordered (bw + 1, size)
    upper LAPACK band, of the entry of each of the 36 local pairs (i, j) of
    every cell in C order, and the extra bin (bw + 1) size where a slot is
    none or the entry lies below the diagonal; ``diagonal`` holds the flat
    position of every unknown's diagonal entry.
    """

    dof_unknowns: np.ndarray
    dof_weights: np.ndarray
    strains: np.ndarray
    slots: np.ndarray
    index: np.ndarray
    diagonal: np.ndarray
    order: np.ndarray
    pos: np.ndarray
    bw: int

    @property
    def size(self) -> int:
        return len(self.order)

    def to_dofs(self, x: np.ndarray) -> np.ndarray:
        """The dof vector that the unknowns ``x`` move."""
        return np.append(x, 0.0)[self.dof_unknowns] * self.dof_weights

    def from_dofs(self, forces: np.ndarray) -> np.ndarray:
        """Dof ``forces`` as forces on the unknowns: the transpose of ``to_dofs``."""
        return np.bincount(self.dof_unknowns, forces * self.dof_weights,
                           minlength=self.size + 1)[:-1]

    def band(self, blocks: np.ndarray, diagonal) -> np.ndarray:
        """The upper half of sum_c (cell c's 6x6 ``blocks``) + diag(``diagonal``), LAPACK band."""
        ld, size = self.bw + 1, self.size
        ab = np.bincount(self.index, blocks.ravel(), minlength=ld * size + 1)
        ab[self.diagonal] += diagonal
        return ab[:-1].reshape(size, ld).T

    def factor(self, blocks: np.ndarray, diagonal, what: str) -> tuple:
        """The banded Cholesky factor (LAPACK ``dpbtrf``) of ``band(blocks, diagonal)``,
        for ``_band_solve``; a matrix that is not positive definite raises ``SolverError``."""
        ab, info = dpbtrf(self.band(blocks, diagonal), overwrite_ab=True)
        if info != 0:
            raise SolverError(f"{what} factorization failed: dpbtrf info {info}")
        return ab, self.order, self.pos

    def diagonal_of(self, blocks: np.ndarray) -> np.ndarray:
        """The diagonal of ``band(blocks, 0.0)`` per unknown."""
        return np.bincount(self.slots.ravel(), np.diagonal(blocks, 0, 1, 2).ravel(),
                           minlength=self.size + 1)[:-1]

    def matvec(self, blocks: np.ndarray, diagonal, x: np.ndarray) -> np.ndarray:
        """The operator of ``band(blocks, diagonal)`` times ``x``, cell by cell."""
        y = np.einsum("cij,cj->ci", blocks, np.append(x, 0.0)[self.slots])
        y = np.bincount(self.slots.ravel(), y.ravel(), minlength=self.size + 1)[:-1]
        return y + diagonal * x


def element_map(mesh: Mesh, slip_nodes: np.ndarray | None = None,
                slip_tangents: np.ndarray | None = None) -> ElementMap:
    """The ``ElementMap`` of the free dofs, then one slip unknown per node of ``slip_nodes``.

    A slip s of node a with unit tangent t moves a by -s t, so in every
    cell around a the x column of the cell's strain matrix becomes
    -(t_x Bx + t_y By) and the y column drops out. The unknowns keep the
    mesh's row-major dof numbering, a slip that of its node's x dof: a
    cell couples dofs at most about two grid rows apart, so the band's
    half-width is about 2n on an n x n grid, slips or not.
    """
    nodes = np.zeros(0, dtype=int) if slip_nodes is None else slip_nodes
    tangent = np.zeros((mesh.n_nodes, 2))
    if slip_tangents is not None:
        tangent[nodes] = slip_tangents
    free = np.flatnonzero(mesh.free_dofs)
    unknowns = np.concatenate([free, 2 * nodes])
    size = len(unknowns)
    dof_unknowns = np.full((mesh.n_nodes, 2), size)
    dof_unknowns[nodes] = np.arange(free.size, size)[:, None]
    dof_unknowns = dof_unknowns.ravel()
    dof_unknowns[free] = np.arange(free.size)
    dof_weights = (0.0 - tangent).ravel()
    dof_weights[free] = 1.0

    slipping = np.zeros(mesh.n_nodes, dtype=bool)
    slipping[nodes] = True
    t = tangent[mesh.triangles][:, None]  # (n_cells, 1, 3, 2)
    x_cols, y_cols = mesh.cell_strains[:, :, 0::2], mesh.cell_strains[:, :, 1::2]
    strains = mesh.cell_strains.copy()
    strains[:, :, 0::2] = np.where(slipping[mesh.triangles][:, None],
                                   -(t[..., 0] * x_cols + t[..., 1] * y_cols), x_cols)
    slots = dof_unknowns[mesh.cell_dofs]
    slots[:, 1::2][slipping[mesh.triangles]] = size  # a slip node's y column drops out

    order = np.argsort(unknowns)
    pos = np.empty(size + 1, dtype=int)
    pos[order] = np.arange(size)
    pos[size] = 0
    p, real = pos[slots], slots < size
    bw = int((np.where(real, p, -1).max(axis=1)
              - np.where(real, p, size).min(axis=1)).max(initial=0))
    ld = bw + 1
    index = bw + p[:, :, None] + bw * p[:, None, :]  # entry (p_i, p_j) of the band
    index[~(real[:, :, None] & real[:, None, :]) | (p[:, :, None] > p[:, None, :])] = ld * size
    return ElementMap(dof_unknowns, dof_weights, strains, slots, index.ravel(),
                      bw + ld * pos[:size], order, pos[:size], bw)


class ElasticSystem:
    """Assembled elasticity operator with a cached banded Cholesky factorization.

    Minimizes  (1/2) int C^eps (Eu - p):(Eu - p) - int f.u - int_Gamma_N g.u
    subject to prescribed values at Dirichlet nodes. The factorization is of
    the free-free block; changing p, loads or boundary values reuses it.
    Every operator is summed from 6x6 cell blocks S_c^T (area W D_c) S_c,
    S_c the mesh's ``cell_strains``: ``mesh.elements``, the ``ElementMap`` of
    the free dofs shared by every system on the mesh, places them in the band
    of K_ff; the elastic solve's other products with K are ``nodal_forces`` of
    C^eps strains. ``solve_tangent`` sums the blocks of a per-cell tangent in
    place of C^eps into the band of the same or another map (``element_map``
    with slip unknowns), for the inner solver's Newton steps, and factorizes
    it the same way.

    The factor is of the unit-epsilon stiffness K(1), whatever the system's
    epsilon: K(eps) = K(1)/eps, so a solve is eps times a solve with K(1), and
    ``with_epsilon`` makes the system of the same law at another epsilon on the
    same factor. Where eps is a power of 4 (the default epsilons 4^-k, and
    eps = 1), the factor of K(eps) is the factor of K(1) times a power of 2,
    so this is the solve with K(eps)'s own factor bit for bit; at any other
    eps the two differ at round-off.
    """

    def __init__(self, mesh: Mesh, hooke: HookeTensor):
        self._set_law(mesh, hooke)
        unit = cell_blocks(mesh, hooke.with_epsilon(1.0).matrix(), mesh.cell_strains)
        self._factor = mesh.elements.factor(unit, 0.0, "elastic")

    def _set_law(self, mesh: Mesh, hooke: HookeTensor) -> None:
        _ = mesh.dirichlet_B  # built with the system, as the factor is, not in its first solve
        self.mesh = mesh
        self.hooke = hooke
        self.cmat = hooke.matrix()
        self.fixed = np.flatnonzero(~mesh.free_dofs)
        self.free = np.flatnonzero(mesh.free_dofs)
        # C^T and |C|^T contiguous: an (n, 3) @ (3, 3) product with them takes half the time
        self._cmat_T = np.ascontiguousarray(self.cmat.T)
        self._abs_cmat_T = np.abs(self._cmat_T)

    def with_epsilon(self, epsilon: float) -> "ElasticSystem":
        """The system of this law at ``epsilon``, on this system's factor of K(1)."""
        system = object.__new__(ElasticSystem)
        system._set_law(self.mesh, self.hooke.with_epsilon(epsilon))
        system._factor = self._factor
        return system

    @cached_property
    def stiffness_diagonal(self) -> np.ndarray:
        """The diagonal of K_ff, on the free dofs; only damped Newton steps read it."""
        return self.mesh.elements.diagonal_of(cell_blocks(self.mesh, self.cmat,
                                                          self.mesh.cell_strains))

    def force_magnitudes(self, eu: np.ndarray, p: np.ndarray, loads: np.ndarray) -> np.ndarray:
        """``nodal_forces(C^eps (eu - p)) - loads`` with every term in absolute value.

        Scaled by eps_mach, it bounds the round-off in that residual.
        """
        cells = (np.abs(eu) + np.abs(p)) @ self._abs_cmat_T
        return nodal_forces(self.mesh, cells, self.mesh.abs_B_T) + np.abs(loads)

    def plastic_load_vector(self, p: np.ndarray) -> np.ndarray:
        """Assemble int C^eps p : E(phi) as a dof vector."""
        return nodal_forces(self.mesh, p @ self._cmat_T)

    def solve(self, p: np.ndarray, w_nodes: np.ndarray,
              loads: np.ndarray | None = None) -> np.ndarray:
        """Displacement minimizing the incremental energy under load vector ``loads``, p frozen."""
        mesh = self.mesh
        w_fixed = w_nodes.ravel()[self.fixed]
        # int C^eps (p - E u_fixed) : E(phi), the boundary values' forces moved over. A CSR
        # product adds its terms from +0.0 in column order, so the terms 0.0 * B_ij of the
        # free columns change no sum: E u_fixed is the product with B's Dirichlet columns.
        F = self.plastic_load_vector(p - (mesh.dirichlet_B @ w_fixed).reshape(-1, 3))
        rhs = F[self.free] if loads is None else F[self.free] + loads[self.free]
        x = _band_solve(self._factor, rhs)
        x *= self.hooke.epsilon  # K(eps) = K(1)/eps
        u = np.zeros(2 * mesh.n_nodes)
        u[self.free] = x  # x on the free dofs and 0.0 on the rest: K x is the guard's product
        Kx = self.plastic_load_vector((mesh.B @ u).reshape(-1, 3))
        _guarded(Kx[self.free], x, rhs, "elastic")
        u[self.fixed] = w_fixed
        return u.reshape(mesh.n_nodes, 2)

    def solve_tangent(self, tangent: np.ndarray, rhs: np.ndarray,
                      elements: ElementMap | None = None,
                      shift: np.ndarray | None = None,
                      stuck: np.ndarray | None = None) -> np.ndarray:
        """Solve K_T x = rhs, K_T = S^T blockdiag(area W D_c) S + diag(shift).

        ``tangent`` holds the packed per-cell tangents D_c, shape
        (n_cells, 3, 3), and S maps the unknowns of ``elements`` (by default
        ``mesh.elements``, the free dofs) to cell strains. The unknowns
        ``stuck`` are held at their ``rhs`` entries and eliminated
        symmetrically. K_T is summed from its cell blocks straight into the
        band and factorized by banded Cholesky. A tangent that is not
        positive definite (a collapse mechanism makes it singular) or a failed
        residual guard (K_T x from the same blocks) raises ``SolverError``.
        """
        elements = self.mesh.elements if elements is None else elements
        diagonal = np.zeros(elements.size) if shift is None else shift
        blocks = cell_blocks(self.mesh, tangent, elements.strains)
        if stuck is not None and stuck.size:
            known = np.zeros(elements.size)
            known[stuck] = rhs[stuck]
            rhs = rhs - elements.matvec(blocks, 0.0, known)
            rhs[stuck] = known[stuck]
            free = np.isin(elements.slots, stuck, invert=True)
            blocks = blocks * (free[:, :, None] & free[:, None, :])
            diagonal = np.where(np.isin(np.arange(elements.size), stuck), 1.0, diagonal)
        x = _band_solve(elements.factor(blocks, diagonal, "tangent"), rhs)
        return _guarded(elements.matvec(blocks, diagonal, x), x, rhs, "tangent")

    def energy(self, e: np.ndarray) -> float:
        """(1/2) int C^eps e:e of the elastic strain e = Eu - p."""
        return 0.5 * integrate_tensor_dot(self.mesh.areas, e @ self._cmat_T, e)


def _band_solve(factor: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve K x = rhs with a factor of ``ElementMap.factor`` (LAPACK ``dpbtrs``)."""
    ab, order, pos = factor
    return dpbtrs(ab, rhs[order], overwrite_b=True)[0][pos]


def _guarded(Kx: np.ndarray, x: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """``x`` if ``Kx``, the product K x, matches rhs to the solver guard, else ``SolverError``."""
    res, scale = _norm2(Kx - rhs), _norm2(rhs) + _norm2(x) + 1.0
    if not np.isfinite(res) or res > 1e-10 * scale:
        raise SolverError(f"{what} solve residual {res:.3e} exceeds tolerance")
    return x


def _norm2(v: np.ndarray) -> float:
    """The Euclidean norm sqrt(v . v) of a vector, as ``np.linalg.norm`` takes it."""
    return math.sqrt(v @ v)


def divergence_check(
    sigma: np.ndarray,
    mesh: Mesh,
    f_cells: np.ndarray | None = None,
    g_edges: np.ndarray | None = None,
    loads: np.ndarray | None = None,
) -> tuple[float, float]:
    """Discrete equilibrium residuals of a P0 stress field.

    Returns (interior_residual, flux_residual): the weak-form residual against
    P1 test functions vanishing on the Dirichlet nodes, measured in the dual
    norm of the lumped-L2 inner product, and the L2(Gamma_N) mismatch between
    the cell tractions sigma.nu and the prescribed g. ``loads``, if given, is
    the assembled load dof vector (a row of ``LoadProgram.loads``) in place of f.
    """
    if loads is None:
        loads = external_load_vector(mesh, f_cells, g_edges)
    # dof vector of R(phi) = int sigma:E(phi) - int f.phi - int_Gamma_N g.phi
    r = nodal_forces(mesh, sigma) - loads
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

