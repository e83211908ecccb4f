"""Safe-load certificates: statically admissible stresses with a yield margin.

A safe-load field pi equilibrates the loads (div pi + f = 0 weakly, pi.nu = g
on the Neumann edges) while its deviatoric part keeps a uniform distance c
from the yield surface. ``verify_safe_load`` checks a candidate and reports
the margin and equilibrium residuals; ``max_safety_margin`` finds the largest
margin by one convex solve, min max_cells |pi_D| over the equilibrated
fields, by ADMM: an exact projection onto the equilibrium constraints,
alternating with a cap of every cell's deviator norm at one common level.
Every Neumann edge of the square is axis-parallel, so its flux condition
fixes two stress components of its cell outright; the rest is projected
onto weak equilibrium through a banded Cholesky factor of its Gram matrix,
summed from cell blocks on the mesh's element map like the stiffness
(``fem``'s one band routine).

The optimizer certifies lower bounds only: any returned pair re-verifies
through ``verify_safe_load``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import _band_solve, cell_blocks, divergence_check, external_load_vector, nodal_forces
from .mesh import Mesh
from .tensors import WEIGHTS, YieldSet, _cap_to_ball, dev_decompose, norm

_CERT_TOL = 1e-8        # equilibrium residual a valid certificate may keep
# At this prox step the iteration count stays flat from n=8 to n=32; steps
# several times larger converge linearly, but in a count that doubles with
# every mesh refinement.
_ADMM_STEP = 15.0       # prox step 1/rho, over the RMS deviator norm of the least-norm field
_ADMM_TOL = 5e-5        # fixed-point residual, over the same norm, that ends the solve
_ADMM_ITERS = 10000     # iteration cap


@dataclass(frozen=True)
class SafeLoadCertificate:
    """Margin and residuals of a per-time family of candidate stress fields."""

    margin: float
    interior_residual: float
    flux_residual: float
    margins_per_time: np.ndarray
    valid: bool
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "margin": self.margin,
            "interior_residual": self.interior_residual,
            "flux_residual": self.flux_residual,
            "margins_per_time": list(map(float, self.margins_per_time)),
            "valid": self.valid,
            "tolerance": self.tolerance,
        }


def verify_safe_load(
    pi_per_time,
    f_per_time,
    g_per_time,
    mesh: Mesh,
    yield_set: YieldSet,
) -> SafeLoadCertificate:
    """Margin kappa - max|pi_D| and equilibrium residuals of the candidates.

    Accepts one field per grid time (a single field may be passed as a
    one-element list), with one load each; lists of different lengths raise
    ``ValueError``. The certificate is invalid when the margin is
    non-positive or any residual exceeds ``_CERT_TOL``; invalidity is a
    reported state, not an error.
    """
    margins = []
    worst_int, worst_flux = 0.0, 0.0
    for pi, f, g in zip(pi_per_time, f_per_time, g_per_time, strict=True):
        dev_p, _ = dev_decompose(np.asarray(pi, dtype=float))
        margins.append(yield_set.radius - float(norm(dev_p).max()))
        interior, flux = divergence_check(pi, mesh, f, g)
        worst_int = max(worst_int, interior)
        worst_flux = max(worst_flux, flux)
    margins = np.array(margins)
    margin = float(margins.min())
    valid = margin > 0.0 and worst_int <= _CERT_TOL and worst_flux <= _CERT_TOL
    return SafeLoadCertificate(margin=margin, interior_residual=worst_int,
                               flux_residual=worst_flux, margins_per_time=margins,
                               valid=valid, tolerance=_CERT_TOL)


def _checked(name: str, loads, shape: tuple) -> np.ndarray:
    """``loads`` as a float array, or ``ValueError`` unless it is finite with ``shape``."""
    loads = np.asarray(loads, dtype=float)
    if loads.shape != shape or not np.isfinite(loads).all():
        raise ValueError(f"{name} must be finite with shape {shape}, not {loads.shape}")
    return loads


def _flux_components(mesh: Mesh, g_edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(fixed, values): the packed stress components that pi.nu = g fixes, and their values.

    Every Neumann edge is axis-parallel, so its flux condition fixes
    (s11, s12) = g / nx of its cell on a vertical face and (s12, s22) = g / ny
    on a horizontal one. A corner cell with two Neumann edges that fix one
    component to different values admits no P0 field: ``ValueError``.
    """
    neumann = mesh.neumann_boundary
    nx, ny = neumann.normals.T
    vertical = ny == 0.0
    index = 3 * neumann.cells[:, None] + np.where(vertical[:, None], [0, 1], [1, 2])
    wanted = g_edges / np.where(vertical, nx, ny)[:, None]
    fixed = np.zeros(3 * mesh.n_cells, dtype=bool)
    values = np.zeros(3 * mesh.n_cells)
    fixed[index] = True
    values[index] = wanted
    clash = (values[index] != wanted).any(axis=1)
    if clash.any():
        raise ValueError(f"the Neumann edges of cell {neumann.cells[clash][0]} fix one stress "
                         "component to two values: no P0 stress is statically admissible")
    return fixed, values


def _dev_norms(pi_flat: np.ndarray) -> np.ndarray:
    return norm(dev_decompose(pi_flat.reshape(-1, 3))[0])


def _prox_max_dev(v: np.ndarray, t: float) -> np.ndarray:
    """prox of t max_cells |v_D| in the metric of ``ddot``.

    The spherical parts stay; the deviator norms m are capped at the one
    level tau >= 0 with sum(max(m - tau, 0)) = t (Moreau: v_D minus its
    projection onto the sum-of-norms ball of radius t), found by one sort.
    """
    dev_v, mean = dev_decompose(v.reshape(-1, 3))
    s = np.sort(norm(dev_v))[::-1]
    levels = (np.cumsum(s) - t) / np.arange(1, len(s) + 1)
    out = _cap_to_ball(dev_v, max(float(levels[np.count_nonzero(s > levels) - 1]), 0.0))
    out[:, 0] += mean
    out[:, 2] += mean
    return out.ravel()


def max_safety_margin(
    f_cells: np.ndarray,
    g_edges: np.ndarray,
    mesh: Mesh,
    yield_set: YieldSet,
) -> tuple[float, np.ndarray, dict]:
    """Largest certified safety margin for the loads at one fixed time.

    Solves  min max_cells |pi_D|  over the statically admissible pi by ADMM
    (Douglas-Rachford) in the metric of ``ddot``. One step projects exactly
    onto the admissible fields: it sets the components that the Neumann
    fluxes fix, and projects the free ones (mask M) onto weak equilibrium
    against the free dofs through the Gram matrix
    sum_c S_c^T (area_c^2 W M_c) S_c on ``mesh.elements``, positive definite
    with its small ridge and factorized once. The other is the prox of the
    max-norm, which caps every cell's deviator norm at one common level. The
    best projected iterate gives c_star = kappa - max|pi_D|: positive below
    the limit load, <= 0 beyond it. Returns (c_star, pi_star, diagnostics);
    the diagnostics hold the iteration count and the history of the
    fixed-point residual sqrt(|dy|^2 + |dz|^2), which does not increase.

    Loads that are not finite, not shaped (n_cells, 2) and (Neumann edges, 2),
    or that fix one stress component of a corner cell to two values (no
    admissible field exists) raise ``ValueError``.
    """
    kappa = yield_set.radius
    n_cells = mesh.n_cells
    f_cells = _checked("f_cells", f_cells, (n_cells, 2))
    g_edges = _checked("g_edges", g_edges, (len(mesh.neumann_boundary.lengths), 2))
    fixed, values = _flux_components(mesh, g_edges)
    loads = external_load_vector(mesh, f_cells, g_edges)[mesh.free_dofs]
    elements = mesh.elements
    masked = mesh.packed_areas * ~fixed  # D_c = area_c M_c
    blocks = cell_blocks(mesh, masked.reshape(-1, 3, 1) * np.eye(3), elements.strains)
    factor = elements.factor(blocks, 1e-12 * elements.diagonal_of(blocks).max(), "gram")
    w = np.tile(WEIGHTS, n_cells)

    def equilibrate(v):  # the nearest admissible pi to v, in the metric of ddot
        v = np.where(fixed, values, v)
        r = nodal_forces(mesh, v.reshape(-1, 3))[mesh.free_dofs] - loads
        return v - masked * (mesh.B @ elements.to_dofs(_band_solve(factor, r)))

    def wnorm(v):
        return float(np.sqrt(v @ (w * v)))

    z = y = np.zeros(3 * n_cells)
    # The prox step and the stop scale with the least-norm equilibrated field,
    # so loads scaled by s give iterates scaled by s in as many iterations.
    scale = float(np.sqrt(np.mean(_dev_norms(equilibrate(z)) ** 2)))
    best, best_pi, hist = np.inf, None, []
    for k in range(1, _ADMM_ITERS + 1):
        pi = equilibrate(z - y)
        worst = float(_dev_norms(pi).max())
        if worst < best:
            best, best_pi = worst, pi
        z_new = _prox_max_dev(pi + y, _ADMM_STEP * scale)
        dy = pi - z_new
        hist.append(np.sqrt(wnorm(dy) ** 2 + wnorm(z_new - z) ** 2))
        z, y = z_new, y + dy
        if hist[-1] <= _ADMM_TOL * scale:
            break
    c_star = kappa - best
    diag = {
        "iterations": k,
        "residual_history": np.array(hist),
        # (c, feasible) pairs are what perfbench/tracer.py counts as
        # safe-load trials; one solve is one trial.
        "bisection_trials": [(c_star, c_star > 0)],
    }
    return c_star, best_pi.reshape(n_cells, 3), diag
