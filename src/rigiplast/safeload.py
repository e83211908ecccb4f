"""Safe-load certificates: statically admissible stresses with a yield margin.

A safe-load field pi equilibrates the loads (div pi + f = 0 weakly, pi.nu = g
on the Neumann edges) while its deviatoric part keeps a uniform distance c
from the yield surface. ``verify_safe_load`` checks a candidate and reports
the margin and equilibrium residuals; ``max_safety_margin`` finds the largest
margin by one convex solve, min max_cells |pi_D| over the equilibrated
fields, by ADMM: an exact projection onto the equilibrium constraints through
a banded Cholesky factor of their Gram matrix (``fem``'s one band routine),
alternating with a cap of every cell's deviator norm at one common level.

The optimizer certifies lower bounds only: any returned pair re-verifies
through ``verify_safe_load``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem import (
    _band_factor,
    _band_matrix,
    _band_order,
    _band_solve,
    divergence_check,
    external_load_vector,
)
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
    one-element list). The certificate is invalid when the margin is
    non-positive or any residual exceeds ``_CERT_TOL``; invalidity is a
    reported state, not an error.
    """
    margins = []
    worst_int, worst_flux = 0.0, 0.0
    for pi, f, g in zip(pi_per_time, f_per_time, g_per_time):
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


def _equilibrium_operator(mesh: Mesh, f_cells, g_edges):
    """Row-normalized linear system A pi_flat = b encoding static admissibility.

    Rows: weak equilibrium against every P1 test dof vanishing on the
    Dirichlet nodes (scaled to the lumped-L2 dual norm), then the per-edge
    Neumann flux conditions.
    """
    M = (mesh.B.T @ sp.diags(np.repeat(mesh.areas, 3) * np.tile(WEIGHTS, mesh.n_cells))).tocsr()

    mask = mesh.free_dofs
    rhs_full = external_load_vector(mesh, f_cells, g_edges)
    scale = 1.0 / np.sqrt(np.repeat(mesh.lumped_mass, 2)[mask])
    A1 = sp.diags(scale) @ M[mask]
    b1 = scale * rhs_full[mask]

    neumann = mesh.neumann_boundary
    m = len(neumann.lengths)
    c, (nx, ny), rt = neumann.cells, neumann.normals.T, np.sqrt(neumann.lengths)
    rows = np.repeat(np.arange(2 * m), 2)
    cols = np.column_stack([3 * c, 3 * c + 1, 3 * c + 1, 3 * c + 2]).ravel()
    vals = np.column_stack([rt * nx, rt * ny, rt * nx, rt * ny]).ravel()
    A2 = sp.coo_matrix((vals, (rows, cols)), shape=(2 * m, 3 * mesh.n_cells))
    b2 = (rt[:, None] * np.reshape(g_edges, (m, 2))).ravel()
    return sp.vstack([A1, A2]).tocsr(), np.concatenate([b1, b2])


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

    Solves  min max_cells |pi_D|  subject to equilibrium  A pi = b  by ADMM
    (Douglas-Rachford) in the metric of ``ddot``. One step projects exactly
    onto {A pi = b} through a banded Cholesky factor of the Gram matrix
    A W^-1 A^T (W the contraction weights), positive definite with its small
    ridge; the other is the prox of the max-norm, which caps every cell's
    deviator norm at one common level. Every projected iterate
    is equilibrated to solver precision, so the best one certifies its own
    margin c_star = kappa - max|pi_D|: positive below the limit load, <= 0
    beyond it. Returns (c_star, pi_star, diagnostics); the diagnostics hold
    the iteration count and the history of the fixed-point residual
    sqrt(|dy|^2 + |dz|^2), which does not increase.
    """
    kappa = yield_set.radius
    n_cells = mesh.n_cells
    A, b = _equilibrium_operator(mesh, f_cells, g_edges)
    w = np.tile(WEIGHTS, n_cells)
    gram = A @ sp.diags(1.0 / w) @ A.T
    ridge = 1e-12 * gram.diagonal().max()
    band = _band_matrix(gram + ridge * sp.identity(gram.shape[0]), _band_order(A.T))
    factor = _band_factor(*band, "gram")

    def equilibrate(v):  # the nearest pi to v, in the metric of ddot, with A pi = b
        return v - (A.T @ _band_solve(factor, A @ v - b)) / w

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
