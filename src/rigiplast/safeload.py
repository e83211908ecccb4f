"""Safe-load certificates: statically admissible stresses with a yield margin.

A safe-load field pi equilibrates the loads (div pi + f = 0 weakly, pi.nu = g
on the Neumann edges) while its deviatoric part keeps a uniform distance c
from the yield surface. ``verify_safe_load`` checks a candidate and reports
the margin and equilibrium residuals; ``max_safety_margin`` searches for the
largest certifiable margin by bisecting on c over a primal-dual feasibility
solver (projected dual ascent on the equilibrium multiplier, proximal radial
clamp on the deviatoric ball; step sizes from a power-iteration estimate of
the constraint operator norm).

The optimizer certifies lower bounds only: any returned pair re-verifies
through ``verify_safe_load``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem import divergence_check, external_load_vector
from .mesh import Mesh
from .tensors import WEIGHTS, YieldSet, dev_decompose, norm

_CERT_TOL = 1e-8        # equilibrium residual a valid certificate may keep
_PDHG_ITERS = 4000      # primal-dual iterations per feasibility trial
_PDHG_TOL = 1e-6        # relative equilibrium residual that ends a trial
_BISECTION_STEPS = 16   # bisection steps on the margin


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


def _operator_norm(A, iters: int = 60, seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(A.shape[1])
    x /= np.linalg.norm(x)
    s = 1.0
    for _ in range(iters):
        y = A.T @ (A @ x)
        s = np.linalg.norm(y)
        if s == 0.0:
            return 1.0
        x = y / s
    return float(np.sqrt(s))


def _project_ball(pi_flat: np.ndarray, n_cells: int, radius: float) -> np.ndarray:
    pi = pi_flat.reshape(n_cells, 3)
    dev_p, mean = dev_decompose(pi)
    m = norm(dev_p)
    over = m > radius
    if np.any(over):
        scale = np.ones_like(m)
        np.divide(radius, m, out=scale, where=over)
        dev_p = dev_p * scale[:, None]
    out = dev_p
    out[:, 0] += mean
    out[:, 2] += mean
    return out.reshape(-1)


@dataclass
class FeasibilityResult:
    pi: np.ndarray
    residual: float
    iterations: int
    residual_history: np.ndarray
    converged: bool


def _feasibility_pdhg(A, b, op_norm, mesh, radius, iters, tol, pi0=None, y0=None):
    """Chambolle-Pock iteration for  find pi in Ball(radius) with A pi = b.

    Returns the ergodic-average-refined best iterate; under infeasibility the
    residual stalls at a positive value. The history records the ergodic
    residual every few iterations.
    """
    n = A.shape[1]
    pi = np.zeros(n) if pi0 is None else pi0.copy()
    y = np.zeros(A.shape[0]) if y0 is None else y0.copy()
    tau = sigma_step = 0.95 / max(op_norm, 1e-30)
    b_scale = max(np.linalg.norm(b), 1.0)

    pi_avg = np.zeros_like(pi)
    hist = []
    best_pi, best_res = pi.copy(), np.inf
    check_every = 25
    for k in range(1, iters + 1):
        pi_old = pi
        pi = _project_ball(pi - tau * (A.T @ y), mesh.n_cells, radius)
        y = y + sigma_step * (A @ (2 * pi - pi_old) - b)
        pi_avg += (pi - pi_avg) / k
        if k % check_every == 0 or k == iters:
            res = float(np.linalg.norm(A @ pi - b)) / b_scale
            avg_proj = _project_ball(pi_avg.copy(), mesh.n_cells, radius)
            res_avg = float(np.linalg.norm(A @ avg_proj - b)) / b_scale
            hist.append(res_avg)
            if res < best_res:
                best_res, best_pi = res, pi.copy()
            if res_avg < best_res:
                best_res, best_pi = res_avg, avg_proj
            if best_res <= tol:
                return FeasibilityResult(best_pi, best_res, k, np.array(hist), True), y
    return FeasibilityResult(best_pi, best_res, iters, np.array(hist), False), y


def _affine_polish(A, b, lu, pi_flat):
    """Exact least-squares projection onto {A pi = b}, one normal-equation solve."""
    return pi_flat - A.T @ lu.solve(A @ pi_flat - b)


def max_safety_margin(
    f_cells: np.ndarray,
    g_edges: np.ndarray,
    mesh: Mesh,
    yield_set: YieldSet,
) -> tuple[float, np.ndarray, dict]:
    """Largest certified safety margin for the loads at one fixed time.

    Bisects on the margin c; each trial solves the feasibility problem
    {|pi_D| <= kappa - c, equilibrium} by the primal-dual iteration, and
    ``diagnostics["bisection_trials"]`` lists its (c, feasible). The best
    feasible field receives one exact least-squares equilibrium projection, so
    the returned pair certifies its own margin c_star = kappa - max|pi_D| with
    equilibrium residuals at solver precision. Returns (c_star, pi_star,
    diagnostics); c_star <= 0 with the best-effort field when no feasible
    point exists at c = 0.
    """
    kappa = yield_set.radius
    A, b = _equilibrium_operator(mesh, f_cells, g_edges)
    op_norm = _operator_norm(A)
    diag: dict = {"operator_norm": op_norm}

    import scipy.sparse.linalg as spla

    gram = (A @ A.T).tocsc()
    ridge = 1e-12 * gram.diagonal().max()
    lu = spla.splu(gram + ridge * sp.identity(gram.shape[0], format="csc"))

    # endpoint probe: margin kappa means a purely spherical field must work
    res_top, _ = _feasibility_pdhg(A, b, op_norm, mesh, 0.0, _PDHG_ITERS, _PDHG_TOL)
    if res_top.converged:
        pi_star = _affine_polish(A, b, lu, res_top.pi).reshape(mesh.n_cells, 3)
        dev_p, _ = dev_decompose(pi_star)
        diag["bisection_trials"] = [(kappa, True)]
        return kappa - float(norm(dev_p).max()), pi_star, diag

    res0, y0 = _feasibility_pdhg(A, b, op_norm, mesh, kappa, _PDHG_ITERS, _PDHG_TOL)
    trials = [(0.0, res0.converged)]
    if not res0.converged:
        diag["bisection_trials"] = trials
        diag["residual_history"] = res0.residual_history
        diag["feasibility_residual"] = res0.residual
        return -res0.residual * kappa, res0.pi.reshape(mesh.n_cells, 3), diag

    lo, hi = 0.0, kappa          # lo: feasible, hi: infeasible (or untested top)
    best_pi = res0.pi
    best_hist = res0.residual_history
    warm_pi, warm_y = res0.pi, y0
    for _ in range(_BISECTION_STEPS):
        c = 0.5 * (lo + hi)
        res, y = _feasibility_pdhg(A, b, op_norm, mesh, kappa - c, _PDHG_ITERS, _PDHG_TOL,
                                   pi0=warm_pi, y0=warm_y)
        trials.append((c, res.converged))
        if res.converged:
            lo, best_pi, best_hist = c, res.pi, res.residual_history
            warm_pi, warm_y = res.pi, y
        else:
            hi = c
    diag["bisection_trials"] = trials
    diag["residual_history"] = best_hist
    pi_star = _affine_polish(A, b, lu, best_pi).reshape(mesh.n_cells, 3)
    dev_p, _ = dev_decompose(pi_star)
    c_star = kappa - float(norm(dev_p).max())   # the field's own verified margin
    return c_star, pi_star, diag
