"""Quasi-static elasto-plastic evolution by backward-Euler incremental minimization.

Each time step minimizes

    (1/2) int C^eps (Eu - p):(Eu - p) + kappa int |p - p_prev| - load terms

over displacements matching the boundary datum and deviatoric plastic strains,
by alternating an exact sparse elastic solve (p frozen) with the closed-form
cellwise return map (u frozen). The functional decreases monotonically; the
loop stops when the decrease drops below ``tol * (1 + |value|)`` and the step
ends on a return-map half-step so the deviatoric stress satisfies the yield
constraint exactly.

Boundary condition modes:

* ``strong``  - displacements pinned to the datum at every Dirichlet node;
* ``relaxed`` - Dirichlet nodes may slip tangentially; the slip is a plastic
  boundary gap p = (w - u) (.) nu dissipating kappa * |tangential gap|/sqrt(2)
  per unit edge length, with the normal gap held at zero exactly. Corner
  nodes (two face normals) stay pinned.

The energy ledger uses time-trapezoid work increments, which makes the purely
elastic balance exact to solver precision and keeps the plastic balance gap
one-sided and first order in the step size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import (
    ElasticSystem,
    boundary_integral_p1,
    external_load_vector,
    gauss_traces,
    integrate_tensor_dot,
    strain_of,
    tensor_l2,
    weak_divergence_form,
)
from .mesh import Mesh
from .tensors import (
    HookeTensor,
    YieldSet,
    dev_decompose,
    norm,
    radial_return,
    sym_outer,
)

STRONG = "strong"
RELAXED = "relaxed"


class ConvergenceError(RuntimeError):
    """Inner alternating minimization failed to converge.

    Carries the last iterate and the history of functional decreases.
    """

    def __init__(self, message, state=None, decrease_history=None, step_index=None):
        super().__init__(message)
        self.state = state
        self.decrease_history = decrease_history or []
        self.step_index = step_index


@dataclass(frozen=True)
class LoadProgram:
    """Time-parameterized loading data sampled on the time grid.

    ``w`` is the global hard-device field (divergence-free, shape
    (M+1, n_nodes, 2)), ``f`` the body load per cell, ``g`` the traction per
    Neumann edge. All are affine in time between grid points.
    """

    times: np.ndarray
    w: np.ndarray
    f: np.ndarray
    g: np.ndarray

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def validate(self, mesh: Mesh, div_tol: float = 1e-12) -> None:
        if self.times.ndim != 1 or len(self.times) < 2:
            raise ValueError("time grid needs at least two points")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("time grid must be strictly increasing")
        if self.w.shape != (len(self.times), mesh.n_nodes, 2):
            raise ValueError(f"boundary field shape {self.w.shape} does not match grid/mesh")
        if self.f.shape != (len(self.times), mesh.n_cells, 2):
            raise ValueError(f"body load shape {self.f.shape} does not match grid/mesh")
        n_neu = len(mesh.neumann_edges)
        if self.g.shape != (len(self.times), n_neu, 2):
            raise ValueError(f"traction shape {self.g.shape} does not match grid/mesh")
        scale = max(1.0, float(np.abs(self.w).max()))
        for k in range(len(self.times)):
            ew = strain_of(self.w[k], mesh)
            div = ew[:, 0] + ew[:, 2]
            if np.abs(div).max() > div_tol * scale:
                raise ValueError(
                    f"boundary field is not divergence-free at t={self.times[k]:g} "
                    f"(max |div w| = {np.abs(div).max():.3e})"
                )

    def at(self, k: int) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        return float(self.times[k]), self.w[k], self.f[k], self.g[k]

    def resample(self, times: np.ndarray) -> "LoadProgram":
        """Affine-in-time reinterpolation onto a new grid."""
        times = np.asarray(times, dtype=float)

        def interp(arr):
            flat = arr.reshape(len(self.times), -1)
            out = np.empty((len(times), flat.shape[1]))
            for j in range(flat.shape[1]):
                out[:, j] = np.interp(times, self.times, flat[:, j])
            return out.reshape((len(times),) + arr.shape[1:])

        return LoadProgram(times, interp(self.w), interp(self.f), interp(self.g))


@dataclass(frozen=True)
class FEState:
    """Discrete solution triple (u, e, p) with sigma = C^eps e at one time.

    ``boundary_slip`` holds the tangential slip per slip node in relaxed mode
    (empty in strong mode).
    """

    t: float
    u: np.ndarray
    e: np.ndarray
    p: np.ndarray
    sigma: np.ndarray
    boundary_slip: np.ndarray

    @classmethod
    def zeros(cls, mesh: Mesh, n_slip: int = 0) -> "FEState":
        return cls(0.0, np.zeros((mesh.n_nodes, 2)), np.zeros((mesh.n_cells, 3)),
                   np.zeros((mesh.n_cells, 3)), np.zeros((mesh.n_cells, 3)),
                   np.zeros(n_slip))

    def check(self, mesh: Mesh, yield_set: YieldSet, tol: float = 1e-10) -> None:
        eu = strain_of(self.u, mesh)
        gap = float(norm(eu - self.e - self.p).max())
        scale = max(1.0, float(norm(eu).max()))
        if gap > tol * scale:
            raise AssertionError(f"additive decomposition violated by {gap:.3e}")
        tr_p = float(np.abs(self.p[:, 0] + self.p[:, 2]).max())
        if tr_p > tol * scale:
            raise AssertionError(f"plastic strain has trace {tr_p:.3e}")
        dev_s, _ = dev_decompose(self.sigma)
        over = float(norm(dev_s).max()) - yield_set.radius
        if over > tol * yield_set.radius:
            raise AssertionError(f"deviatoric stress exceeds the yield radius by {over:.3e}")


@dataclass
class SlipNodes:
    """Dirichlet nodes allowed to slip tangentially in relaxed mode."""

    nodes: np.ndarray      # node index per slip dof
    tangents: np.ndarray   # unit tangent per slip dof
    lengths: np.ndarray    # lumped Dirichlet edge length per slip dof

    @property
    def count(self) -> int:
        return len(self.nodes)


def slip_nodes_of(mesh: Mesh) -> SlipNodes:
    """Face-interior Dirichlet nodes with their tangent and lumped edge length.

    Nodes shared by two faces keep both normals and stay pinned.
    """
    d = mesh.dirichlet_boundary
    ends = d.nodes.ravel()
    normals = np.repeat(d.normals, 2, axis=0)
    lo = np.full((mesh.n_nodes, 2), np.inf)
    hi = np.full((mesh.n_nodes, 2), -np.inf)
    np.minimum.at(lo, ends, normals)
    np.maximum.at(hi, ends, normals)
    nodes = np.unique(ends)
    nodes = nodes[(lo[nodes] == hi[nodes]).all(axis=1)]  # corners: two normals, pinned
    nu = lo[nodes]
    lengths = 0.5 * np.bincount(ends, weights=np.repeat(d.lengths, 2),
                                minlength=mesh.n_nodes)[nodes]
    return SlipNodes(nodes, np.column_stack([-nu[:, 1], nu[:, 0]]), lengths)


@dataclass
class EnergyLedger:
    """Per-step energy bookkeeping for one evolution."""

    times: np.ndarray
    elastic: np.ndarray        # Q(e(t_k))
    dissipation: np.ndarray    # cumulative sum of H(p_k - p_{k-1})
    work: np.ndarray           # cumulative external work (trapezoid in time)
    gap: np.ndarray            # Q + D - W - Q_0
    max_sigma_dev: np.ndarray
    plastic_fraction: np.ndarray
    iterations: np.ndarray

    CSV_HEADER = "step,time,Q,D,W,gap,max_sigma_dev,plastic_cell_fraction"

    def csv_rows(self):
        for k in range(len(self.times)):
            yield (k, self.times[k], self.elastic[k], self.dissipation[k],
                   self.work[k], self.gap[k], self.max_sigma_dev[k],
                   self.plastic_fraction[k])


@dataclass(frozen=True)
class StepInfo:
    iterations: int
    functional: float
    decreases: tuple


def _functional(system, mesh, yset, u, p, p_prev, loads, slip=None, s=None, s_prev=None) -> float:
    val = system.energy(u, p)
    val += yset.radius * float((mesh.areas * norm(p - p_prev)).sum())
    if slip is not None and slip.count:
        val += yset.radius / np.sqrt(2.0) * float((slip.lengths * np.abs(s - s_prev)).sum())
    val -= float(loads @ u.ravel())
    return val


def _slip_pass(system, slip, u, s, s_prev, p, loads, kappa):
    """One exact Gauss-Seidel sweep over the slip nodes.

    Minimizes the incremental functional in each scalar slip with everything
    else frozen; closed-form soft-threshold against the nodal stiffness.
    """
    F = system.plastic_load_vector(p)
    F += loads
    r = system.K @ u.ravel() - F
    K = system.K
    for i in range(slip.count):
        nd = slip.nodes[i]
        t_hat = slip.tangents[i]
        d0, d1 = 2 * nd, 2 * nd + 1
        k_a = (t_hat[0] * t_hat[0] * K[d0, d0]
               + 2.0 * t_hat[0] * t_hat[1] * K[d0, d1]
               + t_hat[1] * t_hat[1] * K[d1, d1])
        # increasing s by delta moves u at the node by -delta * t_hat
        g_a = t_hat[0] * r[d0] + t_hat[1] * r[d1]
        c_a = kappa * slip.lengths[i] / np.sqrt(2.0)
        z0 = s[i] - s_prev[i]
        x = k_a * z0 + g_a
        zeta = np.sign(x) * max(abs(x) - c_a, 0.0) / k_a
        delta = zeta - z0
        if delta != 0.0:
            s[i] += delta
            u[nd] -= delta * t_hat
            col = delta * (K[:, d0].toarray().ravel() * t_hat[0]
                           + K[:, d1].toarray().ravel() * t_hat[1])
            r -= col
    return s, u


def _assemble_state(system, mesh, hooke, yield_set, t, u, p_prev, s):
    """Final return-map half-step and state assembly.

    The deviatoric stress comes straight from the return map (hard-capped at
    the yield radius); the spherical part is kappa_b/eps * tr(Eu).
    """
    eu = strain_of(u, mesh, system.B)
    e_dev, e_mean = dev_decompose(eu)
    p, sig_dev = radial_return(e_dev, p_prev, hooke, yield_set)
    e = eu - p
    spherical = 2.0 * hooke.bulk_modulus / hooke.epsilon * e_mean
    sigma = sig_dev.copy()
    sigma[:, 0] += spherical
    sigma[:, 2] += spherical
    return FEState(t=t, u=u, e=e, p=p, sigma=sigma, boundary_slip=s), p


def incremental_step(
    state_prev: FEState,
    t: float,
    w_nodes: np.ndarray,
    f_cells: np.ndarray,
    g_edges: np.ndarray,
    hooke: HookeTensor,
    yield_set: YieldSet,
    mesh: Mesh,
    system: ElasticSystem | None = None,
    mode: str = STRONG,
    slip: SlipNodes | None = None,
    tol: float = 1e-10,
    max_iters: int = 10_000,
    stress_tol: float = 1e-10,
    w_prev_nodes: np.ndarray | None = None,
) -> tuple[FEState, StepInfo]:
    """One backward-Euler incremental minimization from ``state_prev``.

    Stops when the functional decrease falls below ``tol * (1 + |value|)``
    AND the estimated distance of the stress iterate to its fixed point (the
    last update norm times the geometric tail of the observed contraction)
    falls below ``stress_tol * kappa``. The stress conjunct keeps solver
    truncation out of the sweep's stress-distance monitors.

    The functional is asserted non-increasing at every inner iteration and the
    converged value is checked against the admissible lift of the previous
    state (u_prev shifted by the boundary-datum increment). A
    ``ConvergenceError`` carries the last iterate and the decrease history.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if system is None:
        system = ElasticSystem(mesh, hooke)
    if mode not in (STRONG, RELAXED):
        raise ValueError(f"unknown boundary mode {mode!r}")
    relaxed = mode == RELAXED
    if relaxed and slip is None:
        slip = slip_nodes_of(mesh)

    p_prev = state_prev.p
    s_prev = state_prev.boundary_slip if relaxed else np.zeros(0)
    s = s_prev.copy()
    kappa = yield_set.radius
    slip_arg = slip if relaxed else None
    loads = external_load_vector(mesh, f_cells, g_edges)  # f and g are fixed within the step

    def boundary_values(s_now):
        if not relaxed or not slip.count:
            return w_nodes
        w_eff = w_nodes.copy()
        w_eff[slip.nodes] -= s_now[:, None] * slip.tangents
        return w_eff

    def functional_of(u_val, p_val, s_val):
        return _functional(system, mesh, yield_set, u_val, p_val, p_prev,
                           loads, slip_arg, s_val, s_prev)

    p = p_prev.copy()
    u = system.solve(p, boundary_values(s), loads)
    value = functional_of(u, p, s)
    eu = strain_of(u, mesh, system.B)
    sigma_iter = (eu - p) @ system.cmat.T
    decreases = []
    slack = 1e-12
    converged = False
    iterations = 1
    # safeguarded over-relaxation of the plastic fixed point: candidates that
    # fail to decrease the functional fall back to the plain return-map step
    omega = 1.0
    dsig_prev = None
    stress_tol_abs = stress_tol * kappa

    for it in range(max_iters):
        e_dev, _ = dev_decompose(eu)
        p_plain, _ = radial_return(e_dev, p_prev, hooke, yield_set)
        accepted = False
        if omega > 1.0:
            p_cand = p + omega * (p_plain - p)
            s_cand = s.copy()
            u_cand = system.solve(p_cand, boundary_values(s_cand), loads)
            cand_value = functional_of(u_cand, p_cand, s_cand)
            if cand_value <= value + slack * (1.0 + abs(cand_value)):
                accepted = True
                omega = min(omega * 1.05, 1.95)
            else:
                omega = 1.0
        if not accepted:
            p_cand = p_plain
            s_cand = s
            if relaxed and slip.count:
                s_cand, u = _slip_pass(system, slip, u, s, s_prev, p_cand, loads, kappa)
            u_cand = system.solve(p_cand, boundary_values(s_cand), loads)
            cand_value = functional_of(u_cand, p_cand, s_cand)
            if not relaxed and it >= 2:
                omega = min(max(omega, 1.0) * 1.3, 1.95)

        new_value = cand_value
        decrease = value - new_value
        decreases.append(decrease)
        if decrease < -slack * (1.0 + abs(new_value)):
            raise AssertionError(
                f"incremental functional increased by {-decrease:.3e} at inner iteration {it}"
            )
        p, s, u, value = p_cand, s_cand, u_cand, new_value
        eu = strain_of(u, mesh, system.B)
        sigma_new = (eu - p) @ system.cmat.T
        dsig = tensor_l2(mesh.areas, sigma_new - sigma_iter)
        sigma_iter = sigma_new
        iterations += 1

        if dsig == 0.0:
            stress_done = True
        elif dsig_prev is not None and dsig_prev > 0.0:
            rho = min(max(dsig / dsig_prev, 0.1), 0.999)
            stress_done = dsig * rho / (1.0 - rho) <= stress_tol_abs
        else:
            stress_done = False
        dsig_prev = dsig
        if decrease < tol * (1.0 + abs(new_value)) and stress_done:
            converged = True
            break

    state, p = _assemble_state(system, mesh, hooke, yield_set, t, u, p_prev, s)
    value = functional_of(u, p, s)

    if not converged:
        last = decreases[-1] if decreases else float("nan")
        raise ConvergenceError(
            f"no convergence in {max_iters} inner iterations (last decrease {last:.3e})",
            state=state, decrease_history=decreases,
        )

    if w_prev_nodes is not None:
        # minimality against the admissible lift u_prev + (w_k - w_{k-1})
        u_lift = state_prev.u + (w_nodes - w_prev_nodes)
        value_at_lift = _functional(system, mesh, yield_set, u_lift, p_prev, p_prev,
                                    loads, slip_arg, s_prev, s_prev)
        if value > value_at_lift + slack * (1.0 + abs(value)):
            raise AssertionError("incremental minimum above the lifted previous state")
    state.check(mesh, yield_set)
    return state, StepInfo(iterations=iterations, functional=value, decreases=tuple(decreases))


def run_evolution(
    program: LoadProgram,
    hooke: HookeTensor,
    yield_set: YieldSet,
    mesh: Mesh,
    init: FEState | None = None,
    mode: str = STRONG,
    tol: float = 1e-10,
    max_iters: int = 10_000,
    stress_tol: float = 1e-10,
) -> tuple[list[FEState], EnergyLedger]:
    """Evolve through every grid time and fill the energy ledger.

    Dissipation accumulates the exact increment costs
    sum_cells area * kappa * |p_k - p_{k-1}| (plus the boundary-slip term in
    relaxed mode); work accumulates trapezoid increments of the first energy
    balance. Step failures are re-raised tagged with the step index.
    """
    program.validate(mesh)
    system = ElasticSystem(mesh, hooke)
    slip = slip_nodes_of(mesh) if mode == RELAXED else None
    n_slip = slip.count if slip is not None else 0

    if init is None:
        init = FEState.zeros(mesh, n_slip)
        init = FEState(float(program.times[0]), init.u, init.e, init.p, init.sigma,
                       init.boundary_slip)
    init.check(mesh, yield_set)

    M = program.n_steps
    times = program.times
    kappa = yield_set.radius
    ledger = EnergyLedger(
        times=times.copy(),
        elastic=np.zeros(M + 1), dissipation=np.zeros(M + 1), work=np.zeros(M + 1),
        gap=np.zeros(M + 1), max_sigma_dev=np.zeros(M + 1),
        plastic_fraction=np.zeros(M + 1), iterations=np.zeros(M + 1, dtype=int),
    )

    states = [init]
    q0 = system.energy(init.u, init.p)
    ledger.elastic[0] = q0
    dev0, _ = dev_decompose(init.sigma)
    ledger.max_sigma_dev[0] = float(norm(dev0).max())

    ew_prev = strain_of(program.w[0], mesh, system.B)
    for k in range(1, M + 1):
        t, w_k, f_k, g_k = program.at(k)
        try:
            state, info = incremental_step(
                states[-1], t, w_k, f_k, g_k, hooke, yield_set, mesh,
                system=system, mode=mode, slip=slip, tol=tol, max_iters=max_iters,
                stress_tol=stress_tol, w_prev_nodes=program.w[k - 1],
            )
        except ConvergenceError as exc:
            exc.step_index = k
            raise
        prev = states[-1]

        dp = state.p - prev.p
        diss_inc = kappa * float((mesh.areas * norm(dp)).sum())
        if n_slip:
            diss_inc += kappa / np.sqrt(2.0) * float(
                (slip.lengths * np.abs(state.boundary_slip - prev.boundary_slip)).sum()
            )

        ew_k = strain_of(w_k, mesh, system.B)
        sig_mid = 0.5 * (state.sigma + prev.sigma)
        work_inc = integrate_tensor_dot(mesh.areas, sig_mid, ew_k - ew_prev)
        du_dw = (state.u - prev.u) - (program.w[k] - program.w[k - 1])
        f_mid = 0.5 * (f_k + program.f[k - 1])
        g_mid = 0.5 * (g_k + program.g[k - 1])
        work_inc += float(external_load_vector(mesh, f_mid, g_mid) @ du_dw.ravel())

        ledger.elastic[k] = system.energy(state.u, state.p)
        ledger.dissipation[k] = ledger.dissipation[k - 1] + diss_inc
        ledger.work[k] = ledger.work[k - 1] + work_inc
        ledger.gap[k] = ledger.elastic[k] + ledger.dissipation[k] - ledger.work[k] - q0
        dev_s, _ = dev_decompose(state.sigma)
        ledger.max_sigma_dev[k] = float(norm(dev_s).max())
        ledger.plastic_fraction[k] = float((norm(dp) > 0).mean())
        ledger.iterations[k] = info.iterations

        states.append(state)
        ew_prev = ew_k

    return states, ledger


def duality_pairing(
    sigma: np.ndarray,
    state: FEState,
    w_nodes: np.ndarray,
    mesh: Mesh,
    f_cells: np.ndarray | None = None,
    g_edges: np.ndarray | None = None,
) -> float:
    """Mass of the stress/plastic-strain duality pairing.

    Evaluates  int sigma:(Ew - e) dx - int div(sigma).(u - w) dx
    + int_Gamma_N (sigma.nu).(u - w) dH  with the module quadrature, the
    middle term being the discrete weak divergence of ``sigma`` itself.
    ``f_cells``/``g_edges`` are accepted so callers can report the
    equilibration residual alongside; they do not enter the value.
    """
    ew = strain_of(w_nodes, mesh)
    term1 = integrate_tensor_dot(mesh.areas, sigma, ew - state.e)
    gap = state.u - w_nodes
    term2 = weak_divergence_form(mesh, sigma, gap)
    term3 = boundary_integral_p1(sigma, gap, mesh.neumann_boundary)
    return term1 - term2 + term3


def pairing_mass_bound(sigma: np.ndarray, state: FEState, w_nodes: np.ndarray,
                       mesh: Mesh) -> float:
    """Upper bound  ||sigma_D||_inf * (volume |p| mass + boundary gap mass)."""
    dev_s, _ = dev_decompose(sigma)
    sup = float(norm(dev_s).max())
    mass = float((mesh.areas * norm(state.p)).sum())
    d = mesh.dirichlet_boundary
    gv = gauss_traces(w_nodes - state.u, d)
    mass += float((0.5 * d.lengths * norm(sym_outer(gv, d.normals))).sum())
    return sup * mass


@dataclass(frozen=True)
class BalanceReport:
    """Per-time energy balance gaps with a consistency-budget verdict."""

    times: np.ndarray
    gaps: np.ndarray
    max_gap: float
    budget_constant: float | None
    flagged: np.ndarray

    @property
    def measured_constant(self) -> float:
        """max |gap| / dt: the constant the step-halving test calibrates."""
        dt = float(np.max(np.diff(self.times)))
        return self.max_gap / dt


def energy_report(states, ledger: EnergyLedger, program: LoadProgram,
                  budget_constant: float | None = None) -> BalanceReport:
    """Balance gaps per time; entries exceeding budget_constant * dt are flagged."""
    if len(states) != len(program.times):
        raise ValueError("states do not cover the program grid")
    gaps = ledger.gap.copy()
    max_gap = float(np.abs(gaps).max())
    if budget_constant is None:
        flagged = np.zeros(len(gaps), dtype=bool)
    else:
        dt = float(np.max(np.diff(program.times)))
        flagged = np.abs(gaps) > budget_constant * dt
    return BalanceReport(times=program.times.copy(), gaps=gaps, max_gap=max_gap,
                         budget_constant=budget_constant, flagged=flagged)


def bd_norm_surrogate(mesh: Mesh, u: np.ndarray) -> float:
    """||u||_BD surrogate: Dirichlet trace L1 plus the strain mass."""
    eu = strain_of(u, mesh)
    total = float((mesh.areas * norm(eu)).sum())
    d = mesh.dirichlet_boundary
    uv = gauss_traces(u, d)
    total += float((0.5 * d.lengths * np.sqrt((uv * uv).sum(axis=-1))).sum())
    return total
