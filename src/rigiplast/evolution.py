"""Quasi-static elasto-plastic evolution by backward-Euler incremental minimization.

Each time step minimizes

    (1/2) int C^eps (Eu - p):(Eu - p) + kappa int |p - p_prev| - load terms

over displacements matching the boundary datum and deviatoric plastic strains.
The closed-form cellwise return map eliminates p, which leaves a convex C^1
functional of u alone (a Moreau envelope). A semismooth Newton method with
the consistent tangent of the return map minimizes it; an Armijo line search
keeps the functional decreasing, and one alternating step (elastic solve with
p frozen) stands in where a Newton direction fails. A step stops when the
equilibrium residual on the free dofs is at most ``stress_tol * kappa`` (or
the round-off floor of its operands) and the last decrease is below
``tol * (1 + |value|)`` at the predictor. The stress comes from the return
map of the final iterate, so the deviatoric stress satisfies the yield
constraint exactly.

Boundary condition modes differ only in the slip set, the Dirichlet nodes
that may slip tangentially; every step runs the same solver:

* ``strong``  - no slip nodes: every Dirichlet node is pinned to the datum;
* ``relaxed`` - the face-interior Dirichlet nodes slip; the slip is a plastic
  boundary gap p = (w - u) (.) nu dissipating kappa * |tangential gap|/sqrt(2)
  per unit edge length, with the normal gap held at zero exactly. Corner
  nodes (two face normals) stay pinned. The slips join the Newton system as
  a primal-dual active set (Hintermueller, Ito & Kunisch, SIAM J. Optim. 13).

A ``LoadProgram`` is checked once, when it is made on its mesh; its evolutions
run on that mesh and share its load vectors. Every evolution starts from the
zero state at the first grid time. ``evolve`` is the one loop over time steps:
a generator that yields each state with the ``StepInfo`` of its step as soon
as the step is done and keeps only the previous state, so a caller that reads
each state once (the CLI ``run``, the sweep monitors) holds O(n_cells) of
fields, not O(M n_cells). Each state carries the strain ``eu`` = Eu its step
took, so nothing downstream takes it again. The energy ledger is a reader of
that stream, which only ``run`` and ``run_evolution`` (the states in a list)
attach. It uses time-trapezoid work increments, which makes the purely elastic
balance exact to solver precision and keeps the plastic balance gap one-sided
and first order in the step size; its elastic energy is that of each state's
elastic strain ``e``, which is ``Eu - p`` bit for bit, and it takes the datum
strains E w_k in one product (``LoadProgram.datum_strains``).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .fem import (
    ElasticSystem,
    ElementMap,
    SolverError,
    boundary_integral_p1,
    external_load_vector,
    gauss_traces,
    integrate_tensor_dot,
    nodal_forces,
    strain_of,
    weak_divergence_form,
)
from .mesh import Mesh, _read_only
from .tensors import (
    HookeTensor,
    YieldSet,
    consistent_tangent,
    dev_decompose,
    norm,
    radial_return,
    sym_outer,
)

STRONG = "strong"
RELAXED = "relaxed"
MODES = (STRONG, RELAXED)

_DIV_TOL = 1e-12    # max |div w| a boundary datum may have, relative to max(1, max |w|)
_CHECK_TOL = 1e-10  # defect a state may have in FEState.check, relative to its scale


class ConvergenceError(RuntimeError):
    """The inner Newton iteration failed to converge.

    Carries the last iterate, the history of functional decreases (one per
    Newton iteration) and the residual history (the predictor's first).
    """

    def __init__(self, message, state=None, decrease_history=None, step_index=None,
                 residual_history=None):
        super().__init__(message)
        self.state = state
        self.decrease_history = decrease_history or []
        self.residual_history = residual_history or []
        self.step_index = step_index


@dataclass(frozen=True)
class LoadProgram:
    """Time-parameterized loading data on ``mesh``, sampled on the time grid.

    ``w`` is the global hard-device field (divergence-free, shape
    (M+1, n_nodes, 2)), ``f`` the body load per cell, ``g`` the traction per
    Neumann edge. All are affine in time between grid points. Making one
    raises ``ValueError`` unless the grid, the shapes and div w = 0 hold.
    """

    mesh: Mesh
    times: np.ndarray
    w: np.ndarray
    f: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        if self.times.ndim != 1 or len(self.times) < 2:
            raise ValueError("time grid needs at least two points")
        n_t = len(self.times)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("time grid must be strictly increasing")
        if self.w.shape != (n_t, self.mesh.n_nodes, 2):
            raise ValueError(f"boundary field shape {self.w.shape} does not match grid/mesh")
        if self.f.shape != (n_t, self.mesh.n_cells, 2):
            raise ValueError(f"body load shape {self.f.shape} does not match grid/mesh")
        if self.g.shape != (n_t, len(self.mesh.neumann_boundary.lengths), 2):
            raise ValueError(f"traction shape {self.g.shape} does not match grid/mesh")
        scale = max(1.0, float(np.abs(self.w).max()))
        ew = self.datum_strains()
        div_max = np.abs(ew[:, :, 0] + ew[:, :, 2]).max(axis=1)
        bad = np.flatnonzero(div_max > _DIV_TOL * scale)
        if bad.size:
            raise ValueError(
                f"boundary field is not divergence-free at t={self.times[bad[0]]:g} "
                f"(max |div w| = {div_max[bad[0]]:.3e})"
            )

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def datum_strains(self) -> np.ndarray:
        """E w_k, (M+1, n_cells, 3), by one product of ``mesh.B``; not kept. Row k equals
        ``strain_of(w[k], mesh)`` bit for bit."""
        n_t = len(self.times)
        ew = self.mesh.B @ self.w.reshape(n_t, -1).T  # (3 n_cells, n_t): every grid time at once
        return ew.T.reshape(n_t, self.mesh.n_cells, 3)

    @cached_property
    def loads(self) -> np.ndarray:
        """The load vector of every grid time, (M+1, 2 n_nodes), one product per load map on
        first use; row k equals ``external_load_vector(mesh, f[k], g[k])`` bit for bit."""
        n_t, mesh = len(self.times), self.mesh
        loads = mesh.body_load_map @ self.f.reshape(n_t, -1).T
        loads += mesh.traction_load_map @ self.g.reshape(n_t, -1).T
        return _read_only(np.ascontiguousarray(loads.T))  # every evolution shares it


@dataclass(frozen=True)
class FEState:
    """Discrete solution triple (u, e, p) with sigma = C^eps e at one time.

    ``boundary_slip`` holds the tangential slip per slip node in relaxed mode
    (empty in strong mode). ``eu`` is the strain Eu that the step took of
    ``u``, which ``check`` and the sweep monitors read; a state built by hand
    for other uses may leave it None.
    """

    t: float
    u: np.ndarray
    e: np.ndarray
    p: np.ndarray
    sigma: np.ndarray
    boundary_slip: np.ndarray
    eu: np.ndarray | None = None

    @classmethod
    def zeros(cls, mesh: Mesh, n_slip: int = 0) -> "FEState":
        return cls(0.0, np.zeros((mesh.n_nodes, 2)), np.zeros((mesh.n_cells, 3)),
                   np.zeros((mesh.n_cells, 3)), np.zeros((mesh.n_cells, 3)),
                   np.zeros(n_slip), np.zeros((mesh.n_cells, 3)))

    def check(self, yield_set: YieldSet) -> None:
        """Assert eu = e + p, tr p = 0 and |sigma_D| <= kappa to ``_CHECK_TOL``."""
        gap = float(norm(self.eu - self.e - self.p).max())
        scale = max(1.0, float(norm(self.eu).max()))
        if gap > _CHECK_TOL * scale:
            raise AssertionError(f"additive decomposition violated by {gap:.3e}")
        tr_p = float(np.abs(self.p[:, 0] + self.p[:, 2]).max())
        if tr_p > _CHECK_TOL * scale:
            raise AssertionError(f"plastic strain has trace {tr_p:.3e}")
        dev_s, _ = dev_decompose(self.sigma)
        over = float(norm(dev_s).max()) - yield_set.radius
        if over > _CHECK_TOL * yield_set.radius:
            raise AssertionError(f"deviatoric stress exceeds the yield radius by {over:.3e}")


@dataclass(frozen=True)
class SlipNodes:
    """Dirichlet nodes that may slip tangentially: ``slip_nodes_of``, or none in strong mode."""

    nodes: np.ndarray      # node index per slip dof (this and the rest but stiffness: the mesh's)
    tangents: np.ndarray   # unit tangent per slip dof
    lengths: np.ndarray    # lumped Dirichlet edge length per slip dof
    stiffness: np.ndarray  # elastic stiffness of each node along its tangent, set by C^eps
    elements: ElementMap   # Newton unknowns: the free dofs, then the slips (s moves a node by -t)

    @classmethod
    def none(cls, mesh: Mesh) -> "SlipNodes":
        return cls(np.zeros(0, dtype=int), np.zeros((0, 2)), np.zeros(0), np.zeros(0),
                   mesh.elements)

    @property
    def count(self) -> int:
        return len(self.nodes)


def slip_nodes_of(system: ElasticSystem) -> SlipNodes:
    """The relaxed mode's slip set, ``system.mesh.slip_set``, and its stiffness under ``system``."""
    nodes, t, lengths, elements = system.mesh.slip_set
    diag = system.stiffness_diagonal
    cross = system.K[[2 * nodes], [2 * nodes + 1]].toarray()[0]  # a (1, k) row, also for k = 0
    stiffness = (t[:, 0] ** 2 * diag[2 * nodes] + t[:, 1] ** 2 * diag[2 * nodes + 1]
                 + 2.0 * t.prod(axis=1) * cross)
    return SlipNodes(nodes, t, lengths, stiffness, elements)


@dataclass
class EnergyLedger:
    """Per-step energy bookkeeping for one evolution, read off its step stream."""

    times: np.ndarray
    elastic: np.ndarray        # Q(e(t_k))
    dissipation: np.ndarray    # cumulative sum of H(p_k - p_{k-1})
    work: np.ndarray           # cumulative external work (trapezoid in time)
    gap: np.ndarray            # Q + D - W - Q_0
    max_sigma_dev: np.ndarray
    plastic_fraction: np.ndarray
    iterations: np.ndarray

    CSV_HEADER = "step,time,Q,D,W,gap,max_sigma_dev,plastic_cell_fraction"

    @classmethod
    def zeros(cls, times: np.ndarray) -> "EnergyLedger":
        """An empty ledger with one row per grid time, for ``record`` to fill."""
        n_t = len(times)
        return cls(times=times.copy(), elastic=np.zeros(n_t), dissipation=np.zeros(n_t),
                   work=np.zeros(n_t), gap=np.zeros(n_t), max_sigma_dev=np.zeros(n_t),
                   plastic_fraction=np.zeros(n_t), iterations=np.zeros(n_t, dtype=int))

    def record(self, steps: Iterator[tuple[FEState, StepInfo]], program: LoadProgram,
               hooke: HookeTensor) -> Iterator[tuple[FEState, StepInfo]]:
        """Pass on the pairs ``steps`` of ``evolve(program, hooke, ...)``, filling row k first."""
        mesh, ew = program.mesh, program.datum_strains()
        cmat = hooke.matrix()  # the elastic energy of ElasticSystem.energy, bit for bit
        for k, (state, info) in enumerate(steps):
            self.elastic[k] = 0.5 * integrate_tensor_dot(mesh.areas, state.e @ cmat.T, state.e)
            self.max_sigma_dev[k] = info.max_sigma_dev
            self.plastic_fraction[k] = info.plastic_fraction
            self.iterations[k] = info.iterations
            if k:
                sig_mid = 0.5 * (state.sigma + prev.sigma)
                work_inc = integrate_tensor_dot(mesh.areas, sig_mid, ew[k] - ew[k - 1])
                du_dw = (state.u - prev.u) - (program.w[k] - program.w[k - 1])
                f_mid = 0.5 * (program.f[k] + program.f[k - 1])
                g_mid = 0.5 * (program.g[k] + program.g[k - 1])
                work_inc += float(external_load_vector(mesh, f_mid, g_mid) @ du_dw.ravel())
                self.dissipation[k] = self.dissipation[k - 1] + info.dissipation
                self.work[k] = self.work[k - 1] + work_inc
                self.gap[k] = self.elastic[k] + self.dissipation[k] - self.work[k] - self.elastic[0]
            yield state, info
            prev = state

    def csv_rows(self):
        for k in range(len(self.times)):
            yield (k, self.times[k], self.elastic[k], self.dissipation[k],
                   self.work[k], self.gap[k], self.max_sigma_dev[k],
                   self.plastic_fraction[k])


@dataclass(frozen=True)
class StepInfo:
    """What the inner solver did in one step.

    ``residual`` is the final free-dof residual in the lumped dual norm,
    ``backtracks`` counts the line-search step halvings and ``fallbacks`` the
    alternating steps taken where a Newton direction failed.
    ``max_sigma_dev`` is the largest norm of the deviatoric stress as the
    return map capped it, before the spherical part is added.
    ``dissipation`` is the step's dissipation increment, volume plus boundary
    slip, and ``plastic_fraction`` the share of cells whose plastic strain moved.
    """

    iterations: int
    decreases: tuple
    residual: float
    backtracks: int
    fallbacks: int
    max_sigma_dev: float
    dissipation: float
    plastic_fraction: float


def _functional(system, yset, slip, loads, u, eu, p, p_prev, s, s_prev) -> float:
    """The incremental functional at displacement ``u`` with strain ``eu`` = Eu and slips ``s``."""
    val = system.energy(eu - p)
    val += yset.radius * float((system.mesh.areas * norm(p - p_prev)).sum())
    val += yset.radius / np.sqrt(2.0) * float((slip.lengths * np.abs(s - s_prev)).sum())
    val -= float(loads @ u.ravel())
    return val


@dataclass
class _Iterate:
    """One displacement iterate with everything the reduced functional derives from it."""

    u: np.ndarray        # (n_nodes, 2), boundary values included
    z: np.ndarray        # slip increment s - s_prev per slip node
    eu: np.ndarray
    e_dev: np.ndarray
    p: np.ndarray        # return-mapped plastic strain
    sigma_dev: np.ndarray  # deviatoric stress of the return map
    sigma: np.ndarray
    value: float
    grad: np.ndarray     # B^T(area W sigma) - F on the Newton unknowns: free dofs, then slips
    q: np.ndarray        # force pushing each slip node along its tangent: minus dJ_smooth/ds


# Armijo sufficient-decrease constant and the most step halvings before the
# alternating fallback; multiple of eps_mach * (operand magnitudes) below
# which a residual is round-off.
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 30
_ROUNDOFF = 64.0 * np.finfo(float).eps
# Levenberg-Marquardt damping of the Newton system by a multiple of the
# elastic stiffness diagonal: raised after a failed direction or a step that
# needed more than two halvings, lowered after any other step, zero below the
# minimum (the slip dofs keep the minimum).
_DAMPING_MIN = 1e-6
_DAMPING_GROWTH = 10.0
# Iterations in a row without a new smallest residual before the step is
# given up: a load beyond the limit load drives the displacement so far that
# round-off swamps the residual, which then only wanders.
_MAX_STALLED = 10
# Most Newton steps in one time step.
_MAX_ITERS = 10_000


def incremental_step(
    state_prev: FEState,
    t: float,
    w_nodes: np.ndarray,
    loads: np.ndarray,
    system: ElasticSystem,
    yield_set: YieldSet,
    slip: SlipNodes | None = None,
    tol: float = 1e-10,
    stress_tol: float = 1e-10,
    w_prev_nodes: np.ndarray | None = None,
) -> tuple[FEState, StepInfo]:
    """One backward-Euler incremental minimization from ``state_prev`` on ``system``'s mesh.

    With p eliminated by the radial return the step minimizes the reduced
    functional J(u) = sum_cells area psi(Eu) - F.u, which is convex and C^1.
    It starts from the elastic solve with p frozen at ``p_prev`` and takes
    semismooth Newton steps: the gradient is B^T(area W sigma) - F, the
    Hessian is assembled from ``consistent_tangent``, and an Armijo line
    search on the functional accepts each step (a full step whose change is
    within round-off of the value is accepted too). Where the tangent is
    singular, the direction does not descend or the line search gives out,
    one alternating step (elastic solve with p frozen, then the return map)
    is taken instead, and later Newton systems are damped by a multiple of
    the elastic stiffness diagonal until a step succeeds again
    (Levenberg-Marquardt); this carries the solver through the nearly
    singular tangents of loads close to the limit load and of a face that
    slides as a whole. ``loads`` is the step's load dof vector. ``slip`` is
    the slip set (by default none: strong mode), with one previous slip per
    node in ``state_prev.boundary_slip``; the Hooke tensor is ``system.hooke``.
    The slips join the Newton system as a primal-dual active set: a stuck
    node keeps its previous slip, a sliding node carries the constant
    friction force kappa * length / sqrt(2).

    The iteration stops when the free-dof residual, in the lumped dual norm,
    is at most ``stress_tol * kappa`` or the round-off floor of the
    predictor's operands, whichever is larger, and the last decrease of the
    functional is below ``tol * (1 + |value|)`` at the predictor; a predictor
    whose residual passes needs no Newton step. At most ``_MAX_ITERS``
    Newton steps are taken, and ten steps in a row without a new smallest
    residual end the step too.

    The functional is asserted non-increasing at every inner iteration and the
    converged value is checked against the admissible lift of the previous
    state (u_prev shifted by the boundary-datum increment). A
    ``ConvergenceError`` carries the last iterate and the decrease and
    residual histories.
    """
    if not (0.0 < tol < np.inf and 0.0 < stress_tol < np.inf):
        raise ValueError(f"tol and stress_tol must be positive and finite, "
                         f"got {tol!r} and {stress_tol!r}")
    mesh, hooke = system.mesh, system.hooke
    if slip is None:
        slip = SlipNodes.none(mesh)
    p_prev, s_prev = state_prev.p, state_prev.boundary_slip
    if len(s_prev) != slip.count:
        raise ValueError(f"{len(s_prev)} previous slips for {slip.count} slip nodes")
    kappa = yield_set.radius
    free = system.free
    n_free = free.size
    bulk = 2.0 * hooke.bulk_modulus / hooke.epsilon
    free_stiffness = system.stiffness_diagonal[free]
    slack = 1e-12
    nodes, tangents = slip.nodes, slip.tangents
    friction = kappa / np.sqrt(2.0) * slip.lengths
    slip_inv_mass = 1.0 / mesh.lumped_mass[nodes]
    unknowns = slip.elements  # the Newton unknowns: the free dofs, then the slips

    def boundary_values(z):
        w_eff = w_nodes.copy()
        w_eff[nodes] -= (s_prev + z)[:, None] * tangents
        return w_eff

    def evaluate(u, z):
        eu = strain_of(u, mesh)
        e_dev, e_mean = dev_decompose(eu)
        p, sigma_dev = radial_return(e_dev, p_prev, hooke, yield_set)
        sigma = sigma_dev.copy()
        sigma[:, 0] += bulk * e_mean
        sigma[:, 2] += bulk * e_mean
        value = _functional(system, yield_set, slip, loads, u, eu, p, p_prev, s_prev + z, s_prev)
        grad = unknowns.from_dofs(nodal_forces(mesh, sigma) - loads)
        return _Iterate(u, z, eu, e_dev, p, sigma_dev, sigma, value, grad, -grad[n_free:])

    def dual_norm(forces, slip_part):
        """Lumped dual norm of the free-dof forces (first in ``forces``) plus the slip-node part."""
        sq = float((forces[:n_free] ** 2 * mesh.free_inv_mass).sum())
        sq += float((slip_part ** 2 * slip_inv_mass).sum())
        return np.sqrt(sq)

    def residual(it):
        """Free-dof residual; at a slip node, the distance of its force from the friction set."""
        rho = np.where(it.z != 0.0, np.abs(it.q - friction * np.sign(it.z)),
                       np.maximum(np.abs(it.q) - friction, 0.0))
        return dual_norm(it.grad, rho)

    def newton_direction(it, damping):
        """(du, dz, stuck, slope) of the damped Newton step, or None where it fails."""
        tangent = consistent_tangent(it.e_dev, p_prev, hooke, yield_set)
        y = it.z + it.q / slip.stiffness
        stuck = np.abs(y) <= friction / slip.stiffness
        # unknowns: the free dofs, then the slips; a stuck slip's row is the
        # unit row dz = -z, back to its previous value, and its column stays
        rhs = -np.concatenate([it.grad[:n_free],
                               np.where(stuck, it.z, friction * np.sign(y) - it.q)])
        # a face that slides as a whole leaves the smooth part flat along
        # its rigid translation: the slips are always damped a little
        shift = np.concatenate([damping * free_stiffness,
                                max(damping, _DAMPING_MIN) * slip.stiffness])
        try:
            sol = system.solve_tangent(tangent, rhs, unknowns, shift,
                                       n_free + np.flatnonzero(stuck))
        except SolverError:
            return None
        dz = sol[n_free:]
        slope = float(it.grad @ sol)
        slope += float(friction @ np.where(it.z != 0.0, np.sign(it.z) * dz, np.abs(dz)))
        if not slope < 0.0:
            return None
        return unknowns.to_dofs(sol), dz, stuck, slope

    def line_search(it, direction):
        """(accepted iterate, halvings), or (None, halvings) when it gives out."""
        du, dz, stuck, slope = direction
        step = 1.0
        for halvings in range(_MAX_BACKTRACKS + 1):
            u = it.u + step * du.reshape(-1, 2)
            z = it.z + step * dz
            z[stuck] = (1.0 - step) * it.z[stuck]  # exactly the previous slip at a full step
            u[nodes] = w_nodes[nodes] - (s_prev + z)[:, None] * tangents
            trial = evaluate(u, z)
            change = trial.value - it.value
            if change <= _ARMIJO * step * slope or (
                    step == 1.0 and change <= slack * (1.0 + abs(trial.value))):
                return trial, halvings
            step *= 0.5
        return None, _MAX_BACKTRACKS

    z0 = np.zeros(slip.count)
    it = evaluate(system.solve(p_prev, boundary_values(z0), loads), z0)
    res = residual(it)
    magnitudes = system.force_magnitudes(it.eu, p_prev, loads)
    slip_magnitudes = (np.abs(tangents) * magnitudes.reshape(-1, 2)[nodes]).sum(axis=1) + friction
    threshold = max(stress_tol * kappa, _ROUNDOFF * dual_norm(magnitudes[free], slip_magnitudes))
    small_decrease = tol * (1.0 + abs(it.value))
    decreases, residuals = [], [res]
    backtracks = fallbacks = 0
    damping = 0.0
    converged = res <= threshold
    iterations = 1
    stalled = 0  # consecutive iterations without a new smallest residual
    while not converged and iterations <= _MAX_ITERS and stalled < _MAX_STALLED:
        direction = newton_direction(it, damping)
        new = None
        if direction is not None:
            new, halvings = line_search(it, direction)
            backtracks += halvings
        if new is None:
            fallbacks += 1
            damping = max(_DAMPING_GROWTH * damping, _DAMPING_MIN)
            new = evaluate(system.solve(it.p, boundary_values(it.z), loads), it.z)
        elif halvings > 2:
            damping = max(_DAMPING_GROWTH * damping, _DAMPING_MIN)
        else:
            damping = damping / _DAMPING_GROWTH if damping > _DAMPING_MIN else 0.0
        decrease = it.value - new.value
        decreases.append(decrease)
        if decrease < -slack * (1.0 + abs(new.value)):
            raise AssertionError(
                f"incremental functional increased by {-decrease:.3e} "
                f"at inner iteration {iterations}"
            )
        it = new
        iterations += 1
        res = residual(it)
        residuals.append(res)
        converged = res <= threshold and decrease < small_decrease
        stalled = stalled + 1 if res >= min(residuals[:-1]) else 0

    state = FEState(t=t, u=it.u, e=it.eu - it.p, p=it.p, sigma=it.sigma,
                    boundary_slip=s_prev + it.z, eu=it.eu)
    if not converged:
        last = decreases[-1] if decreases else float("nan")
        why = (f"residual stalled after {iterations - 1} inner iterations"
               if stalled >= _MAX_STALLED else f"no convergence in {_MAX_ITERS} inner iterations")
        raise ConvergenceError(
            f"{why} (last decrease {last:.3e}, residual {res:.3e})",
            state=state, decrease_history=decreases, residual_history=residuals,
        )

    value = it.value
    if w_prev_nodes is not None:
        # minimality against the admissible lift u_prev + (w_k - w_{k-1})
        u_lift = state_prev.u + (w_nodes - w_prev_nodes)
        value_at_lift = _functional(system, yield_set, slip, loads, u_lift,
                                    strain_of(u_lift, mesh), p_prev, p_prev, s_prev, s_prev)
        if value > value_at_lift + slack * (1.0 + abs(value)):
            raise AssertionError("incremental minimum above the lifted previous state")
    state.check(yield_set)
    dp_norm = norm(it.p - p_prev)
    dissipation = kappa * float((mesh.areas * dp_norm).sum())
    dissipation += kappa / np.sqrt(2.0) * float(
        (slip.lengths * np.abs(state.boundary_slip - s_prev)).sum())
    return state, StepInfo(iterations=iterations, decreases=tuple(decreases), residual=res,
                           backtracks=backtracks, fallbacks=fallbacks,
                           max_sigma_dev=float(norm(it.sigma_dev).max()),
                           dissipation=dissipation, plastic_fraction=float((dp_norm > 0).mean()))


def evolve(
    program: LoadProgram,
    hooke: HookeTensor,
    yield_set: YieldSet,
    mode: str = STRONG,
    tol: float = 1e-10,
    stress_tol: float = 1e-10,
) -> Iterator[tuple[FEState, StepInfo]]:
    """Yield ``(state, info)`` at every grid time of ``program``, on its mesh, from zero on.

    ``info`` is the ``StepInfo`` of the step that produced ``state``, all zero
    for the zero state. ``mode`` only chooses the slip set; an unknown one
    raises ``ValueError`` before anything is built. Only the previous state is
    kept. Step failures are re-raised tagged with the step index.
    """
    if mode not in MODES:
        raise ValueError(f"unknown boundary mode {mode!r}")
    system = ElasticSystem(program.mesh, hooke)
    slip = slip_nodes_of(system) if mode == RELAXED else SlipNodes.none(program.mesh)
    prev = replace(FEState.zeros(program.mesh, slip.count), t=float(program.times[0]))
    yield prev, StepInfo(0, (), 0.0, 0, 0, 0.0, 0.0, 0.0)

    for k in range(1, program.n_steps + 1):
        try:
            prev, info = incremental_step(
                prev, float(program.times[k]), program.w[k], program.loads[k], system, yield_set,
                slip=slip, tol=tol, stress_tol=stress_tol, w_prev_nodes=program.w[k - 1],
            )
        except ConvergenceError as exc:
            exc.step_index = k
            raise
        yield prev, info


def run_evolution(program: LoadProgram, hooke: HookeTensor, yield_set: YieldSet, mesh: Mesh,
                  **options) -> tuple[list[FEState], EnergyLedger]:
    """Every state of ``evolve`` in a list, and the ledger recorded from its steps.

    ``options`` are the solver options of ``evolve``; ``mesh`` must be ``program.mesh``.
    For callers that need all states at once; a caller that reads each state
    once should iterate ``evolve`` and keep only what it needs.
    """
    if mesh is not program.mesh:
        raise ValueError("mesh is not the mesh the program was made on")
    ledger = EnergyLedger.zeros(program.times)
    steps = ledger.record(evolve(program, hooke, yield_set, **options), program, hooke)
    return [state for state, _ in steps], ledger


def duality_pairing(
    sigma: np.ndarray,
    state: FEState,
    w_nodes: np.ndarray,
    mesh: Mesh,
) -> float:
    """Mass of the stress/plastic-strain duality pairing.

    Evaluates  int sigma:(Ew - e) dx - int div(sigma).(u - w) dx
    + int_Gamma_N (sigma.nu).(u - w) dH  with the module quadrature, the
    middle term being the discrete weak divergence of ``sigma`` itself, so
    the loads do not enter.
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


def bd_norm_surrogate(mesh: Mesh, u: np.ndarray, eu: np.ndarray) -> float:
    """||u||_BD surrogate: Dirichlet trace L1 plus the strain mass; ``eu`` is Eu."""
    total = float((mesh.areas * norm(eu)).sum())
    d = mesh.dirichlet_boundary
    uv = gauss_traces(u, d)
    total += float((0.5 * d.lengths * np.sqrt((uv * uv).sum(axis=-1))).sum())
    return total
