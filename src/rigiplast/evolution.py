"""Quasi-static elasto-plastic evolution by backward-Euler incremental minimization.

Each time step minimizes

    (1/2) int C^eps (Eu - p):(Eu - p) + kappa int |p - p_prev| - load terms

over displacements matching the boundary datum and deviatoric plastic strains.
The closed-form cellwise return map eliminates p, which leaves a convex C^1
functional of u alone (a Moreau envelope). A semismooth Newton method with
the consistent tangent of the return map minimizes it; an Armijo line search
keeps the functional decreasing, and a step whose Newton direction fails
retries from the same iterate, damped harder. ``_stop`` is the one stop
rule: a step ends "converged", "stalled" or at its "iteration cap". A step
converges once its residual is at most ``stress_tol * kappa`` or the
predictor's round-off floor; the floor is taken only when the predictor
misses ``stress_tol * kappa``, since only then can it decide, so a step that
converges at its predictor (every SHEAR step) never takes it. The stress
comes from the return map of the final iterate, so the deviatoric stress
satisfies the yield constraint exactly.

Boundary condition modes differ only in the slip set, the Dirichlet nodes
that may slip tangentially; every step runs the same solver:

* ``strong``  - no slip nodes: every Dirichlet node is pinned to the datum;
* ``relaxed`` - the face-interior Dirichlet nodes slip; the slip is a plastic
  boundary gap p = (w - u) (.) nu dissipating kappa * |tangential gap|/sqrt(2)
  per unit edge length, with the normal gap held at zero exactly. Corner
  nodes (two face normals) stay pinned. The slips join the Newton system as
  a primal-dual active set (Hintermueller, Ito & Kunisch, SIAM J. Optim. 13).

A ``LoadProgram`` is checked once, when it is made on its mesh; its evolutions
run on that mesh and share its load vectors. An evolution runs on the
``ElasticSystem`` it is given, so the evolutions of a sweep lane share one
elastic factor (``ElasticSystem.with_epsilon``). Every evolution starts from
the zero state at the first grid time. ``evolve`` is the one loop over time steps:
a generator that yields each state with the ``StepInfo`` of its step as soon
as the step is done and keeps only the previous state, so a caller that reads
each state once (the CLI ``run``, the sweep monitors) holds O(n_cells) of
fields, not O(M n_cells). Each state carries the strain ``eu`` = Eu its step
took, so nothing downstream takes it again. The energy ledger is a reader of
that stream, which only ``run`` and ``run_evolution`` (the states in a list)
attach. It uses time-trapezoid work increments, which makes the purely elastic
balance exact to solver precision and keeps the plastic balance gap one-sided
and first order in the step size. It reads each step's elastic energy off its
``StepInfo`` and takes each datum strain E w_k and mid-step load vector step by
step, through ``strain_of`` and ``external_load_vector``: no all-times array.
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
    cell_blocks,
    dirichlet_traces,
    external_load_vector,
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

    Carries the last iterate, the decrease history (one per Newton iteration),
    the residual history (the predictor's first) and ``reason``, ``_stop``'s answer.
    """

    def __init__(self, message, state=None, decrease_history=None, step_index=None,
                 residual_history=None, reason=None):
        super().__init__(message)
        self.state = state
        self.decrease_history = decrease_history or []
        self.residual_history = residual_history or []
        self.step_index = step_index
        self.reason = reason


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
        for t, w in zip(self.times, self.w):
            ew = strain_of(w, self.mesh)
            div_max = float(np.abs(ew[:, 0] + ew[:, 2]).max())
            if div_max > _DIV_TOL * scale:
                raise ValueError(f"boundary field is not divergence-free at t={t:g} "
                                 f"(max |div w| = {div_max:.3e})")

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @cached_property
    def loads(self) -> np.ndarray:
        """The load vector of every grid time, (M+1, 2 n_nodes), on first use; row k is
        ``external_load_vector(mesh, f[k], g[k])``."""
        loads = np.empty((len(self.times), 2 * self.mesh.n_nodes))
        for k, (f, g) in enumerate(zip(self.f, self.g)):
            loads[k] = external_load_vector(self.mesh, f, g)
        return _read_only(loads)  # every evolution shares it


@dataclass(frozen=True)
class FEState:
    """Discrete solution triple (u, e, p) with sigma = C^eps e at one time.

    ``boundary_slip`` holds the tangential slip per slip node in relaxed mode
    (empty in strong mode). ``eu`` is the strain Eu that the step took of
    ``u``, which ``check`` and the sweep monitors read; a state built by hand
    for other uses may leave it None. ``sigma_dev`` and ``eu_norm`` are taken
    on first use and kept, so ``check`` and the monitors share them.
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

    @cached_property
    def sigma_dev(self) -> np.ndarray:
        """The deviatoric part of ``sigma``."""
        return dev_decompose(self.sigma)[0]

    @cached_property
    def eu_norm(self) -> np.ndarray:
        """|Eu| per cell."""
        return norm(self.eu)

    def check(self, yield_set: YieldSet) -> None:
        """Assert eu = e + p, tr p = 0 and |sigma_D| <= kappa to ``_CHECK_TOL``."""
        gap = float(norm(self.eu - self.e - self.p).max())
        scale = max(1.0, float(self.eu_norm.max()))
        if gap > _CHECK_TOL * scale:
            raise AssertionError(f"additive decomposition violated by {gap:.3e}")
        tr_p = float(np.abs(self.p[:, 0] + self.p[:, 2]).max())
        if tr_p > _CHECK_TOL * scale:
            raise AssertionError(f"plastic strain has trace {tr_p:.3e}")
        over = float(norm(self.sigma_dev).max()) - yield_set.radius
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
    # a slip's diagonal entry in the stiffness on the slip set's unknowns: t^T K_aa t
    stiffness = elements.diagonal_of(cell_blocks(system.mesh, system.cmat, elements.strains))
    return SlipNodes(nodes, t, lengths, stiffness[system.free.size:], elements)


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

    def record(self, steps: Iterator[tuple[FEState, StepInfo]],
               program: LoadProgram) -> Iterator[tuple[FEState, StepInfo]]:
        """Pass on the pairs ``steps`` of ``evolve(program, ...)``, filling row k first."""
        mesh, w, f, g = program.mesh, program.w, program.f, program.g
        for k, (state, info) in enumerate(steps):
            ew = strain_of(w[k], mesh)
            self.elastic[k] = info.elastic_energy
            self.max_sigma_dev[k] = info.max_sigma_dev
            self.plastic_fraction[k] = info.plastic_fraction
            self.iterations[k] = info.iterations
            if k:
                sig_mid = 0.5 * (state.sigma + prev.sigma)
                work_inc = integrate_tensor_dot(mesh.areas, sig_mid, ew - ew_prev)
                du_dw = (state.u - prev.u) - (w[k] - w[k - 1])
                mid_load = external_load_vector(mesh, 0.5 * (f[k] + f[k - 1]),
                                                0.5 * (g[k] + g[k - 1]))
                work_inc += float(mid_load @ du_dw.ravel())
                self.dissipation[k] = self.dissipation[k - 1] + info.dissipation
                self.work[k] = self.work[k - 1] + work_inc
                self.gap[k] = self.elastic[k] + self.dissipation[k] - self.work[k] - self.elastic[0]
            yield state, info
            prev, ew_prev = state, ew

    def csv_rows(self):
        for k in range(len(self.times)):
            yield (k, self.times[k], self.elastic[k], self.dissipation[k],
                   self.work[k], self.gap[k], self.max_sigma_dev[k],
                   self.plastic_fraction[k])


@dataclass(frozen=True)
class StepInfo:
    """What the inner solver did in one step.

    ``residual`` is the final free-dof residual in the lumped dual norm and
    ``backtracks`` counts the line-search step halvings; ``iterations``
    counts a retry after a failed direction as a Newton step.
    ``max_sigma_dev`` is the largest norm of the deviatoric stress as the
    return map capped it, before the spherical part is added.
    ``dissipation`` is the step's dissipation increment, volume plus boundary
    slip, ``plastic_fraction`` the share of cells whose plastic strain moved,
    and ``elastic_energy`` the elastic energy of the step's state.
    """

    iterations: int
    decreases: tuple
    residual: float
    backtracks: int
    max_sigma_dev: float
    dissipation: float
    plastic_fraction: float
    elastic_energy: float


@dataclass
class _Iterate:
    """One displacement iterate with everything the reduced functional derives from it."""

    u: np.ndarray        # (n_nodes, 2), boundary values included
    z: np.ndarray        # slip increment s - s_prev per slip node
    eu: np.ndarray
    e_dev: np.ndarray
    e: np.ndarray        # the elastic strain eu - p
    p: np.ndarray        # return-mapped plastic strain
    sigma_dev: np.ndarray  # deviatoric stress of the return map
    sigma: np.ndarray
    dp_norm: np.ndarray  # |p - p_prev| per cell
    energy: float        # elastic energy of eu - p
    dissipation: float   # volume plus slip dissipation of the step to this iterate
    value: float         # the incremental functional
    grad: np.ndarray     # B^T(area W sigma) - F on the Newton unknowns: free dofs, then slips


# Armijo sufficient-decrease constant and the most step halvings before a
# line search gives out; multiple of eps_mach * (operand magnitudes) below
# which a residual is round-off; change of the functional, relative to
# 1 + |value|, that counts as round-off.
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 30
_ROUNDOFF = 64.0 * np.finfo(float).eps
_SLACK = 1e-12
# Levenberg-Marquardt damping of the Newton system by a multiple of the
# elastic stiffness diagonal: raised after a failed direction (retried from
# the same iterate) or a step that needed more than two halvings, lowered
# after any other step, zero below the minimum (the slip dofs keep the minimum).
_DAMPING_MIN = 1e-6
_DAMPING_GROWTH = 10.0
# The stall length and the iteration cap of ``_stop``, in Newton steps.
_MAX_STALLED = 10
_MAX_ITERS = 10_000


def _stop(residuals: list, threshold: float) -> str | None:
    """Why a step's Newton loop ends after these residuals (the first that holds), or None.

    ``residuals`` are the free-dof residuals in the lumped dual norm, the
    predictor's first, then one per Newton step.

    * ``"converged"``: the last residual is at most ``threshold`` (``stress_tol
      * kappa``, or the predictor's round-off floor where the predictor misses
      that and the floor is larger); a predictor that passes needs no Newton
      step;
    * ``"stalled"``: ``_MAX_STALLED`` Newton steps in a row, retries included,
      set no new smallest residual (past the limit load, round-off swamps it);
    * ``"iteration cap"``: ``_MAX_ITERS`` Newton steps are taken.
    """
    if residuals[-1] <= threshold:
        return "converged"
    start = len(residuals) - _MAX_STALLED  # the residuals from here on set no new minimum
    if start > 0:
        best = min(residuals[:start])
        if all(r >= best for r in residuals[start:]):
            return "stalled"
    if len(residuals) - 1 >= _MAX_ITERS:
        return "iteration cap"
    return None


@dataclass(frozen=True)
class _Step:
    """What one incremental step holds fixed, and the phases of its solver."""

    system: ElasticSystem
    yield_set: YieldSet
    slip: SlipNodes
    w_nodes: np.ndarray
    loads: np.ndarray
    p_prev: np.ndarray
    s_prev: np.ndarray

    @cached_property
    def friction(self) -> np.ndarray:
        """The friction force kappa * length / sqrt(2) of each slip node."""
        return self.yield_set.radius / np.sqrt(2.0) * self.slip.lengths

    def pin(self, u: np.ndarray, z: np.ndarray) -> np.ndarray:
        """``u``, with each slip node set to the datum moved by -(s_prev + z) along its tangent."""
        nodes = self.slip.nodes
        u[nodes] = self.w_nodes[nodes] - (self.s_prev + z)[:, None] * self.slip.tangents
        return u

    def dissipation(self, dp_norm: np.ndarray, s: np.ndarray) -> tuple[float, float]:
        """(volume, slip) dissipation of plastic increments of norm ``dp_norm``, slips ``s``."""
        kappa, areas, lengths = self.yield_set.radius, self.system.mesh.areas, self.slip.lengths
        return (kappa * float((areas * dp_norm).sum()),
                kappa / np.sqrt(2.0) * float((lengths * np.abs(s - self.s_prev)).sum()))

    def evaluate(self, u: np.ndarray, z: np.ndarray) -> _Iterate:
        """The iterate at ``u`` and slip increments ``z``, p by the return map, with the
        incremental functional: elastic energy, plus dissipation, minus the loads' work."""
        mesh, hooke = self.system.mesh, self.system.hooke
        eu = strain_of(u, mesh)
        e_dev, e_mean = dev_decompose(eu)
        p, sigma_dev = radial_return(e_dev, self.p_prev, hooke, self.yield_set)
        sigma = sigma_dev.copy()
        bulk = 2.0 * hooke.bulk_modulus / hooke.epsilon * e_mean
        sigma[:, 0] += bulk  # column by column: an (n, 1) broadcast costs several times more
        sigma[:, 2] += bulk
        dp_norm = norm(p - self.p_prev)
        e = eu - p
        energy = self.system.energy(e)
        volume, boundary = self.dissipation(dp_norm, self.s_prev + z)
        value = energy + volume + boundary - float(self.loads @ u.ravel())
        grad = self.slip.elements.from_dofs(nodal_forces(mesh, sigma) - self.loads)
        return _Iterate(u, z, eu, e_dev, e, p, sigma_dev, sigma, dp_norm, energy,
                        volume + boundary, value, grad)

    def elastic(self, p: np.ndarray, z: np.ndarray) -> _Iterate:
        """The iterate of the elastic solve with ``p`` frozen and the slips at ``z``."""
        return self.evaluate(self.system.solve(p, self.pin(self.w_nodes.copy(), z), self.loads), z)

    def slip_force(self, it: _Iterate) -> np.ndarray:
        """The force pushing each slip node along its tangent: minus dJ_smooth/ds."""
        return -it.grad[self.system.free.size:]

    def dual_norm(self, forces: np.ndarray, slip_part: np.ndarray) -> float:
        """Lumped dual norm of the free-dof forces (first in ``forces``) plus the slip-node part."""
        sq = float((forces[:self.system.free.size] ** 2 * self.system.mesh.free_inv_mass).sum())
        inv_mass = 1.0 / self.system.mesh.lumped_mass[self.slip.nodes]
        sq += float((slip_part ** 2 * inv_mass).sum())
        return np.sqrt(sq)

    def residual(self, it: _Iterate) -> float:
        """Free-dof residual; at a slip node, the distance of its force from the friction set."""
        q, friction = self.slip_force(it), self.friction
        rho = np.where(it.z != 0.0, np.abs(q - friction * np.sign(it.z)),
                       np.maximum(np.abs(q) - friction, 0.0))
        return self.dual_norm(it.grad, rho)

    def roundoff_floor(self, it: _Iterate) -> float:
        """The residual that round-off in the operands of ``it``, p at p_prev, can make."""
        magnitudes = self.system.force_magnitudes(it.eu, self.p_prev, self.loads)
        slip_magnitudes = (np.abs(self.slip.tangents)
                           * magnitudes.reshape(-1, 2)[self.slip.nodes]).sum(axis=1) + self.friction
        return _ROUNDOFF * self.dual_norm(magnitudes[self.system.free], slip_magnitudes)

    def newton_direction(self, it: _Iterate, damping: float):
        """(du, dz, stuck, slope) of the damped Newton step, or None where it fails."""
        system, slip, friction = self.system, self.slip, self.friction
        n_free = system.free.size
        q = self.slip_force(it)
        tangent = consistent_tangent(it.e_dev, self.p_prev, system.hooke, self.yield_set)
        y = it.z + q / slip.stiffness
        stuck = np.abs(y) <= friction / slip.stiffness
        # a stuck slip is held at dz = -z, at its previous value, and eliminated
        rhs = -np.concatenate([it.grad[:n_free], np.where(stuck, it.z, friction * np.sign(y) - q)])
        # a face that slides as a whole leaves the smooth part flat along
        # its rigid translation: the slips are always damped a little
        shift = np.concatenate([damping * system.stiffness_diagonal,
                                max(damping, _DAMPING_MIN) * slip.stiffness])
        try:
            sol = system.solve_tangent(tangent, rhs, slip.elements, shift,
                                       n_free + np.flatnonzero(stuck))
        except SolverError:
            return None
        dz = sol[n_free:]
        slope = float(it.grad @ sol)
        slope += float(friction @ np.where(it.z != 0.0, np.sign(it.z) * dz, np.abs(dz)))
        if not slope < 0.0:
            return None
        return slip.elements.to_dofs(sol), dz, stuck, slope

    def line_search(self, it: _Iterate, direction) -> tuple[_Iterate | None, int]:
        """(accepted iterate, halvings), or (None, halvings) when it gives out."""
        du, dz, stuck, slope = direction
        step = 1.0
        for halvings in range(_MAX_BACKTRACKS + 1):
            u = it.u + step * du.reshape(-1, 2)
            z = it.z + step * dz
            z[stuck] = (1.0 - step) * it.z[stuck]  # exactly the previous slip at a full step
            trial = self.evaluate(self.pin(u, z), z)
            change = trial.value - it.value
            if change <= _ARMIJO * step * slope or (
                    step == 1.0 and change <= _SLACK * (1.0 + abs(trial.value))):
                return trial, halvings
            step *= 0.5
        return None, _MAX_BACKTRACKS


def incremental_step(
    state_prev: FEState,
    t: float,
    w_nodes: np.ndarray,
    w_prev_nodes: np.ndarray,
    loads: np.ndarray,
    system: ElasticSystem,
    yield_set: YieldSet,
    slip: SlipNodes | None = None,
    stress_tol: float = 1e-10,
) -> tuple[FEState, StepInfo]:
    """One backward-Euler incremental minimization from ``state_prev`` on ``system``'s mesh.

    With p eliminated by the radial return the step minimizes the reduced
    functional J(u) = sum_cells area psi(Eu) - F.u, which is convex and C^1.
    From the elastic solve with p frozen at ``p_prev`` (the predictor) it
    takes semismooth Newton steps: gradient B^T(area W sigma) - F, Hessian
    from ``consistent_tangent``, and an Armijo line search on the functional
    (a full step whose change is round-off is accepted too). Where the
    tangent is singular, the direction does not descend or the line search
    gives out, the step stays at its iterate and retries with the Newton
    system damped ten times harder by a multiple of the elastic stiffness
    diagonal (Levenberg-Marquardt), for the nearly singular tangents near the
    limit load and of a face that slides as a whole; a retry adds a zero
    decrease and repeats its residual. ``w_nodes`` is the step's
    datum and ``w_prev_nodes`` that of ``state_prev``; ``loads`` is the
    step's load dof vector; ``slip`` the slip set (none by default: strong
    mode), with one previous slip per node in ``state_prev.boundary_slip``.
    The slips join the Newton system as a primal-dual active set: a stuck
    node keeps its previous slip, a sliding node carries the friction force
    kappa * length / sqrt(2). ``_stop`` ends the iteration at the threshold
    ``stress_tol * kappa``, raised to the predictor's round-off floor where
    the predictor misses it (only then is the floor taken).

    The functional is asserted non-increasing at every inner iteration, and
    the converged value is checked against the admissible lift of the
    previous state (u_prev shifted by the datum increment). A
    ``ConvergenceError`` carries the last iterate, both histories and
    ``_stop``'s reason.
    """
    if not 0.0 < stress_tol < np.inf:
        raise ValueError(f"stress_tol must be positive and finite, got {stress_tol!r}")
    slip = SlipNodes.none(system.mesh) if slip is None else slip
    p_prev, s_prev = state_prev.p, state_prev.boundary_slip
    if len(s_prev) != slip.count:
        raise ValueError(f"{len(s_prev)} previous slips for {slip.count} slip nodes")
    step = _Step(system, yield_set, slip, w_nodes, loads, p_prev, s_prev)
    it = step.elastic(p_prev, np.zeros(slip.count))
    residuals, decreases = [step.residual(it)], []
    threshold = stress_tol * yield_set.radius
    if residuals[0] > threshold:  # only then can the round-off floor decide a stop
        threshold = max(threshold, step.roundoff_floor(it))
    backtracks, damping = 0, 0.0
    while (why := _stop(residuals, threshold)) is None:
        direction = step.newton_direction(it, damping)
        new, halvings = (None, 0) if direction is None else step.line_search(it, direction)
        backtracks += halvings
        damping = (max(_DAMPING_GROWTH * damping, _DAMPING_MIN) if new is None or halvings > 2
                   else damping / _DAMPING_GROWTH if damping > _DAMPING_MIN else 0.0)
        new = it if new is None else new  # a failed direction retries from the same iterate
        decreases.append(it.value - new.value)
        if decreases[-1] < -_SLACK * (1.0 + abs(new.value)):
            raise AssertionError(f"incremental functional increased by {-decreases[-1]:.3e} "
                                 f"at inner iteration {len(decreases)}")
        it = new
        residuals.append(step.residual(it))

    state = FEState(t=t, u=it.u, e=it.e, p=it.p, sigma=it.sigma,
                    boundary_slip=s_prev + it.z, eu=it.eu)
    if why != "converged":
        last = decreases[-1] if decreases else float("nan")
        text = (f"residual stalled after {len(decreases)} inner iterations" if why == "stalled"
                else f"no convergence in {_MAX_ITERS} inner iterations")
        raise ConvergenceError(f"{text} (last decrease {last:.3e}, residual {residuals[-1]:.3e})",
                               state=state, decrease_history=decreases,
                               residual_history=residuals, reason=why)
    # minimality against the admissible lift u_prev + (w_k - w_{k-1}); it dissipates nothing
    u_lift = state_prev.u + (w_nodes - w_prev_nodes)
    at_lift = system.energy(strain_of(u_lift, system.mesh) - p_prev) - float(loads @ u_lift.ravel())
    if it.value > at_lift + _SLACK * (1.0 + abs(it.value)):
        raise AssertionError("incremental minimum above the lifted previous state")
    state.check(yield_set)
    return state, StepInfo(iterations=len(residuals), decreases=tuple(decreases),
                           residual=residuals[-1], backtracks=backtracks,
                           max_sigma_dev=float(norm(it.sigma_dev).max()),
                           dissipation=it.dissipation,
                           plastic_fraction=np.count_nonzero(it.dp_norm > 0) / it.dp_norm.size,
                           elastic_energy=it.energy)


def evolve(
    program: LoadProgram,
    system: ElasticSystem,
    yield_set: YieldSet,
    mode: str = STRONG,
    stress_tol: float = 1e-10,
) -> Iterator[tuple[FEState, StepInfo]]:
    """Yield ``(state, info)`` at every grid time of ``program``, on ``system``, from zero on.

    ``system`` is the ``ElasticSystem`` of the evolution's Hooke law on the
    program's mesh; a sweep lane makes one per epsilon with
    ``ElasticSystem.with_epsilon``, so its evolutions share one factor.
    ``info`` is the ``StepInfo`` of the step that produced ``state``, all zero
    for the zero state. ``mode`` only chooses the slip set; an unknown one, or
    a system on another mesh, raises ``ValueError`` before anything is built.
    Only the previous state is kept. A step's ``ConvergenceError`` or
    ``SolverError`` gets its ``step_index``.
    """
    if mode not in MODES:
        raise ValueError(f"unknown boundary mode {mode!r}")
    if system.mesh is not program.mesh:
        raise ValueError("system is not on the mesh the program was made on")
    slip = slip_nodes_of(system) if mode == RELAXED else SlipNodes.none(program.mesh)
    prev = replace(FEState.zeros(program.mesh, slip.count), t=float(program.times[0]))
    yield prev, StepInfo(0, (), 0.0, 0, 0.0, 0.0, 0.0, 0.0)

    for k in range(1, program.n_steps + 1):
        try:
            prev, info = incremental_step(
                prev, float(program.times[k]), program.w[k], program.w[k - 1], program.loads[k],
                system, yield_set, slip=slip, stress_tol=stress_tol,
            )
        except (ConvergenceError, SolverError) as exc:
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
    steps = ledger.record(evolve(program, ElasticSystem(mesh, hooke), yield_set, **options),
                          program)
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
    gv = dirichlet_traces(w_nodes - state.u, mesh)
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


def bd_norm_surrogate(mesh: Mesh, u: np.ndarray, eu_norm: np.ndarray) -> float:
    """||u||_BD surrogate: Dirichlet trace L1 plus the strain mass; ``eu_norm`` is |Eu|."""
    total = float((mesh.areas * eu_norm).sum())
    uv = dirichlet_traces(u, mesh)  # only its squares enter, so the sign of a zero does not
    sq = uv * uv
    total += float((0.5 * mesh.dirichlet_boundary.lengths * np.sqrt(sq[..., 0] + sq[..., 1])).sum())
    return total
