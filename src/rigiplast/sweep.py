"""Stiffness sweep: run the same program for decreasing eps and measure limits.

For each eps the evolution runs with C^eps = C/eps on the shared mesh and time
grid. Per-(eps, time) monitors cover the a-priori estimates of the limit
passage (elastic-strain norm, integrated stress norm, deviatoric stress bound,
plastic increment mass, BD surrogate, divergence of the displacement,
hydrostatic deviation about its spatial mean) and the limit-system residuals
(flow-rule gap against the backward-difference velocity). Consecutive-eps
stress distances witness the Cauchy property of the stress trajectory.

Velocities are backward difference quotients (u_k - u_{k-1})/dt, aligned with
the backward-Euler stepping.

Each evolution is streamed: the monitors, the velocity and the distance to the
previous eps are taken step by step as ``evolve`` yields the states, each
state's strain is the one its step took, and the deviatoric stress bound and
the plastic increment mass are read off each step's ``StepInfo`` (no ledger).
The limit proxy (the smallest eps) also takes the limit-system residuals step
by step, and writes its stress and velocity-strain histories into
``_limit_fields``, views of one anonymous shared mapping made before any lane
starts.

The evolutions are independent, so the eps list runs in lanes (``_lanes``):
contiguous runs of it, one per usable CPU and at most one per consecutive
pair. Neighbouring lanes share their boundary eps, which runs in both, so
every Cauchy distance is taken inside one lane. Several lanes run each in a
child forked once the mesh and program caches and the shared mapping are
made, and the children read those caches copy-on-write; one lane runs in the
calling process. A lane sends back monitor arrays and distances only: no
field crosses a pipe, and the limit's fields are read from the mapping. Each
evolution is the same computation in any lane, so the results do not depend
on the number of lanes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .benchmarks import Benchmark
# SweepConfig is re-exported: a sweep's RunConfig under the sweep's keyword names.
from .config import RunConfig, SweepConfig
from .evolution import RELAXED, ConvergenceError, bd_norm_surrogate, evolve
from .fem import divergence_check, gauss_traces, scalar_l2, strain_of, tensor_l2

from .tensors import ddot, dev_decompose, norm

METRIC_NAMES = (
    "e_sup",             # sup_t ||e(t)||_2
    "sigma_l2_sq_int",   # int_0^T ||sigma(t)||_2^2 dt
    "sigma_dev_sup",     # sup_t sup_cells |sigma_D|
    "dp_mass_total",     # sum_k ||p_k - p_{k-1}||_mass
    "u_bd_sup",          # sup_t BD surrogate of u
    "div_u_sup",         # sup_t ||div u(t)||_2
    "hydro_dev_l2t",     # L2-in-time of ||tr sigma/n - spatial mean||_2
    "flow_gap_int",      # int_0^T sum_cells area (kappa|Ev| - sigma_D:Ev) dt
    "diss_rate_int",     # int_0^T sum_cells area kappa |Ev| dt
)

CSV_HEADER = ("epsilon,time,e_l2,sigma_l2,sigma_dev_max,dp_mass_cum,u_bd,"
              "div_u_l2,hydro_dev,flow_gap_rate,diss_rate")


@dataclass
class EpsTrajectory:
    """Per-time monitor values for one eps, plus its stress and velocity strain.

    The monitor arrays (M+1 values each) and ``u_final`` are kept for the
    whole sweep. ``sigma`` is kept until the next eps has taken its Cauchy
    distance against it; the lane then sets it to None, so a lane holds at
    most two stress histories at a time, and no stress history leaves its
    lane. ``ev`` and the three limit-system residuals are computed only on the
    limit proxy (the smallest eps) and are None on every other trajectory.
    The limit proxy's two (M+1, n_cells, 3) fields are views of the sweep's
    shared mapping (``_limit_fields``), which the limit comparison and the
    VTK output read.
    """

    epsilon: float
    e_l2: np.ndarray
    sigma_l2: np.ndarray
    sigma_dev_max: np.ndarray
    dp_mass_cum: np.ndarray
    u_bd: np.ndarray
    div_u_l2: np.ndarray
    hydro_dev: np.ndarray
    flow_gap_rate: np.ndarray     # index k is the rate on (t_{k-1}, t_k]; entry 0 is 0
    diss_rate: np.ndarray
    normal_gap: np.ndarray        # sup over Gamma_D of |(w - u) . nu|
    sigma: np.ndarray | None      # (M+1, n_cells, 3)
    ev: np.ndarray | None         # (M+1, n_cells, 3), entry 0 is 0
    equilibrium_interior: np.ndarray | None   # the residuals of ``divergence_check``
    equilibrium_flux: np.ndarray | None
    div_v_l2: np.ndarray | None   # ||div v||_2 of the velocity strain, entry 0 is 0
    u_final: np.ndarray


@dataclass
class SweepReport:
    """All trajectories plus the eps-indexed scalar reductions.

    ``benchmark`` is the one the sweep built and ran; the residuals and the
    limit-field output reuse it. ``cauchy_distances[i]`` is the L2-in-time,
    L2-in-space distance between the stresses at eps i and i+1, taken time by
    time while eps i+1 runs, in the lane that runs both; only ``limit_proxy``
    keeps its fields past the next eps, as views of one shared mapping that
    its lane wrote.
    """

    config: RunConfig
    benchmark: Benchmark
    times: np.ndarray
    trajectories: list[EpsTrajectory]
    metrics: dict[str, np.ndarray]
    cauchy_distances: np.ndarray
    mesh_signature: tuple

    @property
    def epsilons(self) -> np.ndarray:
        return np.array([t.epsilon for t in self.trajectories])

    @property
    def limit_proxy(self) -> EpsTrajectory:
        """Fields at the smallest eps in the list."""
        return self.trajectories[-1]

    def csv_rows(self):
        for tr in self.trajectories:
            for k, t in enumerate(self.times):
                yield (tr.epsilon, t, tr.e_l2[k], tr.sigma_l2[k], tr.sigma_dev_max[k],
                       tr.dp_mass_cum[k], tr.u_bd[k], tr.div_u_l2[k], tr.hydro_dev[k],
                       tr.flow_gap_rate[k], tr.diss_rate[k])

    def summary_dict(self) -> dict:
        out = {"epsilons": [tr.epsilon for tr in self.trajectories]}
        out.update({name: list(map(float, vals)) for name, vals in self.metrics.items()})
        out["cauchy_distances"] = list(map(float, self.cauchy_distances))
        return out


def _trapezoid(values: np.ndarray, times: np.ndarray) -> float:
    return float(np.trapezoid(values, times))


def _limit_fields(n_t: int, n_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Zeroed (n_t, n_cells, 3) stress and velocity-strain histories for the limit eps.

    Both are views of one anonymous shared mapping, so a lane forked after it
    is made writes them in place, and the parent reads them without their
    crossing a pipe.
    """
    import mmap  # here, not at module level: `run` would pay for the import

    shape = (2, n_t, n_cells, 3)
    fields = np.ndarray(shape, dtype=float, buffer=mmap.mmap(-1, 8 * int(np.prod(shape))))
    return fields[0], fields[1]


def _run_one_epsilon(benchmark: Benchmark, epsilon: float, config: RunConfig,
                     sigma_prev: np.ndarray | None,
                     limit: tuple[np.ndarray, np.ndarray] | None
                     ) -> tuple[EpsTrajectory, np.ndarray]:
    """Stream one evolution through the monitors; return its trajectory and stress distances.

    The distances are, per time, the L2 distance between this evolution's
    stress and ``sigma_prev`` (zero where that is None). Only the current
    state and the previous displacement are held while the evolution runs.
    ``limit``, for the limit eps only, is the (sigma, ev) pair of histories to
    write (``_limit_fields``); that evolution also takes the limit-system
    residuals step by step. Every other eps keeps a private stress history.
    """
    mesh = benchmark.mesh
    program = benchmark.program
    yset = benchmark.yield_set
    hooke = benchmark.hooke.with_epsilon(epsilon)

    times = program.times
    n_t = program.n_steps + 1
    areas = mesh.areas
    kappa = yset.radius

    e_l2 = np.zeros(n_t)
    sigma_l2 = np.zeros(n_t)
    u_bd = np.zeros(n_t)
    div_u_l2 = np.zeros(n_t)
    hydro_dev = np.zeros(n_t)
    flow_gap_rate = np.zeros(n_t)
    diss_rate = np.zeros(n_t)
    normal_gap = np.zeros(n_t)
    distance = np.zeros(n_t)
    if limit is None:
        sigma_all, ev_all = np.zeros((n_t, mesh.n_cells, 3)), None
        eq_interior = eq_flux = div_v_l2 = None
    else:
        sigma_all, ev_all = limit
        eq_interior, eq_flux, div_v_l2 = np.zeros(n_t), np.zeros(n_t), np.zeros(n_t)

    dirichlet = mesh.dirichlet_boundary
    infos = []
    for k, (st, info) in enumerate(evolve(program, hooke, yset, mode=config.boundary_mode,
                                          tol=config.tol, stress_tol=config.stress_tol)):
        infos.append(info)
        e_l2[k] = tensor_l2(areas, st.e)
        sigma_l2[k] = tensor_l2(areas, st.sigma)
        u_bd[k] = bd_norm_surrogate(mesh, st.u, st.eu)
        div_u_l2[k] = scalar_l2(areas, st.eu[:, 0] + st.eu[:, 2])
        hydro = 0.5 * (st.sigma[:, 0] + st.sigma[:, 2])
        hydro_mean = float((areas * hydro).sum() / areas.sum())
        hydro_dev[k] = scalar_l2(areas, hydro - hydro_mean)
        gv = gauss_traces(program.w[k] - st.u, dirichlet)
        normal_gap[k] = np.abs((gv * dirichlet.normals).sum(axis=-1)).max(initial=0.0)
        sigma_all[k] = st.sigma
        if sigma_prev is not None:
            distance[k] = tensor_l2(areas, sigma_prev[k] - st.sigma)
        if k > 0:
            dt = times[k] - times[k - 1]
            ev = strain_of((st.u - u_prev) / dt, mesh)
            if ev_all is not None:
                ev_all[k] = ev
            ev_norm = norm(ev)
            gap_cells = kappa * ev_norm - ddot(dev_decompose(st.sigma)[0], ev)
            worst = float(gap_cells.min())
            scale = max(kappa * float(ev_norm.max()), 1.0)
            if worst < -1e-12 * scale:
                raise AssertionError(f"flow-rule gap negative ({worst:.3e}) at step {k}")
            flow_gap_rate[k] = float((areas * gap_cells).sum())
            diss_rate[k] = float((areas * kappa * ev_norm).sum())
        if ev_all is not None:  # the limit-system residuals, on the histories' rows
            eq_interior[k], eq_flux[k] = divergence_check(sigma_all[k], mesh, None, program.g[k],
                                                          program.loads[k])
            div_v_l2[k] = scalar_l2(areas, ev_all[k, :, 0] + ev_all[k, :, 2])
        u_prev = st.u

    trajectory = EpsTrajectory(
        epsilon=epsilon, e_l2=e_l2, sigma_l2=sigma_l2, u_bd=u_bd, div_u_l2=div_u_l2,
        sigma_dev_max=np.array([info.max_sigma_dev for info in infos]),
        dp_mass_cum=np.cumsum([info.dissipation for info in infos]) / kappa,  # as the ledger sums
        hydro_dev=hydro_dev, flow_gap_rate=flow_gap_rate, diss_rate=diss_rate,
        normal_gap=normal_gap, sigma=sigma_all, ev=ev_all, equilibrium_interior=eq_interior,
        equilibrium_flux=eq_flux, div_v_l2=div_v_l2, u_final=u_prev,
    )
    return trajectory, distance


def _lanes(n_eps: int) -> list[range]:
    """The epsilon indices of each lane: one lane per usable CPU, at most ``n_eps - 1``.

    Lanes are contiguous, and neighbours share their boundary epsilon, so every
    consecutive pair whose Cauchy distance the sweep takes lies in one lane.
    Without ``fork`` or CPU affinity (not Linux) there is one lane.
    """
    usable = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    n_lanes = max(1, min(len(os.sched_getaffinity(0)) if usable else 1, n_eps - 1))
    edges = [k * (n_eps - 1) // n_lanes for k in range(n_lanes + 1)]
    return [range(edges[k], edges[k + 1] + 1) for k in range(n_lanes)]


def _build_shared(benchmark: Benchmark, mode: str) -> None:
    """Build the mesh and program caches that every evolution and its monitors read, so
    that lanes forked afterwards share them copy-on-write instead of each building them."""
    mesh = benchmark.mesh
    _ = (mesh.B_T, mesh.abs_B_T, mesh.packed_areas, mesh.elements, mesh.lumped_mass,
         mesh.free_inv_mass, mesh.dirichlet_boundary, mesh.free_dofs, mesh.neumann_boundary,
         benchmark.program.loads)
    if mode == RELAXED:
        _ = mesh.slip_set


def _run_lane(benchmark: Benchmark, config: RunConfig, lane: range,
              limit: tuple[np.ndarray, np.ndarray]) -> tuple[list[EpsTrajectory], list[float]]:
    """Run the epsilons ``lane`` indexes in order; return their trajectories and the Cauchy
    distance of each consecutive pair.

    A lane that starts on the previous lane's last epsilon runs it again only
    for its stresses and leaves its trajectory out. The sweep's last epsilon
    writes its fields into ``limit`` (``_limit_fields``); no trajectory the
    lane returns carries a field.
    """
    epsilons = config.epsilon_list
    last = len(epsilons) - 1
    times = benchmark.program.times
    trajectories, cauchy = [], []
    for i in lane:
        eps = epsilons[i]
        prev = trajectories[-1] if trajectories else None
        try:
            tr, distance = _run_one_epsilon(benchmark, eps, config,
                                            None if prev is None else prev.sigma,
                                            limit if i == last else None)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"epsilon={eps:g}, step {exc.step_index}: {exc}",
                state=exc.state, decrease_history=exc.decrease_history,
                step_index=exc.step_index, residual_history=exc.residual_history,
            ) from exc
        if prev is not None:
            cauchy.append(np.sqrt(_trapezoid(distance**2, times)))
            prev.sigma = None  # not needed past this distance
        trajectories.append(tr)
    # the next lane runs this epsilon again, or it is the limit, whose fields are in ``limit``
    trajectories[-1].sigma = trajectories[-1].ev = None
    return trajectories[1:] if lane[0] else trajectories, cauchy


def _lane_child(sender, benchmark: Benchmark, config: RunConfig, lane: range,
                limit: tuple[np.ndarray, np.ndarray]) -> None:
    """A forked lane: send ``_run_lane``'s result, or the exception it raised, to the parent."""
    try:
        result = _run_lane(benchmark, config, lane, limit)
    except Exception as exc:  # the parent raises it, in epsilon order
        result = exc
    sender.send(result)
    sender.close()


def _run_lanes(benchmark: Benchmark, config: RunConfig, lanes: list[range],
               limit: tuple[np.ndarray, np.ndarray]
               ) -> list[tuple[list[EpsTrajectory], list[float]]]:
    """``_run_lane`` of every lane, in lane order.

    One lane runs in this process. Several run each in a child forked here,
    which reads the caches built so far copy-on-write and writes ``limit``,
    a shared mapping, in place. The first failure in
    epsilon order is raised; the lanes after it are terminated, and no child
    outlives the call.
    """
    if len(lanes) == 1:
        return [_run_lane(benchmark, config, lanes[0], limit)]
    import multiprocessing  # here, not at module level: `run` would pay for the import

    context = multiprocessing.get_context("fork")
    children = []
    try:
        # fork every lane first; no thread runs here, so no child inherits a held lock
        for lane in lanes:
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(target=_lane_child,
                                    args=(sender, benchmark, config, lane, limit))
            child.start()
            sender.close()  # so that a lane that dies shows as EOF
            children.append((child, receiver))
        results = []
        for (child, receiver), lane in zip(children, lanes):
            try:
                result = receiver.recv()
            except EOFError:
                child.join()
                first, last = config.epsilon_list[lane[0]], config.epsilon_list[lane[-1]]
                raise RuntimeError(f"the sweep lane of epsilon={first:g} to {last:g} exited "
                                   f"with code {child.exitcode} before its result") from None
            if isinstance(result, Exception):
                raise result
            results.append(result)
        return results
    finally:
        for child, receiver in children:
            child.terminate()  # only a lane after a failure is still at work
            child.join()
            receiver.close()


def run_sweep(config: RunConfig) -> SweepReport:
    """One evolution per eps, in lanes (``_lanes``); metrics assembled in decreasing-eps order.

    The mesh and program caches and the limit's shared fields are made
    first, once, for every lane; the limit proxy gets its fields back as
    views of that mapping. A failure is the first in eps order, tagged with
    its eps and step.
    """
    benchmark = config.build_benchmark()
    mesh = benchmark.mesh
    times = benchmark.program.times
    _build_shared(benchmark, config.boundary_mode)
    limit = _limit_fields(len(times), mesh.n_cells)
    trajectories, cauchy = [], []
    for lane_trajectories, lane_cauchy in _run_lanes(benchmark, config,
                                                     _lanes(len(config.epsilon_list)), limit):
        trajectories += lane_trajectories
        cauchy += lane_cauchy
    trajectories[-1].sigma, trajectories[-1].ev = limit

    metrics = {name: np.zeros(len(trajectories)) for name in METRIC_NAMES}
    for i, tr in enumerate(trajectories):
        metrics["e_sup"][i] = tr.e_l2.max()
        metrics["sigma_l2_sq_int"][i] = _trapezoid(tr.sigma_l2**2, times)
        metrics["sigma_dev_sup"][i] = tr.sigma_dev_max.max()
        metrics["dp_mass_total"][i] = tr.dp_mass_cum[-1]
        metrics["u_bd_sup"][i] = tr.u_bd.max()
        metrics["div_u_sup"][i] = tr.div_u_l2.max()
        metrics["hydro_dev_l2t"][i] = np.sqrt(_trapezoid(tr.hydro_dev**2, times))
        dt = np.diff(times)
        metrics["flow_gap_int"][i] = float((dt * tr.flow_gap_rate[1:]).sum())
        metrics["diss_rate_int"][i] = float((dt * tr.diss_rate[1:]).sum())

    signature = (benchmark.id, mesh.n_side, tuple(sorted(mesh.dirichlet_faces)),
                 len(times), float(times[-1]))
    return SweepReport(config=config, benchmark=benchmark, times=times.copy(),
                       trajectories=trajectories,
                       metrics=metrics, cauchy_distances=np.array(cauchy),
                       mesh_signature=signature)


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    n_excluded: int


def fit_rate(epsilons, values, floor: float = 0.0) -> RateFit:
    """Least-squares slope of log(value) against log(eps).

    Values at or below ``floor`` (default: non-positive) have hit the
    numerical floor and are excluded; fewer than 3 survivors is an error.
    """
    epsilons = np.asarray(epsilons, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = values > floor
    n_excluded = int((~keep).sum())
    if keep.sum() < 3:
        raise ValueError(f"only {int(keep.sum())} values above the floor; need >= 3")
    x = np.log(epsilons[keep])
    y = np.log(values[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float((resid**2).sum()) / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=r2, n_excluded=n_excluded)


@dataclass(frozen=True)
class ResidualReport:
    """Per-time residuals of the rigid-plastic limit system at the smallest eps."""

    epsilon: float
    times: np.ndarray
    equilibrium_interior: np.ndarray
    equilibrium_flux: np.ndarray
    feasibility_excess: np.ndarray   # max(|sigma_D| - kappa), <= 0 when feasible
    div_v_l2: np.ndarray
    flow_gap_rate: np.ndarray
    dirichlet_normal_gap: np.ndarray

    def maxima(self) -> dict:
        return {
            "equilibrium_interior": float(self.equilibrium_interior.max()),
            "equilibrium_flux": float(self.equilibrium_flux.max()),
            "feasibility_excess": float(self.feasibility_excess.max()),
            "div_v_l2": float(self.div_v_l2.max()),
            "flow_gap_rate": float(self.flow_gap_rate.max()),
            "dirichlet_normal_gap": float(self.dirichlet_normal_gap.max()),
        }


def rigid_residuals(report: SweepReport) -> ResidualReport:
    """The limit-system residuals on the smallest-eps trajectory.

    Its lane took them step by step, next to the monitors; this packages
    them and reads none of the limit's fields.
    """
    kappa = report.benchmark.yield_set.radius
    tr = report.limit_proxy
    return ResidualReport(
        epsilon=tr.epsilon, times=report.times.copy(),
        equilibrium_interior=tr.equilibrium_interior.copy(),
        equilibrium_flux=tr.equilibrium_flux.copy(),
        feasibility_excess=tr.sigma_dev_max - kappa, div_v_l2=tr.div_v_l2.copy(),
        flow_gap_rate=tr.flow_gap_rate.copy(),
        dirichlet_normal_gap=tr.normal_gap.copy(),
    )


# A cell is on the plastic support where |Ev| exceeds _SUPPORT_THRESHOLD times
# its maximum, and only if that maximum is above the round-off _SUPPORT_FLOOR.
_SUPPORT_THRESHOLD = 1e-6
_SUPPORT_FLOOR = 1e-10


@dataclass(frozen=True)
class UniquenessReport:
    """Deviatoric-stress agreement on/off the plastic support of two limits.

    ``threshold`` echoes the relative support threshold ``compare_limits`` used.
    """

    threshold: float
    times: np.ndarray
    on_support_max: np.ndarray
    off_support_max: np.ndarray
    support_fraction: np.ndarray

    @property
    def overall_on_support(self) -> float:
        return float(self.on_support_max.max())



def compare_limits(report_a: SweepReport, report_b: SweepReport) -> UniquenessReport:
    """Compare limit-proxy deviatoric stresses where plastic flow is active.

    The support at each time is the union of cells where either run's |Ev|
    exceeds ``_SUPPORT_THRESHOLD`` times its maximum; elsewhere the same
    difference is reported separately with no smallness claim. Velocity fields
    whose maximum sits below ``_SUPPORT_FLOOR`` are round-off and contribute
    no support.
    """
    if report_a.mesh_signature != report_b.mesh_signature:
        raise ValueError("sweeps ran on different meshes or programs")
    tr_a, tr_b = report_a.limit_proxy, report_b.limit_proxy
    n_t = len(report_a.times)
    on_max = np.zeros(n_t)
    off_max = np.zeros(n_t)
    frac = np.zeros(n_t)
    for k in range(n_t):
        dev_a, _ = dev_decompose(tr_a.sigma[k])
        dev_b, _ = dev_decompose(tr_b.sigma[k])
        diff = norm(dev_a - dev_b)
        na, nb = norm(tr_a.ev[k]), norm(tr_b.ev[k])
        mask = np.zeros(len(diff), dtype=bool)
        if na.max() > _SUPPORT_FLOOR:
            mask |= na > _SUPPORT_THRESHOLD * na.max()
        if nb.max() > _SUPPORT_FLOOR:
            mask |= nb > _SUPPORT_THRESHOLD * nb.max()
        frac[k] = float(mask.mean())
        on_max[k] = float(diff[mask].max()) if mask.any() else 0.0
        off_max[k] = float(diff[~mask].max()) if (~mask).any() else 0.0
    return UniquenessReport(threshold=_SUPPORT_THRESHOLD, times=report_a.times.copy(),
                            on_support_max=on_max, off_support_max=off_max,
                            support_fraction=frac)
