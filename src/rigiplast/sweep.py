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
state's strain, |Eu| and dev sigma are the ones its step's check took, and the
deviatoric stress bound and the plastic increment mass are read off each
step's ``StepInfo`` (no ledger); an ``EpsTrajectory`` holds them and no field.
The limit proxy (the smallest eps) also writes its ``LimitFields``: its stress
and velocity-strain histories, the limit-system residuals, taken step by step,
and its final displacement, views of one anonymous shared mapping made before
any lane starts. Every other eps writes its stress history into a private
mapping of its own (``_histories``), which returns its pages when dropped.

The evolutions are independent, so the eps list runs in lanes (``_lanes``):
contiguous runs of it, one per usable CPU and at most one per consecutive
pair. Neighbouring lanes share their boundary eps, which runs in both, so
every Cauchy distance is taken inside one lane; the lane that starts on it
runs it for its stresses only and takes none of its monitors. A lane shares
one elastic factor across its evolutions: its first eps factorizes, and
``ElasticSystem.with_epsilon`` gives each later eps a system that shares the
factor wherever that gives the same bits (eps a power of 4 times the
factor's eps, as for the default list), and factorizes otherwise. The factor
lives in the lane, not in the process that forks it. Several lanes run each
in a child forked once the mesh and program caches and the shared mapping
are made, and the children read those caches copy-on-write; one lane runs
in the calling process. A lane sends back (M+1,) monitor arrays and
distances only: no field crosses a pipe.
Each evolution is the same computation in any lane, so the results do not
depend on the number of lanes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from .benchmarks import Benchmark
# SweepConfig is re-exported: a sweep's RunConfig under the sweep's keyword names.
from .config import RunConfig, SweepConfig
from .evolution import RELAXED, bd_norm_surrogate, evolve
from .fem import (ElasticSystem, dirichlet_traces, divergence_check, scalar_l2, strain_of,
                  tensor_l2)

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


@dataclass(frozen=True)
class EpsTrajectory:
    """Per-time monitor values for one eps (M+1 values each), kept for the whole sweep.

    A trajectory carries no field: ``_run_one_epsilon`` returns the stress
    history beside it, and the limit's fields are its ``LimitFields``.
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


@dataclass(frozen=True)
class LimitFields:
    """The fields and limit-system residuals of the limit proxy (the smallest eps).

    Every array is a view of one anonymous shared mapping (``shared``) that
    ``run_sweep`` makes before any lane forks; the limit's lane writes every
    row in place, and the sweep's process reads them without their crossing
    a pipe.
    """

    sigma: np.ndarray                 # (M+1, n_cells, 3)
    ev: np.ndarray                    # (M+1, n_cells, 3), entry 0 is 0
    equilibrium_interior: np.ndarray  # (M+1,), the residuals of ``divergence_check``
    equilibrium_flux: np.ndarray      # (M+1,)
    div_v_l2: np.ndarray              # (M+1,), ||div v||_2 of ``ev``
    normal_gap: np.ndarray            # (M+1,), sup over Gamma_D of |(w - u) . nu|
    u_final: np.ndarray               # (n_nodes, 2)

    @classmethod
    def shared(cls, n_t: int, n_cells: int, n_nodes: int) -> "LimitFields":
        """Zeroed fields for ``n_t`` grid times, sliced from one ``MAP_SHARED`` mapping."""
        import mmap  # here, not at module level: `run` would pay for the import

        shapes = [(n_t, n_cells, 3)] * 2 + [(n_t,)] * 4 + [(n_nodes, 2)]
        sizes = [int(np.prod(shape)) for shape in shapes]
        flat = np.ndarray(sum(sizes), buffer=mmap.mmap(-1, 8 * sum(sizes), flags=mmap.MAP_SHARED))
        views = np.split(flat, np.cumsum(sizes)[:-1])
        return cls(*(view.reshape(shape) for view, shape in zip(views, shapes)))


@dataclass
class SweepReport:
    """All trajectories plus the eps-indexed scalar reductions.

    ``benchmark`` is the one the sweep built and ran; the residuals and the
    limit-field output reuse it. ``cauchy_distances[i]`` is the L2-in-time,
    L2-in-space distance between the stresses at eps i and i+1, taken time by
    time while eps i+1 runs, in the lane that runs both. ``limit_proxy`` holds
    the fields of the smallest eps, the only ones kept past the next eps, as
    views of the shared mapping that its lane wrote.
    """

    config: RunConfig
    benchmark: Benchmark
    times: np.ndarray
    trajectories: list[EpsTrajectory]
    limit_proxy: LimitFields
    metrics: dict[str, np.ndarray]
    cauchy_distances: np.ndarray
    mesh_signature: tuple

    @property
    def epsilons(self) -> np.ndarray:
        return np.array([t.epsilon for t in self.trajectories])

    def csv_rows(self):
        """One row of Python floats per (eps, time): the epsilon, the time, then the monitors
        in the order of ``EpsTrajectory``'s fields, which is ``CSV_HEADER``'s."""
        times = self.times.tolist()
        for tr in self.trajectories:
            monitors = [getattr(tr, field.name).tolist() for field in fields(tr)[1:]]
            yield from zip(repeat(tr.epsilon), times, *monitors)

    def summary_dict(self) -> dict:
        out = {"epsilons": [tr.epsilon for tr in self.trajectories]}
        out.update({name: list(map(float, vals)) for name, vals in self.metrics.items()})
        out["cauchy_distances"] = list(map(float, self.cauchy_distances))
        return out


def _trapezoid(values: np.ndarray, times: np.ndarray) -> float:
    return float(np.trapezoid(values, times))


def _histories(n_t: int, n_cells: int) -> np.ndarray:
    """A zeroed (n_t, n_cells, 3) stress history, a view of a private anonymous mapping.

    The lane that makes it writes every row, so its pages are made in one call
    (``MAP_POPULATE``, on Linux) rather than one fault at a time. The mapping
    is unmapped when the last view is dropped, so a history never leaves its
    pages in the heap.
    """
    import mmap  # here, not at module level: `run` would pay for the import

    flags = mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0)
    return np.ndarray((n_t, n_cells, 3), dtype=float,
                      buffer=mmap.mmap(-1, 8 * n_t * n_cells * 3, flags=flags))


def _run_one_epsilon(benchmark: Benchmark, epsilon: float, config: RunConfig,
                     system: ElasticSystem, sigma_prev: np.ndarray | None,
                     limit: LimitFields | None) -> tuple[EpsTrajectory, np.ndarray, np.ndarray]:
    """Stream one evolution on ``system`` (at ``epsilon``) through the monitors; return its
    trajectory, its stress history and its stress distances.

    The distances are, per time, the L2 distance between this evolution's
    stress and ``sigma_prev`` (zero where that is None). Only the current
    state and the previous displacement are held while the evolution runs.
    ``limit`` is given for the limit eps only: that evolution writes its
    stress history, its velocity strains, the limit-system residuals, step by
    step, and its final displacement into it. Every other eps keeps a private
    stress history (``_histories``).
    """
    mesh = benchmark.mesh
    program = benchmark.program
    yset = benchmark.yield_set

    times = program.times
    n_t = program.n_steps + 1
    areas = mesh.areas
    kappa = yset.radius
    total_area = areas.sum()
    kappa_areas = areas * kappa

    e_l2 = np.zeros(n_t)
    sigma_l2 = np.zeros(n_t)
    u_bd = np.zeros(n_t)
    div_u_l2 = np.zeros(n_t)
    hydro_dev = np.zeros(n_t)
    flow_gap_rate = np.zeros(n_t)
    diss_rate = np.zeros(n_t)
    distance = np.zeros(n_t)
    sigma_all = _histories(n_t, mesh.n_cells) if limit is None else limit.sigma

    normals = mesh.dirichlet_boundary.normals
    infos = []
    for k, (st, info) in enumerate(evolve(program, system, yset, mode=config.boundary_mode,
                                          stress_tol=config.stress_tol)):
        infos.append(info)
        e_l2[k] = tensor_l2(areas, st.e)
        sigma_l2[k] = tensor_l2(areas, st.sigma)
        u_bd[k] = bd_norm_surrogate(mesh, st.u, st.eu_norm)
        div_u_l2[k] = scalar_l2(areas, st.eu[:, 0] + st.eu[:, 2])
        hydro = 0.5 * (st.sigma[:, 0] + st.sigma[:, 2])
        hydro_mean = float((areas * hydro).sum() / total_area)
        hydro_dev[k] = scalar_l2(areas, hydro - hydro_mean)
        sigma_all[k] = st.sigma
        if sigma_prev is not None:
            distance[k] = tensor_l2(areas, sigma_prev[k] - st.sigma)
        if k > 0:
            dt = times[k] - times[k - 1]
            ev = strain_of((st.u - u_prev) / dt, mesh)
            if limit is not None:
                limit.ev[k] = ev
            ev_norm = norm(ev)
            gap_cells = kappa * ev_norm - ddot(st.sigma_dev, ev)
            worst = float(gap_cells.min())
            scale = max(kappa * float(ev_norm.max()), 1.0)
            if worst < -1e-12 * scale:
                raise AssertionError(f"flow-rule gap negative ({worst:.3e}) at step {k}")
            flow_gap_rate[k] = float((areas * gap_cells).sum())
            diss_rate[k] = float((kappa_areas * ev_norm).sum())
        if limit is not None:  # the limit-system residuals, on the fields' rows
            limit.equilibrium_interior[k], limit.equilibrium_flux[k] = divergence_check(
                sigma_all[k], mesh, None, program.g[k], program.loads[k])
            limit.div_v_l2[k] = scalar_l2(areas, limit.ev[k, :, 0] + limit.ev[k, :, 2])
            gv = dirichlet_traces(program.w[k] - st.u, mesh)
            limit.normal_gap[k] = np.abs((gv * normals).sum(axis=-1)).max(initial=0.0)
        u_prev = st.u
    if limit is not None:
        limit.u_final[...] = u_prev

    trajectory = EpsTrajectory(
        epsilon=epsilon, e_l2=e_l2, sigma_l2=sigma_l2, u_bd=u_bd, div_u_l2=div_u_l2,
        sigma_dev_max=np.array([info.max_sigma_dev for info in infos]),
        dp_mass_cum=np.cumsum([info.dissipation for info in infos]) / kappa,  # as the ledger sums
        hydro_dev=hydro_dev, flow_gap_rate=flow_gap_rate, diss_rate=diss_rate,
    )
    return trajectory, sigma_all, distance


def _stress_history(benchmark: Benchmark, config: RunConfig,
                    system: ElasticSystem) -> np.ndarray:
    """The stress of every state of one evolution on ``system``, on a private mapping of its
    own: what a lane needs of the epsilon it shares with the lane before it. Its steps run
    every check of a step; its monitors, and the flow-rule gap among them, are taken by
    the lane before, on the same evolution."""
    program = benchmark.program
    sigma_all = _histories(program.n_steps + 1, benchmark.mesh.n_cells)
    for k, (st, _) in enumerate(evolve(program, system, benchmark.yield_set,
                                       mode=config.boundary_mode, stress_tol=config.stress_tol)):
        sigma_all[k] = st.sigma
    return sigma_all


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
    _ = (mesh.B_T, mesh.abs_B_T, mesh.dirichlet_B, mesh.weighted_areas, mesh.elements,
         mesh.lumped_mass, mesh.free_inv_mass, mesh.dirichlet_boundary, mesh.dirichlet_trace_map,
         mesh.free_dofs, mesh.neumann_boundary, benchmark.program.loads)
    if mode == RELAXED:
        _ = mesh.slip_set


def _run_lane(benchmark: Benchmark, config: RunConfig, lane: range,
              limit: LimitFields) -> tuple[list[EpsTrajectory], list[float]]:
    """Run the epsilons ``lane`` indexes in order; return their trajectories and the Cauchy
    distance of each consecutive pair.

    The lane's first epsilon factorizes the elastic stiffness, and every later
    one takes its system from the one before by ``ElasticSystem.with_epsilon``,
    which shares that factor whenever the bits allow (for the default
    epsilons 4^-k, always). A lane that starts on the previous lane's last
    epsilon runs it again only for its stresses (``_stress_history``) and
    takes none of its monitors. Each stress history stays in the lane, for the
    next epsilon's distances; the sweep's last epsilon writes its fields into
    ``limit``. Any exception an epsilon raises gets its ``epsilon``, and the prefix
    ``epsilon=<eps>, step <k>: `` (no step if ``evolve`` tagged none) on its message.
    """
    epsilons = config.epsilon_list
    last = len(epsilons) - 1
    times = benchmark.program.times
    trajectories, cauchy = [], []
    system = sigma_prev = None
    for i in lane:
        eps = epsilons[i]
        try:
            system = (ElasticSystem(benchmark.mesh, benchmark.hooke.with_epsilon(eps))
                      if system is None else system.with_epsilon(eps))
            if i == lane[0] and i > 0:
                sigma_prev = _stress_history(benchmark, config, system)
                continue
            tr, sigma_prev, distance = _run_one_epsilon(benchmark, eps, config, system,
                                                        sigma_prev, limit if i == last else None)
        except Exception as exc:
            step = getattr(exc, "step_index", None)
            where = f"epsilon={eps:g}" if step is None else f"epsilon={eps:g}, step {step}"
            exc.args = (f"{where}: {exc}",)
            exc.epsilon = eps
            raise
        if i > 0:
            cauchy.append(np.sqrt(_trapezoid(distance**2, times)))
        trajectories.append(tr)
    return trajectories, cauchy


def _lane_child(sender, benchmark: Benchmark, config: RunConfig, lane: range,
                limit: LimitFields) -> None:
    """A forked lane: send ``_run_lane``'s result, or the exception it raised, to the parent."""
    try:
        result = _run_lane(benchmark, config, lane, limit)
    except Exception as exc:  # the parent raises it, in epsilon order
        result = exc
    sender.send(result)
    sender.close()


def _run_lanes(benchmark: Benchmark, config: RunConfig, lanes: list[range],
               limit: LimitFields) -> list[tuple[list[EpsTrajectory], list[float]]]:
    """``_run_lane`` of every lane, in lane order.

    One lane runs in this process. Several run each in a child forked here,
    which reads the caches built so far copy-on-write and writes ``limit``,
    views of a shared mapping, in place. The first failure in epsilon order
    is raised; the lanes after it are terminated, and no child
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

    The mesh and program caches and the limit's shared ``LimitFields`` are
    made first, once, for every lane, and the report keeps that record as its
    ``limit_proxy``. A failure is the first in eps order: any exception, tagged by
    ``_run_lane`` with its eps and step, or a dead lane's ``RuntimeError``.
    """
    benchmark = config.build_benchmark()
    mesh = benchmark.mesh
    times = benchmark.program.times
    _build_shared(benchmark, config.boundary_mode)
    limit = LimitFields.shared(len(times), mesh.n_cells, mesh.n_nodes)
    trajectories, cauchy = [], []
    for lane_trajectories, lane_cauchy in _run_lanes(benchmark, config,
                                                     _lanes(len(config.epsilon_list)), limit):
        trajectories += lane_trajectories
        cauchy += lane_cauchy

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
                       trajectories=trajectories, limit_proxy=limit, metrics=metrics,
                       cauchy_distances=np.array(cauchy), mesh_signature=signature)


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

    Its lane took them step by step, next to the monitors, into the limit's
    record; this copies them and reads none of the limit's fields.
    """
    kappa = report.benchmark.yield_set.radius
    limit, tr = report.limit_proxy, report.trajectories[-1]
    return ResidualReport(
        epsilon=tr.epsilon, times=report.times.copy(),
        equilibrium_interior=limit.equilibrium_interior.copy(),
        equilibrium_flux=limit.equilibrium_flux.copy(),
        feasibility_excess=tr.sigma_dev_max - kappa, div_v_l2=limit.div_v_l2.copy(),
        flow_gap_rate=tr.flow_gap_rate.copy(),
        dirichlet_normal_gap=limit.normal_gap.copy(),
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
    limit_a, limit_b = report_a.limit_proxy, report_b.limit_proxy
    n_t = len(report_a.times)
    on_max = np.zeros(n_t)
    off_max = np.zeros(n_t)
    frac = np.zeros(n_t)
    for k in range(n_t):
        dev_a, _ = dev_decompose(limit_a.sigma[k])
        dev_b, _ = dev_decompose(limit_b.sigma[k])
        diff = norm(dev_a - dev_b)
        na, nb = norm(limit_a.ev[k]), norm(limit_b.ev[k])
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
