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

A lane runs its evolutions in lockstep: each turn of its one loop over time
steps advances every eps of the lane by one step, so the monitors, the
velocity and the distance to the previous eps are taken step by step
between live states, and no stress history is kept but the limit's. Each
state's strain, |Eu| and dev sigma are the ones its step's check took, and
the deviatoric stress bound and the plastic increment mass are read off each
step's ``StepInfo`` (no ledger). An eps's ``_Monitors`` take them into the
columns of its ``EpsTrajectory``, which holds no field. The limit proxy (the
smallest eps) also writes its ``LimitFields``: its stress and
velocity-strain histories, the limit-system residuals, taken step by step,
and its final displacement, views of one anonymous shared mapping made
before any lane starts.

The evolutions are independent, so the eps list runs in lanes (``_lanes``):
contiguous runs of it, one per usable CPU and at most one per consecutive
pair. Neighbouring lanes share their boundary eps, which runs in both, so
every Cauchy distance is taken inside one lane; in the lane that starts on
it, it is one more member of the loop, with no monitors. A lane factorizes
the elastic stiffness once: every evolution's ``ElasticSystem`` solves with
the factor of the unit-epsilon stiffness K(1) (``ElasticSystem.with_epsilon``).
The factor lives in the lane, not in the process that forks it. Several
lanes run each in a child forked once the mesh and program caches and the
shared mapping are made, and the children read those caches copy-on-write;
one lane runs in the calling process. A lane sends back (M+1,) monitor
arrays and distances only: no field crosses a pipe.
Each evolution is the same computation in any lane, so the results do not
depend on the number of lanes.

The ``SweepReport`` is the sweep's one record, and its ``summary_dict`` the
whole ``sweep`` summary: the rate fits and the maxima of the limit-system
residuals are read off the report's arrays, where the lanes wrote them.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, fields
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

    A trajectory carries no field: the limit's fields are its ``LimitFields``.
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
    ``run_sweep`` makes before any lane forks; the limit's ``_Monitors`` write
    every row in place, step by step, and the sweep's process reads them
    without their crossing a pipe. ``sigma`` is the one stress history a
    sweep keeps; ``rigid_residuals`` reads the residual rows in place.
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
    """A sweep's one record: all trajectories, the eps-indexed reductions and the limit.

    ``benchmark`` is the one the sweep built and ran; the residuals and the
    limit-field output reuse it. ``cauchy_distances[i]`` is the L2-in-time,
    L2-in-space distance between the stresses at eps i and i+1, taken time by
    time between their live states, in the lane that runs both. ``limit_proxy``
    holds the fields and residuals of the smallest eps, the only fields kept,
    as views of the shared mapping that its lane wrote.
    """

    config: RunConfig
    benchmark: Benchmark
    times: np.ndarray
    trajectories: list[EpsTrajectory]
    limit_proxy: LimitFields
    metrics: dict[str, np.ndarray]
    cauchy_distances: np.ndarray

    @property
    def epsilons(self) -> np.ndarray:
        return np.array([t.epsilon for t in self.trajectories])

    @property
    def mesh_signature(self) -> tuple:
        """What ``compare_limits`` requires two sweeps to share: the mesh, the time grid, the
        bits of the load program, the yield radius and the boundary mode (not the moduli)."""
        mesh, program = self.benchmark.mesh, self.benchmark.program
        return (mesh.n_side, tuple(sorted(mesh.dirichlet_faces)), self.times.tobytes(),
                program.w.tobytes(), program.f.tobytes(), program.g.tobytes(),
                self.benchmark.yield_set.radius, self.config.boundary_mode)

    def csv_rows(self):
        """One row of Python floats per (eps, time): the epsilon, the time, then the monitors
        in the order of ``EpsTrajectory``'s fields, which is ``CSV_HEADER``'s."""
        times = self.times.tolist()
        for tr in self.trajectories:
            monitors = [getattr(tr, field.name).tolist() for field in fields(tr)[1:]]
            yield from zip(repeat(tr.epsilon), times, *monitors)

    def summary_dict(self) -> dict:
        """The ``sweep`` command's summary body: the epsilons, the metrics, the Cauchy
        distances, the rate fits of three metrics (or why a fit cannot be made) and the
        maxima of the limit-system residuals (``rigid_residuals``)."""
        floor = 1e-13 * self.benchmark.yield_set.radius  # round-off of the yield radius
        fits = {}
        for name in ("e_sup", "div_u_sup", "flow_gap_int"):
            try:
                fits[name] = asdict(fit_rate(self.epsilons, self.metrics[name], floor=floor))
            except ValueError as exc:  # fewer than 3 values above the floor
                fits[name] = {"error": str(exc)}
        return {"epsilons": [tr.epsilon for tr in self.trajectories],
                **{name: list(map(float, vals)) for name, vals in self.metrics.items()},
                "cauchy_distances": list(map(float, self.cauchy_distances)),
                "fits": fits, "residual_maxima": rigid_residuals(self)}


def _trapezoid(values: np.ndarray, times: np.ndarray) -> float:
    return float(np.trapezoid(values, times))


class _Monitors:
    """The monitors of one eps, taken step by step (``take``) from its evolution's states
    into the columns of its ``EpsTrajectory`` (``trajectory``).

    Only the previous displacement is held between steps, for the velocity.
    ``limit`` is given for the limit eps only: its monitors also write its
    stress, its velocity strains and the limit-system residuals, step by step,
    and its final displacement, into it.
    """

    def __init__(self, benchmark: Benchmark, epsilon: float, limit: LimitFields | None):
        self.benchmark, self.epsilon, self.limit = benchmark, epsilon, limit
        n_t = len(benchmark.program.times)
        self.columns = {field.name: np.zeros(n_t) for field in fields(EpsTrajectory)[1:]}
        self.dissipation = np.zeros(n_t)
        self.total_area = benchmark.mesh.areas.sum()
        self.u_prev = None

    def take(self, k: int, st, info) -> None:
        """The monitors of state ``st``, at grid time ``k``, made by the step of ``info``."""
        mesh, program, limit, c = (self.benchmark.mesh, self.benchmark.program, self.limit,
                                   self.columns)
        areas, kappa = mesh.areas, self.benchmark.yield_set.radius
        c["e_l2"][k] = tensor_l2(areas, st.e)
        c["sigma_l2"][k] = tensor_l2(areas, st.sigma)
        c["sigma_dev_max"][k] = info.max_sigma_dev
        self.dissipation[k] = info.dissipation
        c["u_bd"][k] = bd_norm_surrogate(mesh, st.u, st.eu_norm)
        c["div_u_l2"][k] = scalar_l2(areas, st.eu[:, 0] + st.eu[:, 2])
        hydro = 0.5 * (st.sigma[:, 0] + st.sigma[:, 2])
        hydro_mean = float((areas * hydro).sum() / self.total_area)
        c["hydro_dev"][k] = scalar_l2(areas, hydro - hydro_mean)
        if k > 0:
            dt = program.times[k] - program.times[k - 1]
            ev = strain_of((st.u - self.u_prev) / dt, mesh)
            if limit is not None:
                limit.ev[k] = ev
            ev_norm = norm(ev)
            gap_cells = kappa * ev_norm - ddot(st.sigma_dev, ev)
            worst = float(gap_cells.min())
            scale = max(kappa * float(ev_norm.max()), 1.0)
            if worst < -1e-12 * scale:
                raise AssertionError(f"flow-rule gap negative ({worst:.3e}) at step {k}")
            c["flow_gap_rate"][k] = float((areas * gap_cells).sum())
            c["diss_rate"][k] = float((areas * kappa * ev_norm).sum())
        if limit is not None:  # the limit-system residuals, on the fields' rows
            limit.sigma[k] = st.sigma
            limit.equilibrium_interior[k], limit.equilibrium_flux[k] = divergence_check(
                limit.sigma[k], mesh, None, program.g[k], program.loads[k])
            limit.div_v_l2[k] = scalar_l2(areas, limit.ev[k, :, 0] + limit.ev[k, :, 2])
            gv = dirichlet_traces(program.w[k] - st.u, mesh)
            normals = mesh.dirichlet_boundary.normals
            limit.normal_gap[k] = np.abs((gv * normals).sum(axis=-1)).max(initial=0.0)
            limit.u_final[...] = st.u
        self.u_prev = st.u

    def trajectory(self) -> EpsTrajectory:
        # the plastic increment mass, summed as the ledger sums it
        kappa = self.benchmark.yield_set.radius
        return EpsTrajectory(self.epsilon, **dict(self.columns,
                                                  dp_mass_cum=np.cumsum(self.dissipation) / kappa))


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
    """Run the epsilons ``lane`` indexes in lockstep; return their trajectories and the Cauchy
    distance of each consecutive pair.

    Each turn of the loop advances every epsilon by one step, in epsilon
    order, and takes its monitors and its distance to the epsilon before. All
    of them solve with the lane's one factor, of K(1). A lane that starts on
    the previous lane's last epsilon steps it for its stresses only and takes
    none of its monitors; the sweep's last epsilon writes its fields into
    ``limit``. An epsilon that fails is dropped with every later one, the
    earlier ones step on, and the failure of the earliest epsilon that failed
    is raised, tagged by ``_tagged``, so that a failure is the same in any lane.
    """
    epsilons = config.epsilon_list
    program = benchmark.program
    areas = benchmark.mesh.areas
    unit = ElasticSystem(benchmark.mesh, benchmark.hooke)
    members = [(epsilons[i],
                evolve(program, unit.with_epsilon(epsilons[i]), benchmark.yield_set,
                       mode=config.boundary_mode, stress_tol=config.stress_tol),
                None if i == lane[0] > 0 else
                _Monitors(benchmark, epsilons[i], limit if i == len(epsilons) - 1 else None))
               for i in lane]
    distances = np.zeros((len(lane) - 1, len(program.times)))
    failure = None
    for k in range(len(program.times)):
        for j, (eps, steps, monitors) in enumerate(members):
            try:
                st, info = next(steps)
                if monitors is not None:
                    monitors.take(k, st, info)
            except Exception as exc:  # from now on only an earlier epsilon can fail
                failure = _tagged(exc, eps)
                del members[j:]
                break
            if j > 0:
                distances[j - 1, k] = tensor_l2(areas, sigma_prev - st.sigma)
            sigma_prev = st.sigma
    if failure is not None:
        raise failure
    return ([monitors.trajectory() for _, _, monitors in members if monitors is not None],
            [np.sqrt(_trapezoid(distance**2, program.times)) for distance in distances])


def _tagged(exc: Exception, epsilon: float) -> Exception:
    """``exc`` with its ``epsilon`` set and ``epsilon=<eps>, step <k>: `` (no step if
    ``evolve`` tagged none) in front of its message.

    A forked lane sends its failure by pickle, which rebuilds an exception from
    its message alone. An exception that cannot be rebuilt so becomes a
    ``RuntimeError`` with the same tag, ``epsilon`` and ``step_index``, whose
    message keeps the original kind and message.
    """
    import pickle  # here, not at module level: only a failure needs it

    step = getattr(exc, "step_index", None)
    where = f"epsilon={epsilon:g}" if step is None else f"epsilon={epsilon:g}, step {step}"
    message = str(exc)
    exc.args = (f"{where}: {message}",)
    exc.epsilon = epsilon
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = RuntimeError(f"{where}: {type(exc).__name__}: {message}")
        exc.epsilon, exc.step_index = epsilon, step
    return exc


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
    ``limit_proxy``. A failure is the first in eps order, whatever the lane
    count: any exception, tagged by ``_tagged`` with its eps and step, or a dead
    lane's ``RuntimeError``.
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

    return SweepReport(config=config, benchmark=benchmark, times=times.copy(),
                       trajectories=trajectories, limit_proxy=limit, metrics=metrics,
                       cauchy_distances=np.array(cauchy))


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


def rigid_residuals(report: SweepReport) -> dict[str, float]:
    """The maxima over the grid times of the limit-system residuals at the smallest eps.

    Its lane took them step by step into the limit's record, whose rows this
    reads in place; the flow-rule gap and the feasibility excess |sigma_D| - kappa
    (<= 0 when feasible) come from its trajectory. No field is read.
    """
    limit, tr = report.limit_proxy, report.trajectories[-1]
    rows = {"equilibrium_interior": limit.equilibrium_interior,
            "equilibrium_flux": limit.equilibrium_flux,
            "feasibility_excess": tr.sigma_dev_max - report.benchmark.yield_set.radius,
            "div_v_l2": limit.div_v_l2, "flow_gap_rate": tr.flow_gap_rate,
            "dirichlet_normal_gap": limit.normal_gap}
    return {name: float(row.max()) for name, row in rows.items()}


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

    Sweeps of different problems (``mesh_signature``) raise ``ValueError``;
    their elastic moduli may differ.

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
