"""Sweep harness: rate fits, monitors, limit residuals, limit comparison, lanes."""

import dataclasses
import json
import mmap
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from oracles import cauchy_distances_all_pairs

from rigiplast import cli, evolution, sweep
from rigiplast.config import DEFAULT_EPSILONS, ConfigError, RunConfig, parse_config
from rigiplast.evolution import ConvergenceError, run_evolution
from rigiplast.fem import divergence_check, scalar_l2
from rigiplast.sweep import (
    EpsTrajectory,
    LimitFields,
    SweepConfig,
    compare_limits,
    fit_rate,
    rigid_residuals,
    run_sweep,
)

EPS4 = tuple(2.0 ** (-2 * k) for k in range(4))
FLOOR = 1e-9  # round-off floor for monitors, units of the yield radius


@pytest.fixture(scope="module")
def shear_report():
    return run_sweep(SweepConfig(epsilons=EPS4, benchmark="SHEAR",
                                 mesh_n=4, n_steps=16))


class TestFitRate:
    def test_linear_synthetic(self):
        eps = np.array([1.0, 0.25, 0.0625, 0.015625])
        fit = fit_rate(eps, 3.7 * eps)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_excluded == 0

    def test_sqrt_synthetic(self):
        eps = np.array([1.0, 0.25, 0.0625, 0.015625])
        fit = fit_rate(eps, 2.0 * np.sqrt(eps))
        assert fit.slope == pytest.approx(0.5, abs=1e-12)

    def test_floor_exclusion(self):
        eps = np.array([1.0, 0.25, 0.0625, 0.015625, 0.00390625])
        vals = np.array([1.0, 0.25, 0.0625, 0.0, -1.0])
        fit = fit_rate(eps, vals)
        assert fit.n_excluded == 2
        assert fit.slope == pytest.approx(1.0, abs=1e-12)

    def test_too_few_survivors(self):
        with pytest.raises(ValueError, match="need >= 3"):
            fit_rate([1.0, 0.5, 0.25], [1.0, 0.0, 0.0])


class TestSweepConfig:
    def test_rejects_increasing_list(self):
        with pytest.raises(ValueError, match="decreasing"):
            SweepConfig(epsilons=(0.5, 1.0))

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="positive"):
            SweepConfig(epsilons=(1.0, 0.0))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            SweepConfig(mode="slippery")

    @pytest.mark.parametrize("name, value", [("stress_tol", -1.0)])
    def test_rejects_non_positive_solver_tolerances(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be positive"):
            SweepConfig(**{name: value})

    @pytest.mark.parametrize("settings, message", [
        ({"mesh_n": 0}, "mesh_n"), ({"n_steps": 0}, "time_steps"), ({"benchmark": "TWIST"}, "benchmark"),
        # counts are integers: 2.5 built an n=2 mesh and True an n=1 mesh
        ({"mesh_n": 2.5}, "mesh_n must be an integer"), ({"mesh_n": True}, "mesh_n must be an integer"),
        ({"n_steps": 2.5}, "time_steps must be an integer"),
    ])
    def test_rejects_invalid_settings_when_made(self, settings, message):
        with pytest.raises(ConfigError, match=message):
            SweepConfig(**settings)

    def test_is_the_run_config_of_the_same_file_keys(self):
        cfg = SweepConfig(epsilons=(1.0, 0.25), n_steps=8, mode="relaxed", benchmark="TRACTION")
        assert isinstance(cfg, RunConfig)
        assert cfg == parse_config("epsilon_list = 1.0, 0.25\ntime_steps = 8\n"
                                   "boundary_mode = relaxed\nbenchmark = TRACTION\n")


class TestRunSweep:
    def test_trivial_loads_all_zero(self):
        rep = run_sweep(SweepConfig(epsilons=(1.0,), benchmark="SHEAR",
                                    mesh_n=3, n_steps=4, load_scale=0.0))
        for name, vals in rep.metrics.items():
            assert np.abs(vals).max() < 1e-12, name

    def test_rigid_motion_strain_metrics_zero(self):
        rep = run_sweep(SweepConfig(epsilons=(1.0,), benchmark="RIGID41",
                                    mesh_n=3, n_steps=4))
        for name in ("e_sup", "sigma_l2_sq_int", "sigma_dev_sup",
                     "dp_mass_total", "div_u_sup", "hydro_dev_l2t",
                     "flow_gap_int", "diss_rate_int"):
            assert np.abs(rep.metrics[name]).max() < 1e-12, name
        assert rep.metrics["u_bd_sup"].max() > 0  # rigid motion moves the body

    def test_shear_e_metric_rate(self, shear_report):
        rep = shear_report
        fit = fit_rate(rep.epsilons, rep.metrics["e_sup"])
        assert fit.slope >= 0.45
        assert fit.r_squared >= 0.98

    def test_e_metric_monotone(self, shear_report):
        vals = shear_report.metrics["e_sup"]
        assert np.all(vals[1:] <= vals[:-1] * 1.05 + FLOOR)

    def test_div_u_bounded_by_e(self, shear_report):
        rep = shear_report
        for tr in rep.trajectories:
            assert np.all(tr.div_u_l2 <= np.sqrt(2) * tr.e_l2 + 1e-12)

    def test_stress_bound_exact(self, shear_report):
        assert np.all(shear_report.metrics["sigma_dev_sup"] <= 1.0)

    def test_flow_gap_monotone_with_floor(self, shear_report):
        gaps = shear_report.metrics["flow_gap_int"]
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a * 1.05 + FLOOR

    def test_bounded_monitors_one_sided(self, shear_report):
        rep = shear_report
        for name in ("sigma_l2_sq_int", "dp_mass_total", "hydro_dev_l2t"):
            vals = rep.metrics[name]
            assert vals.max() <= 2.0 * max(vals[0], FLOOR), name

    def test_csv_rows_shape(self, shear_report):
        rows = list(shear_report.csv_rows())
        assert len(rows) == len(EPS4) * 17
        assert len(rows[0]) == 11

    def test_a_trajectory_holds_its_monitors_only(self, shear_report):
        """A trajectory is the epsilon and the nine monitors of the CSV, in its column order;
        the limit's fields live in ``SweepReport.limit_proxy`` alone."""
        names = [field.name for field in dataclasses.fields(EpsTrajectory)]
        assert names == [name for name in sweep.CSV_HEADER.split(",") if name != "time"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            shear_report.trajectories[-1].e_l2 = None

    def test_cauchy_distances_streamed(self, shear_report):
        """The streamed distances equal the all-pairs formula; only the limit proxy keeps fields."""
        rep = shear_report
        cfg, bench = rep.config, rep.benchmark
        sigmas = []
        for eps, tr in zip(cfg.epsilon_list, rep.trajectories):
            states, ledger = run_evolution(bench.program, bench.hooke.with_epsilon(eps),
                                           bench.yield_set, bench.mesh, mode=cfg.boundary_mode,
                                           stress_tol=cfg.stress_tol)
            sigmas.append(np.stack([st.sigma for st in states]))
            # the sweep's columns come from the steps, bit for bit the ledger's
            assert np.array_equal(tr.sigma_dev_max, ledger.max_sigma_dev)
            assert np.array_equal(tr.dp_mass_cum, ledger.dissipation / bench.yield_set.radius)
        want = cauchy_distances_all_pairs(sigmas, bench.mesh.areas, rep.times)
        assert want.shape == (len(EPS4) - 1,) and np.all(want > 0)
        np.testing.assert_allclose(rep.cauchy_distances, want, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(rep.limit_proxy.sigma, sigmas[-1])
        assert rep.limit_proxy.ev.shape == sigmas[-1].shape

    def test_evolution_errors_tagged_with_epsilon(self):
        from rigiplast.evolution import ConvergenceError

        # 1.5 x the TRACTION load is beyond the limit load: the step has no minimizer
        cfg = SweepConfig(epsilons=(0.125,), benchmark="TRACTION", mesh_n=4,
                          n_steps=4, load_scale=1.5)
        with pytest.raises(ConvergenceError, match="epsilon=0.125"):
            run_sweep(cfg)


class TestRigidResiduals:
    def test_trivial_all_zero(self):
        rep = run_sweep(SweepConfig(epsilons=(1.0, 0.25, 0.0625),
                                    benchmark="RIGID41", mesh_n=3, n_steps=4))
        rr = rigid_residuals(rep)
        for key, val in rr.maxima().items():
            if key == "feasibility_excess":
                assert val <= 0.0
            else:
                assert abs(val) < 1e-10, key

    def test_shear_limit_residuals(self, shear_report):
        rr = rigid_residuals(shear_report)
        assert rr.maxima()["feasibility_excess"] <= 0.0
        assert rr.maxima()["div_v_l2"] < 1e-10
        assert rr.maxima()["dirichlet_normal_gap"] < 1e-12
        assert np.all(rr.flow_gap_rate >= -1e-12)

    def test_the_normal_gap_and_final_displacement_are_the_limits_only(self):
        """Only the limit proxy takes its Dirichlet normal gap and keeps its final
        displacement; its residual maxima are bit for bit those of a sweep that took the
        normal gap on every eps."""
        rep = run_sweep(SweepConfig(epsilons=EPS4, benchmark="TRACTION", mesh_n=4, n_steps=8,
                                    mode="relaxed"))
        assert rep.limit_proxy.normal_gap.shape == rep.times.shape
        assert rep.limit_proxy.u_final.shape == (rep.benchmark.mesh.n_nodes, 2)
        assert rigid_residuals(rep).maxima() == {
            "equilibrium_interior": 1.5837169285457597e-11, "equilibrium_flux": 0.606028250886247,
            "feasibility_excess": -7.771561172376096e-16, "div_v_l2": 0.014544315161634045,
            "flow_gap_rate": 0.006689963114924883, "dirichlet_normal_gap": 0.0}


class TestCompareLimits:
    def test_identical_configs_zero(self):
        cfg = SweepConfig(epsilons=EPS4[:3], benchmark="SHEAR", mesh_n=3, n_steps=8)
        a, b = run_sweep(cfg), run_sweep(cfg)
        rep = compare_limits(a, b)
        assert rep.overall_on_support == 0.0
        assert rep.off_support_max.max() == 0.0

    def test_rigid41_support_empty(self):
        cfg = SweepConfig(epsilons=EPS4[:3], benchmark="RIGID41", mesh_n=3,
                          n_steps=4)
        a, b = run_sweep(cfg), run_sweep(cfg)
        rep = compare_limits(a, b)
        assert np.all(rep.support_fraction == 0.0)
        assert rep.overall_on_support == 0.0

    def test_modulus_independence_on_support(self):
        base = SweepConfig(epsilons=EPS4, benchmark="SHEAR", mesh_n=3, n_steps=8)
        doubled = SweepConfig(epsilons=EPS4, benchmark="SHEAR", mesh_n=3,
                              n_steps=8, shear_modulus=2.0)
        rep = compare_limits(run_sweep(base), run_sweep(doubled))
        assert rep.overall_on_support < 1e-8

    def test_mismatched_meshes_rejected(self):
        a = run_sweep(SweepConfig(epsilons=EPS4[:3], benchmark="SHEAR",
                                  mesh_n=3, n_steps=4))
        b = run_sweep(SweepConfig(epsilons=EPS4[:3], benchmark="SHEAR",
                                  mesh_n=4, n_steps=4))
        with pytest.raises(ValueError, match="different meshes"):
            compare_limits(a, b)


EPS5 = tuple(2.0 ** (-2 * k) for k in range(5))
LANE_CASES = {
    "SHEAR-strong": dict(benchmark="SHEAR", mesh_n=4, n_steps=8),
    "SHEAR-relaxed": dict(benchmark="SHEAR", mesh_n=4, n_steps=8, mode="relaxed"),
    "TRACTION-strong": dict(benchmark="TRACTION", mesh_n=4, n_steps=8),
}


def _pin_cpus(monkeypatch, n: int) -> None:
    """Let the sweep see ``n`` usable CPUs: it runs min(n, epsilons - 1) lanes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _mapping_of(a):
    """The object at the end of an array's ``.base`` chain."""
    while isinstance(a, np.ndarray):
        a = a.base
    return a


def _assert_same_sweep(a, b):
    assert len(a.trajectories) == len(b.trajectories)
    for tr_a, tr_b in zip(a.trajectories, b.trajectories):
        for field in dataclasses.fields(EpsTrajectory):
            assert np.array_equal(getattr(tr_a, field.name), getattr(tr_b, field.name)), field.name
    for field in dataclasses.fields(LimitFields):
        va, vb = getattr(a.limit_proxy, field.name), getattr(b.limit_proxy, field.name)
        assert np.array_equal(va, vb), field.name
    assert a.metrics.keys() == b.metrics.keys()
    for name in a.metrics:
        assert np.array_equal(a.metrics[name], b.metrics[name]), name
    assert np.array_equal(a.cauchy_distances, b.cauchy_distances)
    ra, rb = rigid_residuals(a), rigid_residuals(b)
    for field in dataclasses.fields(ra):
        assert np.array_equal(getattr(ra, field.name), getattr(rb, field.name)), field.name


class TestLanes:
    @pytest.mark.parametrize("cpus, n_eps, want", [
        (2, 7, [[0, 1, 2, 3], [3, 4, 5, 6]]),
        (1, 7, [list(range(7))]),
        (3, 5, [[0, 1], [1, 2], [2, 3, 4]]),
        (2, 2, [[0, 1]]),
        (2, 1, [[0]]),
        (8, 3, [[0, 1], [1, 2]]),
    ])
    def test_split(self, monkeypatch, cpus, n_eps, want):
        """One lane per usable CPU, at most one per consecutive pair; neighbours share an eps."""
        _pin_cpus(monkeypatch, cpus)
        assert [list(lane) for lane in sweep._lanes(n_eps)] == want

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("case", sorted(LANE_CASES))
    def test_lanes_do_not_change_the_answer(self, monkeypatch, case, cpus):
        config = SweepConfig(epsilons=EPS5, **LANE_CASES[case])
        _pin_cpus(monkeypatch, 1)
        serial = run_sweep(config)
        runs = []
        one_epsilon = sweep._run_one_epsilon

        def counted(*args, **kwargs):
            runs.append(args[1])
            return one_epsilon(*args, **kwargs)

        monkeypatch.setattr(sweep, "_run_one_epsilon", counted)
        _pin_cpus(monkeypatch, cpus)
        _assert_same_sweep(run_sweep(config), serial)
        assert runs == []  # every lane ran in a forked child
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_no_field_crosses_the_pipe(self, monkeypatch, tmp_path, cpus):
        """A lane sends back (M+1,) monitor arrays and distances only; the limit's seven
        arrays are views of one shared mapping, which its lane wrote in place."""
        config = SweepConfig(epsilons=EPS5, **LANE_CASES["SHEAR-strong"])
        run_lane = sweep._run_lane

        def recorded(benchmark, config, lane, limit):
            result = run_lane(benchmark, config, lane, limit)
            shapes = [[list(v.shape) for v in vars(tr).values() if isinstance(v, np.ndarray)]
                      for tr in result[0]]
            (tmp_path / f"lane{lane[0]}.json").write_text(json.dumps(shapes), encoding="utf-8")
            return result

        monkeypatch.setattr(sweep, "_run_lane", recorded)
        _pin_cpus(monkeypatch, cpus)
        report = run_sweep(config)
        sent = [json.loads(path.read_text(encoding="utf-8"))
                for path in sorted(tmp_path.glob("lane*.json"))]
        assert len(sent) == cpus
        assert sum(len(lane) for lane in sent) == len(EPS5)  # every trajectory, once
        for lane in sent:
            for shapes in lane:
                assert shapes == [[len(report.times)]] * 9
        limit = report.limit_proxy
        assert limit.sigma.shape == limit.ev.shape == (len(report.times),
                                                       report.benchmark.mesh.n_cells, 3)
        mappings = {id(_mapping_of(getattr(limit, field.name)))
                    for field in dataclasses.fields(LimitFields)}
        assert len(mappings) == 1 and isinstance(_mapping_of(limit.sigma), mmap.mmap)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_lane_residuals_are_those_of_the_limit_fields(self, monkeypatch, cpus):
        """The residuals the limit's lane took step by step equal, bit for bit, the checks
        on the limit proxy's fields that the parent read back."""
        _pin_cpus(monkeypatch, cpus)
        report = run_sweep(SweepConfig(epsilons=EPS5, **LANE_CASES["TRACTION-strong"]))
        program, mesh, limit = report.benchmark.program, report.benchmark.mesh, report.limit_proxy
        checks = np.array([divergence_check(limit.sigma[k], mesh, None, program.g[k],
                                            program.loads[k])
                           for k in range(len(report.times))])
        div_v = np.array([scalar_l2(mesh.areas, ev[:, 0] + ev[:, 2]) for ev in limit.ev])
        residuals = rigid_residuals(report)
        assert np.array_equal(residuals.equilibrium_interior, checks[:, 0])
        assert np.array_equal(residuals.equilibrium_flux, checks[:, 1])
        assert np.array_equal(residuals.div_v_l2, div_v)
        assert checks[:, 1].max() > 0  # TRACTION's tractions load the flux term

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_cli_artifacts_byte_equal(self, monkeypatch, tmp_path, cpus):
        monkeypatch.delenv("TOOL_OUT", raising=False)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("benchmark = SHEAR\nmesh_n = 4\ntime_steps = 8\n"
                       "epsilon_list = 1.0, 0.25, 0.0625, 0.015625\n", encoding="utf-8")
        for n in (1, cpus):
            _pin_cpus(monkeypatch, n)
            assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / str(n))]) == 0
        for name in ("metrics.csv", "summary.json", "fields_limit.vtk"):
            want = (tmp_path / "1" / name).read_bytes()
            assert (tmp_path / str(cpus) / name).read_bytes() == want, name

    def test_a_one_lane_sweep_keeps_no_history_on_the_heap(self, monkeypatch):
        """Each stress history is a view of an anonymous mapping, which returns its pages
        when the history is dropped; none is a numpy block of the heap."""
        _pin_cpus(monkeypatch, 1)
        snapshots = []
        evolve = sweep.evolve

        def watched(*args, **kwargs):
            for k, step in enumerate(evolve(*args, **kwargs)):
                if k == 0:  # the evolution's histories are made by now
                    snapshots.append(tracemalloc.take_snapshot())
                yield step

        monkeypatch.setattr(sweep, "evolve", watched)
        tracemalloc.start()
        try:
            report = run_sweep(SweepConfig(epsilons=EPS4[:3], **LANE_CASES["SHEAR-strong"]))
        finally:
            tracemalloc.stop()
        history = 8 * len(report.times) * report.benchmark.mesh.n_cells * 3
        blocks = [trace.size for snapshot in snapshots for trace in snapshot.traces
                  if trace.domain == np.lib.tracemalloc_domain]
        assert len(snapshots) == 3 and blocks  # numpy's blocks are traced
        assert history not in blocks

    @pytest.mark.parametrize("mode", ["strong", "relaxed"])
    def test_caches_are_built_before_the_lanes(self, mode):
        """A lane builds no mesh or program cache of its own: forked lanes share the parent's."""
        config = SweepConfig(epsilons=EPS5[:2], benchmark="TRACTION", mesh_n=4, n_steps=4,
                             mode=mode)
        bench = config.build_benchmark()
        sweep._build_shared(bench, mode)
        built = set(vars(bench.mesh)), set(vars(bench.program))
        sweep._run_lane(bench, config, range(2),
                        LimitFields.shared(5, bench.mesh.n_cells, bench.mesh.n_nodes))
        assert (set(vars(bench.mesh)), set(vars(bench.program))) == built

    @pytest.mark.parametrize("epsilons, cpus, want", [
        (DEFAULT_EPSILONS, 1, 1), (DEFAULT_EPSILONS, 2, 2),
        ((1.0, 0.5, 0.25, 0.125), 1, 4), ((1.0, 0.3, 0.09), 1, 3), ((1.0, 0.3, 0.075), 1, 2),
    ], ids=["default-1-lane", "default-2-lanes", "ratio-0.5", "ratio-0.3", "ratio-0.3-then-4"])
    def test_a_lane_factorizes_once_per_power_of_4(self, monkeypatch, epsilons, cpus, want):
        """A lane factorizes the elastic stiffness at its first epsilon, and again only where
        an epsilon is not a power of 4 times the last factorized one: once per lane for the
        default epsilons 4^-k (1 factorization on one lane, 2 on two, not 7 and 8), once per
        epsilon for a list with ratio 0.5 or 0.3."""
        _pin_cpus(monkeypatch, cpus)
        config = SweepConfig(epsilons=epsilons, benchmark="SHEAR", mesh_n=4, n_steps=4)
        bench = config.build_benchmark()
        sweep._build_shared(bench, config.boundary_mode)
        factorizations = []
        factor = type(bench.mesh.elements).factor

        def counted(self, blocks, diagonal, what):
            factorizations.append(what)
            return factor(self, blocks, diagonal, what)

        monkeypatch.setattr(type(bench.mesh.elements), "factor", counted)
        limit = LimitFields.shared(5, bench.mesh.n_cells, bench.mesh.n_nodes)
        for lane in sweep._lanes(len(epsilons)):  # in this process, so that the count is seen
            sweep._run_lane(bench, config, lane, limit)
        assert factorizations.count("elastic") == want

    def test_the_roundoff_floor_is_taken_only_where_the_predictor_misses(self, monkeypatch):
        """On the shear_sweep config (SHEAR, n=32, M=64, the default epsilons) every step ends
        at its predictor, and the round-off floor is taken on exactly the 182 of the 448 steps
        whose predictor residual exceeds ``stress_tol * kappa``: only there can it decide."""
        _pin_cpus(monkeypatch, 1)
        config = SweepConfig(benchmark="SHEAR", mesh_n=32, n_steps=64)
        threshold = config.stress_tol * config.yield_radius
        residuals, floors = [], []
        residual, floor = evolution._Step.residual, evolution._Step.roundoff_floor

        def recorded_residual(self, it):
            residuals.append(residual(self, it))
            return residuals[-1]

        def recorded_floor(self, it):
            floors.append(residual(self, it))  # the residual of the step that takes it
            return floor(self, it)

        monkeypatch.setattr(evolution._Step, "residual", recorded_residual)
        monkeypatch.setattr(evolution._Step, "roundoff_floor", recorded_floor)
        run_sweep(config)
        assert len(residuals) == 7 * 64  # one per step: no step took a Newton step
        missed = [r for r in residuals if r > threshold]
        assert len(missed) == 182
        assert floors == missed

    def test_first_failing_epsilon_is_reported(self, monkeypatch, tmp_path):
        """Beyond the limit load every eps fails; several lanes report the first, as one does."""
        config = SweepConfig(epsilons=EPS5[:4], benchmark="TRACTION", mesh_n=4, n_steps=4,
                             load_scale=1.5)
        errors = []
        for cpus in (1, 2, 3):
            _pin_cpus(monkeypatch, cpus)
            with pytest.raises(ConvergenceError, match="^epsilon=1, step 4: ") as err:
                run_sweep(config)
            errors.append(err.value)
            assert multiprocessing.active_children() == []
        for exc in errors[1:]:
            assert str(exc) == str(errors[0])
            assert exc.step_index == errors[0].step_index == 4
            assert exc.residual_history == errors[0].residual_history
            assert exc.decrease_history == errors[0].decrease_history
            assert np.array_equal(exc.state.u, errors[0].state.u)

        cfg = tmp_path / "fail.cfg"
        cfg.write_text("benchmark = TRACTION\nmesh_n = 4\ntime_steps = 4\nload_scale = 1.5\n"
                       "epsilon_list = 1.0, 0.25, 0.0625, 0.015625\n", encoding="utf-8")
        monkeypatch.delenv("TOOL_OUT", raising=False)
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        record = json.loads((tmp_path / "out" / "error.json").read_text(encoding="utf-8"))
        assert record["error"]["step"] == 4
        assert record["error"]["message"].startswith("epsilon=1, step 4: ")
        assert multiprocessing.active_children() == []

    def test_a_solver_error_is_tagged_with_its_epsilon_and_step(self, monkeypatch, tmp_path,
                                                               fail_elastic_solve):
        """A ``SolverError`` in a step comes back, from any lane, as the same exception with
        its epsilon and step in front of its message, and ``error.json`` records both."""
        fail_elastic_solve(0.25, 3)  # at n=4, step 3's predictor
        cfg = tmp_path / "fail.cfg"
        cfg.write_text("benchmark = TRACTION\nmesh_n = 4\ntime_steps = 4\n"
                       "epsilon_list = 1.0, 0.25, 0.0625, 0.015625\n", encoding="utf-8")
        monkeypatch.delenv("TOOL_OUT", raising=False)
        for cpus in (1, 2, 3):
            _pin_cpus(monkeypatch, cpus)
            out = tmp_path / f"out{cpus}"
            assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 3
            record = json.loads((out / "error.json").read_text(encoding="utf-8"))
            assert record["error"] == {
                "kind": "SolverError", "step": 3, "epsilon": 0.25, "reason": None,
                "residuals": None, "decreases": None,
                "message": "epsilon=0.25, step 3: "
                           "elastic solve residual 1.000e+00 exceeds tolerance"}
            assert multiprocessing.active_children() == []

    def test_a_lane_that_dies_is_an_error(self, monkeypatch):
        """A lane that ends without a result (killed, say) fails the sweep; none outlives it."""
        parent = os.getpid()
        one_epsilon = sweep._run_one_epsilon

        def dying(benchmark, epsilon, *args, **kwargs):
            if epsilon == EPS5[3] and os.getpid() != parent:
                os._exit(7)
            return one_epsilon(benchmark, epsilon, *args, **kwargs)

        monkeypatch.setattr(sweep, "_run_one_epsilon", dying)
        _pin_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="epsilon=0.0625 to 0.00390625 exited with code 7"):
            run_sweep(SweepConfig(epsilons=EPS5, benchmark="SHEAR", mesh_n=3, n_steps=4))
        assert multiprocessing.active_children() == []
