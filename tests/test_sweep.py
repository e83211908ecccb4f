"""Sweep harness: rate fits, monitors, limit residuals, limit comparison."""

import numpy as np
import pytest

from oracles import cauchy_distances_all_pairs

from rigiplast.evolution import run_evolution
from rigiplast.sweep import (
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

    @pytest.mark.parametrize("name, value", [("tol", 0.0), ("stress_tol", -1.0)])
    def test_rejects_non_positive_solver_tolerances(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be positive"):
            SweepConfig(**{name: value})


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

    def test_cauchy_distances_streamed(self, shear_report):
        """The streamed distances equal the all-pairs formula; only the limit proxy keeps fields."""
        rep = shear_report
        cfg, bench = rep.config, rep.benchmark
        sigmas = []
        for eps, tr in zip(cfg.epsilons, rep.trajectories):
            states, ledger = run_evolution(bench.program, bench.hooke.with_epsilon(eps),
                                           bench.yield_set, bench.mesh, mode=cfg.mode,
                                           tol=cfg.tol, stress_tol=cfg.stress_tol)
            sigmas.append(np.stack([st.sigma for st in states]))
            # the sweep's columns come from the steps, bit for bit the ledger's
            assert np.array_equal(tr.sigma_dev_max, ledger.max_sigma_dev)
            assert np.array_equal(tr.dp_mass_cum, ledger.dissipation / bench.yield_set.radius)
        want = cauchy_distances_all_pairs(sigmas, bench.mesh.areas, rep.times)
        assert want.shape == (len(EPS4) - 1,) and np.all(want > 0)
        np.testing.assert_allclose(rep.cauchy_distances, want, rtol=1e-12, atol=0)
        for tr in rep.trajectories[:-1]:
            assert tr.sigma is None and tr.ev is None
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
