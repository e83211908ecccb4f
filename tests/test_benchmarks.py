"""Catalog programs and the non-uniqueness construction."""

import numpy as np
import pytest

from rigiplast.benchmarks import (
    BENCHMARK_IDS,
    Example41Params,
    PiecewiseConstant,
    VerificationError,
    benchmark_catalog,
    default_example41_params,
    example41_stress,
    example41_verify,
)
from rigiplast.evolution import LoadProgram
from rigiplast.fem import divergence_check, strain_of
from rigiplast.mesh import build_square_mesh
from rigiplast.tensors import YieldSet, dev_decompose, norm


class TestPiecewiseConstant:
    def test_constant(self):
        f = PiecewiseConstant.constant(0.3)
        np.testing.assert_allclose(f(np.array([0.1, 0.9])), 0.3)
        assert f.sup == 0.3

    def test_step(self):
        f = PiecewiseConstant((0.5,), (1.0, -2.0))
        np.testing.assert_allclose(f(np.array([0.25, 0.75])), [1.0, -2.0])
        assert f.sup == 2.0

    def test_alignment(self):
        assert PiecewiseConstant((0.5,), (1.0, 2.0)).aligned_with(4)
        assert not PiecewiseConstant((0.3,), (1.0, 2.0)).aligned_with(4)

    def test_bad_lengths(self):
        with pytest.raises(ValueError):
            PiecewiseConstant((0.5,), (1.0,))


class TestExample41Params:
    def test_default_valid(self):
        p = default_example41_params()
        assert p.smallness < 0.5

    def test_rejects_large_lambda(self):
        with pytest.raises(ValueError, match="exceeds 2"):
            default_example41_params().with_lam(3.0)

    def test_rejects_saturating_smallness(self):
        # sqrt(2 c^2 + f^2 + g^2) = sqrt(0.26) > 1/2: the guard is exact
        with pytest.raises(ValueError, match="smallness"):
            Example41Params(c=0.3, f=PiecewiseConstant.constant(0.2),
                            g=PiecewiseConstant.constant(-0.2),
                            A=np.zeros((2, 2)), b=np.zeros(2), lam=1.0)

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError, match="skew"):
            Example41Params(c=0.1, f=PiecewiseConstant.constant(0.0),
                            g=PiecewiseConstant.constant(0.0),
                            A=np.eye(2), b=np.zeros(2), lam=1.0)

    def test_boundary_lambda_accepted(self):
        p = default_example41_params().with_lam(-2.0)
        assert p.lam == -2.0

    def test_kappa_scaling(self):
        # all inequalities scale with the yield radius
        p = default_example41_params(kappa=2.0)
        assert p.smallness < 1.0
        with pytest.raises(ValueError):
            Example41Params(c=0.3, f=PiecewiseConstant.constant(0.2),
                            g=PiecewiseConstant.constant(-0.2),
                            A=np.zeros((2, 2)), b=np.zeros(2), lam=1.0, kappa=1.0)


class TestExample41Stress:
    def test_pure_offdiagonal(self):
        mesh = build_square_mesh(4, ("left", "right", "bottom", "top"))
        p = Example41Params(c=0.2, f=PiecewiseConstant.constant(0.0),
                            g=PiecewiseConstant.constant(0.0),
                            A=np.zeros((2, 2)), b=np.zeros(2), lam=2.0)
        sigma = example41_stress(p, mesh)
        np.testing.assert_allclose(sigma[:, 1], 0.4)
        np.testing.assert_allclose(sigma[:, [0, 2]], 0.0)
        dev, _ = dev_decompose(sigma)
        np.testing.assert_allclose(norm(dev), 0.4 * np.sqrt(2))
        assert norm(dev).max() < 1.0

    def test_lambda_zero(self):
        mesh = build_square_mesh(2, ("bottom",))
        p = default_example41_params().with_lam(0.0)
        sigma = example41_stress(p, mesh)
        assert np.abs(sigma).max() == 0.0

    def test_pointwise_norm_bound(self):
        # |sigma_D|^2 <= 2c^2 + f^2 + g^2, equality for constant entries
        mesh = build_square_mesh(4, ("bottom",))
        cent = mesh.centroids
        c, fv, gv = 0.3, 0.2, -0.2
        sigma = np.column_stack([np.full(mesh.n_cells, fv),
                                 np.full(mesh.n_cells, c),
                                 np.full(mesh.n_cells, gv)])
        dev, _ = dev_decompose(sigma)
        np.testing.assert_allclose(norm(dev) ** 2, 2 * c**2 + 0.5 * (fv - gv) ** 2)
        assert np.all(norm(dev) ** 2 <= 2 * c**2 + fv**2 + gv**2 + 1e-15)

    def test_equilibrium_exact_with_aligned_steps(self):
        mesh = build_square_mesh(8, ("left", "right", "bottom", "top"))
        sigma = example41_stress(default_example41_params(), mesh)
        interior, _ = divergence_check(sigma, mesh)
        assert interior < 1e-13

    def test_lambda_homogeneous_residual(self):
        mesh = build_square_mesh(4, ("left", "right", "bottom", "top"))
        base = example41_stress(default_example41_params().with_lam(1.0), mesh)
        scaled = example41_stress(default_example41_params().with_lam(2.0), mesh)
        np.testing.assert_allclose(scaled, 2.0 * base, rtol=1e-15)
        r1, _ = divergence_check(base, mesh)
        r2, _ = divergence_check(scaled, mesh)
        assert r1 < 1e-13 and r2 < 1e-13

    def test_misaligned_breakpoints_rejected(self):
        mesh = build_square_mesh(3, ("bottom",))
        with pytest.raises(ValueError, match="mesh lines"):
            example41_stress(default_example41_params(), mesh)


class TestExample41Verify:
    MESH = build_square_mesh(8, ("left", "right", "bottom", "top"))
    YSET = YieldSet(1.0)

    def test_witness_basic(self):
        p = Example41Params(c=0.2, f=PiecewiseConstant.constant(0.0),
                            g=PiecewiseConstant.constant(0.0),
                            A=np.array([[0.0, 1.0], [-1.0, 0.0]]),
                            b=np.array([0.2, -0.1]), lam=1.0)
        w = example41_verify(p, (1.0, 2.0), self.MESH, self.YSET)
        assert w.nonuniqueness
        # gap = |lam1 - lam2| * ||sigma||_2 = 0.2*sqrt(2) over the unit square
        assert w.stress_gap_l2 == pytest.approx(0.2 * np.sqrt(2), rel=1e-12)
        assert max(w.equilibrium_residuals) < 1e-13
        assert min(w.feasibility_margins) > 0
        assert w.ev_max < 1e-13

    def test_witness_extreme_lambdas(self):
        w = example41_verify(default_example41_params(), (-2.0, 2.0),
                             self.MESH, self.YSET)
        assert w.nonuniqueness
        assert min(w.feasibility_margins) > 0

    def test_pure_translation(self):
        p = Example41Params(c=0.15, f=PiecewiseConstant.constant(0.1),
                            g=PiecewiseConstant.constant(-0.05),
                            A=np.zeros((2, 2)), b=np.array([1.0, 2.0]), lam=1.0)
        w = example41_verify(p, (0.5, 1.5), self.MESH, self.YSET)
        assert w.nonuniqueness
        assert w.ev_max < 1e-13

    def test_equal_lambdas_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            example41_verify(default_example41_params(), (1.0, 1.0),
                             self.MESH, self.YSET)

    def test_lambda_guard_raises(self):
        with pytest.raises(ValueError, match="exceeds 2"):
            example41_verify(default_example41_params(), (1.0, 3.0),
                             self.MESH, self.YSET)

    def test_parameter_grid(self):
        # 5x5 grid of (c, lam) pairs within the guards
        for c in np.linspace(0.05, 0.3, 5):
            for lam in np.linspace(-2.0, 2.0, 5):
                if lam == 0.0:
                    continue
                p = Example41Params(c=c, f=PiecewiseConstant.constant(0.1),
                                    g=PiecewiseConstant.constant(-0.1),
                                    A=np.array([[0.0, 0.5], [-0.5, 0.0]]),
                                    b=np.zeros(2), lam=lam)
                w = example41_verify(p, (lam, 0.5 * lam), self.MESH, self.YSET)
                assert w.nonuniqueness

    def test_wrong_radius_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            example41_verify(default_example41_params(), (1.0, 2.0),
                             self.MESH, YieldSet(2.0))


class TestCatalog:
    @pytest.mark.parametrize("bid", BENCHMARK_IDS)
    def test_programs_validate(self, bid):
        # the catalog's program was checked when made; remaking it on its mesh passes again
        bench = benchmark_catalog(bid, mesh_n=4, n_steps=4)
        prog = bench.program
        assert bench.mesh is prog.mesh
        LoadProgram(prog.mesh, prog.times, prog.w, prog.f, prog.g)
        assert prog.w[0].max() == 0.0  # loads ramp from zero

    def test_shear_divergence_free(self):
        bench = benchmark_catalog("SHEAR", mesh_n=4, n_steps=2)
        ew = strain_of(bench.program.w[-1], bench.mesh)
        assert np.abs(ew[:, 0] + ew[:, 2]).max() < 1e-13

    def test_rigid41_skew_trace(self):
        bench = benchmark_catalog("RIGID41", mesh_n=4, n_steps=2)
        params = bench.meta["example41"]
        assert np.trace(params.A) == 0.0
        ew = strain_of(bench.program.w[-1], bench.mesh)
        assert np.abs(ew).max() < 1e-13  # rigid motion: full strain vanishes

    def test_traction_zero_boundary_field(self):
        bench = benchmark_catalog("TRACTION", mesh_n=4, n_steps=2)
        assert np.abs(bench.program.w).max() == 0.0
        top = [j for j, e in enumerate(bench.mesh.neumann_edges) if e.face == "top"]
        assert np.abs(bench.program.g[-1, top, 0]).min() > 0

    @pytest.mark.parametrize("bid", ["SHEAR", "RIGID41"])
    @pytest.mark.parametrize("n, m", [(7, 13), (16, 32)])
    def test_datum_equals_the_time_loop(self, bid, n, m):
        """The broadcast datum is bit for bit (signs included) w(t) = t * field, time by time."""
        bench = benchmark_catalog(bid, mesh_n=n, n_steps=m, load_scale=0.7, horizon=1.3)
        nodes, times = bench.mesh.nodes, bench.program.times
        if bid == "SHEAR":
            gamma = bench.meta["gamma"]
            want = np.array([t * gamma * np.column_stack([nodes[:, 1], np.zeros(len(nodes))])
                             for t in times])
        else:
            vel = bench.meta["example41"].velocity(nodes) * 0.7
            want = np.array([t * vel for t in times])
        assert bench.program.w.tobytes() == want.tobytes()

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            benchmark_catalog("TWIST")
