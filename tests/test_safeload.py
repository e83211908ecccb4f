"""Safe-load certificates and the margin optimizer."""

import numpy as np
import pytest
from test_mesh_fem import record_band_widths

from rigiplast.benchmarks import benchmark_catalog
from rigiplast.mesh import build_square_mesh
from rigiplast.safeload import max_safety_margin, verify_safe_load
from rigiplast.tensors import YieldSet, dev_decompose, norm

YSET = YieldSet(1.0)


def clamped_shear_case(n, s):
    """Top face sheared, other faces clamped: constant candidate is exact."""
    mesh = build_square_mesh(n, ("bottom", "left", "right"))
    f = np.zeros((mesh.n_cells, 2))
    g = np.array([[s, 0.0] if e.face == "top" else [0.0, 0.0]
                  for e in mesh.neumann_edges])
    return mesh, f, g


class TestVerifySafeLoad:
    def test_zero_loads_zero_field(self):
        mesh = build_square_mesh(4, ("bottom",))
        f = np.zeros((mesh.n_cells, 2))
        g = np.zeros((len(mesh.neumann_edges), 2))
        cert = verify_safe_load([np.zeros((mesh.n_cells, 3))], [f], [g], mesh, YSET)
        assert cert.valid
        assert cert.margin == pytest.approx(YSET.radius)
        assert cert.interior_residual == 0.0

    def test_constant_candidate_margin(self):
        s = 0.3
        mesh, f, g = clamped_shear_case(4, s)
        pi = np.tile([0.0, s, 0.0], (mesh.n_cells, 1))
        cert = verify_safe_load([pi], [f], [g], mesh, YSET)
        assert cert.valid
        assert cert.margin == pytest.approx(1.0 - s * np.sqrt(2), rel=1e-12)
        assert cert.interior_residual < 1e-13
        assert cert.flux_residual < 1e-13

    def test_over_yield_invalid(self):
        s = 0.9  # |pi_D| = 0.9*sqrt(2) > 1
        mesh, f, g = clamped_shear_case(3, s)
        pi = np.tile([0.0, s, 0.0], (mesh.n_cells, 1))
        cert = verify_safe_load([pi], [f], [g], mesh, YSET)
        assert not cert.valid
        assert cert.margin <= 0.0

    def test_per_time_minimum(self):
        mesh, f, g = clamped_shear_case(3, 0.2)
        pi_small = np.tile([0.0, 0.1, 0.0], (mesh.n_cells, 1))
        pi_big = np.tile([0.0, 0.5, 0.0], (mesh.n_cells, 1))
        cert = verify_safe_load([pi_small, pi_big], [f, f],
                                [0.5 * g, 2.5 * g], mesh, YSET)
        assert cert.margin == pytest.approx(1.0 - 0.5 * np.sqrt(2), rel=1e-12)

    def test_lists_of_different_lengths_raise(self):
        # two fields with one load would check the first field only
        mesh, f, g = clamped_shear_case(3, 0.2)
        pi = np.tile([0.0, 0.2, 0.0], (mesh.n_cells, 1))
        with pytest.raises(ValueError):
            verify_safe_load([pi, 10.0 * pi], [f], [g], mesh, YSET)


class TestMaxSafetyMargin:
    def test_zero_loads_full_margin(self):
        mesh = build_square_mesh(4, ("bottom",))
        f = np.zeros((mesh.n_cells, 2))
        g = np.zeros((len(mesh.neumann_edges), 2))
        c, pi, _ = max_safety_margin(f, g, mesh, YSET)
        assert c == pytest.approx(YSET.radius)
        dev_p, _ = dev_decompose(pi)
        assert norm(dev_p).max() < 1e-12

    def test_contradictory_corner_tractions_raise(self):
        # TRACTION clamps the bottom only: its top traction (s, 0) fixes s12 = s in the
        # top-left cell, whose free left face fixes s12 = 0, so no P0 field is admissible
        n = 8
        program = benchmark_catalog("TRACTION", mesh_n=n, n_steps=4, load_scale=0.6).program
        with pytest.raises(ValueError, match=f"cell {2 * n * (n - 1) + 1} "):
            max_safety_margin(program.f[-1], program.g[-1], program.mesh, YSET)

    @pytest.mark.parametrize("name, bad", [("g_edges", "nan"), ("f_cells", "nan"),
                                           ("g_edges", "shape"), ("f_cells", "shape")])
    def test_loads_are_checked(self, name, bad):
        mesh, f, g = clamped_shear_case(4, 0.2)
        loads = {"f_cells": f, "g_edges": g}
        loads[name] = loads[name][1:] if bad == "shape" else np.full_like(loads[name], np.nan)
        with pytest.raises(ValueError, match=name):
            max_safety_margin(loads["f_cells"], loads["g_edges"], mesh, YSET)

    def test_one_factorization_on_the_element_map(self, monkeypatch):
        # the Gram matrix is summed from cell blocks into the free dofs' band, as the
        # stiffness is; the fixed flux components leave no flux residual
        mesh, f, g = clamped_shear_case(16, 0.25 * np.sqrt(2))
        widths = record_band_widths(monkeypatch)
        _, pi, _ = max_safety_margin(f, g, mesh, YSET)
        assert widths == [mesh.elements.bw]
        cert = verify_safe_load([pi], [f], [g], mesh, YSET)
        assert cert.valid
        assert cert.flux_residual == 0.0

    def test_half_limit_certifies(self):
        s_limit = 1.0 / np.sqrt(2)
        mesh, f, g = clamped_shear_case(4, 0.5 * s_limit)
        c, pi, _ = max_safety_margin(f, g, mesh, YSET)
        assert c > 0.4  # constant candidate guarantees 0.5
        cert = verify_safe_load([pi], [f], [g], mesh, YSET)
        assert cert.valid
        assert cert.margin == pytest.approx(c, abs=1e-10)

    @pytest.mark.parametrize("n", [16, 32])
    def test_half_limit_certifies_at_cli_sizes(self, n):
        s_limit = 1.0 / np.sqrt(2)
        mesh, f, g = clamped_shear_case(n, 0.5 * s_limit)
        c, pi, _ = max_safety_margin(f, g, mesh, YSET)
        assert c >= 0.5 - 1e-6  # the constant field certifies 0.5
        cert = verify_safe_load([pi], [f], [g], mesh, YSET)
        assert cert.valid
        assert cert.margin == pytest.approx(c, abs=1e-10)

    def test_beyond_limit_negative(self):
        s_limit = 1.0 / np.sqrt(2)
        mesh, f, g = clamped_shear_case(4, 1.5 * s_limit)
        c, pi, _ = max_safety_margin(f, g, mesh, YSET)
        assert c <= 0.0
        cert = verify_safe_load([pi], [f], [g], mesh, YSET)
        assert cert.margin == pytest.approx(c, abs=1e-10)
        assert cert.interior_residual <= 1e-8
        assert cert.flux_residual <= 1e-8

    def test_iterations_do_not_grow_with_the_mesh(self):
        s_limit = 1.0 / np.sqrt(2)
        iterations = []
        for n in (8, 32):
            mesh, f, g = clamped_shear_case(n, 0.5 * s_limit)
            _, _, diag = max_safety_margin(f, g, mesh, YSET)
            iterations.append(diag["iterations"])
        assert iterations[1] <= 1.5 * iterations[0]

    def test_scaled_loads_scale_the_solve(self):
        mesh, f, g = clamped_shear_case(4, 0.2)
        c, pi, diag = max_safety_margin(f, g, mesh, YSET)
        c3, pi3, diag3 = max_safety_margin(f, 3.0 * g, mesh, YSET)
        assert diag3["iterations"] == diag["iterations"]
        assert 1.0 - c3 == pytest.approx(3.0 * (1.0 - c), rel=1e-9)
        assert np.allclose(pi3, 3.0 * pi, rtol=0, atol=1e-9)

    def test_margin_monotone_in_load(self):
        s_limit = 1.0 / np.sqrt(2)
        margins = []
        for lam in (0.25, 0.5, 1.0):
            mesh, f, g = clamped_shear_case(3, 0.6 * lam * s_limit)
            c, _, _ = max_safety_margin(f, g, mesh, YSET)
            margins.append(c)
        assert margins[0] >= margins[1] - 1e-6
        assert margins[1] >= margins[2] - 1e-6

    def test_residual_history_settles(self):
        mesh, f, g = clamped_shear_case(3, 0.3)
        _, _, diag = max_safety_margin(f, g, mesh, YSET)
        hist = diag["residual_history"]
        if len(hist) >= 4:
            tail = hist[len(hist) // 2:]
            assert np.all(np.diff(tail) <= 0.1 * np.maximum(tail[:-1], 1e-14))

    def test_reverification_consistency(self):
        mesh, f, g = clamped_shear_case(3, 0.25)
        c, pi, _ = max_safety_margin(f, g, mesh, YSET)
        cert = verify_safe_load([pi], [f], [g], mesh, YSET)
        assert cert.valid
        assert abs(cert.margin - c) < 1e-10
