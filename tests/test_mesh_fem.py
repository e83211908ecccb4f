"""Mesh construction, P1/P0 operators, elastic solves, equilibrium residuals."""

import numpy as np
import pytest

from rigiplast.fem import (
    ElasticSystem,
    divergence_check,
    external_load_vector,
    strain_of,
    tensor_l2,
    weak_divergence_form,
)
from rigiplast.mesh import FACES, build_square_mesh
from rigiplast.tensors import HookeTensor, norm

ALL = FACES


def shear_field(mesh, gamma=1.0):
    return gamma * np.column_stack([mesh.nodes[:, 1], np.zeros(mesh.n_nodes)])


class TestBuildSquareMesh:
    def test_counts_n2(self):
        mesh = build_square_mesh(2, ALL)
        assert mesh.n_cells == 8
        assert mesh.n_nodes == 9

    def test_two_triangles(self):
        mesh = build_square_mesh(1, ALL)
        assert mesh.n_cells == 2
        np.testing.assert_allclose(mesh.areas, 0.5)

    @pytest.mark.parametrize("n", [1, 3, 7, 16])
    def test_partition_of_unity(self, n):
        mesh = build_square_mesh(n, ("bottom",))
        assert abs(mesh.areas.sum() - 1.0) < 1e-14
        assert np.all(mesh.areas > 0)

    def test_boundary_closed_and_unit_normals(self):
        mesh = build_square_mesh(5, ALL)
        assert len(mesh.edges) == 20
        total = sum(e.length * e.normal for e in mesh.edges)
        np.testing.assert_allclose(total, 0.0, atol=1e-14)
        for e in mesh.edges:
            assert np.linalg.norm(e.normal) == pytest.approx(1.0)
            assert e.length == pytest.approx(1 / 5)

    def test_labels(self):
        mesh = build_square_mesh(3, ("bottom", "top"))
        faces_d = {e.face for e in mesh.dirichlet_edges}
        faces_n = {e.face for e in mesh.neumann_edges}
        assert faces_d == {"bottom", "top"}
        assert faces_n == {"left", "right"}

    def test_requires_dirichlet(self):
        with pytest.raises(ValueError):
            build_square_mesh(4, ())

    def test_unknown_face(self):
        with pytest.raises(ValueError):
            build_square_mesh(4, ("north",))

    def test_edge_cells_adjacent(self):
        mesh = build_square_mesh(4, ALL)
        for e in mesh.edges:
            tri = set(mesh.triangles[e.cell])
            assert set(e.nodes) <= tri


class TestStrain:
    def test_simple_shear(self):
        mesh = build_square_mesh(3, ALL)
        E = strain_of(shear_field(mesh), mesh)
        np.testing.assert_allclose(E, np.tile([0.0, 0.5, 0.0], (mesh.n_cells, 1)),
                                   atol=1e-14)

    def test_rigid_motion_strain_free(self):
        mesh = build_square_mesh(4, ALL)
        A = np.array([[0.0, 0.7], [-0.7, 0.0]])
        u = mesh.nodes @ A.T + np.array([0.3, -0.1])
        E = strain_of(u, mesh)
        assert np.abs(E).max() < 1e-14

    def test_dilation(self):
        mesh = build_square_mesh(2, ALL)
        E = strain_of(mesh.nodes.copy(), mesh)
        np.testing.assert_allclose(E, np.tile([1.0, 0.0, 1.0], (mesh.n_cells, 1)),
                                   atol=1e-14)
        div = E[:, 0] + E[:, 2]
        np.testing.assert_allclose(div, 2.0)

    def test_affine_exactness(self):
        mesh = build_square_mesh(5, ALL)
        rng = np.random.default_rng(4)
        G = rng.standard_normal((2, 2))
        u = mesh.nodes @ G.T
        E = strain_of(u, mesh)
        sym = np.array([G[0, 0], 0.5 * (G[0, 1] + G[1, 0]), G[1, 1]])
        np.testing.assert_allclose(E, np.tile(sym, (mesh.n_cells, 1)), atol=1e-13)


class TestElasticSolve:
    def test_zero_data(self):
        mesh = build_square_mesh(4, ALL)
        u = ElasticSystem(mesh, HookeTensor(1.0, 1.0, 1.0)).solve(
            np.zeros((mesh.n_cells, 3)), np.zeros((mesh.n_nodes, 2)))
        assert np.abs(u).max() == 0.0

    def test_affine_recovery(self):
        mesh = build_square_mesh(6, ALL)
        rng = np.random.default_rng(9)
        G = rng.standard_normal((2, 2)) * 0.3
        w = mesh.nodes @ G.T
        u = ElasticSystem(mesh, HookeTensor(1.5, 0.8, 1.0)).solve(
            np.zeros((mesh.n_cells, 3)), w)
        np.testing.assert_allclose(u, w, atol=1e-12)

    def test_homogeneous_shear_stress(self):
        gamma = 0.4
        mesh = build_square_mesh(5, ALL)
        hooke = HookeTensor(1.2, 1.0, 0.5)
        u = ElasticSystem(mesh, hooke).solve(np.zeros((mesh.n_cells, 3)),
                                             shear_field(mesh, gamma))
        E = strain_of(u, mesh)
        np.testing.assert_allclose(E, np.tile([0, gamma / 2, 0], (mesh.n_cells, 1)),
                                   atol=1e-13)
        sigma = hooke.apply(E)
        np.testing.assert_allclose(sigma[:, 1], hooke.scaled_shear * gamma / 2,
                                   rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_patch_test(self, n):
        mesh = build_square_mesh(n, ALL)
        G = np.array([[0.2, -0.1], [0.05, 0.3]])
        w = mesh.nodes @ G.T
        u = ElasticSystem(mesh, HookeTensor(1.0, 2.0, 1.0)).solve(
            np.zeros((mesh.n_cells, 3)), w)
        np.testing.assert_allclose(u, w, atol=1e-12)

    def test_single_cell_full_dirichlet(self):
        mesh = build_square_mesh(1, ALL)
        w = shear_field(mesh, 1.0)
        u = ElasticSystem(mesh, HookeTensor(1.0, 1.0, 1.0)).solve(
            np.zeros((mesh.n_cells, 3)), w)
        np.testing.assert_array_equal(u, w)

    def test_manufactured_first_order_convergence(self):
        mu, kb = 1.0, 1.3
        hooke = HookeTensor(mu, kb, 1.0)

        def exact(x, y):
            return np.column_stack([np.sin(np.pi * x) * np.sin(np.pi * y),
                                    np.zeros_like(x)])

        def body(x, y):
            s = np.sin(np.pi * x) * np.sin(np.pi * y)
            c = np.cos(np.pi * x) * np.cos(np.pi * y)
            return np.column_stack([(2 * mu + kb) * np.pi**2 * s,
                                    -kb * np.pi**2 * c])

        def exact_strain(x, y):
            e11 = np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
            e12 = 0.5 * np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
            return np.column_stack([e11, e12, np.zeros_like(x)])

        errors, hs = [], []
        for n in (4, 8, 16, 32):
            mesh = build_square_mesh(n, ALL)
            cent = mesh.centroids
            f = body(cent[:, 0], cent[:, 1])
            w = exact(mesh.nodes[:, 0], mesh.nodes[:, 1])
            u = ElasticSystem(mesh, hooke).solve(np.zeros((mesh.n_cells, 3)), w,
                                                 external_load_vector(mesh, f, None))
            diff = strain_of(u, mesh) - exact_strain(cent[:, 0], cent[:, 1])
            errors.append(np.sqrt((mesh.areas * (hooke.apply(diff) * diff
                                                 * [1, 2, 1]).sum(axis=1)).sum()))
            hs.append(1.0 / n)
        slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
        assert slope >= 0.9

    def test_residual_guard(self):
        mesh = build_square_mesh(3, ALL)
        system = ElasticSystem(mesh, HookeTensor(1.0, 1.0, 1.0))
        u = system.solve(np.zeros((mesh.n_cells, 3)), shear_field(mesh), None)
        assert u.shape == (mesh.n_nodes, 2)


class TestDivergenceCheck:
    def test_constant_stress_consistent_tractions(self):
        mesh = build_square_mesh(4, ("bottom",))
        sigma = np.tile([0.7, -0.2, 0.4], (mesh.n_cells, 1))
        g = []
        for e in mesh.neumann_edges:
            s = sigma[e.cell]
            g.append([s[0] * e.normal[0] + s[1] * e.normal[1],
                      s[1] * e.normal[0] + s[2] * e.normal[1]])
        interior, flux = divergence_check(sigma, mesh, None, np.array(g))
        assert interior < 1e-13
        assert flux < 1e-13

    def test_x_dependent_stress_detected(self):
        mesh = build_square_mesh(4, ALL)
        cent = mesh.centroids
        sigma = np.column_stack([cent[:, 0], np.zeros(mesh.n_cells),
                                 np.zeros(mesh.n_cells)])
        interior, _ = divergence_check(sigma, mesh)
        assert interior > 1e-3

    def test_mesh_aligned_jumps_in_equilibrium(self):
        # diagonal entries jumping only across mesh-aligned lines: div sigma = 0
        mesh = build_square_mesh(4, ALL)
        cent = mesh.centroids
        f_vals = np.where(cent[:, 1] < 0.5, 0.3, -0.3)
        g_vals = np.where(cent[:, 0] < 0.25, -0.1, 0.2)
        sigma = np.column_stack([f_vals, np.full(mesh.n_cells, 0.15), g_vals])
        interior, _ = divergence_check(sigma, mesh)
        assert interior < 1e-13

    def test_discrete_divergence_theorem(self):
        mesh = build_square_mesh(5, ("left",))
        rng = np.random.default_rng(12)
        sigma = np.tile(rng.standard_normal(3), (mesh.n_cells, 1))
        for _ in range(5):
            phi = rng.standard_normal((mesh.n_nodes, 2))
            assert abs(weak_divergence_form(mesh, sigma, phi)) < 1e-12


class TestNorms:
    def test_tensor_l2_shear(self):
        mesh = build_square_mesh(3, ALL)
        field = np.tile([0.0, 1.0, 0.0], (mesh.n_cells, 1))
        assert tensor_l2(mesh.areas, field) == pytest.approx(np.sqrt(2))

    def test_norm_matches_matrix_frobenius(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(3)
        m = np.array([[a[0], a[1]], [a[1], a[2]]])
        assert norm(a) == pytest.approx(np.linalg.norm(m))
