"""Mesh construction, P1/P0 operators, elastic solves, equilibrium residuals."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from oracles import strain_matrix_loop

from rigiplast import fem
from rigiplast.benchmarks import benchmark_catalog
from rigiplast.evolution import slip_nodes_of
from rigiplast.fem import (
    ElasticSystem,
    SolverError,
    divergence_check,
    external_load_vector,
    strain_of,
    tensor_l2,
    weak_divergence_form,
)
from rigiplast.mesh import FACES, build_square_mesh
from rigiplast.tensors import WEIGHTS, HookeTensor, YieldSet, consistent_tangent, norm

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
        edges = build_square_mesh(5, ALL).boundary
        assert len(edges.lengths) == 20
        total = (edges.lengths[:, None] * edges.normals).sum(axis=0)
        np.testing.assert_allclose(total, 0.0, atol=1e-14)
        assert np.linalg.norm(edges.normals, axis=1) == pytest.approx(1.0)
        assert edges.lengths == pytest.approx(1 / 5)

    def test_labels(self):
        mesh = build_square_mesh(3, ("bottom", "top"))
        faces_d = set(mesh.dirichlet_boundary.faces.tolist())
        faces_n = set(mesh.neumann_boundary.faces.tolist())
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
        edges = mesh.boundary
        tris = mesh.triangles[edges.cells]
        assert (edges.nodes[:, :, None] == tris[:, None, :]).any(axis=2).all()


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

    @pytest.mark.parametrize("faces", [ALL, ("bottom",)], ids=["all", "bottom"])
    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_B_from_cell_blocks_equals_vertex_loop(self, n, faces):
        """``mesh.B``, scattered from the cell blocks, is the per-vertex COO assembly, bit for bit."""
        mesh = build_square_mesh(n, faces)
        want = strain_matrix_loop(mesh)
        for name in ("data", "indices", "indptr"):
            got, ref = getattr(mesh.B, name), getattr(want, name)
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)


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

    def test_residual_guard(self, monkeypatch):
        mesh = build_square_mesh(3, ALL)
        system = ElasticSystem(mesh, HookeTensor(1.0, 1.0, 1.0))
        p, w = np.zeros((mesh.n_cells, 3)), shear_field(mesh)
        np.testing.assert_allclose(system.solve(p, w, None), w, atol=1e-12)

        band_solve = fem._band_solve
        monkeypatch.setattr(fem, "_band_solve",
                            lambda factor, rhs: band_solve(factor, rhs) + 1e-6)
        with pytest.raises(SolverError, match="elastic solve residual"):
            system.solve(p, w, None)

    @pytest.mark.parametrize("name, n", [("SHEAR", 32), ("TRACTION", 16)])
    def test_a_shared_factor_solves_as_its_own_factor(self, monkeypatch, name, n):
        """For eps = 4^-k the system ``with_epsilon`` makes from eps = 1 factorizes nothing,
        and its solves equal those with the factor of its own K(eps) bit for bit."""
        bench = benchmark_catalog(name, mesh_n=n, n_steps=4)
        program = bench.program
        p = plastic_strain(bench.mesh)
        widths = record_band_widths(monkeypatch)
        unit = ElasticSystem(bench.mesh, bench.hooke.with_epsilon(1.0))
        systems = [unit.with_epsilon(4.0 ** -k) for k in range(1, 7)]
        assert len(widths) == 1  # the factor of K(1), for every system
        for system in systems:
            for step in (1, len(program.times) - 1):
                got, want = solve_both_ways(monkeypatch, system, p, program.w[step],
                                            program.loads[step])
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("base, epsilon, bitwise", [
        (1.0, 0.5, False), (1.0, 0.3, False), (1.0, 2.0 ** -13, False), (1.0, 4.0, True),
        (0.3, 0.3 / 4, False), (0.3, 0.3 / 16, False), (0.3, 0.1, False)])
    def test_every_system_solves_with_the_unit_factor(self, monkeypatch, base, epsilon,
                                                      bitwise):
        """A system at any epsilon factorizes K(1), which the systems its ``with_epsilon``
        makes share. Its solves agree with those of its own K(eps)'s factor to round-off,
        and bit for bit where epsilon is a power of 4."""
        bench = benchmark_catalog("TRACTION", mesh_n=16, n_steps=4)
        program = bench.program
        widths = record_band_widths(monkeypatch)
        system = ElasticSystem(bench.mesh, bench.hooke.with_epsilon(base)).with_epsilon(epsilon)
        assert len(widths) == 1
        got, want = solve_both_ways(monkeypatch, system, plastic_strain(bench.mesh),
                                    program.w[-1], program.loads[-1])
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert np.array_equal(got, want) == bitwise

    @pytest.mark.parametrize("name", ["SHEAR", "TRACTION"])
    def test_band_stays_narrow(self, monkeypatch, name):
        # the grid order gives K_ff a half-bandwidth of about 2n
        widths = record_band_widths(monkeypatch)
        ElasticSystem(benchmark_catalog(name, mesh_n=16, n_steps=1).mesh,
                      HookeTensor(1.0, 1.0, 1.0))
        assert len(widths) == 1
        assert widths[0] < 64


def plastic_strain(mesh):
    """A random deviatoric P0 plastic strain of size 1e-3."""
    p = np.random.default_rng(7).standard_normal((mesh.n_cells, 3)) * 1e-3
    p[:, 2] = -p[:, 0]
    return p


def solve_both_ways(monkeypatch, system, p, w, loads):
    """``system.solve``'s displacements on the free dofs, and the solve of the same
    right-hand side with the factor of the system's own K(eps), which it does not use."""
    rhs = []
    band_solve = fem._band_solve

    def recorded(factor, b):
        rhs.append(b.copy())
        return band_solve(factor, b)

    monkeypatch.setattr(fem, "_band_solve", recorded)
    got = system.solve(p, w, loads).ravel()[system.free]
    monkeypatch.setattr(fem, "_band_solve", band_solve)
    mesh = system.mesh
    own = mesh.elements.factor(fem.cell_blocks(mesh, system.cmat, mesh.cell_strains), 0.0, "own")
    return got, band_solve(own, rhs[0])


def record_band_widths(monkeypatch):
    """The half-width of every banded Cholesky factorization ``fem`` makes from now on."""
    widths = []
    original = fem.dpbtrf

    def recorded(ab, *args, **kwargs):
        widths.append(ab.shape[0] - 1)
        return original(ab, *args, **kwargs)

    monkeypatch.setattr(fem, "dpbtrf", recorded)
    return widths


def traction_tangent_problem(n, relaxed, seed=0):
    """(system, tangent, elements, B_free) of a bottom-clamped mesh, some of its cells plastic.

    ``elements`` is the mesh's element map of the free dofs or, if
    ``relaxed``, the slip set's, with one slip unknown per bottom slip node.
    ``B_free`` is the strain operator of the same unknowns, sliced from
    ``mesh.B``: a slip s moves its node by -s t.
    """
    mesh = build_square_mesh(n, ("bottom",))
    hooke = HookeTensor(1.0, 1.0, 1.0)
    system = ElasticSystem(mesh, hooke)
    e_dev = np.random.default_rng(seed).standard_normal((mesh.n_cells, 3)) * 0.4
    e_dev[:, 2] = -e_dev[:, 0]
    tangent = consistent_tangent(e_dev, np.zeros_like(e_dev), hooke, YieldSet(1.0))
    elements, B_free = mesh.elements, mesh.B[:, system.free]
    if relaxed:
        slip = slip_nodes_of(system)
        nodes, t = slip.nodes, slip.tangents
        B_slip = -(mesh.B[:, 2 * nodes] @ sp.diags(t[:, 0])
                   + mesh.B[:, 2 * nodes + 1] @ sp.diags(t[:, 1]))
        elements, B_free = slip.elements, sp.hstack([B_free, B_slip])
    return system, tangent, elements, B_free.tocsr()


class TestTangentSolve:
    @pytest.mark.parametrize("relaxed", [False, True])
    @pytest.mark.parametrize("with_shift", [False, True])
    def test_matches_sparse_direct_solve(self, relaxed, with_shift):
        system, tangent, elements, B_free = traction_tangent_problem(8, relaxed)
        rng = np.random.default_rng(1)
        n_free, size = system.free.size, B_free.shape[1]
        rhs = rng.standard_normal(size)
        shift = rng.uniform(0.0, 0.1, n_free) if with_shift else np.zeros(n_free)
        stuck = np.zeros(0, dtype=int)
        if relaxed:
            # a bottom face sliding as a whole: the slips are always damped;
            # every third slip is stuck, held at its rhs entry
            shift = np.concatenate([shift, np.full(size - n_free, 1e-2)])
            stuck = np.arange(n_free, size, 3)
        x = system.solve_tangent(tangent, rhs, elements, shift if shift.any() else None,
                                 stuck if relaxed else None)

        # oracle: the stuck slips take their rhs entries, the others solve the
        # reduced system B_free^T D B_free + diag(shift) with those moved to the rhs
        mesh = system.mesh
        D = sp.block_diag(mesh.areas[:, None, None] * WEIGHTS[None, :, None] * tangent)
        K = (B_free.T @ D @ B_free + sp.diags(shift)).tocsr()
        rest = np.setdiff1d(np.arange(size), stuck)
        x_ref = np.zeros(size)
        x_ref[stuck] = rhs[stuck]
        x_ref[rest] = spla.spsolve(K[rest][:, rest].tocsc(),
                                   rhs[rest] - K[rest][:, stuck] @ rhs[stuck])
        scale = np.linalg.norm(rhs) + np.linalg.norm(x_ref) + 1.0
        assert np.linalg.norm(x - x_ref) <= 1e-10 * scale

    def test_singular_tangent_raises(self):
        system, tangent, _, _ = traction_tangent_problem(4, relaxed=False)
        rhs = np.ones(system.free.size)
        with pytest.raises(SolverError, match="tangent factorization failed"):
            system.solve_tangent(np.zeros_like(tangent), rhs)

    @pytest.mark.parametrize("relaxed", [False, True])
    def test_band_stays_narrow(self, monkeypatch, relaxed):
        # row-major dof order: half-bandwidth 37 at n=16, with the slips or
        # without; the slips appended last would give a dense 544-wide band
        system, tangent, elements, B_free = traction_tangent_problem(16, relaxed)
        widths = record_band_widths(monkeypatch)
        system.solve_tangent(tangent, np.ones(B_free.shape[1]), elements)
        assert len(widths) == 1
        assert widths[0] < 40


def test_stiffness_diagonals_match_the_sparse_stiffness():
    """The free dofs' and the slips' stiffness, summed from the cell blocks, are the diagonal
    of B^T blockdiag(area W C) B on the slip set's unknowns."""
    system, _, _, B_free = traction_tangent_problem(8, relaxed=True)
    mesh, n_free = system.mesh, system.free.size
    D = sp.block_diag(mesh.areas[:, None, None] * WEIGHTS[None, :, None] * system.cmat)
    want = (B_free.T @ D @ B_free).diagonal()
    np.testing.assert_allclose(system.stiffness_diagonal, want[:n_free], rtol=1e-13)
    np.testing.assert_allclose(slip_nodes_of(system).stiffness, want[n_free:], rtol=1e-13)


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
