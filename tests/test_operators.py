"""Per-mesh cached operators and the load program's load assembly.

The cached load maps and the array-based boundary code are checked against
the per-edge loops in ``oracles``, and a program's loads against the per-step
assembly; the work counts check that operators are built once per mesh,
per-system invariants once per system, a program's loads and datum strains
once per program, not once per evolution or step, each strain once, and that
the CLI holds one state at a time, not the whole evolution.
"""

import gc
import os
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._base import _spbase

from oracles import body_load_vector_loop, flux_residual_loop, traction_load_vector_loop

import rigiplast.fem
from rigiplast import cli, evolution
from rigiplast.benchmarks import benchmark_catalog
from rigiplast.evolution import FEState, LoadProgram, run_evolution
from rigiplast.fem import (
    ElasticSystem,
    body_load_vector,
    divergence_check,
    external_load_vector,
    traction_load_vector,
)
from rigiplast.mesh import DIRICHLET, build_square_mesh
from rigiplast.sweep import SweepConfig, rigid_residuals, run_sweep

RTOL = 1e-14


def _traction_mesh():
    return benchmark_catalog("TRACTION", mesh_n=16, n_steps=1).mesh


def _mixed_mesh():
    return build_square_mesh(7, ("left", "top"))


MESHES = [_traction_mesh, _mixed_mesh]


def _assert_close(got, want):
    scale = max(float(np.abs(want).max()), 1e-300)
    assert float(np.abs(got - want).max()) <= RTOL * scale


@pytest.mark.parametrize("make_mesh", MESHES)
class TestAgainstLoops:
    def test_body_load_map(self, make_mesh):
        mesh = make_mesh()
        f = np.random.default_rng(1).standard_normal((mesh.n_cells, 2))
        _assert_close(body_load_vector(mesh, f), body_load_vector_loop(mesh, f))

    def test_traction_load_map(self, make_mesh):
        mesh = make_mesh()
        g = np.random.default_rng(2).standard_normal((len(mesh.neumann_edges), 2))
        _assert_close(traction_load_vector(mesh, g), traction_load_vector_loop(mesh, g))

    def test_flux_residual(self, make_mesh):
        mesh = make_mesh()
        rng = np.random.default_rng(3)
        sigma = rng.standard_normal((mesh.n_cells, 3))
        g = rng.standard_normal((len(mesh.neumann_edges), 2))
        _, flux = divergence_check(sigma, mesh, None, g)
        want = flux_residual_loop(mesh, sigma, g)
        assert abs(flux - want) <= RTOL * want

    def test_edge_arrays_match_edges(self, make_mesh):
        mesh = make_mesh()
        for arrays, edges in ((mesh.boundary, mesh.edges),
                              (mesh.neumann_boundary, mesh.neumann_edges),
                              (mesh.dirichlet_boundary, mesh.dirichlet_edges)):
            assert len(arrays.lengths) == len(edges)
            for j, e in enumerate(edges):
                assert tuple(arrays.nodes[j]) == e.nodes
                assert np.array_equal(arrays.normals[j], e.normal)
                assert arrays.lengths[j] == e.length
                assert arrays.cells[j] == e.cell
                assert arrays.dirichlet[j] == (e.label == DIRICHLET)
                assert arrays.faces[j] == e.face
        want = sorted({nd for e in mesh.dirichlet_edges for nd in e.nodes})
        assert mesh.dirichlet_nodes.tolist() == want


@pytest.mark.parametrize("n", [4, 16, 32])
@pytest.mark.parametrize("faces", [("bottom",), ("left", "top")], ids=["one_face", "two_faces"])
def test_program_loads_equal_the_per_step_assembly(n, faces):
    mesh = build_square_mesh(n, faces)
    rng = np.random.default_rng(n)
    n_t = 6
    f = rng.standard_normal((n_t, mesh.n_cells, 2))
    g = rng.standard_normal((n_t, len(mesh.neumann_edges), 2))
    program = LoadProgram(mesh, np.linspace(0.0, 1.0, n_t), np.zeros((n_t, mesh.n_nodes, 2)), f, g)
    assert program.loads.shape == (n_t, 2 * mesh.n_nodes)
    for k in range(n_t):
        assert np.array_equal(program.loads[k], external_load_vector(mesh, f[k], g[k]))
    assert program.loads is program.loads
    with pytest.raises(ValueError):
        program.loads[0, 0] = 0.0
    # the ledger's mid-step loads, one stacked product, are the per-step vectors bit for bit
    mid_loads = program.load_vectors(0.5 * (f[1:] + f[:-1]), 0.5 * (g[1:] + g[:-1]))
    for k in range(1, n_t):
        f_mid, g_mid = 0.5 * (f[k] + f[k - 1]), 0.5 * (g[k] + g[k - 1])
        assert np.array_equal(mid_loads[k - 1], external_load_vector(mesh, f_mid, g_mid))


def test_cached_arrays_are_read_only():
    mesh = _mixed_mesh()
    arrays = [mesh.dirichlet_nodes, mesh.free_dofs, mesh.lumped_mass, mesh.boundary.nodes,
              mesh.boundary.normals, mesh.boundary.lengths, mesh.boundary.cells,
              mesh.boundary.dirichlet, mesh.neumann_boundary.normals, mesh.cell_dofs,
              mesh.cell_strains, mesh.free_inv_mass, *mesh.slip_set[:3]]
    for op in (mesh.B, mesh.B_T, mesh.body_load_map, mesh.traction_load_map):
        arrays += [op.data, op.indices, op.indptr]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = a[0]


def _count_calls(monkeypatch, name, counts):
    """Count calls of ``rigiplast.fem.<name>`` in every rigiplast module bound to it."""
    original = getattr(rigiplast.fem, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("rigiplast") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)


def test_sweep_builds_strain_matrix_once_per_mesh(monkeypatch):
    counts = {}
    _count_calls(monkeypatch, "strain_matrix", counts)
    run_sweep(SweepConfig(epsilons=(1.0, 0.25), benchmark="SHEAR", mesh_n=16, n_steps=4))
    assert counts == {"strain_matrix": 1}


def test_sweep_builds_the_free_dof_element_map_once_per_mesh(monkeypatch):
    """Three epsilons, three systems, one mesh: the free dofs' element map and the cell strain
    blocks are the mesh's, built once, not once per system."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # one lane, in this process
    counts = {}
    for name in ("element_map", "strain_matrix"):
        _count_calls(monkeypatch, name, counts)
    systems = []
    system_init = ElasticSystem.__init__

    def recorded_system_init(self, *args, **kwargs):
        system_init(self, *args, **kwargs)
        systems.append(self)

    monkeypatch.setattr(ElasticSystem, "__init__", recorded_system_init)
    run_sweep(SweepConfig(epsilons=(1.0, 0.5, 0.25), benchmark="SHEAR", mesh_n=16, n_steps=4))
    assert len(systems) == 3
    assert counts == {"element_map": 1, "strain_matrix": 1}
    assert all(system.mesh is systems[0].mesh for system in systems)


def test_sweep_builds_per_system_invariants_once(monkeypatch):
    """|B^T| is built once per mesh and K's diagonal taken at most once per ElasticSystem."""
    n = 16
    abs_bt_shape = (2 * (n + 1) ** 2, 3 * 2 * n * n)
    counts = {"abs_B_T": 0, "diagonal": 0, "systems": 0}
    csr_init, csc_diagonal, system_init = (sp.csr_matrix.__init__, sp.csc_matrix.diagonal,
                                           ElasticSystem.__init__)

    def counted_csr_init(self, *args, **kwargs):
        csr_init(self, *args, **kwargs)
        if self.shape == abs_bt_shape and self.nnz and self.data.min() >= 0.0:
            counts["abs_B_T"] += 1

    def counted_diagonal(self, *args, **kwargs):
        counts["diagonal"] += 1
        return csc_diagonal(self, *args, **kwargs)

    def counted_system_init(self, *args, **kwargs):
        counts["systems"] += 1
        system_init(self, *args, **kwargs)

    monkeypatch.setattr(sp.csr_matrix, "__init__", counted_csr_init)
    monkeypatch.setattr(sp.csc_matrix, "diagonal", counted_diagonal)
    monkeypatch.setattr(ElasticSystem, "__init__", counted_system_init)
    run_sweep(SweepConfig(epsilons=(1.0, 0.25), benchmark="SHEAR", mesh_n=n, n_steps=4))
    assert counts["systems"] == 2
    assert counts["abs_B_T"] == 1
    assert counts["diagonal"] <= counts["systems"]


def test_sweep_takes_each_strain_once(monkeypatch):
    """One strain per iterate, lifted state and velocity; the state check and the
    monitors reuse the step's strain."""
    counts = {}
    _count_calls(monkeypatch, "strain_of", counts)
    run_sweep(SweepConfig(epsilons=(1.0, 0.25), benchmark="SHEAR", mesh_n=16, n_steps=4))
    assert counts["strain_of"] <= 24


def _count_program_work(monkeypatch, counts):
    """Count the load assemblies (``LoadProgram.loads``) and datum-strain products of programs."""
    loads, datum_strains = LoadProgram.loads.func, LoadProgram.datum_strains

    def counted_loads(self):
        counts["loads"] = counts.get("loads", 0) + 1
        return loads(self)

    def counted_datum_strains(self):
        counts["datum_strains"] = counts.get("datum_strains", 0) + 1
        return datum_strains(self)

    monkeypatch.setattr(LoadProgram.loads, "func", counted_loads)
    monkeypatch.setattr(LoadProgram, "datum_strains", counted_datum_strains)
    for name in ("body_load_vector", "traction_load_vector"):
        _count_calls(monkeypatch, name, counts)


def test_sweep_assembles_loads_and_datum_strains_once(monkeypatch):
    """Two epsilons, one program: its loads are assembled once and shared by both evolutions,
    its datum strains are taken once, when it is made and checked, and no step assembles a
    load vector; the sweep keeps no ledger."""
    counts = {}
    _count_program_work(monkeypatch, counts)
    run_sweep(SweepConfig(epsilons=(1.0, 0.25), benchmark="SHEAR", mesh_n=16, n_steps=4))
    assert counts == {"loads": 1, "datum_strains": 1}


def test_rigid_residuals_read_the_program_loads(monkeypatch):
    """The limit-system residuals assemble no load vector: they read the program's loads,
    with the same values as a check that assembles each time's loads from f and g."""
    report = run_sweep(SweepConfig(epsilons=(1.0, 0.25), benchmark="SHEAR", mesh_n=8, n_steps=4))
    counts = {}
    _count_program_work(monkeypatch, counts)
    residuals = rigid_residuals(report)
    assert counts == {}
    program, sigma = report.benchmark.program, report.limit_proxy.sigma
    for k in range(len(report.times)):
        want = divergence_check(sigma[k], program.mesh, program.f[k], program.g[k])
        assert (residuals.equilibrium_interior[k], residuals.equilibrium_flux[k]) == want


def test_traction_run_takes_datum_strains_twice(monkeypatch):
    """Once when the program is made, once in the ledger; the steps read the program's loads,
    and the ledger assembles no load vector per step: it stacks the mid-step loads."""
    counts = {}
    _count_program_work(monkeypatch, counts)
    bench = benchmark_catalog("TRACTION", mesh_n=16, n_steps=32)
    hooke = bench.hooke.with_epsilon(1.0)
    _, ledger = run_evolution(bench.program, hooke, bench.yield_set, bench.mesh)
    assert ledger.iterations.sum() > bench.program.n_steps  # some steps take inner iterations
    assert counts == {"loads": 1, "datum_strains": 2}


def test_traction_run_orders_the_band_once_per_system(monkeypatch):
    """The band order is fixed when a system and its slip set are built: it is the mesh's
    row-major dof numbering, so two systems serve every Newton tangent of both modes."""
    counts = {"systems": 0, "tangents": 0}
    system_init, solve_tangent = ElasticSystem.__init__, ElasticSystem.solve_tangent

    def counted_system_init(self, *args, **kwargs):
        counts["systems"] += 1
        system_init(self, *args, **kwargs)

    def counted_solve_tangent(self, *args, **kwargs):
        counts["tangents"] += 1
        return solve_tangent(self, *args, **kwargs)

    monkeypatch.setattr(ElasticSystem, "__init__", counted_system_init)
    monkeypatch.setattr(ElasticSystem, "solve_tangent", counted_solve_tangent)
    bench = benchmark_catalog("TRACTION", mesh_n=16, n_steps=32)
    for mode in ("strong", "relaxed"):
        run_evolution(bench.program, bench.hooke.with_epsilon(1.0), bench.yield_set,
                      bench.mesh, mode=mode)
    assert counts["systems"] == 2
    assert counts["tangents"] > 2 * 32


def test_relaxed_run_builds_the_slip_operator_once(monkeypatch):
    """Relaxed mode: the element map of the slip unknowns is the mesh's, built once for two
    evolutions, not once per evolution or step, and no column of B is sliced for it."""
    bench = benchmark_catalog("TRACTION", mesh_n=8, n_steps=8)
    B = bench.mesh.B
    bench.mesh.elements  # the free dofs' map, the mesh's own
    slices = []
    getitem = type(B).__getitem__

    def counted_getitem(self, key):
        if self is B:
            slices.append(key)
        return getitem(self, key)

    counts = {}
    _count_calls(monkeypatch, "element_map", counts)
    monkeypatch.setattr(type(B), "__getitem__", counted_getitem)
    for _ in range(2):
        states, _ = run_evolution(bench.program, bench.hooke.with_epsilon(1.0), bench.yield_set,
                                  bench.mesh, mode="relaxed")
    assert np.abs(states[-1].boundary_slip).max() > 0.0
    # the slip set's map, once per mesh
    assert counts == {"element_map": 1}
    assert slices == []


@pytest.mark.parametrize("mode", ["strong", "relaxed"])
def test_newton_steps_build_no_sparse_matrix(monkeypatch, mode):
    """Once the system and the slip set exist, the steps build no scipy.sparse matrix: every
    tangent is summed straight into its band."""
    tangents = []
    solve_tangent = ElasticSystem.solve_tangent

    def counted_solve_tangent(self, *args, **kwargs):
        tangents.append(len(args[1]))
        return solve_tangent(self, *args, **kwargs)

    monkeypatch.setattr(ElasticSystem, "solve_tangent", counted_solve_tangent)
    bench = benchmark_catalog("TRACTION", mesh_n=16, n_steps=32)
    steps = evolution.evolve(bench.program, bench.hooke.with_epsilon(1.0), bench.yield_set,
                             mode=mode)
    next(steps)  # the zero state: the system and the slip set exist
    for name in ("B_T", "abs_B_T", "body_load_map", "traction_load_map"):
        getattr(bench.mesh, name)  # the mesh's own operators, built on first use
    built = []
    init = _spbase.__init__

    def counted_init(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_spbase, "__init__", counted_init)
    states = [state for state, _ in steps]
    assert len(states) == 32
    assert len(tangents) > 32
    assert built == []


def test_cli_sweep_builds_strain_matrix_once(monkeypatch, tmp_path):
    monkeypatch.delenv("TOOL_OUT", raising=False)
    counts = {}
    _count_calls(monkeypatch, "strain_matrix", counts)
    config = tmp_path / "sweep.cfg"
    config.write_text("benchmark = SHEAR\nmesh_n = 4\ntime_steps = 4\n"
                      "epsilon_list = 1.0, 0.25\n", encoding="utf-8")
    assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert counts == {"strain_matrix": 1}


@pytest.mark.parametrize("command, text, steps", [
    ("run", "benchmark = TRACTION\nmesh_n = 4\ntime_steps = 16\n", 16),
    ("sweep", "benchmark = SHEAR\nmesh_n = 4\ntime_steps = 16\n"
              "epsilon_list = 1.0, 0.25, 0.0625\n", 3 * 16),
], ids=["run", "sweep"])
def test_cli_streams_the_states(monkeypatch, tmp_path, command, text, steps):
    """``run`` and ``sweep`` hold at most two states at any step, not the whole evolution."""
    monkeypatch.delenv("TOOL_OUT", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # one lane, in this process
    live = []
    step = evolution.incremental_step

    def counted(*args, **kwargs):
        live.append(sum(isinstance(obj, FEState) for obj in gc.get_objects()))
        return step(*args, **kwargs)

    monkeypatch.setattr(evolution, "incremental_step", counted)
    gc.collect()  # states that earlier tests left in reference cycles are not this run's
    config = tmp_path / "run.cfg"
    config.write_text(text, encoding="utf-8")
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert len(live) == steps
    assert max(live) <= 2
