"""Per-mesh cached operators and the load program's load assembly.

The mesh's triangles and boundary arrays, the cached load maps and the
array-based boundary code are checked against the loops in ``oracles``, and a
program's loads against the per-step assembly; the work counts check that
operators are built once per mesh, per-system invariants once per system, a
program's loads and datum strains once per program, not once per evolution or
step, each strain once, and that the CLI holds one state at a time, not the
whole evolution.
"""

import gc
import os
import sys
import tracemalloc
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._base import _spbase

from oracles import (
    body_load_vector_loop,
    datum_strains_stacked,
    flux_residual_loop,
    load_vectors_stacked,
    square_mesh_loop,
    traction_load_vector_loop,
)

import rigiplast.fem
from rigiplast import cli, evolution
from rigiplast.benchmarks import benchmark_catalog
from rigiplast.evolution import EnergyLedger, FEState, LoadProgram, evolve, run_evolution
from rigiplast.fem import (
    ElasticSystem,
    body_load_vector,
    divergence_check,
    external_load_vector,
    integrate_tensor_dot,
    strain_of,
    traction_load_vector,
)
from rigiplast.mesh import FACES, build_square_mesh
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


def _assert_same(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def _edge_columns(rows):
    """The numeric ``EdgeArrays`` fields of ``square_mesh_loop``'s boundary rows, by name."""
    return {"nodes": np.array([r[0] for r in rows], dtype=int).reshape(-1, 2),
            "normals": np.array([r[1] for r in rows], dtype=float).reshape(-1, 2),
            "lengths": np.array([r[2] for r in rows], dtype=float),
            "cells": np.array([r[3] for r in rows], dtype=int),
            "dirichlet": np.array([r[4] for r in rows], dtype=bool)}


@pytest.mark.parametrize("faces", [("bottom",), ("left", "top"), ("bottom", "left", "right"), FACES],
                         ids=["bottom", "left_top", "bottom_left_right", "all_faces"])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 32, 64])
def test_mesh_arrays_match_the_loops(n, faces):
    mesh = build_square_mesh(n, faces)
    triangles, areas, rows = square_mesh_loop(n, faces)
    _assert_same(mesh.triangles, triangles)
    _assert_same(mesh.areas, areas)
    dirichlet_rows = [r for r in rows if r[4]]
    for edges, want in ((mesh.boundary, rows),
                        (mesh.neumann_boundary, [r for r in rows if not r[4]]),
                        (mesh.dirichlet_boundary, dirichlet_rows)):
        for name, column in _edge_columns(want).items():
            _assert_same(getattr(edges, name), column)
        assert edges.faces.tolist() == [r[5] for r in want]  # by value: selections keep <U6
    _assert_same(mesh.dirichlet_nodes,
                 np.array(sorted({nd for r in dirichlet_rows for nd in r[0]}), dtype=int))


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
    assert np.array_equal(program.loads, load_vectors_stacked(mesh, f, g))
    assert program.loads is program.loads
    with pytest.raises(ValueError):
        program.loads[0, 0] = 0.0
    # the ledger's mid-step loads, taken step by step, are the stacked product bit for bit
    mid_loads = load_vectors_stacked(mesh, 0.5 * (f[1:] + f[:-1]), 0.5 * (g[1:] + g[:-1]))
    for k in range(1, n_t):
        f_mid, g_mid = 0.5 * (f[k] + f[k - 1]), 0.5 * (g[k] + g[k - 1])
        assert np.array_equal(mid_loads[k - 1], external_load_vector(mesh, f_mid, g_mid))


@pytest.mark.parametrize("n", [4, 16, 32])
def test_datum_strains_equal_the_stacked_product(n):
    """``strain_of`` of each grid time's datum, which the program's check and the ledger take,
    is the row of the one stacked product bit for bit."""
    mesh = build_square_mesh(n, FACES)
    w = np.random.default_rng(n).standard_normal((6, mesh.n_nodes, 2))
    stacked = datum_strains_stacked(SimpleNamespace(mesh=mesh, times=np.arange(6.0), w=w))
    for k in range(6):
        assert np.array_equal(strain_of(w[k], mesh), stacked[k])


@pytest.mark.parametrize("bench_id, epsilon, mode", [
    ("TRACTION", 1.0, "strong"), ("TRACTION", 1.0, "relaxed"), ("SHEAR", 0.25, "strong"),
], ids=["traction-strong", "traction-relaxed", "shear-strong"])
def test_ledger_work_equals_the_stacked_formulas(bench_id, epsilon, mode):
    """The W column, with the datum strains and the mid-step loads taken step by step, is the
    one of the stacked products bit for bit."""
    bench = benchmark_catalog(bench_id, mesh_n=8, n_steps=8)
    program, mesh = bench.program, bench.mesh
    states, ledger = run_evolution(program, bench.hooke.with_epsilon(epsilon), bench.yield_set,
                                   mesh, mode=mode)
    assert ledger.dissipation[-1] > 0.0
    ew, w, f, g = datum_strains_stacked(program), program.w, program.f, program.g
    mid_loads = load_vectors_stacked(mesh, 0.5 * (f[1:] + f[:-1]), 0.5 * (g[1:] + g[:-1]))
    work = np.zeros(len(states))
    for k in range(1, len(states)):
        state, prev = states[k], states[k - 1]
        work_inc = integrate_tensor_dot(mesh.areas, 0.5 * (state.sigma + prev.sigma),
                                        ew[k] - ew[k - 1])
        du_dw = (state.u - prev.u) - (w[k] - w[k - 1])
        work[k] = work[k - 1] + (work_inc + float(mid_loads[k - 1] @ du_dw.ravel()))
    assert np.array_equal(ledger.work, work)


def test_making_a_program_allocates_no_all_times_strain():
    """Making the SHEAR program at n=32, M=64 and taking its loads allocates no array of
    (M+1) n_cells 3 doubles beyond the arrays the program keeps: its div w check takes the
    datum strains time by time, and its loads are filled row by row."""
    source = benchmark_catalog("SHEAR", mesh_n=32, n_steps=64).program
    mesh = source.mesh
    mesh.body_load_map, mesh.traction_load_map  # the mesh's own operators, built on first use
    tracemalloc.start()
    try:
        program = LoadProgram(mesh, source.times, source.w, source.f, source.g)
        program.loads
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept < len(source.times) * mesh.n_cells * 3 * 8


def test_the_ledger_holds_no_all_times_array():
    """Recording the ledger of a TRACTION run allocates no all-times datum-strain or mid-load
    array: the smallest of them, M mid-step load vectors, outweighs its peak."""
    bench = benchmark_catalog("TRACTION", mesh_n=16, n_steps=32)
    program = bench.program
    steps = list(evolve(program, ElasticSystem(bench.mesh, bench.hooke.with_epsilon(1.0)),
                        bench.yield_set))
    ledger = EnergyLedger.zeros(program.times)
    tracemalloc.start()
    try:
        for _ in ledger.record(iter(steps), program):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ledger.work[-1] > 0.0
    assert peak < program.n_steps * 2 * bench.mesh.n_nodes * 8


def test_cached_arrays_are_read_only():
    mesh = _mixed_mesh()
    arrays = [mesh.dirichlet_nodes, mesh.free_dofs, mesh.lumped_mass, mesh.cell_dofs,
              mesh.cell_strains, mesh.free_inv_mass, *mesh.slip_set[:3]]
    for edges in (mesh.boundary, mesh.neumann_boundary, mesh.dirichlet_boundary):
        arrays += [getattr(edges, f.name) for f in fields(edges)]
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
    """Three epsilons, one mesh, one factorized system, whose factor of K(1) the other two
    share: the free dofs' element map and the cell strain blocks are the mesh's, built once."""
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
    report = run_sweep(SweepConfig(epsilons=(1.0, 0.5, 0.25), benchmark="SHEAR", mesh_n=16,
                                   n_steps=4))
    assert len(systems) == 1
    assert counts == {"element_map": 1, "strain_matrix": 1}
    assert systems[0].mesh is report.benchmark.mesh


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
    assert counts["systems"] == 1  # eps 0.25 is 1/4 of 1: its system shares the first factor
    assert counts["abs_B_T"] == 1
    assert counts["diagonal"] <= counts["systems"]


def test_sweep_takes_each_strain_once(monkeypatch):
    """One strain per iterate, lifted state and velocity, and one datum strain per grid time
    when the program is checked; the state check and the monitors reuse the step's strain."""
    counts = {}
    _count_calls(monkeypatch, "strain_of", counts)
    run_sweep(SweepConfig(epsilons=(1.0, 0.25), benchmark="SHEAR", mesh_n=16, n_steps=4))
    assert counts["strain_of"] <= 24 + 5


def _count_program_work(monkeypatch, counts, strained):
    """Count the load assemblies (``LoadProgram.loads``) and the load vectors of programs, and
    keep the argument of every ``strain_of`` in ``strained`` (see ``_datum_strains``)."""
    loads = LoadProgram.loads.func

    def counted_loads(self):
        counts["loads"] = counts.get("loads", 0) + 1
        return loads(self)

    monkeypatch.setattr(LoadProgram.loads, "func", counted_loads)
    for name in ("body_load_vector", "traction_load_vector"):
        _count_calls(monkeypatch, name, counts)
    strain_of = rigiplast.fem.strain_of

    def kept_strain_of(u, mesh):
        strained.append(u)
        return strain_of(u, mesh)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("rigiplast") and getattr(module, "strain_of", None) is strain_of:
            monkeypatch.setattr(module, "strain_of", kept_strain_of)


def _datum_strains(strained, program):
    """How many of the ``strained`` fields are rows of ``program.w``: its datum strains."""
    return sum(np.shares_memory(u, program.w) for u in strained)


def test_sweep_assembles_loads_and_datum_strains_once(monkeypatch):
    """Two epsilons, one program: its loads are assembled once, two load vectors per grid time,
    and shared by both evolutions, its datum strains are taken once, when it is made and
    checked, and no step assembles a load vector; the sweep keeps no ledger."""
    counts, strained = {}, []
    _count_program_work(monkeypatch, counts, strained)
    report = run_sweep(SweepConfig(epsilons=(1.0, 0.25), benchmark="SHEAR", mesh_n=16,
                                   n_steps=4))
    assert counts == {"loads": 1, "body_load_vector": 5, "traction_load_vector": 5}
    assert _datum_strains(strained, report.benchmark.program) == 5


def test_rigid_residuals_read_the_program_loads(monkeypatch):
    """The limit-system residuals assemble no load vector: they read the program's loads,
    with the same values as a check that assembles each time's loads from f and g."""
    report = run_sweep(SweepConfig(epsilons=(1.0, 0.25), benchmark="SHEAR", mesh_n=8, n_steps=4))
    counts, strained = {}, []
    _count_program_work(monkeypatch, counts, strained)
    residuals = rigid_residuals(report)
    assert counts == {}
    assert strained == []
    program, sigma = report.benchmark.program, report.limit_proxy.sigma
    for k in range(len(report.times)):
        want = divergence_check(sigma[k], program.mesh, program.f[k], program.g[k])
        assert (residuals.equilibrium_interior[k], residuals.equilibrium_flux[k]) == want


def test_traction_run_takes_datum_strains_twice(monkeypatch):
    """Each datum strain twice: once when the program is made, once in the ledger. The steps
    read the program's loads, assembled once; the ledger takes one mid-step load per step."""
    counts, strained = {}, []
    _count_program_work(monkeypatch, counts, strained)
    bench = benchmark_catalog("TRACTION", mesh_n=16, n_steps=32)
    hooke = bench.hooke.with_epsilon(1.0)
    _, ledger = run_evolution(bench.program, hooke, bench.yield_set, bench.mesh)
    assert ledger.iterations.sum() > bench.program.n_steps  # some steps take inner iterations
    assert counts == {"loads": 1, "body_load_vector": 33 + 32, "traction_load_vector": 33 + 32}
    assert _datum_strains(strained, bench.program) == 2 * 33


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
    steps = evolution.evolve(bench.program,
                             ElasticSystem(bench.mesh, bench.hooke.with_epsilon(1.0)),
                             bench.yield_set, mode=mode)
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


@pytest.mark.parametrize("command, text, n_eps", [
    ("run", "benchmark = TRACTION\nmesh_n = 4\ntime_steps = 16\n", 1),
    ("sweep", "benchmark = SHEAR\nmesh_n = 4\ntime_steps = 16\n"
              "epsilon_list = 1.0, 0.25, 0.0625\n", 3),
], ids=["run", "sweep"])
def test_cli_streams_the_states(monkeypatch, tmp_path, command, text, n_eps):
    """``run`` and ``sweep`` hold at most one state per epsilon of the lane, plus the one a
    step is making, at any step: not the whole evolution."""
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
    assert len(live) == n_eps * 16
    assert max(live) <= n_eps + 1
