"""Per-mesh cached operators and per-step load assembly.

The cached load maps and the array-based boundary code are checked against
the per-edge loops in ``oracles``; the work counts check that operators are
built once per mesh, per-system invariants once per system, loads once per
step, not once per inner iteration, each strain once, and that the CLI holds
one state at a time, not the whole evolution.
"""

import gc
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import body_load_vector_loop, flux_residual_loop, traction_load_vector_loop

import rigiplast.fem
from rigiplast import cli, evolution
from rigiplast.benchmarks import benchmark_catalog
from rigiplast.evolution import FEState, run_evolution
from rigiplast.fem import (
    ElasticSystem,
    body_load_vector,
    divergence_check,
    traction_load_vector,
)
from rigiplast.mesh import DIRICHLET, build_square_mesh
from rigiplast.sweep import SweepConfig, run_sweep

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


def test_cached_arrays_are_read_only():
    mesh = _mixed_mesh()
    arrays = [mesh.dirichlet_nodes, mesh.free_dofs, mesh.lumped_mass, mesh.boundary.nodes,
              mesh.boundary.normals, mesh.boundary.lengths, mesh.boundary.cells,
              mesh.boundary.dirichlet, mesh.neumann_boundary.normals]
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
    """One strain per iterate, lifted state and velocity; the state check, the monitors
    and the ledger reuse the step's strain and the datum strains of validate."""
    counts = {}
    _count_calls(monkeypatch, "strain_of", counts)
    run_sweep(SweepConfig(epsilons=(1.0, 0.25), benchmark="SHEAR", mesh_n=16, n_steps=4))
    assert counts["strain_of"] <= 24


def test_traction_run_assembles_loads_per_step(monkeypatch):
    counts = {}
    for name in ("body_load_vector", "traction_load_vector"):
        _count_calls(monkeypatch, name, counts)
    bench = benchmark_catalog("TRACTION", mesh_n=16, n_steps=32)
    hooke = bench.hooke.with_epsilon(1.0)
    _, ledger = run_evolution(bench.program, hooke, bench.yield_set, bench.mesh)
    steps = bench.program.n_steps
    assert ledger.iterations.sum() > steps  # some steps take inner iterations
    # one body and one traction load per step in incremental_step, and the same in the ledger
    assert sum(counts.values()) == 4 * steps


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
    live = []
    step = evolution.incremental_step

    def counted(*args, **kwargs):
        live.append(sum(isinstance(obj, FEState) for obj in gc.get_objects()))
        return step(*args, **kwargs)

    monkeypatch.setattr(evolution, "incremental_step", counted)
    config = tmp_path / "run.cfg"
    config.write_text(text, encoding="utf-8")
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert len(live) == steps
    assert max(live) <= 2
