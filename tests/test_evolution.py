"""Incremental minimization, evolutions, energy bookkeeping, duality pairing."""

import json

import numpy as np
import pytest

from rigiplast import cli, evolution
from rigiplast.benchmarks import benchmark_catalog
from rigiplast.evolution import (
    ConvergenceError,
    EnergyLedger,
    FEState,
    LoadProgram,
    bd_norm_surrogate,
    duality_pairing,
    energy_report,
    evolve,
    incremental_step,
    pairing_mass_bound,
    run_evolution,
    slip_nodes_of,
)
from rigiplast.fem import ElasticSystem, strain_of, tensor_l2
from rigiplast.mesh import FACES, build_square_mesh
from rigiplast.tensors import HookeTensor, YieldSet, ddot, deviator, norm

HOOKE = HookeTensor(1.0, 1.0, 1.0)
YSET = YieldSet(1.0)


def shear_program(mesh, gamma, n_steps, horizon=1.0):
    times = np.linspace(0.0, horizon, n_steps + 1)
    w = np.array([t * gamma * np.column_stack([mesh.nodes[:, 1],
                                               np.zeros(mesh.n_nodes)])
                  for t in times])
    f = np.zeros((n_steps + 1, mesh.n_cells, 2))
    g = np.zeros((n_steps + 1, len(mesh.neumann_edges), 2))
    return LoadProgram(mesh, times, w, f, g)


def zero_program(mesh, n_steps=1):
    times = np.linspace(0.0, 1.0, n_steps + 1)
    return LoadProgram(mesh, times,
                       np.zeros((n_steps + 1, mesh.n_nodes, 2)),
                       np.zeros((n_steps + 1, mesh.n_cells, 2)),
                       np.zeros((n_steps + 1, len(mesh.neumann_edges), 2)))


class TestLoadProgram:
    """A program is checked when it is made on its mesh."""

    def test_rejects_divergent_boundary_field(self):
        mesh = build_square_mesh(3, FACES)
        times = np.linspace(0, 1, 3)
        w = np.array([t * mesh.nodes for t in times])  # div = 2t
        with pytest.raises(ValueError, match="divergence-free at t=0.5"):
            LoadProgram(mesh, times, w, np.zeros((3, mesh.n_cells, 2)), np.zeros((3, 0, 2)))

    def test_rejects_non_increasing_grid(self):
        mesh = build_square_mesh(2, FACES)
        times = np.array([0.0, 0.5, 0.5])
        with pytest.raises(ValueError, match="strictly increasing"):
            LoadProgram(mesh, times, np.zeros((3, mesh.n_nodes, 2)),
                        np.zeros((3, mesh.n_cells, 2)), np.zeros((3, 0, 2)))

    def test_rejects_a_scalar_time_grid(self):
        mesh = build_square_mesh(2, FACES)
        with pytest.raises(ValueError, match="at least two points"):
            LoadProgram(mesh, np.array(0.0), np.zeros((1, mesh.n_nodes, 2)),
                        np.zeros((1, mesh.n_cells, 2)), np.zeros((1, 0, 2)))

    def test_rejects_shapes_of_another_mesh(self):
        mesh, other = build_square_mesh(2, FACES), build_square_mesh(3, FACES)
        times = np.linspace(0, 1, 3)
        with pytest.raises(ValueError, match=r"boundary field shape \(3, 16, 2\)"):
            LoadProgram(mesh, times, np.zeros((3, other.n_nodes, 2)),
                        np.zeros((3, mesh.n_cells, 2)), np.zeros((3, 0, 2)))
        with pytest.raises(ValueError, match=r"body load shape \(3, 18, 2\)"):
            LoadProgram(mesh, times, np.zeros((3, mesh.n_nodes, 2)),
                        np.zeros((3, other.n_cells, 2)), np.zeros((3, 0, 2)))
        bottom = build_square_mesh(2, ("bottom",))
        with pytest.raises(ValueError, match=r"traction shape \(3, 0, 2\)"):
            LoadProgram(bottom, times, np.zeros((3, bottom.n_nodes, 2)),
                        np.zeros((3, bottom.n_cells, 2)), np.zeros((3, 0, 2)))


class TestIncrementalStep:
    def test_zero_loads_zero_state(self):
        mesh = build_square_mesh(3, FACES)
        prev = FEState.zeros(mesh)
        state, info = incremental_step(
            prev, 0.5, np.zeros((mesh.n_nodes, 2)), np.zeros((mesh.n_nodes, 2)),
            np.zeros(2 * mesh.n_nodes), ElasticSystem(mesh, HOOKE), YSET)
        assert np.abs(state.u).max() == 0.0
        assert np.abs(state.p).max() == 0.0
        assert np.abs(state.sigma).max() == 0.0

    def test_elastic_step_matches_pure_solve(self):
        mesh = build_square_mesh(4, FACES)
        gamma = 0.3  # trial stress 2*0.3/sqrt(2)/2 well inside K
        w = gamma * np.column_stack([mesh.nodes[:, 1], np.zeros(mesh.n_nodes)])
        prev = FEState.zeros(mesh)
        system = ElasticSystem(mesh, HOOKE)
        state, _ = incremental_step(prev, 1.0, w, np.zeros_like(w), np.zeros(2 * mesh.n_nodes),
                                    system, YSET)
        assert np.abs(state.p).max() == 0.0
        u_ref = system.solve(np.zeros((mesh.n_cells, 3)), w)
        np.testing.assert_allclose(state.u, u_ref, atol=1e-12)

    def test_convergence_error_carries_history(self, monkeypatch):
        monkeypatch.setattr(evolution, "_MAX_ITERS", 2)
        monkeypatch.setattr(evolution, "_ROUNDOFF", 0.0)  # no residual passes 1e-300
        mesh = build_square_mesh(3, ("bottom",))
        w = 3.0 * np.column_stack([mesh.nodes[:, 0], -mesh.nodes[:, 1]])
        prev = FEState.zeros(mesh)
        with pytest.raises(ConvergenceError) as err:
            incremental_step(prev, 1.0, w, np.zeros_like(w), np.zeros(2 * mesh.n_nodes),
                             ElasticSystem(mesh, HOOKE), YSET, stress_tol=1e-300)
        assert err.value.state is not None
        assert len(err.value.decrease_history) == 2

    def test_convergence_error_carries_residual_history(self, monkeypatch):
        monkeypatch.setattr(evolution, "_MAX_ITERS", 1)
        mesh = build_square_mesh(3, ("bottom",))
        w = 3.0 * np.column_stack([mesh.nodes[:, 0], -mesh.nodes[:, 1]])
        with pytest.raises(ConvergenceError) as err:
            incremental_step(FEState.zeros(mesh), 1.0, w, np.zeros_like(w),
                             np.zeros(2 * mesh.n_nodes), ElasticSystem(mesh, HOOKE), YSET)
        # the predictor's residual, then one per Newton iteration
        assert len(err.value.residual_history) == 2
        assert err.value.residual_history[0] > 1e-10

    def test_step_info_reports_solver_work(self):
        # a stiff clamped fiber stretched while its whole face may slip: the
        # Newton system is flat along the face's translation and needs damping
        mesh = build_square_mesh(3, ("bottom",))
        w = 0.75 * np.column_stack([mesh.nodes[:, 0], -mesh.nodes[:, 1]])
        stiff = HookeTensor(1.0, 1.0, 0.01)
        system = ElasticSystem(mesh, stiff)
        slip = slip_nodes_of(system)
        state, info = incremental_step(FEState.zeros(mesh, slip.count), 0.25, w,
                                       np.zeros_like(w), np.zeros(2 * mesh.n_nodes), system,
                                       YSET, slip=slip)
        assert info.iterations == 1 + len(info.decreases) > 1
        assert 0.0 <= info.residual <= 1e-10 * YSET.radius
        assert info.backtracks > 0
        assert np.abs(state.boundary_slip).max() > 0.0

    @staticmethod
    def _plastic_step(monkeypatch, spoil):
        """A plastic step of a clamped block whose Newton tangent on call n is ``spoil(n, D)``."""
        calls = []
        tangent = evolution.consistent_tangent

        def spoiled(*args):
            calls.append(None)
            return spoil(len(calls), tangent(*args))

        monkeypatch.setattr(evolution, "consistent_tangent", spoiled)
        mesh = build_square_mesh(3, ("bottom",))
        w = 3.0 * np.column_stack([mesh.nodes[:, 0], -mesh.nodes[:, 1]])
        return incremental_step(FEState.zeros(mesh), 1.0, w, np.zeros_like(w),
                                np.zeros(2 * mesh.n_nodes), ElasticSystem(mesh, HOOKE), YSET)

    def test_a_failed_direction_recovers_through_damping(self, monkeypatch):
        """A negated tangent on the first Newton call gives no descent direction: the step
        stays at its predictor, records a zero decrease, and converges on the damped
        directions that follow."""
        _, plain = self._plastic_step(monkeypatch, lambda n, d: d)
        state, info = self._plastic_step(monkeypatch, lambda n, d: -d if n == 1 else d)
        assert info.decreases[0] == 0.0 and min(info.decreases) >= 0.0
        assert info.iterations == 1 + len(info.decreases) > plain.iterations
        assert info.residual <= 1e-10 * YSET.radius

    def test_a_tangent_that_fails_on_every_call_stalls(self, monkeypatch):
        """Where every direction fails, each retry repeats the predictor's residual, and
        ``_stop`` ends the step "stalled" after ``_MAX_STALLED`` retries."""
        with pytest.raises(ConvergenceError) as err:
            self._plastic_step(monkeypatch, lambda n, d: np.full_like(d, np.nan))
        assert err.value.reason == "stalled"
        assert err.value.decrease_history == [0.0] * evolution._MAX_STALLED
        residuals = err.value.residual_history
        assert residuals == [residuals[0]] * (1 + evolution._MAX_STALLED)

    def test_a_negated_tangent_on_every_call_is_damped_into_descent(self, monkeypatch):
        """Damping ten times harder after each failure makes the negated Newton system
        positive definite within ``_MAX_STALLED`` retries: the step then descends (slowly,
        as a scaled gradient method) until its iteration cap."""
        monkeypatch.setattr(evolution, "_MAX_ITERS", 40)
        with pytest.raises(ConvergenceError) as err:
            self._plastic_step(monkeypatch, lambda n, d: -d)
        decreases, residuals = err.value.decrease_history, err.value.residual_history
        assert err.value.reason == "iteration cap"
        assert 1 + len(decreases) == len(residuals) == 41
        first_descent = next(i for i, d in enumerate(decreases) if d > 0.0)
        assert 0 < first_descent < evolution._MAX_STALLED
        assert min(decreases) == 0.0 and residuals[-1] < residuals[0]

    def test_slips_must_match_the_slip_set(self):
        mesh = build_square_mesh(3, ("bottom",))
        with pytest.raises(ValueError, match="2 previous slips for 0 slip nodes"):
            incremental_step(FEState.zeros(mesh, 2), 1.0, np.zeros((mesh.n_nodes, 2)),
                             np.zeros((mesh.n_nodes, 2)), np.zeros(2 * mesh.n_nodes),
                             ElasticSystem(mesh, HOOKE), YSET)

    def test_invalid_tol(self):
        mesh = build_square_mesh(2, FACES)
        system = ElasticSystem(mesh, HOOKE)
        zeros = np.zeros((mesh.n_nodes, 2))
        for value in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="stress_tol must be positive"):
                incremental_step(FEState.zeros(mesh), 0.0, zeros, zeros,
                                 np.zeros(2 * mesh.n_nodes), system, YSET, stress_tol=value)


@pytest.fixture(scope="module")
def shear_run():
    mesh = build_square_mesh(4, FACES)
    prog = shear_program(mesh, 4.0, 16)
    states, ledger = run_evolution(prog, HOOKE, YSET, mesh)
    return mesh, prog, states, ledger


class TestShearEvolution:
    gamma = 4.0

    @pytest.fixture
    def run(self, shear_run):
        return shear_run

    def test_yield_time_within_one_step(self, run):
        mesh, prog, states, ledger = run
        t_y = HOOKE.epsilon * YSET.radius / (np.sqrt(2) * HOOKE.shear_modulus * self.gamma)
        first_plastic = next(k for k in range(1, 17) if ledger.dissipation[k] > 0)
        dt = prog.times[1] - prog.times[0]
        assert prog.times[first_plastic - 1] <= t_y <= prog.times[first_plastic] + dt

    def test_post_yield_stress(self, run):
        _, _, states, _ = run
        np.testing.assert_allclose(states[-1].sigma[:, 1],
                                   YSET.radius / np.sqrt(2), rtol=1e-8)

    def test_constraint_maintained_every_step(self, run):
        _, _, states, _ = run
        for st in states:
            dev = deviator(st.sigma)
            assert norm(dev).max() <= YSET.radius * (1 + 1e-10)

    def test_hill_identity_per_step(self, run):
        mesh, _, states, _ = run
        total_lhs = total_rhs = 0.0
        for prev, cur in zip(states, states[1:]):
            dp = cur.p - prev.p
            if norm(dp).max() == 0:
                continue
            dev = deviator(cur.sigma)
            total_lhs += float((mesh.areas * ddot(dev, dp)).sum())
            total_rhs += float((mesh.areas * YSET.radius * norm(dp)).sum())
            cellwise = ddot(dev, dp) - YSET.radius * norm(dp)
            assert np.abs(cellwise).max() < 1e-10
        assert total_lhs == pytest.approx(total_rhs, rel=1e-8)

    def test_dissipation_monotone_energy_one_sided(self, run):
        _, _, _, ledger = run
        assert np.all(np.diff(ledger.dissipation) >= 0)
        assert np.all(ledger.elastic >= 0)
        budget = 2.0 * ledger.gap.max() + 1e-12
        assert np.all(ledger.elastic + ledger.dissipation
                      <= ledger.work + ledger.elastic[0] + budget)

    def test_additive_decomposition(self, run):
        mesh, _, states, _ = run
        for st in states[::4]:
            eu = strain_of(st.u, mesh)
            assert norm(eu - st.e - st.p).max() < 1e-10 * max(1, norm(eu).max())

    def test_rate_independence_under_refinement(self, run):
        mesh, prog, states, _ = run
        fine = shear_program(mesh, self.gamma, 32)
        states2, _ = run_evolution(fine, HOOKE, YSET, mesh)
        diff = tensor_l2(mesh.areas, states[-1].p - states2[-1].p)
        dt = 1.0 / 16
        scale = tensor_l2(mesh.areas, states[-1].p)
        assert diff <= 2.0 * self.gamma * dt * max(scale, 1.0)


class TestRunEvolutionEdges:
    def test_single_trivial_step(self):
        mesh = build_square_mesh(2, FACES)
        states, ledger = run_evolution(zero_program(mesh), HOOKE, YSET, mesh)
        assert len(states) == 2
        for st in states:
            assert np.abs(st.u).max() == 0.0
        assert np.abs(ledger.gap).max() == 0.0
        assert ledger.dissipation[-1] == 0.0

    def test_elastic_ramp_exact_balance(self):
        mesh = build_square_mesh(4, FACES)
        prog = shear_program(mesh, 0.5, 8)  # stays inside K
        states, ledger = run_evolution(prog, HOOKE, YSET, mesh)
        assert ledger.dissipation[-1] == 0.0
        scale = max(1.0, abs(ledger.work[-1]))
        assert np.abs(ledger.gap).max() <= 1e-10 * scale

    def test_step_error_tagged_with_index(self, monkeypatch):
        monkeypatch.setattr(evolution, "_MAX_ITERS", 2)
        monkeypatch.setattr(evolution, "_ROUNDOFF", 0.0)  # no residual passes 1e-300
        mesh = build_square_mesh(3, ("bottom",))
        times = np.linspace(0, 1, 5)
        w = np.array([t * 3.0 * np.column_stack([mesh.nodes[:, 0],
                                                 -mesh.nodes[:, 1]])
                      for t in times])
        prog = LoadProgram(mesh, times, w, np.zeros((5, mesh.n_cells, 2)),
                           np.zeros((5, len(mesh.neumann_edges), 2)))
        with pytest.raises(ConvergenceError) as err:
            run_evolution(prog, HOOKE, YSET, mesh, stress_tol=1e-300)
        assert err.value.step_index is not None

    def test_unknown_mode_fails_before_building(self, monkeypatch):
        built = []
        monkeypatch.setattr(evolution, "slip_nodes_of", built.append)
        monkeypatch.setattr(evolution.SlipNodes, "none", built.append)
        mesh = build_square_mesh(2, FACES)
        prog = zero_program(mesh)
        with pytest.raises(ValueError, match="unknown boundary mode 'slippery'"):
            next(evolve(prog, ElasticSystem(mesh, HOOKE), YSET, mode="slippery"))
        assert built == []

    def test_system_must_be_on_the_programs_mesh(self):
        prog = zero_program(build_square_mesh(2, FACES))
        with pytest.raises(ValueError, match="not on the mesh the program was made on"):
            next(evolve(prog, ElasticSystem(build_square_mesh(2, FACES), HOOKE), YSET))

    def test_mesh_must_be_the_programs(self):
        prog = zero_program(build_square_mesh(2, FACES))
        with pytest.raises(ValueError, match="not the mesh the program was made on"):
            run_evolution(prog, HOOKE, YSET, build_square_mesh(2, FACES))


class TestEnergyReport:
    def test_zero_evolution_zero_gaps(self):
        mesh = build_square_mesh(2, FACES)
        prog = zero_program(mesh, 4)
        states, ledger = run_evolution(prog, HOOKE, YSET, mesh)
        rep = energy_report(states, ledger, prog)
        assert rep.max_gap == 0.0
        assert not rep.flagged.any()

    def test_halving_reduces_gap(self):
        mesh = build_square_mesh(4, FACES)
        gaps = []
        for m in (8, 16):
            prog = shear_program(mesh, 4.0, m)
            states, ledger = run_evolution(prog, HOOKE, YSET, mesh)
            gaps.append(energy_report(states, ledger, prog).max_gap)
        assert gaps[1] <= 0.6 * gaps[0]

    def test_budget_flagging(self):
        mesh = build_square_mesh(4, FACES)
        prog = shear_program(mesh, 4.0, 8)
        states, ledger = run_evolution(prog, HOOKE, YSET, mesh)
        rep = energy_report(states, ledger, prog, budget_constant=1e-15)
        assert rep.flagged.any()
        measured = rep.max_gap / float(np.max(np.diff(prog.times)))
        rep_ok = energy_report(states, ledger, prog, budget_constant=10 * measured)
        assert not rep_ok.flagged.any()


@pytest.mark.parametrize("bench_id, epsilon, mode", [
    ("TRACTION", 1.0, "strong"), ("TRACTION", 1.0, "relaxed"), ("SHEAR", 0.25, "strong"),
], ids=["traction-strong", "traction-relaxed", "shear-strong"])
def test_step_info_carries_the_state_energy(bench_id, epsilon, mode):
    """The elastic energy the functional took of the final iterate is ``ElasticSystem.energy``
    of the state's e bit for bit, and the ledger's Q column reads it."""
    bench = benchmark_catalog(bench_id, mesh_n=8, n_steps=8)
    hooke = bench.hooke.with_epsilon(epsilon)
    system = ElasticSystem(bench.mesh, hooke)
    ledger = EnergyLedger.zeros(bench.program.times)
    steps = ledger.record(evolve(bench.program, system, bench.yield_set, mode=mode),
                          bench.program)
    energies = [(info.elastic_energy, system.energy(state.e)) for state, info in steps]
    assert all(ours == want for ours, want in energies)
    assert ledger.elastic.tolist() == [ours for ours, _ in energies]
    assert ledger.dissipation[-1] > 0.0


class TestDualityPairing:
    def test_zero_plastic_strain(self):
        mesh = build_square_mesh(3, FACES)
        w = 0.3 * np.column_stack([mesh.nodes[:, 1], np.zeros(mesh.n_nodes)])
        u = ElasticSystem(mesh, HOOKE).solve(np.zeros((mesh.n_cells, 3)), w)
        e = strain_of(u, mesh)
        sigma = HOOKE.apply(e)
        state = FEState(1.0, u, e, np.zeros((mesh.n_cells, 3)), sigma, np.zeros(0))
        assert abs(duality_pairing(sigma, state, w, mesh)) < 1e-13

    def test_constant_stress_volume_oracle(self):
        mesh = build_square_mesh(4, FACES)
        rng = np.random.default_rng(5)
        sigma = np.tile(rng.standard_normal(3), (mesh.n_cells, 1))
        # manufactured u vanishing at Dirichlet nodes (bubble-like)
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        u = np.column_stack([x * (1 - x) * y * (1 - y),
                             np.sin(np.pi * x) * np.sin(np.pi * y)])
        w = np.zeros_like(u)
        eu = strain_of(u, mesh)
        p = deviator(eu)
        e = eu - p
        state = FEState(1.0, u, e, p, sigma, np.zeros(0))
        got = duality_pairing(sigma, state, w, mesh)
        expected = float((mesh.areas * ddot(deviator(sigma), p)).sum())
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-13)

    def test_mass_bound_on_random_admissible_states(self):
        mesh = build_square_mesh(4, FACES)
        rng = np.random.default_rng(6)
        w = np.zeros((mesh.n_nodes, 2))
        interior = np.setdiff1d(np.arange(mesh.n_nodes), mesh.dirichlet_nodes)
        for _ in range(100):
            sigma = rng.standard_normal((mesh.n_cells, 3))
            u = np.zeros((mesh.n_nodes, 2))
            u[interior] = rng.standard_normal((len(interior), 2))
            eu = strain_of(u, mesh)
            p = deviator(eu)
            state = FEState(0.0, u, eu - p, p, sigma, np.zeros(0))
            val = abs(duality_pairing(sigma, state, w, mesh))
            bound = pairing_mass_bound(sigma, state, w, mesh)
            assert val <= bound * (1 + 1e-11) + 1e-13


class TestRelaxedMode:
    def test_matches_strong_for_compatible_data(self):
        mesh = build_square_mesh(3, FACES)
        prog = shear_program(mesh, 1.0, 4)  # gentle: no slip incentive
        strong_states, strong_ledger = run_evolution(prog, HOOKE, YSET, mesh,
                                                     mode="strong")
        rel_states, rel_ledger = run_evolution(prog, HOOKE, YSET, mesh,
                                               mode="relaxed")
        np.testing.assert_allclose(rel_states[-1].u, strong_states[-1].u, atol=1e-8)
        assert rel_ledger.dissipation[-1] == pytest.approx(
            strong_ledger.dissipation[-1], abs=1e-8)

    def test_slip_activates_under_tangential_stretch(self):
        # stretching the clamped fiber: volume accommodation costs kappa*|p|
        # with |p| = sqrt(2)*stretch, boundary slip only kappa*|gap|/sqrt(2)
        mesh = build_square_mesh(3, ("bottom",))
        n_t = 5
        times = np.linspace(0, 1, n_t)
        w = np.array([t * 3.0 * np.column_stack([mesh.nodes[:, 0],
                                                 -mesh.nodes[:, 1]])
                      for t in times])
        prog = LoadProgram(mesh, times, w, np.zeros((n_t, mesh.n_cells, 2)),
                           np.zeros((n_t, len(mesh.neumann_edges), 2)))
        stiff = HookeTensor(1.0, 1.0, 0.01)
        states, ledger = run_evolution(prog, stiff, YSET, mesh, mode="relaxed")
        assert np.abs(states[-1].boundary_slip).max() > 0.5
        strong_states, strong_ledger = run_evolution(prog, stiff, YSET, mesh,
                                                     mode="strong")
        assert (ledger.elastic[-1] + ledger.dissipation[-1]
                <= strong_ledger.elastic[-1] + strong_ledger.dissipation[-1] + 1e-8)

    def test_no_slip_nodes_is_strong_mode(self):
        # at n=1 every Dirichlet node of SHEAR is a corner: the relaxed slip set is empty
        bench = benchmark_catalog("SHEAR", mesh_n=1, n_steps=8)
        hooke = bench.hooke.with_epsilon(0.25)
        assert slip_nodes_of(ElasticSystem(bench.mesh, hooke)).count == 0
        runs = [run_evolution(bench.program, hooke, bench.yield_set, bench.mesh, mode=mode)
                for mode in ("strong", "relaxed")]
        (strong_states, strong_ledger), (rel_states, rel_ledger) = runs
        assert strong_ledger.dissipation[-1] > 0.0
        assert len(rel_states) == len(strong_states)
        for rel, strong in zip(rel_states, strong_states):
            for name in ("t", "u", "e", "p", "sigma", "boundary_slip", "eu"):
                assert np.array_equal(getattr(rel, name), getattr(strong, name)), name
        for name, value in vars(strong_ledger).items():
            assert np.array_equal(getattr(rel_ledger, name), value), name

    def test_slip_nodes_exclude_corners(self):
        mesh = build_square_mesh(4, FACES)
        slip = slip_nodes_of(ElasticSystem(mesh, HOOKE))
        corners = {0, 4, 20, 24}
        assert corners.isdisjoint(set(slip.nodes.tolist()))
        assert slip.count == 4 * (4 - 1)


class TestBDSurrogate:
    def test_zero_field(self):
        mesh = build_square_mesh(3, FACES)
        u = np.zeros((mesh.n_nodes, 2))
        assert bd_norm_surrogate(mesh, u, norm(strain_of(u, mesh))) == 0.0

    def test_shear_value(self):
        mesh = build_square_mesh(4, FACES)
        u = shear_field_local = np.column_stack([mesh.nodes[:, 1],
                                                 np.zeros(mesh.n_nodes)])
        val = bd_norm_surrogate(mesh, u, norm(strain_of(u, mesh)))
        # strain mass 1/sqrt(2); trace integral: |x2| on the four faces
        # left+right contribute 2 * 1/2, top contributes 1, bottom 0
        assert val == pytest.approx(1 / np.sqrt(2) + 2.0, rel=1e-10)


def _step_infos(monkeypatch):
    """Collect the StepInfo of every incremental step run_evolution takes."""
    infos = []
    original = evolution.incremental_step

    def recorded(*args, **kwargs):
        state, info = original(*args, **kwargs)
        infos.append(info)
        return state, info

    monkeypatch.setattr(evolution, "incremental_step", recorded)
    return infos


class TestNewtonSolver:
    """Iteration counts and answers of the semismooth Newton inner solver."""

    @pytest.mark.parametrize("mesh_n, n_steps", [(16, 32), (32, 8)])
    def test_traction_iterations_bounded_under_refinement(self, monkeypatch, mesh_n, n_steps):
        # n=32, M=8 is the CLI's refined TRACTION rung; alternating minimization
        # needed up to 2351 iterations per step at n=16 and failed at n=32
        infos = _step_infos(monkeypatch)
        bench = benchmark_catalog("TRACTION", mesh_n=mesh_n, n_steps=n_steps)
        states, ledger = run_evolution(bench.program, bench.hooke.with_epsilon(1.0),
                                       bench.yield_set, bench.mesh)
        assert len(states) == n_steps + 1
        assert ledger.iterations.max() <= 30
        assert ledger.dissipation[-1] > 0.0
        assert len(infos) == n_steps
        assert max(i.residual for i in infos) <= 1e-10 * bench.yield_set.radius

    def test_below_collapse_answers_under_refinement(self, monkeypatch, tmp_path):
        # 0.6 of the TRACTION load is below collapse: dissipation and work
        # converge under refinement and the Newton counts stay bounded
        bench = benchmark_catalog("TRACTION", mesh_n=16, n_steps=8, load_scale=0.6)
        _, ledger = run_evolution(bench.program, bench.hooke.with_epsilon(1.0),
                                  bench.yield_set, bench.mesh)
        assert ledger.dissipation[-1] == pytest.approx(0.003072479234704704, rel=1e-6)
        assert ledger.work[-1] == pytest.approx(0.11888123324638518, rel=1e-6)
        assert ledger.iterations.max() <= 5

        monkeypatch.delenv("TOOL_OUT", raising=False)
        infos = _step_infos(monkeypatch)
        config = tmp_path / "run.cfg"
        config.write_text("benchmark = TRACTION\nmesh_n = 32\ntime_steps = 8\n"
                          "epsilon = 1.0\nload_scale = 0.6\n", encoding="utf-8")
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
        assert summary["dissipation"] == pytest.approx(0.0036444688489953173, rel=1e-6)
        assert summary["external_work"] == pytest.approx(0.12080183991151829, rel=1e-6)
        assert len(infos) == 8
        assert max(i.iterations for i in infos) <= 6

    def test_relaxed_traction_matches_alternating_minimization(self):
        # dissipation and work of the same run by alternating minimization with
        # a Gauss-Seidel slip sweep, converged to tol = stress_tol = 1e-10
        bench = benchmark_catalog("TRACTION", mesh_n=8, n_steps=16)
        states, ledger = run_evolution(bench.program, bench.hooke.with_epsilon(1.0),
                                       bench.yield_set, bench.mesh, mode="relaxed")
        assert np.abs(states[-1].boundary_slip).max() > 0.5
        assert ledger.dissipation[-1] == pytest.approx(1.0968858647177653, rel=1e-6)
        assert ledger.work[-1] == pytest.approx(1.466348449491755, rel=1e-6)
        assert ledger.iterations.max() <= 30

    def test_traction_near_the_limit_load(self):
        # 0.63 kappa on the top face: nearly every cell is plastic and the
        # tangent has almost no deviatoric stiffness left
        bench = benchmark_catalog("TRACTION", mesh_n=16, n_steps=32, load_scale=1.4)
        states, ledger = run_evolution(bench.program, bench.hooke.with_epsilon(1.0),
                                       bench.yield_set, bench.mesh)
        assert ledger.plastic_fraction.max() > 0.95
        assert ledger.iterations.max() <= 30
        # the deviator the return map capped, not the composed stress's
        assert ledger.max_sigma_dev.max() <= bench.yield_set.radius

    def test_beyond_the_limit_load_fails_fast(self):
        # 0.675 kappa exceeds the limit load of the n=8 mesh: the functional of
        # the last step is unbounded below, so no iterate can be accepted
        bench = benchmark_catalog("TRACTION", mesh_n=8, n_steps=8, load_scale=1.5)
        with pytest.raises(ConvergenceError) as err:
            run_evolution(bench.program, bench.hooke.with_epsilon(1.0), bench.yield_set,
                          bench.mesh)
        assert err.value.step_index == 8
        assert len(err.value.decrease_history) < 100

    @pytest.mark.parametrize("mode, total, most, dissipation, work", [
        # the strong answers are perfbench's TRACTION_RUN_REFERENCE
        ("strong", 109, 7, 2.429336605668743, 2.894086063382783),
        ("relaxed", 117, 9, 5.19289339764229, 5.78377671877184),
    ])
    def test_benchmark_newton_path_is_pinned(self, mode, total, most, dissipation, work):
        # the traction_run config (TRACTION n=16, M=32, eps 1): a round-off
        # change that moves the Newton path shows here, not only in the benchmark
        bench = benchmark_catalog("TRACTION", mesh_n=16, n_steps=32)
        _, ledger = run_evolution(bench.program, bench.hooke.with_epsilon(1.0),
                                  bench.yield_set, bench.mesh, mode=mode)
        assert ledger.iterations.sum() == total
        assert ledger.iterations.max() == most
        assert ledger.dissipation[-1] == pytest.approx(dissipation, rel=1e-6)
        assert ledger.work[-1] == pytest.approx(work, rel=1e-6)


class TestStopRule:
    """``_stop`` on recorded residuals, with no solve: the predictor's first, then one per
    Newton step."""

    THRESHOLD = 1e-10

    def stop(self, residuals):
        return evolution._stop(residuals, self.THRESHOLD)

    def test_a_predictor_that_passes_converges(self):
        assert self.stop([1e-12]) == "converged"
        assert self.stop([self.THRESHOLD]) == "converged"
        assert self.stop([1e-3]) is None
        assert self.stop([1.0, 1e-12]) == "converged"

    def test_ten_steps_without_a_new_minimum_stall(self):
        assert self.stop([1.0] + [2.0] * 9) is None
        assert self.stop([1.0] + [2.0] * 10) == "stalled"
        assert self.stop([1.0] * 11) == "stalled"  # a tie is no new minimum
        # a new minimum in between starts the count again
        reset = [1.0] + [2.0] * 5 + [0.5]
        assert self.stop(reset + [2.0] * 9) is None
        assert self.stop(reset + [2.0] * 10) == "stalled"

    def test_the_stall_length_is_read_at_the_call(self, monkeypatch):
        monkeypatch.setattr(evolution, "_MAX_STALLED", 2)
        assert self.stop([1.0, 2.0]) is None
        assert self.stop([1.0, 2.0, 2.0]) == "stalled"

    def test_the_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(evolution, "_MAX_ITERS", 3)
        assert self.stop([1.0, 0.9, 0.8]) is None
        assert self.stop([1.0, 0.9, 0.8, 0.7]) == "iteration cap"

    def test_a_stall_at_the_cap_is_a_stall(self, monkeypatch):
        monkeypatch.setattr(evolution, "_MAX_ITERS", 10)
        assert self.stop([1.0] + [2.0] * 10) == "stalled"


def _run_cli(tmp_path, monkeypatch, text):
    """``rigiplast run`` on the config ``text``, which fails: its exit code and error record."""
    monkeypatch.delenv("TOOL_OUT", raising=False)
    config = tmp_path / "run.cfg"
    config.write_text(text, encoding="utf-8")
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    return code, json.loads((tmp_path / "out" / "error.json").read_text(encoding="utf-8"))["error"]


@pytest.mark.parametrize("max_iters, step, reason, message", [
    (None, 8, "stalled", "residual stalled after 10 inner iterations"),
    (2, 3, "iteration cap", "no convergence in 2 inner iterations"),
])
def test_error_json_records_the_stop_reason(monkeypatch, tmp_path, max_iters, step, reason,
                                            message):
    """A step that fails leaves ``_stop``'s answer in ``error.json``, next to its step, and
    the last (at most 10) entries of its residual and decrease histories."""
    if max_iters is not None:
        monkeypatch.setattr(evolution, "_MAX_ITERS", max_iters)
    code, error = _run_cli(tmp_path, monkeypatch,
                           "benchmark = TRACTION\nmesh_n = 8\ntime_steps = 8\nload_scale = 1.5\n")
    assert code == 3
    assert error["kind"] == "ConvergenceError"
    assert (error["step"], error["reason"]) == (step, reason)
    assert error["message"].startswith(message)
    # the stall's histories are longer than 10; the cap's are 3 residuals and 2 decreases
    tails = (10, 10) if max_iters is None else (max_iters + 1, max_iters)
    assert (len(error["residuals"]), len(error["decreases"])) == tails
    assert error["message"].endswith(f"residual {error['residuals'][-1]:.3e})")


def test_a_solver_error_in_a_step_is_tagged_with_its_step(monkeypatch, tmp_path,
                                                          fail_elastic_solve):
    """At n=4 every TRACTION step makes one elastic solve, its predictor: the third is step 3."""
    fail_elastic_solve(1.0, 3)
    code, error = _run_cli(tmp_path, monkeypatch,
                           "benchmark = TRACTION\nmesh_n = 4\ntime_steps = 4\nepsilon = 1.0\n")
    assert code == 3
    assert error == {"kind": "SolverError", "step": 3, "epsilon": None, "reason": None,
                     "residuals": None, "decreases": None,
                     "message": "elastic solve residual 1.000e+00 exceeds tolerance"}

