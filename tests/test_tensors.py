"""Tensor algebra, Hooke law, yield set, and return-map unit tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigiplast.tensors import (
    DEV_TOL,
    HookeTensor,
    NonDeviatoricError,
    YieldSet,
    consistent_tangent,
    ddot,
    dev_decompose,
    deviator,
    dim_of,
    identity,
    is_deviatoric,
    norm,
    radial_return,
    require_deviatoric,
    sym_outer,
    trace,
)

RNG = np.random.default_rng(20260808)


def random_packed(n, scale=1.0, rng=RNG):
    return rng.standard_normal((n, 3)) * scale


def random_deviatoric(n, scale=1.0, rng=RNG):
    return deviator(random_packed(n, scale=scale, rng=rng))


class TestDevDecompose:
    def test_identity(self):
        dev, mean = dev_decompose(identity())
        assert np.allclose(dev, 0.0)
        assert mean == pytest.approx(1.0)

    def test_diag_2_0(self):
        dev, mean = dev_decompose(np.array([2.0, 0.0, 0.0]))
        np.testing.assert_allclose(dev, [1.0, 0.0, -1.0])
        assert mean == pytest.approx(1.0)

    def test_orthogonality_and_pythagoras(self):
        A = random_packed(500)
        dev, mean = dev_decompose(A)
        assert np.abs(ddot(dev, identity())).max() < 1e-14 * (1 + norm(A).max())
        lhs = norm(A) ** 2
        rhs = norm(dev) ** 2 + 2 * mean**2
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13)

    def test_reconstruction(self):
        A = random_packed(100)
        dev, mean = dev_decompose(A)
        np.testing.assert_allclose(dev + mean[:, None] * identity(), A, atol=1e-15)


class TestSymOuter:
    def test_parallel_unit(self):
        t = sym_outer(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(t, [1.0, 0.0, 0.0])

    def test_orthogonal_attains_lower_bound(self):
        t = sym_outer(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        np.testing.assert_allclose(t, [0.0, 0.5, 0.0])
        assert norm(t) == pytest.approx(1 / np.sqrt(2))

    def test_norm_identity_with_unit_normal(self):
        # |a (.) nu|^2 = (|a|^2 + (a.nu)^2) / 2 for unit nu
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.standard_normal(2)
            ang = rng.uniform(0, 2 * np.pi)
            nu = np.array([np.cos(ang), np.sin(ang)])
            t = sym_outer(a, nu)
            expected = 0.5 * (a @ a + (a @ nu) ** 2)
            assert norm(t) ** 2 == pytest.approx(expected, rel=1e-12)

    @given(st.lists(st.floats(-10, 10), min_size=4, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_two_sided_bound(self, vals):
        a = np.array(vals[:2])
        b = np.array(vals[2:])
        t = sym_outer(a, b)
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        slack = 1e-12 * (1 + na * nb)
        assert norm(t) <= na * nb + slack
        assert norm(t) >= na * nb / np.sqrt(2) - slack

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sym_outer(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))

    def test_dim3(self):
        # the package is plane strain: 3-D vectors have no packed layout
        with pytest.raises(ValueError, match="unsupported dim"):
            sym_outer(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))


class TestHooke:
    def test_action_matches_definition(self):
        hooke = HookeTensor(1.3, 0.7, 0.5)
        xi = random_packed(200)
        dev, mean = dev_decompose(xi)
        expected = (2 * 1.3 * dev + 0.7 * (2 * mean)[:, None] * identity()) / 0.5
        np.testing.assert_allclose(hooke.apply(xi), expected, rtol=1e-14)

    def test_symmetry(self):
        hooke = HookeTensor(2.0, 0.9, 0.25)
        xi, eta = random_packed(300), random_packed(300)
        lhs = ddot(hooke.apply(xi), eta)
        rhs = ddot(xi, hooke.apply(eta))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-13)

    def test_coercivity_bounds(self):
        hooke = HookeTensor(1.7, 0.4, 0.125)
        xi = random_packed(10_000)
        quad = ddot(hooke.apply(xi), xi)
        n2 = norm(xi) ** 2
        alpha, beta = hooke.alpha(), hooke.beta()
        assert alpha == pytest.approx(min(2 * 1.7, 2 * 0.4) / 0.125)
        assert beta == pytest.approx(max(2 * 1.7, 2 * 0.4) / 0.125)
        assert np.all(quad >= alpha * n2 * (1 - 1e-12))
        assert np.all(quad <= beta * n2 * (1 + 1e-12))

    def test_bounds_attained_on_eigenvectors(self):
        hooke = HookeTensor(1.0, 3.0, 1.0)
        dev_dir = np.array([1.0, 0.0, -1.0])
        sph_dir = identity()
        assert ddot(hooke.apply(dev_dir), dev_dir) == pytest.approx(
            2 * norm(dev_dir) ** 2)
        assert ddot(hooke.apply(sph_dir), sph_dir) == pytest.approx(
            6 * norm(sph_dir) ** 2)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HookeTensor(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            HookeTensor(1.0, 1.0, 0.0)

    def test_matrix_agrees_with_apply(self):
        hooke = HookeTensor(1.1, 2.2, 0.5)
        xi = random_packed(20)
        np.testing.assert_allclose(xi @ hooke.matrix().T, hooke.apply(xi), rtol=1e-14)


class TestYieldSet:
    def test_support_zero(self):
        assert YieldSet(1.0).support(np.zeros(3)) == 0.0

    def test_support_value(self):
        val = YieldSet(1.0).support(np.array([1.0, 0.0, -1.0]))
        assert val == pytest.approx(np.sqrt(2))

    def test_support_scales_with_radius(self):
        p = random_deviatoric(50)
        np.testing.assert_allclose(YieldSet(2.5).support(p), 2.5 * norm(p))

    def test_support_bounds(self):
        yset = YieldSet(0.8)
        p = random_deviatoric(100)
        h = yset.support(p)
        assert np.all(h >= yset.radius * norm(p) * (1 - 1e-12))
        assert np.all(h <= yset.radius * norm(p) * (1 + 1e-12))

    def test_support_rejects_trace(self):
        p = np.array([0.3, 0.0, 0.2])  # trace 0.5
        with pytest.raises(NonDeviatoricError):
            YieldSet(1.0).support(p)

    def test_project_interior_identity(self):
        yset = YieldSet(1.0)
        tau = random_deviatoric(100)
        tau = tau / np.maximum(norm(tau), 1.0)[:, None] * 0.5
        np.testing.assert_array_equal(yset.project(tau), tau)

    def test_project_radial(self):
        out = YieldSet(1.0).project(np.array([2.0, 0.0, -2.0]))
        np.testing.assert_allclose(out, [1 / np.sqrt(2), 0.0, -1 / np.sqrt(2)],
                                   rtol=1e-12)

    def test_project_family_stress_unchanged(self):
        # off-diagonal 0.3, diagonal +/-0.2: norm sqrt(0.26) < 1
        tau = np.array([0.2, 0.3, -0.2])
        assert norm(tau) == pytest.approx(np.sqrt(0.26))
        np.testing.assert_array_equal(YieldSet(1.0).project(tau), tau)

    def test_project_idempotent_exact(self):
        yset = YieldSet(0.9)
        tau = random_deviatoric(500, scale=3.0)
        once = yset.project(tau)
        twice = yset.project(once)
        np.testing.assert_array_equal(once, twice)
        assert np.all(norm(once) <= yset.radius)

    def test_project_lipschitz(self):
        yset = YieldSet(1.0)
        a = random_deviatoric(400, scale=2.0)
        b = random_deviatoric(400, scale=2.0)
        d_out = norm(yset.project(a) - yset.project(b))
        d_in = norm(a - b)
        assert np.all(d_out <= d_in * (1 + 1e-12))

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            YieldSet(0.0)


from oracles import (
    ddot_reduce,
    dev_decompose_reduce,
    scalar_prox_golden_section,
    trace_reduce,
)


class TestRadialReturn:
    def test_elastic_regime(self):
        hooke = HookeTensor(1.0, 1.0, 1.0)
        yset = YieldSet(1.0)
        p_old = random_deviatoric(50, scale=0.01)
        e_dev = p_old + random_deviatoric(50, scale=0.01)
        p_new, sig = radial_return(e_dev, p_old, hooke, yset)
        np.testing.assert_array_equal(p_new, p_old)
        np.testing.assert_allclose(sig, 2.0 * (e_dev - p_old), rtol=1e-14)

    def test_plastic_example(self):
        # 2 mu / eps = 2, kappa = 1, E - p_old = diag(1, -1): |s| = 2 sqrt(2)
        hooke = HookeTensor(1.0, 1.0, 1.0)
        yset = YieldSet(1.0)
        e_dev = np.array([1.0, 0.0, -1.0])
        p_new, sig = radial_return(e_dev, np.zeros(3), hooke, yset)
        dp = norm(p_new)
        assert dp == pytest.approx((2 * np.sqrt(2) - 1) / 2, rel=1e-12)
        direction = p_new / dp
        np.testing.assert_allclose(direction, e_dev / norm(e_dev), rtol=1e-12)
        assert norm(sig) == pytest.approx(1.0, rel=1e-12)

    def test_sigma_norm_is_min_of_trial_and_radius(self):
        hooke = HookeTensor(0.8, 1.0, 0.4)
        yset = YieldSet(0.7)
        e_dev = random_deviatoric(300)
        p_old = random_deviatoric(300, scale=0.3)
        p_new, sig = radial_return(e_dev, p_old, hooke, yset)
        s = hooke.scaled_shear * (e_dev - p_old)
        np.testing.assert_allclose(norm(sig), np.minimum(norm(s), 0.7), rtol=1e-12)
        assert np.all(norm(sig) <= 0.7)

    def test_hill_identity(self):
        hooke = HookeTensor(1.0, 1.0, 0.25)
        yset = YieldSet(1.0)
        e_dev = random_deviatoric(1000, scale=2.0)
        p_old = random_deviatoric(1000, scale=0.2)
        p_new, sig = radial_return(e_dev, p_old, hooke, yset)
        dp = p_new - p_old
        moved = norm(dp) > 0
        assert moved.any()
        lhs = ddot(sig, dp)[moved]
        rhs = yset.radius * norm(dp)[moved]
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        np.testing.assert_allclose(norm(sig)[moved], yset.radius, rtol=1e-12)

    def test_matches_golden_section_oracle(self):
        hooke = HookeTensor(1.3, 1.0, 0.5)
        yset = YieldSet(0.9)
        g = hooke.scaled_shear
        rng = np.random.default_rng(11)
        e_dev = deviator(rng.standard_normal((200, 3)))
        p_old = deviator(rng.standard_normal((200, 3)) * 0.2)
        p_new, _ = radial_return(e_dev, p_old, hooke, yset)
        for i in range(200):
            s_norm = g * norm(e_dev[i] - p_old[i])
            x_star = scalar_prox_golden_section(g, yset.radius, s_norm)
            got = norm(p_new[i] - p_old[i])
            if s_norm <= yset.radius:
                assert got == 0.0
            else:
                assert got == pytest.approx(x_star, abs=1e-10)

    def test_optimality_against_perturbations(self):
        # 10^3 random inputs, each checked against 10^3 random perturbations
        hooke = HookeTensor(1.0, 1.0, 1.0)
        yset = YieldSet(1.0)
        g = hooke.scaled_shear
        rng = np.random.default_rng(3)
        e_dev = deviator(rng.standard_normal((1000, 3)))
        p_old = deviator(rng.standard_normal((1000, 3)) * 0.3)
        p_new, _ = radial_return(e_dev, p_old, hooke, yset)

        for i in range(1000):
            base = (0.5 * g * norm(e_dev[i] - p_new[i]) ** 2
                    + yset.radius * norm(p_new[i] - p_old[i]))
            trials = p_new[i] + deviator(rng.standard_normal((1000, 3)) * 0.1)
            vals = (0.5 * g * norm(e_dev[i] - trials) ** 2
                    + yset.radius * norm(trials - p_old[i]))
            assert np.all(vals >= base - 1e-12 * (1 + abs(base)))

    def test_rejects_non_deviatoric(self):
        hooke = HookeTensor(1.0, 1.0, 1.0)
        with pytest.raises(NonDeviatoricError):
            radial_return(np.array([1.0, 0.0, 0.0]), np.zeros(3), hooke, YieldSet(1.0))


# trace-free rows (a, b, -a) with a and b drawn with signed zeros among them
_SIGNED = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0, allow_subnormal=False))
_DEV_ROWS = st.lists(st.tuples(_SIGNED, _SIGNED), min_size=1, max_size=12).map(
    lambda rows: np.array([[a, b, -a] for a, b in rows]))


class TestAllPlasticBranch:
    """Where every cell is plastic, ``radial_return`` takes a branch without masks. It returns
    what the general branch returns for the same cells bit for bit, signed zeros included;
    a cell with no trial stress appended forces the general branch."""

    @settings(max_examples=200, deadline=None)
    @given(e_dev=_DEV_ROWS, p_old=_DEV_ROWS, epsilon=st.sampled_from([1.0, 0.25, 2.0 ** -12]))
    def test_same_bits_as_the_general_branch(self, e_dev, p_old, epsilon):
        n = min(len(e_dev), len(p_old))
        e_dev, p_old = e_dev[:n], p_old[:n]
        hooke, yset = HookeTensor(1.0, 3.0, epsilon), YieldSet(0.1)
        plastic = norm(hooke.scaled_shear * (e_dev - p_old)) > yset.radius
        e_dev, p_old = e_dev[plastic], p_old[plastic]
        if not len(e_dev):
            return
        p_new, sigma_dev = radial_return(e_dev, p_old, hooke, yset)
        zero = np.zeros((1, 3))
        p_mixed, sigma_mixed = radial_return(np.vstack([e_dev, zero]), np.vstack([p_old, zero]),
                                             hooke, yset)
        for got, want in ((p_new, p_mixed[:-1]), (sigma_dev, sigma_mixed[:-1])):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_a_single_plastic_tensor(self):
        hooke, yset = HookeTensor(1.0, 1.0, 1.0), YieldSet(1.0)
        e_dev, p_old = np.array([1.0, -0.0, -1.0]), np.array([0.0, 0.5, -0.0])
        p_new, sigma_dev = radial_return(e_dev, p_old, hooke, yset)
        p_row, sigma_row = radial_return(np.vstack([e_dev, np.zeros(3)]),
                                         np.vstack([p_old, np.zeros(3)]), hooke, yset)
        assert p_new.shape == sigma_dev.shape == (3,)
        assert np.array_equal(p_new, p_row[0]) and np.array_equal(sigma_dev, sigma_row[0])


class TestRequireDeviatoric:
    """The early return on small traces keeps the verdict of the per-entry bound
    |tr a| <= DEV_TOL * max(1, |a|), and the message."""

    @pytest.mark.parametrize("a, raises", [
        (np.array([[DEV_TOL, 0.0, 0.0], [0.5, 0.3, -0.5]]), False),   # |tr| = DEV_TOL
        (np.array([[1.5 * DEV_TOL, 4.0, 0.0]]), False),              # above DEV_TOL, |a| > 1
        (np.array([[1.5 * DEV_TOL, 0.1, 0.0]]), True),               # above DEV_TOL, |a| < 1
        (np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]]), True),
        (np.zeros((0, 3)), False),
        (np.array([2 * DEV_TOL, 0.0, 0.0]), True),                   # one tensor
    ])
    def test_raises_exactly_when_an_entry_is_not_deviatoric(self, a, raises):
        assert bool((~is_deviatoric(a)).any()) == raises
        if raises:
            worst = float(np.max(np.abs(trace(a))))
            with pytest.raises(NonDeviatoricError,
                               match=f"^field has trace up to {worst:.3e} beyond tolerance$"):
                require_deviatoric(a, "field")
        else:
            require_deviatoric(a, "field")


class TestPackedLayout:
    def test_round_trip(self):
        m = np.array([[1.0, 2.0], [2.0, -3.0]])
        t = m[[0, 0, 1], [0, 1, 1]]  # packed (a11, a12, a22)
        np.testing.assert_array_equal(t[[[0, 1], [1, 2]]], m)
        assert norm(t) == pytest.approx(np.linalg.norm(m))
        assert trace(t) == pytest.approx(-2.0)
        assert trace(deviator(t)) == pytest.approx(0.0, abs=1e-15)

    def test_norm_counts_off_diagonal_twice(self):
        assert norm(np.array([0.0, 1.0, 0.0])) == pytest.approx(np.sqrt(2))

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            dim_of(np.zeros(4))


class TestConsistentTangent:
    def test_matches_finite_differences(self):
        hooke = HookeTensor(1.3, 0.9, 0.5)
        yset = YieldSet(0.8)
        rng = np.random.default_rng(11)
        E = rng.standard_normal((300, 3))
        p_old = deviator(rng.standard_normal((300, 3)) * 0.3)

        def stress(E):
            e_dev, mean = dev_decompose(E)
            _, sigma = radial_return(e_dev, p_old, hooke, yset)
            return sigma + 2.0 * hooke.bulk_modulus / hooke.epsilon * mean[:, None] * identity()

        tangent = consistent_tangent(deviator(E), p_old, hooke, yset)
        plastic = norm(hooke.scaled_shear * (deviator(E) - p_old)) > yset.radius
        assert plastic.any() and (~plastic).any()
        h = 1e-7
        for j in range(3):
            dE = np.zeros(3)
            dE[j] = h
            fd = (stress(E + dE) - stress(E - dE)) / (2.0 * h)
            np.testing.assert_allclose(tangent[:, :, j], fd, atol=1e-6)
        np.testing.assert_array_equal(tangent[~plastic], np.broadcast_to(
            hooke.matrix(), (int((~plastic).sum()), 3, 3)))

    def test_weighted_tangent_is_symmetric(self):
        hooke = HookeTensor(1.0, 2.0, 0.25)
        rng = np.random.default_rng(12)
        e_dev = deviator(rng.standard_normal((100, 3)))
        tangent = consistent_tangent(e_dev, np.zeros((100, 3)), hooke, YieldSet(0.5))
        weighted = np.array([1.0, 2.0, 1.0])[None, :, None] * tangent
        np.testing.assert_allclose(weighted, weighted.transpose(0, 2, 1), atol=1e-13)


def _kernel_inputs():
    """Packed tensors of shapes (3,), (n, 3) and (M, n, 3), random and with signed zeros."""
    rng = np.random.default_rng(29)
    zero_rows = np.array([[s0, s1, s2] for s0 in (0.0, -0.0) for s1 in (0.0, -0.0)
                          for s2 in (0.0, -0.0)])
    cases = [row for row in zero_rows] + [zero_rows, zero_rows.reshape(2, 4, 3)]
    for shape in ((3,), (60, 3), (4, 60, 3)):
        cases.append(rng.standard_normal(shape))
        cases.append(rng.choice(np.array([0.0, -0.0, 0.5, -1.25]), size=shape))
    return cases


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestKernelsMatchReductions:
    """The component-form kernels equal the reduction forms bit for bit, signed zeros too."""

    @pytest.mark.parametrize("a", _kernel_inputs())
    def test_trace(self, a):
        _same_bits(trace(a), trace_reduce(a))

    @pytest.mark.parametrize("a", _kernel_inputs())
    def test_ddot_and_norm(self, a):
        for b in (a, a[::-1], -a, np.ones_like(a), np.full_like(a, -0.0)):
            _same_bits(ddot(a, b), ddot_reduce(a, b))
        _same_bits(norm(a), np.sqrt(ddot_reduce(a, a)))

    @pytest.mark.parametrize("a", _kernel_inputs())
    def test_dev_decompose(self, a):
        dev, mean = dev_decompose(a)
        want_dev, want_mean = dev_decompose_reduce(a)
        _same_bits(dev, want_dev)
        _same_bits(mean, want_mean)
