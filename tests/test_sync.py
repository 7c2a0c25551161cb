"""Synchronous-drive engine against a dense eigensolver and quadrature."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from sodw import SyncSech2, classify_sync_condition, solve
from sodw.core import hamiltonian_matrix, imbalance
from sodw.sync import eigen_sync, modes, route


def _tau_hamiltonian(beta, gamma):
    # the rescaled-time generator: unit coupling, beta as the static splitting
    return hamiltonian_matrix(gamma, 1.0, beta)


def _random_state(rng):
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return a / np.linalg.norm(a)


def _z_inf(proto, gamma, state0, t0, s, q):
    return imbalance(solve(proto, gamma, state0, t0).asymptotes()[1], s, q)


def test_eigensystem_matches_dense_solver():
    rng = np.random.default_rng(11)
    for _ in range(30):
        beta = rng.uniform(0.0, 4.0)
        gamma = rng.uniform(0.0, 3.0)
        eig = eigen_sync(beta, gamma)
        h = _tau_hamiltonian(beta, gamma)
        ref = np.linalg.eigvalsh(h)
        assert_allclose(np.sort(eig.lam), ref, atol=1e-12)
        # every row is a genuine eigenvector of the dense matrix
        for lam, v in zip(eig.lam, eig.vec):
            assert np.linalg.norm(h @ v - lam * v) < 1e-12


def test_eigensystem_near_integer_gamma():
    # 1 -/+ cos(pi*gamma) must keep its digits next to the branch gates:
    # computed as a plain difference it rounds to 0 and r1 divides by zero
    # (for beta < 0 the two radicands swap roles)
    offsets = (1.01e-9, 1e-8, 1e-7, 1e-5, 1e-3, 0.1)
    betas = (0.0, 0.3, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.001, 3.0)
    betas += tuple(-beta for beta in betas[1:])
    gammas = [k + sign * d for k in range(4) for d in offsets for sign in (-1.0, 1.0)]
    gammas += [0.0, 1.0, 2.0, 3.0]
    # every pair once in a single stacked call (integer gamma on the
    # degenerate mask beside the closed-form members) and once on its own
    beta_grid, gamma_grid = np.meshgrid(betas, gammas)
    stacked = eigen_sync(beta_grid, gamma_grid)
    assert stacked.lam.shape == beta_grid.shape + (4,)
    assert stacked.vec.shape == beta_grid.shape + (4, 4)
    for (i, j), beta in np.ndenumerate(beta_grid):
        gamma = gamma_grid[i, j]
        h = _tau_hamiltonian(beta, gamma)
        eig = eigen_sync(beta, gamma)
        for lams, vecs in ((eig.lam, eig.vec), (stacked.lam[i, j], stacked.vec[i, j])):
            for lam, v in zip(lams, vecs):
                assert np.linalg.norm(h @ v - lam * v) <= 1e-12, (beta, gamma)


def test_eigenvectors_orthonormal():
    rng = np.random.default_rng(12)
    cases = [(rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(20)]
    cases += [(0.0, 0.5), (0.7, 1.0), (1.3, 0.0), (0.0, 2.0)]
    for beta, gamma in cases:
        eig = eigen_sync(beta, gamma)
        gram = eig.vec @ eig.vec.T
        assert_allclose(gram, np.eye(4), atol=1e-12)


def test_vector_slope_product_identity():
    # the two slopes in each family multiply to exactly -1, which is what
    # keeps the small root free of subtractive cancellation; each vector is
    # (1, x, s, -s*x) up to normalization, so its slope x is vec[1]/vec[0]
    rng = np.random.default_rng(13)
    for _ in range(25):
        beta = rng.uniform(0.0, 6.0)
        gamma = rng.uniform(0.05, 0.95)
        eig = eigen_sync(beta, gamma)
        alpha_minus, alpha_plus, eta_plus, eta_minus = eig.vec[:, 1] / eig.vec[:, 0]
        assert abs(alpha_plus * alpha_minus + 1.0) < 1e-12
        assert abs(eta_plus * eta_minus + 1.0) < 1e-12
        assert_allclose(eig.vec[:, 2], [1.0, 1.0, -1.0, -1.0] * eig.vec[:, 0], atol=1e-15)
        assert_allclose(eig.vec[:, 3], -eig.vec[:, 2] * (eig.vec[:, 1] / eig.vec[:, 0]), atol=1e-14)


def test_eigenvalues_come_in_exact_opposite_pairs():
    for beta, gamma in [(0.5, 0.5), (2.0, 0.3), (0.0, 1.7), (3.0, 1.0)]:
        eig = eigen_sync(beta, gamma)
        assert eig.lam[0] == -eig.lam[1]
        assert eig.lam[2] == -eig.lam[3]
        assert eig.lam[0] <= 0.0 and eig.lam[2] <= 0.0


def test_degenerate_coupling_angle_branch():
    # sin(pi*gamma) = 0: the slope parametrization blows up and the
    # 2x2-block branch takes over
    eig = eigen_sync(0.7, 1.0)  # cos(pi*gamma) = -1
    assert_allclose(eig.lam, [-1.7, 1.7, -0.3, 0.3], atol=1e-12)
    h = _tau_hamiltonian(0.7, 1.0)
    for lam, v in zip(eig.lam, eig.vec):
        assert np.linalg.norm(h @ v - lam * v) < 1e-12

    eig0 = eigen_sync(0.4, 0.0)  # cos(pi*gamma) = +1
    assert_allclose(np.sort(eig0.lam), np.linalg.eigvalsh(_tau_hamiltonian(0.4, 0.0)), atol=1e-12)

    # fully degenerate point: all four levels at |lam| = 1
    eig00 = eigen_sync(0.0, 0.0)
    assert_allclose(np.abs(eig00.lam), 1.0, atol=1e-12)
    assert_allclose(eig00.vec @ eig00.vec.T, np.eye(4), atol=1e-12)


def test_tau_map_matches_quadrature():
    # phi_u of the drive's areas is the rescaled time tau, and phi_e = beta*tau
    cases = [(0.0, 0.5 * math.pi, 1.0, 1.7), (0.7, 2.0, 0.6, -3.1), (-1.2, 1.3, 2.5, 0.4)]
    for beta, V, Omega, t in cases:
        ref, err = quad(lambda u: V / math.cosh(Omega * u) ** 2, 0.0, t)
        assert err < 1e-12
        tau, phi_e = SyncSech2(beta, V, Omega).areas(t)
        assert abs(tau - ref) < 1e-10
        assert abs(phi_e - beta * ref) < 1e-10


def test_tau_map_saturates_at_pulse_area():
    drive = SyncSech2(0.3, 2.0, 0.5)
    assert drive.areas(math.inf)[0] == pytest.approx(4.0, abs=1e-15)
    assert drive.areas(-math.inf)[0] == pytest.approx(-4.0, abs=1e-15)
    assert drive.saturated_area() == 4.0
    tau = drive.areas(np.linspace(-3.0, 3.0, 7))[0]
    assert_allclose(tau, -tau[::-1], atol=1e-15)


def test_equal_weight_coefficients_at_zero_splitting():
    # beta = 0, gamma = 1/2, start in the left-up level at tau0 = 0: the four
    # stationary vectors contribute (+, +, -, -) with weight 1/2 each
    coeffs = solve(SyncSech2(0.0, 1.0, 1.0), 0.5, (0, 0, 1, 0), 0.0).coeffs
    assert_allclose(coeffs, [0.5, 0.5, -0.5, -0.5], atol=1e-12)


def test_detuned_endpoint_matches_two_level_formula():
    # at gamma = 1/2 the left-up level couples only to the right-down one, so
    # the endpoint populations follow the two-level Rabi formula with
    # generalized frequency sqrt(1 + beta^2)
    beta, V, Omega = 0.5, 0.5 * math.pi, 1.0
    proto = SyncSech2(beta, V, Omega)
    r = math.hypot(1.0, beta)
    dtau = V / Omega  # state imposed at t0 = 0
    p2 = math.sin(r * dtau) ** 2 / r**2
    z31 = _z_inf(proto, 0.5, (0, 0, 1, 0), 0.0, 3, 1)
    z32 = _z_inf(proto, 0.5, (0, 0, 1, 0), 0.0, 3, 2)
    assert abs(z31 - (1.0 - p2)) < 1e-12
    assert abs(z32 - (1.0 - 2.0 * p2)) < 1e-12


def test_integer_angle_endpoint():
    # gamma = 1 keeps spin conserved; the left-up/right-up pair undergoes a
    # plain rotation by the pulse area
    proto = SyncSech2(0.0, 2.0, 1.0)
    z31 = _z_inf(proto, 1.0, (0, 0, 1, 0), 0.0, 3, 1)
    z32 = _z_inf(proto, 1.0, (0, 0, 1, 0), 0.0, 3, 2)
    assert abs(z31 - math.cos(4.0)) < 1e-12
    assert abs(z32 - math.cos(2.0) ** 2) < 1e-12


def test_left_well_empties_at_half_pi_area():
    # beta = 0 and V/Omega = pi/2 from epoch 0: the left well is left empty,
    # so the two imbalances sum to exactly -1 whatever the coupling angle
    proto = SyncSech2(0.0, 0.5 * math.pi, 1.0)
    for gamma in (0.35, 0.1, 0.8):
        z31 = _z_inf(proto, gamma, (0, 0, 1, 0), 0.0, 3, 1)
        z32 = _z_inf(proto, gamma, (0, 0, 1, 0), 0.0, 3, 2)
        assert abs(z31 + math.cos(math.pi * gamma) ** 2) < 1e-12
        assert abs(z32 + math.sin(math.pi * gamma) ** 2) < 1e-12
        assert abs(z31 + z32 + 1.0) < 1e-12


def test_classify_return_and_inversion_grid():
    c = classify_sync_condition(0.0, 0.5 * math.pi, 1.0)
    assert (c.kind, c.n) == ("CCPC", 1)
    assert c.area == math.pi and c.residual < 1e-15

    c = classify_sync_condition(0.0, 0.25 * math.pi, 1.0)
    assert (c.kind, c.n) == ("CCPI", 0)

    c = classify_sync_condition(0.0, 1.25 * math.pi, 2.0)  # 2V/Omega = 1.25*pi
    assert c.kind == "neither" and c.n is None
    assert c.residual == pytest.approx(0.25 * math.pi, abs=1e-12)

    c = classify_sync_condition(0.3, 0.5 * math.pi, 1.0)  # splitting breaks both
    assert c.kind == "neither" and c.n is None
    assert c.residual < 1e-15  # the area is on the grid, so beta alone breaks them

    with pytest.raises(ValueError):
        classify_sync_condition(0.0, 1.0, 0.0)


def test_return_condition_restores_every_population():
    # 2V/Omega = n*pi with beta = 0: the full-pulse propagator is +/-identity
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = rng.integers(1, 4)
        Omega = rng.uniform(0.5, 2.0)
        V = 0.5 * n * math.pi * Omega
        gamma = rng.uniform(0.0, 3.0)
        assert classify_sync_condition(0.0, V, Omega).kind == "CCPC"
        state0 = _random_state(rng)
        p_plus = solve(SyncSech2(0.0, V, Omega), gamma, state0, -math.inf).asymptotes()[1]
        assert_allclose(p_plus, np.abs(state0) ** 2, atol=1e-9)


def test_inversion_condition_swaps_well_populations():
    # 2V/Omega = (n + 1/2)*pi with beta = 0: left and right totals trade places
    rng = np.random.default_rng(16)
    for _ in range(20):
        n = rng.integers(0, 3)
        Omega = rng.uniform(0.5, 2.0)
        V = 0.5 * (n + 0.5) * math.pi * Omega
        gamma = rng.uniform(0.0, 3.0)
        assert classify_sync_condition(0.0, V, Omega).kind == "CCPI"
        state0 = _random_state(rng)
        p0 = np.abs(state0) ** 2
        p1 = solve(SyncSech2(0.0, V, Omega), gamma, state0, -math.inf).asymptotes()[1]
        assert abs((p1[2] + p1[3]) - (p0[0] + p0[1])) < 1e-9
        assert abs((p1[0] + p1[1]) - (p0[2] + p0[3])) < 1e-9


def test_quarter_angle_splits_population_evenly():
    # shortest inversion pulse from the left-up level: the right well ends up
    # sharing the population equally between its two spin states whenever
    # gamma sits a quarter turn off an integer
    proto = SyncSech2(0.0, 0.25 * math.pi, 1.0)
    for gamma in (0.25, 1.25, 2.25):
        z12 = _z_inf(proto, gamma, (0, 0, 1, 0), -math.inf, 1, 2)
        z31 = _z_inf(proto, gamma, (0, 0, 1, 0), -math.inf, 3, 1)
        assert abs(z12) < 1e-12
        assert abs(z31 + 0.5) < 1e-12


def test_large_splitting_suppresses_transfer():
    # detuning-dominated regime: leaked population is bounded by 1/(1+beta^2)
    rng = np.random.default_rng(17)
    for _ in range(15):
        beta = rng.uniform(2.0, 10.0)
        proto = SyncSech2(beta, 0.5 * math.pi, 1.0)
        z31 = _z_inf(proto, 0.5, (0, 0, 1, 0), -math.inf, 3, 1)
        assert z31 >= 1.0 - 2.0 / (1.0 + beta**2) - 1e-12


def test_trajectory_grid_matches_state_fn():
    proto = SyncSech2(0.8, 1.0, 0.7)
    times = np.linspace(-12.0, 12.0, 41)
    solution = solve(proto, 0.3, (0, 0, 1, 0), -math.inf)
    states = solution.states(times)
    for t, row in zip(times, states):
        assert np.linalg.norm(solution.states(t) - row) < 1e-12
    assert_allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-12)


def test_infinite_epoch_anchors_at_saturated_tau():
    proto = SyncSech2(0.4, 1.2, 1.0)
    solution = solve(proto, 0.6, (0, 0, 1, 0), -math.inf)
    early = solution.states(-40.0)
    # tanh has fully saturated at t = -40, so the state has not moved yet
    assert np.abs(early[2]) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert solution.asymptotes()[0][2] == pytest.approx(1.0, abs=1e-12)
    for t0 in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite or -inf"):
            solve(proto, 0.6, (0, 0, 1, 0), t0)


def _edge_members(rng, n):
    """n seeded drives and gammas, the second half near beta = +/-1 and an integer gamma.

    Those lie within 1e-6 of beta = +/-1; their gamma offsets from the
    integer run from 1e-12 to 1e-6, across the branch gate at
    |sin(pi*gamma)| = 1e-9, where each plane rotation turns by nearly 0 or
    pi/2.
    """
    edge = n - n // 2
    beta = rng.uniform(-4.0, 4.0, n)
    gamma = rng.uniform(-3.0, 3.0, n)
    beta[-edge:] = rng.choice([-1.0, 1.0], edge) + rng.uniform(-1e-6, 1e-6, edge)
    offset = rng.choice([-1.0, 1.0], edge) * 10.0 ** rng.uniform(-12.0, -6.0, edge)
    gamma[-edge:] = rng.integers(-3, 4, edge) + offset
    return SyncSech2(beta, rng.uniform(0.1, 20.0, n), rng.uniform(0.2, 3.0, n)), gamma


def test_inverse_is_exact_on_every_member():
    # the constants exp(i lam tau) (vec a) of the state that each unit constant
    # e_k evolves to: stacked over k, the identity of every member
    drive, gamma = _edge_members(np.random.default_rng(2024), 8000)
    codes, refusal = route(drive, gamma)
    assert refusal is None and np.array_equal(codes, np.ones(8000))
    evolve, constants, limits = modes(drive, gamma, codes)
    units = np.eye(4)[:, None, :]
    for t in (-math.inf, -250.0, -25.0, 0.0, 3.7, 60.0):
        residual = constants(t, evolve(t, units)) - units
        assert np.max(np.abs(residual)) <= 1e-14, t
    assert np.array_equal(evolve(-math.inf, units), limits(units)[0])


def test_solution_returns_every_start_at_its_epoch():
    rng = np.random.default_rng(7)
    drive, gamma = _edge_members(rng, 2000)
    states0 = rng.standard_normal((2000, 4)) + 1j * rng.standard_normal((2000, 4))
    states0 /= np.linalg.norm(states0, axis=1, keepdims=True)
    t0 = rng.choice([0.0, 3.7, -25.0, -250.0, 60.0], 2000)
    solution = solve(drive, gamma, states0, t0)
    assert np.max(np.abs(solution.states(t0) - states0)) <= 1e-12


def test_a_large_gamma_is_solved_at_its_reduced_value():
    # sin(pi * 1e300) evaluated to -0.90 where it is 0, and gamma = 1e308
    # gave an all-NaN trajectory
    proto = SyncSech2(0.3, 1.2, 1.0)
    times = np.linspace(-5.0, 5.0, 11)
    for large, reduced in ((1e300, 0.0), (1e308, 0.0), (1e8 + 0.25, 0.25), (-1e8 - 3.5, -3.5)):
        want = solve(proto, reduced, (0, 0, 1, 0), -math.inf)
        got = solve(proto, large, (0, 0, 1, 0), -math.inf)
        assert np.array_equal(got.states(times), want.states(times)), large
        assert np.array_equal(got.asymptotes(), want.asymptotes()), large


def test_trajectory_is_exact_at_the_gate_edges():
    # members with |sin(pi*gamma)| < 1e-9 were solved as if sin(pi*gamma) = 0,
    # 1.4e-9 away from the propagator of their own H_tau
    betas = [sign + d for sign in (-1.0, 1.0) for d in (0.0, 1e-15, -1e-12, 1e-9, 1e-6, 0.5)]
    offsets = (0.0, 1e-16, 1e-12, 3e-10, 9e-10, -9e-10, 1.01e-9, 1e-8)
    gammas = [k + d for k in (0.0, 1.0, 2.0, -3.0) for d in offsets]
    beta, gamma = (np.ravel(x) for x in np.meshgrid(betas, gammas))
    rng = np.random.default_rng(23)
    states0 = rng.standard_normal((beta.size, 4)) + 1j * rng.standard_normal((beta.size, 4))
    states0 /= np.linalg.norm(states0, axis=1, keepdims=True)
    V, Omega, t = 1.3, 0.9, 0.7
    got = solve(SyncSech2(beta, V, Omega), gamma, states0, -math.inf).states(t)
    # exp(-i H_tau (tau(t) - tau(-inf))) from a dense eigensolver
    w, u = np.linalg.eigh(_tau_hamiltonian(beta, gamma))
    dtau = (V / Omega) * (math.tanh(Omega * t) + 1.0)
    phases = np.exp(-1j * w * dtau)[..., None]
    want = (u @ (phases * (np.conj(np.swapaxes(u, -1, -2)) @ states0[..., None])))[..., 0]
    assert np.max(np.abs(got - want)) <= 1e-13


def test_a_huge_beta_keeps_the_norm():
    # the eigenvector slopes reached 2 beta/sin(pi*gamma) and their square
    # overflowed, so two vectors were 0 and the populations summed to 0.5
    solution = solve(SyncSech2(1e150, 1.0, 1.0), 1e-8, (0.5, 0.5, 0.5, 0.5), 0.0)
    norms = np.sum(np.abs(solution.states(np.linspace(-5.0, 5.0, 11))) ** 2, axis=-1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    assert np.max(np.abs(solution.asymptotes().sum(axis=-1) - 1.0)) <= 1e-12
