"""Synchronous-drive engine against a dense eigensolver and quadrature."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from sodw import SyncSech2, classify_sync_condition, solve
from sodw.core import hamiltonian_matrix, imbalance
from sodw.sync import eigen_sync, tau_sech2


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


def test_eigenvalues_come_in_exact_opposite_pairs():
    for beta, gamma in [(0.5, 0.5), (2.0, 0.3), (0.0, 1.7), (3.0, 1.0)]:
        eig = eigen_sync(beta, gamma)
        assert eig.lam[0] == -eig.lam[1]
        assert eig.lam[2] == -eig.lam[3]
        assert eig.lam[0] <= 0.0 and eig.lam[2] <= 0.0


def test_vector_slope_product_identity():
    # the two slopes in each family multiply to exactly -1, which is what
    # keeps the small root free of subtractive cancellation
    rng = np.random.default_rng(13)
    for _ in range(25):
        beta = rng.uniform(0.0, 6.0)
        gamma = rng.uniform(0.05, 0.95)
        eig = eigen_sync(beta, gamma)
        assert abs(eig.alpha_plus * eig.alpha_minus + 1.0) < 1e-12
        assert abs(eig.eta_plus * eig.eta_minus + 1.0) < 1e-12


def test_degenerate_coupling_angle_branch():
    # sin(pi*gamma) = 0: the slope parametrization blows up, the 2x2-block
    # branch takes over and the auxiliaries are flagged as unusable
    eig = eigen_sync(0.7, 1.0)  # cos(pi*gamma) = -1
    assert_allclose(eig.lam, [-1.7, 1.7, -0.3, 0.3], atol=1e-12)
    for aux in (eig.alpha_minus, eig.alpha_plus, eig.eta_minus, eig.eta_plus):
        assert math.isnan(aux)
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
    for V, Omega, t in [(0.5 * math.pi, 1.0, 1.7), (2.0, 0.6, -3.1), (1.3, 2.5, 0.4)]:
        ref, err = quad(lambda u: V / math.cosh(Omega * u) ** 2, 0.0, t)
        assert err < 1e-12
        assert abs(tau_sech2(V, Omega, t) - ref) < 1e-10


def test_tau_map_saturates_at_pulse_area():
    assert tau_sech2(2.0, 0.5, math.inf) == pytest.approx(4.0, abs=1e-15)
    assert tau_sech2(2.0, 0.5, -math.inf) == pytest.approx(-4.0, abs=1e-15)
    with pytest.raises(ValueError):
        tau_sech2(1.0, 0.0, 1.0)


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
    assert c.beta_residual == 0.0 and c.grid_residual < 1e-15

    c = classify_sync_condition(0.0, 0.25 * math.pi, 1.0)
    assert (c.kind, c.n) == ("CCPI", 0)

    c = classify_sync_condition(0.0, 1.25 * math.pi, 2.0)  # 2V/Omega = 1.25*pi
    assert c.kind == "neither" and c.n is None
    assert c.grid_residual == pytest.approx(0.25 * math.pi, abs=1e-12)

    c = classify_sync_condition(0.3, 0.5 * math.pi, 1.0)  # splitting breaks both
    assert c.kind == "neither"
    assert c.beta_residual == pytest.approx(0.3)

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
