"""Asynchronous-drive branches against quadrature and the numeric oracle."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from sodw import (
    ENGINE_ASYNC,
    AsyncBranchConstants,
    AsyncTanhSech,
    IntegratorConfig,
    check_flip_constraint,
    classify_async_conserving,
    conserving_asymptotic_imbalance,
    conserving_branch_sign,
    conserving_constants,
    conserving_imbalance,
    evolve_async_conserving,
    evolve_async_flip,
    flip_branch_sign,
    flip_constants,
    integrate,
    integrate_batch,
    phase_integrals,
    populations,
    select_engine,
    solve,
)
from sodw.asynchronous import AsyncSolution


def _flip_params(epsilon, chi):
    # the closed-form point of the flip branch for given epsilon, chi
    return AsyncTanhSech(epsilon, math.hypot(0.5 * chi, epsilon), chi)


def _random_state(rng):
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return a / np.linalg.norm(a)


def test_phase_integrals_match_quadrature():
    for eps, ups, chi, t in [(0.3, 0.7, 1.0, 2.4), (1.1, 0.4, 0.6, -5.0), (0.0, 2.0, 2.0, 0.9)]:
        ref_u, err_u = quad(lambda u: ups / math.cosh(chi * u), 0.0, t)
        ref_e, err_e = quad(lambda u: eps * math.tanh(chi * u), 0.0, t)
        assert max(err_u, err_e) < 1e-8
        ph = phase_integrals(eps, ups, chi, t)
        assert abs(ph.phi_u - ref_u) < 1e-9
        assert abs(ph.phi_e - ref_e) < 1e-9


def test_phase_integrals_saturation_and_stability():
    ph = phase_integrals(0.5, 1.2, 1.0, 60.0)
    assert ph.phi_u == pytest.approx(0.5 * math.pi * 1.2, abs=1e-15)
    # ln cosh evaluated where cosh itself overflows float64
    big = phase_integrals(0.5, 1.2, 1.0, 1000.0)
    assert math.isfinite(big.phi_e)
    assert big.phi_e == pytest.approx(0.5 * (1000.0 - math.log(2.0)), rel=1e-14)
    arr = phase_integrals(0.5, 1.2, 1.0, np.linspace(-3, 3, 7))
    assert arr.phi_u.shape == (7,)
    # phi_u odd, phi_e even
    assert_allclose(arr.phi_u, -arr.phi_u[::-1], atol=1e-15)
    assert_allclose(arr.phi_e, arr.phi_e[::-1], atol=1e-15)
    with pytest.raises(ValueError):
        phase_integrals(0.5, 1.2, 0.0, 1.0)


def test_branch_sign_gates():
    assert conserving_branch_sign(0.0) == 1.0
    assert conserving_branch_sign(2.0) == 1.0
    assert conserving_branch_sign(1.0) == -1.0
    assert conserving_branch_sign(0.5) is None
    assert flip_branch_sign(0.5) == 1.0
    assert flip_branch_sign(1.5) == -1.0
    assert flip_branch_sign(1.0) is None
    assert flip_branch_sign(0.3) is None


def test_conserving_constants_reproduce_anchor():
    rng = np.random.default_rng(21)
    params = AsyncTanhSech(0.4, 1.1, 0.8)
    for _ in range(20):
        pair0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        t_ref = rng.uniform(-4.0, 4.0)
        kind = ("A", "B")[rng.integers(2)]
        sign = (1.0, -1.0)[rng.integers(2)]
        c = conserving_constants(pair0, kind, params, t_ref, sign)
        back = evolve_async_conserving(c, params, t_ref)
        assert np.linalg.norm(back - pair0) < 1e-12


def test_conserving_pair_norm_constant():
    params = AsyncTanhSech(0.7, 0.9, 1.3)
    c = conserving_constants((0.6, 0.8j), "A", params, -2.0)
    t = np.linspace(-20.0, 20.0, 101)
    pair = evolve_async_conserving(c, params, t)
    assert_allclose(np.sum(np.abs(pair) ** 2, axis=-1), 1.0, atol=1e-12)


def test_conserving_imbalance_matches_population_difference():
    # dual route: the normative -4 Re(...) form against |a3|^2 - |a1|^2
    rng = np.random.default_rng(22)
    params = AsyncTanhSech(0.25, 1.4, 0.9)
    t = np.linspace(-12.0, 12.0, 61)
    for _ in range(10):
        pair0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        pair0 /= np.linalg.norm(pair0)
        sign = (1.0, -1.0)[rng.integers(2)]
        c = conserving_constants(pair0, "A", params, 0.0, sign)
        pair = evolve_async_conserving(c, params, t)
        direct = np.abs(pair[:, 1]) ** 2 - np.abs(pair[:, 0]) ** 2
        assert_allclose(conserving_imbalance(c, params, t), direct, atol=1e-12)


def test_conserving_asymptote_is_the_saturated_value():
    params = AsyncTanhSech(0.35, 0.8, 1.0)
    c = conserving_constants((0.8, -0.6j), "A", params, 1.0)
    for side in (-1, 1):
        lim = conserving_asymptotic_imbalance(c, params, side)
        late = conserving_imbalance(c, params, side * 40.0)
        assert abs(lim - late) < 1e-12


def test_population_return_when_pulse_area_is_integer():
    # ups/chi integer: phi_u sweeps a multiple of pi, every population returns
    rng = np.random.default_rng(23)
    for _ in range(12):
        chi = rng.uniform(0.4, 2.0)
        n = int(rng.integers(1, 4))
        params = AsyncTanhSech(rng.uniform(0.0, 1.5), n * chi, chi)
        gamma = float(rng.integers(0, 4))
        state0 = _random_state(rng)
        p_minus, p_plus = solve(params, gamma, state0, 0.0).asymptotes()
        assert_allclose(p_plus.pvec, p_minus.pvec, atol=1e-12)
        assert abs(p_plus.norm2 - 1.0) < 1e-12


def test_imbalance_inversion_when_pulse_area_is_half_integer():
    rng = np.random.default_rng(24)
    for _ in range(12):
        chi = rng.uniform(0.4, 2.0)
        n = int(rng.integers(0, 3))
        params = AsyncTanhSech(rng.uniform(0.0, 1.5), (n + 0.5) * chi, chi)
        gamma = float(rng.integers(0, 4))
        state0 = _random_state(rng)
        p_minus, p_plus = solve(params, gamma, state0, 0.0).asymptotes()
        assert abs((p_plus.P3 - p_plus.P1) + (p_minus.P3 - p_minus.P1)) < 1e-12
        assert abs((p_plus.P4 - p_plus.P2) + (p_minus.P4 - p_minus.P2)) < 1e-12


def test_classify_conserving_conditions():
    c = classify_async_conserving(2.0, 1.0)
    assert (c.kind, c.ratio, c.imbalance_sign) == ("CCPC", 2.0, -1)
    c = classify_async_conserving(1.5, 1.0)
    assert (c.kind, c.imbalance_sign) == ("CCPI", -1)
    c = classify_async_conserving(0.5, 1.0)
    assert (c.kind, c.imbalance_sign) == ("CCPI", 1)
    c = classify_async_conserving(0.8, 1.0)
    assert c.kind == "neither" and c.imbalance_sign is None
    with pytest.raises(ValueError):
        classify_async_conserving(1.0, 0.0)
    with pytest.raises(ValueError):
        classify_async_conserving(1.0, 1.0, tol=0.0)


def test_balanced_pair_freezes_dynamics():
    # a1 = a3 puts everything in the + component: populations never move
    params = AsyncTanhSech(0.6, 1.7, 1.1)
    r = 1.0 / math.sqrt(2.0)
    c = conserving_constants((r, r), "A", params, -3.0)
    assert abs(c.minus) < 1e-15
    t = np.linspace(-25.0, 25.0, 101)
    assert np.max(np.abs(conserving_imbalance(c, params, t))) < 1e-14
    pair = evolve_async_conserving(c, params, t)
    assert_allclose(np.abs(pair) ** 2, 0.5, atol=1e-12)


def test_flip_constraint_residual():
    assert check_flip_constraint(0.4, math.hypot(0.5, 0.4), 1.0) == pytest.approx(0.0, abs=1e-15)
    assert check_flip_constraint(0.0, 1.0, 1.0) == pytest.approx(-0.75)
    params = AsyncTanhSech(0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="flip-branch constraint"):
        flip_constants((1.0, 0.0), "C", params, 0.0)
    consts = AsyncBranchConstants("C", 0.5 + 0j, 0.5 + 0j, 0.0)
    with pytest.raises(ValueError, match="residual"):
        evolve_async_flip(consts, params, 0.0)


def test_flip_constants_reproduce_anchor():
    rng = np.random.default_rng(25)
    for _ in range(20):
        chi = rng.uniform(0.4, 2.0)
        params = _flip_params(rng.uniform(-1.0, 1.0), chi)
        pair0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        t_ref = rng.uniform(-3.0, 3.0)
        kind = ("C", "D")[rng.integers(2)]
        sign = (1.0, -1.0)[rng.integers(2)]
        c = flip_constants(pair0, kind, params, t_ref, sign)
        back = evolve_async_flip(c, params, t_ref)
        assert np.linalg.norm(back - pair0) < 1e-11


def test_flip_pair_norm_constant_and_bounded_far_out():
    params = _flip_params(0.4, 1.0)
    c = flip_constants((0.6, 0.8), "C", params, 0.0)
    t = np.linspace(-18.0, 18.0, 91)
    pair = evolve_async_flip(c, params, t)
    assert_allclose(np.sum(np.abs(pair) ** 2, axis=-1), 1.0, atol=1e-12)
    # the naive sech^{-1/2} prefactor would overflow here; the reduced
    # grouping must stay finite and normalized
    far = evolve_async_flip(c, params, np.array([-800.0, 800.0]))
    assert np.all(np.isfinite(far.view(float)))
    assert_allclose(np.sum(np.abs(far) ** 2, axis=-1), 1.0, atol=1e-12)


def test_flip_populations_cross_over():
    params = _flip_params(0.3, 1.2)
    solution = solve(params, 0.5, (1.0, 0.0, 0.0, 0.0), -6.0)
    p_minus, p_plus = solution.asymptotes()
    # the branch swaps the pair populations between the two ends
    assert p_minus.P1 == pytest.approx(p_plus.P4, abs=1e-15)
    assert p_minus.P4 == pytest.approx(p_plus.P1, abs=1e-15)
    early = solution.states(-40.0)
    late = solution.states(40.0)
    assert abs(np.abs(early[0]) ** 2 - p_minus.P1) < 1e-10
    assert abs(np.abs(late[0]) ** 2 - p_plus.P1) < 1e-10
    assert abs(np.abs(early[3]) ** 2 - p_minus.P4) < 1e-10
    assert abs(np.abs(late[3]) ** 2 - p_plus.P4) < 1e-10


def test_flip_full_state_assembly():
    # D pair fills slots (a2, a3); check the 4-vector wiring end to end
    params = _flip_params(0.5, 0.9)
    state0 = np.array([0.0, 0.8, 0.6, 0.0], dtype=complex)
    solution = solve(params, 0.5, state0, -1.0)
    assert np.linalg.norm(solution.states(-1.0) - state0) < 1e-12
    p_minus, p_plus = solution.asymptotes()
    late = populations(solution.states(45.0), 45.0)
    assert abs(late.P2 - p_plus.P2) < 1e-10
    assert abs(late.P3 - p_plus.P3) < 1e-10
    assert abs(p_minus.norm2 - 1.0) < 1e-12


def test_off_branch_angle_rejected():
    params = AsyncTanhSech(0.2, 1.0, 1.0)
    with pytest.raises(ValueError, match="neither exact asynchronous branch"):
        AsyncSolution(params, 0.3, (0, 0, 1, 0), 0.0)


def _oracle_states(params, gamma, state0, times):
    cfg = IntegratorConfig(times[0], times[-1])
    return integrate(gamma, params, state0, cfg, times).states


@pytest.mark.parametrize(
    "gamma,params",
    [
        (0.0, AsyncTanhSech(0.3, 0.7, 1.0)),
        (1.0, AsyncTanhSech(0.5, 1.2, 0.8)),
        (0.5, _flip_params(0.4, 1.0)),
        (1.5, _flip_params(-0.6, 1.4)),
    ],
)
def test_exact_branches_match_numeric_oracle(gamma, params):
    rng = np.random.default_rng(26)
    state0 = _random_state(rng)
    times = np.linspace(-12.0, 12.0, 81)
    exact = solve(params, gamma, state0, times[0]).states(times)
    numeric = _oracle_states(params, gamma, exact[0], times)
    assert np.max(np.abs(exact - numeric)) < 1e-7



def test_exact_engine_only_where_the_closed_form_holds():
    # the closed forms drop the off-branch coupling (sin pi*gamma on the
    # conserving branch, cos pi*gamma on the flip branch), so every gamma
    # routed to the exact engine must match a tight oracle solve
    rng = np.random.default_rng(44)
    conserving = AsyncTanhSech(1.0, 1.0, 1.0)
    flip = AsyncTanhSech(math.sqrt(0.21), 0.5, 0.4)
    centers = [(0.0, conserving), (1.0, conserving), (2.0, conserving), (0.5, flip), (1.5, flip)]
    cases = []
    for center, params in centers:
        for offset in (1e-10, 1e-6, 1.4e-5):
            for gamma in (center - offset, center + offset):
                on_branch = select_engine(params, gamma) == ENGINE_ASYNC
                assert on_branch or offset > 1e-10, f"gamma={gamma!r} left the exact engine"
                if on_branch:
                    cases.append((gamma, params, _random_state(rng)))
    members = []
    for gamma, params, state0 in cases:
        T = 25.0 / params.chi
        members.append((gamma, params, state0, IntegratorConfig(-T, T, 1e-12, 1e-14)))
    trajs = integrate_batch(members, [1.0])
    for (gamma, params, state0, cfg), traj in zip(members, trajs):
        exact = solve(params, gamma, state0, cfg.t_start).states(cfg.t_end)
        gap = np.max(np.abs(np.abs(exact) ** 2 - traj.population_array[0]))
        assert gap < 1e-6, f"gamma={gamma!r}: exact and oracle populations differ by {gap:.2e}"
