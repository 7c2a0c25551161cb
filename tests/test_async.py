"""Asynchronous-drive branches against quadrature and the numeric oracle."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from sodw import (
    AsyncTanhSech,
    IntegratorConfig,
    SyncSech2,
    check_flip_constraint,
    classify_async_conserving,
    integrate,
    integrate_batch,
    select_engine,
    solve,
)
from sodw.analysis import ENGINE_ASYNC
from sodw.asynchronous import modes, route
from sodw.core import branch_signs, stack_drives


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
        phi_u, phi_e = AsyncTanhSech(eps, ups, chi).areas(t)
        assert abs(phi_u - ref_u) < 1e-9
        assert abs(phi_e - ref_e) < 1e-9


def test_phase_integrals_saturation_and_stability():
    drive = AsyncTanhSech(0.5, 1.2, 1.0)
    phi_u, _ = drive.areas(60.0)
    assert phi_u == pytest.approx(0.5 * math.pi * 1.2, abs=1e-15)
    assert drive.saturated_area() == 0.5 * math.pi * 1.2
    # ln cosh evaluated where cosh itself overflows float64
    _, big = drive.areas(1000.0)
    assert math.isfinite(big)
    assert big == pytest.approx(0.5 * (1000.0 - math.log(2.0)), rel=1e-14)
    phi_u, phi_e = drive.areas(np.linspace(-3, 3, 7))
    assert phi_u.shape == (7,)
    # phi_u odd, phi_e even
    assert_allclose(phi_u, -phi_u[::-1], atol=1e-15)
    assert_allclose(phi_e, phi_e[::-1], atol=1e-15)


def test_branch_sign_gates():
    conserving, flip = branch_signs([0.0, 2.0, 1.0, 0.5, 1.5, 0.3, math.nan])
    assert conserving.tolist() == [1.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0]
    assert flip.tolist() == [0.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0]


def test_conserving_pair_norm_constant():
    params = AsyncTanhSech(0.7, 0.9, 1.3)
    solution = solve(params, 0.0, (0.6, 0.0, 0.8j, 0.0), -2.0)
    t = np.linspace(-20.0, 20.0, 101)
    p = np.abs(solution.states(t)) ** 2
    assert_allclose(p[:, 0] + p[:, 2], 1.0, atol=1e-12)


def _z31(solution, t):
    p = np.abs(solution.states(t)) ** 2
    return p[..., 2] - p[..., 0]


def test_conserving_asymptote_is_the_saturated_value():
    params = AsyncTanhSech(0.35, 0.8, 1.0)
    solution = solve(params, 0.0, (0.8, 0.0, -0.6j, 0.0), 1.0)
    for lim, side in zip(solution.asymptotes(), (-1, 1)):
        late = _z31(solution, side * 40.0)
        assert abs((lim[2] - lim[0]) - late) < 1e-12


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
        assert_allclose(p_plus, p_minus, atol=1e-12)
        assert abs(p_plus.sum() - 1.0) < 1e-12


def test_imbalance_inversion_when_pulse_area_is_half_integer():
    rng = np.random.default_rng(24)
    for _ in range(12):
        chi = rng.uniform(0.4, 2.0)
        n = int(rng.integers(0, 3))
        params = AsyncTanhSech(rng.uniform(0.0, 1.5), (n + 0.5) * chi, chi)
        gamma = float(rng.integers(0, 4))
        state0 = _random_state(rng)
        p_minus, p_plus = solve(params, gamma, state0, 0.0).asymptotes()
        assert abs((p_plus[2] - p_plus[0]) + (p_minus[2] - p_minus[0])) < 1e-12
        assert abs((p_plus[3] - p_plus[1]) + (p_minus[3] - p_minus[1])) < 1e-12


def test_area_theorem_ties_the_conserving_branch_to_the_synchronous_drive():
    # both closed forms need only the tunnelling area: at beta = 0 and sin(pi*gamma) = 0
    # a sech^2 pulse with 2V/Omega = pi*ups/chi ends where the tanh/sech drive ends,
    # whatever its epsilon, as phi_e is one phase on each pair
    rng = np.random.default_rng(31)
    n = 200
    eps, ups, chi = rng.uniform(-2.0, 2.0, n), rng.uniform(-3.0, 3.0, n), rng.uniform(0.3, 3.0, n)
    omega = rng.uniform(0.3, 3.0, n)
    gamma = rng.integers(0, 4, n) * 1.0
    states0 = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    states0 /= np.linalg.norm(states0, axis=1, keepdims=True)
    sync = solve(SyncSech2(0.0, 0.5 * math.pi * ups * omega / chi, omega), gamma, states0, 0.0)
    conserving = solve(AsyncTanhSech(eps, ups, chi), gamma, states0, 0.0)
    assert np.max(np.abs(sync.asymptotes() - conserving.asymptotes())) <= 1e-13


def test_classify_conserving_conditions():
    c = classify_async_conserving(2.0, 1.0)
    assert (c.kind, c.n, c.area, c.residual) == ("CCPC", 2, 2.0 * math.pi, 0.0)
    assert classify_async_conserving(1.5, 1.0).kind == "CCPI"
    assert classify_async_conserving(0.5, 1.0).kind == "CCPI"
    assert classify_async_conserving(0.8, 1.0).kind == "neither"
    with pytest.raises(ValueError):
        classify_async_conserving(1.0, 0.0)


def test_balanced_pair_freezes_dynamics():
    # a1 = a3 puts everything in the + component: populations never move
    params = AsyncTanhSech(0.6, 1.7, 1.1)
    r = 1.0 / math.sqrt(2.0)
    solution = solve(params, 0.0, (r, 0.0, r, 0.0), -3.0)
    assert abs(solution.coeffs[2]) < 1e-15  # the antisymmetric (a1, a3) mode
    t = np.linspace(-25.0, 25.0, 101)
    assert np.max(np.abs(_z31(solution, t))) < 1e-14
    p = np.abs(solution.states(t)) ** 2
    assert_allclose(p[:, [0, 2]], 0.5, atol=1e-12)


def test_flip_constraint_residual():
    assert check_flip_constraint(0.4, math.hypot(0.5, 0.4), 1.0) == pytest.approx(0.0, abs=1e-15)
    assert check_flip_constraint(0.0, 1.0, 1.0) == pytest.approx(-0.75)
    params = AsyncTanhSech(0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="flip-branch constraint") as refused:
        solve(params, 0.5, (1.0, 0.0, 0.0, 0.0), 0.0)
    codes, refusal = route(params, 0.5)
    assert codes == 0 and "residual" in refusal
    assert str(refused.value) == refusal


def test_flip_pair_norm_constant_and_bounded_far_out():
    params = _flip_params(0.4, 1.0)
    solution = solve(params, 0.5, (0.6, 0.0, 0.0, 0.8), 0.0)
    t = np.linspace(-18.0, 18.0, 91)
    p = np.abs(solution.states(t)) ** 2
    assert_allclose(p[:, 0] + p[:, 3], 1.0, atol=1e-12)
    # the naive sech^{-1/2} prefactor would overflow here; the reduced
    # grouping must stay finite and normalized
    far = solution.states(np.array([-800.0, 800.0]))
    assert np.all(np.isfinite(far.view(float)))
    assert_allclose(np.sum(np.abs(far) ** 2, axis=-1), 1.0, atol=1e-12)


def test_flip_populations_cross_over():
    params = _flip_params(0.3, 1.2)
    solution = solve(params, 0.5, (1.0, 0.0, 0.0, 0.0), -6.0)
    p_minus, p_plus = solution.asymptotes()
    # the branch swaps the pair populations between the two ends
    assert p_minus[0] == pytest.approx(p_plus[3], abs=1e-15)
    assert p_minus[3] == pytest.approx(p_plus[0], abs=1e-15)
    early = solution.states(-40.0)
    late = solution.states(40.0)
    assert abs(np.abs(early[0]) ** 2 - p_minus[0]) < 1e-10
    assert abs(np.abs(late[0]) ** 2 - p_plus[0]) < 1e-10
    assert abs(np.abs(early[3]) ** 2 - p_minus[3]) < 1e-10
    assert abs(np.abs(late[3]) ** 2 - p_plus[3]) < 1e-10


def test_flip_full_state_assembly():
    # D pair fills slots (a2, a3); check the 4-vector wiring end to end
    params = _flip_params(0.5, 0.9)
    state0 = np.array([0.0, 0.8, 0.6, 0.0], dtype=complex)
    solution = solve(params, 0.5, state0, -1.0)
    assert np.linalg.norm(solution.states(-1.0) - state0) < 1e-12
    p_minus, p_plus = solution.asymptotes()
    late = np.abs(solution.states(45.0)) ** 2
    assert abs(late[1] - p_plus[1]) < 1e-10
    assert abs(late[2] - p_plus[2]) < 1e-10
    assert abs(p_minus.sum() - 1.0) < 1e-12


def test_off_branch_angle_rejected():
    params = AsyncTanhSech(0.2, 1.0, 1.0)
    with pytest.raises(ValueError, match="no closed form") as refused:
        solve(params, 0.3, (1.0, 0.0, 0.0, 0.0), 0.0)
    codes, refusal = route(params, 0.3)
    assert codes == 0 and str(refused.value) == refusal


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
    gammas, drives, states0 = zip(*cases)
    gammas, drives, states0 = np.array(gammas), stack_drives(drives), np.array(states0)
    T = 25.0 / drives.chi
    batch = integrate_batch(gammas, drives, states0, IntegratorConfig(-T, T, 1e-12, 1e-14), [1.0])
    exact = solve(drives, gammas, states0, -T).states(T)
    gaps = np.max(np.abs(np.abs(exact) ** 2 - batch.population_array[0]), axis=-1)
    for gamma, gap in zip(gammas, gaps):
        assert gap < 1e-6, f"gamma={gamma!r}: exact and oracle populations differ by {gap:.2e}"


@pytest.mark.parametrize(
    "params,gamma",
    [(AsyncTanhSech(0.3, 0.7, 1.0), 2.0), (_flip_params(0.4, 1.0), 0.5)],
    ids=["conserving", "flip"],
)
def test_solve_gates_an_asynchronous_drive_once(params, gamma, monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return branch_signs(g)

    for module in ("sodw.core", "sodw.sync", "sodw.asynchronous", "sodw.analysis"):
        monkeypatch.setattr(f"{module}.branch_signs", counted, raising=False)
    solve(params, gamma, (0.6, 0.0, 0.0, 0.8), 0.0)
    assert len(calls) == 1


_INVERSE_TIMES = (0.0, 3.7, -25.0, -250.0, 60.0)


def _branch_members(rng, n, branch):
    """Fields (epsilon, upsilon, chi) and gammas of n seeded drives on one branch."""
    eps, chi = rng.uniform(-2.0, 2.0, n), rng.uniform(0.1, 3.0, n)
    if branch == "conserving":
        return (eps, rng.uniform(-3.0, 3.0, n), chi), rng.integers(-4, 5, n) * 1.0
    # the flip constraint holds with either sign of upsilon
    ups = rng.choice([-1.0, 1.0], n) * np.hypot(0.5 * chi, eps)
    return (eps, ups, chi), rng.integers(-4, 4, n) + 0.5


@pytest.mark.parametrize("branch", ["conserving", "flip"])
def test_inverse_is_exact_on_every_member(branch):
    # the constants of the state that each unit constant e_k evolves to, from the
    # conjugate phases and projection on the conserving branch or each flip pair
    # block's adjugate: stacked over k, the identity of every member
    fields, gamma = _branch_members(np.random.default_rng(2025), 4000, branch)
    drive = AsyncTanhSech(*fields)
    codes, refusal = route(drive, gamma)
    assert refusal is None and np.all(np.abs(codes) == (1 if branch == "conserving" else 2))
    evolve, constants, _ = modes(drive, gamma, codes)
    units = np.eye(4)[:, None, :]
    for t in _INVERSE_TIMES:
        residual = constants(t, evolve(t, units)) - units
        assert np.max(np.abs(residual)) <= 1e-14, t


def test_solution_returns_every_start_at_its_epoch_on_a_mixed_stack():
    rng = np.random.default_rng(9)
    parts = [_branch_members(rng, 2000, branch) for branch in ("conserving", "flip")]
    # the two branches' members interleaved
    order = rng.permutation(4000)
    fields = [np.concatenate(field)[order] for field in zip(*(f for f, _ in parts))]
    gamma = np.concatenate([g for _, g in parts])[order]
    states0 = rng.standard_normal((4000, 4)) + 1j * rng.standard_normal((4000, 4))
    states0 /= np.linalg.norm(states0, axis=1, keepdims=True)
    t0 = rng.choice(_INVERSE_TIMES, 4000)
    solution = solve(AsyncTanhSech(*fields), gamma, states0, t0)
    assert np.max(np.abs(solution.states(t0) - states0)) <= 1e-12
