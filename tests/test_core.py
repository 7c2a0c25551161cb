import math

import numpy as np
import pytest

from sodw import classify_async_conserving, classify_sync_condition, integrate_batch, solve
from sodw.core import (
    AsyncTanhSech,
    SyncSech2,
    as_state,
    branch_signs,
    coupling_angle,
    coupling_values,
    hamiltonian_matrix,
    imbalance,
    stack_drives,
    start_time,
)
from sodw.oracle import IntegratorConfig


def test_coupling_rejects_nonfinite():
    with pytest.raises(ValueError):
        coupling_values(math.nan)
    with pytest.raises(ValueError):
        coupling_values(math.inf)


def test_sync_protocol_envelopes():
    prot = SyncSech2(0.5, 2.0, 0.8)
    ups, eps = prot.values(np.array([0.0, 1.3, -1.3, 0.7, 80.0]))
    assert ups[0] == pytest.approx(2.0)
    # even pulse, detuning locked to it with ratio beta
    assert ups[1] == pytest.approx(ups[2])
    assert eps[3] == pytest.approx(0.5 * ups[3])
    assert ups[4] == pytest.approx(0.0, abs=1e-30)


def test_sync_protocol_rejects_bad_omega():
    with pytest.raises(ValueError):
        SyncSech2(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        SyncSech2(0.0, 1.0, -1.0)


def test_async_protocol_envelopes():
    prot = AsyncTanhSech(1.5, 2.0, 0.7)
    ups, eps = prot.values(np.array([0.0, -3.0, 3.0, 60.0]))
    assert ups[0] == pytest.approx(2.0)
    assert eps[0] == 0.0
    # odd saturating detuning, even decaying tunneling
    assert eps[1] == pytest.approx(-eps[2])
    assert eps[3] == pytest.approx(1.5)
    assert ups[3] == pytest.approx(0.0, abs=1e-16)
    with pytest.raises(ValueError):
        AsyncTanhSech(1.0, 1.0, 0.0)


@pytest.mark.parametrize("cls", [SyncSech2, AsyncTanhSech])
def test_stacked_values_are_the_members_values(cls):
    # a (K, 1) time column broadcasts against N stacked members to (K, N)
    rng = np.random.default_rng(3)
    fields = rng.uniform([0.0, 0.1, 0.4], [2.0, 2.0, 2.0], size=(5, 3))
    times = np.linspace(-4.0, 4.0, 9)
    stacked = cls(*fields.T).values(times[:, None])
    for k, row in enumerate(fields):
        ups, eps = cls(*row).values(times)
        assert np.array_equal(stacked[0][:, k], ups)
        assert np.array_equal(stacked[1][:, k], eps)


_FAR = (400.0, -400.0, 800.0, -800.0, 1e6, -1e6)


@pytest.mark.parametrize("t", _FAR)
def test_drive_values_far_from_the_pulse_are_the_limits(t):
    # cosh or its square overflowed there, and the warning is an error under -W error
    ups, eps = AsyncTanhSech(0.4, 1.0, 1.0).values(t)
    assert 0.0 <= ups < 1e-170 and eps == math.copysign(0.4, t)
    assert SyncSech2(0.5, 1.0, 1.0).values(t) == (0.0, 0.0)


@pytest.mark.parametrize("cls", [SyncSech2, AsyncTanhSech])
def test_stacked_values_far_from_the_pulse_keep_every_finite_value(cls):
    fields = np.array([[0.4, 1.0, 1.0], [1.5, 0.7, 0.5], [0.2, 2.0, 2.0]])
    times = np.array(_FAR + (0.0, 3.0, -30.0, 200.0, 700.0))
    ups, eps = cls(*fields.T).values(times[:, None])
    with np.errstate(over="ignore"):
        x = fields[:, 2] * times[:, None]
        if cls is SyncSech2:
            sech2 = fields[:, 1] / np.cosh(x) ** 2
            want = sech2, fields[:, 0] * sech2
        else:
            want = fields[:, 1] / np.cosh(x), fields[:, 0] * np.tanh(x)
    # bit for bit wherever cosh is finite, and the limit sech -> 0 beyond
    assert np.array_equal(ups, want[0]) and np.array_equal(eps, want[1])
    assert np.all(ups[np.abs(x) > 711.0] == 0.0)


def test_hamiltonian_structure():
    ups, eps = 1.2, 0.4
    s = 1.2 * math.sin(0.3 * math.pi)
    c = 1.2 * math.cos(0.3 * math.pi)
    expected = np.array(
        [
            [eps, 0.0, -c, -s],
            [0.0, -eps, s, -c],
            [-c, s, eps, 0.0],
            [-s, -c, 0.0, -eps],
        ]
    )
    h = hamiltonian_matrix(0.3, ups, eps)
    assert np.allclose(h, expected, atol=0.0)
    assert np.array_equal(h, h.T)
    assert h.dtype == np.float64


@pytest.mark.parametrize(
    "gamma,signs",
    [
        (1e8, (1.0, 0.0)),
        (1e8 + 1.0, (-1.0, 0.0)),
        (1e8 + 0.5, (0.0, 1.0)),
        (-1e8 - 0.5, (0.0, -1.0)),
        (2.0**53 + 2.0, (1.0, 0.0)),
        (1e300, (1.0, 0.0)),
        (-1.7e308, (1.0, 0.0)),
    ],
)
def test_branch_signs_of_a_large_gamma(gamma, signs):
    # np.pi * gamma lost the reduction: branch_signs(1e8) was (0, 0), since
    # sin(pi * 1e8) evaluated to -3.9e-8, and sin(pi * 1e300) to -0.90
    assert tuple(map(float, branch_signs(gamma))) == signs


def test_coupling_angle_reduces_exactly_and_keeps_a_small_gamma():
    g = np.random.default_rng(41).uniform(-4.0, 4.0, 100_000)
    assert np.array_equal(coupling_angle(g), g)
    assert np.array_equal(coupling_angle([1e8, 1e8 + 0.5, -1e8 - 3.25, 1e300]), [0, 0.5, -3.25, 0])
    # H at a large gamma is H at the reduced one, bit for bit
    for large, reduced in ((1e300, 0.0), (1e8 + 2.5, 2.5)):
        want = hamiltonian_matrix(reduced, [0.3, 1.2], 0.4)
        assert np.array_equal(hamiltonian_matrix(large, [0.3, 1.2], 0.4), want)


def test_hamiltonian_rejects_nonfinite():
    with pytest.raises(ValueError, match="gamma must be finite"):
        hamiltonian_matrix(math.nan, 1.2, 0.4)
    with pytest.raises(ValueError):
        hamiltonian_matrix(0.3, math.nan, 0.0)


def test_as_state_validation():
    a = as_state([1, 0, 0, 0])
    assert a.dtype == complex and a.shape == (4,)
    with pytest.raises(ValueError):
        as_state([1, 0, 0])
    with pytest.raises(ValueError):
        as_state([math.inf, 0, 0, 0])
    text = r"^amplitude vectors must have 4 levels on the last axis, got \(2, 3\)$"
    with pytest.raises(ValueError, match=text):
        solve(SyncSech2(0.0, 1.0, 1.0), 0.3, np.zeros((2, 3)), 0.0)


def test_populations_and_imbalance():
    p = np.abs(as_state([0.5, 0.5j, -0.5, 0.5])) ** 2
    assert np.allclose(p, 0.25)
    assert imbalance(p, 3, 1) == pytest.approx(0.0)
    assert imbalance(p, "l", "R") == pytest.approx(0.0)
    assert imbalance(p, 1, "L") == pytest.approx(-0.25)
    # a stack of population rows gives one imbalance per row
    stack = np.array([p, [0.0, 0.0, 1.0, 0.0]])
    assert np.allclose(imbalance(stack, "L", "R"), [0.0, 1.0])


def test_imbalance_rejects_duplicate_or_unknown_indices():
    snap = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        imbalance(snap, 2, 2)
    with pytest.raises(ValueError):
        imbalance(snap, "L", "l")
    with pytest.raises(ValueError):
        imbalance(snap, 5, 1)
    with pytest.raises(ValueError):
        imbalance(snap, "x", 1)




# (drive, field, stacked): every field of each drive, alone and as one bad
# member of a stack; Omega is shared by a stack of synchronous drives
_FIELDS = [
    (cls, field, stacked)
    for cls in (SyncSech2, AsyncTanhSech)
    for field in range(3)
    for stacked in (False, True)
    if not (cls is SyncSech2 and field == 2 and stacked)
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "cls,field,stacked",
    _FIELDS,
    ids=[f"{c.__name__}-{k}-{'stack' if s else 'scalar'}" for c, k, s in _FIELDS],
)
def test_drives_refuse_nonfinite_fields(cls, field, stacked, bad):
    # a non-finite drive value used to reach the engines: NaN rows from the
    # closed forms, a solver stepping forever at t = nan in the oracle
    values = [0.5, 1.2, 1.0]
    values[field] = np.array([values[field], bad, values[field]]) if stacked else bad
    with pytest.raises(ValueError, match="must be"):
        cls(*values)


# the grid points of the area rule, in units of pi, and their verdicts
_GRID = [(0.0, "CCPC", 0), (0.5, "CCPI", 0), (1.0, "CCPC", 1), (1.5, "CCPI", 1), (7.0, "CCPC", 7)]
_AREAS = [
    pytest.param(
        sign * turns * math.pi + shift,
        kind if abs(shift) < 1e-9 else "neither",
        n,
        id=f"{sign * turns:g}pi{shift:+.1e}",
    )
    for turns, kind, n in _GRID + [(0.8, "neither", None)]
    for sign in (1.0, -1.0)
    for shift in (0.0, -0.5e-9, 0.5e-9, -2e-9, 2e-9)
    if sign > 0 or turns > 0
]


@pytest.mark.parametrize("area,kind,n", _AREAS)
def test_one_area_rule_decides_both_drives(area, kind, n):
    # the sync rule tested 2V/Omega = n*pi with n >= 1, so it called the areas 0,
    # -pi and -pi/2 neither; the async rule tested |sin(pi*upsilon/chi)| instead
    sync = classify_sync_condition(0.0, 0.5 * area, 1.0)
    conserving = classify_async_conserving(area / math.pi, 1.0)
    verdict = (kind, None if kind == "neither" else n)
    assert (sync.kind, sync.n) == (conserving.kind, conserving.n) == verdict
    assert abs(sync.residual - conserving.residual) <= 1e-15
    rng = np.random.default_rng(25)
    starts = rng.normal(size=(20, 4)) + 1j * rng.normal(size=(20, 4))
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    gamma = rng.uniform(0.0, 3.0, 20)
    p_sync = solve(SyncSech2(0.0, 0.5 * area, 1.0), gamma, starts, -math.inf).asymptotes()
    drive = AsyncTanhSech(rng.uniform(-2.0, 2.0, 20), area / math.pi, 1.0)
    p_conserving = solve(drive, rng.integers(0, 4, 20) * 1.0, starts, 0.0).asymptotes()
    if kind == "CCPC":
        assert np.max(np.abs(p_sync[1] - p_sync[0])) <= 1e-9
        assert np.max(np.abs(p_conserving[1] - p_conserving[0])) <= 1e-9
    if kind == "CCPI":
        z_lr = imbalance(p_sync, "L", "R")
        assert np.max(np.abs(z_lr[1] + z_lr[0])) <= 1e-9
        z31 = imbalance(p_conserving, 3, 1)
        assert np.max(np.abs(z31[1] + z31[0])) <= 1e-9


_LIST_DRIVES = [
    pytest.param(SyncSech2, ([0.1, 0.2], 1.0, 1.0), 0.3, id="sync-beta"),
    pytest.param(SyncSech2, (0.1, 1.0, [1.0, 2.0]), 0.3, id="sync-Omega"),
    pytest.param(AsyncTanhSech, (0.3, [1.0, 2.0], 1.0), 1.0, id="async-upsilon"),
    pytest.param(AsyncTanhSech, (0.3, 1e-10, [1.0, 1e-308]), 1.0, id="async-chi"),
]


@pytest.mark.parametrize("cls,fields,gamma", _LIST_DRIVES)
def test_a_list_valued_stack_computes_as_its_array(cls, fields, gamma):
    # each raised a TypeError far from its input, such as "can't multiply
    # sequence by non-int of type 'numpy.float64'"
    listed = cls(*fields)
    arrays = cls(*(np.array(value) if isinstance(value, list) else value for value in fields))
    e3 = (0.0, 0.0, 1.0, 0.0)
    expected = solve(arrays, gamma, e3, 0.0).asymptotes()
    np.testing.assert_array_equal(solve(listed, gamma, e3, 0.0).asymptotes(), expected)
    window = IntegratorConfig(0.0, 5.0)
    expected = integrate_batch(gamma, arrays, e3, window, [0.5, 1.0]).states
    states = integrate_batch(gamma, listed, e3, window, [0.5, 1.0]).states
    np.testing.assert_array_equal(states, expected)
    # a scalar field is kept as given, so every meta file prints it as before
    kinds = [np.ndarray if isinstance(value, list) else float for value in fields]
    assert [type(value) for value in vars(listed).values()] == kinds


def test_start_time_moves_only_the_members_at_minus_inf():
    drive = AsyncTanhSech(0.3, 1.0, np.array([0.5, 1e-308, 2.0]))
    assert np.array_equal(start_time(drive, [-math.inf, 0.0, -math.inf]), [-50.0, 0.0, -25.0])
    # finite starts come back as given, bit for bit, the chi = 1e-308 member's too
    finite = np.array([-3.0, 1e-300, 7.5])
    assert np.array_equal(start_time(drive, finite), finite)
    assert start_time(SyncSech2(0.0, 1.0, 1e-308), -2.5) == -2.5
    # one start at -inf broadcasts against the members
    assert np.array_equal(start_time(AsyncTanhSech(0.3, 1.0, [0.5, 2.0]), -math.inf), [-50, -25])
    assert start_time(SyncSech2(0.0, 1.0, 0.5), -math.inf) == -50.0


def test_start_time_refuses_an_overflowing_horizon_only_for_members_at_minus_inf():
    drive = AsyncTanhSech(0.3, 1.0, np.array([1.0, 1e-308]))
    assert np.array_equal(start_time(drive, [-math.inf, 0.0]), [-25.0, 0.0])
    with pytest.raises(ValueError, match=r"^default horizon 25/min\(chi, 1\) must be finite"):
        start_time(drive, [0.0, -math.inf])
    with pytest.raises(ValueError, match=r"^default horizon 25/min\(Omega, 1\) must be finite"):
        start_time(SyncSech2(0.0, 1.0, 1e-308), -math.inf)


def test_stack_drives_refuses_mixed_drive_classes():
    drives = [SyncSech2(0.0, 1.0, 1.0), AsyncTanhSech(0.3, 1.0, 1.0)]
    text = r"^protocols must share one drive class, got \['AsyncTanhSech', 'SyncSech2'\]$"
    with pytest.raises(ValueError, match=text):
        stack_drives(drives)


# the 8th-order central difference of the first derivative: weights of f(t + k*h) - f(t - k*h)
_STENCIL = ((1, 4 / 5), (2, -1 / 5), (3, 4 / 105), (4, -1 / 280))


def _branch_members(branch, rng, n):
    """(drive, gamma) of n random members of one closed-form branch."""
    if branch == "sync":
        beta, v, omega = rng.uniform([-2.0, 0.1, 0.3], [2.0, 3.0, 2.0], size=(n, 3)).T
        return SyncSech2(beta, v, omega), rng.uniform(-2.0, 2.0, n)
    epsilon, chi = rng.uniform([-1.5, 0.3], [1.5, 2.0], size=(n, 2)).T
    if branch == "conserving":
        upsilon = rng.uniform(0.1, 3.0, n)
        return AsyncTanhSech(epsilon, upsilon, chi), rng.integers(-2, 3, n).astype(float)
    upsilon = np.hypot(0.5 * chi, epsilon)
    return AsyncTanhSech(epsilon, upsilon, chi), rng.integers(-2, 2, n) + 0.5


@pytest.mark.parametrize("branch,seed", [("sync", 31), ("conserving", 37), ("flip", 41)])
def test_closed_forms_solve_the_schrodinger_equation(branch, seed):
    # i*da/dt = H*a by central differences at random times, with no oracle
    rng = np.random.default_rng(seed)
    n, h = 300, 1e-3
    drive, gamma = _branch_members(branch, rng, n)
    raw = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    starts = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    epochs = np.where(rng.random(n) < 0.5, -math.inf, rng.uniform(-3.0, 3.0, n))
    solution = solve(drive, gamma, starts, epochs)
    t = rng.uniform(-6.0, 6.0, n)
    states = solution.states
    derivative = sum(w * (states(t + k * h) - states(t - k * h)) for k, w in _STENCIL) / h
    hamiltonian = hamiltonian_matrix(gamma, *drive.values(t))
    residual = 1j * derivative - np.einsum("nij,nj->ni", hamiltonian, states(t))
    assert np.max(np.abs(residual)) < 1e-9
