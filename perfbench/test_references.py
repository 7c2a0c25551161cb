"""Checks of the benchmark's reference computations against properties from the paper.

    python3 -m pytest -q perfbench/test_references.py

These run the references alone, untimed and without sodw: the synchronous
matrix exponential must return every population at 2V/Omega = n*pi (CCPC)
and invert the wells at (n + 1/2)*pi (CCPI); the conserving-branch rotation
must do the same at ups/chi = n and n + 1/2; the re-integration must show
the flip branch's complete pair crossover on chi^2/4 + eps^2 = ups^2 and
agree with the rotation on the conserving branch.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import reference

HORIZON = 25.0


def _state(seed, levels=(0, 1, 2, 3)):
    rng = np.random.default_rng(seed)
    state = np.zeros(4, dtype=complex)
    state[list(levels)] = rng.normal(size=len(levels)) + 1j * rng.normal(size=len(levels))
    return state / np.linalg.norm(state)


def _z_lr(state):
    p = np.abs(state) ** 2
    return (p[2] + p[3]) - (p[0] + p[1])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("gamma", [0.0, 0.37, 1.0, 1.5])
def test_sync_ccpc_returns_every_population(n, gamma):
    omega = 1.3
    state0 = _state(n)
    V = 0.5 * n * math.pi * omega
    final = reference.sync_final(0.0, gamma, V, omega, state0, -math.inf)
    assert np.max(np.abs(np.abs(final) ** 2 - np.abs(state0) ** 2)) < 1e-12


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("gamma", [0.0, 0.37, 1.0, 1.5])
def test_sync_ccpi_inverts_the_wells(n, gamma):
    omega = 0.7
    state0 = _state(10 + n)
    V = 0.5 * (n + 0.5) * math.pi * omega
    final = reference.sync_final(0.0, gamma, V, omega, state0, -math.inf)
    assert abs(_z_lr(final) + _z_lr(state0)) < 1e-12


def test_sync_half_pulse_from_center():
    # from t0 = 0 the pulse area is V/Omega, half of the full 2V/Omega
    state0 = _state(3)
    half = reference.sync_final(0.4, 0.3, 1.1, 0.9, state0, 0.0)
    full_from_center = reference.sync_final(0.4, 0.3, 0.55, 0.9, state0, -math.inf)
    assert np.max(np.abs(half - full_from_center)) < 1e-12


@pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("ratio", [1.0, 2.0, 3.0])
def test_conserving_ccpc_returns_every_population(gamma, ratio):
    chi = 0.8
    state0 = _state(int(10 * ratio + gamma))
    final = reference.conserving_final(gamma, ratio * chi, chi, state0, -math.inf)
    assert np.max(np.abs(np.abs(final) ** 2 - np.abs(state0) ** 2)) < 1e-12


@pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("ratio", [0.5, 1.5, 2.5])
def test_conserving_ccpi_inverts_each_pair(gamma, ratio):
    chi = 1.4
    state0 = _state(int(10 * ratio + gamma))
    p0 = np.abs(state0) ** 2
    p = np.abs(reference.conserving_final(gamma, ratio * chi, chi, state0, -math.inf)) ** 2
    assert np.max(np.abs(p - p0[[2, 3, 0, 1]])) < 1e-12


def test_conserving_rejects_gamma_off_the_branch():
    with pytest.raises(ValueError):
        reference.conserving_final(0.5, 1.0, 1.0, _state(0), 0.0)


@pytest.mark.parametrize("gamma", [0.5, 1.5])
@pytest.mark.parametrize("chi", [0.8, 1.5])
def test_reintegration_shows_flip_pair_crossover(gamma, chi):
    eps = 0.6
    ups = math.hypot(0.5 * chi, eps)
    horizon = HORIZON / min(chi, 1.0)
    state0 = _state(int(10 * chi), levels=(0, 3))
    final = reference.async_reintegrate(gamma, eps, ups, chi, state0, -horizon, horizon)
    p0, p = np.abs(state0) ** 2, np.abs(final) ** 2
    assert abs(p[3] - p0[0]) < 1e-6
    assert abs(p[0] - p0[3]) < 1e-6


@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_reintegration_matches_the_conserving_rotation(gamma):
    chi, eps, ups = 1.2, 0.5, 0.9
    horizon = HORIZON / min(chi, 1.0)
    state0 = _state(7)
    final = reference.async_reintegrate(gamma, eps, ups, chi, state0, 0.0, horizon)
    rotated = reference.conserving_final(gamma, ups, chi, state0, 0.0)
    observables = ((3, 1), (4, 2), ("L", "R"))
    z_final = reference.imbalances(final, observables)
    z_rotated = reference.imbalances(rotated, observables)
    assert np.max(np.abs(np.subtract(z_final, z_rotated))) < 1e-8
