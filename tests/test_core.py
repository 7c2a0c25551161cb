import math

import numpy as np
import pytest

from sodw.core import (
    AsyncTanhSech,
    SyncSech2,
    as_state,
    coupling_values,
    hamiltonian_matrix,
    imbalance,
)


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
