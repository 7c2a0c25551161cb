"""Figure dataset bundles: registry, columns, overlays, metadata."""

import math

import numpy as np
import pytest

from sodw.figures import FIGURE_IDS, build_figure, figure_kind


def test_figure_kind_covers_registry():
    kinds = {fig_id: figure_kind(fig_id) for fig_id in FIGURE_IDS}
    assert kinds["1d"] == "trajectory"
    assert kinds["1a"] == "scan"
    assert kinds["3c"] == "surface"
    assert sorted(set(kinds.values())) == ["scan", "surface", "trajectory"]
    with pytest.raises(ValueError, match="unknown figure id"):
        figure_kind("9z")


def test_detuned_trajectory_bundle():
    fig = build_figure("1d", samples=201)
    assert fig.kind == "trajectory" and fig.meta["engine"] == "sync-exact"
    (ds,) = fig.datasets
    assert ds.name == "1d"
    assert ds.header[:9] == ("t", "P1", "P2", "P3", "P4", "Z31", "Z32", "ZLR", "norm2")
    assert ds.header[9:] == tuple(n + "_num" for n in ds.header[1:9])
    table = np.array(ds.rows)
    assert table.shape == (201, 17)
    assert table[0, 0] == 0.0 and table[0, 3] == pytest.approx(1.0, abs=1e-15)
    # endpoint against the two-level formula
    r = math.hypot(1.0, 0.5)
    p2 = math.sin(r * 0.5 * math.pi) ** 2 / r**2
    assert table[-1, 5] == pytest.approx(1.0 - p2, abs=1e-9)
    np.testing.assert_allclose(table[:, 8], 1.0, atol=1e-9)
    # closed form and restarted oracle stay glued together
    assert np.max(np.abs(table[:, 1:9] - table[:, 9:])) < 1e-6
    assert fig.meta["protocol"] == "sync" and fig.meta["beta"] == "0.5"
    assert fig.plot["files"] == ["1d_data.csv"]


def test_multi_start_figure_emits_one_dataset_per_start():
    fig = build_figure("2b", samples=41)
    names = [ds.name for ds in fig.datasets]
    assert names == [f"2b_ic{k}" for k in range(1, 6)]
    assert fig.plot["files"] == [f"{n}_data.csv" for n in names]
    for k in range(1, 6):
        assert f"ic{k}" in fig.meta


def test_splitting_scan_bundle():
    fig = build_figure("1a", samples=9)
    (ds,) = fig.datasets
    assert ds.header == ("param", "Z31_inf", "Z32_inf", "engine")
    assert len(ds.rows) == 9
    for beta, z31, z32, engine in ds.rows:
        assert engine == "sync-exact"
        r = math.hypot(1.0, beta)
        p2 = math.sin(r * 0.5 * math.pi) ** 2 / r**2
        assert z31 == pytest.approx(1.0 - p2, abs=1e-12)
        assert z32 == pytest.approx(1.0 - 2.0 * p2, abs=1e-12)
    assert fig.meta["swept"] == "beta"


def test_flip_trajectory_uses_exact_engine():
    fig = build_figure("3b", samples=31)
    assert fig.meta["engine"] == "async-exact"
    assert fig.meta["protocol"] == "async"
    table = np.array(fig.datasets[0].rows)
    np.testing.assert_allclose(table[:, 8], 1.0, atol=1e-9)
    assert np.max(np.abs(table[:, 1:9] - table[:, 9:])) < 1e-6


def test_surface_bundle_and_horizon_guard():
    fig = build_figure("3c", samples=5)
    (ds,) = fig.datasets
    assert ds.header == ("chi", "epsilon", "upsilon")
    assert len(ds.rows) == 25
    for chi, eps, ups in ds.rows:
        assert ups == pytest.approx(math.hypot(0.5 * chi, eps), abs=1e-15)
    with pytest.raises(ValueError, match="horizon"):
        build_figure("3c", horizon=10.0)
    with pytest.raises(ValueError, match="horizon"):
        build_figure("1a", horizon=10.0)
