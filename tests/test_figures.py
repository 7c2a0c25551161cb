"""Figure dataset bundles: registry, columns, overlays, metadata."""

import json
import math

import numpy as np
import pytest

import sodw.figures
from sodw import AsyncTanhSech, SyncSech2
from sodw.cli import _write_bundle
from sodw.figures import FIGURE_IDS, IC_THIRD, build_figure, evolve_bundle, figure_kind


def _plot_files(fig, out):
    """The "files" list of the plot description the writer puts beside fig's CSVs."""
    _write_bundle(str(out), fig)
    return json.loads((out / f"{fig.id}_plot.json").read_text())["files"]


def test_figure_kind_covers_registry():
    kinds = {fig_id: figure_kind(fig_id) for fig_id in FIGURE_IDS}
    assert kinds["1d"] == "trajectory"
    assert kinds["1a"] == "scan"
    assert kinds["3c"] == "surface"
    assert sorted(set(kinds.values())) == ["scan", "surface", "trajectory"]
    with pytest.raises(ValueError, match="unknown figure id"):
        figure_kind("9z")


def test_detuned_trajectory_bundle(tmp_path):
    fig = build_figure("1d", samples=201)
    assert fig.meta["kind"] == "trajectory" and fig.meta["engine"] == "sync-exact"
    (ds,) = fig.datasets
    assert ds.name == "1d"
    assert ds.header[:9] == ("t", "P1", "P2", "P3", "P4", "Z31", "Z32", "ZLR", "norm2")
    assert ds.header[9:] == tuple(n + "_num" for n in ds.header[1:9])
    table = np.column_stack(ds.columns)
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
    assert _plot_files(fig, tmp_path) == ["1d_data.csv"]


def test_multi_start_figure_emits_one_dataset_per_start(tmp_path):
    fig = build_figure("2b", samples=41)
    names = [ds.name for ds in fig.datasets]
    assert names == [f"2b_ic{k}" for k in range(1, 6)]
    assert _plot_files(fig, tmp_path) == [f"{n}_data.csv" for n in names]
    assert sorted(path.name for path in tmp_path.glob("*_data.csv")) == sorted(
        f"{n}_data.csv" for n in names
    )
    for k in range(1, 6):
        assert f"ic{k}" in fig.meta


def test_splitting_scan_bundle():
    fig = build_figure("1a", samples=9)
    (ds,) = fig.datasets
    assert ds.header == ("param", "Z31_inf", "Z32_inf", "engine")
    assert [len(column) for column in ds.columns] == [9] * 4
    for beta, z31, z32, engine in zip(*ds.columns):
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
    table = np.column_stack(fig.datasets[0].columns)
    np.testing.assert_allclose(table[:, 8], 1.0, atol=1e-9)
    assert np.max(np.abs(table[:, 1:9] - table[:, 9:])) < 1e-6


def test_surface_bundle_and_horizon_guard():
    fig = build_figure("3c", samples=5)
    (ds,) = fig.datasets
    assert ds.header == ("chi", "epsilon", "upsilon")
    assert [len(column) for column in ds.columns] == [25] * 3
    for chi, eps, ups in zip(*ds.columns):
        assert ups == pytest.approx(math.hypot(0.5 * chi, eps), abs=1e-15)
    with pytest.raises(ValueError, match="horizon"):
        build_figure("3c", horizon=10.0)
    with pytest.raises(ValueError, match="horizon"):
        build_figure("1a", horizon=10.0)


# a drive and coupling on each closed form: sync, spin-conserving and spin-flipping
_LONE_ORACLE = {
    "sync": (SyncSech2(0.0, math.pi / 2, 1.0), 0.3),
    "conserving": (AsyncTanhSech(0.3, 1.0, 1.0), 1.0),
    "flip": (AsyncTanhSech(0.4, math.sqrt(0.41), 1.0), 0.5),
}


def _populations(drive, horizon, engine):
    protocol, gamma = _LONE_ORACLE[drive]
    bundle = evolve_bundle("run", protocol, gamma, IC_THIRD, -math.inf, horizon, 101, engine)
    return np.column_stack(bundle.datasets[0].columns[1:5])


@pytest.mark.parametrize("horizon", [2.0, 5.0])
@pytest.mark.parametrize("drive", _LONE_ORACLE)
def test_a_lone_oracle_holds_a_start_at_minus_inf_where_the_closed_form_does(drive, horizon):
    # the oracle alone started the state at the window's edge -horizon, so it
    # missed the closed form by up to 0.27 in a population at horizon 2
    oracle, exact = (_populations(drive, horizon, engine) for engine in ("oracle", "exact"))
    assert np.max(np.abs(oracle - exact)) <= 1e-8


@pytest.mark.parametrize(
    "epoch,horizon,solves",
    [(-math.inf, 2.0, 2), (-math.inf, None, 1), (-math.inf, 40.0, 1), (-2.0, 2.0, 1)],
)
def test_only_a_window_after_the_start_takes_a_lead_in(monkeypatch, epoch, horizon, solves):
    # the oracle alone reaches a first sample after start_time(epoch) by one
    # endpoint-only solve; default and longer horizons and finite epochs need none
    calls = []
    batch = sodw.figures.integrate_batch

    def counted(*args):
        calls.append(args)
        return batch(*args)

    monkeypatch.setattr(sodw.figures, "integrate_batch", counted)
    protocol, gamma = _LONE_ORACLE["conserving"]
    evolve_bundle("run", protocol, gamma, IC_THIRD, epoch, horizon, 11, "oracle")
    assert len(calls) == solves
