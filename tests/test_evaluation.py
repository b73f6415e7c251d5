"""Scoring, prediction files, the ablation harness, and sweeps."""

import numpy as np
import pytest

from stationcast import evaluation as ev
from stationcast import model as md
from stationcast.data import (NormStats, StationMeta, WeatherSeriesDataset,
                              make_windows)
from stationcast.errors import ConfigError, ShapeError, StructuralError


def _static_graphs(n, rng):
    out = {}
    for kind in ("distance", "neighbor", "pattern"):
        a = rng.uniform(0.0, 1.0, (n, n))
        a = (a + a.T) / 2.0
        np.fill_diagonal(a, 0.0)
        out[kind] = a
    return out


def _dataset(n=5, t=90, seed=0, slope=None):
    rng = np.random.default_rng(seed)
    stations = [StationMeta(f"S{i}", 35.0 + 0.1 * i, 110.0 + 0.05 * i)
                for i in range(n)]
    if slope is None:
        values = rng.normal(0.0, 1.0, (n, t, 1))
    else:
        values = np.tile(slope * np.arange(t, dtype=float)[None, :, None],
                         (n, 1, 1))
    return WeatherSeriesDataset(stations, ["t"], values,
                                np.ones((n, t, 1), dtype=bool))


def _tiny_model_cfg(w_in=6, w_out=3):
    return md.ModelConfig(w_in=w_in, w_out=w_out,
                          blocks=[md.StBlockConfig(2, [3], 1, 2)], d_emb=2)


# ---------------------------------------------------------------------------
# metric values


def test_metrics_zero_for_equal_tensors():
    rng = np.random.default_rng(1)
    x = rng.normal(0.0, 1.0, (4, 3, 5, 2))
    rep = ev.compute_metrics(x, x.copy(), factors=["t", "rh"])
    assert rep.overall_mae == 0.0
    assert rep.overall_rmse == 0.0
    assert rep.mae_by_horizon.max() == 0.0


def test_metrics_unit_offset():
    rng = np.random.default_rng(2)
    truth = rng.normal(0.0, 1.0, (3, 4, 6, 1))
    rep = ev.compute_metrics(truth + 1.0, truth)
    assert rep.overall_mae == pytest.approx(1.0, abs=1e-12)
    assert rep.overall_mse == pytest.approx(1.0, abs=1e-12)
    assert rep.overall_rmse == pytest.approx(1.0, abs=1e-12)


def test_metrics_match_scalar_loop_oracle():
    rng = np.random.default_rng(3)
    pred = rng.normal(0.0, 1.0, (2, 3, 4, 1))
    truth = rng.normal(0.0, 1.0, (2, 3, 4, 1))
    rep = ev.compute_metrics(pred, truth)

    total_abs = 0.0
    total_sq = 0.0
    count = 0
    for b in range(2):
        for n in range(3):
            for w in range(4):
                e = pred[b, n, w, 0] - truth[b, n, w, 0]
                total_abs += abs(e)
                total_sq += e * e
                count += 1
    assert rep.overall_mae == pytest.approx(total_abs / count, abs=1e-12)
    assert rep.overall_mse == pytest.approx(total_sq / count, abs=1e-12)
    assert rep.overall_rmse == pytest.approx(np.sqrt(total_sq / count),
                                             abs=1e-12)


def test_metric_identities_on_random_tensors():
    rng = np.random.default_rng(4)
    for _ in range(25):
        shape = tuple(rng.integers(1, 5, size=4))
        pred = rng.normal(0.0, 2.0, shape)
        truth = rng.normal(0.0, 2.0, shape)
        rep = ev.compute_metrics(pred, truth)
        for i in range(shape[3]):
            assert rep.rmse[i] ** 2 == pytest.approx(rep.mse[i], abs=1e-12)
            assert rep.mae[i] <= rep.rmse[i] + 1e-15
        # joint node permutation leaves every metric unchanged
        perm = rng.permutation(shape[1])
        prep = ev.compute_metrics(pred[:, perm], truth[:, perm])
        assert prep.overall_mae == pytest.approx(rep.overall_mae, rel=1e-12)
        assert prep.overall_rmse == pytest.approx(rep.overall_rmse, rel=1e-12)


def test_metrics_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError, match=r"1, 2, 3, 1.*2, 2, 3, 1"):
        ev.compute_metrics(np.zeros((1, 2, 3, 1)), np.zeros((2, 2, 3, 1)))


def test_physical_metrics_scale_by_std():
    rng = np.random.default_rng(5)
    pred = rng.normal(0.0, 1.0, (3, 4, 5, 1))
    truth = rng.normal(0.0, 1.0, (3, 4, 5, 1))
    stats = NormStats(factors=["t"], mean=np.array([11.0]),
                      std=np.array([2.5]))
    norm_rep = ev.compute_metrics(pred, truth, factors=["t"])
    phys_rep = ev.physical_metrics(pred, truth, stats)
    assert phys_rep.space == "physical"
    assert phys_rep.overall_mae == pytest.approx(2.5 * norm_rep.overall_mae,
                                                 rel=1e-12)
    assert phys_rep.overall_rmse == pytest.approx(2.5 * norm_rep.overall_rmse,
                                                  rel=1e-12)


def test_report_dict_is_stable_and_complete():
    rng = np.random.default_rng(6)
    rep = ev.compute_metrics(rng.normal(size=(2, 3, 4, 1)),
                             rng.normal(size=(2, 3, 4, 1)), factors=["t"])
    d = rep.to_dict()
    assert d["counts"] == {"windows": 2, "stations": 3, "horizon": 4,
                           "factors": 1}
    assert d["space"] == "normalized"
    assert len(d["per_factor"]["t"]["mae_by_horizon"]) == 4


# ---------------------------------------------------------------------------
# horizon curves


def test_horizon_curve_averages_back_to_scalars():
    rng = np.random.default_rng(7)
    pred = rng.normal(0.0, 1.0, (6, 4, 5, 1))
    truth = rng.normal(0.0, 1.0, (6, 4, 5, 1))
    rep = ev.compute_metrics(pred, truth)
    mae, rmse = rep.mae_by_horizon[:, 0], rep.rmse_by_horizon[:, 0]
    assert np.mean(mae) == pytest.approx(rep.overall_mae, abs=1e-12)
    msq = np.mean(np.square(rmse))
    assert np.sqrt(msq) == pytest.approx(rep.overall_rmse, abs=1e-12)


def test_persistence_on_ramp_grows_linearly():
    ds = _dataset(n=3, t=60, slope=0.1)
    preds, truth, _ = ev.evaluate_baseline("persistence", ds, ds, 6, 4)
    mae = list(ev.compute_metrics(preds, truth).mae_by_horizon[:, 0])
    expected = [0.1 * h for h in range(1, 5)]
    np.testing.assert_allclose(mae, expected, atol=1e-9)
    assert mae == sorted(mae)


# ---------------------------------------------------------------------------
# prediction files and external scoring


def test_prediction_file_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    preds = rng.normal(0.0, 1.0, (4, 3, 5, 1))
    starts = np.arange(4, dtype=np.int64) * 3600 + 7200
    path = tmp_path / "preds.bin"
    ev.save_predictions(path, preds, starts, ["S0", "S1", "S2"], ["t"])
    back, bstarts, stations, factors, space = ev.load_predictions(path)
    assert back.tobytes() == preds.tobytes()
    assert list(bstarts) == list(starts)
    assert stations == ["S0", "S1", "S2"]
    assert factors == ["t"]
    assert space == "normalized"

    other = tmp_path / "again.bin"
    ev.save_predictions(other, preds, starts, ["S0", "S1", "S2"], ["t"])
    assert other.read_bytes() == path.read_bytes()


def test_prediction_file_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"certainly not predictions")
    with pytest.raises(StructuralError, match="not a prediction file"):
        ev.load_predictions(path)


def test_prediction_file_truncation(tmp_path):
    path = tmp_path / "preds.bin"
    ev.save_predictions(path, np.zeros((2, 2, 3, 1)),
                        np.array([0, 3600], dtype=np.int64),
                        ["S0", "S1"], ["t"])
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - 10])
    with pytest.raises(StructuralError, match="truncated"):
        ev.load_predictions(path)


def test_score_external_exact_truth_and_offset(tmp_path):
    ds = _dataset(n=3, t=40, seed=9)
    batch = next(make_windows(ds, 6, 4))
    starts = batch.origins + 6 * ds.time_step
    ids = [s.station_id for s in ds.stations]

    exact = tmp_path / "exact.bin"
    ev.save_predictions(exact, batch.targets, starts, ids, ["t"])
    rep = ev.score_external(ev.load_predictions(exact), ds)
    assert rep.overall_mae == 0.0
    assert rep.space == "normalized"

    off = tmp_path / "off.bin"
    ev.save_predictions(off, batch.targets + 1.0, starts, ids, ["t"],
                        space="physical")
    rep = ev.score_external(ev.load_predictions(off), ds)
    assert rep.overall_mae == pytest.approx(1.0, abs=1e-12)
    assert rep.space == "physical"


def test_score_external_validates_stations_and_grid(tmp_path):
    ds = _dataset(n=3, t=40, seed=10)
    batch = next(make_windows(ds, 6, 4))
    starts = batch.origins + 6 * ds.time_step

    wrong = tmp_path / "wrong.bin"
    ev.save_predictions(wrong, batch.targets, starts, ["A", "B", "C"], ["t"])
    with pytest.raises(ShapeError, match="stations"):
        ev.score_external(ev.load_predictions(wrong), ds)

    ids = [s.station_id for s in ds.stations]
    offgrid = tmp_path / "offgrid.bin"
    ev.save_predictions(offgrid, batch.targets, starts + 7, ids, ["t"])
    with pytest.raises(StructuralError, match="time grid"):
        ev.score_external(ev.load_predictions(offgrid), ds)

    outside = tmp_path / "outside.bin"
    ev.save_predictions(outside, batch.targets,
                        starts + 1000 * ds.time_step, ids, ["t"])
    with pytest.raises(StructuralError, match="outside"):
        ev.score_external(ev.load_predictions(outside), ds)


# ---------------------------------------------------------------------------
# baseline evaluation plumbing


def test_evaluate_baseline_shapes_and_kinds():
    ds = _dataset(n=4, t=70, seed=11)
    train, test = ds.slice_time(0, 50), ds.slice_time(50, 70)
    for kind in ("persistence", "ridge"):
        preds, truth, starts = ev.evaluate_baseline(
            kind, train, test, 6, 3, lam=1e-3)
        assert preds.shape == truth.shape
        assert preds.shape[2] == 3
        assert len(starts) == preds.shape[0]
    with pytest.raises(ConfigError, match="unknown reference"):
        ev.evaluate_baseline("oracle", train, test, 6, 3)


def test_evaluate_baseline_rejects_multifactor_regression():
    rng = np.random.default_rng(12)
    stations = [StationMeta(f"S{i}", 35.0, 110.0 + i * 0.1) for i in range(3)]
    values = rng.normal(0.0, 1.0, (3, 50, 2))
    ds = WeatherSeriesDataset(stations, ["t", "rh"], values,
                              np.ones((3, 50, 2), dtype=bool))
    with pytest.raises(ConfigError, match="univariate"):
        ev.evaluate_baseline("ridge", ds, ds, 6, 3, lam=1e-3)


# ---------------------------------------------------------------------------
# ablation harness


def test_grid_definitions():
    specs = ev.grid_specs("full13", seeds=(0, 1))
    assert len(specs) == 13
    assert specs[-1].graph_kinds == md.ALL_GRAPH_KINDS
    assert all(s.seeds == (0, 1) for s in specs)
    assert ev.grid_specs("table4") == ev.grid_specs("full13")
    sizes = sorted(len(s.graph_kinds) for s in specs)
    assert sizes == [1, 1, 1, 1, 1, 2, 3, 4, 4, 4, 4, 4, 5]
    with pytest.raises(ConfigError, match="unknown ablation grid"):
        ev.grid_specs("everything")


def test_single_spec_ablation_equals_plain_run():
    ds = _dataset(n=4, t=80, seed=13)
    train = ds.slice_time(0, 50)
    val = ds.slice_time(50, 65)
    test = ds.slice_time(65, 80)
    static = _static_graphs(4, np.random.default_rng(14))
    mcfg = _tiny_model_cfg()
    tcfg = md.TrainConfig(epochs=2, batch_size=16, seed=5)

    spec = ev.AblationSpec(md.ALL_GRAPH_KINDS, seeds=(5,))
    report = ev.run_ablation([spec], train, val, test, static, mcfg, tcfg)

    model = md.build_model(4, mcfg, seed=5)
    fitted, _ = md.train(model, train, val, static, tcfg)
    preds, truth, _ = md.predict_dataset(fitted, test, static, batch_size=16)
    direct = ev.compute_metrics(preds, truth, factors=test.factors)

    row = report["rows"][0]
    assert row["per_seed"][0]["mae"] == direct.overall_mae
    assert row["per_seed"][0]["rmse"] == direct.overall_rmse
    assert row["mean_mae"] == direct.overall_mae
    assert report["reference_full_scale"]["five_graph"]["mae"] == 1.4418


def test_ablation_rows_cover_specs_and_seeds():
    ds = _dataset(n=4, t=70, seed=15)
    train = ds.slice_time(0, 45)
    val = ds.slice_time(45, 58)
    test = ds.slice_time(58, 70)
    static = _static_graphs(4, np.random.default_rng(16))
    mcfg = _tiny_model_cfg()
    tcfg = md.TrainConfig(epochs=1, batch_size=16, seed=0)
    specs = [ev.AblationSpec(("distance",), seeds=(0, 1)),
             ev.AblationSpec(("distance", "dynamic"), seeds=(0, 1))]
    report = ev.run_ablation(specs, train, val, test, static, mcfg, tcfg)
    assert [r["label"] for r in report["rows"]] == ["distance",
                                                    "distance+dynamic"]
    for row in report["rows"]:
        assert [p["seed"] for p in row["per_seed"]] == [0, 1]
        assert row["mean_mae"] == pytest.approx(
            np.mean([p["mae"] for p in row["per_seed"]]))


# ---------------------------------------------------------------------------
# neighbor-count sweep


def test_neighbor_sweep_is_deterministic():
    ds = _dataset(n=6, t=70, seed=17)
    train = ds.slice_time(0, 45)
    val = ds.slice_time(45, 58)
    test = ds.slice_time(58, 70)
    mcfg = _tiny_model_cfg()
    tcfg = md.TrainConfig(epochs=1, batch_size=16, seed=3)
    a = ev.neighbor_count_sweep(train, val, test, (2, 4), mcfg, tcfg)
    b = ev.neighbor_count_sweep(train, val, test, (2, 4), mcfg, tcfg)
    assert a == b
    assert a["n_adjacent"] == [2, 4]
    assert len(a["test_mae"]) == 2
    assert all(np.isfinite(a["test_mae"]))


def test_dump_report_stable_bytes(tmp_path):
    report = {"b": [1.5, 2.25], "a": {"x": 1}}
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    ev.dump_report(report, p1)
    ev.dump_report({"a": {"x": 1}, "b": [1.5, 2.25]}, p2)
    assert p1.read_bytes() == p2.read_bytes()
