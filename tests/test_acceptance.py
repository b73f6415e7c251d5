"""Release gate: ten behavioral criteria, one test and one verdict line each.

Full-scale station-network results need far more data and compute than a
desk run, so the gate checks properties and scaled-down behavior instead:
spectral and gradient oracles, structural graph invariants, pipeline and
metric conformance, and learning-signal margins on a synthetic network.
Run with ``pytest -v`` to see one PASSED/FAILED line per criterion;
``-s`` additionally prints each criterion's measured numbers.
"""

import json
import time

import numpy as np
import pytest

from stationcast import data as dt
from stationcast import evaluation as ev
from stationcast import graphs as gr
from stationcast import model as md
from stationcast import tape as tp
from stationcast.cli import main as cli_main
from stationcast.data import StationMeta, WeatherSeriesDataset

from helpers import finite_diff_check, reduce_sum, station_distances


def _verdict(num: int, msg: str) -> None:
    print(f"criterion {num:2d}: PASS ({msg})")


def _overall_mae(pred, truth) -> float:
    return ev.compute_metrics(pred, truth).overall_mae


# ---------------------------------------------------------------------------
# shared synthetic network (criteria 7 and 8)


@pytest.fixture(scope="module")
def synth_splits():
    ds = dt.generate_synthetic(dt.SynthConfig(n=20, t=2000, d=1, seed=0))
    train, val, test = dt.split_temporal(ds, (3, 1, 2))
    stats = dt.compute_norm_stats(train)
    train, _ = dt.normalize(train, stats)
    val, _ = dt.normalize(val, stats)
    test, _ = dt.normalize(test, stats)
    return train, val, test


@pytest.fixture(scope="module")
def synth_static(synth_splits):
    gs = gr.build_static_graphs(synth_splits[0], n_adjacent=5,
                                pattern_factors=["t"])
    return {k: gs[k].weights for k in ("distance", "neighbor", "pattern")}


# ---------------------------------------------------------------------------


def test_criterion_01_chebyshev_matches_eigendecomposition():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, 6))
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 4))
        a = rng.uniform(0.0, 1.0, (n, n))
        a = (a + a.T) / 2.0
        np.fill_diagonal(a, 0.0)
        lap = tp.scaled_laplacian_op(a).values
        theta = rng.normal(0.0, 1.0, (k, c_in, c_out))
        x = rng.normal(0.0, 1.0, (n, c_in))
        got = gr.cheb_filter_op(lap, theta, x[None, :, None]).values[0, :, 0]

        # oracle: filter each polynomial term in the eigenbasis
        evals, u = np.linalg.eigh(lap)
        basis = np.polynomial.chebyshev.chebvander(evals, k - 1)
        want = np.zeros((n, c_out))
        for j in range(k):
            want += (u @ (basis[:, j][:, None] * (u.T @ x))) @ theta[j]
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.monotonic() - t0
    assert worst < 1e-8, f"worst deviation {worst}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _verdict(1, f"50 graphs, worst deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_gradient_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(102)
    worst = {}

    # embedding parameters at their build_model scale, 1/sqrt(d_emb)
    e1, e2, theta1, theta2 = [rng.uniform(-0.5, 0.5, shape) for shape in
                              [(5, 4), (5, 4), (4, 4), (4, 4)]]
    probe = rng.normal(0.0, 1.0, (5, 5))

    def loss_embedding(p):
        a = gr.learnable_graph_op(p["e1"], p["e2"], p["theta1"], p["theta2"],
                                  3.0)
        return reduce_sum(tp.hadamard(a, probe))

    worst["embedding graph"] = finite_diff_check(
        loss_embedding,
        {"e1": e1, "e2": e2, "theta1": theta1, "theta2": theta2},
        rng=np.random.default_rng(1))

    # window projections at their build_model scale, 1/sqrt(W')
    bound = 1.0 / np.sqrt(6)
    w1, w2 = [rng.uniform(-bound, bound, (6, 4)) for _ in range(2)]
    z = rng.normal(0.0, 1.0, (5, 6))

    def loss_dynamic(p):
        a = gr.dynamic_graph_op(z, p["w1"], p["w2"], 0.5)
        return reduce_sum(tp.hadamard(a, probe))

    worst["window graph"] = finite_diff_check(
        loss_dynamic, {"w1": w1, "w2": w2},
        rng=np.random.default_rng(2))

    kinds = ("distance", "neighbor", "pattern", "learnable", "dynamic")
    adjs = {k: rng.uniform(0.0, 1.0, (5, 5)) for k in kinds}

    def loss_fusion(p):
        return reduce_sum(tp.hadamard(gr.fuse_graphs_op(adjs, p), probe))

    worst["fusion weights"] = finite_diff_check(
        loss_fusion, {k: rng.uniform(0.0, 1.0, (5, 5)) for k in kinds},
        rng=np.random.default_rng(3))

    n, b = 4, 2
    cfg = md.ModelConfig(
        w_in=6, w_out=3,
        blocks=[md.StBlockConfig(2, [3], 1, 3)], d_emb=4)
    model = md.build_model(n, cfg, seed=5)
    sym = rng.uniform(0.0, 1.0, (3, n, n))
    static = {}
    for i, kind in enumerate(("distance", "neighbor", "pattern")):
        s = (sym[i] + sym[i].T) / 2.0
        np.fill_diagonal(s, 0.0)
        static[kind] = s
    inputs = rng.normal(0.0, 1.0, (b, n, cfg.w_in, 1))
    targets = rng.normal(0.0, 1.0, (b, n, cfg.w_out, 1))

    def loss_model(p):
        pred = md.forward_on_tape(p, cfg, n, inputs, static)
        return tp.reduce_mean(tp.absolute(tp.sub(pred, targets)))

    worst["full model"] = finite_diff_check(
        loss_model, model.params, rng=np.random.default_rng(4))

    elapsed = time.monotonic() - t0
    for name, err in worst.items():
        assert err <= 1e-4, f"{name}: worst relative gradient error {err}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    top = max(worst.values())
    _verdict(2, f"4 suites, worst relative error {top:.2e}, {elapsed:.1f}s")


def test_criterion_03_graph_invariants():
    rng = np.random.default_rng(103)
    for trial in range(20):
        n = int(rng.integers(3, 51))
        stations = [StationMeta(f"S{i}", 30.0 + rng.uniform(-3, 3),
                                105.0 + rng.uniform(-3, 3))
                    for i in range(n)]
        eps = float(rng.uniform(0.05, 0.3))
        sigma = float(rng.uniform(50.0, 400.0))
        na = int(rng.integers(1, n))

        dist = station_distances(stations)
        a_d = gr.build_distance_graph(dist, sigma, eps).weights
        assert np.array_equal(a_d, a_d.T)
        assert not np.diagonal(a_d).any()
        assert np.all((a_d == 0.0) | ((a_d >= eps) & (a_d <= 1.0)))

        a_n = gr.build_neighbor_graph(dist, na).weights
        assert np.all(a_n.sum(axis=1) == float(na))
        assert np.all((a_n == 0.0) | (a_n == 1.0))

        series = rng.normal(0.0, 1.0, (n, 60, 1))
        ds = WeatherSeriesDataset(stations, ["t"], series,
                                  np.ones_like(series, dtype=bool))
        a_p = gr.build_pattern_graph(ds, factors=["t"]).weights
        assert np.array_equal(a_p, a_p.T)
        assert np.all((a_p >= -1.0) & (a_p <= 1.0))

        lrng = np.random.default_rng(1000 + trial)
        emb = [lrng.uniform(-0.5, 0.5, shape) for shape in
               [(n, 4), (n, 4), (4, 4), (4, 4)]]
        a_l = gr.learnable_graph_op(*emb, 3.0).values
        assert np.all(np.minimum(a_l, a_l.T) == 0.0)

        window = lrng.normal(0.0, 1.0, (n, 6, 1))
        bound = 1.0 / np.sqrt(6)  # build_model's 1/sqrt(W') scale
        proj = [lrng.uniform(-bound, bound, (6, 4)) for _ in range(2)]
        a_k = gr.dynamic_graph_op(window.reshape(n, -1), *proj, 0.5).values
        assert np.all(np.minimum(a_k, a_k.T) == 0.0)
    _verdict(3, "20 station sets, all structural assertions exact")


def test_criterion_04_fusion_identity_and_linearity():
    rng = np.random.default_rng(104)
    kinds = ("distance", "neighbor", "pattern", "learnable", "dynamic")
    n = 9
    adjs = {k: rng.uniform(0.0, 1.0, (n, n)) for k in kinds}

    ones = {k: (np.ones((n, n)) if k == "distance" else np.zeros((n, n)))
            for k in kinds}
    fused = gr.fuse_graphs_op(adjs, ones).values
    assert np.array_equal(fused, adjs["distance"])

    w1 = {k: rng.normal(0.0, 1.0, (n, n)) for k in kinds}
    w2 = {k: rng.normal(0.0, 1.0, (n, n)) for k in kinds}
    alpha, beta = 1.7, -0.4
    mixed = {k: alpha * w1[k] + beta * w2[k] for k in kinds}
    lhs = gr.fuse_graphs_op(adjs, mixed).values
    rhs = alpha * gr.fuse_graphs_op(adjs, w1).values \
        + beta * gr.fuse_graphs_op(adjs, w2).values
    dev = float(np.max(np.abs(lhs - rhs)))
    assert dev <= 1e-12
    _verdict(4, f"single-graph identity bit-exact, linearity within {dev:.1e}")


def test_criterion_05_pipeline_conformance():
    rng = np.random.default_rng(105)
    n, t = 10, 400
    stations = [StationMeta(f"S{i}", 32.0 + 0.2 * i, 108.0) for i in range(n)]
    values = rng.normal(10.0, 3.0, (n, t, 2))
    mask = np.ones((n, t, 2), dtype=bool)

    # missing records: station 0 sits exactly on the 1% boundary (kept),
    # stations 2 and 7 exceed it (dropped)
    mask[0, 10:14, 0] = False
    mask[2, 20:25, 0] = False
    mask[7, 30:38, 1] = False
    mask[5, 40:42, 0] = False
    values[~mask] = np.nan

    # default-coded cells on the second factor: station 4 over 1% (dropped),
    # station 1 exactly at 1% (kept, cells re-filled)
    values[4, 50:56, 1] = 999999.0
    values[1, 60:64, 1] = 999999.0

    ds = WeatherSeriesDataset(stations, ["t", "vv"], values, mask)

    kept, missing_report = dt.screen_missing(ds, max_ratio=0.01)
    assert missing_report["dropped"] == ["S2", "S7"]
    kept, default_report = dt.screen_defaults(kept, max_ratio=0.01)
    assert default_report["dropped"] == ["S4"]
    assert [s.station_id for s in kept.stations] == \
        ["S0", "S1", "S3", "S5", "S6", "S8", "S9"]

    filled = dt.interpolate_linear(kept)
    assert filled.mask.all()
    idx = np.arange(t)
    worst = 0.0
    for i in range(kept.n_stations):
        for d in range(2):
            obs = kept.mask[i, :, d]
            want = kept.values[i, :, d].copy()
            want[~obs] = np.interp(idx[~obs], idx[obs], want[obs])
            worst = max(worst, float(np.max(np.abs(
                filled.values[i, :, d] - want))))
            assert np.array_equal(filled.values[i, obs, d],
                                  kept.values[i, obs, d])
    assert worst <= 1e-12
    _verdict(5, f"drop sets exact, interpolation within {worst:.1e}")


def test_criterion_06_metric_identities():
    rng = np.random.default_rng(106)
    for _ in range(100):
        b = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        w = int(rng.integers(1, 7))
        d = int(rng.integers(1, 4))
        pred = rng.normal(0.0, 2.0, (b, n, w, d))
        truth = rng.normal(0.0, 2.0, (b, n, w, d))
        rep = ev.compute_metrics(pred, truth)
        doc = rep.to_dict()
        for f in doc["per_factor"]:
            pf = doc["per_factor"][f]
            assert abs(pf["rmse"] ** 2 - pf["mse"]) <= 1e-12
            assert pf["mae"] <= pf["rmse"] + 1e-12
        assert abs(rep.overall_rmse ** 2
                   - np.mean([doc["per_factor"][f]["mse"]
                              for f in doc["per_factor"]])) <= 1e-12

        # plain-loop oracle
        err = pred - truth
        for j in range(d):
            e = err[:, :, :, j]
            mae = float(np.abs(e).mean())
            mse = float((e ** 2).mean())
            name = f"channel{j + 1}"
            pf = doc["per_factor"][name]
            assert abs(pf["mae"] - mae) <= 1e-12
            assert abs(pf["mse"] - mse) <= 1e-12
            for h in range(w):
                eh = e[:, :, h]
                assert abs(pf["mae_by_horizon"][h]
                           - float(np.abs(eh).mean())) <= 1e-12
                assert abs(pf["rmse_by_horizon"][h]
                           - float(np.sqrt((eh ** 2).mean()))) <= 1e-12
    _verdict(6, "100 random tensors, identities within 1e-12")


def test_criterion_07_learning_signal(synth_splits, synth_static):
    t0 = time.monotonic()
    train, val, test = synth_splits

    p_pred, p_truth, _ = ev.evaluate_baseline("persistence", train, test,
                                              12, 12)
    persistence = _overall_mae(p_pred, p_truth)

    # regularization strength picked on the validation split
    best_lam, best_val = 0.0, np.inf
    for lam in (0.0, 0.1, 1.0, 10.0, 100.0):
        v_pred, v_truth, _ = ev.evaluate_baseline("ridge", train, val,
                                                  12, 12, lam=lam)
        v = _overall_mae(v_pred, v_truth)
        if v < best_val:
            best_lam, best_val = lam, v
    r_pred, r_truth, _ = ev.evaluate_baseline("ridge", train, test,
                                              12, 12, lam=best_lam)
    ridge = _overall_mae(r_pred, r_truth)

    mcfg = md.ModelConfig(
        w_in=12, w_out=12,
        blocks=[md.StBlockConfig(2, [3], 1, 16),
                md.StBlockConfig(3, [3, 5], 16, 16)],
        d_emb=8)
    tcfg = md.TrainConfig(epochs=30, batch_size=32, seed=0)
    model = md.build_model(train.n_stations, mcfg, seed=tcfg.seed)
    fitted, history = md.train(model, train, val, synth_static, tcfg)
    preds, truth, _ = md.predict_dataset(fitted, test, synth_static)
    mae = _overall_mae(preds, truth)
    elapsed = time.monotonic() - t0

    assert len(history.train_loss) <= 100
    assert mae <= 0.90 * persistence, \
        f"model {mae:.4f} vs persistence {persistence:.4f}"
    assert mae <= 0.95 * ridge, f"model {mae:.4f} vs ridge {ridge:.4f}"
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    _verdict(7, f"model {mae:.4f} beats persistence {persistence:.4f} by "
                f"{100 * (1 - mae / persistence):.0f}% and ridge {ridge:.4f} "
                f"by {100 * (1 - mae / ridge):.0f}%, {elapsed:.0f}s")


def test_criterion_08_fusion_holds_up_in_ablation(synth_splits, synth_static):
    train, val, test = synth_splits
    mcfg = md.ModelConfig(w_in=12, w_out=12,
                          blocks=[md.StBlockConfig(2, [3], 1, 8)], d_emb=8)
    tcfg = md.TrainConfig(epochs=15, batch_size=32, seed=0)
    seeds = (0, 1, 2)
    subsets = [(k,) for k in md.ALL_GRAPH_KINDS] + [md.ALL_GRAPH_KINDS]
    report = ev.run_ablation(subsets, train, val, test, synth_static,
                             mcfg, tcfg, seeds)
    singles = {r["label"]: r["mean_mae"] for r in report["rows"]
               if len(r["graphs"]) == 1}
    full = [r for r in report["rows"] if len(r["graphs"]) == 5][0]["mean_mae"]
    best = min(singles.values())
    assert full <= 1.02 * best, \
        f"five-graph fusion {full:.4f} vs best single {best:.4f} ({singles})"
    _verdict(8, f"3-seed means: fusion {full:.4f} <= best single "
                f"{best:.4f} + 2%")


def test_criterion_09_neighbor_degree_harness():
    def curve():
        ds = dt.generate_synthetic(dt.SynthConfig(n=30, t=400, d=1, seed=9))
        train, val, test = dt.split_temporal(ds, (3, 1, 2))
        stats = dt.compute_norm_stats(train)
        train, _ = dt.normalize(train, stats)
        val, _ = dt.normalize(val, stats)
        test, _ = dt.normalize(test, stats)
        mcfg = md.ModelConfig(w_in=6, w_out=3,
                              blocks=[md.StBlockConfig(2, [3], 1, 4)],
                              d_emb=4)
        tcfg = md.TrainConfig(epochs=2, batch_size=64, seed=0)
        return ev.neighbor_count_sweep(train, val, test,
                                       [5, 10, 15, 20, 25], mcfg, tcfg)

    first = curve()
    assert first["n_adjacent"] == [5, 10, 15, 20, 25]
    assert len(first["test_mae"]) == 5
    assert all(np.isfinite(first["test_mae"]))
    assert all(np.isfinite(first["test_rmse"]))
    assert curve() == first
    _verdict(9, "degree curve over {5,10,15,20,25} ran twice, identical")


def test_criterion_10_smoke_chain_is_deterministic(tmp_path):
    data = tmp_path / "synth.w2kt"
    graphs = tmp_path / "graphs.bin"
    ckpt = tmp_path / "model.ckpt"
    history = tmp_path / "history.jsonl"
    metrics = tmp_path / "metrics.json"
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({
        "model": {"w_in": 6, "w_out": 3,
                  "blocks": [{"cheb_order": 2, "temporal_kernels": [3],
                              "channels_in": 1, "channels_out": 2}],
                  "d_emb": 2},
        "train": {"epochs": 2, "batch_size": 32, "seed": 1},
    }))

    def chain():
        assert cli_main(["synth", "--n", "6", "--t", "160", "--d", "1",
                         "--seed", "3", "--out", str(data)]) == 0
        assert cli_main(["graphs", "--data", str(data), "--n-adjacent", "3",
                         "--out", str(graphs)]) == 0
        assert cli_main(["train", "--data", str(data), "--graphs",
                         str(graphs), "--config", str(cfg),
                         "--out", str(ckpt), "--history", str(history)]) == 0
        assert cli_main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                         "--graphs", str(graphs), "--out", str(metrics)]) == 0
        return {p.name: p.read_bytes()
                for p in (data, graphs, ckpt, history, metrics)}

    first = chain()
    second = chain()
    assert first == second
    _verdict(10, "synth+graphs+train+eval bytes identical across reruns")
