"""End-to-end command line behavior: chains, exit codes, manifests."""

import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from stationcast import data as dt
from stationcast import evaluation as ev
from stationcast import graphs as gr
from stationcast import model as md
from stationcast.cli import build_parser, main
from stationcast.data import StationMeta, WeatherSeriesDataset
from stationcast.errors import StationcastError, StructuralError

from helpers import save_csv_dir


def _tiny_model_json(path, epochs=2, seed=1):
    doc = {
        "model": {
            "w_in": 6, "w_out": 3,
            "blocks": [{"cheb_order": 2, "temporal_kernels": [3],
                        "channels_in": 1, "channels_out": 2}],
            "d_emb": 2,
        },
        "train": {"epochs": epochs, "batch_size": 32, "seed": seed},
    }
    path.write_text(json.dumps(doc))
    return path


def test_synth_is_deterministic(tmp_path):
    a, b = tmp_path / "a.w2kt", tmp_path / "b.w2kt"
    args = ["synth", "--n", "5", "--t", "100", "--d", "1", "--seed", "1"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    manifest = json.loads((tmp_path / "a.w2kt.manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 1
    assert manifest["config"]["n"] == 5
    assert manifest["wall_time_s"] >= 0.0


def test_unknown_flag_exits_1(capsys):
    assert main(["synth", "--bogus", "1"]) == 1
    assert "usage" in capsys.readouterr().err


def test_no_subcommand_exits_1():
    assert main([]) == 1


def test_help_exits_0():
    assert main(["--help"]) == 0


def test_full_smoke_chain(tmp_path, monkeypatch):
    data = tmp_path / "synth.w2kt"
    graphs = tmp_path / "graphs.bin"
    ckpt = tmp_path / "model.ckpt"
    history = tmp_path / "history.jsonl"
    metrics = tmp_path / "metrics.json"
    cfg = _tiny_model_json(tmp_path / "model.json")

    assert main(["synth", "--n", "6", "--t", "160", "--d", "1",
                 "--seed", "3", "--out", str(data)]) == 0
    assert main(["graphs", "--data", str(data), "--n-adjacent", "3",
                 "--out", str(graphs)]) == 0
    assert main(["train", "--data", str(data), "--graphs", str(graphs),
                 "--factor", "t", "--config", str(cfg),
                 "--out", str(ckpt), "--history", str(history)]) == 0
    # scoring a checkpoint is forward only: lambda_max needs no eigenvector
    calls = []
    for name in ("eigh", "solve"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _n=name, _f=real,
                            **k: calls.append(_n) or _f(*a, **k))
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                 "--graphs", str(graphs), "--out", str(metrics)]) == 0
    assert calls == []

    doc = json.loads(metrics.read_text())
    assert doc["space"] == "normalized"
    assert doc["overall"]["mae"] > 0.0
    assert len(doc["per_factor"]["t"]["mae_by_horizon"]) == 3

    lines = [json.loads(l) for l in history.read_text().splitlines()]
    assert len(lines) == 3  # two epochs plus the summary line
    assert lines[0]["epoch"] == 1
    assert "best_epoch" in lines[-1]

    for out in (data, graphs, ckpt, metrics):
        assert (tmp_path / (out.name + ".manifest.json")).exists()


def test_eval_baseline_and_pred_agree(tmp_path):
    data = tmp_path / "synth.w2kt"
    assert main(["synth", "--n", "5", "--t", "120", "--d", "1",
                 "--seed", "4", "--out", str(data)]) == 0
    m1 = tmp_path / "base.json"
    preds = tmp_path / "preds.bin"
    assert main(["eval", "--baseline", "persistence", "--data", str(data),
                 "--factor", "t", "--wprime", "6", "--w", "3",
                 "--save-pred", str(preds), "--out", str(m1)]) == 0
    m2 = tmp_path / "scored.json"
    assert main(["eval", "--pred", str(preds), "--data", str(data),
                 "--out", str(m2)]) == 0
    a = json.loads(m1.read_text())["overall"]
    b = json.loads(m2.read_text())["overall"]
    assert a["mae"] == pytest.approx(b["mae"], rel=1e-12)
    assert a["rmse"] == pytest.approx(b["rmse"], rel=1e-12)


def test_eval_pred_reads_the_prediction_file_once(tmp_path, monkeypatch):
    data = tmp_path / "synth.w2kt"
    preds = tmp_path / "preds.bin"
    assert main(["synth", "--n", "5", "--t", "120", "--d", "1",
                 "--seed", "4", "--out", str(data)]) == 0
    assert main(["eval", "--baseline", "persistence", "--data", str(data),
                 "--wprime", "6", "--w", "3", "--save-pred", str(preds),
                 "--out", str(tmp_path / "base.json")]) == 0
    calls = []
    real = ev.load_predictions
    monkeypatch.setattr(ev, "load_predictions",
                        lambda path: calls.append(path) or real(path))
    assert main(["eval", "--pred", str(preds), "--data", str(data),
                 "--out", str(tmp_path / "scored.json")]) == 0
    assert calls == [preds]


def test_eval_baseline_defaults_to_factor_t(tmp_path):
    data = tmp_path / "synth.w2kt"
    assert main(["synth", "--n", "5", "--t", "120", "--d", "2",
                 "--seed", "4", "--out", str(data)]) == 0
    reports = []
    for factor in ([], ["--factor", "t"]):
        out = tmp_path / f"ridge{len(factor)}.json"
        assert main(["eval", "--baseline", "ridge", "--lam", "1.0",
                     "--data", str(data), "--wprime", "6", "--w", "3",
                     *factor, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert list(json.loads(reports[0])["per_factor"]) == ["t"]


def test_unobserved_cells_need_preprocess(tmp_path, capsys):
    ds = dt.generate_synthetic(dt.SynthConfig(n=6, t=400, d=1, seed=2))
    mask = ds.mask.copy()
    gaps = np.random.default_rng(3).choice(mask.size, 50, replace=False)
    mask.reshape(-1)[gaps] = False
    raw = tmp_path / "raw"
    save_csv_dir(replace(ds, mask=mask), raw)
    clean = tmp_path / "clean.w2kt"
    assert main(["preprocess", "--data", str(raw), "--max-missing", "0.1",
                 "--out", str(clean)]) == 0
    assert dt.load_dataset(clean).n_stations == 6

    graphs, ckpt = tmp_path / "graphs.bin", tmp_path / "model.ckpt"
    cfg = _tiny_model_json(tmp_path / "model.json", epochs=1)
    commands = {
        "graphs": ["graphs", "--n-adjacent", "2", "--out", str(graphs)],
        "train": ["train", "--graphs", str(graphs), "--config", str(cfg),
                  "--out", str(ckpt)],
        "eval --baseline": ["eval", "--baseline", "ridge", "--lam", "1.0",
                            "--wprime", "6", "--w", "3",
                            "--out", str(tmp_path / "ridge.json")],
        "eval --ckpt": ["eval", "--ckpt", str(ckpt),
                        "--out", str(tmp_path / "ckpt.json")],
    }
    for name, argv in commands.items():
        assert main(argv + ["--data", str(clean)]) == 0, name
    capsys.readouterr()
    for name, argv in commands.items():
        assert main(argv + ["--data", str(raw)]) == 1, name
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "stationcast preprocess" in err[0], err


_RAW_STATIONS = ("station_id,lat,lon,alt\nS0,30.0,100.0,5.0\n"
                 "S1,31.0,101.0,6.0\n")
_RAW_SERIES = "t,rh\n1.0,2.0\n1.5,2.5\n2.0,3.0\n2.5,3.5\n"
_CONFLICTING_STARTS = ("station_id,lat,lon,alt,time_start\n"
                       "S0,30.0,100.0,5.0,1577836800\n"
                       "S1,31.0,101.0,6.0,1600000000\n")


@pytest.mark.parametrize("file,old,new,where", [
    ("S1.csv", "1.5,", "abc,", "S1.csv, line 3: cell 'abc' is not a number"),
    ("S1.csv", "1.5,", '"1.5",', "S1.csv, line 3: cell '\"1.5\"'"),
    ("S0.csv", "2.0,3.0", "2.0,3.0,4.0", "S0.csv, line 4: row width 3 != 2"),
    ("stations.csv", "31.0", "north", "stations.csv, line 3: could not "
     "convert string to float: 'north'"),
    ("stations.csv", "lat,", "latitude,", "stations.csv: no lat column"),
    ("stations.csv", ",101.0,6.0", "", "stations.csv, line 3: fewer fields"),
    # written with surrogateescape: the byte 0xff
    ("stations.csv", "S1,", "S\udcff1,", "stations.csv: byte 42 is not UTF-8"),
    ("stations.csv", _RAW_STATIONS, _CONFLICTING_STARTS, "stations.csv, "
     "line 3: time_start 1600000000 differs from 1577836800 on line 2"),
])
def test_malformed_csv_one_line_error(tmp_path, capsys, file, old, new,
                                      where):
    # each malformed input exits 1 with one line naming its file and line
    raw = tmp_path / "raw"
    raw.mkdir()
    for name, text in [("stations.csv", _RAW_STATIONS),
                       ("S0.csv", _RAW_SERIES), ("S1.csv", _RAW_SERIES)]:
        text = text.replace(old, new, 1) if name == file else text
        (raw / name).write_bytes(text.encode("utf-8", "surrogateescape"))
    capsys.readouterr()
    assert main(["preprocess", "--data", str(raw), "--out",
                 str(tmp_path / "clean.w2kt")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") \
        and where in err[0], err


def test_repeated_series_column_one_line_error(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "stations.csv").write_text(_RAW_STATIONS)
    for name in ("S0.csv", "S1.csv"):
        (raw / name).write_text(_RAW_SERIES.replace("t,rh", "t,t", 1))
    capsys.readouterr()
    assert main(["preprocess", "--data", str(raw), "--out",
                 str(tmp_path / "clean.w2kt")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") \
        and "duplicate factor names in ['t', 't']" in err[0], err


def test_packed_default_codes_need_preprocess(tmp_path, capsys):
    ds = dt.generate_synthetic(dt.SynthConfig(n=4, t=400, d=11, seed=6))
    ds = ds.select_factors(["t", "vv"])
    vv = ds.factor_index("vv")
    for i in range(4):  # 2 of 400 steps per station: under the 1% screen
        ds.values[i, [40 + 9 * i, 41 + 9 * i], vv] = 999999.0
    raw, clean = tmp_path / "raw.w2kt", tmp_path / "clean.w2kt"
    dt.save_dataset(ds, raw)
    graphs = ["graphs", "--n-adjacent", "2", "--pattern-factors", "vv",
              "--out", str(tmp_path / "g.graphs")]
    capsys.readouterr()
    assert main(graphs + ["--data", str(raw)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "8 unobserved cells" in err[0] \
        and "stationcast preprocess" in err[0], err
    assert main(["preprocess", "--data", str(raw), "--out", str(clean)]) == 0
    filled = dt.load_dataset(clean)
    assert filled.n_stations == 4 and filled.mask.all()
    assert filled.values[:, :, vv].max() < 999999.0
    assert main(graphs + ["--data", str(clean)]) == 0


def test_eval_ckpt_and_pred_agree(tmp_path):
    data = tmp_path / "synth.w2kt"
    graphs = tmp_path / "graphs.bin"
    ckpt = tmp_path / "model.ckpt"
    cfg = _tiny_model_json(tmp_path / "model.json", epochs=1)
    assert main(["synth", "--n", "5", "--t", "120", "--d", "1",
                 "--seed", "4", "--out", str(data)]) == 0
    assert main(["graphs", "--data", str(data), "--n-adjacent", "2",
                 "--out", str(graphs)]) == 0
    assert main(["train", "--data", str(data), "--graphs", str(graphs),
                 "--factor", "t", "--config", str(cfg), "--out", str(ckpt),
                 "--history", str(tmp_path / "h.jsonl")]) == 0
    m1 = tmp_path / "ckpt.json"
    preds = tmp_path / "preds.bin"
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                 "--graphs", str(graphs), "--save-pred", str(preds),
                 "--out", str(m1)]) == 0
    m2 = tmp_path / "scored.json"
    assert main(["eval", "--pred", str(preds), "--data", str(data),
                 "--out", str(m2)]) == 0
    a = json.loads(m1.read_text())["overall"]
    b = json.loads(m2.read_text())["overall"]
    assert a["mae"] == pytest.approx(b["mae"], rel=1e-12)
    assert a["rmse"] == pytest.approx(b["rmse"], rel=1e-12)


# flag destinations and defaults of the training and scoring commands; the
# required flags are given as "<req>" so the parse succeeds
_CLI_SURFACE = {
    "train": {"data": "<req>", "graphs": "<req>", "factor": "t",
              "split": "3,1,2", "config": None, "epochs": None,
              "batch_size": None, "lr0": None, "seed": None,
              "early_stop_patience": None, "wprime": None, "w": None,
              "out": "<req>", "history": None},
    "ablate": {"data": "<req>", "graphs": None, "grid": "full13",
               "seeds": "0", "factor": "t", "split": "3,1,2",
               "n_adjacent": 10, "config": None, "epochs": None,
               "batch_size": None, "lr0": None, "early_stop_patience": None,
               "wprime": None, "w": None, "out": "<req>"},
    "sweep": {"data": "<req>", "counts": "5,10,15,20,25", "factor": "t",
              "split": "3,1,2", "config": None, "epochs": None,
              "batch_size": None, "lr0": None, "seed": None, "wprime": None,
              "w": None, "out": "<req>"},
    "eval": {"data": "<req>", "ckpt": None, "baseline": None, "pred": None,
             "graphs": None, "factor": None, "split": None,
             "eval_split": "test", "wprime": None, "w": None, "lam": 0.0,
             "gamma": None, "space": "normalized", "save_pred": None,
             "out": "<req>"},
}


@pytest.mark.parametrize("command", sorted(_CLI_SURFACE))
def test_cli_surface_is_pinned(command):
    want = _CLI_SURFACE[command]
    argv = [command]
    for dest, default in want.items():
        if default == "<req>":
            argv += ["--" + dest, "<req>"]
    args = vars(build_parser().parse_args(argv))
    assert args.pop("command") == command
    args.pop("func")
    assert args == want


def test_eval_requires_exactly_one_mode(tmp_path):
    data = tmp_path / "synth.w2kt"
    assert main(["synth", "--n", "5", "--t", "80", "--d", "1",
                 "--seed", "5", "--out", str(data)]) == 0
    out = tmp_path / "m.json"
    assert main(["eval", "--data", str(data), "--out", str(out)]) == 1
    assert main(["eval", "--data", str(data), "--baseline", "persistence",
                 "--ckpt", "x.ckpt", "--out", str(out)]) == 1
    assert main(["eval", "--data", str(data), "--baseline", "psychic",
                 "--out", str(out)]) == 1


def test_eval_malformed_checkpoint_exits_1(tmp_path, capsys):
    data = tmp_path / "synth.w2kt"
    ckpt = tmp_path / "model.ckpt"
    assert main(["synth", "--n", "5", "--t", "80", "--d", "1",
                 "--seed", "5", "--out", str(data)]) == 0
    md.save_checkpoint(md.build_model(5), ckpt)
    raw = ckpt.read_bytes()
    hlen = struct.unpack_from("<II", raw, 4)[1]
    header = {**json.loads(raw[12:12 + hlen]), "extra": 5}
    blob = json.dumps(header).encode()
    ckpt.write_bytes(raw[:4] + struct.pack("<II", 1, len(blob)) + blob
                     + raw[12 + hlen:])
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                 "--factor", "t", "--out", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_eval_ckpt_defaults_to_the_stored_split(tmp_path):
    data, graphs = tmp_path / "synth.w2kt", tmp_path / "net.graphs"
    ckpt = tmp_path / "model.ckpt"
    assert main(["synth", "--n", "5", "--t", "200", "--d", "1",
                 "--seed", "6", "--out", str(data)]) == 0
    assert main(["graphs", "--data", str(data), "--n-adjacent", "2",
                 "--split", "4,1,1", "--out", str(graphs)]) == 0
    assert main(["train", "--data", str(data), "--graphs", str(graphs),
                 "--split", "4,1,1", "--epochs", "1", "--out",
                 str(ckpt)]) == 0
    docs = []
    for split in ([], ["--split", "4,1,1"]):
        out = tmp_path / f"m{len(docs)}.json"
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                     "--out", str(out)] + split) == 0
        docs.append(out.read_bytes())
    assert docs[0] == docs[1]
    # 200 steps at 4:1:1 leave 34 test steps, so 34 - 24 + 1 windows
    assert json.loads(docs[0])["counts"]["windows"] == 11


@pytest.mark.parametrize("stored", ["4,1,1", [4, 1], [4, 1, True],
                                    [4, 1, None], [4, 1, float("nan")]],
                         ids=["string", "two", "bool", "null", "nan"])
def test_eval_malformed_stored_split_exits_1(small_run, tmp_path, capsys,
                                             stored):
    ckpt = tmp_path / "model.ckpt"
    md.save_checkpoint(md.build_model(5), ckpt,
                       extra={"factor": "t", "split": stored})
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(ckpt), "--data",
                 str(small_run / "synth.w2kt"), "--graphs",
                 str(small_run / "graphs.bin"), "--out",
                 str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") \
        and "split" in err[0], err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("param", ["fusion_distance", "out_w"])
def test_eval_nonfinite_checkpoint_exits_1(tmp_path, capsys, param, value):
    data = tmp_path / "synth.w2kt"
    ckpt = tmp_path / "model.ckpt"
    assert main(["synth", "--n", "5", "--t", "80", "--d", "1",
                 "--seed", "5", "--out", str(data)]) == 0
    model = md.build_model(5)
    model.params[param].flat[0] = value
    md.save_checkpoint(model, ckpt)
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                 "--factor", "t", "--out", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "non-finite" in err[0], err


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("small_run")
    assert main(["synth", "--n", "5", "--t", "120", "--d", "1", "--seed",
                 "4", "--out", str(root / "synth.w2kt")]) == 0
    assert main(["graphs", "--data", str(root / "synth.w2kt"),
                 "--n-adjacent", "2", "--out", str(root / "graphs.bin")]) == 0
    return root


@pytest.mark.parametrize("argv,where", [
    (["graphs", "--sigma", "abc"], "--sigma takes a bandwidth"),
    (["graphs", "--split", "0,0,0"], "positive sum"),
    (["train", "--config", "[1, 2]"], "must be a JSON object"),
    (["train", "--config", '{"model": [1]}'], "must be a JSON object"),
    (["train", "--config", '{"train": "fast"}'], "must be a JSON object"),
    (["train", "--config", '{"model": {"blocks": []}}'], "at least one block"),
    (["train", "--config", '{"model": {"blocks": [1]}}'], "bad config field"),
    (["eval", "--baseline", "krr", "--gamma", "0"], "gamma 0.0 is not"),
    (["eval", "--baseline", "krr", "--gamma", "-1"], "gamma -1.0 is not"),
    (["eval", "--baseline", "ridge", "--lam", "nan"], "penalty nan is not"),
    (["eval", "--baseline", "ridge", "--lam", "1", "--wprime", "0"],
     "window lengths"),
    (["eval", "--baseline", "ridge", "--lam", "1", "--w", "0"],
     "window lengths"),
    (["graphs", "--split", "1e308,0,0"], "is finite"),
    (["graphs", "--sigma", "inf"], "sigma inf must be positive and finite"),
    (["train", "--lr0", "-1"], "learning rate -1.0 is not"),
    (["train", "--lr0", "nan"], "learning rate nan is not"),
    (["train", "--config", '{"train": {"lr_decay_factor": 1.5}}'],
     "lr decay factor 1.5 lies outside"),
    (["train", "--patience", "-1"], "patience -1 must be at least 1"),
    (["train", "--patience", "0"], "patience 0 must be at least 1"),
    (["ablate", "--patience", "-1", "--n-adjacent", "2"],
     "patience -1 must be at least 1"),
    # without --n-adjacent the graph build would fail on 5 stations
    (["ablate", "--patience", "-1"], "patience -1 must be at least 1"),
    (["synth", "--noise-amp", "-1"], "noise_amp -1.0 is not nonnegative"),
    (["synth", "--noise-amp", "nan"], "noise_amp nan is not nonnegative"),
    (["synth", "--ar-amp", "inf"], "ar_amp inf is not nonnegative"),
    (["synth", "--diurnal-amp", "-0.5"],
     "diurnal_amp -0.5 is not nonnegative"),
    (["train", "--seed", "-1"], "seed -1 must be at least 0"),
    (["synth", "--seed", "-1"], "seed -1 must be at least 0"),
    (["train", "--config", '{"model": {"d_emb": 2.5}}'],
     "d_emb 2.5 is not an integer"),
    (["train", "--config", '{"train": {"batch_size": 2.5}}'],
     "batch_size 2.5 is not an integer"),
    (["train", "--config", '{"train": {"seed": 1.5}}'],
     "seed 1.5 is not an integer"),
    (["train", "--config", '{"train": {"epochs": true}}'],
     "epochs True is not an integer"),
    (["train", "--config", '{"model": {"blocks": [{"cheb_order": 2, '
      '"temporal_kernels": [3.0], "channels_in": 1, "channels_out": 4}]}}'],
     "temporal_kernels 3.0 is not an integer"),
    (["train", "--config", '{"model": {"alpha": Infinity}}'],
     "alpha inf is not a finite number"),
    (["train", "--config", '{"model": {"beta": true}}'],
     "beta True is not a finite number"),
    (["train", "--config", '{"train": {"lr0": true}}'],
     "lr0 True is not a finite number"),
    (["train", "--config", '{"train": {"lr_decay_factor": false}}'],
     "lr_decay_factor False is not a finite number"),
    (["train", "--config", '{"train": {"lr0": "0.1"}}'],
     "lr0 '0.1' is not a finite number"),
    (["train", "--config", '{"train": {"lr_decay_factor": "0.1"}}'],
     "lr_decay_factor '0.1' is not a finite number"),
    (["ablate", "--seeds", "0,-1", "--n-adjacent", "2"],
     "seed -1 must be at least 0"),
], ids=["sigma-abc", "split-0-0-0", "config-list", "config-model-list",
        "config-train-string", "config-no-blocks", "config-block-int",
        "krr-gamma-0", "krr-gamma-negative", "ridge-lam-nan", "wprime-0",
        "w-0", "split-1e308", "sigma-inf", "lr0-negative", "lr0-nan",
        "config-decay-factor-1.5", "patience-negative", "patience-0",
        "ablate-patience-negative", "ablate-patience-before-graphs",
        "synth-noise-amp-negative", "synth-noise-amp-nan", "synth-ar-amp-inf",
        "synth-diurnal-amp-negative", "train-seed-negative",
        "synth-seed-negative", "config-d-emb-float", "config-batch-size-float",
        "config-seed-float", "config-epochs-bool",
        "config-temporal-kernel-float", "config-alpha-inf", "config-beta-bool",
        "config-lr0-bool", "config-decay-factor-bool", "config-lr0-string",
        "config-decay-factor-string", "ablate-seed-negative"])
def test_bad_input_exits_1_with_one_line(small_run, tmp_path, capsys, argv,
                                         where):
    argv = list(argv)
    if "--config" in argv:
        i = argv.index("--config") + 1
        (tmp_path / "cfg.json").write_text(argv[i])
        argv[i] = str(tmp_path / "cfg.json")
    if argv[0] != "synth":
        argv += ["--data", str(small_run / "synth.w2kt")]
    argv += ["--out", str(tmp_path / "out")]
    if argv[0] == "train":
        argv += ["--graphs", str(small_run / "graphs.bin")]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") \
        and where in err[0], err
    assert not (tmp_path / "out").exists()


def test_missing_input_exits_1(tmp_path):
    out = tmp_path / "g.graphs"
    code = main(["graphs", "--data", str(tmp_path / "nope.w2kt"),
                 "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_runtime_failure_exits_2(tmp_path):
    # a constant factor makes train-split normalization impossible
    stations = [StationMeta(f"S{i}", 35.0, 110.0 + 0.1 * i)
                for i in range(4)]
    values = np.full((4, 60, 1), 7.5)
    ds = WeatherSeriesDataset(stations, ["t"], values,
                              np.ones((4, 60, 1), dtype=bool))
    data = tmp_path / "flat.w2kt"
    dt.save_dataset(ds, data)
    code = main(["eval", "--baseline", "persistence", "--data", str(data),
                 "--factor", "t", "--wprime", "6", "--w", "3",
                 "--out", str(tmp_path / "m.json")])
    assert code == 2


def test_env_var_resolves_relative_paths(tmp_path, monkeypatch):
    monkeypatch.setenv("STATIONCAST_DATA_DIR", str(tmp_path))
    assert main(["synth", "--n", "5", "--t", "80", "--d", "1",
                 "--seed", "6", "--out", "rel.w2kt"]) == 0
    assert (tmp_path / "rel.w2kt").exists()
    assert main(["graphs", "--data", "rel.w2kt", "--n-adjacent", "2",
                 "--out", "rel_graphs.bin"]) == 0
    assert (tmp_path / "rel_graphs.bin").exists()


def test_env_var_resolves_checkpoint_graphs_path(tmp_path, monkeypatch):
    # train with relative paths so the checkpoint stores a relative graphs
    # path, then eval from another cwd with only the env var to find it
    work = tmp_path / "artifacts"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["synth", "--n", "5", "--t", "80", "--d", "1",
                 "--seed", "6", "--out", "d.w2kt"]) == 0
    assert main(["graphs", "--data", "d.w2kt", "--n-adjacent", "2",
                 "--out", "g.graphs"]) == 0
    cfg = work / "cfg.json"
    _tiny_model_json(cfg)
    assert main(["train", "--data", "d.w2kt", "--graphs", "g.graphs",
                 "--config", str(cfg), "--out", "m.ckpt",
                 "--history", "h.jsonl"]) == 0
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    monkeypatch.setenv("STATIONCAST_DATA_DIR", str(work))
    assert main(["eval", "--data", "d.w2kt", "--ckpt", "m.ckpt",
                 "--out", "m_metrics.json"]) == 0
    assert (work / "m_metrics.json").exists()
    assert not (elsewhere / "m_metrics.json").exists()


def test_commands_do_not_mutate_inputs(tmp_path):
    data = tmp_path / "synth.w2kt"
    assert main(["synth", "--n", "5", "--t", "90", "--d", "1",
                 "--seed", "7", "--out", str(data)]) == 0
    before = data.read_bytes()
    assert main(["graphs", "--data", str(data), "--n-adjacent", "2",
                 "--out", str(tmp_path / "g.graphs")]) == 0
    assert data.read_bytes() == before


def test_preprocess_screens_and_fills(tmp_path):
    rng = np.random.default_rng(8)
    stations = [StationMeta(f"S{i}", 35.0 + 0.1 * i, 110.0) for i in range(4)]
    values = rng.normal(0.0, 1.0, (4, 200, 2))
    mask = np.ones((4, 200, 2), dtype=bool)
    # station 0: 5% missing records -> dropped; station 1: a few gaps, kept
    mask[0, :10, 0] = False
    mask[1, 50:51, 1] = False
    values[~mask] = np.nan
    # station 2: visibility default code on 4% of steps -> dropped
    values[2, :8, 1] = 999999.0
    ds = WeatherSeriesDataset(stations, ["t", "vv"], values, mask)
    raw = tmp_path / "raw.w2kt"
    dt.save_dataset(ds, raw)

    clean = tmp_path / "clean.w2kt"
    assert main(["preprocess", "--data", str(raw),
                 "--out", str(clean)]) == 0
    out = dt.load_dataset(clean)
    assert [s.station_id for s in out.stations] == ["S1", "S3"]
    assert out.mask.all()
    assert np.isfinite(out.values).all()
    manifest = json.loads((tmp_path / "clean.w2kt.manifest.json")
                          .read_text())
    assert manifest["config"]["missing_report"]["dropped"] == ["S0"]
    assert manifest["config"]["default_report"]["dropped"] == ["S2"]


def test_ablate_and_sweep_small(tmp_path):
    data = tmp_path / "synth.w2kt"
    cfg = _tiny_model_json(tmp_path / "model.json", epochs=1)
    assert main(["synth", "--n", "6", "--t", "120", "--d", "1",
                 "--seed", "9", "--out", str(data)]) == 0

    ablation = tmp_path / "ablation.json"
    assert main(["ablate", "--data", str(data), "--grid", "singles",
                 "--seeds", "0", "--config", str(cfg),
                 "--n-adjacent", "2", "--out", str(ablation)]) == 0
    doc = json.loads(ablation.read_text())
    assert len(doc["rows"]) == 5
    assert doc["reference_full_scale"]["five_graph"]["rmse"] == 2.0574

    sweep = tmp_path / "sweep.json"
    assert main(["sweep", "--data", str(data), "--counts", "2,3",
                 "--config", str(cfg), "--out", str(sweep)]) == 0
    curve = json.loads(sweep.read_text())
    assert curve["n_adjacent"] == [2, 3]
    assert len(curve["test_mae"]) == 2


def test_train_flag_overrides_config(tmp_path):
    data = tmp_path / "synth.w2kt"
    graphs = tmp_path / "g.graphs"
    cfg = _tiny_model_json(tmp_path / "model.json", epochs=5, seed=1)
    assert main(["synth", "--n", "5", "--t", "100", "--d", "1",
                 "--seed", "10", "--out", str(data)]) == 0
    assert main(["graphs", "--data", str(data), "--n-adjacent", "2",
                 "--out", str(graphs)]) == 0
    ckpt = tmp_path / "m.ckpt"
    hist = tmp_path / "h.jsonl"
    assert main(["train", "--data", str(data), "--graphs", str(graphs),
                 "--config", str(cfg), "--epochs", "1", "--seed", "2",
                 "--out", str(ckpt), "--history", str(hist)]) == 0
    lines = hist.read_text().splitlines()
    assert len(lines) == 2  # one epoch, one summary: flag beat the file
    manifest = json.loads((tmp_path / "m.ckpt.manifest.json").read_text())
    assert manifest["config"]["train_config"]["epochs"] == 1
    assert manifest["config"]["train_config"]["seed"] == 2
    assert manifest["seed"] == 2
    assert str(data) in manifest["input_hashes"]


def _check_truncations(raw: bytes, cut, load, argv, every: int = 1):
    """Every proper prefix of a file (every `every`-th past 512 bytes) and
    the file with one byte appended make `load` raise StructuralError; a
    sample of them fed to the command line as `cut` exits 1 or 2."""
    prefixes = [raw[:k] for k in range(len(raw)) if k < 512 or k % every == 0]
    prefixes.append(raw + b"\0")
    for prefix in prefixes:
        cut.write_bytes(prefix)
        with pytest.raises(StructuralError):
            load(cut)
    for prefix in prefixes[::len(prefixes) // 25]:
        cut.write_bytes(prefix)
        assert main(argv) in (1, 2)


def test_truncated_graph_file_is_a_structural_error(tmp_path):
    data = tmp_path / "synth.w2kt"
    graphs = tmp_path / "graphs.bin"
    ckpt = tmp_path / "model.ckpt"
    cfg = _tiny_model_json(tmp_path / "model.json", epochs=1)
    assert main(["synth", "--n", "5", "--t", "80", "--d", "1",
                 "--seed", "11", "--out", str(data)]) == 0
    assert main(["graphs", "--data", str(data), "--n-adjacent", "2",
                 "--out", str(graphs)]) == 0
    assert main(["train", "--data", str(data), "--graphs", str(graphs),
                 "--config", str(cfg), "--out", str(ckpt),
                 "--history", str(tmp_path / "h.jsonl")]) == 0
    raw = graphs.read_bytes()
    assert raw[:4] == b"W2KG"
    cut = tmp_path / "cut.bin"
    _check_truncations(raw, cut, gr.load_graphs,
                       ["eval", "--ckpt", str(ckpt), "--data", str(data),
                        "--graphs", str(cut),
                        "--out", str(tmp_path / "m.json")], every=97)


def _json_graph_doc(gs) -> str:
    """A graph file in the JSON layout earlier versions wrote for small
    station sets."""
    return json.dumps({
        "format": "station-graphs", "version": 1, "n": gs.n, "meta": gs.meta,
        "graphs": {k: a.weights.tolist() for k, a in gs.graphs.items()},
        "kinds": {k: a.kind for k, a in gs.graphs.items()}}, indent=2)


@pytest.mark.parametrize("write", [
    lambda gs, path: gr.save_graphs(replace(gs, meta=[]), path),
    lambda gs, path: gr.save_graphs(replace(gs, meta={"stations": 5}), path),
    lambda gs, path: gr.save_graphs(
        replace(gs, meta={"stations": ["S0", 1, "S2", "S3", "S4"]}), path),
    lambda gs, path: path.write_text(_json_graph_doc(gs)),
    lambda gs, path: gr.save_graphs(replace(gs, graphs={
        **gs.graphs,
        "distance": gr.Adjacency(gs.n, gs["distance"].weights, "neighbor")}),
        path),
], ids=["meta-list", "stations-int", "stations-mixed", "json-layout",
        "distance-as-neighbor"])
def test_malformed_graph_file_exits_1_with_one_line(small_run, tmp_path,
                                                    capsys, write):
    bad = tmp_path / "bad.graphs"
    write(gr.load_graphs(small_run / "graphs.bin"), bad)
    with pytest.raises(StructuralError):
        gr.load_graphs(bad)
    capsys.readouterr()
    assert main(["train", "--data", str(small_run / "synth.w2kt"),
                 "--graphs", str(bad), "--out", str(tmp_path / "m.ckpt")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not (tmp_path / "m.ckpt").exists()


def test_truncated_prediction_file_is_a_structural_error(tmp_path):
    data = tmp_path / "synth.w2kt"
    preds = tmp_path / "preds.bin"
    assert main(["synth", "--n", "3", "--t", "80", "--d", "1",
                 "--seed", "12", "--out", str(data)]) == 0
    assert main(["eval", "--baseline", "persistence", "--data", str(data),
                 "--factor", "t", "--wprime", "6", "--w", "3",
                 "--save-pred", str(preds),
                 "--out", str(tmp_path / "base.json")]) == 0
    cut = tmp_path / "cut.bin"
    _check_truncations(preds.read_bytes(), cut, ev.load_predictions,
                       ["eval", "--pred", str(cut), "--data", str(data),
                        "--out", str(tmp_path / "m.json")])


def _flip_files(tmp_path):
    """Tiny files of all four packed formats and, per format, its loader,
    a command that reads a file of that format from `cut`, and the length
    of its fixed header."""
    data = tmp_path / "synth.w2kt"
    assert main(["synth", "--n", "3", "--t", "40", "--d", "1",
                 "--seed", "13", "--out", str(data)]) == 0
    graphs = tmp_path / "graphs.bin"
    assert main(["graphs", "--data", str(data), "--n-adjacent", "1",
                 "--out", str(graphs)]) == 0
    cfg = md.ModelConfig(w_in=6, w_out=3, d=1, d_emb=2, blocks=[
        md.StBlockConfig(2, [1, 3], 1, 2)])
    ckpt = tmp_path / "model.ckpt"
    md.save_checkpoint(md.build_model(3, cfg, seed=0), ckpt,
                       extra={"factor": "t"})
    preds = tmp_path / "preds.bin"
    assert main(["eval", "--baseline", "persistence", "--data", str(data),
                 "--wprime", "6", "--w", "3", "--save-pred", str(preds),
                 "--out", str(tmp_path / "base.json")]) == 0
    cut = tmp_path / "cut.bin"
    out = ["--out", str(tmp_path / "out.json")]
    return cut, {
        "W2KT": (data, dt.load_dataset,
                 ["graphs", "--data", str(cut), "--n-adjacent", "1"] + out),
        "W2KG": (graphs, gr.load_graphs,
                 ["eval", "--ckpt", str(ckpt), "--data", str(data),
                  "--graphs", str(cut)] + out),
        "W2KP": (preds, ev.load_predictions,
                 ["eval", "--pred", str(cut), "--data", str(data)] + out),
        "W2KC": (ckpt, md.load_checkpoint,
                 ["eval", "--ckpt", str(cut), "--data", str(data),
                  "--graphs", str(graphs)] + out),
    }, {"W2KT": 32, "W2KG": 16, "W2KP": 25, "W2KC": 12}


def test_header_byte_flips_never_raise(tmp_path, capsys):
    """Every byte of each format's fixed header and first meta bytes,
    inverted, ends in exit 1 or 2 with one error line, unless the file
    still loads (a flipped time origin, say); no flip raises."""
    cut, files, header = _flip_files(tmp_path)
    rejected = {}
    for fmt, (src, load, argv) in files.items():
        raw = src.read_bytes()
        assert raw[:4] == fmt.encode()
        rejected[fmt] = 0
        for i in range(header[fmt] + 16):
            flipped = bytearray(raw)
            flipped[i] ^= 0xFF
            cut.write_bytes(bytes(flipped))
            try:
                load(cut)
                loads = True
            except StationcastError:
                loads = False
            capsys.readouterr()
            code = main(argv)
            err = capsys.readouterr().err.splitlines()
            assert code in ((0, 1, 2) if loads else (1, 2)), (fmt, i)
            if code:
                assert len(err) == 1 and err[0].startswith("error:"), \
                    (fmt, i, err)
            rejected[fmt] += not loads
    # the magic, version and size fields alone guarantee most rejections
    assert all(count >= 16 for count in rejected.values()), rejected


def test_truncated_dataset_file_exits_cleanly(tmp_path):
    src, cut = tmp_path / "tiny.w2kt", tmp_path / "cut.w2kt"
    dt.save_dataset(dt.generate_synthetic(dt.SynthConfig(n=2, t=12, d=1)),
                    src)
    raw = src.read_bytes()
    argv = ["graphs", "--data", str(cut), "--n-adjacent", "1",
            "--out", str(tmp_path / "g.graphs")]
    for k in range(len(raw)):
        cut.write_bytes(raw[:k])
        with pytest.raises(StructuralError):
            dt.load_dataset(cut)
        assert main(argv) in (1, 2), k
