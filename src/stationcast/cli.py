"""Command line entrypoint tying the toolkit together.

Subcommands cover the whole workflow: synth and preprocess produce packed
datasets, graphs builds the static station graphs, train fits the
forecaster, eval scores checkpoints, reference predictors, or packed
prediction files, ablate runs the graph-subset study, and sweep varies the
neighbor-graph degree.  Every command writes a
``<output>.manifest.json`` recording the resolved configuration, input
hashes, seed, and wall time.  Exit codes: 0 success, 1 bad input or
configuration, 2 runtime failure.  Diagnostics go to stderr.

Relative paths resolve against $STATIONCAST_DATA_DIR when it is set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__
from . import data as dt
from . import evaluation as ev
from . import graphs as gr
from . import model as md
from .errors import (CheckpointError, ConfigError, SchemaError, ShapeError,
                     StationcastError, StructuralError)

DATA_DIR_ENV = "STATIONCAST_DATA_DIR"

_USAGE_ERRORS = (ConfigError, SchemaError, StructuralError, ShapeError,
                 CheckpointError, FileNotFoundError, NotADirectoryError)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _resolve(p) -> Path:
    path = Path(p)
    base = os.environ.get(DATA_DIR_ENV)
    if base and not path.is_absolute():
        return Path(base) / path
    return path


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_path: Path, command: str, config: dict,
                    inputs, seed, started: float) -> None:
    manifest = {
        "command": command,
        "config": config,
        "input_hashes": {str(p): _sha256(Path(p)) for p in inputs
                         if Path(p).is_file()},
        "seed": seed,
        "version": __version__,
        "wall_time_s": time.monotonic() - started,
    }
    path = Path(str(out_path) + ".manifest.json")
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _args_config(args: argparse.Namespace) -> dict:
    cfg = {}
    for k, v in vars(args).items():
        if k == "func":
            continue
        cfg[k] = str(v) if isinstance(v, Path) else v
    return cfg


def _parse_numbers(text: str, cast=float) -> list:
    parts = [p for p in text.replace(":", ",").split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"empty number list {text!r}")
    try:
        return [cast(p) for p in parts]
    except ValueError:
        raise ConfigError(f"cannot parse number list {text!r}") from None


def _load_dataset_arg(path: Path, gaps_ok: bool = False):
    """Load a dataset argument; only preprocess may read unobserved cells."""
    if not path.exists():
        raise FileNotFoundError(f"dataset {path} does not exist")
    ds = dt.load_dataset(path)
    if not (gaps_ok or ds.mask.all()):
        raise SchemaError(f"dataset {path} has {int((~ds.mask).sum())} "
                          "unobserved cells; fill them with `stationcast "
                          "preprocess` first")
    return ds


def _split_scheme(text: str):
    return tuple(_parse_numbers(text))


def _prepare_splits(ds, factor: str, scheme):
    """Slice one factor, cut train/val/test, z-score with train stats."""
    sliced = ds.select_factors([factor])
    train, val, test = dt.split_temporal(sliced, scheme)
    stats = dt.compute_norm_stats(train)
    train, _ = dt.normalize(train, stats)
    val, _ = dt.normalize(val, stats)
    test, _ = dt.normalize(test, stats)
    return train, val, test, stats


def _static_from_graphset(gs: gr.GraphSet, ds) -> dict:
    ids = [s.station_id for s in ds.stations]
    known = gs.meta.get("stations")
    if known is not None and list(known) != ids:
        raise ConfigError("graph file was built for different stations than "
                          "the dataset provides")
    if gs.n != ds.n_stations:
        raise ConfigError(f"graph file has {gs.n} stations, dataset has "
                          f"{ds.n_stations}")
    return {k: gs[k].weights for k in gr.STATIC_KINDS if k in gs.graphs}


def _model_and_train_config(args) -> tuple:
    """Merge config file values with flag overrides (flags win)."""
    filecfg = {}
    if getattr(args, "config", None):
        cfg_path = _resolve(args.config)
        if not cfg_path.exists():
            raise FileNotFoundError(f"config {cfg_path} does not exist")
        try:
            filecfg = json.loads(cfg_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {cfg_path} is not valid JSON: {e}")
        if not (isinstance(filecfg, dict) and all(isinstance(
                filecfg.get(k, {}), dict) for k in ("model", "train"))):
            raise ConfigError(f"config {cfg_path} must be a JSON object "
                              "whose 'model' and 'train' are objects")
    mdict = dict(filecfg.get("model", {}))
    tdict = dict(filecfg.get("train", {}))
    overrides = {"w_in": getattr(args, "wprime", None),
                 "w_out": getattr(args, "w", None)}
    for key, val in overrides.items():
        if val is not None:
            mdict[key] = val
    for key in ("epochs", "batch_size", "lr0", "seed", "early_stop_patience"):
        val = getattr(args, key, None)
        if val is not None:
            tdict[key] = val
    try:
        mcfg = md.ModelConfig(**mdict)
        tcfg = md.TrainConfig(**tdict)
    except TypeError as e:
        raise ConfigError(f"bad config field: {e}") from None
    return mcfg, tcfg


# ---------------------------------------------------------------------------
# commands


def _cmd_synth(args) -> int:
    started = time.monotonic()
    cfg = dt.SynthConfig(n=args.n, t=args.t, d=args.d, seed=args.seed,
                         noise_amp=args.noise_amp, ar_amp=args.ar_amp,
                         diurnal_amp=args.diurnal_amp)
    ds = dt.generate_synthetic(cfg)
    out = _resolve(args.out)
    dt.save_dataset(ds, out)
    _log(f"wrote {ds.n_stations} stations x {ds.n_steps} steps x "
         f"{ds.n_factors} factors to {out}")
    _write_manifest(out, "synth", _args_config(args), [], args.seed, started)
    return 0


def _cmd_preprocess(args) -> int:
    started = time.monotonic()
    src = _resolve(args.data)
    ds = _load_dataset_arg(src, gaps_ok=True)
    # default codes load as unobserved, so their rule runs first: the gap
    # rule would count them as gaps
    kept, default_report = dt.screen_defaults(ds, max_ratio=args.max_defaults)
    kept, missing_report = dt.screen_missing(kept, max_ratio=args.max_missing)
    filled = dt.interpolate_linear(kept)
    out = _resolve(args.out)
    dt.save_dataset(filled, out)
    _log(f"screened {ds.n_stations} -> {filled.n_stations} stations "
         f"(missing rule dropped {len(missing_report['dropped'])}, "
         f"default codes dropped {len(default_report['dropped'])})")
    config = _args_config(args)
    config["missing_report"] = missing_report
    config["default_report"] = default_report
    _write_manifest(out, "preprocess", config, [src], None, started)
    return 0


def _cmd_graphs(args) -> int:
    started = time.monotonic()
    src = _resolve(args.data)
    ds = _load_dataset_arg(src)
    train = dt.split_temporal(ds, _split_scheme(args.split))[0]
    factors = (args.pattern_factors.split(",") if args.pattern_factors
               else gr.PATTERN_FACTORS)
    try:
        sigma = "auto" if args.sigma == "auto" else float(args.sigma)
    except ValueError:
        raise ConfigError(f"--sigma takes a bandwidth in km or 'auto', "
                          f"got {args.sigma!r}") from None
    gs = gr.build_static_graphs(train, sigma=sigma, epsilon=args.epsilon,
                                n_adjacent=args.n_adjacent,
                                pattern_factors=factors)
    out = _resolve(args.out)
    gr.save_graphs(gs, out)
    _log(f"built distance/neighbor/pattern graphs for {gs.n} stations "
         f"(sigma {gs.meta['sigma']:.3f} km, epsilon {args.epsilon}, "
         f"{args.n_adjacent} neighbors) -> {out}")
    _write_manifest(out, "graphs", _args_config(args), [src], None, started)
    return 0


def _cmd_train(args) -> int:
    started = time.monotonic()
    src = _resolve(args.data)
    graph_path = _resolve(args.graphs)
    ds = _load_dataset_arg(src)
    train_ds, val_ds, test_ds, stats = _prepare_splits(
        ds, args.factor, _split_scheme(args.split))
    gs = gr.load_graphs(graph_path)
    static = _static_from_graphset(gs, train_ds)
    mcfg, tcfg = _model_and_train_config(args)
    model = md.build_model(train_ds.n_stations, mcfg, seed=tcfg.seed)

    def progress(epoch, train_loss, val_mae, lr):
        _log(f"epoch {epoch}: train mae {train_loss:.6f}  "
             f"val mae {val_mae:.6f}  lr {lr:.2e}")

    fitted, history = md.train(model, train_ds, val_ds, static, tcfg,
                               progress=progress)
    out = _resolve(args.out)
    extra = {
        "factor": args.factor,
        "norm_mean": float(stats.mean[0]),
        "norm_std": float(stats.std[0]),
        "split": list(_split_scheme(args.split)),
        "graphs_file": str(graph_path),
    }
    md.save_checkpoint(fitted, out, extra=extra)
    hist_path = _resolve(args.history) if args.history else None
    if hist_path is not None:
        doc = history.to_dict()
        lines = [json.dumps(rec, sort_keys=True) for rec in doc["epochs"]]
        lines.append(json.dumps({"best_epoch": doc["best_epoch"],
                                 "stopped_early": doc["stopped_early"]},
                                sort_keys=True))
        hist_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    best = history.best_epoch
    _log(f"best epoch {best}: val mae "
         f"{history.val_mae[best - 1]:.6f}; checkpoint -> {out}")
    config = _args_config(args)
    config["model_config"] = mcfg.to_dict()
    config["train_config"] = asdict(tcfg)
    _write_manifest(out, "train", config, [src, graph_path], tcfg.seed,
                    started)
    return 0


_BASELINE_NAMES = {"persistence": "persistence", "linear": "linear",
                   "ridge": "ridge", "krr": "kernel_ridge"}


def _cmd_eval(args) -> int:
    started = time.monotonic()
    modes = [m for m in ("ckpt", "baseline", "pred") if getattr(args, m)]
    if len(modes) != 1:
        raise ConfigError("choose exactly one of --ckpt, --baseline, --pred")
    src = _resolve(args.data)
    ds = _load_dataset_arg(src)
    inputs = [src]
    scheme = _split_scheme(args.split or "3,1,2")
    part = {"train": 0, "val": 1, "test": 2}[args.eval_split]

    if args.pred:
        pred_path = _resolve(args.pred)
        inputs.append(pred_path)
        loaded = ev.load_predictions(pred_path)
        factors, file_space = loaded[3:]
        if set(factors) <= set(ds.factors) and \
                list(factors) != list(ds.factors):
            ds = ds.select_factors(factors)
        splits = dt.split_temporal(ds, scheme)
        scoped = splits[part]
        if file_space == "normalized":
            # normalized predictions compare against z-scored truth, using
            # training-split statistics as everywhere else
            stats = dt.compute_norm_stats(splits[0])
            scoped, _ = dt.normalize(scoped, stats)
        report = ev.score_external(loaded, scoped)
    else:
        if args.baseline:
            if args.baseline not in _BASELINE_NAMES:
                raise ConfigError(f"unknown baseline {args.baseline!r} "
                                  f"(have {sorted(_BASELINE_NAMES)})")
            *splits, stats = _prepare_splits(ds, args.factor or "t", scheme)
            scoped = splits[part]
            preds, truth, starts = ev.evaluate_baseline(
                _BASELINE_NAMES[args.baseline], splits[0], scoped,
                12 if args.wprime is None else args.wprime,
                12 if args.w is None else args.w,
                lam=args.lam, gamma=args.gamma)
        else:
            ckpt_path = _resolve(args.ckpt)
            graph_path = _resolve(args.graphs) if args.graphs else None
            inputs.append(ckpt_path)
            model, extra = md.load_checkpoint(ckpt_path)
            factor = args.factor or extra.get("factor")
            if factor is None:
                raise ConfigError("checkpoint lacks a stored factor; pass "
                                  "--factor")
            stored = extra.get("split")  # the split train normalized with
            if args.split is None and stored is not None:
                # split_temporal rejects the non-finite parts
                if not (isinstance(stored, list) and len(stored) == 3 and all(
                        type(p) in (int, float) for p in stored)):
                    raise CheckpointError(f"{ckpt_path}: stored split "
                                          f"{stored!r} is not three numbers")
                scheme = tuple(stored)
            *splits, stats = _prepare_splits(ds, factor, scheme)
            scoped = splits[part]
            if graph_path is None:
                stored = extra.get("graphs_file")
                if stored is None:
                    raise ConfigError("pass --graphs (checkpoint stores no "
                                      "graph path)")
                graph_path = _resolve(stored)
            inputs.append(graph_path)
            static = _static_from_graphset(gr.load_graphs(graph_path), scoped)
            preds, truth, origins = md.predict_dataset(model, scoped, static)
            # prediction files label each forecast by its first target step
            starts = origins + model.config.w_in * scoped.time_step
        if args.space == "physical":
            report = ev.physical_metrics(preds, truth, stats)
        else:
            report = ev.compute_metrics(preds, truth,
                                        factors=scoped.factors)
        if args.save_pred:
            pred_out = _resolve(args.save_pred)
            ev.save_predictions(pred_out, preds, starts,
                                [s.station_id for s in scoped.stations],
                                scoped.factors, space="normalized")

    out = _resolve(args.out)
    doc = report.to_dict()
    doc["horizon_curve"] = {
        f: {"mae": doc["per_factor"][f]["mae_by_horizon"],
            "rmse": doc["per_factor"][f]["rmse_by_horizon"]}
        for f in doc["per_factor"]}
    ev.dump_report(doc, out)
    _log(f"overall mae {report.overall_mae:.6f}  "
         f"rmse {report.overall_rmse:.6f} ({report.space}) -> {out}")
    _write_manifest(out, "eval", _args_config(args), inputs,
                    getattr(args, "seed", None), started)
    return 0


def _cmd_ablate(args) -> int:
    started = time.monotonic()
    src = _resolve(args.data)
    ds = _load_dataset_arg(src)
    train_ds, val_ds, test_ds, _ = _prepare_splits(
        ds, args.factor, _split_scheme(args.split))
    mcfg, tcfg = _model_and_train_config(args)
    inputs = [src]
    if args.graphs:
        graph_path = _resolve(args.graphs)
        inputs.append(graph_path)
        static = _static_from_graphset(gr.load_graphs(graph_path), train_ds)
    else:
        gs = gr.build_static_graphs(train_ds, n_adjacent=args.n_adjacent,
                                    pattern_factors=train_ds.factors)
        static = _static_from_graphset(gs, train_ds)
    seeds = [int(s) for s in _parse_numbers(args.seeds, cast=int)]
    specs = ev.grid_specs(args.grid, seeds=tuple(seeds))
    _log(f"running {len(specs)} rows x {len(seeds)} seeds "
         f"({len(specs) * len(seeds)} trainings)")
    report = ev.run_ablation(specs, train_ds, val_ds, test_ds, static,
                             mcfg, tcfg)
    out = _resolve(args.out)
    ev.dump_report(report, out)
    best = min(report["rows"], key=lambda r: r["mean_mae"])
    _log(f"best row: {best['label']} (mean mae {best['mean_mae']:.6f}) "
         f"-> {out}")
    _write_manifest(out, "ablate", _args_config(args), inputs, seeds,
                    started)
    return 0


def _cmd_sweep(args) -> int:
    started = time.monotonic()
    src = _resolve(args.data)
    ds = _load_dataset_arg(src)
    train_ds, val_ds, test_ds, _ = _prepare_splits(
        ds, args.factor, _split_scheme(args.split))
    mcfg, tcfg = _model_and_train_config(args)
    counts = [int(c) for c in _parse_numbers(args.counts, cast=int)]
    curve = ev.neighbor_count_sweep(train_ds, val_ds, test_ds, counts,
                                    mcfg, tcfg)
    out = _resolve(args.out)
    ev.dump_report(curve, out)
    _log(f"neighbor sweep over {counts} -> {out}")
    _write_manifest(out, "sweep", _args_config(args), [src], tcfg.seed,
                    started)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stationcast",
        description="Station-network weather forecasting toolkit",
        epilog=f"Relative paths resolve against ${DATA_DIR_ENV} when set.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by the commands that train models: train, ablate, sweep
    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("--data", required=True)
    training.add_argument("--factor", default="t")
    training.add_argument("--split", default="3,1,2")
    training.add_argument("--config", default=None,
                          help="JSON with 'model' and 'train' sections")
    training.add_argument("--epochs", type=int, default=None)
    training.add_argument("--batch-size", dest="batch_size", type=int,
                          default=None)
    training.add_argument("--lr0", type=float, default=None)
    training.add_argument("--wprime", type=int, default=None,
                          help="input window length")
    training.add_argument("--w", type=int, default=None,
                          help="forecast horizon")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--n", type=int, default=20, help="station count")
    p.add_argument("--t", type=int, default=2000, help="time steps")
    p.add_argument("--d", type=int, default=3, help="factor count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-amp", type=float, default=0.5)
    p.add_argument("--ar-amp", type=float, default=2.0)
    p.add_argument("--diurnal-amp", type=float, default=5.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("preprocess", help="screen, mask, and fill a dataset")
    p.add_argument("--data", required=True,
                   help="packed dataset file or CSV directory")
    p.add_argument("--max-missing", type=float, default=0.01,
                   help="drop stations whose missing-record share exceeds "
                        "this")
    p.add_argument("--max-defaults", type=float, default=0.01,
                   help="drop stations whose default-code share exceeds "
                        "this for any factor")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("graphs", help="build static station graphs")
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="3,1,2",
                   help="train:val:test ratio; graphs use the train part")
    p.add_argument("--sigma", default="auto",
                   help="distance kernel bandwidth in km, or 'auto'")
    p.add_argument("--epsilon", type=float, default=0.1,
                   help="distance kernel sparsity threshold")
    p.add_argument("--n-adjacent", type=int, default=10,
                   help="neighbor graph degree")
    p.add_argument("--pattern-factors", default=None,
                   help="comma-separated factors for the pattern graph")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_graphs)

    p = sub.add_parser("train", parents=[training],
                       help="train the forecaster")
    p.add_argument("--graphs", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--patience", dest="early_stop_patience", type=int,
                   default=None)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--history", default=None,
                   help="write line-per-epoch training records here")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint, reference "
                                    "predictor, or prediction file")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", default=None)
    p.add_argument("--baseline", default=None,
                   help="persistence | linear | ridge | krr")
    p.add_argument("--pred", default=None, help="packed prediction file")
    p.add_argument("--graphs", default=None)
    p.add_argument("--factor", default=None)
    p.add_argument("--split", default=None,
                   help="train:val:test ratio (3,1,2, or a --ckpt's own)")
    p.add_argument("--eval-split", dest="eval_split", default="test",
                   choices=("train", "val", "test"))
    p.add_argument("--wprime", type=int, default=None)
    p.add_argument("--w", type=int, default=None)
    p.add_argument("--lam", type=float, default=0.0,
                   help="ridge/kernel regularization")
    p.add_argument("--gamma", type=float, default=None,
                   help="RBF kernel bandwidth")
    p.add_argument("--space", default="normalized",
                   choices=("normalized", "physical"))
    p.add_argument("--save-pred", dest="save_pred", default=None,
                   help="also write predictions as a packed file")
    p.add_argument("--out", required=True, help="metrics JSON path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", parents=[training],
                       help="train the graph-subset study grid")
    p.add_argument("--graphs", default=None,
                   help="reuse a built graph file instead of rebuilding")
    p.add_argument("--grid", default="full13",
                   help="full13 (alias table4) | singles")
    p.add_argument("--seeds", default="0",
                   help="comma-separated seeds per row")
    p.add_argument("--n-adjacent", type=int, default=10)
    p.add_argument("--patience", dest="early_stop_patience", type=int,
                   default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("sweep", parents=[training],
                       help="neighbor-degree sensitivity curve")
    p.add_argument("--counts", default="5,10,15,20,25",
                   help="comma-separated neighbor degrees")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except _USAGE_ERRORS as e:
        _log(f"error: {e}")
        return 1
    except StationcastError as e:
        _log(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
