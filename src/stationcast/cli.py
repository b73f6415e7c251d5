"""Command line entrypoint tying the toolkit together.

Subcommands cover the whole workflow: synth and preprocess produce packed
datasets, graphs builds the static station graphs, train fits the
forecaster, eval scores checkpoints, reference predictors, or packed
prediction files, ablate runs the graph-subset study, and sweep varies the
neighbor-graph degree.  Every command that succeeds writes a
``<output>.manifest.json`` recording the resolved configuration, input
hashes, seed, and wall time.  Exit codes: 0 success, 1 bad input or
configuration, 2 runtime failure.  Diagnostics go to stderr.

Relative paths resolve against $STATIONCAST_DATA_DIR when it is set.
"""

from __future__ import annotations

import argparse
import errno
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
                     StationcastError, StructuralError, check_distinct)

DATA_DIR_ENV = "STATIONCAST_DATA_DIR"
_N_ADJACENT = 10  # the neighbor-graph degree graphs and ablate default to

# a path error is bad input; any other OSError is a runtime failure
_USAGE_ERRORS = (ConfigError, SchemaError, StructuralError, ShapeError,
                 CheckpointError, FileNotFoundError, NotADirectoryError,
                 IsADirectoryError, PermissionError)

# the flags that name files; an input's noun names it when it is missing
_INPUTS = {"data": "dataset", "config": "config", "graphs": "graph file",
           "ckpt": "checkpoint", "pred": "prediction file"}
_OUTPUTS = ("out", "history", "save_pred")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _resolve(p) -> Path:
    path = Path(p)
    base = os.environ.get(DATA_DIR_ENV)
    if base and not path.is_absolute():
        return Path(base) / path
    return path


def _checked_paths(config: dict) -> dict:
    """Resolve the path flags the command reads.  Before any data loads,
    refuse a missing input, and an unwritable output as opening it would."""
    paths = {k: _resolve(v) for k, v in config.items()
             if v is not None and (k in _INPUTS or k in _OUTPUTS)}
    for k, path in paths.items():
        if k in _INPUTS and not path.exists():
            raise FileNotFoundError(f"{_INPUTS[k]} {path} does not exist")
        if k in _OUTPUTS and (path.is_dir() or not path.parent.is_dir()):
            code = (errno.EISDIR if path.is_dir() else errno.ENOTDIR
                    if path.parent.exists() else errno.ENOENT)
            raise OSError(code, os.strerror(code), str(path))
    return paths


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_path: Path, command: str, config: dict,
                    inputs, seed, started: float) -> None:
    ev.dump_report({
        "command": command,
        "config": config,
        "input_hashes": {str(p): _sha256(p) for p in inputs if p.is_file()},
        "seed": seed,
        "version": __version__,
        "wall_time_s": time.monotonic() - started,
    }, str(out_path) + ".manifest.json")


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
    ds = dt.load_dataset(path)
    if not (gaps_ok or ds.mask.all()):
        raise SchemaError(f"dataset {path} has {int((~ds.mask).sum())} "
                          "unobserved cells; fill them with `stationcast "
                          "preprocess` first")
    return ds


def _split_scheme(text: str):
    return tuple(_parse_numbers(text))


def _prepare_splits(ds, factor: str, scheme):
    """Slice one factor, cut train/val/test, z-score with train stats.

    Nothing of the result refers to ``ds``: a caller that drops its own
    reference frees the all-factor dataset.
    """
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
    if args.config:
        try:
            filecfg = json.loads(args.config.read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {args.config} is not valid JSON: {e}")
        if not (isinstance(filecfg, dict) and all(isinstance(
                filecfg.get(k, {}), dict) for k in ("model", "train"))):
            raise ConfigError(f"config {args.config} must be a JSON object "
                              "whose 'model' and 'train' are objects")
    mdict = dict(filecfg.get("model", {}))
    tdict = dict(filecfg.get("train", {}))
    model_flags = {"w_in": args.wprime, "w_out": args.w}
    train_flags = {k: getattr(args, k, None) for k in (
        "epochs", "batch_size", "lr0", "seed", "early_stop_patience")}
    mdict.update((k, v) for k, v in model_flags.items() if v is not None)
    tdict.update((k, v) for k, v in train_flags.items() if v is not None)
    try:
        mcfg = md.ModelConfig(**mdict)
        tcfg = md.TrainConfig(**tdict)
    except TypeError as e:
        raise ConfigError(f"bad config field: {e}") from None
    return mcfg, tcfg


# ---------------------------------------------------------------------------
# commands


def _cmd_synth(args) -> tuple:
    cfg = dt.SynthConfig(n=args.n, t=args.t, d=args.d, seed=args.seed,
                         noise_amp=args.noise_amp, ar_amp=args.ar_amp,
                         diurnal_amp=args.diurnal_amp)
    ds = dt.generate_synthetic(cfg)
    dt.save_dataset(ds, args.out)
    _log(f"wrote {ds.n_stations} stations x {ds.n_steps} steps x "
         f"{ds.n_factors} factors to {args.out}")
    return {}, args.seed


def _cmd_preprocess(args) -> tuple:
    ds = _load_dataset_arg(args.data, gaps_ok=True)
    n_loaded = ds.n_stations
    # default codes load as unobserved, so their rule runs first: the gap
    # rule would count them as gaps
    kept, default_report = dt.screen_defaults(ds, max_ratio=args.max_defaults)
    del ds  # screening copied the stations it keeps
    kept, missing_report = dt.screen_missing(kept, max_ratio=args.max_missing)
    filled = dt.interpolate_linear(kept)
    dt.save_dataset(filled, args.out)
    _log(f"screened {n_loaded} -> {filled.n_stations} stations "
         f"(missing rule dropped {len(missing_report['dropped'])}, "
         f"default codes dropped {len(default_report['dropped'])})")
    return ({"missing_report": missing_report,
             "default_report": default_report}, None)


def _cmd_graphs(args) -> tuple:
    train = dt.split_temporal(_load_dataset_arg(args.data),
                              _split_scheme(args.split))[0]
    factors = gr.PATTERN_FACTORS  # build_pattern_graph skips absent ones
    if args.pattern_factors is not None:
        factors = args.pattern_factors.split(",")
        check_distinct("pattern factor", factors)
        lacking = [f for f in factors if f not in train.factors]
        if lacking:
            raise ConfigError(f"--pattern-factors names {lacking}, which "
                              f"dataset {args.data} lacks (it has "
                              f"{train.factors})")
    try:
        sigma = "auto" if args.sigma == "auto" else float(args.sigma)
    except ValueError:
        raise ConfigError(f"--sigma takes a bandwidth in km or 'auto', "
                          f"got {args.sigma!r}") from None
    gs = gr.build_static_graphs(train, sigma=sigma, epsilon=args.epsilon,
                                n_adjacent=args.n_adjacent,
                                pattern_factors=factors)
    gr.save_graphs(gs, args.out)
    _log(f"built distance/neighbor/pattern graphs for {gs.n} stations "
         f"(sigma {gs.meta['sigma']:.3f} km, epsilon {args.epsilon}, "
         f"{args.n_adjacent} neighbors) -> {args.out}")
    return {}, None


def _training_setup(args) -> tuple:
    """Normalized splits, stats and the checked configs."""
    prepared = _prepare_splits(_load_dataset_arg(args.data), args.factor,
                               _split_scheme(args.split))
    return (*prepared, *_model_and_train_config(args))


def _cmd_train(args) -> tuple:
    train_ds, val_ds, _, stats, mcfg, tcfg = _training_setup(args)
    static = _static_from_graphset(gr.load_graphs(args.graphs), train_ds)
    model = md.build_model(train_ds.n_stations, mcfg, seed=tcfg.seed)

    def progress(epoch, train_loss, val_mae, lr):
        _log(f"epoch {epoch}: train mae {train_loss:.6f}  "
             f"val mae {val_mae:.6f}  lr {lr:.2e}")

    fitted, history = md.train(model, train_ds, val_ds, static, tcfg,
                               progress=progress)
    md.save_checkpoint(fitted, args.out, extra={
        "factor": args.factor,
        "norm_mean": float(stats.mean[0]),
        "norm_std": float(stats.std[0]),
        "split": list(_split_scheme(args.split)),
        "graphs_file": str(args.graphs),
    })
    if args.history:
        doc = history.to_dict()
        records = [*doc["epochs"], {k: doc[k] for k in ("best_epoch",
                                                         "stopped_early")}]
        text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        args.history.write_text(text, encoding="utf-8")
    best = history.best_epoch
    _log(f"best epoch {best}: val mae "
         f"{history.val_mae[best - 1]:.6f}; checkpoint -> {args.out}")
    return ({"model_config": mcfg.to_dict(), "train_config": asdict(tcfg)},
            tcfg.seed)


_BASELINE_NAMES = {"persistence": "persistence", "linear": "linear",
                   "ridge": "ridge", "krr": "kernel_ridge"}

# The mode-specific eval flags each mode reads; every mode reads --data,
# --split, --eval-split and --out.
_SCORED = {"factor", "space", "save_pred"}
_WINDOWED = {"baseline", "wprime", "w", *_SCORED}
_EVAL_READS = {
    "--ckpt": {"ckpt", "graphs", *_SCORED},
    "--pred": {"pred"},
    "--baseline persistence": _WINDOWED,
    "--baseline linear": _WINDOWED,
    "--baseline ridge": {"lam", *_WINDOWED},
    "--baseline krr": {"lam", "gamma", *_WINDOWED},
}
# parser defaults of the flags a mode may leave unread, where not None
_UNREAD_DEFAULTS = {"lam": 0.0, "space": "normalized",
                    "n_adjacent": _N_ADJACENT}


def _read_flags(args) -> dict:
    """The parsed flags the command reads, for its manifest.  What eval's
    mode or ablate --graphs (whose file fixed --n-adjacent) does not read
    is left out, and refused if set away from its default."""
    mode, unread = "", set()
    if args.command == "eval":
        mode = ("--ckpt" if args.ckpt else f"--baseline {args.baseline}"
                if args.baseline else "--pred" if args.pred else None)
        if mode is None:
            raise ConfigError("choose one of --ckpt, --baseline, --pred")
        if mode not in _EVAL_READS:
            raise ConfigError(f"unknown baseline {args.baseline!r} "
                              f"(have {sorted(_BASELINE_NAMES)})")
        unread = set().union(*_EVAL_READS.values()) - _EVAL_READS[mode]
    elif args.command == "ablate" and args.graphs:
        mode, unread = "--graphs", {"n_adjacent"}
    refused = [f"--{d.replace('_', '-')}" for d in sorted(unread)
               if getattr(args, d) != _UNREAD_DEFAULTS.get(d)]
    if refused:
        raise ConfigError(f"{args.command} {mode} does not read "
                          f"{', '.join(refused)}")
    return {k: v for k, v in vars(args).items()
            if k != "func" and k not in unread}


def _cmd_eval(args) -> tuple:
    ds = _load_dataset_arg(args.data)
    resolved = {}
    scheme = _split_scheme(args.split or "3,1,2")
    part = {"train": 0, "val": 1, "test": 2}[args.eval_split]

    if args.pred:
        loaded = ev.load_predictions(args.pred)
        factors, file_space = loaded[3:]
        if set(factors) <= set(ds.factors) and \
                list(factors) != list(ds.factors):
            ds = ds.select_factors(factors)
        splits = dt.split_temporal(ds, scheme)
        del ds
        scoped = splits[part]
        if file_space == "normalized":
            # normalized predictions compare against z-scored truth, using
            # training-split statistics as everywhere else
            stats = dt.compute_norm_stats(splits[0])
            scoped, _ = dt.normalize(scoped, stats)
        report = ev.score_external(loaded, scoped)
    else:
        if args.baseline:
            factor = args.factor or "t"
            w_in = 12 if args.wprime is None else args.wprime
            w_out = 12 if args.w is None else args.w
        else:
            model, extra = md.load_checkpoint(args.ckpt)
            for key in ("factor", "graphs_file"):
                stored = extra.get(key)
                if stored is not None and not isinstance(stored, str):
                    raise CheckpointError(f"{args.ckpt}: stored {key} "
                                          f"{stored!r} is not a string")
            factor = args.factor or extra.get("factor")
            if factor is None:
                raise ConfigError("checkpoint lacks a stored factor; pass "
                                  "--factor")
            stored = extra.get("split")  # the split train normalized with
            if args.split is None and stored is not None:
                # split_temporal rejects the non-finite parts
                if not (isinstance(stored, list) and len(stored) == 3 and all(
                        type(p) in (int, float) for p in stored)):
                    raise CheckpointError(f"{args.ckpt}: stored split "
                                          f"{stored!r} is not three numbers")
                scheme = tuple(stored)
            w_in, w_out = model.config.w_in, model.config.w_out
        *splits, stats = _prepare_splits(ds, factor, scheme)
        del ds
        scoped = splits[part]
        noun = ("training", "validation", "test")[part]
        dt.check_windows(w_in, w_out, **{noun: scoped})
        # what the run resolved, not the flags left unset
        resolved["factor"] = factor
        if args.baseline:
            resolved.update(wprime=w_in, w=w_out)
            preds, truth, starts = ev.evaluate_baseline(
                _BASELINE_NAMES[args.baseline], splits[0], scoped, w_in,
                w_out, lam=args.lam, gamma=args.gamma)
        else:
            stored = extra.get("graphs_file")  # resolved here, not in main
            if args.graphs is None and stored is None:
                raise ConfigError("pass --graphs (checkpoint stores no "
                                  "graph path)")
            graph_path = args.graphs or _resolve(stored)
            resolved["graphs"] = str(graph_path)  # main hashes it
            static = _static_from_graphset(gr.load_graphs(graph_path), scoped)
            if args.save_pred:
                preds, truth, starts = md.predict_dataset(model, scoped,
                                                          static)
            else:  # each chunk is scored as it is predicted
                sums = md.score_dataset(model, scoped, static)
        if args.baseline or args.save_pred:  # forecasts held whole
            sums = dt.ErrorSums(*preds.shape[1:])
            sums.add(preds, truth)
        # z-scored errors times the training std are the physical errors
        scale = stats.std if args.space == "physical" else None
        report = ev.metrics_from_sums(sums, scoped.factors, args.space,
                                      scale)
        if args.save_pred:
            ev.save_predictions(args.save_pred, preds, starts,
                                [s.station_id for s in scoped.stations],
                                scoped.factors, space="normalized")

    ev.dump_report(report.to_dict(), args.out)
    _log(f"overall mae {report.overall_mae:.6f}  "
         f"rmse {report.overall_rmse:.6f} ({report.space}) -> {args.out}")
    return {**resolved, "split": list(scheme)}, None


def _cmd_ablate(args) -> tuple:
    train_ds, val_ds, test_ds, _, mcfg, tcfg = _training_setup(args)
    subsets = ev.grid_specs(args.grid)
    seeds = _parse_numbers(args.seeds, cast=int)
    ev.check_seeds(seeds)
    # before the graph build, which is the costlier step at full scale
    dt.check_windows(mcfg.w_in, mcfg.w_out, training=train_ds,
                     validation=val_ds, test=test_ds)
    gs = (gr.load_graphs(args.graphs) if args.graphs else
          gr.build_static_graphs(train_ds, n_adjacent=args.n_adjacent,
                                 pattern_factors=train_ds.factors))
    static = _static_from_graphset(gs, train_ds)
    _log(f"running {len(subsets)} rows x {len(seeds)} seeds "
         f"({len(subsets) * len(seeds)} trainings)")
    report = ev.run_ablation(subsets, train_ds, val_ds, test_ds, static,
                             mcfg, tcfg, seeds)
    ev.dump_report(report, args.out)
    best = min(report["rows"], key=lambda r: r["mean_mae"])
    _log(f"best row: {best['label']} (mean mae {best['mean_mae']:.6f}) "
         f"-> {args.out}")
    return {}, seeds


def _cmd_sweep(args) -> tuple:
    *splits, _, mcfg, tcfg = _training_setup(args)
    counts = _parse_numbers(args.counts, cast=int)
    curve = ev.neighbor_count_sweep(*splits, counts, mcfg, tcfg)
    ev.dump_report(curve, args.out)
    _log(f"neighbor sweep over {counts} -> {args.out}")
    return {}, tcfg.seed


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
    training.add_argument("--batch-size", type=int, default=None)
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
    p.add_argument("--epsilon", type=float, default=gr.EPSILON,
                   help="distance kernel sparsity threshold")
    p.add_argument("--n-adjacent", type=int, default=_N_ADJACENT,
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
    p.add_argument("--lam", type=float, default=_UNREAD_DEFAULTS["lam"],
                   help="ridge/kernel regularization")
    p.add_argument("--gamma", type=float, default=None,
                   help="RBF kernel bandwidth")
    p.add_argument("--space", default=_UNREAD_DEFAULTS["space"],
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
    p.add_argument("--n-adjacent", type=int, default=_N_ADJACENT)
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
    """Run a command on its checked, resolved path flags.  Each ``_cmd_*``
    returns its manifest's additions to the flags it read (an input flag's
    addition names the file hashed instead), and the seed."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    started = time.monotonic()
    try:
        config = _read_flags(args)
        paths = _checked_paths(config)
        vars(args).update(paths)
        additions, seed = args.func(args)
        inputs = [Path(p) for k, p in {**paths, **additions}.items()
                  if k in _INPUTS]
        _write_manifest(args.out, args.command, {**config, **additions},
                        inputs, seed, started)
    except (*_USAGE_ERRORS, StationcastError, OSError) as e:
        _log(f"error: {e}")
        return 1 if isinstance(e, _USAGE_ERRORS) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
