"""One stationcast benchmark workload, measured in its own process.

run.py starts this file with BLAS and OpenMP pinned to one thread and
``src`` on PYTHONPATH:

    python3 perfbench/workload.py --workload train_n100 --seed 1 \\
        --seconds 25 --trace 0 --scale full --out RESULT.json

The workload seed makes every input (synthetic network, raw CSV gaps, the
scoring checkpoint); the package only ever sees those inputs.  Model and
training seeds are fixed at 0 and early stopping is off, so one seed always
does the same work.  Set-up runs several times and its median is reported;
then whole repetitions of the workload run until the next one would end
past ``--seconds`` (at least one).  With ``--trace 1`` the run makes two
untraced repetitions, then traces one set-up and one repetition with a
wrapper at every layer boundary (see tracer.py); the tracing overhead is the
traced repetition's wall time minus the second untraced one's.

Every operation counts in ``attempted``: optimisation steps, prediction
batches, CLI commands and correctness checks.  A non-zero exit or a failed
check counts in ``failed``.  The result, with every metric, its unit and its
sample count, goes to ``--out`` as JSON.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from stationcast import cli  # noqa: E402
from stationcast import data as dt  # noqa: E402
from stationcast import evaluation as ev  # noqa: E402
from stationcast import graphs as gr  # noqa: E402
from stationcast import model as md  # noqa: E402

import tracer as trc  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

SETUPS = 3
W_IN, W_OUT = 12, 12

# "full" is the benchmark; "toy" keeps every code path at smoke-test size
SIZES = {
    "train_n100": {"full": dict(n=100, t=1000, epochs=2, n_adjacent=10),
                   "toy": dict(n=8, t=240, epochs=1, n_adjacent=3)},
    # toy still pools the 100 steps a p90 needs
    "ablate_n20": {"full": dict(n=20, t=1000, epochs=2, n_adjacent=5),
                   "toy": dict(n=6, t=1300, epochs=1, n_adjacent=3)},
    # a short test split keeps the stuck-regime checkpoint scoring at one
    # batch while the long raw history keeps CSV ingest a visible share
    "desk_n300": {"full": dict(n=300, t=1000, split="4,15,1", heavy_gaps=4,
                               heavy_defaults=2, light=20),
                  "toy": dict(n=70, t=240, split="2,1,1", heavy_gaps=2,
                              heavy_defaults=1, light=4)},
}

# screening thresholds passed to `stationcast preprocess`, and the shares of
# records the set-up spoils so that known stations fail each rule
MAX_MISSING, MAX_DEFAULTS = 0.05, 0.01
HEAVY_GAP_SHARE, HEAVY_DEFAULT_SHARE, LIGHT_SHARE = 0.08, 0.03, 0.005


class Checks:
    """Named pass/fail correctness checks; each one is an operation."""

    def __init__(self):
        self.items = []
        self.known_defects = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})

    def known_defect(self, name: str, reproduced: bool, detail: str) -> None:
        """A defect of the package, tracked outside the pass/fail count.

        It is probed and reported on every run; once a fix makes it stop
        reproducing, the report says so and the entry can go.
        """
        self.known_defects.append({"name": name,
                                   "reproduced": bool(reproduced),
                                   "detail": detail})

    @property
    def failed(self) -> int:
        return sum(not c["ok"] for c in self.items)


# ---------------------------------------------------------------------------
# training workloads: train_n100 and ablate_n20


@dataclass
class TrainingFixture:
    train: dt.WeatherSeriesDataset
    val: dt.WeatherSeriesDataset
    test: dt.WeatherSeriesDataset
    static: dict
    persistence_mae: float


def setup_training(size: dict, seed: int, work: Path) -> TrainingFixture:
    ds = dt.generate_synthetic(dt.SynthConfig(n=size["n"], t=size["t"], d=1,
                                              seed=seed))
    train, val, test = dt.split_temporal(ds, (3, 1, 2))
    stats = dt.compute_norm_stats(train)
    train, _ = dt.normalize(train, stats)
    val, _ = dt.normalize(val, stats)
    test, _ = dt.normalize(test, stats)
    gs = gr.build_static_graphs(train, n_adjacent=size["n_adjacent"],
                                pattern_factors=["t"])
    static = {k: gs[k].weights for k in md.STATIC_KINDS}
    preds, truth, _ = ev.evaluate_baseline("persistence", train, test,
                                           W_IN, W_OUT)
    return TrainingFixture(train, val, test, static,
                           float(np.abs(preds - truth).mean()))


def _train_config(size: dict) -> md.TrainConfig:
    # patience beyond the epoch count turns early stopping off
    return md.TrainConfig(epochs=size["epochs"],
                          early_stop_patience=size["epochs"] + 1, seed=0)


def rep_train(fx: TrainingFixture, size: dict, work: Path) -> dict:
    model = md.build_model(fx.train.n_stations, md.ModelConfig(), seed=0)
    fitted, _ = md.train(model, fx.train, fx.val, fx.static,
                         _train_config(size))
    preds, truth, _ = md.predict_dataset(fitted, fx.test, fx.static)
    mae = ev.compute_metrics(preds, truth).overall_mae
    return {"test_mae": mae, "maes": {"five_graph": mae}}


def rep_ablate(fx: TrainingFixture, size: dict, work: Path) -> dict:
    report = ev.run_ablation(ev.grid_specs("singles"), fx.train, fx.val,
                             fx.test, fx.static, md.ModelConfig(),
                             _train_config(size))
    maes = {row["label"]: row["mean_mae"] for row in report["rows"]}
    return {"test_mae": float(np.mean(list(maes.values()))), "maes": maes}


def check_training(fx: TrainingFixture, out: dict, histories: list,
                   checks: Checks) -> None:
    values = [v for h in histories for v in h.train_loss + h.val_mae]
    checks.add("finite_losses", bool(values) and np.isfinite(values).all(),
               f"{len(values)} epoch losses")
    rows = ", ".join(f"{k} {v:.6f}" for k, v in out["maes"].items())
    checks.add("beats_persistence", out["test_mae"] < fx.persistence_mae,
               f"test mae {out['test_mae']:.6f} ({rows}), persistence "
               f"{fx.persistence_mae:.6f}")


# ---------------------------------------------------------------------------
# desk_n300: raw CSV in, CLI chain, scores out


@dataclass
class DeskFixture:
    raw: Path
    ckpt: Path
    dropped_missing: list
    dropped_defaults: list


def _spoil(rng, t: int, share: float) -> np.ndarray:
    return rng.choice(t, size=max(1, round(share * t)), replace=False)


def setup_desk(size: dict, seed: int, work: Path) -> DeskFixture:
    """Raw per-station CSV with seeded gaps, plus an untrained checkpoint.

    Stations spoiled past a screening threshold are the ones preprocess
    must drop; lightly spoiled ones must survive and be interpolated.
    """
    n, t = size["n"], size["t"]
    ds = dt.generate_synthetic(dt.SynthConfig(n=n, t=t, d=3, seed=seed))
    rng = np.random.default_rng([seed, 1])
    values = ds.values.copy()
    observed = np.ones(values.shape, dtype=bool)
    order = rng.permutation(n)
    hg, hd, light = size["heavy_gaps"], size["heavy_defaults"], size["light"]
    heavy_gap = sorted(order[:hg])
    heavy_default = sorted(order[hg:hg + hd])
    light_gap = order[hg + hd:hg + hd + light // 2]
    light_default = order[hg + hd + light // 2:hg + hd + light]
    for i, share in [(i, HEAVY_GAP_SHARE) for i in heavy_gap] + \
            [(i, LIGHT_SHARE) for i in light_gap]:
        steps = _spoil(rng, t, share)
        observed[i, steps, rng.integers(0, ds.n_factors, len(steps))] = False
    hv2 = ds.factors.index("hv2")
    for i, share in [(i, HEAVY_DEFAULT_SHARE) for i in heavy_default] + \
            [(i, LIGHT_SHARE) for i in light_default]:
        values[i, _spoil(rng, t, share), hv2] = dt.DEFAULT_CODES["hv2"]
    raw = work / "raw"
    _write_csv_dir(raw, ds, values, observed)
    ckpt = work / "model.ckpt"
    _write_checkpoint(ckpt, n - hg - hd, seed)
    ids = [s.station_id for s in ds.stations]
    return DeskFixture(raw, ckpt, [ids[i] for i in heavy_gap],
                       [ids[i] for i in heavy_default])


def _write_csv_dir(root: Path, ds, values: np.ndarray,
                   observed: np.ndarray) -> None:
    root.mkdir(parents=True, exist_ok=True)
    lines = ["station_id,lat,lon,alt,time_start"]
    lines += [f"{s.station_id},{s.lat!r},{s.lon!r},{s.alt!r},{ds.time_start}"
              for s in ds.stations]
    (root / "stations.csv").write_text("\n".join(lines) + "\n")
    header = ",".join(ds.factors)
    for i, s in enumerate(ds.stations):
        rows = [",".join(repr(v) if o else "" for v, o in zip(vals, obs))
                for vals, obs in zip(values[i].tolist(), observed[i].tolist())]
        (root / f"{s.station_id}.csv").write_text(
            header + "\n" + "\n".join(rows) + "\n")


def _write_checkpoint(path: Path, n: int, seed: int) -> None:
    """Seeded default-model parameters in the W2KC layout.

    Parameter values come from the benchmark's own generator, not from
    build_model, so every version of the package scores the same numbers.
    Fusion weights start equal, as a fresh model's do.
    """
    cfg = md.ModelConfig()
    shapes = {k: v.shape for k, v in md.build_model(n, cfg).params.items()}
    rng = np.random.default_rng([seed, 2])
    names = sorted(shapes)
    blobs = []
    for name in names:
        shape = shapes[name]
        if name.startswith("fusion_"):
            value = np.full(shape, 1.0 / len(cfg.graph_kinds))
        elif len(shape) == 1:
            value = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(np.prod(shape[:-1]))
            value = rng.uniform(-bound, bound, shape)
        blobs.append(np.ascontiguousarray(value, dtype="<f8").tobytes())
    header = {"model_config": cfg.to_dict(), "n": n, "seed": seed,
              "params": [{"name": k, "shape": list(shapes[k])} for k in names],
              "extra": {"factor": "t"}}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(b"W2KC" + struct.pack("<II", 1, len(blob)) + blob
                     + b"".join(blobs))


PRED_SOURCES = ("ridge", "krr", "ckpt")


def desk_commands(fx: DeskFixture, size: dict, out: Path) -> list:
    data, graphs, split = out / "clean.w2kt", out / "graphs.bin", size["split"]
    common = ["--data", data, "--split", split]
    cmds = [
        ("preprocess", ["preprocess", "--data", fx.raw, "--max-missing",
                        MAX_MISSING, "--max-defaults", MAX_DEFAULTS,
                        "--out", data]),
        ("graphs", ["graphs", *common, "--out", graphs]),
    ]
    for kind in ("ridge", "krr"):
        cmds.append((kind, ["eval", "--baseline", kind, "--lam", 1.0,
                            "--factor", "t", *common, "--save-pred",
                            out / f"{kind}.pred", "--out",
                            out / f"{kind}.json"]))
    cmds.append(("ckpt", ["eval", "--ckpt", fx.ckpt, "--graphs", graphs,
                          *common, "--save-pred", out / "ckpt.pred",
                          "--out", out / "ckpt.json"]))
    for src in PRED_SOURCES:
        cmds.append((f"pred.{src}", ["eval", "--pred", out / f"{src}.pred",
                                     *common, "--out",
                                     out / f"{src}.pred.json"]))
    return [(name, [str(a) for a in argv]) for name, argv in cmds]


def rep_desk(fx: DeskFixture, size: dict, work: Path) -> dict:
    out = work / "chain"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    codes = {}
    t0 = time.perf_counter()
    for name, argv in desk_commands(fx, size, out):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            codes[name] = (cli.main(argv), err.getvalue().strip())
    chain_s = time.perf_counter() - t0
    reports = {}
    for name in [*PRED_SOURCES, *(f"{s}.pred" for s in PRED_SOURCES)]:
        path = out / f"{name}.json"
        reports[name] = json.loads(path.read_text()) if path.exists() else None
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        if not name.endswith(".manifest.json"):  # manifests hold wall time
            digest.update(name.encode() + (out / name).read_bytes())
    ckpt = reports["ckpt"]
    return {"chain_s": chain_s, "codes": codes, "reports": reports,
            "test_mae": ckpt["overall"]["mae"] if ckpt else float("nan"),
            "digest": digest.hexdigest(), "out": out,
            "argv": dict(desk_commands(fx, size, out))}


def _report_gap(a: dict, b: dict) -> float:
    """Largest absolute difference between two metric reports."""
    def flat(r):
        vals = [r["overall"][k] for k in ("mae", "mse", "rmse")]
        for f in sorted(r["per_factor"]):
            pf = r["per_factor"][f]
            vals += pf["mae_by_horizon"] + pf["rmse_by_horizon"]
        return np.array(vals)
    fa, fb = flat(a), flat(b)
    return float(np.abs(fa - fb).max()) if fa.shape == fb.shape else np.inf


def check_desk(fx: DeskFixture, out: dict, histories: list,
               checks: Checks) -> None:
    manifest = out["out"] / "clean.w2kt.manifest.json"
    if manifest.exists():
        cfg = json.loads(manifest.read_text())["config"]
        got = (cfg["missing_report"]["dropped"],
               cfg["default_report"]["dropped"])
    else:
        got = None
    want = (fx.dropped_missing, fx.dropped_defaults)
    checks.add("screening_drops_known_stations", got == want,
               f"dropped {got}, expected {want}")
    graphs = out["out"] / "graphs.bin"
    checks.add("graphs_binary_format",
               graphs.exists() and graphs.read_bytes()[:4] == b"W2KG",
               "n > 64 stations must use the W2KG layout")
    reps = out["reports"]
    checks.add("finite_scores",
               all(r is not None and np.isfinite(r["overall"]["mae"])
                   for r in reps.values()), "every eval report")
    for src in ("ridge", "krr"):
        a, b = reps[src], reps[f"{src}.pred"]
        gap = _report_gap(a, b) if a and b else np.inf
        checks.add(f"roundtrip.{src}", gap <= 1e-12,
                   f"{_mae_pair(a, b)}; max gap {gap:.3g}")
    check_ckpt_roundtrip(out, checks)


def _mae_pair(src: dict, pred: dict) -> str:
    if not (src and pred):
        return "missing"
    return (f"eval --pred mae {pred['overall']['mae']:.6f} vs source "
            f"{src['overall']['mae']:.6f}")


def _pred_labels(raw: bytes) -> tuple:
    """(offset, bytes) of a prediction file's first-target-time labels."""
    b = struct.unpack_from("<IIIII", raw, 4)[1]
    return 25, raw[25:25 + 8 * b]  # magic, five u32, space byte


def check_ckpt_roundtrip(out: dict, checks: Checks) -> None:
    """Checkpoint predictions survive --save-pred / --pred, labels aside.

    cli._cmd_eval labels checkpoint forecasts with predict_dataset's window
    origins (the first input step); the baseline branch, like the file
    format, uses the first target step.  That mislabelling is a known
    defect of the package, probed here on every run.  The counted check
    relabels the file with the ridge file's times (same split, same
    windows) and requires `eval --pred` to reproduce `eval --ckpt` to 1e-12,
    so any other damage to the saved forecasts still fails.
    """
    chain = out["out"]
    reps = out["reports"]
    src, pred = reps["ckpt"], reps["ckpt.pred"]
    path, ref = chain / "ckpt.pred", chain / "ridge.pred"
    if not (src and pred and path.exists() and ref.exists()):
        checks.add("roundtrip.ckpt", False, "missing")
        return
    raw = bytearray(path.read_bytes())
    at, labels = _pred_labels(raw)
    want = _pred_labels(ref.read_bytes())[1]
    gap = _report_gap(src, pred)
    checks.known_defect(
        "ckpt_pred_time_labels", labels != want or gap > 1e-12,
        "cli._cmd_eval saves window origins as first target times, so "
        f"eval --pred scores against the wrong hours: {_mae_pair(src, pred)}")
    if len(labels) != len(want):
        checks.add("roundtrip.ckpt", False,
                   f"{len(labels) // 8} forecasts vs {len(want) // 8} "
                   "ridge forecasts")
        return
    raw[at:at + len(want)] = want
    fixed = chain / "ckpt.relabelled.pred"
    fixed.write_bytes(bytes(raw))
    argv = list(out["argv"]["pred.ckpt"])
    argv[argv.index("--pred") + 1] = str(fixed)
    argv[argv.index("--out") + 1] = str(chain / "ckpt.relabelled.json")
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    rescored = (json.loads((chain / "ckpt.relabelled.json").read_text())
                if code == 0 else None)
    gap = _report_gap(src, rescored) if rescored else np.inf
    checks.add("roundtrip.ckpt", gap <= 1e-12,
               f"relabelled {_mae_pair(src, rescored)}; max gap {gap:.3g}")


WORKLOADS = {
    "train_n100": (setup_training, rep_train, check_training),
    "ablate_n20": (setup_training, rep_ablate, check_training),
    "desk_n300": (setup_desk, rep_desk, check_desk),
}


# ---------------------------------------------------------------------------
# measuring


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def rep_metrics(tr: trc.Tracer, outs: list, walls: list) -> dict:
    """Whole-run metrics from the probe spans of the given repetitions."""
    m = {}

    def put(name, value, unit, n):
        m[name] = {"value": float(value), "unit": unit, "n": n}

    put("workload_s", _median(walls), "s", len(walls))
    preds = tr.spans("model.predict_dataset") + tr.spans("model.val_predict")
    windows = sum(tr.extra[i] for i in preds)
    busy = sum(tr.ends[i] - tr.starts[i] for i in preds)
    put("predict_windows_per_s", windows / busy if busy else 0.0,
        "windows/s", len(preds))
    put("test_mae", outs[-1]["test_mae"], "z-score", len(outs))
    if "chain_s" in outs[0]:
        put("cli_chain_s", _median([o["chain_s"] for o in outs]), "s",
            len(outs))
        return m
    per_rep = [sum(tr.ends[i] - tr.starts[i]
                   for i in tr.spans("model.train", f"rep{k:03d}."))
               for k in range(len(outs))]
    put("train_s", _median(per_rep), "s", len(per_rep))
    steps = trc.step_times(tr)
    put("train_step_s.p50", _median(steps), "s", len(steps))
    if len(steps) >= 100:
        put("train_step_s.p90", float(np.percentile(steps, 90)), "s",
            len(steps))
    return m


def run_reps(rep_fn, check_fn, fx, size, work, seconds, count_max, tr,
             checks):
    """Repeat the workload; returns (outputs, wall times).

    Repetition k records its spans under run id "rep{k:03d}.".  The first
    repetition's outputs are checked; later ones must reproduce them.
    """
    outs, walls = [], []
    start = time.perf_counter()
    while True:
        tr.run_id = f"rep{len(outs):03d}."
        hist_at = len(tr.histories)
        t0 = time.perf_counter()
        out = rep_fn(fx, size, work)
        walls.append(time.perf_counter() - t0)
        if not outs:
            check_fn(fx, out, tr.histories[hist_at:], checks)
        outs.append(out)
        record_codes(out, checks)
        done = time.perf_counter() - start
        if len(outs) >= count_max or done + walls[-1] > seconds:
            return outs, walls


def record_codes(out: dict, checks: Checks) -> None:
    """Each CLI command is an operation; a non-zero exit fails it."""
    for name, (code, msg) in out.get("codes", {}).items():
        checks.add(f"exit.{name}", code == 0,
                   f"exit {code}" + (f": {msg}" if code else ""))


def operations(tr: trc.Tracer) -> int:
    """Optimisation steps plus prediction batches seen by a tracer."""
    return len(tr.spans("tape.adam_step")) + \
        int(tr.counts["model.predict_batches"])


def layer_metrics(tr: trc.Tracer) -> dict:
    """Per-layer metrics of one traced set-up plus one traced repetition."""
    tot = tr.totals()
    m = {}

    def inc(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def self_time(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    for op in trc.TAPE_OPS:
        put(f"tape.{op}.fwd_s", inc(f"tape.{op}.fwd"), "s")
        put(f"tape.{op}.bwd_s", inc(f"tape.{op}.bwd"), "s")
    put("tape.backward_s", inc("tape.backward"), "s")
    put("tape.backward.self_s", self_time("tape.backward"), "s")
    put("tape.adam_step_s", inc("tape.adam_step"), "s")
    put("tape.nodes_per_step", np.mean(tr.nodes_per_tape)
        if tr.nodes_per_tape else 0.0, "count")
    for op in ("matmul", "conv1d"):
        put(f"tape.{op}.flops", tr.counts[f"tape.{op}.flops"], "flop")
    mats = sum(s[3] for s in tr.spectral)
    falls = sum(s[4] for s in tr.spectral)
    lap = "tape.scaled_laplacian_op"
    put(f"{lap}.matrices", mats, "count")
    put(f"{lap}.fallback_ratio", falls / mats if mats else 0.0, "ratio")
    put(f"{lap}.lambda_rel_err_max", tr.lambda_rel_err_max, "ratio")
    # pooled over every training in the repetition (five on ablate_n20)
    for e in sorted({s[1] for s in tr.spectral if s[1]}):
        rows = [s for s in tr.spectral if s[1] == e]
        put(f"{lap}.fallback_ratio.epoch{e}",
            sum(s[4] for s in rows) / sum(s[3] for s in rows), "ratio")
    for f in ("fuse_graphs_op", "learnable_graph_op", "dynamic_graph_op",
              "symmetrize_op", "build_static_graphs", "save_graphs",
              "load_graphs"):
        put(f"graphs.{f}_s", inc(f"graphs.{f}"), "s")
    for f in ("forward", "graph_stage", "block0.cheb", "block0.temporal",
              "block1.cheb", "block1.temporal", "loss", "val_predict",
              "predict_dataset", "save_checkpoint", "load_checkpoint"):
        put(f"model.{f}_s", inc(f"model.{f}"), "s")
    put("data.windows", tr.counts["data.windows"], "count")
    for f in ("make_windows", "generate_synthetic", "load_csv",
              "load_packed", "save_dataset", "screen_missing",
              "screen_defaults", "interpolate_linear", "normalize"):
        put(f"data.{f}_s", inc(f"data.{f}"), "s")
    for f in ("persistence.predict", "ridge.fit", "ridge.predict",
              "kernel_ridge.fit", "kernel_ridge.predict"):
        put(f"baselines.{f}_s", inc(f"baselines.{f}"), "s")
    for f in ("compute_metrics", "save_predictions", "load_predictions",
              "score_external", "evaluate_baseline"):
        put(f"evaluation.{f}_s", inc(f"evaluation.{f}"), "s")
    commands = ("preprocess", "graphs", "eval_baseline", "eval_ckpt",
                "eval_pred")
    for c in commands:
        put(f"cli.{c}_s", inc(f"cli.{c}"), "s")
    put("cli.manifest_s", inc("cli.manifest"), "s")
    put("cli.self_s", sum(self_time(f"cli.{c}") for c in commands), "s")
    # set-up is mostly the benchmark's own fixture code, so only the
    # repetition counts here
    put("trace.unattributed_share",
        self_time("bench.rep") / inc("bench.rep"), "ratio")
    put("trace.hooks_s", inc("trace.hooks"), "s")
    put("trace.spans", len(tr.names), "count")
    return m


def fallback_by_step(tr: trc.Tracer) -> list:
    """[step, matrices, fallbacks] for each step of the first training."""
    return [[step, mats, falls] for training, _, step, mats, falls
            in tr.spectral if training == 1 and step]


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(), "cpu": cpu,
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


def traced_rep(setup_fn, rep_fn, size, seed, work, mods, checks):
    """One set-up and one repetition with every layer wrapped."""
    tr = trc.Tracer(mods, traced=True)
    tr.install()
    try:
        tr.run_id = "setup"
        root = tr.open("bench.setup")
        fx = setup_fn(size, seed, work)
        tr.close(root)
        tr.run_id = "rep"
        root = tr.open("bench.rep")
        out = rep_fn(fx, size, work)
        tr.close(root)
    finally:
        tr.uninstall()
    record_codes(out, checks)
    checks.add("laplacian_spectrum_in_unit_interval", tr.spectrum_bad == 0,
               f"{tr.spectrum_bad} of {sum(s[3] for s in tr.spectral)} "
               "matrices outside [-1, 1] or off 2L/lambda - I")
    return tr, out


def measure(args, work: Path) -> dict:
    setup_fn, rep_fn, check_fn = WORKLOADS[args.workload]
    size = SIZES[args.workload][args.scale]
    checks = Checks()
    mods = trc.modules()
    setup_times = []
    for _ in range(1 if args.trace else SETUPS):
        t0 = time.perf_counter()
        fx = setup_fn(size, args.seed, work)
        setup_times.append(time.perf_counter() - t0)

    probe = trc.Tracer(mods, traced=False)
    probe.install()
    try:
        # a traced run's baseline is its second, warm repetition
        seconds, count = (math.inf, 2) if args.trace else (args.seconds,
                                                           math.inf)
        outs, walls = run_reps(rep_fn, check_fn, fx, size, work, seconds,
                               count, probe, checks)
    finally:
        probe.uninstall()
    metrics = rep_metrics(probe, outs, walls)
    metrics["setup_s"] = {"value": IMPORT_S + _median(setup_times),
                          "unit": "s", "n": len(setup_times)}
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": "MB", "n": 1}
    attempted = operations(probe)
    extra = {}
    if args.trace:
        tr, out = traced_rep(setup_fn, rep_fn, size, args.seed, work, mods,
                             checks)
        outs.append(out)
        attempted += operations(tr)
        metrics.update(layer_metrics(tr))
        overhead = tr.totals("rep")["bench.rep"][1] - walls[-1]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_share"] = {"value": overhead / walls[-1],
                                           "unit": "ratio"}
        extra["fallback_by_step"] = fallback_by_step(tr)
        extra["spans_file"] = str(args.out).replace(".json", ".spans.csv.gz")
        tr.write(extra["spans_file"])
    if len(outs) > 1:
        maes = [o["test_mae"] for o in outs]
        checks.add("deterministic_repetitions",
                   len({o.get("digest", o["test_mae"]) for o in outs}) == 1,
                   f"{len(outs)} repetitions, test mae {maes}")
    attempted += len(checks.items)
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "scale": args.scale, "environment": environment(),
            "correct": checks.failed == 0, "attempted": attempted,
            "failed": checks.failed, "checks": checks.items,
            "known_defects": checks.known_defects,
            "metrics": metrics, **extra}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "toy"), default="full")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    work = args.out.parent / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
