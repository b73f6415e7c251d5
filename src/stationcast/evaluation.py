"""Forecast scoring, horizon curves, graph ablations, and sweeps.

Forecasts and truth are [B, N, W, D] blocks: windows by stations by horizon
steps by factors.  Scoring sums their errors per (horizon step, factor) one
block at a time (``data.ErrorSums``) and finalizes the sums into a report.
Reports are plain dicts with sorted keys so serialized copies diff cleanly.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import baselines as bl
from . import graphs as gr
from . import model as md
from .data import (ErrorSums, PackedReader, WeatherSeriesDataset, _pack_str,
                   check_windows, window_view, write_packed)
from .errors import (ConfigError, ShapeError, StructuralError, check_distinct,
                     check_ints)

_PRED_MAGIC = b"W2KP"
_PRED_VERSION = 1

# full-scale reference scores for the fusion study; desk-scale runs mirror
# the report format, not these numbers
REFERENCE_FULL_SCALE = {
    "five_graph": {"mae": 1.4418, "rmse": 2.0574},
    "single_learnable": {"mae": 1.5842, "rmse": 2.2753},
    "note": "published full-network temperature scores; format reference "
            "only, not a desk-scale target",
}


# ---------------------------------------------------------------------------
# metrics


@dataclass
class MetricsReport:
    """Per-factor and per-horizon error summary of one prediction set."""

    factors: list
    space: str
    counts: dict
    mae: np.ndarray            # [D]
    mse: np.ndarray            # [D]
    rmse: np.ndarray           # [D]
    mae_by_horizon: np.ndarray   # [W, D]
    rmse_by_horizon: np.ndarray  # [W, D]

    @property
    def overall_mae(self) -> float:
        return float(self.mae.mean())

    @property
    def overall_mse(self) -> float:
        return float(self.mse.mean())

    @property
    def overall_rmse(self) -> float:
        return float(np.sqrt(self.mse.mean()))

    def to_dict(self) -> dict:
        per_factor = {}
        for i, name in enumerate(self.factors):
            per_factor[name] = {
                "mae": float(self.mae[i]),
                "mse": float(self.mse[i]),
                "rmse": float(self.rmse[i]),
                "mae_by_horizon": [float(v) for v in
                                   self.mae_by_horizon[:, i]],
                "rmse_by_horizon": [float(v) for v in
                                    self.rmse_by_horizon[:, i]],
            }
        return {
            "space": self.space,
            "counts": dict(self.counts),
            "overall": {"mae": self.overall_mae, "mse": self.overall_mse,
                        "rmse": self.overall_rmse},
            "per_factor": per_factor,
        }


def metrics_from_sums(sums: ErrorSums,
                      factors: Optional[Sequence[str]] = None,
                      space: str = "normalized",
                      scale: Optional[np.ndarray] = None) -> MetricsReport:
    """Finalize error sums into MAE/MSE/RMSE per factor and per horizon
    step.

    Unnamed channels are channel1 .. channelD, a name no factor has.
    ``scale`` multiplies each factor's errors: the errors of z-scored values
    times the factor's std are the errors after denormalization, whose
    means cancel.
    """
    n, w, d = sums.shape
    if factors is None:
        factors = [f"channel{i + 1}" for i in range(d)]
    factors = list(factors)
    if len(factors) != d:
        raise ConfigError(f"{len(factors)} factor names for {d} channels")
    abs_mean, sq_mean = sums.means()
    if scale is not None:
        abs_mean = abs_mean * scale
        sq_mean = sq_mean * (scale * scale)
    mse = sq_mean.mean(axis=0)
    counts = {"windows": sums.windows, "stations": n, "horizon": w,
              "factors": d}
    return MetricsReport(
        factors=factors, space=space, counts=counts,
        mae=abs_mean.mean(axis=0), mse=mse, rmse=np.sqrt(mse),
        mae_by_horizon=abs_mean, rmse_by_horizon=np.sqrt(sq_mean))


def compute_metrics(pred: np.ndarray, truth: np.ndarray,
                    factors: Optional[Sequence[str]] = None,
                    space: str = "normalized",
                    scale: Optional[np.ndarray] = None) -> MetricsReport:
    """MAE/MSE/RMSE per factor plus per-horizon-step curves.

    pred and truth are [B, N, W, D]; shapes must match exactly.  ErrorSums
    sums the errors, so scoring holds one block above the two inputs.
    Physical-unit metrics of z-scored values pass the training std as
    ``scale`` (see metrics_from_sums).
    """
    pred = np.asarray(pred, dtype=np.float64)
    if pred.ndim != 4:
        raise ShapeError(f"expected [B, N, W, D] tensors, got rank "
                         f"{pred.ndim}")
    sums = ErrorSums(*pred.shape[1:])
    sums.add(pred, np.asarray(truth, dtype=np.float64))
    return metrics_from_sums(sums, factors, space, scale)


# ---------------------------------------------------------------------------
# packed prediction files


def save_predictions(path, preds: np.ndarray, target_starts: np.ndarray,
                     stations: Sequence[str], factors: Sequence[str],
                     space: str = "normalized") -> None:
    """Write forecasts with enough metadata to score them later.

    target_starts holds the epoch seconds of each window's first predicted
    step.  Output bytes are deterministic for identical inputs.
    """
    preds = np.asarray(preds, dtype=np.float64)
    if preds.ndim != 4:
        raise ShapeError(f"expected [B, N, W, D] predictions, got "
                         f"{preds.shape}")
    b, n, w, d = preds.shape
    if len(target_starts) != b or len(stations) != n or len(factors) != d:
        raise ShapeError("metadata lengths do not match prediction shape")
    out = [_PRED_MAGIC, struct.pack("<IIIII", _PRED_VERSION, b, n, w, d)]
    out.append(struct.pack("<B", 1 if space == "physical" else 0))
    for ts in np.asarray(target_starts, dtype=np.int64):
        out.append(struct.pack("<q", int(ts)))
    for table in (stations, factors):
        out.extend(_pack_str(str(name)) for name in table)
    out.append(preds)
    write_packed(path, out)


def load_predictions(path):
    """Read a packed prediction file: (preds, target_starts, stations,
    factors, space).

    A file with no forecasts, or with a non-finite one, cannot be scored and
    raises StructuralError.
    """
    with PackedReader(path, "prediction file", _PRED_MAGIC,
                      _PRED_VERSION) as cur:
        b, n, w, d = cur.unpack("IIII")
        (physical,) = cur.unpack("B")
        space = "physical" if physical else "normalized"
        target_starts = cur.array("<i8", (b,))
        tables = [[cur.string() for _ in range(count)] for count in (n, d)]
        preds = cur.array("<f8", (b, n, w, d))
        cur.end()
    if not preds.size:
        raise StructuralError(f"{path}: prediction file holds no forecasts "
                              f"(shape {preds.shape})")
    # min and max carry any NaN or infinity, with no mask the file's size
    if not np.isfinite([preds.min(), preds.max()]).all():
        raise StructuralError(f"{path}: prediction file has non-finite "
                              "forecasts")
    return preds, target_starts, tables[0], tables[1], space


def score_external(loaded: tuple, ds: WeatherSeriesDataset) -> MetricsReport:
    """Score a loaded prediction file against a dataset's own values.

    ``loaded`` is the tuple ``load_predictions`` returns.  Truth windows are
    located by each prediction's first target timestamp; station and factor
    tables must match the dataset exactly.  The report takes the file's
    space.
    """
    preds, target_starts, stations, factors, space = loaded
    ds_ids = [s.station_id for s in ds.stations]
    if stations != ds_ids:
        raise ShapeError(f"prediction stations {stations} do not match "
                         f"dataset stations {ds_ids}")
    if factors != list(ds.factors):
        raise ShapeError(f"prediction factors {factors} do not match "
                         f"dataset factors {list(ds.factors)}")
    b, n, w, d = preds.shape
    view, _ = window_view(ds, 0, w)
    # the first prediction whose window is off the time grid or outside the
    # dataset names the error; the remainder test keeps int64 from wrapping
    on_grid = target_starts % ds.time_step == ds.time_start % ds.time_step
    inside = (target_starts >= ds.time_start) & (
        target_starts < ds.time_start + len(view) * ds.time_step)
    if not (on_grid & inside).all():
        i = int(np.argmin(on_grid & inside))
        if not on_grid[i]:
            raise StructuralError(f"prediction {i} starts off the dataset's "
                                  "time grid")
        raise StructuralError(f"prediction {i} lies outside the dataset "
                              "timeline")
    idx = (target_starts - ds.time_start) // ds.time_step
    sums = ErrorSums(n, w, d)
    # the truth is gathered one of the accumulator's blocks at a time
    for at in range(0, b, sums.block):
        sums.add(preds[at:at + sums.block], view[idx[at:at + sums.block]])
    return metrics_from_sums(sums, ds.factors, space)


# ---------------------------------------------------------------------------
# baseline evaluation


def _series_windows(ds: WeatherSeriesDataset, w_in: int, w_out: int):
    """Views [B, N, w_in] and [B, N, w_out] of window_view's windows of a
    one-factor dataset over a time-major copy of the series: the one view
    besides window_view's, kept because the regression fit's summation
    order depends on it.  Time-major puts the stations on the unit stride,
    so numpy sums over windows one window at a time, as over a stack."""
    series = np.ascontiguousarray(ds.values[:, :, 0].T)  # [T, N]
    windows = sliding_window_view(series, w_in + w_out, axis=0)
    return windows[..., :w_in], windows[..., w_in:]


def evaluate_baseline(kind: str, train_ds: WeatherSeriesDataset,
                      test_ds: WeatherSeriesDataset, w_in: int, w_out: int,
                      lam: float = 0.0, gamma: Optional[float] = None):
    """Fit (if needed) and score one reference predictor.

    Returns (preds, truth, target_starts): [B, N, W, D] forecasts, their
    truth as a read-only view of the test series, and each window's first
    target time.  The regression kinds require a single-factor dataset.
    """
    check_windows(w_in, w_out, test=test_ds)
    # no stack of the inputs or targets
    windows, starts = window_view(test_ds, w_in, w_out)
    test_inputs, truth = windows[:, :, :w_in], windows[:, :, w_in:]
    if kind == "persistence":
        preds = bl.persistence_forecast(test_inputs, w_out)
    elif kind in bl.REGRESSION_KINDS:
        if train_ds.n_factors != 1:
            raise ConfigError("regression references are univariate; select "
                              "one factor first")
        check_windows(w_in, w_out, training=train_ds)
        inputs, targets = _series_windows(train_ds, w_in, w_out)
        model = bl.fit_regression(inputs, targets, kind, lam=lam,
                                  gamma=gamma)
        preds = bl.predict_regression(model,
                                      test_inputs[..., 0])[..., None]
    else:
        raise ConfigError(f"unknown reference predictor {kind!r}")
    return preds, truth, starts


# ---------------------------------------------------------------------------
# ablation grid


def _fit_and_score(train_ds: WeatherSeriesDataset,
                   val_ds: WeatherSeriesDataset,
                   test_ds: WeatherSeriesDataset, static_graphs: dict,
                   model_cfg: md.ModelConfig, train_cfg: md.TrainConfig):
    """Build a model from train_cfg's seed, train it, and score it on test;
    returns (metrics report, training history)."""
    model = md.build_model(train_ds.n_stations, model_cfg,
                           seed=train_cfg.seed)
    fitted, hist = md.train(model, train_ds, val_ds, static_graphs, train_cfg)
    sums = md.score_dataset(fitted, test_ds, static_graphs)
    return metrics_from_sums(sums, test_ds.factors), hist


def check_seeds(seeds: Sequence[int]) -> None:
    """An ablation needs at least one seed; each is an integer of at least
    0, and none repeats."""
    if not seeds:
        raise ConfigError("at least one seed is required")
    for seed in seeds:
        check_ints(0, seed=seed)
    check_distinct("seed", seeds)


FULL13_SUBSETS = (
    ("distance",),
    ("neighbor",),
    ("pattern",),
    ("learnable",),
    ("dynamic",),
    ("distance", "neighbor"),
    gr.STATIC_KINDS,
    ("neighbor", "pattern", "learnable", "dynamic"),
    ("distance", "pattern", "learnable", "dynamic"),
    ("distance", "neighbor", "learnable", "dynamic"),
    ("distance", "neighbor", "pattern", "dynamic"),
    ("distance", "neighbor", "pattern", "learnable"),
    gr.MODEL_KINDS,
)

GRIDS = {
    "full13": FULL13_SUBSETS,
    "table4": FULL13_SUBSETS,
    "singles": FULL13_SUBSETS[:5],
}


def grid_specs(grid: str) -> list:
    """The graph-kind subsets of a named ablation grid."""
    if grid not in GRIDS:
        raise ConfigError(f"unknown ablation grid {grid!r} "
                          f"(have {sorted(GRIDS)})")
    return list(GRIDS[grid])


def run_ablation(subsets: Sequence[Sequence[str]],
                 train_ds: WeatherSeriesDataset,
                 val_ds: WeatherSeriesDataset,
                 test_ds: WeatherSeriesDataset,
                 static_graphs: dict,
                 model_cfg: md.ModelConfig,
                 train_cfg: md.TrainConfig,
                 seeds: Sequence[int] = (0,)) -> dict:
    """Train one model per (graph subset, seed) with shared settings; score
    each on test.

    Every run differs only in which graphs enter the fusion and in the
    seed, so rows are comparable.  Every row's and seed's configuration is
    built, and every split checked, before the first training.  Returns a
    plain report dict.
    """
    check_seeds(seeds)
    check_windows(model_cfg.w_in, model_cfg.w_out, training=train_ds,
                  validation=val_ds, test=test_ds)
    row_cfgs = [replace(model_cfg, graph_kinds=kinds) for kinds in subsets]
    seed_cfgs = [replace(train_cfg, seed=seed) for seed in seeds]
    rows = []
    for cfg in row_cfgs:
        per_seed = []
        for tcfg in seed_cfgs:
            rep, hist = _fit_and_score(train_ds, val_ds, test_ds,
                                       static_graphs, cfg, tcfg)
            per_seed.append({"seed": tcfg.seed,
                             "mae": rep.overall_mae,
                             "rmse": rep.overall_rmse,
                             "best_epoch": hist.best_epoch})
        rows.append({
            "graphs": list(cfg.graph_kinds),
            "label": "+".join(cfg.graph_kinds),
            "per_seed": per_seed,
            "mean_mae": float(np.mean([r["mae"] for r in per_seed])),
            "mean_rmse": float(np.mean([r["rmse"] for r in per_seed])),
        })
    return {
        "rows": rows,
        "reference_full_scale": REFERENCE_FULL_SCALE,
        "train_config": asdict(train_cfg),
        "model_config": model_cfg.to_dict(),
    }


# ---------------------------------------------------------------------------
# neighbor-count sensitivity


def neighbor_count_sweep(train_ds: WeatherSeriesDataset,
                         val_ds: WeatherSeriesDataset,
                         test_ds: WeatherSeriesDataset,
                         counts: Sequence[int],
                         model_cfg: md.ModelConfig,
                         train_cfg: md.TrainConfig) -> dict:
    """Test error as a function of the nearest-neighbor graph's degree.

    The distances and build_static_graphs' distance and pattern graphs
    (over the training factors) are built once, and each count swaps in its
    own neighbor graph.  Runs are deterministic for fixed seeds; every count
    and split is checked before the first training.
    """
    check_distinct("neighbor count", counts)
    check_windows(model_cfg.w_in, model_cfg.w_out, training=train_ds,
                  validation=val_ds, test=test_ds)
    for na in counts:
        gr.check_neighbor_count(na, train_ds.n_stations)
    dist = gr.pairwise_distances_km([s.lat for s in train_ds.stations],
                                    [s.lon for s in train_ds.stations])
    distance = gr.build_distance_graph(dist, gr.auto_sigma(dist),
                                       gr.EPSILON).weights
    pattern = gr.build_pattern_graph(train_ds, train_ds.factors).weights
    reps = []
    for na in counts:  # one neighbor graph is kept at a time
        static = {"distance": distance,
                  "neighbor": gr.build_neighbor_graph(dist, na).weights,
                  "pattern": pattern}
        reps.append(_fit_and_score(train_ds, val_ds, test_ds, static,
                                   model_cfg, train_cfg)[0])
    return {"n_adjacent": [int(na) for na in counts],
            "test_mae": [rep.overall_mae for rep in reps],
            "test_rmse": [rep.overall_rmse for rep in reps]}


def dump_report(obj: dict, path) -> None:
    """Stable-key JSON with a trailing newline; byte-stable per content."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")
