"""Forecast scoring, horizon curves, graph ablations, and sweeps.

All scoring operates on stacked prediction/truth tensors [B, N, W, D]:
windows by stations by horizon steps by factors.  Reports are plain dicts
with sorted keys so serialized copies diff cleanly.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import baselines as bl
from . import graphs as gr
from . import model as md
from .data import (NormStats, PackedReader, WeatherSeriesDataset,
                   _pack_str, denormalize_values, make_windows)
from .errors import ConfigError, ShapeError, StructuralError, check_ints

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


def compute_metrics(pred: np.ndarray, truth: np.ndarray,
                    factors: Optional[Sequence[str]] = None,
                    space: str = "normalized") -> MetricsReport:
    """MAE/MSE/RMSE per factor plus per-horizon-step curves.

    pred and truth are [B, N, W, D]; shapes must match exactly.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeError(f"prediction shape {pred.shape} does not match "
                         f"truth shape {truth.shape}")
    if pred.ndim != 4:
        raise ShapeError(f"expected [B, N, W, D] tensors, got rank "
                         f"{pred.ndim}")
    b, n, w, d = pred.shape
    if factors is None:
        factors = [f"p{i + 1}" for i in range(d)]
    factors = list(factors)
    if len(factors) != d:
        raise ConfigError(f"{len(factors)} factor names for {d} channels")
    err = pred - truth
    abs_err = np.abs(err)
    sq_err = err * err
    mae = abs_err.mean(axis=(0, 1, 2))
    mse = sq_err.mean(axis=(0, 1, 2))
    counts = {"windows": b, "stations": n, "horizon": w, "factors": d}
    return MetricsReport(
        factors=factors, space=space, counts=counts,
        mae=mae, mse=mse, rmse=np.sqrt(mse),
        mae_by_horizon=abs_err.mean(axis=(0, 1)),
        rmse_by_horizon=np.sqrt(sq_err.mean(axis=(0, 1))))


def physical_metrics(pred: np.ndarray, truth: np.ndarray,
                     stats: NormStats) -> MetricsReport:
    """Metrics after undoing z-scoring, reported in physical units."""
    return compute_metrics(denormalize_values(pred, stats),
                           denormalize_values(truth, stats),
                           factors=stats.factors, space="physical")


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
    out.append(np.ascontiguousarray(preds, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(out))


def load_predictions(path):
    """Read a packed prediction file: (preds, target_starts, stations,
    factors, space)."""
    cur = PackedReader(path, "prediction file", _PRED_MAGIC, _PRED_VERSION)
    b, n, w, d = cur.unpack("IIII")
    (physical,) = cur.unpack("B")
    space = "physical" if physical else "normalized"
    target_starts = cur.array("<i8", (b,))
    tables = [[cur.string() for _ in range(count)] for count in (n, d)]
    preds = cur.array("<f8", (b, n, w, d))
    cur.end()
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
    truth = np.empty_like(preds)
    for i, ts in enumerate(target_starts):
        off = int(ts) - ds.time_start
        if off % ds.time_step:
            raise StructuralError(f"prediction {i} starts off the dataset's "
                                  f"time grid")
        idx = off // ds.time_step
        if idx < 0 or idx + w > ds.n_steps:
            raise StructuralError(f"prediction {i} lies outside the dataset "
                                  f"timeline")
        truth[i] = ds.values[:, idx:idx + w, :]
    return compute_metrics(preds, truth, factors=list(ds.factors),
                           space=space)


# ---------------------------------------------------------------------------
# baseline evaluation


def evaluate_baseline(kind: str, train_ds: WeatherSeriesDataset,
                      test_ds: WeatherSeriesDataset, w_in: int, w_out: int,
                      lam: float = 0.0, gamma: Optional[float] = None):
    """Fit (if needed) and score one reference predictor.

    Returns (preds, truth, target_starts) as [B, N, W, D] tensors; the
    regression kinds require a single-factor dataset.
    """
    test = next(make_windows(test_ds, w_in, w_out), None)
    if test is None:
        raise ConfigError("test split is too short to cut a single window")
    if kind == "persistence":
        preds = bl.persistence_forecast(test.inputs, w_out)
    elif kind in bl.REGRESSION_KINDS:
        if train_ds.n_factors != 1:
            raise ConfigError("regression references are univariate; select "
                              "one factor first")
        fit = next(make_windows(train_ds, w_in, w_out), None)
        if fit is None:
            raise ConfigError("training split is too short to cut a single "
                              "window")
        model = bl.fit_regression(fit.inputs[..., 0], fit.targets[..., 0],
                                  kind, lam=lam, gamma=gamma)
        preds = bl.predict_regression(model, test.inputs[..., 0])[..., None]
    else:
        raise ConfigError(f"unknown reference predictor {kind!r}")
    starts = test.origins + w_in * test_ds.time_step
    return preds, test.targets, starts


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
    preds, truth, _ = md.predict_dataset(fitted, test_ds, static_graphs,
                                         batch_size=train_cfg.batch_size)
    return compute_metrics(preds, truth, factors=test_ds.factors), hist


@dataclass
class AblationSpec:
    """One fusion-study row: which graphs stay in, trained over seeds."""

    graph_kinds: tuple
    seeds: tuple = (0,)

    def __post_init__(self):
        self.graph_kinds = tuple(self.graph_kinds)
        self.seeds = tuple(self.seeds)
        if not self.graph_kinds:
            raise ConfigError("an ablation row needs at least one graph")
        for seed in self.seeds:
            check_ints(0, seed=seed)
        for k in self.graph_kinds:
            if k not in gr.MODEL_KINDS:
                raise ConfigError(f"unknown graph kind {k!r}")

    @property
    def label(self) -> str:
        return "+".join(self.graph_kinds)


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


def grid_specs(grid: str, seeds: Sequence[int] = (0,)) -> list:
    if grid not in GRIDS:
        raise ConfigError(f"unknown ablation grid {grid!r} "
                          f"(have {sorted(GRIDS)})")
    return [AblationSpec(kinds, tuple(seeds)) for kinds in GRIDS[grid]]


def run_ablation(specs: Sequence[AblationSpec],
                 train_ds: WeatherSeriesDataset,
                 val_ds: WeatherSeriesDataset,
                 test_ds: WeatherSeriesDataset,
                 static_graphs: dict,
                 model_cfg: md.ModelConfig,
                 train_cfg: md.TrainConfig) -> dict:
    """Train one model per (row, seed) with shared settings; score on test.

    Every run differs only in which graphs enter the fusion and in the
    seed, so rows are comparable.  Returns a plain report dict.
    """
    rows = []
    for spec in specs:
        cfg = replace(model_cfg, graph_kinds=spec.graph_kinds)
        per_seed = []
        for seed in spec.seeds:
            rep, hist = _fit_and_score(train_ds, val_ds, test_ds,
                                       static_graphs, cfg,
                                       replace(train_cfg, seed=seed))
            per_seed.append({"seed": seed,
                             "mae": rep.overall_mae,
                             "rmse": rep.overall_rmse,
                             "best_epoch": hist.best_epoch})
        rows.append({
            "graphs": list(spec.graph_kinds),
            "label": spec.label,
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
                         train_cfg: md.TrainConfig,
                         pattern_factors: Optional[Sequence[str]] = None
                         ) -> dict:
    """Test error as a function of the nearest-neighbor graph's degree.

    Rebuilds the static graphs at each count with everything else frozen;
    runs are deterministic for fixed seeds.
    """
    curve = {"n_adjacent": [], "test_mae": [], "test_rmse": []}
    for na in counts:
        gs = gr.build_static_graphs(
            train_ds, n_adjacent=int(na),
            pattern_factors=pattern_factors or train_ds.factors)
        static = {k: gs[k].weights for k in gr.STATIC_KINDS}
        rep, _ = _fit_and_score(train_ds, val_ds, test_ds, static, model_cfg,
                                train_cfg)
        curve["n_adjacent"].append(int(na))
        curve["test_mae"].append(rep.overall_mae)
        curve["test_rmse"].append(rep.overall_rmse)
    return curve


def dump_report(obj: dict, path) -> None:
    """Stable-key JSON with a trailing newline; byte-stable per content."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")
