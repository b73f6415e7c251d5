"""Test scaffolding shared across test files: a finite-difference gradient
reference, a summing loss op, a writer for the per-station CSV layout, and
a tracemalloc peak probe.
"""

import csv
import tracemalloc
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from stationcast import graphs as gr
from stationcast import tape as tp
from stationcast.data import WeatherSeriesDataset


def reduce_sum(a: tp.ArrayLike) -> tp.TapeTensor:
    """Sum of every entry, as a tape op tagged ``reduce_sum``."""
    av = tp._as_array(a)
    shape = av.shape
    return tp._emit("reduce_sum", (a,), np.asarray(av.sum()),
                    lambda g: (np.full(shape, float(g)),))


def finite_diff_check(build_loss: Callable[[dict], tp.TapeTensor],
                      params: dict[str, np.ndarray],
                      h: float = 1e-5,
                      max_coords: int = 8,
                      rng: Optional[np.random.Generator] = None) -> float:
    """Worst relative error between tape gradients and central differences.

    ``build_loss`` maps a dict of named tensors to a scalar; it is called
    once on tape parameters for the analytic pass and repeatedly on plain
    arrays for the numeric probes.  Up to ``max_coords`` coordinates per
    parameter are probed.  Disagreements below the rounding noise of the
    probe itself (roughly eps*|loss|/h) count as exact, so coordinates
    whose true gradient cancels to zero do not report spurious error.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    tape = tp.Tape()
    tparams = {k: tape.param(v, name=k) for k, v in params.items()}
    loss = build_loss(tparams)
    store = tp.backward(loss)
    analytic = {k: tp.grad_of(store, t) for k, t in tparams.items()}

    def eval_loss(pdict):
        out = build_loss({k: tp.TapeTensor(v) for k, v in pdict.items()})
        return float(out.values)

    noise_floor = 64.0 * np.finfo(np.float64).eps \
        * max(1.0, abs(float(loss.values))) / h
    worst = 0.0
    for name, p in params.items():
        flat_n = p.size
        if flat_n == 0:
            continue
        count = min(max_coords, flat_n)
        coords = rng.choice(flat_n, size=count, replace=False)
        for c in coords:
            idx = np.unravel_index(int(c), p.shape)
            pp = {k: v.copy() for k, v in params.items()}
            pp[name][idx] += h
            up = eval_loss(pp)
            pp[name][idx] -= 2.0 * h
            dn = eval_loss(pp)
            numeric = (up - dn) / (2.0 * h)
            a = float(analytic[name][idx])
            if abs(a - numeric) <= noise_floor:
                continue
            denom = max(abs(a), abs(numeric), 1e-8)
            err = abs(a - numeric) / denom
            worst = max(worst, err)
    return worst


def station_distances(stations) -> np.ndarray:
    """Great-circle distance matrix of a station list, as the graph
    builders take it."""
    return gr.pairwise_distances_km([s.lat for s in stations],
                                    [s.lon for s in stations])


def save_csv_dir(ds: WeatherSeriesDataset, root) -> None:
    """Write the per-station CSV layout that ``load_dataset`` reads."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    with open(root / "stations.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["station_id", "lat", "lon", "alt", "time_start"])
        for s in ds.stations:
            w.writerow([s.station_id, repr(float(s.lat)), repr(float(s.lon)),
                        repr(float(s.alt)), ds.time_start])
    for i, s in enumerate(ds.stations):
        with open(root / f"{s.station_id}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(ds.factors)
            for t in range(ds.n_steps):
                row = []
                for d in range(ds.n_factors):
                    if ds.mask[i, t, d]:
                        # repr of a python float round-trips exactly
                        row.append(repr(float(ds.values[i, t, d])))
                    else:
                        row.append("")
                w.writerow(row)


def traced_peak(fn) -> int:
    """Peak bytes tracemalloc sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
