"""Data pipeline walkthrough: generate, damage, screen, fill, window.

Builds a small synthetic station network, punches realistic holes into it
(sensor gaps and default-coded readings), then runs the quality pipeline
and shows what each stage does to the data.
"""

import numpy as np

from stationcast import data as dt


def main():
    cfg = dt.SynthConfig(n=8, t=500, d=3, seed=42)
    ds = dt.generate_synthetic(cfg)
    print(f"generated {ds.n_stations} stations x {ds.n_steps} hourly steps "
          f"x {ds.n_factors} factors {ds.factors}")

    # damage the dataset the way real feeds break
    rng = np.random.default_rng(7)
    values = ds.values.copy()
    mask = ds.mask.copy()
    mask[2, 100:104, 0] = False            # short temperature outage, kept
    values[2, 100:104, 0] = np.nan
    mask[5, :30, 1] = False                # station 5 joined the feed late
    values[5, :30, 1] = np.nan
    values[6, 200:204, 1] = 999999.0       # briefly stuck default code
    damaged = dt.WeatherSeriesDataset(ds.stations, ds.factors, values, mask,
                                      time_start=ds.time_start,
                                      time_step=ds.time_step)

    kept, mrep = dt.screen_missing(damaged, max_ratio=0.01)
    print(f"\nmissing-record screen (>1% incomplete drops the station):")
    for sid, ratio in sorted(mrep["ratios"].items()):
        flag = "DROPPED" if sid in mrep["dropped"] else "kept"
        print(f"  {sid}: {100 * ratio:5.2f}% incomplete records -> {flag}")

    kept, drep = dt.screen_defaults(kept, max_ratio=0.01)
    print(f"default-code screen dropped: {drep['dropped'] or 'nobody'} "
          f"(surviving default cells are masked for refill)")

    filled = dt.interpolate_linear(kept)
    print(f"interpolation filled {int((~kept.mask).sum())} cells; "
          f"all observed: {filled.mask.all()}")

    train, val, test = dt.split_temporal(filled, (3, 1, 2))
    stats = dt.compute_norm_stats(train)
    train, _ = dt.normalize(train, stats)
    print(f"\nsplit {filled.n_steps} steps into train/val/test = "
          f"{train.n_steps}/{val.n_steps}/{test.n_steps}")
    print("z-scoring uses training-split statistics only:")
    for f, m, s in zip(stats.factors, stats.mean, stats.std):
        print(f"  {f}: mean {m:8.3f}  std {s:6.3f}")

    batch = next(dt.make_windows(train, w_in=12, w_out=12, batch_size=32))
    print(f"\nfirst window batch: inputs {batch.inputs.shape} "
          f"targets {batch.targets.shape}")
    print(f"windows are labelled by their first target step, in epoch "
          f"seconds; first three: {batch.starts[:3].tolist()}")


if __name__ == "__main__":
    main()
