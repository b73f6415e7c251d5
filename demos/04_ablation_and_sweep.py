"""Graph-subset study and neighbor-degree sensitivity, desk sized.

Runs each single-graph model against the five-graph blend on a small
synthetic network, then varies the nearest-neighbor degree.  The same
harnesses drive the `ablate` and `sweep` CLI commands; at full station
count the reference temperature errors embedded in every ablation report
(five-graph mae 1.4418 vs best single 1.5842) set the expected ordering.
Takes a minute or two on a laptop CPU.
"""

import argparse

from stationcast import data as dt
from stationcast import evaluation as ev
from stationcast import graphs as gr
from stationcast import model as md


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epochs", type=int, default=6)
    args = ap.parse_args()

    ds = dt.generate_synthetic(dt.SynthConfig(n=10, t=600, d=1, seed=2))
    train, val, test = dt.split_temporal(ds, (3, 1, 2))
    stats = dt.compute_norm_stats(train)
    train, _ = dt.normalize(train, stats)
    val, _ = dt.normalize(val, stats)
    test, _ = dt.normalize(test, stats)
    gs = gr.build_static_graphs(train, n_adjacent=3, pattern_factors=["t"])
    static = {k: gs[k].weights for k in ("distance", "neighbor", "pattern")}

    mcfg = md.ModelConfig(w_in=12, w_out=6,
                          blocks=[md.StBlockConfig(2, [3], 1, 6)], d_emb=4)
    tcfg = md.TrainConfig(epochs=args.epochs, batch_size=32, seed=0)

    subsets = [(k,) for k in md.ALL_GRAPH_KINDS] + [md.ALL_GRAPH_KINDS]
    print(f"training {len(subsets)} graph subsets for {args.epochs} epochs "
          f"each...")
    report = ev.run_ablation(subsets, train, val, test, static, mcfg, tcfg,
                             seeds=(0,))
    print(f"{'graphs':<45} {'test mae':>9} {'test rmse':>10}")
    for row in sorted(report["rows"], key=lambda r: r["mean_mae"]):
        print(f"{row['label']:<45} {row['mean_mae']:9.4f} "
              f"{row['mean_rmse']:10.4f}")

    print("\nneighbor-degree sensitivity:")
    curve = ev.neighbor_count_sweep(train, val, test, [2, 4, 6], mcfg, tcfg)
    for na, mae, rmse in zip(curve["n_adjacent"], curve["test_mae"],
                             curve["test_rmse"]):
        print(f"  {na} neighbors: test mae {mae:.4f}  rmse {rmse:.4f}")
    print("\n(the CLI equivalents: `stationcast ablate --grid full13` and "
          "`stationcast sweep --counts 5,10,15,20,25`)")


if __name__ == "__main__":
    main()
