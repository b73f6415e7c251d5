"""Train the forecaster and read its horizon curve.

Fits a compact model on a synthetic network, scores it against the
persistence and ridge references, and prints per-step error growth over
the forecast horizon.  Takes about half a minute on a laptop CPU.
"""

import argparse

from stationcast import data as dt
from stationcast import evaluation as ev
from stationcast import graphs as gr
from stationcast import model as md


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epochs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    ds = dt.generate_synthetic(dt.SynthConfig(n=12, t=900, d=1, seed=1))
    train, val, test = dt.split_temporal(ds, (3, 1, 2))
    stats = dt.compute_norm_stats(train)
    train, _ = dt.normalize(train, stats)
    val, _ = dt.normalize(val, stats)
    test, _ = dt.normalize(test, stats)

    gs = gr.build_static_graphs(train, n_adjacent=4, pattern_factors=["t"])
    static = {k: gs[k].weights for k in ("distance", "neighbor", "pattern")}

    mcfg = md.ModelConfig(
        w_in=12, w_out=12,
        blocks=[md.StBlockConfig(2, [3], 1, 12),
                md.StBlockConfig(3, [3, 5], 12, 12)],
        d_emb=8)
    tcfg = md.TrainConfig(epochs=args.epochs, batch_size=32, seed=args.seed)
    model = md.build_model(train.n_stations, mcfg, seed=tcfg.seed)

    def progress(epoch, train_loss, val_mae, lr):
        print(f"epoch {epoch:2d}: train mae {train_loss:.4f}  "
              f"val mae {val_mae:.4f}")

    fitted, history = md.train(model, train, val, static, tcfg,
                               progress=progress)
    print(f"kept the epoch-{history.best_epoch} snapshot "
          f"(stopped early: {history.stopped_early})")

    preds, truth, _ = md.predict_dataset(fitted, test, static)
    model_rep = ev.compute_metrics(preds, truth, factors=test.factors)

    rows = [("model", model_rep)]
    for kind in ("persistence", "ridge"):
        p, t, _ = ev.evaluate_baseline(kind, train, test, 12, 12, lam=1.0)
        rows.append((kind, ev.compute_metrics(p, t, factors=test.factors)))

    print("\ntest metrics (z-scored units):")
    for name, rep in rows:
        print(f"  {name:<12} mae {rep.overall_mae:.4f}  "
              f"rmse {rep.overall_rmse:.4f}")

    curve = model_rep.mae_by_horizon[:, 0]  # the demo's one factor
    print("\nerror by forecast step (model):")
    for h, mae in enumerate(curve, start=1):
        bar = "#" * int(40 * mae / curve.max())
        print(f"  +{h:2d}h  mae {mae:.4f}  {bar}")

    # z-scored errors times the training std are the physical errors
    phys = ev.compute_metrics(preds, truth, stats.factors, "physical",
                              stats.std)
    print(f"\nback in physical units: mae {phys.overall_mae:.3f}, "
          f"rmse {phys.overall_rmse:.3f} (factor std "
          f"{stats.std[0]:.3f})")


if __name__ == "__main__":
    main()
