"""The five station graphs and how they combine.

Three graphs are fixed by geography and training history (distance kernel,
nearest neighbors, correlation patterns); two are produced by parameters
(static node embeddings, per-window projections).  A per-node weight matrix
blends them, and the blend feeds the spectral filter.
"""

import numpy as np

from stationcast import data as dt
from stationcast import graphs as gr
from stationcast import model as md
from stationcast import tape as tp


def describe(name, w):
    nz = 100.0 * (w != 0).mean()
    sym = "symmetric" if np.array_equal(w, w.T) else "one-sided"
    print(f"  {name:<10} {nz:5.1f}% nonzero, {sym}, "
          f"range [{w.min():+.3f}, {w.max():+.3f}]")


def main():
    ds = dt.generate_synthetic(dt.SynthConfig(n=12, t=400, d=3, seed=3))
    train = dt.split_temporal(ds, (3, 1, 2))[0]

    gs = gr.build_static_graphs(train, sigma="auto", epsilon=0.1,
                                n_adjacent=4)
    print(f"static graphs for {gs.n} stations "
          f"(sigma {gs.meta['sigma']:.1f} km):")
    adjs = {}
    for kind in ("distance", "neighbor", "pattern"):
        adjs[kind] = gs[kind].weights
        describe(kind, adjs[kind])

    # the trainable graphs and fusion weights are model parameters: take
    # them from a freshly initialized forecaster
    model = md.build_model(gs.n, md.ModelConfig(d_emb=8), seed=0)
    cfg, p = model.config, model.params
    adjs["learnable"] = gr.learnable_graph_op(
        p["emb1"], p["emb2"], p["emb_theta1"], p["emb_theta2"],
        cfg.alpha).values
    describe("learnable", adjs["learnable"])

    # node characteristics: each station's window of the first factor
    window = train.values[:, :cfg.w_in, 0]
    a_k = gr.dynamic_graph_op(window, p["dyn_w1"], p["dyn_w2"],
                              cfg.beta).values
    adjs["dynamic"] = a_k
    describe("dynamic", a_k)
    pair_zero = np.minimum(a_k, a_k.T).max()
    print(f"  (one-sidedness: min(A_ij, A_ji) is always 0; "
          f"max over pairs = {pair_zero})")

    weights = {k: p[f"fusion_{k}"] for k in cfg.graph_kinds}
    fused = gr.fuse_graphs_op(adjs, weights).values
    print(f"\nequal-weight fusion starts every graph at "
          f"{weights['distance'][0, 0]:.1f}; fused range "
          f"[{fused.min():+.3f}, {fused.max():+.3f}]")

    # the rescaled Laplacian 2L/lambda_max - I of the symmetrized blend
    lap = tp.scaled_laplacian_op(gr.symmetrize_op(fused)).values
    spectrum = np.linalg.eigvalsh(lap)
    print(f"rescaled Laplacian spectrum lies in [-1, 1]: "
          f"[{spectrum.min():+.4f}, {spectrum.max():+.4f}]")

    theta = np.random.default_rng(0).normal(0.0, 0.3, (3, 1, 2))
    x = train.values[:, 0, :1]
    y = gr.cheb_filter_op(lap, theta, x).values
    print(f"order-3 polynomial filter maps signal {x.shape} -> {y.shape} "
          f"without an eigendecomposition")


if __name__ == "__main__":
    main()
