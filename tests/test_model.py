"""Forecaster architecture, gradients, training loop, and checkpoints."""

import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest

from stationcast import graphs as gr
from stationcast import model as md
from stationcast import tape as tp
from stationcast.data import (ErrorSums, StationMeta, WeatherSeriesDataset,
                              make_windows)
from stationcast.errors import (CheckpointError, ConfigError, ShapeError,
                               TrainingError)

from helpers import (adam_step_reference, closure_buffers, finite_diff_check,
                     reduce_sum, traced_peak)


def _static_graphs(n, rng):
    out = {}
    for kind in ("distance", "neighbor", "pattern"):
        a = rng.uniform(0.0, 1.0, (n, n))
        a = (a + a.T) / 2.0
        np.fill_diagonal(a, 0.0)
        out[kind] = a
    return out


def _tiny_config(w_in=6, w_out=3, channels=3, d_emb=4):
    return md.ModelConfig(
        w_in=w_in, w_out=w_out, d=1,
        blocks=[md.StBlockConfig(2, [3], 1, channels)],
        d_emb=d_emb)


def _tiny_dataset(n=5, t=120, seed=0):
    rng = np.random.default_rng(seed)
    stations = [StationMeta(f"S{i}", 35.0 + 0.1 * i, 110.0 + 0.05 * i)
                for i in range(n)]
    base = rng.normal(0.0, 1.0, (n, 1, 1))
    drift = np.sin(np.arange(t) / 7.0)[None, :, None]
    values = base + drift + 0.1 * rng.normal(0.0, 1.0, (n, t, 1))
    return WeatherSeriesDataset(stations, ["t"], values,
                                np.ones((n, t, 1), dtype=bool))


# ---------------------------------------------------------------------------
# configuration contracts


def test_default_config_shapes():
    cfg = md.ModelConfig()
    assert cfg.t_remaining == 6
    model = md.build_model(20, cfg, seed=1)
    rng = np.random.default_rng(2)
    inputs = rng.normal(0.0, 1.0, (3, 20, 12, 1))
    preds = md.forward(model, inputs, _static_graphs(20, rng))
    assert preds.shape == (3, 20, 12, 1)
    assert np.isfinite(preds).all()


def test_decreasing_cheb_order_rejected():
    with pytest.raises(ConfigError, match="non-decreasing"):
        md.ModelConfig(blocks=[md.StBlockConfig(3, [3], 1, 4),
                               md.StBlockConfig(2, [3], 4, 4)])


def test_decreasing_temporal_kernel_rejected():
    with pytest.raises(ConfigError, match="decreases"):
        md.ModelConfig(blocks=[md.StBlockConfig(2, [5], 1, 4),
                               md.StBlockConfig(2, [3], 4, 4)])


def test_kernel_exhausting_window_rejected():
    with pytest.raises(ConfigError, match="block 1"):
        md.ModelConfig(w_in=6, blocks=[md.StBlockConfig(1, [3], 1, 4),
                                       md.StBlockConfig(1, [5], 4, 4)])


def test_channel_chain_mismatch_rejected():
    with pytest.raises(ConfigError, match="channel mismatch"):
        md.ModelConfig(blocks=[md.StBlockConfig(1, [3], 1, 4),
                               md.StBlockConfig(1, [3], 8, 4)])


def test_even_kernel_rejected():
    with pytest.raises(ConfigError, match="odd"):
        md.StBlockConfig(1, [4], 1, 4)


def test_first_block_must_match_factor_count():
    with pytest.raises(ConfigError, match="input channels"):
        md.ModelConfig(d=2, blocks=[md.StBlockConfig(1, [3], 1, 4)])


def test_build_model_deterministic():
    cfg = _tiny_config()
    a = md.build_model(5, cfg, seed=7)
    b = md.build_model(5, cfg, seed=7)
    c = md.build_model(5, cfg, seed=8)
    assert sorted(a.params) == sorted(b.params)
    for k in a.params:
        assert a.params[k].tobytes() == b.params[k].tobytes()
    assert any(a.params[k].tobytes() != c.params[k].tobytes()
               for k in a.params)


def _two_blocks():
    return [md.StBlockConfig(2, [3], 1, 4),
            md.StBlockConfig(3, [1, 3, 5], 4, 6)]


# SHA-256 over every parameter's name and little-endian float64 bytes, in
# build_model order: the digests pin the draws and their RNG order, which
# fixed-seed checkpoints depend on
@pytest.mark.parametrize("n,seed,kwargs,digest", [
    (6, 0, {},
     "d55b707a0fae03ee82243f75a0b76f2454d0718f23bdc67450ddb80bd4450da5"),
    (7, 1, dict(graph_kinds=("learnable",), d_emb=5, blocks=_two_blocks()),
     "e27a239717d2afc89bd6e9c683809685b6d2eb1007a82d24e681ca97b34bdce6"),
    (5, 2, dict(graph_kinds=("dynamic",), w_in=8, blocks=_two_blocks()),
     "d6040238aad461b80c93bcaf7ad94c0bb04743bceb3653a4859a2031d65ffce7"),
    (4, 3, dict(graph_kinds=md.STATIC_KINDS, blocks=_two_blocks()),
     "6725c8e16859274b6bc0dbfaf071d1c5e7f9911a33fe007039b9e144092643a4"),
], ids=["five-graph", "learnable", "dynamic", "static"])
def test_build_model_init_is_pinned(n, seed, kwargs, digest):
    model = md.build_model(n, md.ModelConfig(**kwargs), seed=seed)
    h = hashlib.sha256()
    for name, value in model.params.items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(value, dtype="<f8").tobytes())
    assert h.hexdigest() == digest
    share = 1.0 / len(model.config.graph_kinds)
    for name, value in model.params.items():
        if name.startswith("fusion_"):
            assert np.array_equal(value, np.full((n, n), share))
        if name.endswith("_bias") or name == "out_b":
            assert not value.any()


# ---------------------------------------------------------------------------
# block semantics


def test_identity_block_passes_projection():
    # order-1 filter with identity weights, identity temporal kernel and a
    # zeroed mixing layer leave only the residual projection
    rng = np.random.default_rng(3)
    n, t, c, b = 4, 5, 3, 2
    eye = np.eye(c)
    res = rng.normal(0.0, 1.0, (c, c))
    weights = {
        "block0_cheb": eye[None],
        "block0_branch0": eye[None],
        "block0_fuse": np.zeros((c, c)),
        "block0_fuse_bias": np.zeros(c),
        "block0_res": res,
    }
    blk = md.StBlockConfig(1, [1], c, c)
    x = rng.normal(0.0, 1.0, (b, n, t, c))
    lt = np.stack([np.eye(n)] * b)
    out = md.st_block_forward(tp.TapeTensor(x), blk, tp.TapeTensor(lt),
                              weights, "block0")
    expected = np.einsum("bntc,cf->bntf", x, res)
    np.testing.assert_allclose(out.values, expected, rtol=0, atol=1e-14)


def test_block_shorter_than_its_kernels_is_rejected():
    # ModelConfig rejects such a block; a direct call meets conv1d's check
    n, c = 3, 2
    weights = {
        "block0_cheb": np.eye(c)[None],
        "block0_branch0": np.zeros((5, c, c)),
        "block0_fuse": np.zeros((c, c)),
        "block0_fuse_bias": np.zeros(c),
        "block0_res": np.zeros((c, c)),
    }
    blk = md.StBlockConfig(1, [5], c, c)
    with pytest.raises(ShapeError, match="kernel 5 exceeds length 4"):
        md.st_block_forward(np.zeros((1, n, 4, c)), blk, np.eye(n), weights,
                            "block0")


def test_temporal_multibranch_matches_direct():
    rng = np.random.default_rng(4)
    m, t, c = 6, 11, 3
    kernels = [3, 5]
    x = rng.normal(0.0, 1.0, (m, t, c))
    ws = [rng.normal(0.0, 1.0, (k, c, c)) for k in kernels]
    fuse = rng.normal(0.0, 1.0, (len(kernels) * c, c))
    bias = rng.normal(0.0, 1.0, c)
    out = md.temporal_multibranch(x, kernels, ws, fuse, bias)

    t_out = t - max(kernels) + 1
    branches = []
    for k, w in zip(kernels, ws):
        conv = np.zeros((m, t - k + 1, c))
        for pos in range(t - k + 1):
            for j in range(k):
                conv[:, pos, :] += x[:, pos + j, :] @ w[j]
        lead = (max(kernels) - k) // 2
        branches.append(conv[:, lead:lead + t_out, :])
    expected = np.concatenate(branches, axis=2) @ fuse + bias
    np.testing.assert_allclose(out.values, expected, atol=1e-10)


def _multibranch_reference(x, kernels, ws, fuse, bias):
    """The uncollapsed block on the tape: per-branch conv, crop, concat, mix."""
    t_out = tp._as_array(x).shape[1] - max(kernels) + 1
    outs = []
    for k, w in zip(kernels, ws):
        lead = (max(kernels) - k) // 2
        outs.append(tp.slice_axis(tp.conv1d(x, w), 1, lead, lead + t_out))
    return tp.add_bias(tp.matmul(tp.concat(outs, axis=2), fuse), bias)


@pytest.mark.parametrize("kernels", [[3, 5], [1, 3, 5]])
def test_temporal_multibranch_matches_uncollapsed_tape(kernels):
    rng = np.random.default_rng(41)
    m, t, c, c_br, c_out = 4, 9, 3, 2, 5
    values = {"x": rng.normal(0.0, 1.0, (m, t, c)),
              "fuse": rng.normal(0.0, 1.0, (len(kernels) * c_br, c_out)),
              "bias": rng.normal(0.0, 1.0, c_out)}
    for j, k in enumerate(kernels):
        values[f"w{j}"] = rng.normal(0.0, 1.0, (k, c, c_br))
    probe = rng.normal(0.0, 1.0, (m, t - max(kernels) + 1, c_out))

    def run(block):
        tape = tp.Tape()
        p = {k: tape.param(v) for k, v in values.items()}
        out = block(p["x"], kernels, [p[f"w{j}"] for j in range(len(kernels))],
                    p["fuse"], p["bias"])
        store = tp.backward(reduce_sum(tp.hadamard(out, probe)))
        return out.values, {k: tp.grad_of(store, v) for k, v in p.items()}

    got, got_grads = run(md.temporal_multibranch)
    want, want_grads = run(_multibranch_reference)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    for name in values:
        np.testing.assert_allclose(got_grads[name], want_grads[name],
                                   rtol=0, atol=1e-12, err_msg=name)


def test_temporal_multibranch_is_one_convolution():
    rng = np.random.default_rng(42)
    tape = tp.Tape()
    ws = [tape.param(rng.normal(0.0, 1.0, (k, 3, 3))) for k in (1, 3, 5)]
    out = md.temporal_multibranch(
        tape.param(rng.normal(0.0, 1.0, (2, 8, 3))), [1, 3, 5], ws,
        tape.param(rng.normal(0.0, 1.0, (9, 3))),
        tape.param(np.zeros(3)))
    assert out.shape == (2, 4, 3)
    assert [n.op for n in tape.nodes].count("conv1d") == 1


def test_temporal_multibranch_rejects_fuse_row_mismatch():
    rng = np.random.default_rng(43)
    ws = [rng.normal(0.0, 1.0, (k, 3, 3)) for k in (3, 5)]
    with pytest.raises(ShapeError, match="fuse"):
        md.temporal_multibranch(rng.normal(0.0, 1.0, (2, 8, 3)), [3, 5], ws,
                                rng.normal(0.0, 1.0, (7, 3)), np.zeros(3))


def test_st_block_matches_slice_loop():
    rng = np.random.default_rng(5)
    n, t, c_in, c_out, b, order = 5, 9, 2, 3, 2, 3
    kernels = [3, 5]
    blk = md.StBlockConfig(order, kernels, c_in, c_out)
    weights = {
        "block0_cheb": rng.normal(0.0, 1.0, (order, c_in, c_out)),
        "block0_branch0": rng.normal(0.0, 1.0, (3, c_out, c_out)),
        "block0_branch1": rng.normal(0.0, 1.0, (5, c_out, c_out)),
        "block0_fuse": rng.normal(0.0, 1.0, (2 * c_out, c_out)),
        "block0_fuse_bias": rng.normal(0.0, 1.0, c_out),
        "block0_res": rng.normal(0.0, 1.0, (c_in, c_out)),
    }
    x = rng.normal(0.0, 1.0, (b, n, t, c_in))
    lt = np.zeros((b, n, n))
    for i in range(b):
        a = rng.uniform(0.0, 1.0, (n, n))
        a = (a + a.T) / 2.0
        np.fill_diagonal(a, 0.0)
        lt[i] = tp.scaled_laplacian_op(a).values

    out = md.st_block_forward(tp.TapeTensor(x), blk, tp.TapeTensor(lt),
                              weights, "block0")

    # oracle: spatial filter one time slice at a time in the Laplacian's
    # eigenbasis, where T_k acts as the Chebyshev polynomial of each
    # eigenvalue, then direct convs
    spatial = np.zeros((b, n, t, c_out))
    for i in range(b):
        evals, u = np.linalg.eigh(lt[i])
        basis = np.polynomial.chebyshev.chebvander(evals, order - 1)
        for s in range(t):
            for k in range(order):
                tk_x = u @ (basis[:, k][:, None] * (u.T @ x[i, :, s, :]))
                spatial[i, :, s, :] += tk_x @ weights["block0_cheb"][k]
    spatial = np.maximum(spatial, 0.0)
    t_out = t - max(kernels) + 1
    branches = []
    for name, k in (("block0_branch0", 3), ("block0_branch1", 5)):
        w = weights[name]
        conv = np.zeros((b, n, t - k + 1, c_out))
        for pos in range(t - k + 1):
            for j in range(k):
                conv[:, :, pos, :] += spatial[:, :, pos + j, :] @ w[j]
        lead = (max(kernels) - k) // 2
        branches.append(conv[:, :, lead:lead + t_out, :])
    temporal = np.concatenate(branches, axis=3) @ weights["block0_fuse"] \
        + weights["block0_fuse_bias"]
    lead = (max(kernels) - 1) // 2
    residual = np.einsum("bntc,cf->bntf", x[:, :, lead:lead + t_out, :],
                         weights["block0_res"])
    np.testing.assert_allclose(out.values, temporal + residual, atol=1e-10)


# ---------------------------------------------------------------------------
# full forward


def test_forward_permutation_equivariance():
    rng = np.random.default_rng(6)
    n = 6
    cfg = _tiny_config()
    model = md.build_model(n, cfg, seed=11)
    static = _static_graphs(n, rng)
    inputs = rng.normal(0.0, 1.0, (3, n, cfg.w_in, 1))
    base = md.forward(model, inputs, static)

    # relabel stations: node embeddings permute by row, fusion weights by
    # row and column
    perm = rng.permutation(n)
    params = {}
    for name, value in model.params.items():
        if name in ("emb1", "emb2"):
            value = value[perm]
        elif name.startswith("fusion_"):
            value = value[np.ix_(perm, perm)]
        params[name] = value
    pmodel = md.MultiGraphForecaster(model.config, n, params, model.seed)
    pstatic = {k: v[np.ix_(perm, perm)] for k, v in static.items()}
    ppreds = md.forward(pmodel, inputs[:, perm], pstatic)
    np.testing.assert_allclose(ppreds, base[:, perm], atol=1e-9)


def test_identical_windows_identical_predictions():
    rng = np.random.default_rng(7)
    n = 5
    cfg = _tiny_config()
    model = md.build_model(n, cfg, seed=3)
    win = rng.normal(0.0, 1.0, (n, cfg.w_in, 1))
    batch = np.stack([win, win, win])
    preds = md.forward(model, batch, _static_graphs(n, rng))
    assert preds[0].tobytes() == preds[1].tobytes() == preds[2].tobytes()


def test_graph_subset_models():
    rng = np.random.default_rng(8)
    n = 5
    inputs = rng.normal(0.0, 1.0, (2, n, 6, 1))
    static = _static_graphs(n, rng)
    for kinds in (("distance",), ("dynamic",), ("learnable", "dynamic"),
                  ("distance", "pattern", "learnable")):
        cfg = md.ModelConfig(w_in=6, w_out=3,
                             blocks=[md.StBlockConfig(2, [3], 1, 3)],
                             d_emb=4, graph_kinds=kinds)
        model = md.build_model(n, cfg, seed=0)
        expect = {"emb1", "emb2", "emb_theta1", "emb_theta2"}
        has = set(model.params)
        assert ("learnable" in kinds) == bool(expect & has)
        assert ("dynamic" in kinds) == ("dyn_w1" in has)
        preds = md.forward(model, inputs, static)
        assert preds.shape == (2, n, 3, 1)


def test_missing_static_graph_rejected():
    cfg = md.ModelConfig(w_in=6, w_out=3,
                         blocks=[md.StBlockConfig(2, [3], 1, 3)],
                         d_emb=4, graph_kinds=("distance", "neighbor"))
    model = md.build_model(4, cfg, seed=0)
    inputs = np.zeros((1, 4, 6, 1))
    with pytest.raises(ConfigError, match="neighbor"):
        md.forward(model, inputs, {"distance": np.ones((4, 4))})


def _two_block_config(kinds=md.STATIC_KINDS):
    return md.ModelConfig(w_in=6, w_out=3,
                          blocks=[md.StBlockConfig(2, [3], 1, 3),
                                  md.StBlockConfig(3, [3], 3, 3)],
                          d_emb=4, graph_kinds=kinds)


def _spy_linalg(monkeypatch):
    """Stack sizes of every np.linalg.eigh and np.linalg.solve call."""
    calls = {"eigh": [], "solve": []}
    for name, log in calls.items():
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *r, _f=real, _log=log,
                            **k: _log.append(len(a)) or _f(a, *r, **k))
    return calls


def test_static_graphs_give_one_laplacian_per_step(monkeypatch):
    rng = np.random.default_rng(21)
    n, batch = 5, 4
    inputs = rng.normal(0.0, 1.0, (batch, n, 6, 1))
    targets = rng.normal(0.0, 1.0, (batch, n, 3, 1))
    static = _static_graphs(n, rng)
    sizes = []
    decompose = tp._lambda_max_batch
    monkeypatch.setattr(tp, "_lambda_max_batch",
                        lambda m: sizes.append(len(m)) or decompose(m))
    linalg = _spy_linalg(monkeypatch)
    for kinds, shape, per_step in (
            (md.STATIC_KINDS + ("learnable",), (n, n), 1),
            (md.ALL_GRAPH_KINDS, (batch, n, n), batch)):
        cfg = _two_block_config(kinds)
        model = md.build_model(n, cfg, seed=3)
        l_tilde = md._fused_laplacian(model.params, cfg, inputs, static)
        assert l_tilde.shape == shape
        sizes.clear()
        linalg["solve"].clear()
        t = tp.Tape()
        tparams = {k: t.param(v) for k, v in model.params.items()}
        pred = md.forward_on_tape(tparams, cfg, n, inputs, static)
        assert linalg["solve"] == []
        tp.backward(md._mae_loss(pred, targets))
        assert sizes == [per_step]
        # the backward's inverse iteration: one pair of batched solves
        assert linalg["solve"] == [per_step, per_step]
    assert linalg["eigh"] == []


def test_predict_dataset_forms_no_eigenvectors(monkeypatch):
    ds = _tiny_dataset(n=5, t=60, seed=4)
    static = _static_graphs(5, np.random.default_rng(23))
    linalg = _spy_linalg(monkeypatch)
    for kinds in (md.STATIC_KINDS, md.ALL_GRAPH_KINDS):
        model = md.build_model(5, _two_block_config(kinds), seed=2)
        md.predict_dataset(model, ds, static)
    assert linalg == {"eigh": [], "solve": []}


def test_static_only_predictions_match_tiled_computation(monkeypatch):
    ds = _tiny_dataset(n=5, t=60, seed=3)
    static = _static_graphs(5, np.random.default_rng(22))
    model = md.build_model(5, _two_block_config(), seed=2)
    shared = md.predict_dataset(model, ds, static)[0]

    def tiled(weights, cfg, inputs, static_graphs):
        # the per-window computation: B copies of the one fused graph
        fused = gr.fuse_graphs_op(
            {k: static_graphs[k] for k in cfg.graph_kinds},
            {k: weights[f"fusion_{k}"] for k in cfg.graph_kinds})
        return tp.scaled_laplacian_op(
            gr.symmetrize_op(tp.tile_leading(fused, len(inputs))))

    monkeypatch.setattr(md, "_fused_laplacian", tiled)
    per_window = md.predict_dataset(model, ds, static)[0]
    assert shared.tobytes() == per_window.tobytes()


def _default_step_loss(n, batch, seed):
    """The loss of one default five-graph model step, on its tape."""
    rng = np.random.default_rng(seed)
    cfg = md.ModelConfig()
    model = md.build_model(n, cfg, seed=1)
    t = tp.Tape()
    tparams = {k: t.param(v) for k, v in model.params.items()}
    inputs = rng.normal(0.0, 1.0, (batch, n, cfg.w_in, cfg.d))
    targets = rng.normal(0.0, 1.0, (batch, n, cfg.w_out, cfg.d))
    return md._mae_loss(md.forward_on_tape(tparams, cfg, n, inputs,
                                           _static_graphs(n, rng)), targets)


def test_default_step_tape_node_count():
    # the default five-graph model: every Chebyshev filter, each trainable
    # graph and the fusion are one node
    ops = [node.op for node in _default_step_loss(6, 2, 24).tape.nodes]
    assert len(ops) == 64
    assert ops.count("cheb_filter") == len(md.ModelConfig().blocks)
    assert ops.count("antisym_graph") == 2 and ops.count("fuse_graphs") == 1


def test_default_step_closures_hold_pinned_bytes():
    # a closure captures only the arrays its gradient reads, so one step's
    # tape holds a fixed set of buffers; an op that starts keeping an input
    # for its shape, or an array for a gradient it skips, moves this count
    buffers = closure_buffers(_default_step_loss(40, 8, 25).tape)
    assert sum(b.nbytes for b in buffers) == 6_034_856


def test_default_step_backward_frees_as_it_walks():
    # each closure dies once it has run, and the Chebyshev backward works in
    # window-sized buffers, so the walk adds 1.81 of block 0's [B, N, T, 32]
    # activation to what the forward left live; with every closure held to
    # the end and whole-batch adjoints it added 5.48
    n, batch = 40, 8
    tracemalloc.start()
    try:
        loss = _default_step_loss(n, batch, 25)
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tp.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - live < 2.5 * (batch * n * 12 * 32 * 8)


def test_off_tape_forward_frees_what_no_later_op_reads():
    # off the tape each block's ReLU output dies before the residual add
    # and L~ is formed in place.  The peak, in units of block 0's
    # [B, N, T, 32] activation, is 2.93; keeping the ReLU output through the
    # residual and L~ in a second buffer reads 3.61
    n, batch = 40, 8
    rng = np.random.default_rng(27)
    model = md.build_model(n, md.ModelConfig(), seed=1)
    static = _static_graphs(n, rng)
    inputs = rng.normal(0.0, 1.0, (batch, n, 12, 1))
    want = md.forward(model, inputs, static)
    tracemalloc.start()
    try:
        got = md.forward(model, inputs, static)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak < 3.25 * (batch * n * 12 * 32 * 8)


def test_forward_rejects_wrong_window_shape():
    cfg = _tiny_config()
    model = md.build_model(4, cfg, seed=0)
    rng = np.random.default_rng(9)
    with pytest.raises(ConfigError, match="expected inputs"):
        md.forward(model, np.zeros((2, 4, 5, 1)), _static_graphs(4, rng))


def test_full_model_finite_diff():
    rng = np.random.default_rng(10)
    n, b = 4, 2
    cfg = _tiny_config()
    model = md.build_model(n, cfg, seed=5)
    static = _static_graphs(n, rng)
    inputs = rng.normal(0.0, 1.0, (b, n, cfg.w_in, 1))
    targets = rng.normal(0.0, 1.0, (b, n, cfg.w_out, 1))

    def build_loss(tparams):
        pred = md.forward_on_tape(tparams, cfg, n, inputs, static)
        return tp.reduce_mean(tp.absolute(tp.sub(pred, targets)))

    worst = finite_diff_check(build_loss, model.params,
                              rng=np.random.default_rng(1))
    assert worst <= 1e-4, f"worst relative gradient error {worst}"


# ---------------------------------------------------------------------------
# training protocol


def test_lr_schedule_compound():
    cfg = md.TrainConfig()
    assert cfg.lr_at(1) == pytest.approx(1e-2)
    assert cfg.lr_at(10) == pytest.approx(1e-2)
    assert cfg.lr_at(11) == pytest.approx(9.5e-3)
    assert cfg.lr_at(21) == pytest.approx(1e-2 * 0.95 ** 2)
    assert cfg.lr_at(41) == pytest.approx(1e-2 * 0.95 ** 4)
    assert cfg.lr_at(50) == pytest.approx(1e-2 * 0.95 ** 4)
    # frozen past the decay window
    assert cfg.lr_at(51) == pytest.approx(1e-2 * 0.95 ** 4)
    assert cfg.lr_at(100) == pytest.approx(1e-2 * 0.95 ** 4)


def _split(ds, a, b):
    return ds.slice_time(a, b)


def test_training_improves_and_is_deterministic():
    ds = _tiny_dataset(n=5, t=140, seed=1)
    train_ds, val_ds = _split(ds, 0, 100), _split(ds, 100, 140)
    rng = np.random.default_rng(12)
    static = _static_graphs(5, rng)
    cfg = _tiny_config()
    tcfg = md.TrainConfig(epochs=4, batch_size=32, seed=9)

    model = md.build_model(5, cfg, seed=2)
    fit_a, hist_a = md.train(model, train_ds, val_ds, static, tcfg)
    fit_b, hist_b = md.train(model, train_ds, val_ds, static, tcfg)

    assert len(hist_a.train_loss) == 4
    assert hist_a.train_loss[-1] < hist_a.train_loss[0]
    assert hist_a.best_epoch >= 1
    assert hist_a.train_loss == hist_b.train_loss
    assert hist_a.val_mae == hist_b.val_mae
    for k in fit_a.params:
        assert fit_a.params[k].tobytes() == fit_b.params[k].tobytes()
    # the returned model reproduces the best recorded validation error
    preds, tgts, _ = md.predict_dataset(fit_a, val_ds, static)
    val = float(np.abs(preds - tgts).mean())
    assert val == pytest.approx(min(hist_a.val_mae), abs=1e-12)


def test_training_early_stops_when_flat():
    ds = _tiny_dataset(n=4, t=80, seed=2)
    train_ds, val_ds = _split(ds, 0, 60), _split(ds, 60, 80)
    static = _static_graphs(4, np.random.default_rng(13))
    model = md.build_model(4, _tiny_config(), seed=1)
    tcfg = md.TrainConfig(epochs=50, early_stop_patience=2, lr0=0.0, seed=1)
    _, hist = md.train(model, train_ds, val_ds, static, tcfg)
    assert hist.stopped_early
    assert len(hist.val_mae) == 3
    assert hist.best_epoch == 1


def test_training_aborts_on_nonfinite_loss():
    ds = _tiny_dataset(n=4, t=60, seed=3)
    train_ds, val_ds = _split(ds, 0, 45), _split(ds, 45, 60)
    static = _static_graphs(4, np.random.default_rng(14))
    model = md.build_model(4, _tiny_config(), seed=1)
    model.params["out_b"][:] = np.nan
    with pytest.raises(TrainingError, match="epoch 1"):
        md.train(model, train_ds, val_ds, static, md.TrainConfig(epochs=2))


@pytest.mark.parametrize("short,steps", [("training", 8), ("validation", 5)])
def test_training_rejects_a_short_split_before_any_step(monkeypatch, short,
                                                        steps):
    # _tiny_config's window spans 6 + 3 = 9 steps
    ds = _tiny_dataset(n=4, t=60, seed=5)
    splits = {"training": _split(ds, 0, 40), "validation": _split(ds, 40, 60)}
    splits[short] = splits[short].slice_time(0, steps)
    model = md.build_model(4, _tiny_config(), seed=1)

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(md, "forward_on_tape", no_step)
    with pytest.raises(ConfigError, match=f"^{short} split has {steps} "
                                          "steps, fewer than the 9"):
        md.train(model, splits["training"], splits["validation"],
                 _static_graphs(4, np.random.default_rng(16)),
                 md.TrainConfig(epochs=1))


def test_adam_step_updates_in_place_with_the_reference_bytes():
    # the default model at n=300: five [N, N] fusion weights are 94% of one
    # parameter copy.  The out-of-place step allocated 3.55 copies; in place
    # it needs only two scratch arrays the size of the largest parameter
    model = md.build_model(300, md.ModelConfig(), seed=3)
    rng = np.random.default_rng(35)
    copy = sum(v.nbytes for v in model.params.values())
    params = {k: v.copy() for k, v in model.params.items()}
    state, ref_state = tp.AdamState(), tp.AdamState()
    ref = {k: v.copy() for k, v in params.items()}
    for step in range(3):
        grads = {k: rng.normal(0.0, 1.0, v.shape) for k, v in params.items()}
        before = [(params[k], state.m.get(k), state.v.get(k))
                  for k in params]
        tracemalloc.start()
        try:
            out = tp.adam_step(params, grads, state, 1e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ref = adam_step_reference(ref, grads, ref_state, 1e-2)
        assert out is params
        for k, (p, m, v) in zip(params, before):
            assert params[k] is p
            if step:  # the first step allocates m and v, once
                assert state.m[k] is m and state.v[k] is v
            for got, want in ((params, ref), (state.m, ref_state.m),
                              (state.v, ref_state.v)):
                assert got[k].tobytes() == want[k].tobytes()
        if step:
            assert peak < 0.5 * copy, peak / copy
    assert state.t == ref_state.t == 3


def test_history_dict_has_no_wall_time():
    hist = md.TrainHistory(train_loss=[1.0], val_mae=[2.0], lr=[0.01],
                           best_epoch=1)
    d = hist.to_dict()
    assert "wall_time" not in json.dumps(d)
    assert d["epochs"][0]["val_mae"] == 2.0


def test_predict_dataset_counts_windows():
    ds = _tiny_dataset(n=4, t=30, seed=4)
    model = md.build_model(4, md.ModelConfig(
        w_in=12, w_out=12, blocks=[md.StBlockConfig(2, [3], 1, 3)],
        d_emb=4), seed=0)
    static = _static_graphs(4, np.random.default_rng(15))
    preds, tgts, starts = md.predict_dataset(model, ds, static)
    assert preds.shape == (7, 4, 12, 1)
    assert tgts.shape == (7, 4, 12, 1)
    # the targets are the split's own values, not a stack of them
    assert np.shares_memory(tgts, ds.values) and not tgts.flags.writeable
    # starts are absolute timestamps of each window's first target hour
    assert list(starts) == [(i + 12) * 3600 for i in range(7)]


# ---------------------------------------------------------------------------
# window chunks


def _set_chunk(monkeypatch, n, cfg, windows):
    """Size md._CHUNK_BYTES so that one chunk holds `windows` windows."""
    widest = max(blk.channels_out for blk in cfg.blocks)
    monkeypatch.setattr(md, "_CHUNK_BYTES",
                        windows * 8 * n * cfg.w_in * widest)
    assert md._chunk_windows(n, cfg) == windows


def _spy_sizes(monkeypatch, name):
    """Window counts of every call to md.<name>, which takes its inputs
    second (forward) or fourth (_chunk_gradients)."""
    sizes = []
    real = getattr(md, name)
    at = 1 if name == "forward" else 3

    def spy(*args):
        sizes.append(len(args[at]))
        return real(*args)

    monkeypatch.setattr(md, name, spy)
    return sizes


@pytest.mark.parametrize("kinds", [md.ALL_GRAPH_KINDS, md.STATIC_KINDS],
                         ids=["five-graph", "static"])
def test_predictions_do_not_depend_on_the_chunk(monkeypatch, kinds):
    # 22 windows: chunks of 1, of 3 (the last one ragged) and of all 22
    ds = _tiny_dataset(n=5, t=30, seed=8)
    static = _static_graphs(5, np.random.default_rng(32))
    model = md.build_model(5, _two_block_config(kinds), seed=5)
    sizes = _spy_sizes(monkeypatch, "forward")
    runs = {}
    for windows in (1, 3, 22):
        _set_chunk(monkeypatch, 5, model.config, windows)
        sizes.clear()
        runs[windows] = [a.tobytes()
                         for a in md.predict_dataset(model, ds, static)]
        assert sizes == [windows] * (22 // windows) + [22 % windows] * (
            22 % windows > 0)
    assert runs[1] == runs[3] == runs[22]


def _chunk_fixture():
    # 52 training windows: batches of 16, 16, 16 and a ragged 4
    ds = _tiny_dataset(n=5, t=90, seed=6)
    model = md.build_model(5, _two_block_config(md.ALL_GRAPH_KINDS), seed=4)
    return (model, _split(ds, 0, 60), _split(ds, 60, 90),
            _static_graphs(5, np.random.default_rng(31)),
            md.TrainConfig(epochs=1, batch_size=16, seed=7))


def _batch_gradients(params, cfg, n, batch, static):
    """Loss and gradients of one tape over a whole batch."""
    t = tp.Tape()
    tparams = {k: t.param(v) for k, v in params.items()}
    loss = md._mae_loss(md.forward_on_tape(tparams, cfg, n, batch.inputs,
                                           static), batch.targets)
    store = tp.backward(loss)
    return float(loss.values), {k: tp.grad_of(store, tparams[k])
                                for k in params}


def test_one_chunk_training_writes_the_whole_batch_checkpoint(tmp_path):
    # the step before chunking: one tape per batch, its gradient unweighted
    model, train_ds, val_ds, static, tcfg = _chunk_fixture()
    cfg = model.config
    assert md._chunk_windows(5, cfg) >= tcfg.batch_size
    fitted, hist = md.train(model, train_ds, val_ds, static, tcfg)
    params, state, losses = dict(model.params), tp.AdamState(), []
    for batch in make_windows(train_ds, cfg.w_in, cfg.w_out,
                              batch_size=tcfg.batch_size,
                              shuffle_rng=np.random.default_rng(tcfg.seed)):
        loss, grads = _batch_gradients(params, cfg, 5, batch, static)
        losses.append(loss)
        params = tp.adam_step(params, grads, state, tcfg.lr_at(1))
    assert hist.train_loss == [float(np.mean(losses))]
    md.save_checkpoint(fitted, tmp_path / "chunked.ckpt")
    md.save_checkpoint(md.MultiGraphForecaster(cfg, 5, params, model.seed),
                       tmp_path / "whole.ckpt")
    assert (tmp_path / "chunked.ckpt").read_bytes() \
        == (tmp_path / "whole.ckpt").read_bytes()


def test_multi_chunk_training_matches_one_chunk(monkeypatch):
    model, train_ds, val_ds, static, tcfg = _chunk_fixture()
    one, one_hist = md.train(model, train_ds, val_ds, static, tcfg)
    sizes = _spy_sizes(monkeypatch, "_chunk_gradients")
    _set_chunk(monkeypatch, 5, model.config, 3)
    runs = [md.train(model, train_ds, val_ds, static, tcfg)
            for _ in range(2)]
    # three full batches of 5 + 1 chunks, then the ragged batch's 3 + 1
    assert sizes == 2 * (([3] * 5 + [1]) * 3 + [3, 1])
    (a, a_hist), (b, b_hist) = runs
    for k in one.params:
        assert a.params[k].tobytes() == b.params[k].tobytes()
        np.testing.assert_allclose(
            a.params[k], one.params[k], rtol=0,
            atol=1e-12 * np.abs(one.params[k]).max())
    assert a_hist.train_loss == b_hist.train_loss
    assert a_hist.train_loss[0] == pytest.approx(one_hist.train_loss[0],
                                                 rel=1e-12, abs=0)


def test_ragged_last_batch_is_weighted_by_its_windows(monkeypatch):
    model, train_ds, val_ds, static, tcfg = _chunk_fixture()
    cfg = model.config
    steps = []
    real_step = tp.adam_step

    def spy(params, grads, state, lr):
        # train updates both dicts' arrays in place: keep this step's values
        steps.append(({k: v.copy() for k, v in params.items()},
                      {k: v.copy() for k, v in grads.items()}))
        return real_step(params, grads, state, lr)

    monkeypatch.setattr(tp, "adam_step", spy)
    _set_chunk(monkeypatch, 5, cfg, 3)
    md.train(model, train_ds, val_ds, static, tcfg)
    last = list(make_windows(train_ds, cfg.w_in, cfg.w_out,
                             batch_size=tcfg.batch_size,
                             shuffle_rng=np.random.default_rng(tcfg.seed)))[-1]
    # chunks of 3 and 1, weighted 3/4 and 1/4, give the 4 windows' mean
    assert len(last.inputs) == 4
    params, grads = steps[-1]
    _, want = _batch_gradients(params, cfg, 5, last, static)
    for k, g in want.items():
        np.testing.assert_allclose(grads[k], g, rtol=0,
                                   atol=1e-12 * np.abs(g).max())


def test_default_training_step_memory_follows_the_chunk():
    # at n=100 a chunk holds 3 windows, so one B=32 step spans 11 tapes and
    # peaks at 11.2 MB traced; 6-window chunks peaked at 18.8 MB and one
    # tape over the whole batch at 84 MB
    n = 100
    ds = _tiny_dataset(n=n, t=79, seed=9)
    train_ds, val_ds = _split(ds, 0, 55), _split(ds, 55, 79)
    static = _static_graphs(n, np.random.default_rng(33))
    model = md.build_model(n, md.ModelConfig(), seed=0)
    assert md._chunk_windows(n, model.config) == 3
    tracemalloc.start()
    try:
        _, hist = md.train(model, train_ds, val_ds, static,
                           md.TrainConfig(epochs=1, batch_size=32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(hist.train_loss) == 1
    assert peak < 13e6


def test_predict_dataset_memory_follows_the_chunk():
    # 311 windows at n=100: the outputs and one 3-window chunk, 9.1 MB
    # traced (11.7 MB with 6-window chunks); one forward over 64 windows and
    # a concatenated copy peaked at 60 MB
    n = 100
    ds = _tiny_dataset(n=n, t=334, seed=10)
    static = _static_graphs(n, np.random.default_rng(34))
    model = md.build_model(n, md.ModelConfig(), seed=0)
    tracemalloc.start()
    try:
        preds = md.predict_dataset(model, ds, static)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert preds.shape == (311, n, 12, 1)
    assert peak < 10.5e6


@pytest.mark.parametrize("kinds", [md.ALL_GRAPH_KINDS, md.STATIC_KINDS],
                         ids=["five-graph", "static"])
def test_scores_do_not_depend_on_the_chunk(monkeypatch, kinds):
    # 22 windows scored in chunks of 1, of 3 and of all 22, against the
    # predictions and targets summed as one block
    ds = _tiny_dataset(n=5, t=30, seed=8)
    static = _static_graphs(5, np.random.default_rng(32))
    model = md.build_model(5, _two_block_config(kinds), seed=5)
    preds, targets, _ = md.predict_dataset(model, ds, static)
    whole = ErrorSums(5, 3, 1)
    whole.add(preds, targets)
    for windows in (1, 3, 22):
        _set_chunk(monkeypatch, 5, model.config, windows)
        again = md.predict_dataset(model, ds, static)[0]
        assert again.tobytes() == preds.tobytes()
        sums = md.score_dataset(model, ds, static)
        assert sums.windows == 22
        assert sums.abs_sum.tobytes() == whole.abs_sum.tobytes()
        assert sums.sq_sum.tobytes() == whole.sq_sum.tobytes()


def _wide_horizon_model(n):
    return md.build_model(n, _tiny_config(w_out=12), seed=0)


def test_score_dataset_memory_does_not_grow_with_windows(monkeypatch):
    # one [windows, 30, 12, 1] array is 0.86 MB at 375 windows; scoring
    # through predict_dataset would add two of them as the split doubles
    n = 30
    model = _wide_horizon_model(n)
    _set_chunk(monkeypatch, n, model.config, 4)
    static = _static_graphs(n, np.random.default_rng(35))
    peaks = []
    for t in (392, 767):  # 375 and 750 windows
        ds = _tiny_dataset(n=n, t=t, seed=11)
        peaks.append(traced_peak(lambda: md.score_dataset(model, ds,
                                                          static)))
    assert peaks[1] - peaks[0] < 375 * n * 12 * 8 // 20


def test_validation_holds_no_window_stack():
    # validation over 600 and 1200 windows of [30, 12, 1]: a stack of its
    # forecasts or targets is 1.7 or 3.5 MB, above the training steps' peak
    n = 30
    model = _wide_horizon_model(n)
    static = _static_graphs(n, np.random.default_rng(36))
    ds = _tiny_dataset(n=n, t=1260, seed=12)
    train_ds = _split(ds, 0, 36)
    tcfg = md.TrainConfig(epochs=1, batch_size=8)
    peaks = []
    for stop in (653, 1253):
        val_ds = _split(ds, 36, stop)
        peaks.append(traced_peak(lambda: md.train(model, train_ds, val_ds,
                                                  static, tcfg)))
    assert peaks[1] - peaks[0] < 600 * n * 12 * 8 // 20
    # the recorded validation MAE is the report's overall MAE of the split
    fitted, hist = md.train(model, train_ds, val_ds, static, tcfg)
    abs_mean, _ = md.score_dataset(fitted, val_ds, static).means()
    assert hist.val_mae == [float(abs_mean.mean(axis=0).mean())]


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bitwise(tmp_path):
    model = md.build_model(5, _tiny_config(), seed=6)
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(model, path, extra={"factor": "t"})
    back, extra = md.load_checkpoint(path)
    assert extra == {"factor": "t"}
    assert back.n == model.n
    assert back.seed == model.seed
    assert back.config.to_dict() == model.config.to_dict()
    assert sorted(back.params) == sorted(model.params)
    for k in model.params:
        assert back.params[k].tobytes() == model.params[k].tobytes()


def test_checkpoint_save_is_byte_deterministic(tmp_path):
    model = md.build_model(5, _tiny_config(), seed=6)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    md.save_checkpoint(model, p1)
    md.save_checkpoint(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        md.load_checkpoint(path)


def test_checkpoint_rejects_unknown_version(tmp_path):
    model = md.build_model(4, _tiny_config(), seed=0)
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        md.load_checkpoint(path)


def _rewrite_header(path, edit):
    """Replace a checkpoint's JSON header by edit(header), data untouched."""
    raw = path.read_bytes()
    hlen = struct.unpack_from("<II", raw, 4)[1]
    header = edit(json.loads(raw[12:12 + hlen]))
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(raw[:4] + struct.pack("<II", 1, len(blob)) + blob
                     + raw[12 + hlen:])


def test_checkpoint_missing_field_is_version_error(tmp_path):
    model = md.build_model(4, _tiny_config(), seed=0)
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(model, path)
    _rewrite_header(path, lambda h: {k: v for k, v in h.items()
                                     if k != "seed"})
    with pytest.raises(CheckpointError, match="seed"):
        md.load_checkpoint(path)


def _edit_params(edit):
    return lambda h: {**h, "params": edit(h["params"])}


# checkpoint header edits that load_checkpoint must reject
MALFORMED_HEADERS = {
    "number": lambda h: 5,
    "unknown_config_key": lambda h: {
        **h, "model_config": {**h["model_config"], "bogus": 1}},
    "extra_not_object": lambda h: {**h, "extra": 5},
    "negative_d_emb": lambda h: {
        **h, "model_config": {**h["model_config"], "d_emb": -2}},
    "alpha_not_number": lambda h: {
        **h, "model_config": {**h["model_config"], "alpha": "x"}},
    "beta_null": lambda h: {
        **h, "model_config": {**h["model_config"], "beta": None}},
    "alpha_negative": lambda h: {
        **h, "model_config": {**h["model_config"], "alpha": -1.0}},
    "param_without_shape": _edit_params(
        lambda ps: [{"name": ps[0]["name"]}] + ps[1:]),
    "missing_out_b": _edit_params(
        lambda ps: [p for p in ps if p["name"] != "out_b"]),
    "wrong_shape": _edit_params(
        lambda ps: ps[:-1] + [{**ps[-1], "shape": [1, 1]}]),
    "renamed_param": _edit_params(
        lambda ps: ps[:-1] + [{**ps[-1], "name": "out_v"}]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_checkpoint_malformed_header_is_checkpoint_error(tmp_path, case):
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(md.build_model(4, _tiny_config(), seed=0), path,
                       extra={"factor": "t"})
    _rewrite_header(path, MALFORMED_HEADERS[case])
    with pytest.raises(CheckpointError) as info:
        md.load_checkpoint(path)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("kinds", [md.ALL_GRAPH_KINDS, ("learnable",),
                                   ("dynamic",), ("distance", "pattern")])
def test_param_shapes_match_build_model(kinds):
    cfg = md.ModelConfig(graph_kinds=kinds, blocks=[
        md.StBlockConfig(2, [3], 1, 4), md.StBlockConfig(3, [1, 3, 5], 4, 6)])
    model = md.build_model(7, cfg, seed=1)
    shapes = md.param_shapes(7, cfg)
    assert list(shapes) == list(model.params)
    assert {k: v.shape for k, v in model.params.items()} == shapes


def _forbid_build_model(*args, **kwargs):
    raise AssertionError("load_checkpoint must not build a model")


@pytest.mark.parametrize("listed", ["as_config", "as_file"])
def test_checkpoint_header_bounded_by_file_length(tmp_path, monkeypatch,
                                                  listed):
    # a header claiming a million stations must fail on the file's length,
    # before anything of that size is allocated
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(md.build_model(4, _tiny_config(), seed=0), path)
    huge = md.param_shapes(1_000_000, _tiny_config())

    def edit(h):
        h = {**h, "n": 1_000_000}
        if listed == "as_config":
            h["params"] = [{"name": k, "shape": list(huge[k])}
                           for k in sorted(huge)]
        return h

    _rewrite_header(path, edit)
    monkeypatch.setattr(md, "build_model", _forbid_build_model)
    with pytest.raises(CheckpointError):
        md.load_checkpoint(path)


def test_checkpoint_loads_without_build_model(tmp_path, monkeypatch):
    model = md.build_model(4, _tiny_config(), seed=2)
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(model, path)
    monkeypatch.setattr(md, "build_model", _forbid_build_model)
    back, _ = md.load_checkpoint(path)
    assert back.n == 4 and back.seed == 2
    for k in model.params:
        assert back.params[k].tobytes() == model.params[k].tobytes()


@pytest.mark.parametrize("n", [0, -3])
def test_checkpoint_rejects_nonpositive_station_count(tmp_path, n):
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(md.build_model(4, _tiny_config(), seed=0), path)
    _rewrite_header(path, lambda h: {**h, "n": n})
    with pytest.raises(CheckpointError, match="station count"):
        md.load_checkpoint(path)


def test_checkpoint_truncation_detected(tmp_path):
    model = md.build_model(4, _tiny_config(), seed=0)
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - 16])
    with pytest.raises(CheckpointError, match="truncated"):
        md.load_checkpoint(path)
    for k in range(len(raw)):
        path.write_bytes(raw[:k])
        with pytest.raises(CheckpointError):
            md.load_checkpoint(path)
    path.write_bytes(raw + b"\0")
    with pytest.raises(CheckpointError, match="trailing"):
        md.load_checkpoint(path)
