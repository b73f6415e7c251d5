"""Multi-graph spatio-temporal forecaster and its training loop.

The network stacks spatio-temporal blocks: a Chebyshev graph convolution
over stations, a ReLU, a multi-branch temporal convolution, and a residual
connection.  Ahead of the blocks, five adjacency matrices (three static,
one trainable, one recomputed per window) are fused with per-node weights,
symmetrized, and turned into a rescaled Laplacian.  A shared per-node
dense layer maps the remaining time-channel block to the forecast horizon.
"""

from __future__ import annotations

import ctypes
import json
import math
import struct
from dataclasses import dataclass, field, asdict
from typing import Optional, Sequence

import numpy as np

from . import graphs as gr
from . import tape as tp
from .data import (_CHUNK_BYTES, ErrorSums, PackedReader, WeatherSeriesDataset,
                   check_windows, make_windows, window_view, write_packed)
from .errors import (CheckpointError, ConfigError, ShapeError, TrainingError,
                     check_distinct, check_ints, check_reals)

STATIC_KINDS = gr.STATIC_KINDS
ALL_GRAPH_KINDS = gr.MODEL_KINDS

_CKPT_MAGIC = b"W2KC"
_CKPT_VERSION = 1


@dataclass
class StBlockConfig:
    """One spatio-temporal block: graph filter order plus temporal branches."""

    cheb_order: int
    temporal_kernels: list
    channels_in: int
    channels_out: int

    def __post_init__(self):
        check_ints(1, cheb_order=self.cheb_order,
                   channels_in=self.channels_in,
                   channels_out=self.channels_out)
        if not self.temporal_kernels:
            raise ConfigError("at least one temporal branch is required")
        for k in self.temporal_kernels:
            check_ints(1, temporal_kernels=k)
            if k % 2 == 0:
                raise ConfigError(f"temporal_kernels {k} must be odd")

    @property
    def max_kernel(self) -> int:
        return max(self.temporal_kernels)


def default_block_configs(channels_in: int = 1) -> list:
    """Two blocks with linearly growing spatial order and receptive field."""
    return [
        StBlockConfig(2, [3], channels_in, 32),
        StBlockConfig(3, [3, 5], 32, 32),
    ]


@dataclass
class ModelConfig:
    """Architecture settings; the training protocol lives in TrainConfig."""

    w_in: int = 12
    w_out: int = 12
    d: int = 1
    blocks: list = field(default_factory=default_block_configs)
    d_emb: int = 16
    alpha: float = 3.0
    beta: float = 0.5
    graph_kinds: tuple = ALL_GRAPH_KINDS

    def __post_init__(self):
        if not self.blocks:
            raise ConfigError("at least one block is required")
        self.blocks = [b if isinstance(b, StBlockConfig) else
                       StBlockConfig(**b) for b in self.blocks]
        self.graph_kinds = tuple(self.graph_kinds)
        check_ints(1, w_in=self.w_in, w_out=self.w_out, d=self.d,
                   d_emb=self.d_emb)
        check_reals(alpha=self.alpha, beta=self.beta)
        for name in ("alpha", "beta"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be a positive number")
        if not self.graph_kinds:
            raise ConfigError("at least one graph kind is required")
        for k in self.graph_kinds:
            if k not in ALL_GRAPH_KINDS:
                raise ConfigError(f"unknown graph kind {k!r}")
        check_distinct("graph kind", self.graph_kinds)
        if self.blocks[0].channels_in != self.d:
            raise ConfigError(f"first block expects {self.blocks[0].channels_in} "
                              f"input channels but data has {self.d}")
        t = self.w_in
        prev_k = 0
        prev_kernel = 0
        for i, blk in enumerate(self.blocks):
            if blk.cheb_order < prev_k:
                raise ConfigError(
                    f"block {i}: spatial order {blk.cheb_order} decreases "
                    f"(time-space consistency requires non-decreasing orders)")
            if blk.max_kernel < prev_kernel:
                raise ConfigError(
                    f"block {i}: max temporal kernel {blk.max_kernel} "
                    "decreases (time-space consistency)")
            if i > 0 and blk.channels_in != self.blocks[i - 1].channels_out:
                raise ConfigError(f"block {i}: channel mismatch with block "
                                  f"{i - 1}")
            t = t - (blk.max_kernel - 1)
            if t < 1:
                raise ConfigError(f"block {i}: temporal kernels exhaust the "
                                  f"window ({t} steps left)")
            prev_k, prev_kernel = blk.cheb_order, blk.max_kernel

    @property
    def t_remaining(self) -> int:
        t = self.w_in
        for blk in self.blocks:
            t -= blk.max_kernel - 1
        return t

    def to_dict(self) -> dict:
        d = asdict(self)
        d["graph_kinds"] = list(self.graph_kinds)
        return d


# the stepped schedule: 5% off every 10 epochs over the first 50, then held
_LR_DECAY_FACTOR = 0.05
_LR_DECAY_EVERY = 10
_LR_DECAY_WINDOW = 50


@dataclass
class TrainConfig:
    """Optimization protocol: MAE loss under Adam with a stepped schedule."""

    epochs: int = 100
    early_stop_patience: int = 50
    batch_size: int = 32
    lr0: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        check_ints(1, epochs=self.epochs,
                   early_stop_patience=self.early_stop_patience,
                   batch_size=self.batch_size)
        check_ints(0, seed=self.seed)
        # the range rejects nan and inf with its own text
        check_reals(finite=False, lr0=self.lr0)
        if not 0.0 <= self.lr0 < math.inf:
            raise ConfigError(f"learning rate {self.lr0} is not nonnegative "
                              "and finite")

    def lr_at(self, epoch: int) -> float:
        """Learning rate for a 1-based epoch index; frozen past the window."""
        max_steps = _LR_DECAY_WINDOW // _LR_DECAY_EVERY - 1
        k = min((epoch - 1) // _LR_DECAY_EVERY, max_steps)
        return self.lr0 * (1.0 - _LR_DECAY_FACTOR) ** k


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    val_mae: list = field(default_factory=list)
    lr: list = field(default_factory=list)
    best_epoch: int = 0
    stopped_early: bool = False

    def to_dict(self) -> dict:
        return {
            "epochs": [
                {"epoch": i + 1, "train_loss": self.train_loss[i],
                 "val_mae": self.val_mae[i], "lr": self.lr[i]}
                for i in range(len(self.train_loss))
            ],
            "best_epoch": self.best_epoch,
            "stopped_early": self.stopped_early,
        }


@dataclass
class MultiGraphForecaster:
    """Architecture config plus a flat named-parameter store."""

    config: ModelConfig
    n: int
    params: dict
    seed: int = 0


# ---------------------------------------------------------------------------
# construction


def param_shapes(n_nodes: int, config: ModelConfig) -> dict:
    """Name -> shape of every parameter build_model makes; allocates none."""
    shapes: dict = {}
    for i, blk in enumerate(config.blocks):
        c_in, c_out = blk.channels_in, blk.channels_out
        shapes[f"block{i}_cheb"] = (blk.cheb_order, c_in, c_out)
        for j, k in enumerate(blk.temporal_kernels):
            shapes[f"block{i}_branch{j}"] = (k, c_out, c_out)
        shapes[f"block{i}_fuse"] = (len(blk.temporal_kernels) * c_out, c_out)
        shapes[f"block{i}_fuse_bias"] = (c_out,)
        shapes[f"block{i}_res"] = (c_in, c_out)
    e = config.d_emb
    if "learnable" in config.graph_kinds:
        shapes.update(emb1=(n_nodes, e), emb2=(n_nodes, e),
                      emb_theta1=(e, e), emb_theta2=(e, e))
    if "dynamic" in config.graph_kinds:
        shapes.update(dyn_w1=(config.w_in, e), dyn_w2=(config.w_in, e))
    for kind in config.graph_kinds:
        shapes[f"fusion_{kind}"] = (n_nodes, n_nodes)
    c_last = config.blocks[-1].channels_out
    shapes["out_w"] = (config.t_remaining * c_last, config.w_out * config.d)
    shapes["out_b"] = (config.w_out * config.d,)
    return shapes


def build_model(n_nodes: int, config: Optional[ModelConfig] = None,
                seed: int = 0) -> MultiGraphForecaster:
    """Draw the parameters of param_shapes, in its order, from one seed.

    Fusion weights start at 1/|S| and biases at 0; node embeddings are
    uniform in +-1/sqrt(d_emb), the rest in +-1/sqrt(fan-in over all axes
    but the last).
    """
    if config is None:
        config = ModelConfig()
    rng = np.random.default_rng(seed)
    params: dict = {}
    for name, shape in param_shapes(n_nodes, config).items():
        if name.startswith("fusion_"):
            params[name] = np.full(shape, 1.0 / len(config.graph_kinds))
        elif name.endswith("_bias") or name == "out_b":
            params[name] = np.zeros(shape)
        else:
            fan_in = config.d_emb if name in ("emb1", "emb2") \
                else math.prod(shape[:-1])
            bound = 1.0 / np.sqrt(fan_in)
            params[name] = rng.uniform(-bound, bound, shape)
    return MultiGraphForecaster(config, n_nodes, params, seed)


# ---------------------------------------------------------------------------
# forward pieces (tape ops; accept tensors or arrays)


def temporal_multibranch(x, kernels: Sequence[int], branch_weights: Sequence,
                         fuse, fuse_bias):
    """Parallel 1-D convolutions over time, center-aligned, then a 1x1 mix.

    x: [M, T, C]; each branch_weights[j]: [kernels[j], C, C_br]; shorter
    branches are center-cropped to the longest branch's output length.
    Cropping a kernel-k branch equals zero-padding its kernel symmetrically
    to k_max taps, and the mix is linear, so the block runs as one
    convolution with kernel W_eff[j] = sum_br pad(W_br)[j] @ fuse_br, where
    fuse_br is the branch's row block of fuse.  W_eff is built on the tape,
    so every branch weight and fuse still gets its gradient.
    """
    k_max = max(kernels)
    w_eff = None
    row = 0
    for k, w in zip(kernels, branch_weights):
        c_br = tp._as_array(w).shape[2]
        term = tp.matmul(w, tp.slice_axis(fuse, 0, row, row + c_br))
        row += c_br
        lead = (k_max - k) // 2
        if lead:
            pad = np.zeros((lead,) + term.shape[1:])
            term = tp.concat([pad, term, pad], axis=0)
        w_eff = term if w_eff is None else tp.add(w_eff, term)
    if row != tp._as_array(fuse).shape[0]:
        raise ShapeError(f"temporal_multibranch: branches give {row} "
                         f"channels, fuse takes {tp._as_array(fuse).shape[0]}")
    return tp.add_bias(tp.conv1d(x, w_eff), fuse_bias)


# the per-time-slice Chebyshev filter; kept under this name because profiling
# tools look it up here to time each block's graph convolution
_cheb_over_time = gr.cheb_filter_op


def st_block_forward(x, blk: StBlockConfig, l_tilde, weights: dict,
                     prefix: str):
    """One block: graph filter, relu, temporal branches, residual add."""
    b, n, t_in, c_in = tp._as_array(x).shape
    t_out = t_in - (blk.max_kernel - 1)
    spatial = tp.relu(_cheb_over_time(l_tilde, weights[prefix + "_cheb"], x))
    flat = tp.reshape(spatial, (b * n, t_in, blk.channels_out))
    branches = [weights[f"{prefix}_branch{j}"]
                for j in range(len(blk.temporal_kernels))]
    temporal = temporal_multibranch(flat, blk.temporal_kernels, branches,
                                    weights[prefix + "_fuse"],
                                    weights[prefix + "_fuse_bias"])
    # nothing below reads the filter output: off the tape this frees it
    # before the residual; on a tape the closures still hold what they read
    del spatial, flat
    temporal = tp.reshape(temporal, (b, n, t_out, blk.channels_out))
    lead = (blk.max_kernel - 1) // 2
    res = tp.slice_axis(x, 2, lead, lead + t_out)
    res = tp.reshape(res, (b, n * t_out, c_in))
    res = tp.matmul(res, weights[prefix + "_res"])
    res = tp.reshape(res, (b, n, t_out, blk.channels_out))
    return tp.add(temporal, res)


def _fused_graph(weights: dict, cfg: ModelConfig, inputs: np.ndarray,
                 static_graphs: dict):
    """Fused adjacency at the rank it varies.

    Without the dynamic graph every window of the step shares one fused
    graph, an [N, N] matrix; the dynamic graph makes it a per-window
    [B, N, N] stack.
    """
    adjs = {}
    for kind in cfg.graph_kinds:
        if kind in STATIC_KINDS:
            if kind not in static_graphs:
                raise ConfigError(f"model needs the {kind} graph but it was "
                                  "not supplied")
            adjs[kind] = np.asarray(static_graphs[kind])
        elif kind == "learnable":
            adjs[kind] = gr.learnable_graph_op(
                weights["emb1"], weights["emb2"], weights["emb_theta1"],
                weights["emb_theta2"], cfg.alpha)
        else:
            # node characteristics: the window of the first factor channel
            z = np.ascontiguousarray(inputs[:, :, :, 0])
            adjs[kind] = gr.dynamic_graph_op(z, weights["dyn_w1"],
                                             weights["dyn_w2"], cfg.beta)
    return gr.fuse_graphs_op(adjs, {k: weights[f"fusion_{k}"] for k in adjs})


def _fused_laplacian(weights: dict, cfg: ModelConfig, inputs: np.ndarray,
                     static_graphs: dict):
    """Rescaled Laplacian of the symmetrized fused graph."""
    # off the tape the fusion terms die with _fused_graph's frame, so only
    # the symmetrized graph is live while the spectral step runs
    return tp.scaled_laplacian_op(gr.symmetrize_op(_fused_graph(
        weights, cfg, inputs, static_graphs)))


def forward_on_tape(weights: dict, cfg: ModelConfig, n: int,
                    inputs: np.ndarray, static_graphs: dict):
    """Differentiable forward pass; weights may be tape tensors or arrays."""
    if inputs.ndim != 4 or inputs.shape[1] != n or \
            inputs.shape[2] != cfg.w_in or inputs.shape[3] != cfg.d:
        raise ConfigError(f"expected inputs [B, {n}, {cfg.w_in}, {cfg.d}], "
                          f"got {inputs.shape}")
    batch = inputs.shape[0]
    l_tilde = _fused_laplacian(weights, cfg, inputs, static_graphs)
    x = tp.TapeTensor(inputs)
    for i, blk in enumerate(cfg.blocks):
        x = st_block_forward(x, blk, l_tilde, weights, f"block{i}")
    flat = cfg.t_remaining * cfg.blocks[-1].channels_out
    x = tp.reshape(x, (batch, n, flat))
    out = tp.add_bias(tp.matmul(x, weights["out_w"]), weights["out_b"])
    return tp.reshape(out, (batch, n, cfg.w_out, cfg.d))


def _chunk_windows(n: int, cfg: ModelConfig) -> int:
    """Windows per chunk, so that the widest activation, 8 N w_in C_out
    bytes a window, spans at most _CHUNK_BYTES (at least one window)."""
    widest = max(blk.channels_out for blk in cfg.blocks)
    return max(1, _CHUNK_BYTES // (8 * n * cfg.w_in * widest))


# glibc's mallopt parameter: free bytes the heap keeps at its top instead
# of handing them back to the kernel
_M_TOP_PAD = -2


def _keep_chunk_heap() -> None:
    """Let the heap keep what one chunk frees for the next chunk.

    Each chunk frees its buffers, about 8 _CHUNK_BYTES for the default
    model, before the next chunk allocates the same shapes; glibc's default
    trims them and the next chunk faults them back in page by page.  A top
    pad of 32 _CHUNK_BYTES keeps them: on a 2-core Xeon with glibc 2.36 a
    warm n=100 two-epoch training takes 15-42 minor faults with it and
    439k-458k without.  Without glibc this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), \
        ctypes.c_int
    mallopt(_M_TOP_PAD, 32 * _CHUNK_BYTES)


def forward(model: MultiGraphForecaster, inputs: np.ndarray,
            static_graphs: dict) -> np.ndarray:
    """Plain prediction pass: [B, N, W', D] windows to [B, N, W, D]."""
    return forward_on_tape(model.params, model.config, model.n, inputs,
                           static_graphs).values


def _forecast_chunks(model: MultiGraphForecaster, ds: WeatherSeriesDataset,
                     static_graphs: dict):
    """(batch, forecasts) for every window of a split, in window order,
    one chunk of _chunk_windows windows at a time; a split too short for
    one window raises ConfigError here, before the first chunk.

    Every op of the forward works per window, so the chunk size moves no
    byte of the forecasts.
    """
    cfg = model.config
    check_windows(cfg.w_in, cfg.w_out, forecast=ds)
    _keep_chunk_heap()
    batches = make_windows(ds, cfg.w_in, cfg.w_out,
                           batch_size=_chunk_windows(model.n, cfg))
    return ((batch, forward(model, batch.inputs, static_graphs))
            for batch in batches)


def predict_dataset(model: MultiGraphForecaster, ds: WeatherSeriesDataset,
                    static_graphs: dict):
    """Forecast every window of a split; returns (preds, targets, starts):
    the forecasts, then window_view's read-only targets and labels.

    A caller that only scores the split uses score_dataset, which holds no
    stack of the forecasts.
    """
    cfg = model.config
    view, starts = window_view(ds, cfg.w_in, cfg.w_out)
    # filled in place: no list of chunks and no concatenated copy
    preds = np.empty((len(starts), ds.n_stations, cfg.w_out, cfg.d))
    at = 0
    for _, chunk in _forecast_chunks(model, ds, static_graphs):
        preds[at:at + len(chunk)] = chunk
        at += len(chunk)
    return preds, view[:, :, cfg.w_in:], starts


def score_dataset(model: MultiGraphForecaster, ds: WeatherSeriesDataset,
                  static_graphs: dict) -> ErrorSums:
    """Score every window of a split as it is forecast.

    Each chunk's errors go into one ErrorSums, so no stack of the split's
    forecasts, targets or errors is formed.
    """
    cfg = model.config
    sums = ErrorSums(ds.n_stations, cfg.w_out, cfg.d)
    for batch, chunk in _forecast_chunks(model, ds, static_graphs):
        sums.add(chunk, batch.targets)
    return sums


# ---------------------------------------------------------------------------
# training


def _mae_loss(pred_t, targets: np.ndarray):
    return tp.reduce_mean(tp.absolute(tp.sub(pred_t, targets)))


def _chunk_gradients(params: dict, cfg: ModelConfig, n: int,
                     inputs: np.ndarray, targets: np.ndarray,
                     static_graphs: dict):
    """MAE of one chunk and its parameter gradients, on a tape of its own
    that dies on return."""
    t = tp.Tape()
    tparams = {k: t.param(v) for k, v in params.items()}
    loss = _mae_loss(forward_on_tape(tparams, cfg, n, inputs, static_graphs),
                     targets)
    store = tp.backward(loss)
    return float(loss.values), {k: tp.grad_of(store, tparams[k])
                                for k in params}


def train(model: MultiGraphForecaster, train_ds: WeatherSeriesDataset,
          val_ds: WeatherSeriesDataset, static_graphs: dict,
          cfg: TrainConfig, progress=None):
    """Optimize MAE with Adam under the stepped schedule; keep the best.

    Each batch runs as consecutive chunks of _chunk_windows windows, each
    with its own tape.  The step's loss and gradient are the chunks' sums,
    each weighted by the chunk's share of the batch's windows: the
    whole-batch mean up to rounding, and the same bytes when the batch is
    one chunk.  Validation is scored chunk by chunk (score_dataset), and
    the best snapshot is the lowest validation MAE; training
    stops early when validation has not improved for the configured
    patience.  ``progress(epoch, train_loss, val_mae, lr)`` is called after
    each epoch when given.  A training or validation split too short for
    one window raises ConfigError before the first step.
    """
    mcfg = model.config
    check_windows(mcfg.w_in, mcfg.w_out, training=train_ds, validation=val_ds)
    chunk = _chunk_windows(model.n, mcfg)
    _keep_chunk_heap()
    rng = np.random.default_rng(cfg.seed)
    # every parameter-sized buffer is allocated here, once: Adam updates
    # params, m and v in place, the step's gradient sum fills grads, and an
    # improvement copies into best_params
    params = {k: v.copy() for k, v in model.params.items()}
    grads = {k: np.empty_like(v) for k, v in params.items()}
    best_params = {k: v.copy() for k, v in params.items()}
    state = tp.AdamState()
    history = TrainHistory()
    best_val = np.inf
    best_epoch = 0

    for epoch in range(1, cfg.epochs + 1):
        lr = cfg.lr_at(epoch)
        losses = []
        for step, batch in enumerate(make_windows(
                train_ds, mcfg.w_in, mcfg.w_out,
                batch_size=cfg.batch_size, shuffle_rng=rng)):
            size = len(batch.inputs)
            loss = 0.0
            for buf in grads.values():
                buf.fill(0.0)
            for at in range(0, size, chunk):
                inputs = batch.inputs[at:at + chunk]
                lv, g = _chunk_gradients(params, mcfg, model.n, inputs,
                                         batch.targets[at:at + chunk],
                                         static_graphs)
                if not np.isfinite(lv):
                    raise TrainingError(f"non-finite loss at epoch {epoch}, "
                                        f"step {step}")
                share = len(inputs) / size
                loss += share * lv
                # g's arrays are backward's own and may be shared between
                # parameters, so they are read, never written
                for k, v in g.items():
                    grads[k] += share * v
            losses.append(loss)
            tp.adam_step(params, grads, state, lr)

        current = MultiGraphForecaster(mcfg, model.n, params, model.seed)
        abs_mean, _ = score_dataset(current, val_ds, static_graphs).means()
        # the overall MAE an evaluation report gives the same split
        val_mae = float(abs_mean.mean(axis=0).mean())
        history.train_loss.append(float(np.mean(losses)))
        history.val_mae.append(val_mae)
        history.lr.append(lr)
        if progress is not None:
            progress(epoch, history.train_loss[-1], val_mae, lr)
        if val_mae < best_val:
            best_val = val_mae
            for k, v in params.items():
                np.copyto(best_params[k], v)
            best_epoch = epoch
        elif epoch - best_epoch >= cfg.early_stop_patience:
            history.stopped_early = True
            break
    history.best_epoch = best_epoch
    return MultiGraphForecaster(mcfg, model.n, best_params, model.seed), history


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: MultiGraphForecaster, path,
                    extra: Optional[dict] = None) -> None:
    """Binary checkpoint: JSON header plus raw parameter buffers."""
    names = sorted(model.params)
    header = {
        "model_config": model.config.to_dict(),
        "n": model.n,
        "seed": model.seed,
        "params": [{"name": k, "shape": list(model.params[k].shape)}
                   for k in names],
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [_CKPT_MAGIC, struct.pack("<II", _CKPT_VERSION, len(blob)), blob]
    write_packed(path, parts + [model.params[k] for k in names])


def _checkpoint_header(path, header) -> tuple:
    """(config, n, seed, parameter shapes, extra) of a checkpoint header,
    checked against what build_model makes for its config."""
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: checkpoint header is not an object")
    for fld in ("model_config", "n", "seed", "params"):
        if fld not in header:
            raise CheckpointError(f"{path}: checkpoint header lacks the "
                                  f"{fld!r} field (incompatible version)")
    extra = header.get("extra", {})
    if not isinstance(extra, dict):
        raise CheckpointError(f"{path}: checkpoint 'extra' is not an object")
    try:
        config = ModelConfig(**header["model_config"])
        n, seed = int(header["n"]), int(header["seed"])
        if n < 1:
            raise ConfigError(f"station count {n}")
        shapes = param_shapes(n, config)
        listed = [(p["name"], p["shape"]) for p in header["params"]]
    except (ConfigError, TypeError, ValueError, LookupError,
            AttributeError) as e:
        raise CheckpointError(f"{path}: incompatible checkpoint header "
                              f"({type(e).__name__}: {e})") from None
    if listed != [(k, list(shapes[k])) for k in sorted(shapes)]:
        raise CheckpointError(f"{path}: checkpoint parameters do not match "
                              "its model config")
    return config, n, seed, shapes, extra


def load_checkpoint(path) -> tuple:
    """Read a save_checkpoint file: (model, the header's extra dict).

    Any malformed file raises CheckpointError, including one whose
    parameter names or shapes differ from what build_model makes for the
    stored config and station count.  Shapes come from param_shapes and
    are bounded by the file's length before any parameter is allocated.
    """
    with PackedReader(path, "checkpoint", _CKPT_MAGIC, _CKPT_VERSION,
                      CheckpointError) as cur:
        (hlen,) = cur.unpack("I")
        try:
            header = json.loads(cur.text(hlen))
        except json.JSONDecodeError:
            raise CheckpointError(f"{path}: corrupt checkpoint header") \
                from None
        config, n, seed, shapes, extra = _checkpoint_header(path, header)
        if 8 * sum(math.prod(s) for s in shapes.values()) \
                > cur.size - cur.pos:
            raise cur.corrupt()
        names = sorted(shapes)
        params = {k: cur.array("<f8", shapes[k]) for k in names}
        cur.end()
    for k in names:
        if not np.isfinite(params[k]).all():
            raise CheckpointError(f"{path}: parameter {k!r} has non-finite "
                                  "values")
    return MultiGraphForecaster(config, n, params, seed), extra
