"""Station-network graph construction, fusion, and spectral filtering.

Five adjacency matrices over the same station set: geographic distance,
nearest-neighbor, series-pattern correlation, a trainable embedding graph,
and a per-window dynamic graph.  Fusion combines them with per-node
trainable weights.  The spectral half symmetrizes the fused graph and
filters signals with Chebyshev polynomials of its rescaled Laplacian.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from . import tape as tp
from .data import (PackedReader, WeatherSeriesDataset, _pack_str,
                   write_packed)
from .errors import (ConfigError, PipelineError, ShapeError, StructuralError,
                     check_ints, check_reals)

EARTH_RADIUS_KM = 6371.0

# graphs built from the stations' data, then every graph the model can fuse
STATIC_KINDS = ("distance", "neighbor", "pattern")
MODEL_KINDS = STATIC_KINDS + ("learnable", "dynamic")

# default factor set for the pattern graph: temperature, visibility, humidity
PATTERN_FACTORS = ("t", "hv2", "rh")

EPSILON = 0.1  # default sparsity threshold of the distance kernel


@dataclass
class Adjacency:
    """One static graph over the station set."""

    n: int
    weights: np.ndarray
    kind: str

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.kind not in STATIC_KINDS:
            raise ConfigError(f"unknown graph kind {self.kind!r}")
        if self.weights.shape != (self.n, self.n):
            raise ConfigError(f"adjacency shape {self.weights.shape} "
                              f"does not match n={self.n}")
        if not np.isfinite(self.weights).all():
            raise StructuralError(f"{self.kind} graph has non-finite entries")
        if np.diagonal(self.weights).any():
            raise StructuralError(f"{self.kind} graph has nonzero diagonal")
        # pattern correlations are signed
        if self.kind != "pattern" and (self.weights < 0.0).any():
            raise StructuralError(f"{self.kind} graph has negative entries")


@dataclass
class GraphSet:
    """Built graphs plus the settings that produced them."""

    n: int
    graphs: dict
    meta: dict = field(default_factory=dict)

    def __getitem__(self, kind: str) -> Adjacency:
        return self.graphs[kind]


# ---------------------------------------------------------------------------
# distances


def pairwise_distances_km(lats, lons) -> np.ndarray:
    """All-pairs great-circle distances in km.

    Computed with an elementwise-symmetric formula so the result is
    bitwise symmetric.
    """
    phi = np.radians(np.asarray(lats, dtype=np.float64))
    lam = np.radians(np.asarray(lons, dtype=np.float64))
    dphi = 0.5 * (phi[:, None] - phi[None, :])
    dlam = 0.5 * (lam[:, None] - lam[None, :])
    h = np.sin(dphi) ** 2 \
        + np.cos(phi)[:, None] * np.cos(phi)[None, :] * np.sin(dlam) ** 2
    h = np.clip(h, 0.0, 1.0)
    d = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(h))
    np.fill_diagonal(d, 0.0)
    return d


def auto_sigma(dist: np.ndarray) -> float:
    """Default kernel width: mean off-diagonal pairwise distance."""
    n = dist.shape[0]
    if n < 2:
        return 1.0
    off = ~np.eye(n, dtype=bool)
    return float(dist[off].mean())


# ---------------------------------------------------------------------------
# static graph builders


def build_distance_graph(dist: np.ndarray, sigma: float,
                         epsilon: float) -> Adjacency:
    """Thresholded Gaussian kernel on a great-circle distance matrix."""
    check_reals(finite=False, sigma=sigma, epsilon=epsilon)
    if not 0.0 < sigma < np.inf:
        raise ConfigError(f"sigma {sigma} must be positive and finite")
    if not 0.0 <= epsilon < 1.0:
        raise ConfigError("epsilon must lie in [0, 1)")
    w = np.exp(-(dist ** 2) / sigma ** 2)
    w = np.where(w >= epsilon, w, 0.0)
    np.fill_diagonal(w, 0.0)
    return Adjacency(len(dist), w, "distance")


def check_neighbor_count(n_adjacent: int, n: int) -> None:
    """A neighbor-graph degree is an integer in [1, n), n stations."""
    check_ints(1, n_adjacent=n_adjacent)
    if n_adjacent >= n:
        raise ConfigError(f"n_adjacent={n_adjacent} must be below the "
                          f"station count {n}")


def build_neighbor_graph(dist: np.ndarray, n_adjacent: int) -> Adjacency:
    """Directed k-nearest graph: row i marks the n_adjacent closest stations.

    Distance ties break toward the lower station index, so the build is
    deterministic.
    """
    n = len(dist)
    check_neighbor_count(n_adjacent, n)
    # a station is never its own neighbor; the stable sort keeps ties in
    # index order
    d = dist.copy()
    np.fill_diagonal(d, np.inf)
    nearest = np.argsort(d, axis=1, kind="stable")[:, :n_adjacent]
    w = np.zeros((n, n))
    w[np.arange(n)[:, None], nearest] = 1.0
    return Adjacency(n, w, "neighbor")


def _pearson_matrix(series: np.ndarray, stations, factor: str) -> np.ndarray:
    """Row-wise Pearson correlations, exactly symmetric by construction."""
    x = series - series.mean(axis=1, keepdims=True)
    norms = np.sqrt((x * x).sum(axis=1))
    for i, nv in enumerate(norms):
        # ptp catches exact constants whose float mean is off by rounding
        if nv <= 0.0 or np.ptp(series[i]) == 0.0:
            raise PipelineError(
                f"station {stations[i].station_id}, factor {factor!r}: "
                "constant training series, correlation undefined")
    z = x / norms[:, None]
    c = z @ z.T
    r = (c + c.T) / 2.0
    return np.clip(r, -1.0, 1.0)


def pattern_factors_used(ds: WeatherSeriesDataset,
                         factors: Sequence[str] = PATTERN_FACTORS) -> list:
    """The given factors the dataset has, in order, or else all of its own."""
    return [f for f in factors if f in ds.factors] or list(ds.factors)


def build_pattern_graph(train_ds: WeatherSeriesDataset,
                        factors: Sequence[str] = PATTERN_FACTORS) -> Adjacency:
    """Mean Pearson-correlation graph over pattern_factors_used(train_ds,
    factors), computed on the training series only."""
    mats = []
    for f in pattern_factors_used(train_ds, factors):
        d = train_ds.factor_index(f)
        mats.append(_pearson_matrix(train_ds.values[:, :, d],
                                    train_ds.stations, f))
    r = np.mean(mats, axis=0)
    r = np.clip(r, -1.0, 1.0)
    np.fill_diagonal(r, 0.0)
    return Adjacency(train_ds.n_stations, r, "pattern")


# ---------------------------------------------------------------------------
# trainable graphs and fusion (tape ops; accept tensors or arrays)


def _antisym_graph(x1, w1, x2, w2, s: float) -> tp.TapeTensor:
    """ReLU(tanh(s (M1 M2^T - M2 M1^T))) with M_i = tanh(s X_i W_i).

    One-sided by antisymmetry: A_ij and A_ji are never both positive.
    X_i is [N, F] or [B, N, F] and W_i is [F, E].  One tape node: since
    M2 M1^T = (M1 M2^T)^T, the forward forms one product G = M1 M2^T and
    takes G - G^T.  G's gradient gG is antisymmetric, so the backward too
    needs one product per factor: gM1 = gG M2 and gM2 = -gG M1.
    """
    x1v, w1v, x2v, w2v = (tp._as_array(a) for a in (x1, w1, x2, w2))
    if x1v.ndim not in (2, 3) or x1v.shape[:-1] != x2v.shape[:-1] \
            or w1v.ndim != 2 or w2v.shape[1:] != w1v.shape[1:] \
            or x1v.shape[-1] != w1v.shape[0] \
            or x2v.shape[-1] != w2v.shape[0]:
        raise ShapeError(f"antisym_graph: X1 {x1v.shape}, W1 {w1v.shape}, "
                         f"X2 {x2v.shape}, W2 {w2v.shape}")
    m1 = np.tanh(s * (x1v @ w1v))
    m2 = np.tanh(s * (x2v @ w2v))
    # a contiguous M2^T: the stacked GEMM is faster than on a view
    g = m1 @ np.ascontiguousarray(np.swapaxes(m2, -1, -2))
    out = g - np.swapaxes(g, -1, -2)
    out *= s
    np.tanh(out, out=out)
    np.maximum(out, 0.0, out=out)
    # X_i's gradient reads W_i, and W_i's reads X_i
    factors = ((m1, m2, 1.0, w1v if tp._on_tape(x1) else None,
                x1v if tp._on_tape(w1) else None),
               (m2, m1, -1.0, w2v if tp._on_tape(x2) else None,
                x2v if tp._on_tape(w2) else None))

    def back(g):
        # relu's mask and tanh's 1 - h^2 both read the output: h = out
        # wherever the mask is set
        gd = out * out
        np.subtract(1.0, gd, out=gd)
        gd *= g
        gd *= out > 0.0
        gd *= s
        gg = gd - np.swapaxes(gd, -1, -2)
        grads = []
        for m, other, sign, keep_w, keep_x in factors:
            gp = gg @ other
            gp *= 1.0 - m * m
            gp *= sign * s
            grads.append(None if keep_w is None
                         else gp @ tp._transposed(keep_w))
            grads.append(None if keep_x is None else
                         keep_x.reshape(-1, keep_x.shape[-1]).T
                         @ gp.reshape(-1, gp.shape[-1]))
        return tuple(grads)

    return tp._emit("antisym_graph", (x1, w1, x2, w2), out, back)


def learnable_graph_op(e1, e2, theta1, theta2, alpha: float) -> tp.TapeTensor:
    """Differentiable embedding graph; accepts tape tensors or arrays."""
    return _antisym_graph(e1, theta1, e2, theta2, alpha)


def dynamic_graph_op(z, w1, w2, beta: float) -> tp.TapeTensor:
    """Differentiable per-window graph from flattened inputs.

    z is [N, W'*D] for one window or [B, N, W'*D] for a batch.
    """
    return _antisym_graph(z, w1, z, w2, beta)


def fuse_graphs_op(adjs: dict, weights: dict) -> tp.TapeTensor:
    """Differentiable weighted elementwise sum over the graph set.

    Every weight is [N, N]; a graph is [N, N], or [B, N, N] for one that
    varies per window.  One tape node: the [N, N] terms are summed in
    sorted-kind order, then each [B, N, N] term is added by broadcasting,
    so the shared part is formed once, not once per window.
    """
    if set(adjs) != set(weights):
        raise ConfigError(f"graph set {sorted(adjs)} does not match fusion "
                          f"weights {sorted(weights)}")
    av = {k: tp._as_array(a) for k, a in adjs.items()}
    wv = {k: tp._as_array(w) for k, w in weights.items()}
    kinds = sorted(av, key=lambda k: (av[k].ndim, k))
    n = wv[kinds[0]].shape[-1]
    if any(wv[k].shape != (n, n) or av[k].shape[-2:] != (n, n)
           or av[k].ndim not in (2, 3) for k in kinds) \
            or len({av[k].shape for k in kinds if av[k].ndim == 3}) > 1:
        raise ShapeError("fuse_graphs_op: graphs "
                         f"{[av[k].shape for k in kinds]}, weights "
                         f"{[wv[k].shape for k in kinds]}")
    total = None
    for k in kinds:
        term = wv[k] * av[k]
        if total is None:
            total = term
        elif term.ndim > total.ndim:
            # the per-window term takes the shared sum by broadcasting
            term += total
            total = term
        else:
            total += term
    # a weight's gradient reads its graph, and a graph's its weight
    keep = [(av[k].ndim, av[k] if tp._on_tape(weights[k]) else None,
             wv[k] if tp._on_tape(adjs[k]) else None) for k in kinds]

    def back(g):
        shared = g.sum(axis=0) if g.ndim == 3 else g
        grads = []
        for ndim, keep_a, keep_w in keep:
            gk = g if ndim == 3 else shared
            gw = None if keep_a is None else gk * keep_a
            if gw is not None and gw.ndim == 3:
                gw = gw.sum(axis=0)
            grads += [gw, None if keep_w is None else gk * keep_w]
        return tuple(grads)

    inputs = [t for k in kinds for t in (weights[k], adjs[k])]
    return tp._emit("fuse_graphs", inputs, total, back)


# ---------------------------------------------------------------------------
# spectral machinery


def symmetrize_op(a) -> tp.TapeTensor:
    """(|A| + |A|^T) / 2 over the last two axes of [N, N] or [B, N, N].

    One node; its gradient is sign(A) (G + G^T) / 2.  The closure keeps
    sign(A) in float32, which holds -1, 0, 1 and nan exactly, not A.
    """
    av = tp._as_array(a)
    aa = np.abs(av)
    out = aa + np.swapaxes(aa, -1, -2)
    out *= 0.5
    sign = np.sign(av).astype(np.float32)
    return tp._emit("symmetrize", (a,), out, lambda g: (
        sign * ((g + np.swapaxes(g, -1, -2)) / 2.0),))


def cheb_filter_op(l_tilde, theta, x) -> tp.TapeTensor:
    """Chebyshev filter y = sum_k T_k(L~) x theta_k, no eigendecomposition.

    T_0 = I, T_1 = L~, T_k = 2 L~ T_{k-1} - T_{k-2}; K = theta.shape[0].

    l_tilde: [N, N], shared by every window, or [B, N, N]; theta:
    [K, C_in, C_out]; x: [B, N, T, C_in], the one signal layout.  Every
    time slice is filtered: the recurrence runs on [B, N, T*C_in] and
    theta_k mixes the channels of each (node, time) row.

    The forward runs one window at a time: it sets the window's K terms
    side by side and mixes their channels with one GEMM, against theta
    reshaped to [K*C_in, C_out].  One tape node with a hand-written
    backward, which walks the recurrence in reverse one window at a time,
    in a few reused window-sized buffers; theta's gradient is one GEMM per
    order over the whole batch, and an [N, N] L~ gets its gradient summed
    over the batch.
    """
    lv, thv, xv = (tp._as_array(a) for a in (l_tilde, theta, x))
    if thv.ndim != 3 or xv.ndim != 4 or xv.shape[-1] != thv.shape[1] \
            or lv.ndim not in (2, 3) or lv.shape[-2:] != (xv.shape[1],) * 2 \
            or (lv.ndim == 3 and lv.shape[0] != xv.shape[0]):
        raise ShapeError(f"cheb_filter_op: L~ {lv.shape}, theta "
                         f"{thv.shape}, x {xv.shape}")
    order, c_in, c_out = thv.shape
    batch, n, n_steps = xv.shape[:3]
    x_shape, shared_l = xv.shape, lv.ndim == 2
    # the recurrence runs on signals; theta_k acts on their (node, time) rows
    signal = xv.reshape(batch, n, -1)
    n_rows = n * n_steps  # rows per window
    on_tape = tp._tape_of(l_tilde, theta, x) is not None
    # the closure holds arrays only: a tensor would tie the tape into a
    # reference cycle that only the garbage collector frees
    need_x = tp._on_tape(x)
    # T_1 x .. T_{K-1} x: on the tape the whole batch's, which the backward
    # reads; off it one window's, reused.  T_0 x is x itself, so the buffer
    # holds no copy of it.
    terms = np.empty((order - 1,) + (signal.shape if on_tape
                                     else signal.shape[1:]))
    # one window's K terms side by side, so theta is one GEMM per window
    chunk = np.empty((n_rows, order, c_in))
    theta_flat = thv.reshape(order * c_in, c_out)
    out = np.empty((batch, n_rows, c_out))
    for b in range(batch):
        xb = signal[b]
        lb = lv if shared_l else lv[b]
        tb = terms[:, b] if on_tape else terms
        chunk[:, 0] = xb.reshape(n_rows, c_in)
        for k in range(1, order):
            np.matmul(lb, xb if k == 1 else tb[k - 2], out=tb[k - 1])
            if k > 1:
                tb[k - 1] *= 2.0
                tb[k - 1] -= xb if k == 2 else tb[k - 3]
            chunk[:, k] = tb[k - 1].reshape(n_rows, c_in)
        np.matmul(chunk.reshape(n_rows, -1), theta_flat, out=out[b])
    basis = [signal, *terms] if on_tape else None

    def back(g):
        g = g.reshape(batch, n_rows, c_out)
        g_flat = g.reshape(-1, c_out)
        g_theta = np.empty_like(thv)
        for k in range(order):
            g_theta[k] = basis[k].reshape(-1, c_in).T @ g_flat
        theta_t = np.ascontiguousarray(thv.transpose(0, 2, 1))
        lt = tp._transposed(lv)
        g_l = np.zeros(lv.shape)
        # a shared L~'s gradient, per order k > 0, summed over the windows
        # from zero in window order, as numpy sums a [B, N, N] stack
        sums = np.zeros((order - 1,) + lv.shape) if shared_l else None
        g_x = np.empty(signal.shape) if need_x else None
        # one window's adjoints of T_k x, k > 0: three are live at most
        adjoints = np.empty((min(3, order - 1),) + signal.shape[1:])
        scratch = np.empty(signal.shape[1:])
        part = np.empty((n, n))
        for b in range(batch):
            ltb = lt if shared_l else lt[b]
            adj = [None, None]  # adjoints of T_{k+1} x and T_{k+2} x
            for k in range(order - 1, -1 if need_x else 0, -1):
                a = adjoints[k % len(adjoints)] if k > 0 else g_x[b]
                np.matmul(g[b], theta_t[k], out=a.reshape(n_rows, c_in))
                if adj[0] is not None:
                    np.matmul(ltb, adj[0], out=scratch)
                    if k > 0:
                        # T_{k+1} x = 2 L~ T_k x - ...: doubling the product
                        # is exact, so this equals (2 L~^T) adj
                        scratch *= 2.0
                    a += scratch
                if adj[1] is not None:
                    a -= adj[1]
                if k > 0:
                    # T_k x = c L~ T_{k-1} x - ..., with c = 2 for k > 1
                    np.matmul(a, basis[k - 1][b].T, out=part)
                    if shared_l:
                        sums[k - 1] += part
                    else:
                        if k > 1:
                            part *= 2.0
                        g_l[b] += part
                adj = [a, adj[0]]
        if shared_l:
            for k in range(order - 1, 0, -1):
                if k > 1:
                    sums[k - 1] *= 2.0
                g_l += sums[k - 1]
        return g_l, g_theta, None if g_x is None else g_x.reshape(x_shape)

    return tp._emit("cheb_filter", (l_tilde, theta, x),
                    out.reshape(x_shape[:-1] + (c_out,)), back)


# ---------------------------------------------------------------------------
# serialization

_GMAGIC = b"W2KG"
_GVERSION = 1


def save_graphs(gs: GraphSet, path) -> None:
    """Persist built graphs in the packed W2KG layout."""
    parts = [_GMAGIC, struct.pack("<II", _GVERSION, gs.n)]
    meta_blob = json.dumps(gs.meta, sort_keys=True).encode("utf-8")
    parts.append(struct.pack("<I", len(meta_blob)))
    parts.append(meta_blob)
    parts.append(struct.pack("<I", len(gs.graphs)))
    for k in sorted(gs.graphs):
        a = gs.graphs[k]
        parts.append(_pack_str(k))
        parts.append(_pack_str(a.kind))
        parts.append(a.weights)
    write_packed(path, parts)


def load_graphs(path) -> GraphSet:
    with PackedReader(path, "packed graph file", _GMAGIC, _GVERSION) as cur:
        n, mlen = cur.unpack("II")
        try:
            meta = json.loads(cur.text(mlen))
        except json.JSONDecodeError:
            raise cur.corrupt() from None
        if not isinstance(meta, dict):
            raise StructuralError(f"{path}: graph metadata is not an object")
        stations = meta.get("stations", [])
        if not (isinstance(stations, list)
                and all(isinstance(s, str) for s in stations)):
            raise StructuralError(f"{path}: graph metadata 'stations' is "
                                  "not a list of station ids")
        (count,) = cur.unpack("I")
        graphs = {}
        for _ in range(count):
            key = cur.string()
            kind = cur.string()
            if kind != key:
                raise StructuralError(f"{path}: graph {key!r} is stored as "
                                      f"kind {kind!r}")
            graphs[key] = Adjacency(n, cur.array("<f8", (n, n)), kind)
        cur.end()
    return GraphSet(n, graphs, meta)


def build_static_graphs(train_ds: WeatherSeriesDataset,
                        sigma: Union[float, str] = "auto",
                        epsilon: float = EPSILON,
                        n_adjacent: int = 10,
                        pattern_factors: Sequence[str] = PATTERN_FACTORS
                        ) -> GraphSet:
    """Distance, neighbor, and pattern graphs in one pass."""
    dist = pairwise_distances_km([s.lat for s in train_ds.stations],
                                 [s.lon for s in train_ds.stations])
    sigma_v = auto_sigma(dist) if sigma == "auto" else float(sigma)
    graphs = {
        "distance": build_distance_graph(dist, sigma_v, epsilon),
        "neighbor": build_neighbor_graph(dist, n_adjacent),
        "pattern": build_pattern_graph(train_ds, pattern_factors),
    }
    meta = {"pattern_factors": pattern_factors_used(train_ds, pattern_factors),
            "sigma": sigma_v, "epsilon": epsilon, "n_adjacent": n_adjacent,
            "train_steps": train_ds.n_steps,
            "stations": [s.station_id for s in train_ds.stations]}
    return GraphSet(train_ds.n_stations, graphs, meta)
