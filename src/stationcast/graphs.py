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
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from . import tape as tp
from .data import PackedReader, StationMeta, WeatherSeriesDataset, _pack_str
from .errors import (ConfigError, PipelineError, ShapeError, StructuralError,
                     check_ints, check_reals)

EARTH_RADIUS_KM = 6371.0

# graphs built from the stations' data, then every graph the model can fuse
STATIC_KINDS = ("distance", "neighbor", "pattern")
MODEL_KINDS = STATIC_KINDS + ("learnable", "dynamic")

# default factor set for the pattern graph: temperature, visibility, humidity
PATTERN_FACTORS = ("t", "hv2", "rh")


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
class DistanceGraphConfig:
    sigma: float
    epsilon: float = 0.1

    def __post_init__(self):
        check_reals(finite=False, sigma=self.sigma, epsilon=self.epsilon)
        if not 0.0 < self.sigma < np.inf:
            raise ConfigError(f"sigma {self.sigma} must be positive and finite")
        if not 0.0 <= self.epsilon < 1.0:
            raise ConfigError("epsilon must lie in [0, 1)")


@dataclass
class NeighborGraphConfig:
    n_adjacent: int = 10

    def __post_init__(self):
        check_ints(1, n_adjacent=self.n_adjacent)


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


def build_distance_graph(stations: Sequence[StationMeta],
                         cfg: DistanceGraphConfig) -> Adjacency:
    """Thresholded Gaussian kernel on great-circle distance."""
    lats = np.array([s.lat for s in stations])
    lons = np.array([s.lon for s in stations])
    d = pairwise_distances_km(lats, lons)
    w = np.exp(-(d ** 2) / cfg.sigma ** 2)
    w = np.where(w >= cfg.epsilon, w, 0.0)
    np.fill_diagonal(w, 0.0)
    return Adjacency(len(stations), w, "distance")


def build_neighbor_graph(stations: Sequence[StationMeta],
                         cfg: NeighborGraphConfig) -> Adjacency:
    """Directed k-nearest graph: row i marks the n_adjacent closest stations.

    Distance ties break toward the lower station index, so the build is
    deterministic.
    """
    n = len(stations)
    if cfg.n_adjacent >= n:
        raise ConfigError(f"n_adjacent={cfg.n_adjacent} must be below the "
                          f"station count {n}")
    lats = np.array([s.lat for s in stations])
    lons = np.array([s.lon for s in stations])
    d = pairwise_distances_km(lats, lons)
    # a station is never its own neighbor; the stable sort keeps ties in
    # index order
    np.fill_diagonal(d, np.inf)
    nearest = np.argsort(d, axis=1, kind="stable")[:, :cfg.n_adjacent]
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


def build_pattern_graph(train_ds: WeatherSeriesDataset,
                        factors: Sequence[str] = PATTERN_FACTORS) -> Adjacency:
    """Mean Pearson-correlation graph over the requested factors.

    Correlations are computed on the training series only; factors absent
    from the dataset are skipped, and if none remain every dataset factor
    is used instead.
    """
    present = [f for f in factors if f in train_ds.factors]
    if not present:
        present = list(train_ds.factors)
    mats = []
    for f in present:
        d = train_ds.factor_index(f)
        mats.append(_pearson_matrix(train_ds.values[:, :, d],
                                    train_ds.stations, f))
    r = np.mean(mats, axis=0)
    r = np.clip(r, -1.0, 1.0)
    np.fill_diagonal(r, 0.0)
    return Adjacency(train_ds.n_stations, r, "pattern")


# ---------------------------------------------------------------------------
# trainable graphs and fusion (tape ops; accept tensors or arrays)


def _swap_last(x) -> tp.TapeTensor:
    """Transpose the last two axes of an [N, N] or [B, N, N] tensor."""
    nd = tp._as_array(x).ndim
    return tp.transpose(x, (*range(nd - 2), nd - 1, nd - 2))


def _antisym_graph(x1, w1, x2, w2, s: float) -> tp.TapeTensor:
    """ReLU(tanh(s (M1 M2^T - M2 M1^T))) with M_i = tanh(s X_i W_i).

    One-sided by antisymmetry: A_ij and A_ji are never both positive.
    """
    m1 = tp.tanh(tp.scalar_mul(s, tp.matmul(x1, w1)))
    m2 = tp.tanh(tp.scalar_mul(s, tp.matmul(x2, w2)))
    g = tp.sub(tp.matmul(m1, _swap_last(m2)), tp.matmul(m2, _swap_last(m1)))
    return tp.relu(tp.tanh(tp.scalar_mul(s, g)))


def learnable_graph_op(e1, e2, theta1, theta2, alpha: float) -> tp.TapeTensor:
    """Differentiable embedding graph; accepts tape tensors or arrays."""
    return _antisym_graph(e1, theta1, e2, theta2, alpha)


def dynamic_graph_op(z, w1, w2, beta: float) -> tp.TapeTensor:
    """Differentiable per-window graph from flattened inputs.

    z is [N, W'*D] for one window or [B, N, W'*D] for a batch.
    """
    return _antisym_graph(z, w1, z, w2, beta)


def fuse_graphs_op(adjs: dict, weights: dict) -> tp.TapeTensor:
    """Differentiable weighted elementwise sum over the graph set."""
    if set(adjs) != set(weights):
        raise ConfigError(f"graph set {sorted(adjs)} does not match fusion "
                          f"weights {sorted(weights)}")
    total = None
    for kind in sorted(adjs):
        term = tp.hadamard(weights[kind], adjs[kind])
        total = term if total is None else tp.add(total, term)
    return total


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

    l_tilde: [N, N] or [B, N, N]; theta: [K, C_in, C_out]; x: [N, C_in],
    [B, N, C_in] or [B, N, T, C_in].  A [B, N, T, C_in] signal is filtered
    at every time slice: the recurrence runs on [B, N, T*C_in] and theta_k
    mixes the channels of each (node, time) row.

    One tape node with a hand-written backward, which walks the recurrence
    in reverse; an [N, N] L~ gets its gradient summed over the batch.
    """
    lv, thv, xv = (tp._as_array(a) for a in (l_tilde, theta, x))
    node_axis = 0 if xv.ndim == 2 else 1
    if thv.ndim != 3 or xv.ndim not in (2, 3, 4) \
            or xv.shape[-1] != thv.shape[1] or lv.ndim not in (2, 3) \
            or lv.shape[-2:] != (xv.shape[node_axis],) * 2 \
            or (lv.ndim == 3 and (xv.ndim == 2 or lv.shape[0] != xv.shape[0])):
        raise ShapeError(f"cheb_filter_op: L~ {lv.shape}, theta "
                         f"{thv.shape}, x {xv.shape}")
    order, c_in, c_out = thv.shape
    # the recurrence runs on signals; theta_k acts on their (node, time) rows
    signal = xv.reshape(xv.shape[:2] + (-1,)) if xv.ndim == 4 else xv
    rows = (xv.shape[0], -1, c_in) if xv.ndim == 4 else signal.shape
    on_tape = tp._tape_of(l_tilde, theta, x) is not None
    # the closure holds arrays only: a tensor would tie the tape into a
    # reference cycle that only the garbage collector frees
    need_x = tp._on_tape(x)
    basis = [signal]  # T_0 x .. T_{K-1} x, kept for the backward
    out = signal.reshape(rows) @ thv[0]
    for k in range(1, order):
        nxt = lv @ basis[-1]
        if k > 1:
            nxt *= 2.0
            nxt -= basis[-2]
        # off the tape only the last two terms are kept
        basis = basis + [nxt] if on_tape else basis[-1:] + [nxt]
        out += nxt.reshape(rows) @ thv[k]

    rows_out, x_shape = out.shape, xv.shape

    def back(g):
        g = g.reshape(rows_out)
        g_flat = g.reshape(-1, c_out)
        theta_t = np.ascontiguousarray(thv.transpose(0, 2, 1))
        # T_k's factor 2 (k > 1) is folded into 2 L~^T, exact in floating
        # point
        lt = tp._transposed(lv)
        lt2 = 2.0 * lt if order > 2 else None
        g_theta = np.empty_like(thv)
        g_l = np.zeros(lv.shape)
        adj = [None, None]  # adjoints of T_{k+1} x and T_{k+2} x
        for k in range(order - 1, -1, -1):
            g_theta[k] = basis[k].reshape(-1, c_in).T @ g_flat
            if k == 0 and not need_x:
                break
            a = (g @ theta_t[k]).reshape(signal.shape)
            if adj[0] is not None:
                a += (lt2 if k > 0 else lt) @ adj[0]
            if adj[1] is not None:
                a -= adj[1]
            if k > 0:
                # T_k x = c L~ T_{k-1} x - ..., with c = 2 for k > 1
                part = a @ np.swapaxes(basis[k - 1], -1, -2)
                if lv.ndim == 2 and part.ndim == 3:
                    part = part.sum(axis=0)
                g_l += 2.0 * part if k > 1 else part
            adj = [a, adj[0]]
        g_x = adj[0].reshape(x_shape) if need_x else None
        return g_l, g_theta, g_x

    return tp._emit("cheb_filter", (l_tilde, theta, x),
                    out.reshape(xv.shape[:-1] + (c_out,)), back)


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
        parts.append(np.ascontiguousarray(a.weights, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_graphs(path) -> GraphSet:
    cur = PackedReader(path, "packed graph file", _GMAGIC, _GVERSION)
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
        raise StructuralError(f"{path}: graph metadata 'stations' is not a "
                              "list of station ids")
    (count,) = cur.unpack("I")
    graphs = {}
    for _ in range(count):
        key = cur.string()
        kind = cur.string()
        if kind != key:
            raise StructuralError(f"{path}: graph {key!r} is stored as kind "
                                  f"{kind!r}")
        graphs[key] = Adjacency(n, cur.array("<f8", (n, n)), kind)
    cur.end()
    return GraphSet(n, graphs, meta)


def build_static_graphs(train_ds: WeatherSeriesDataset,
                        sigma: Union[float, str] = "auto",
                        epsilon: float = 0.1,
                        n_adjacent: int = 10,
                        pattern_factors: Sequence[str] = PATTERN_FACTORS
                        ) -> GraphSet:
    """Distance, neighbor, and pattern graphs in one pass."""
    lats = np.array([s.lat for s in train_ds.stations])
    lons = np.array([s.lon for s in train_ds.stations])
    dist = pairwise_distances_km(lats, lons)
    if sigma == "auto":
        sigma_v = auto_sigma(dist)
    else:
        sigma_v = float(sigma)
    graphs = {
        "distance": build_distance_graph(
            train_ds.stations, DistanceGraphConfig(sigma_v, epsilon)),
        "neighbor": build_neighbor_graph(
            train_ds.stations, NeighborGraphConfig(n_adjacent)),
        "pattern": build_pattern_graph(train_ds, pattern_factors),
    }
    meta = {"sigma": sigma_v, "epsilon": epsilon, "n_adjacent": n_adjacent,
            "pattern_factors": list(pattern_factors),
            "train_steps": train_ds.n_steps,
            "stations": [s.station_id for s in train_ds.stations]}
    return GraphSet(train_ds.n_stations, graphs, meta)
