"""Station-network graph construction, fusion, and spectral filtering.

Five adjacency matrices over the same station set: geographic distance,
nearest-neighbor, series-pattern correlation, a trainable embedding graph,
and a per-window dynamic graph.  Fusion combines them with per-node
trainable weights.  The spectral half provides the rescaled Laplacian and
Chebyshev polynomial filtering used by the forecasting model.
"""

from __future__ import annotations

import json
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from . import tape as tp
from .data import PackedReader, StationMeta, WeatherSeriesDataset, _pack_str
from .errors import ConfigError, PipelineError, SchemaError, StructuralError

EARTH_RADIUS_KM = 6371.0

# graphs built from the stations' data, then every graph the model can fuse
STATIC_KINDS = ("distance", "neighbor", "pattern")
MODEL_KINDS = STATIC_KINDS + ("learnable", "dynamic")
GRAPH_KINDS = MODEL_KINDS + ("fused",)

# default factor set for the pattern graph: temperature, visibility, humidity
PATTERN_FACTORS = ("t", "hv2", "rh")


@dataclass
class Adjacency:
    """One dense graph over the station set."""

    n: int
    weights: np.ndarray
    kind: str

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.kind not in GRAPH_KINDS:
            raise ConfigError(f"unknown graph kind {self.kind!r}")
        if self.weights.shape != (self.n, self.n):
            raise ConfigError(f"adjacency shape {self.weights.shape} "
                              f"does not match n={self.n}")
        if not np.isfinite(self.weights).all():
            raise StructuralError(f"{self.kind} graph has non-finite entries")
        if self.kind in STATIC_KINDS:
            if np.diagonal(self.weights).any():
                raise StructuralError(f"{self.kind} graph has nonzero diagonal")
        # pattern correlations are signed, and fusion inherits their sign
        if self.kind not in ("pattern", "fused") and (self.weights < 0.0).any():
            raise StructuralError(f"{self.kind} graph has negative entries")


@dataclass
class DistanceGraphConfig:
    sigma: float
    epsilon: float = 0.1

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise ConfigError("sigma must be positive")
        if not 0.0 <= self.epsilon < 1.0:
            raise ConfigError("epsilon must lie in [0, 1)")


@dataclass
class NeighborGraphConfig:
    n_adjacent: int = 10

    def __post_init__(self):
        if self.n_adjacent < 1:
            raise ConfigError("n_adjacent must be at least 1")


@dataclass
class ScaledLaplacian:
    l_tilde: np.ndarray
    lambda_max: float


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


def haversine_km(a, b) -> float:
    """Great-circle distance between two stations (or (lat, lon) pairs)."""
    lat1, lon1 = (a.lat, a.lon) if isinstance(a, StationMeta) else a
    lat2, lon2 = (b.lat, b.lon) if isinstance(b, StationMeta) else b
    return float(pairwise_distances_km(np.array([lat1, lat2]),
                                       np.array([lon1, lon2]))[0, 1])


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
    w = np.zeros((n, n))
    idx = np.arange(n)
    for i in range(n):
        others = idx[idx != i]
        # lexsort: primary key distance, secondary key station index
        order = others[np.lexsort((others, d[i, others]))]
        w[i, order[:cfg.n_adjacent]] = 1.0
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


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(|A| + |A|^T) / 2: symmetric nonnegative version of any adjacency.

    Transposes the last two axes, so a [B, N, N] stack is symmetrized
    matrix by matrix.
    """
    aa = np.abs(np.asarray(a, dtype=np.float64))
    out = aa + np.swapaxes(aa, -1, -2)
    out *= 0.5
    return out


def symmetrize_op(a) -> tp.TapeTensor:
    """Tape version of symmetrize for [N, N] or [B, N, N] tensors.

    One node; its gradient is sign(A) (G + G^T) / 2.
    """
    av = tp._as_array(a)
    return tp._emit("symmetrize", (a,), symmetrize(av), lambda g: (
        np.sign(av) * ((g + np.swapaxes(g, -1, -2)) / 2.0),))


def scaled_laplacian(adj: Union[Adjacency, np.ndarray]) -> ScaledLaplacian:
    """Rescaled normalized Laplacian 2L/lambda_max - I of a graph.

    The input is symmetrized first.  Isolated nodes get a unit self-loop
    (with a warning) so degree normalization stays finite.
    """
    a = symmetrize(adj.weights if isinstance(adj, Adjacency) else adj)
    if (a.sum(axis=1) <= 0.0).any():
        warnings.warn("isolated node: unit self-loop injected before "
                      "normalization", stacklevel=2)
    l_tilde, saved = tp._laplacian_forward_batch(a[None])
    return ScaledLaplacian(l_tilde[0], float(saved[3][0]))


def cheb_filter(lap: Union[ScaledLaplacian, np.ndarray], theta: np.ndarray,
                x: np.ndarray) -> np.ndarray:
    """Chebyshev polynomial graph filter, no eigendecomposition.

    y = sum_k T_k(L~) x theta_k with T_0 = I, T_1 = L~,
    T_k = 2 L~ T_{k-1} - T_{k-2}.
    """
    lt = lap.l_tilde if isinstance(lap, ScaledLaplacian) else np.asarray(lap)
    theta = np.asarray(theta, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if theta.ndim != 3 or theta.shape[1] != x.shape[-1]:
        raise ConfigError(f"filter coefficients {theta.shape} do not match "
                          f"signal {x.shape}")
    prev = x
    y = prev @ theta[0]
    if theta.shape[0] > 1:
        cur = lt @ x
        y = y + cur @ theta[1]
        for k in range(2, theta.shape[0]):
            prev, cur = cur, 2.0 * (lt @ cur) - prev
            y = y + cur @ theta[k]
    return y


def cheb_filter_op(l_tilde, theta, x) -> tp.TapeTensor:
    """Tape version of cheb_filter; the order K is theta.shape[0].

    l_tilde: [N, N] or [B, N, N]; theta: [K, C_in, C_out]; x: [N, C_in],
    [B, N, C_in] or [B, N, T, C_in].  A [B, N, T, C_in] signal is filtered
    at every time slice: the recurrence runs on [B, N, T*C_in] and theta_k
    mixes the channels of each (node, time) row.
    """
    order, c_in, c_out = tp._as_array(theta).shape
    shape = tp._as_array(x).shape
    if len(shape) == 4:
        b, n, t, _ = shape
        signal = tp.reshape(x, (b, n, t * c_in))
        rows = (b, n * t, c_in)
    else:
        signal, rows = x, None

    def term(s, k):
        if rows is not None:
            s = tp.reshape(s, rows)
        coeff = tp.reshape(tp.slice_axis(theta, 0, k, k + 1), (c_in, c_out))
        return tp.matmul(s, coeff)

    acc = term(signal, 0)
    if order > 1:
        prev, cur = signal, tp.matmul(l_tilde, signal)
        acc = tp.add(acc, term(cur, 1))
        for k in range(2, order):
            nxt = tp.sub(tp.scalar_mul(2.0, tp.matmul(l_tilde, cur)), prev)
            # off the tape, T_{k-1} is freed here once no step needs it
            prev, cur = (cur if k + 1 < order else None), nxt
            acc = tp.add(acc, term(cur, k))
    return acc if rows is None else tp.reshape(acc, (b, n, t, c_out))


# ---------------------------------------------------------------------------
# serialization

_GMAGIC = b"W2KG"
_GVERSION = 1
_JSON_MAX_N = 64


def save_graphs(gs: GraphSet, path) -> None:
    """Persist built graphs: JSON for small station sets, binary above."""
    path = Path(path)
    if gs.n <= _JSON_MAX_N:
        doc = {
            "format": "station-graphs",
            "version": _GVERSION,
            "n": gs.n,
            "meta": gs.meta,
            "graphs": {k: a.weights.tolist() for k, a in gs.graphs.items()},
            "kinds": {k: a.kind for k, a in gs.graphs.items()},
        }
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        return
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
    path.write_bytes(b"".join(parts))


def load_graphs(path) -> GraphSet:
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] == _GMAGIC:
        cur = PackedReader(raw, f"{path}: packed graph file")
        cur.take(4)
        version, n = cur.unpack("II")
        if version != _GVERSION:
            raise StructuralError(f"{path}: unsupported graph file version "
                                  f"{version}")
        (mlen,) = cur.unpack("I")
        try:
            meta = json.loads(cur.text(mlen))
        except json.JSONDecodeError:
            raise cur.corrupt() from None
        (count,) = cur.unpack("I")
        graphs = {}
        for _ in range(count):
            key = cur.string()
            kind = cur.string()
            graphs[key] = Adjacency(n, cur.array("<f8", (n, n)), kind)
        cur.end()
        return GraphSet(n, graphs, meta)
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise StructuralError(f"{path}: neither a graph JSON document nor a "
                              "packed graph file") from None
    if doc.get("format") != "station-graphs":
        raise StructuralError(f"{path}: not a graph document")
    if doc.get("version") != _GVERSION:
        raise StructuralError(f"{path}: unsupported graph file version "
                              f"{doc.get('version')}")
    n = int(doc["n"])
    graphs = {k: Adjacency(n, np.asarray(v, dtype=np.float64),
                           doc["kinds"][k])
              for k, v in doc["graphs"].items()}
    return GraphSet(n, graphs, doc.get("meta", {}))


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
