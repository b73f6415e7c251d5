"""Test scaffolding shared across test files: a finite-difference gradient
reference, a summing loss op, a census of the arrays backward closures
hold, whole-batch Chebyshev and adjacency-keeping Laplacian backward
references, an out-of-place Adam reference, a writer for the per-station
CSV layout, a whole-array synthetic-data reference, and a tracemalloc peak
probe.
"""

import csv
import tracemalloc
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from stationcast import data as dt
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
    tparams = {k: tape.param(v) for k, v in params.items()}
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


def closure_buffers(tape: tp.Tape) -> list:
    """Root buffers of every array a backward closure on the tape holds."""
    buffers = {}

    def visit(obj):
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            buffers[id(obj)] = obj
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                visit(item)

    for node in tape.nodes:
        if node.backward is not None:
            for cell in node.backward.__closure__ or ():
                visit(cell.cell_contents)
    return list(buffers.values())


def cheb_backward_batched(l_tilde, theta, x, g, need_x=True):
    """Gradients (g_L, g_theta, g_x) of graphs.cheb_filter_op for the
    output gradient g, by the reverse recurrence over the whole batch at
    once: every adjoint and every [B, N, N] part of L~'s gradient is one
    batch-sized array.  The op walks it one window at a time; this is the
    reference it must equal byte for byte.
    """
    lv, thv, xv = (np.asarray(a, dtype=np.float64)
                   for a in (l_tilde, theta, x))
    order, c_in, c_out = thv.shape
    signal = xv.reshape(xv.shape[:2] + (-1,))
    # the basis as the op's forward forms it, window by window
    terms = np.empty((order - 1,) + signal.shape)
    for b in range(len(signal)):
        xb = signal[b]
        lb = lv[b] if lv.ndim == 3 else lv
        tb = terms[:, b]
        for k in range(1, order):
            np.matmul(lb, xb if k == 1 else tb[k - 2], out=tb[k - 1])
            if k > 1:
                tb[k - 1] *= 2.0
                tb[k - 1] -= xb if k == 2 else tb[k - 3]
    basis = [signal, *terms]
    g = np.asarray(g, dtype=np.float64).reshape(len(signal), -1, c_out)
    g_flat = g.reshape(-1, c_out)
    theta_t = np.ascontiguousarray(thv.transpose(0, 2, 1))
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
            part = a @ np.swapaxes(basis[k - 1], -1, -2)
            if lv.ndim == 2:
                part = part.sum(axis=0)
            g_l += 2.0 * part if k > 1 else part
        adj = [a, adj[0]]
    g_x = adj[0].reshape(xv.shape) if need_x else None
    return g_l, g_theta, g_x


def laplacian_backward_reference(a, g):
    """Gradient w.r.t. a [B, N, N] adjacency stack of
    tape.scaled_laplacian_op for the output gradient g, by the form that
    keeps the adjacency (with a unit self-loop injected at each isolated
    node) and I - S A S, and takes the degree term from A s.  The op reads
    only L~ and [B] and [B, N] vectors; this is the reference it must match
    to rounding.
    """
    a = np.array(a, dtype=np.float64)
    n = a.shape[1]
    di = np.arange(n)
    isolated = a.sum(axis=2) <= 0.0
    a[:, di, di] = np.where(isolated, 1.0, a[:, di, di])
    s = 1.0 / np.sqrt(a.sum(axis=2))
    lap = np.eye(n) - s[:, :, None] * a * s[:, None, :]
    lam, valid = tp._lambda_max_batch(lap)
    g_lap = (2.0 / lam)[:, None, None] * g
    g_lam = (-2.0 / lam ** 2) * np.einsum("bij,bij->b", g, lap)
    if valid.any():
        v = tp._top_eigvec_batch(lap[valid], lam[valid])
        cv = g_lam[valid][:, None] * v
        g_lap[valid] += cv[:, :, None] * v[:, None, :]
    h = -g_lap  # gradient w.r.t. the normalized adjacency s_i A_ij s_j
    grad_a = h * (s[:, :, None] * s[:, None, :])
    # through the degree vector: ds_i/dd_i = -1/2 d^{-3/2}
    gs = (h * a * s[:, None, :]).sum(axis=2) \
        + (h * a * s[:, :, None]).sum(axis=1)
    c = np.where(isolated, 0.0, gs * (-0.5) * s ** 3)
    grad_a = grad_a + c[:, :, None]
    # injected self-loops are constants
    grad_a[:, di, di] = np.where(isolated, 0.0, grad_a[:, di, di])
    return grad_a


def adam_step_reference(params: dict, grads: dict, state: tp.AdamState,
                        lr: float) -> dict:
    """One bias-corrected Adam update in the out-of-place form: new m, v
    and parameter arrays each step.  tape.adam_step updates them in place
    and must equal this byte for byte."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state.t += 1
    t = state.t
    out = {}
    for name, p in params.items():
        g = grads[name]
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        v = state.v[name]
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        out[name] = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return out


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


def generate_synthetic_reference(cfg: dt.SynthConfig) -> np.ndarray:
    """The values dt.generate_synthetic must give, bit for bit, computed
    with whole-array temporaries: each factor's diurnal, seasonal, shock,
    AR and noise planes are arrays of their own."""
    rng = np.random.default_rng(cfg.seed)
    half = dt._SYNTH_PATCH_DEG / 2.0
    lats = dt._SYNTH_LAT + rng.uniform(-half, half, cfg.n)
    lons = dt._SYNTH_LON + rng.uniform(-half, half, cfg.n)
    rng.uniform(0.0, 1500.0, cfg.n)  # altitudes
    dist = gr.pairwise_distances_km(lats, lons)
    cov = np.exp(-(dist / dt._SYNTH_CORR_KM) ** 2)
    chol = np.linalg.cholesky(cov + 1e-9 * np.eye(cfg.n))
    steps = np.arange(cfg.t)
    values = np.empty((cfg.n, cfg.t, cfg.d))
    for d in range(cfg.d):
        base_level = 15.0 + 10.0 * d
        baseline = base_level + 3.0 * (chol @ rng.standard_normal(cfg.n))
        phase = 2.0 * np.pi * 0.02 * (chol @ rng.standard_normal(cfg.n))
        season_phase = 2.0 * np.pi * 0.02 * (chol @ rng.standard_normal(cfg.n))
        diurnal = cfg.diurnal_amp * np.sin(
            2.0 * np.pi * (steps % 24) / 24.0 + phase[:, None])
        seasonal = cfg.seasonal_amp * np.sin(
            2.0 * np.pi * (steps % dt._SYNTH_SEASON) / dt._SYNTH_SEASON
            + season_phase[:, None])
        shocks = chol @ rng.standard_normal((cfg.t, cfg.n)).T
        ar = np.empty((cfg.n, cfg.t))
        scale = np.sqrt(1.0 - cfg.ar_coeff ** 2)
        state = shocks[:, 0]
        ar[:, 0] = state
        for t in range(1, cfg.t):
            state = cfg.ar_coeff * state + scale * shocks[:, t]
            ar[:, t] = state
        white = rng.standard_normal((cfg.n, cfg.t))
        values[:, :, d] = (baseline[:, None] + diurnal + seasonal
                           + cfg.ar_amp * ar + cfg.noise_amp * white)
    return values


def traced_peak(fn) -> int:
    """Peak bytes tracemalloc sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
