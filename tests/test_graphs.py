"""Graph construction, fusion, and spectral filter checks."""

import gc
import json
import math
import weakref

import numpy as np
import pytest

from stationcast import graphs as gr
from stationcast import tape as tp
from stationcast.data import StationMeta
from stationcast.errors import (ConfigError, PipelineError, ShapeError,
                                StructuralError)

from helpers import finite_diff_check, reduce_sum

RNG = np.random.default_rng


def great_circle_oracle(lat1, lon1, lat2, lon2):
    # independent formula: atan2 form of the spherical distance
    p1, l1, p2, l2 = map(math.radians, (lat1, lon1, lat2, lon2))
    dl = l2 - l1
    y = math.hypot(math.cos(p2) * math.sin(dl),
                   math.cos(p1) * math.sin(p2)
                   - math.sin(p1) * math.cos(p2) * math.cos(dl))
    x = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return 6371.0 * math.atan2(y, x)


def random_stations(n, seed):
    rng = RNG(seed)
    return [StationMeta(f"S{i}", float(rng.uniform(20, 50)),
                        float(rng.uniform(90, 130)),
                        float(rng.uniform(0, 2000))) for i in range(n)]


# ---------------------------------------------------------------------------
# distances


def test_haversine_same_point_zero():
    d = gr.pairwise_distances_km([40.0, 40.0], [116.0, 116.0])
    assert np.array_equal(d, np.zeros((2, 2)))


def test_haversine_antipodal():
    d = gr.pairwise_distances_km([0.0, 0.0], [0.0, 180.0])[0, 1]
    assert abs(d - math.pi * 6371.0) < 1e-6


def test_haversine_matches_independent_oracle():
    d = gr.pairwise_distances_km([39.9, 31.2], [116.4, 121.5])[0, 1]
    want = great_circle_oracle(39.9, 116.4, 31.2, 121.5)
    assert abs(d - want) < 0.1


def test_pairwise_matrix_bitwise_symmetric():
    rng = RNG(1)
    lats = rng.uniform(-60, 60, 12)
    lons = rng.uniform(-170, 170, 12)
    d = gr.pairwise_distances_km(lats, lons)
    assert np.array_equal(d, d.T)
    assert np.array_equal(np.diagonal(d), np.zeros(12))
    for i in range(12):
        for j in range(12):
            want = great_circle_oracle(lats[i], lons[i], lats[j], lons[j])
            assert abs(d[i, j] - want) < 0.1


# ---------------------------------------------------------------------------
# distance graph


def test_distance_graph_coincident_stations():
    st = [StationMeta("a", 30.0, 100.0), StationMeta("b", 30.0, 100.0),
          StationMeta("c", 31.0, 101.0)]
    adj = gr.build_distance_graph(st, gr.DistanceGraphConfig(sigma=100.0))
    assert adj.weights[0, 1] == 1.0
    assert adj.weights[0, 0] == 0.0


def test_distance_graph_threshold_cutoff():
    # place a pair exactly where the kernel lands just under the threshold
    sigma, eps = 100.0, 0.3
    d_cut = sigma * math.sqrt(-math.log(eps - 1e-6))
    dlat = math.degrees(d_cut / 6371.0)
    st = [StationMeta("a", 0.0, 0.0), StationMeta("b", dlat, 0.0)]
    adj = gr.build_distance_graph(st, gr.DistanceGraphConfig(sigma, eps))
    assert adj.weights[0, 1] == 0.0


def test_distance_graph_entries_and_symmetry():
    for seed in range(5):
        st = random_stations(15, seed)
        adj = gr.build_distance_graph(st, gr.DistanceGraphConfig(
            sigma=200.0, epsilon=0.2))
        w = adj.weights
        assert np.array_equal(w, w.T)
        assert np.array_equal(np.diagonal(w), np.zeros(15))
        off = w[~np.eye(15, dtype=bool)]
        assert np.all((off == 0.0) | ((off >= 0.2) & (off <= 1.0)))


def test_distance_graph_config_validation():
    with pytest.raises(ConfigError):
        gr.DistanceGraphConfig(sigma=0.0)
    with pytest.raises(ConfigError):
        gr.DistanceGraphConfig(sigma=1.0, epsilon=1.0)
    # the type is checked before the range, which a string cannot meet
    with pytest.raises(ConfigError, match="sigma '100' is not"):
        gr.DistanceGraphConfig(sigma="100")


# ---------------------------------------------------------------------------
# neighbor graph


def test_neighbor_graph_collinear():
    st = [StationMeta("a", 30.0, 100.0), StationMeta("b", 30.0, 101.0),
          StationMeta("c", 30.0, 102.0)]
    adj = gr.build_neighbor_graph(st, gr.NeighborGraphConfig(1))
    assert adj.weights[0, 1] == 1.0 and adj.weights[2, 1] == 1.0
    assert adj.weights[0, 2] == 0.0 and adj.weights[2, 0] == 0.0


def test_neighbor_graph_full():
    st = random_stations(6, 3)
    adj = gr.build_neighbor_graph(st, gr.NeighborGraphConfig(5))
    assert np.array_equal(adj.weights, np.ones((6, 6)) - np.eye(6))


def test_neighbor_graph_row_sums():
    st = random_stations(20, 4)
    adj = gr.build_neighbor_graph(st, gr.NeighborGraphConfig(7))
    assert np.array_equal(adj.weights.sum(axis=1), np.full(20, 7.0))
    assert np.array_equal(np.diagonal(adj.weights), np.zeros(20))


def test_neighbor_graph_tie_breaks_by_index():
    # stations 1 and 2 equidistant from station 0: lower index wins
    st = [StationMeta("mid", 0.0, 100.0), StationMeta("west", 0.0, 99.0),
          StationMeta("east", 0.0, 101.0)]
    adj = gr.build_neighbor_graph(st, gr.NeighborGraphConfig(1))
    assert adj.weights[0, 1] == 1.0
    assert adj.weights[0, 2] == 0.0


@pytest.mark.parametrize("bad,text", [(2.5, "is not an integer"),
                                      ("3", "is not an integer"),
                                      (0, "must be at least 1")],
                         ids=["float", "string", "zero"])
def test_neighbor_graph_config_validation(bad, text):
    with pytest.raises(ConfigError, match=f"n_adjacent {bad!r} {text}"):
        gr.NeighborGraphConfig(bad)


def test_neighbor_graph_na_too_large():
    st = random_stations(5, 5)
    with pytest.raises(ConfigError):
        gr.build_neighbor_graph(st, gr.NeighborGraphConfig(5))


# ---------------------------------------------------------------------------
# pattern graph


def make_dataset(values, factors, seed=0):
    from stationcast.data import WeatherSeriesDataset
    n = values.shape[0]
    stations = random_stations(n, seed)
    return WeatherSeriesDataset(stations, factors, values,
                                np.ones_like(values, dtype=bool))


def test_pattern_graph_identical_and_negated():
    base = RNG(6).standard_normal(50)
    vals = np.stack([base, base, -base])[:, :, None]
    ds = make_dataset(vals, ["t"])
    adj = gr.build_pattern_graph(ds, ["t"])
    assert adj.weights[0, 1] == 1.0
    assert adj.weights[0, 2] == -1.0
    assert adj.weights[1, 1] == 0.0


def test_pattern_graph_matches_covariance_oracle():
    rng = RNG(7)
    vals = rng.standard_normal((3, 40, 1))
    ds = make_dataset(vals, ["t"])
    adj = gr.build_pattern_graph(ds, ["t"])
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            a, b = vals[i, :, 0], vals[j, :, 0]
            num = ((a - a.mean()) * (b - b.mean())).sum()
            den = math.sqrt(((a - a.mean()) ** 2).sum()) \
                * math.sqrt(((b - b.mean()) ** 2).sum())
            assert abs(adj.weights[i, j] - num / den) < 1e-10
    assert np.array_equal(adj.weights, adj.weights.T)


def test_pattern_graph_multi_factor_mean():
    rng = RNG(8)
    vals = rng.standard_normal((4, 30, 3))
    ds = make_dataset(vals, ["t", "hv2", "rh"])
    adj = gr.build_pattern_graph(ds)
    singles = [gr.build_pattern_graph(ds, [f]).weights
               for f in ["t", "hv2", "rh"]]
    assert np.allclose(adj.weights, np.mean(singles, axis=0), atol=1e-12)
    assert adj.weights.min() >= -1.0 and adj.weights.max() <= 1.0


def test_pattern_graph_constant_series_errors():
    vals = RNG(9).standard_normal((3, 20, 1))
    vals[1, :, 0] = 4.2
    ds = make_dataset(vals, ["t"])
    with pytest.raises(PipelineError, match="S1.*'t'|'t'.*S1"):
        gr.build_pattern_graph(ds, ["t"])


def test_pattern_graph_falls_back_to_dataset_factors():
    vals = RNG(10).standard_normal((3, 25, 2))
    ds = make_dataset(vals, ["ws", "ap"])
    adj = gr.build_pattern_graph(ds)  # none of t/hv2/rh present
    singles = [gr.build_pattern_graph(ds, [f]).weights for f in ["ws", "ap"]]
    assert np.allclose(adj.weights, np.mean(singles, axis=0), atol=1e-12)


# ---------------------------------------------------------------------------
# learnable and dynamic graphs


def _uniform_draws(rng, scale, *shapes):
    return [rng.uniform(-scale, scale, shape) for shape in shapes]


def _embedding_params(n, d_emb, rng):
    # e1, e2, theta1, theta2, each uniform in +-1/sqrt(d_emb)
    return _uniform_draws(rng, 1.0 / np.sqrt(d_emb), (n, d_emb), (n, d_emb),
                          (d_emb, d_emb), (d_emb, d_emb))


def _projection_params(w_in, d, d_emb, rng):
    # w1, w2 over the flattened [W'*D] window, uniform in +-1/sqrt(W'*D)
    return _uniform_draws(rng, 1.0 / np.sqrt(w_in * d), (w_in * d, d_emb),
                          (w_in * d, d_emb))


def _window_graph(window, w1, w2, beta=0.5):
    """Dynamic graph of one [N, W', D] window."""
    z = window.reshape(window.shape[0], -1)
    return gr.dynamic_graph_op(z, w1, w2, beta).values


def test_learnable_graph_vanishes_when_maps_coincide():
    rng = RNG(11)
    e = rng.standard_normal((6, 4))
    th = rng.standard_normal((4, 4))
    adj = gr.learnable_graph_op(e, e.copy(), th, th.copy(), 3.0).values
    assert np.array_equal(adj, np.zeros((6, 6)))


def test_learnable_graph_one_sided():
    w = gr.learnable_graph_op(*_embedding_params(8, 5, RNG(12)), 3.0).values
    assert np.array_equal(np.minimum(w, w.T), np.zeros((8, 8)))
    assert w.max() > 0.0  # not degenerate


def test_learnable_graph_gradients():
    e1, e2, th1, th2 = _embedding_params(5, 4, RNG(13))
    params = {"e1": e1, "e2": e2, "th1": th1, "th2": th2}

    def loss(t):
        a = gr.learnable_graph_op(t["e1"], t["e2"], t["th1"], t["th2"], 3.0)
        return reduce_sum(a)

    err = finite_diff_check(loss, params, rng=RNG(0))
    assert err <= 1e-4


def test_dynamic_graph_identical_windows():
    rng = RNG(14)
    win = rng.standard_normal((4, 6, 2))
    win[2] = win[0]  # stations 0 and 2 see the same inputs
    shared = rng.standard_normal((12, 5))
    adj = _window_graph(win, shared, shared.copy())
    assert adj[0, 2] == 0.0 and adj[2, 0] == 0.0


def test_dynamic_graph_one_sided_and_equivariant():
    rng = RNG(15)
    win = rng.standard_normal((6, 5, 2))
    w1, w2 = _projection_params(5, 2, 4, RNG(16))
    w = _window_graph(win, w1, w2)
    assert np.array_equal(np.minimum(w, w.T), np.zeros((6, 6)))
    perm = RNG(17).permutation(6)
    w_perm = _window_graph(win[perm], w1, w2)
    assert np.array_equal(w_perm, w[np.ix_(perm, perm)])


def test_dynamic_graph_batched_matches_single():
    rng = RNG(18)
    wins = rng.standard_normal((3, 5, 4, 2))
    w1, w2 = _projection_params(4, 2, 4, RNG(19))
    z = wins.reshape(3, 5, -1)
    batched = gr.dynamic_graph_op(z, w1, w2, 0.5).values
    for b in range(3):
        single = _window_graph(wins[b], w1, w2)
        assert np.allclose(batched[b], single, atol=1e-14)


# ---------------------------------------------------------------------------
# fusion


def fused_oracle(adjs, weights):
    n = next(iter(adjs.values())).shape[0]
    out = np.zeros((n, n))
    for k in adjs:
        for i in range(n):
            for j in range(n):
                out[i, j] += weights[k][i, j] * adjs[k][i, j]
    return out


def _fused(adjs, weights):
    return gr.fuse_graphs_op(adjs, weights).values


def test_fusion_identity():
    rng = RNG(20)
    a = np.abs(rng.standard_normal((5, 5)))
    b = np.abs(rng.standard_normal((5, 5)))
    fused = _fused({"distance": a, "neighbor": b},
                   {"distance": np.ones((5, 5)), "neighbor": np.zeros((5, 5))})
    assert np.array_equal(fused, a)


def test_fusion_all_zero():
    rng = RNG(21)
    fused = _fused({"a_": rng.standard_normal((4, 4))},
                   {"a_": np.zeros((4, 4))})
    assert np.array_equal(fused, np.zeros((4, 4)))


def test_fusion_matches_loop_oracle_and_linearity():
    rng = RNG(22)
    kinds = ["distance", "neighbor", "pattern"]
    adjs = {k: rng.standard_normal((6, 6)) for k in kinds}
    w1 = {k: rng.standard_normal((6, 6)) for k in kinds}
    w2 = {k: rng.standard_normal((6, 6)) for k in kinds}
    f1 = _fused(adjs, w1)
    assert np.allclose(f1, fused_oracle(adjs, w1), atol=1e-12)
    f2 = _fused(adjs, w2)
    both = _fused(adjs, {k: w1[k] + w2[k] for k in kinds})
    assert np.allclose(both, f1 + f2, atol=1e-12)


def test_fusion_key_mismatch():
    with pytest.raises(ConfigError):
        gr.fuse_graphs_op({"distance": np.ones((2, 2))},
                          {"neighbor": np.ones((2, 2))})


def test_fusion_gradients_flow_to_weights():
    rng = RNG(23)
    adjs = {"distance": np.abs(rng.standard_normal((4, 4)))}
    params = {"w": np.full((4, 4), 0.5)}

    def loss(t):
        return reduce_sum(gr.fuse_graphs_op(adjs, {"distance": t["w"]}))

    err = finite_diff_check(loss, params, rng=RNG(0))
    assert err <= 1e-4


# ---------------------------------------------------------------------------
# spectral machinery


def test_scaled_laplacian_spectrum_in_unit_band():
    for seed in range(8):
        rng = RNG(seed)
        n = int(rng.integers(3, 17))
        raw = rng.uniform(0, 1, (n, n))
        lt = tp.scaled_laplacian_op(gr.symmetrize_op(raw)).values
        evs = np.linalg.eigvalsh(lt)
        assert evs.min() >= -1.0 - 1e-9 and evs.max() <= 1.0 + 1e-9


def test_symmetrize_variants_agree():
    rng = RNG(24)
    a = rng.standard_normal((5, 5))
    want = (np.abs(a) + np.abs(a).T) / 2.0
    assert np.array_equal(gr.symmetrize_op(a).values, want)
    # a stack with B != N is symmetrized matrix by matrix
    stack = rng.standard_normal((3, 5, 5))
    want = np.stack([(np.abs(m) + np.abs(m).T) / 2.0 for m in stack])
    assert gr.symmetrize_op(stack).values.tobytes() == want.tobytes()


def test_symmetrize_op_gradients():
    rng = RNG(25)
    params = {"a": rng.standard_normal((3, 5, 5))}
    w = rng.standard_normal((3, 5, 5))

    def loss(t):
        return reduce_sum(tp.hadamard(gr.symmetrize_op(t["a"]), w))

    t = tp.Tape()
    a = t.param(params["a"])
    gr.symmetrize_op(a)
    assert [node.op for node in t.nodes] == ["param:", "symmetrize"]
    err = finite_diff_check(loss, params, max_coords=30, rng=RNG(0))
    assert err < 1e-6


def spectral_filter_oracle(l_tilde, theta, x):
    # closed-form Chebyshev via eigendecomposition: T_k = cos(k arccos)
    evals, u = np.linalg.eigh(l_tilde)
    lam = np.clip(evals, -1.0, 1.0)
    y = np.zeros((x.shape[0], theta.shape[2]))
    for k in range(theta.shape[0]):
        tk = np.cos(k * np.arccos(lam))
        y += (u @ np.diag(tk) @ u.T) @ x @ theta[k]
    return y


def _l_tilde(raw):
    return tp.scaled_laplacian_op(gr.symmetrize_op(raw)).values


def test_cheb_filter_order_one_graph_independent():
    rng = RNG(25)
    x = rng.standard_normal((6, 2))
    theta = rng.standard_normal((1, 2, 3))
    lt1 = _l_tilde(np.abs(rng.standard_normal((6, 6))))
    y = gr.cheb_filter_op(lt1, theta, x).values
    assert np.allclose(y, x @ theta[0], atol=1e-14)


def test_cheb_filter_path_graph_by_hand():
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    lt = _l_tilde(adj)
    # two-node path: L = I - A, lambda_max = 2, so L~ = -A
    assert np.allclose(lt, -adj, atol=1e-9)
    x = np.array([[1.0], [2.0]])
    theta = np.array([[[0.5]], [[2.0]]])
    y = gr.cheb_filter_op(lt, theta, x).values
    want = x * 0.5 + (-adj @ x) * 2.0
    assert np.allclose(y, want, atol=1e-9)


def test_cheb_filter_matches_spectral_oracle():
    rng = RNG(26)
    for trial in range(6):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, 6))
        raw = rng.uniform(0, 1, (n, n))
        lt = _l_tilde(raw)
        x = rng.standard_normal((n, 3))
        theta = rng.standard_normal((k, 3, 2))
        got = gr.cheb_filter_op(lt, theta, x).values
        want = spectral_filter_oracle(lt, theta, x)
        assert np.abs(got - want).max() < 1e-8


def test_cheb_filter_op_matches_and_differentiates():
    rng = RNG(27)
    raw = rng.uniform(0.1, 1.0, (5, 5))
    lt = _l_tilde(raw)
    x = rng.standard_normal((5, 2))
    theta = rng.standard_normal((3, 2, 2))
    got = gr.cheb_filter_op(lt, theta, x).values
    assert np.allclose(got, spectral_filter_oracle(lt, theta, x), atol=1e-12)

    def loss(t):
        return reduce_sum(gr.cheb_filter_op(lt, t["theta"], t["x"]))

    err = finite_diff_check(loss, {"theta": theta, "x": x}, rng=RNG(0))
    assert err <= 1e-4


def test_cheb_filter_batched_matches_per_item():
    rng = RNG(28)
    lts = np.stack([_l_tilde(rng.uniform(0.1, 1.0, (4, 4)))
                    for _ in range(3)])
    x = rng.standard_normal((3, 4, 2))
    theta = rng.standard_normal((2, 2, 2))
    got = gr.cheb_filter_op(lts, theta, x).values
    for b in range(3):
        want = gr.cheb_filter_op(lts[b], theta, x[b]).values
        assert np.allclose(got[b], want, atol=1e-13)
    # [B, N, T, C]: every time slice is filtered on its own
    theta = rng.standard_normal((3, 2, 2))
    x = rng.standard_normal((3, 4, 5, 2))
    got = gr.cheb_filter_op(lts, theta, x).values
    assert got.shape == (3, 4, 5, 2)
    for b in range(3):
        for s in range(5):
            want = gr.cheb_filter_op(lts[b], theta, x[b, :, s]).values
            assert np.allclose(got[b, :, s], want, atol=1e-13)


def cheb_filter_composed(l_tilde, theta, x):
    # the same recurrence composed from tape primitives, one node per step
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
            prev, cur = cur, nxt
            acc = tp.add(acc, term(cur, k))
    return acc if rows is None else tp.reshape(acc, (b, n, t, c_out))


# (L~ shape, x shape) pairs: shared and per-window graphs, 3-D and 4-D signals
_CHEB_SHAPES = {"l2-x2": ((4, 4), (4, 2)), "l2-x3": ((4, 4), (3, 4, 2)),
                "l2-x4": ((4, 4), (3, 4, 5, 2)),
                "l3-x3": ((3, 4, 4), (3, 4, 2)),
                "l3-x4": ((3, 4, 4), (3, 4, 5, 2))}


def _cheb_case(shapes, order, seed):
    rng = RNG(seed)
    l_shape, x_shape = shapes
    # not symmetric, so a transpose missing from the backward shows up
    return {"l": rng.uniform(-0.5, 0.5, l_shape),
            "theta": rng.standard_normal((order, 2, 3)),
            "x": rng.standard_normal(x_shape)}


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("shapes", list(_CHEB_SHAPES.values()),
                         ids=list(_CHEB_SHAPES))
def test_cheb_filter_op_matches_composed_recurrence(shapes, order):
    vals = _cheb_case(shapes, order, 30 + order)
    got = gr.cheb_filter_op(vals["l"], vals["theta"], vals["x"]).values
    want = cheb_filter_composed(vals["l"], vals["theta"], vals["x"]).values
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    probe = RNG(order).standard_normal(got.shape)

    def grads(op):
        t = tp.Tape()
        p = {k: t.param(v, name=k) for k, v in vals.items()}
        out = op(p["l"], p["theta"], p["x"])
        store = tp.backward(reduce_sum(tp.hadamard(out, probe)))
        return {k: tp.grad_of(store, v) for k, v in p.items()}, t

    got_g, t = grads(gr.cheb_filter_op)
    assert [node.op for node in t.nodes].count("cheb_filter") == 1
    assert len(t.nodes) == 3 + 3  # three params, the filter, hadamard, sum
    want_g, _ = grads(cheb_filter_composed)
    for k in vals:
        scale = np.abs(want_g[k]).max()
        assert np.abs(got_g[k] - want_g[k]).max() <= 1e-13 * scale, k


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("shapes", list(_CHEB_SHAPES.values()),
                         ids=list(_CHEB_SHAPES))
def test_cheb_filter_op_finite_differences(shapes, order):
    vals = _cheb_case(shapes, order, 40 + order)
    probe = RNG(order).standard_normal(shapes[1][:-1] + (3,))

    def loss(t):
        return reduce_sum(tp.hadamard(
            gr.cheb_filter_op(t["l"], t["theta"], t["x"]), probe))

    err = finite_diff_check(loss, vals, max_coords=12, rng=RNG(0))
    assert err < 1e-6


def test_cheb_filter_op_constant_signal_gets_no_gradient():
    vals = _cheb_case(_CHEB_SHAPES["l2-x4"], 3, 50)
    t = tp.Tape()
    theta = t.param(vals["theta"])
    out = gr.cheb_filter_op(vals["l"], theta, vals["x"])
    assert t.nodes[out.node_id].input_ids == (None, theta.node_id, None)
    grads = t.nodes[out.node_id].backward(np.ones(out.shape))
    assert grads[2] is None and grads[1].shape == vals["theta"].shape


def test_cheb_filter_op_tape_is_freed_without_the_collector():
    # the backward closure holds no tensor, so the tape sits in no cycle
    vals = _cheb_case(_CHEB_SHAPES["l2-x4"], 3, 51)
    gc.disable()
    try:
        t = tp.Tape()
        p = {k: t.param(v) for k, v in vals.items()}
        gr.cheb_filter_op(p["l"], p["theta"], p["x"])
        alive = weakref.ref(t)
        del t, p
        assert alive() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("l_shape,x_shape", [
    ((4, 4), (5, 2)), ((4, 5), (4, 2)), ((2, 4, 4), (4, 2)),
    ((2, 4, 4), (3, 4, 2)), ((4, 4), (4, 3))])
def test_cheb_filter_op_rejects_mismatched_shapes(l_shape, x_shape):
    with pytest.raises(ShapeError, match="cheb_filter_op"):
        gr.cheb_filter_op(np.zeros(l_shape), np.zeros((2, 2, 3)),
                          np.zeros(x_shape))


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("n", [8, 70])
def test_graphset_roundtrip(tmp_path, n):
    st = random_stations(n, 30)
    from stationcast.data import WeatherSeriesDataset
    vals = RNG(31).standard_normal((n, 60, 3))
    ds = WeatherSeriesDataset(st, ["t", "hv2", "rh"], vals,
                              np.ones_like(vals, dtype=bool))
    gs = gr.build_static_graphs(ds, sigma="auto", epsilon=0.1, n_adjacent=3)
    out = tmp_path / "graphs.bin"
    gr.save_graphs(gs, out)
    assert out.read_bytes()[:4] == b"W2KG"
    back = gr.load_graphs(out)
    assert back.n == n and sorted(back.graphs) == sorted(gs.graphs)
    for k in gs.graphs:
        assert np.array_equal(back[k].weights, gs[k].weights)
        assert back[k].kind == gs[k].kind
    assert back.meta == json.loads(json.dumps(gs.meta))
    assert back.meta["n_adjacent"] == 3


def test_load_graphs_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\x00\x01\x02\x03 not a graph file")
    with pytest.raises(StructuralError):
        gr.load_graphs(bad)
