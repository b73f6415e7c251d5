"""Gradient and optimizer checks for the tape engine."""

import tracemalloc
import weakref

import numpy as np
import pytest

from stationcast import data as dt
from stationcast import graphs as gr
from stationcast import tape as tp
from stationcast.errors import ShapeError

from helpers import finite_diff_check, reduce_sum

RNG = np.random.default_rng


def fd_ok(build_loss, params, tol=1e-4, h=1e-5, seed=0):
    err = finite_diff_check(build_loss, params, h=h,
                            rng=np.random.default_rng(seed))
    assert err <= tol, f"worst relative gradient error {err:.3e}"


def test_matmul_2d_gradients():
    p = {"a": RNG(1).standard_normal((4, 3)), "b": RNG(2).standard_normal((3, 5))}
    fd_ok(lambda t: reduce_sum(tp.tanh(tp.matmul(t["a"], t["b"]))), p)


def test_matmul_batched_gradients():
    p = {"a": RNG(3).standard_normal((2, 3, 4)), "b": RNG(4).standard_normal((2, 4, 3))}
    fd_ok(lambda t: tp.reduce_mean(tp.tanh(tp.matmul(t["a"], t["b"]))), p)


def test_matmul_batched_by_shared_gradients():
    # a 2-D operand on either side is shared by every leading index; the
    # second case is the Chebyshev recurrence's [N, N] @ [B, N, C] product
    for sa, sb, seed in (((3, 2, 4), (4, 6), 5), ((4, 4), (3, 4, 5), 7)):
        p = {"a": RNG(seed).standard_normal(sa), "b": RNG(seed + 1).standard_normal(sb)}
        fd_ok(lambda t: reduce_sum(tp.tanh(tp.matmul(t["a"], t["b"]))), p)


def test_matmul_shared_operand_matches_tiled():
    a, b = RNG(9).standard_normal((4, 4)), RNG(10).standard_normal((3, 4, 5))

    def run(tile):
        t = tp.Tape()
        pa, pb = t.param(a), t.param(b)
        out = tp.matmul(tp.tile_leading(pa, 3) if tile else pa, pb)
        return out.values, tp.backward(reduce_sum(tp.tanh(out)))

    (shared, gs), (tiled, gt) = run(False), run(True)
    assert shared.tobytes() == tiled.tobytes()
    for k in gs:
        np.testing.assert_allclose(gs[k], gt[k], rtol=1e-13, atol=1e-14)


def test_elementwise_gradients():
    p = {"a": RNG(7).standard_normal((3, 4)) + 0.3,
         "b": RNG(8).standard_normal((3, 4)) + 0.2}

    def loss(t):
        s = tp.add(t["a"], t["b"])
        d = tp.sub(t["a"], t["b"])
        m = tp.hadamard(s, d)
        return reduce_sum(tp.tanh(tp.scalar_mul(0.7, m)))

    fd_ok(loss, p)


def test_relu_abs_gradients_away_from_kink():
    p = {"a": RNG(9).standard_normal((5, 5)) * 2.0}

    def loss(t):
        return reduce_sum(tp.add(tp.relu(t["a"]), tp.absolute(t["a"])))

    fd_ok(loss, p)


def test_relu_zero_subgradient():
    t = tp.Tape()
    a = t.param(np.zeros(3))
    loss = reduce_sum(tp.relu(a))
    g = tp.grad_of(tp.backward(loss), a)
    assert np.array_equal(g, np.zeros(3))


def test_structural_gradients():
    p = {"a": RNG(10).standard_normal((2, 6)), "b": RNG(11).standard_normal((2, 6))}

    def loss(t):
        c = tp.concat([t["a"], t["b"]], axis=0)
        s = tp.slice_axis(c, 1, 1, 5)
        r = tp.reshape(s, (4, 2, 2))
        tr = tp.transpose(r, (1, 0, 2))
        return tp.reduce_mean(tp.tanh(tr))

    fd_ok(loss, p)


def test_tile_and_bias_gradients():
    p = {"x": RNG(12).standard_normal((3, 4)), "b": RNG(13).standard_normal(4)}

    def loss(t):
        tiled = tp.tile_leading(t["x"], 5)
        return reduce_sum(tp.tanh(tp.add_bias(tiled, t["b"])))

    fd_ok(loss, p)


def test_conv1d_gradients_non_square():
    # C_in != C_out and an even kernel: the weight gradient must take each
    # tap's input slice at its own offset
    p = {"x": RNG(19).standard_normal((3, 11, 3)),
         "w": RNG(20).standard_normal((4, 3, 5))}

    def loss(t):
        y = tp.conv1d(t["x"], t["w"])
        return reduce_sum(tp.tanh(y))

    fd_ok(loss, p, seed=3)
    fd_ok(loss, p, seed=4)


def test_conv1d_matches_direct_sum():
    # oracle: explicit loop over output positions and taps
    rng = RNG(16)
    x = rng.standard_normal((2, 8, 3))
    w = rng.standard_normal((4, 3, 2))
    t_out = 8 - 3
    want = np.zeros((2, t_out, 2))
    for m in range(2):
        for t in range(t_out):
            for j in range(4):
                want[m, t] += x[m, t + j] @ w[j]
    got = tp.conv1d(x, w).values
    assert np.allclose(got, want, atol=1e-12)


def conv1d_weight_grad_im2col(x, g, k):
    """conv1d's weight gradient as one GEMM over an im2col copy of x.

    Row (m, t) of the [M*t_out, k*C_in] copy holds the taps x[m, t + j, :]
    for j = 0..k-1.
    """
    taps = np.lib.stride_tricks.sliding_window_view(x, k, axis=1)
    cols = taps.transpose(0, 1, 3, 2).reshape(-1, k * x.shape[2])
    return (cols.T @ g.reshape(-1, g.shape[2])).reshape(
        k, x.shape[2], g.shape[2])


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_conv1d_weight_gradient_matches_im2col(k):
    rng = RNG(80 + k)
    x = rng.standard_normal((6, 13, 3))
    t = tp.Tape()
    out = tp.conv1d(x, t.param(rng.standard_normal((k, 3, 4))))
    g = rng.standard_normal(out.shape)
    got = t.nodes[out.node_id].backward(g)[1]
    want = conv1d_weight_grad_im2col(x, g, k)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_scaled_laplacian_gradients():
    rng = RNG(17)
    base = rng.uniform(0.1, 1.0, size=(5, 5))
    adj = (base + base.T) / 2.0
    np.fill_diagonal(adj, 0.0)

    def loss(t):
        sym = tp.scalar_mul(0.5, tp.add(t["a"], tp.transpose(t["a"], (1, 0))))
        lt = tp.scaled_laplacian_op(tp.absolute(sym))
        return reduce_sum(tp.hadamard(lt, lt))

    fd_ok(loss, {"a": adj}, tol=1e-4)


def test_scaled_laplacian_batched_matches_single():
    rng = RNG(18)
    mats = []
    for _ in range(3):
        b = rng.uniform(0.1, 1.0, size=(4, 4))
        m = (b + b.T) / 2.0
        np.fill_diagonal(m, 0.0)
        mats.append(m)
    stack = np.stack(mats)
    got = tp.scaled_laplacian_op(stack).values
    for i in range(3):
        single = tp.scaled_laplacian_op(mats[i]).values
        assert np.array_equal(got[i], single)
        assert np.array_equal(tp.scaled_laplacian_op(mats[i][None]).values[0],
                              single)
    # a rank-2 input runs the stack code as a one-element stack, backward too
    grads = []
    for a in (mats[0], mats[0][None]):
        t = tp.Tape()
        p = t.param(a)
        lt = tp.scaled_laplacian_op(p)
        loss = reduce_sum(tp.hadamard(lt, lt))
        grads.append(tp.grad_of(tp.backward(loss), p))
    assert np.array_equal(grads[0], grads[1][0])


def test_scaled_laplacian_stack_gradients():
    rng = RNG(19)
    p = {"a": rng.uniform(0.1, 1.0, size=(3, 5, 5)),
         "w": rng.standard_normal((3, 5, 5))}

    def loss(t):
        sym = tp.scalar_mul(0.5, tp.add(t["a"],
                                        tp.transpose(t["a"], (0, 2, 1))))
        lt = tp.scaled_laplacian_op(tp.absolute(sym))
        return reduce_sum(tp.hadamard(lt, t["w"]))

    fd_ok(loss, p, tol=1e-4)


def test_scaled_laplacian_stack_mixes_valid_and_fallback():
    # an all-zero adjacency is all self-loops after the isolation guard, so
    # L = 0, lambda falls back to 2.0 and only its neighbours get an
    # eigenvector in the backward
    rng = RNG(20)
    n = 5
    p = {"a": rng.uniform(0.1, 1.0, size=(2, n, n))}
    w = rng.standard_normal((3, n, n))
    zero = np.zeros((1, n, n))

    def stack(t):
        sym = tp.scalar_mul(0.5, tp.add(t["a"],
                                        tp.transpose(t["a"], (0, 2, 1))))
        return tp.concat([tp.slice_axis(sym, 0, 0, 1), zero,
                          tp.slice_axis(sym, 0, 1, 2)], axis=0)

    def loss(t):
        return reduce_sum(tp.hadamard(tp.scaled_laplacian_op(stack(t)), w))

    _, saved = tp._laplacian_forward_batch(stack(p).values)
    assert saved[4].tolist() == [True, False, True]
    assert np.array_equal(tp.scaled_laplacian_op(stack(p)).values[1],
                          -np.eye(n))
    fd_ok(loss, p, tol=1e-4)


def _fused_station_adjacencies(n, count, seed):
    # real station graphs fused with random per-node weights, symmetrized
    ds = dt.generate_synthetic(dt.SynthConfig(n=n, t=400, d=1, seed=seed))
    graphs = gr.build_static_graphs(ds).graphs
    rng = RNG(seed)
    return np.stack([gr.symmetrize_op(sum(
        rng.uniform(0.0, 1.0, (n, n)) * a.weights for a in graphs.values())
    ).values for _ in range(count)])


@pytest.mark.parametrize("n", [20, 100])
def test_inverse_iteration_matches_eigh(n):
    _, saved = tp._laplacian_forward_batch(
        _fused_station_adjacencies(n, 4, seed=n))
    lap, lam, valid = saved[2], saved[3], saved[4]
    assert valid.all()
    v = tp._top_eigvec_batch(lap.copy(), lam)
    u = np.linalg.eigh(lap)[1][:, :, -1]
    assert np.abs(np.einsum("bi,bi->b", v, u)).min() >= 1.0 - 1e-12


def test_scaled_laplacian_repeated_top_eigenvalue():
    # complete graph: the normalized Laplacian's top eigenvalue n/(n-1) has
    # multiplicity n-1 (every vector orthogonal to the constant one), so
    # lambda has only a subgradient v v^T, one for each unit v in that
    # eigenspace.  The backward takes v from its fixed start vector; this
    # checks that v lies in the eigenspace and repeats bit for bit, not that
    # it equals the vector LAPACK's eigh would pick.
    n = 6
    adj = np.ones((n, n)) - np.eye(n)
    w = RNG(26).standard_normal((n, n))
    _, saved = tp._laplacian_forward_batch(adj[None])
    lap, lam = saved[2], saved[3]
    assert lam[0] == pytest.approx(n / (n - 1), abs=1e-14)
    v = tp._top_eigvec_batch(lap.copy(), lam)[0]
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(lap[0] @ v - lam[0] * v).max() <= 1e-12
    grads = []
    for _ in range(2):
        t = tp.Tape()
        a = t.param(adj)
        loss = reduce_sum(tp.hadamard(tp.scaled_laplacian_op(a), w))
        grads.append(tp.grad_of(tp.backward(loss), a))
    assert np.isfinite(grads[0]).all()
    assert grads[0].tobytes() == grads[1].tobytes()


def test_scaled_laplacian_uses_exact_lambda_on_fused_graph():
    # equal-weight fusion of real station graphs: lambda_max sits near 1.1,
    # so a scale taken from the 2.0 fallback would miss by far more than 1e-10
    ds = dt.generate_synthetic(dt.SynthConfig(n=24, t=400, d=1, seed=0))
    graphs = gr.build_static_graphs(ds).graphs
    fused = sum(a.weights for a in graphs.values()) / len(graphs)
    adj = gr.symmetrize_op(fused).values
    lt = tp.scaled_laplacian_op(adj).values
    s = 1.0 / np.sqrt(adj.sum(axis=1))
    lap = np.eye(len(adj)) - s[:, None] * adj * s[None, :]
    mask = np.abs(lap) > 1e-3
    lam_used = 2.0 * lap[mask] / (lt + np.eye(len(adj)))[mask]
    lam_true = np.linalg.eigvalsh(lap)[-1]
    assert np.abs(lam_used - lam_true).max() <= 1e-10 * lam_true


def test_scaled_laplacian_triangle_spectrum():
    # complete graph on three nodes: normalized Laplacian eigenvalues 0, 1.5, 1.5
    adj = np.ones((3, 3)) - np.eye(3)
    lt = tp.scaled_laplacian_op(adj).values
    lap = np.eye(3) - adj / 2.0
    evals = np.linalg.eigvalsh(lap)
    assert np.allclose(np.sort(evals), [0.0, 1.5, 1.5], atol=1e-12)
    want = 2.0 * lap / 1.5 - np.eye(3)
    assert np.allclose(lt, want, atol=1e-9)


def test_scaled_laplacian_self_loop_singleton():
    lt = tp.scaled_laplacian_op(np.array([[1.0]])).values
    assert np.allclose(lt, [[-1.0]], atol=0)


def test_scaled_laplacian_isolated_node_stays_finite():
    adj = np.zeros((3, 3))
    adj[0, 1] = adj[1, 0] = 1.0
    lt = tp.scaled_laplacian_op(adj)
    assert np.isfinite(lt.values).all()
    t = tp.Tape()
    a = t.param(adj)
    loss = reduce_sum(tp.hadamard(tp.scaled_laplacian_op(a),
                                  tp.scaled_laplacian_op(a)))
    g = tp.grad_of(tp.backward(loss), a)
    assert np.isfinite(g).all()


def test_backward_frees_consumed_gradients():
    # a node's gradient is dropped once the node has passed it on, so a
    # chain of 12 ops holds a few gradients at a time, not 12
    t = tp.Tape()
    x = t.param(np.full((500, 500), 0.1))
    y = x
    for _ in range(12):
        y = tp.tanh(y)
    loss = reduce_sum(y)
    tracemalloc.start()
    try:
        store = tp.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * x.values.nbytes
    out, want = 0.1, 1.0
    for _ in range(12):
        out = np.tanh(out)
        want *= 1.0 - out * out
    assert np.allclose(tp.grad_of(store, x), want, rtol=1e-12)


def _isolated_node_graph(rng):
    adj = np.zeros((3, 3))
    adj[0, 1] = adj[1, 0] = rng.uniform(0.5, 1.5)
    return adj


# op, its operands, the operands on the tape (the rest are constants), and
# the operand whose array no gradient of the op reads
_UNREAD_OPERAND = {
    "add": (tp.add, [(3, 4), (3, 4)], {0, 1}, 0),
    "sub-const": (tp.sub, [(3, 4), (3, 4)], {0}, 1),
    "hadamard-const-b": (tp.hadamard, [(3, 4), (3, 4)], {0}, 0),
    "hadamard-const-a": (tp.hadamard, [(3, 4), (3, 4)], {1}, 1),
    "scalar_mul": (lambda a: tp.scalar_mul(2.0, a), [(3, 4)], {0}, 0),
    "matmul-const-b": (tp.matmul, [(2, 3, 4), (4, 5)], {0}, 0),
    "matmul-const-a": (tp.matmul, [(2, 3, 4), (4, 5)], {1}, 1),
    "tanh": (tp.tanh, [(3, 4)], {0}, 0),
    "relu": (tp.relu, [(3, 4)], {0}, 0),
    "absolute": (tp.absolute, [(3, 4)], {0}, 0),
    "concat": (lambda a, b: tp.concat([a, b], axis=0),
               [(2, 4), (1, 4)], {0, 1}, 0),
    "slice_axis": (lambda a: tp.slice_axis(a, 1, 1, 3), [(3, 4)], {0}, 0),
    "reshape": (lambda a: tp.reshape(a, (2, 6)), [(3, 4)], {0}, 0),
    "transpose": (lambda a: tp.transpose(a, (1, 0)), [(3, 4)], {0}, 0),
    "tile_leading": (lambda a: tp.tile_leading(a, 2), [(3, 4)], {0}, 0),
    "add_bias": (tp.add_bias, [(3, 4), (4,)], {0, 1}, 0),
    "reduce_sum": (reduce_sum, [(3, 4)], {0}, 0),
    "reduce_mean": (tp.reduce_mean, [(3, 4)], {0}, 0),
    "conv1d-const-w": (tp.conv1d, [(2, 7, 3), (3, 3, 4)], {0}, 0),
    "conv1d-const-x": (tp.conv1d, [(2, 7, 3), (3, 3, 4)], {1}, 1),
    # a self-loop is injected into a copy, which the backward reads instead
    "scaled_laplacian-isolated": (tp.scaled_laplacian_op,
                                  [_isolated_node_graph], {0}, 0),
    "symmetrize": (gr.symmetrize_op, [(2, 3, 3)], {0}, 0),
}
# cheb_filter_op has no case: its backward reads L~, theta and x


@pytest.mark.parametrize("case", list(_UNREAD_OPERAND))
def test_tape_keeps_no_array_its_gradient_does_not_read(case):
    op, operands, on_tape, unread = _UNREAD_OPERAND[case]
    rng = RNG(60)
    t = tp.Tape()
    ins = []
    for i, spec in enumerate(operands):
        arr = spec(rng) if callable(spec) else rng.uniform(-1.0, 1.0, spec)
        ins.append(t.param(arr) if i in on_tape else arr)
    alive = weakref.ref(tp._as_array(ins[unread]))
    op(*ins)
    del ins, arr
    assert t.nodes[-1].backward is not None  # the tape holds the closure
    assert alive() is None


@pytest.mark.parametrize("op,shapes", [
    (tp.matmul, [(2, 3, 4), (4, 5)]), (tp.hadamard, [(3, 4), (3, 4)]),
    (tp.sub, [(3, 4), (3, 4)]), (tp.conv1d, [(2, 7, 3), (3, 3, 4)])],
    ids=["matmul", "hadamard", "sub", "conv1d"])
@pytest.mark.parametrize("const", [0, 1])
def test_constant_operand_gets_no_gradient(op, shapes, const):
    rng = RNG(61)
    vals = [rng.standard_normal(s) for s in shapes]

    def grads(on_tape):
        t = tp.Tape()
        out = op(*(t.param(v) if i in on_tape else v
                   for i, v in enumerate(vals)))
        return t.nodes[out.node_id].backward(RNG(62).standard_normal(
            out.shape))

    part, full = grads({1 - const}), grads({0, 1})
    assert part[const] is None
    assert part[1 - const].tobytes() == full[1 - const].tobytes()


def test_backward_zero_for_untouched_param():
    t = tp.Tape()
    a = t.param(np.ones((2, 2)))
    b = t.param(np.ones((3,)))
    loss = reduce_sum(a)
    store = tp.backward(loss)
    assert np.array_equal(tp.grad_of(store, b), np.zeros(3))
    assert np.array_equal(tp.grad_of(store, a), np.ones((2, 2)))


def test_backward_requires_scalar():
    t = tp.Tape()
    a = t.param(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        tp.backward(tp.tanh(a))


def test_mixing_tapes_raises():
    t1, t2 = tp.Tape(), tp.Tape()
    a = t1.param(np.ones((2, 2)))
    b = t2.param(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        tp.add(a, b)


def test_shape_mismatch_raises():
    t = tp.Tape()
    a = t.param(np.ones((2, 3)))
    b = t.param(np.ones((3, 3)))
    with pytest.raises(ShapeError):
        tp.add(a, b)
    with pytest.raises(ShapeError):
        tp.matmul(a, np.ones((2, 2)))
    with pytest.raises(ShapeError):
        tp.matmul(np.ones((2, 2, 3)), np.ones((3, 3, 3)))
    with pytest.raises(ShapeError):
        tp.matmul(np.ones(3), np.ones((3, 3)))


def test_replay_is_bitwise_deterministic():
    rng = RNG(19)
    p = {"a": rng.standard_normal((4, 4)), "b": rng.standard_normal((4, 4))}

    def run():
        t = tp.Tape()
        tp_a, tp_b = t.param(p["a"]), t.param(p["b"])
        loss = tp.reduce_mean(tp.tanh(tp.matmul(tp_a, tp_b)))
        store = tp.backward(loss)
        return loss.values.copy(), tp.grad_of(store, tp_a).copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1.tobytes() == l2.tobytes()
    assert g1.tobytes() == g2.tobytes()


def test_corrupted_derivative_is_caught():
    # an op whose backward is 5% off must trip the finite-difference check

    def bad_tanh(a):
        av = tp._as_array(a)
        out = np.tanh(av)
        return tp._emit("bad_tanh", (a,), out,
                        lambda g: (1.05 * g * (1.0 - out * out),))

    p = {"a": RNG(20).standard_normal((3, 3))}
    err = finite_diff_check(
        lambda t: reduce_sum(bad_tanh(t["a"])), p,
        rng=np.random.default_rng(0))
    assert err > 1e-2


def test_linear_function_checks_tightly():
    # central differences are exact on affine maps up to rounding
    p = {"a": RNG(21).standard_normal((4, 4))}
    w = RNG(22).standard_normal((4, 4))
    err = finite_diff_check(
        lambda t: reduce_sum(tp.hadamard(t["a"], tp.TapeTensor(w))), p,
        rng=np.random.default_rng(0))
    assert err < 1e-9


def test_adam_first_step_closed_form():
    p = {"w": np.array([1.0, -2.0, 3.0])}
    g = {"w": np.array([0.5, -0.25, 1.0])}
    st = tp.AdamState()
    out = tp.adam_step(p, g, st, lr=0.1)
    # after bias correction the first step is lr * g / (|g| + eps)
    want = p["w"] - 0.1 * g["w"] / (np.abs(g["w"]) + 1e-8)
    assert np.allclose(out["w"], want, atol=1e-12)
    assert st.t == 1


def test_adam_minimizes_quadratic_bowl():
    target = np.array([1.5, -0.5, 2.0])
    p = {"w": np.zeros(3)}
    st = tp.AdamState()
    for _ in range(800):
        g = {"w": 2.0 * (p["w"] - target)}
        p = tp.adam_step(p, g, st, lr=0.05)
    assert np.allclose(p["w"], target, atol=1e-3)


def test_full_expression_gradients():
    # a composite touching most primitives at once
    rng = RNG(23)
    p = {
        "adj": np.abs(rng.standard_normal((4, 4))) + 0.1,
        "theta": rng.standard_normal((3, 2)),
        "bias": rng.standard_normal(2),
        "x": rng.standard_normal((4, 3)),
    }

    def loss(t):
        sym = tp.scalar_mul(0.5, tp.add(t["adj"], tp.transpose(t["adj"], (1, 0))))
        lt = tp.scaled_laplacian_op(tp.absolute(sym))
        h = tp.matmul(lt, t["x"])
        y = tp.add_bias(tp.matmul(h, t["theta"]), t["bias"])
        return tp.reduce_mean(tp.absolute(tp.tanh(y)))

    fd_ok(loss, p, tol=1e-4)
