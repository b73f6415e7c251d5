"""Dense reverse-mode differentiation on an explicit tape.

Every tensor is a float64 numpy array.  Operations append a node holding a
backward closure to the tape they found on their inputs; plain numpy arrays
passed into an operation are treated as constants and receive no gradient.
Calling :func:`backward` on a scalar output walks the tape in reverse append
order and accumulates gradients into a store keyed by parameter id.

Retention rule: a backward closure captures only the arrays its gradient
reads, and otherwise shapes, offsets and scalars.  The tape outlives the
forward, so an array a closure holds stays live until the step ends; an
operand on no tape gets no gradient, and the arrays only its gradient
would read are not kept either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import ShapeError

ArrayLike = Union[np.ndarray, float, int, "TapeTensor"]

_LAMBDA_FALLBACK = 2.0


@dataclass
class _Node:
    op: str
    input_ids: tuple
    backward: Optional[Callable]
    is_param: bool = False
    shape: tuple = ()


class Tape:
    """Append-only record of one forward computation."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def param(self, values: ArrayLike, name: str = "") -> "TapeTensor":
        """Register a differentiable leaf and return its tensor."""
        arr = _as_array(values)
        nid = len(self.nodes)
        self.nodes.append(_Node(op=f"param:{name}", input_ids=(), backward=None,
                                is_param=True, shape=arr.shape))
        return TapeTensor(arr, self, nid)

    def _record(self, op: str, input_ids: tuple, backward: Callable,
                values: np.ndarray) -> "TapeTensor":
        nid = len(self.nodes)
        self.nodes.append(_Node(op=op, input_ids=input_ids, backward=backward))
        return TapeTensor(values, self, nid)


class TapeTensor:
    """A value plus its position on a tape (constants sit on no tape)."""

    __slots__ = ("values", "tape", "node_id")

    def __init__(self, values: np.ndarray, tape: Optional[Tape] = None,
                 node_id: Optional[int] = None):
        self.values = _as_array(values)
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self):
        return self.values.shape

    def __repr__(self):
        tag = "const" if self.tape is None else f"node {self.node_id}"
        return f"TapeTensor(shape={self.values.shape}, {tag})"


def _as_array(x) -> np.ndarray:
    if isinstance(x, TapeTensor):
        return x.values
    return np.asarray(x, dtype=np.float64)


def _tape_of(*tensors) -> Optional[Tape]:
    tape = None
    for t in tensors:
        if isinstance(t, TapeTensor) and t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ShapeError("operands come from two different tapes")
    return tape


def _nid(t) -> Optional[int]:
    if isinstance(t, TapeTensor):
        return t.node_id
    return None


def _on_tape(t) -> bool:
    return _nid(t) is not None


def _emit(op: str, inputs: Sequence, values: np.ndarray,
          backward: Callable) -> TapeTensor:
    tape = _tape_of(*inputs)
    if tape is None:
        return TapeTensor(values)
    return tape._record(op, tuple(_nid(t) for t in inputs), backward, values)


# ---------------------------------------------------------------------------
# arithmetic primitives


def add(a: ArrayLike, b: ArrayLike) -> TapeTensor:
    av, bv = _as_array(a), _as_array(b)
    if av.shape != bv.shape:
        raise ShapeError(f"add: shapes {av.shape} and {bv.shape} differ")
    return _emit("add", (a, b), av + bv, lambda g: (g, g))


def sub(a: ArrayLike, b: ArrayLike) -> TapeTensor:
    av, bv = _as_array(a), _as_array(b)
    if av.shape != bv.shape:
        raise ShapeError(f"sub: shapes {av.shape} and {bv.shape} differ")
    need_a, need_b = _on_tape(a), _on_tape(b)
    return _emit("sub", (a, b), av - bv, lambda g: (
        g if need_a else None, -g if need_b else None))


def hadamard(a: ArrayLike, b: ArrayLike) -> TapeTensor:
    av, bv = _as_array(a), _as_array(b)
    if av.shape != bv.shape:
        raise ShapeError(f"hadamard: shapes {av.shape} and {bv.shape} differ")
    # each operand's gradient reads the other one
    keep_b = bv if _on_tape(a) else None
    keep_a = av if _on_tape(b) else None
    return _emit("hadamard", (a, b), av * bv, lambda g: (
        None if keep_b is None else g * keep_b,
        None if keep_a is None else g * keep_a))


def scalar_mul(c: float, a: ArrayLike) -> TapeTensor:
    """Multiply a tensor by a python scalar (the scalar is not a parameter)."""
    c = float(c)
    av = _as_array(a)
    return _emit("scalar_mul", (a,), c * av, lambda g: (c * g,))


def _product_at_rank(ndim: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y over the last two axes; a 2-D result sums the leading axis."""
    if ndim == 3:
        return x @ y
    xt = np.swapaxes(x, -1, -2)  # one GEMM over the stacked rows
    return xt.reshape(-1, xt.shape[-1]).T @ y.reshape(-1, y.shape[-1])


def _transposed(x: np.ndarray) -> np.ndarray:
    """x with its last two axes swapped.

    A 2-D transpose is copied to C order: numpy multiplies a 3-D stack by a
    contiguous matrix about twice as fast as by a transposed view.
    """
    xt = np.swapaxes(x, -1, -2)
    return np.ascontiguousarray(xt) if x.ndim == 2 else xt


def matmul(a: ArrayLike, b: ArrayLike) -> TapeTensor:
    """Matrix product over the last two axes of rank-2 or rank-3 operands.

    A 2-D operand is shared by every leading index of a 3-D one, and its
    gradient sums over that axis.
    """
    av, bv = _as_array(a), _as_array(b)
    if not {av.ndim, bv.ndim} <= {2, 3} or av.shape[-1] != bv.shape[-2] \
            or len({x.shape[0] for x in (av, bv) if x.ndim == 3}) > 1:
        raise ShapeError(f"matmul: {av.shape} @ {bv.shape}")
    nd_a, nd_b = av.ndim, bv.ndim
    # each operand's gradient reads the other one
    keep_b = bv if _on_tape(a) else None
    keep_a = av if _on_tape(b) else None
    return _emit("matmul", (a, b), av @ bv, lambda g: (
        None if keep_b is None
        else _product_at_rank(nd_a, g, _transposed(keep_b)),
        None if keep_a is None
        else _product_at_rank(nd_b, _transposed(keep_a), g)))


def tanh(a: ArrayLike) -> TapeTensor:
    av = _as_array(a)
    out = np.tanh(av)
    return _emit("tanh", (a,), out, lambda g: (g * (1.0 - out * out),))


# relu/abs take the zero subgradient at their kink
def relu(a: ArrayLike) -> TapeTensor:
    out = np.maximum(_as_array(a), 0.0)
    return _emit("relu", (a,), out, lambda g: (g * (out > 0.0),))


def absolute(a: ArrayLike) -> TapeTensor:
    av = _as_array(a)
    s = np.sign(av)
    return _emit("abs", (a,), np.abs(av), lambda g: (g * s,))


# ---------------------------------------------------------------------------
# structural primitives


def concat(tensors: Sequence[ArrayLike], axis: int) -> TapeTensor:
    arrs = [_as_array(t) for t in tensors]
    out = np.concatenate(arrs, axis=axis)
    offsets = np.cumsum([0] + [a.shape[axis] for a in arrs])

    def back(g):
        return tuple(np.take(g, range(offsets[i], offsets[i + 1]), axis=axis)
                     for i in range(len(offsets) - 1))

    return _emit("concat", tuple(tensors), out, back)


def slice_axis(a: ArrayLike, axis: int, start: int, stop: int) -> TapeTensor:
    av = _as_array(a)
    idx = [slice(None)] * av.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = av[idx].copy()
    shape = av.shape

    def back(g):
        ga = np.zeros(shape)
        ga[idx] = g
        return (ga,)

    return _emit("slice", (a,), out, back)


def reshape(a: ArrayLike, shape) -> TapeTensor:
    av = _as_array(a)
    in_shape = av.shape
    return _emit("reshape", (a,), av.reshape(shape),
                 lambda g: (g.reshape(in_shape),))


def transpose(a: ArrayLike, axes: Sequence[int]) -> TapeTensor:
    av = _as_array(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _emit("transpose", (a,), np.transpose(av, axes).copy(),
                 lambda g: (np.transpose(g, inv),))


def tile_leading(a: ArrayLike, reps: int) -> TapeTensor:
    """Stack `reps` copies of `a` along a new leading axis."""
    av = _as_array(a)
    out = np.broadcast_to(av, (reps,) + av.shape).copy()
    return _emit("tile_leading", (a,), out, lambda g: (g.sum(axis=0),))


def add_bias(x: ArrayLike, b: ArrayLike) -> TapeTensor:
    """Add a vector bias along the last axis."""
    xv, bv = _as_array(x), _as_array(b)
    if bv.ndim != 1 or xv.shape[-1] != bv.shape[0]:
        raise ShapeError(f"add_bias: {xv.shape} + {bv.shape}")
    axes = tuple(range(xv.ndim - 1))
    return _emit("add_bias", (x, b), xv + bv,
                 lambda g: (g, g.sum(axis=axes)))


def reduce_mean(a: ArrayLike) -> TapeTensor:
    av = _as_array(a)
    shape, n = av.shape, av.size
    return _emit("reduce_mean", (a,), np.asarray(av.mean()),
                 lambda g: (np.full(shape, float(g) / n),))


def conv1d(x: ArrayLike, w: ArrayLike) -> TapeTensor:
    """Valid 1-D convolution over the middle axis.

    x: [M, T, C_in], w: [k, C_in, C_out] -> [M, T - k + 1, C_out].
    """
    xv, wv = _as_array(x), _as_array(w)
    if xv.ndim != 3 or wv.ndim != 3 or xv.shape[2] != wv.shape[1]:
        raise ShapeError(f"conv1d: {xv.shape} * {wv.shape}")
    k = wv.shape[0]
    t_out = xv.shape[1] - k + 1
    if t_out <= 0:
        raise ShapeError(f"conv1d: kernel {k} exceeds length {xv.shape[1]}")
    out = np.zeros((xv.shape[0], t_out, wv.shape[2]))
    taps = [slice(j, j + t_out) for j in range(k)]
    for j in range(k):
        out += xv[:, taps[j], :] @ wv[j]
    x_shape, c_in, c_out = xv.shape, wv.shape[1], wv.shape[2]
    # x's gradient reads w, and w's reads x
    keep_w = wv if _on_tape(x) else None
    keep_x = xv if _on_tape(w) else None

    def back(g):
        gx = gw = None
        if keep_w is not None:
            gx = np.zeros(x_shape)
            wt = np.ascontiguousarray(keep_w.transpose(0, 2, 1))  # w_j^T
            for j in range(k):
                gx[:, taps[j], :] += g @ wt[j]
        if keep_x is not None:
            # one GEMM per tap: gw_j = sum over (m, t) of x[m, t + j] g[m, t];
            # each tap's slice is one [M*t_out, C_in] copy, never a k-fold
            # im2col
            g2 = g.reshape(-1, c_out)
            gw = np.empty((k, c_in, c_out))
            for j in range(k):
                gw[j] = keep_x[:, taps[j], :].reshape(-1, c_in).T @ g2
        return gx, gw

    return _emit("conv1d", (x, w), out, back)


# ---------------------------------------------------------------------------
# spectral compound


def _lambda_max_batch(mats: np.ndarray):
    """Largest eigenvalues of a stack of symmetric PSD matrices.

    One batched LAPACK eigvalsh call: lambda is exact to rounding and no
    eigenvector is formed.  Matrices with a degenerate spectrum
    (lambda <= 1e-12, e.g. a lone self-looped node) fall back to lambda 2.0
    and are flagged invalid.  Returns (lam [B], valid [B]).
    """
    lam = np.linalg.eigvalsh(mats)[:, -1]
    valid = lam > 1e-12
    return np.where(valid, lam, _LAMBDA_FALLBACK), valid


def _top_eigvec_batch(shifted: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Unit eigenvectors [B, N] for the largest eigenvalues lam of a stack.

    Two steps of inverse iteration with L - sigma I, sigma = lam (1 + 1e-10)
    just above lam: each batched solve multiplies the top eigenvector's share
    by (lam - lam_2) / (1e-10 lam) against the next eigenvalue's.  `shifted`
    holds the matrices L and is overwritten with L - sigma I.  The start
    vector is fixed, so reruns are bitwise equal, and not constant: on a
    regular graph the top eigenvector is orthogonal to the constant vector.
    Where the top eigenvalue is repeated, the result is the start vector's
    part in its eigenspace.
    """
    n = shifted.shape[-1]
    di = np.arange(n)
    shifted[:, di, di] -= (lam * (1.0 + 1e-10))[:, None]
    v = np.broadcast_to(np.sin(np.arange(1.0, n + 1.0))[:, None],
                        (len(shifted), n, 1))
    for _ in range(2):
        v = np.linalg.solve(shifted, v)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v[:, :, 0]


def _laplacian_forward_batch(a: np.ndarray):
    """Scaled Laplacians of a [B, N, N] stack of symmetric adjacencies.

    Returns (l_tilde, saved) where saved carries what backward needs.
    """
    n = a.shape[1]
    deg = a.sum(axis=2)
    isolated = deg <= 0.0
    a_eff = a
    if isolated.any():
        a_eff = a.copy()
        di = np.arange(n)
        diag = a_eff[:, di, di]
        # self-loop keeps the normalization finite
        a_eff[:, di, di] = np.where(isolated, 1.0, diag)
        deg = a_eff.sum(axis=2)
    s = 1.0 / np.sqrt(deg)
    eye = np.eye(n)
    # I - S A S and 2 L / lam - I, each formed in one [B, N, N] buffer
    lap = s[:, :, None] * a_eff
    lap *= s[:, None, :]
    np.subtract(eye, lap, out=lap)
    lam, valid = _lambda_max_batch(lap)
    l_tilde = (2.0 / lam)[:, None, None] * lap
    l_tilde -= eye
    return l_tilde, (a_eff, s, lap, lam, valid, isolated)


def _laplacian_backward_batch(g: np.ndarray, saved) -> np.ndarray:
    a_eff, s, lap, lam, valid, isolated = saved
    # dL~/dL has two parts: the 2/lam scaling and lam's own dependence on L,
    # dlam/dL = v v^T for the top eigenvector v; the second vanishes when
    # lam came from the constant fallback
    g_lap = (2.0 / lam)[:, None, None] * g
    g_lam = (-2.0 / lam ** 2) * np.einsum("bij,bij->b", g, lap)
    if valid.any():
        # a basic slice when every matrix is valid: no fancy-index copies
        sel = slice(None) if valid.all() else valid
        v = _top_eigvec_batch(lap[sel].copy(), lam[sel])
        cv = g_lam[sel][:, None] * v
        g_lap[sel] += cv[:, :, None] * v[:, None, :]
    h = -g_lap  # gradient w.r.t. the normalized adjacency s_i A_ij s_j
    grad_a = h * (s[:, :, None] * s[:, None, :])
    # through the degree vector: ds_i/dd_i = -1/2 d^{-3/2}
    gs = (h * a_eff * s[:, None, :]).sum(axis=2) \
        + (h * a_eff * s[:, :, None]).sum(axis=1)
    c = gs * (-0.5) * s ** 3
    c = np.where(isolated, 0.0, c)  # clamped rows have frozen degree
    grad_a = grad_a + c[:, :, None]
    if isolated.any():
        di = np.arange(grad_a.shape[1])
        diag = grad_a[:, di, di]
        # injected self-loops are constants
        grad_a[:, di, di] = np.where(isolated, 0.0, diag)
    return grad_a


def scaled_laplacian_op(a: ArrayLike) -> TapeTensor:
    """Differentiable rescaled graph Laplacian, 2 L / lambda_max - I.

    Accepts one [N, N] matrix or a stack [B, N, N]; each matrix must be
    symmetric with nonnegative entries.  The forward takes lambda_max from
    one batched eigvalsh and forms no eigenvector; the backward forms the
    top eigenvector, for lambda's own gradient, by inverse iteration.
    """
    av = _as_array(a)
    if av.ndim not in (2, 3):
        raise ShapeError(f"scaled_laplacian_op: rank {av.ndim} input")
    shape = av.shape
    stack = av.reshape((-1,) + shape[-2:])
    out, saved = _laplacian_forward_batch(stack)
    stack_shape = stack.shape
    # saved holds the adjacency (a copy where a self-loop was injected)
    return _emit("scaled_laplacian", (a,), out.reshape(shape),
                 lambda g: (_laplacian_backward_batch(
                     g.reshape(stack_shape), saved).reshape(shape),))


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: TapeTensor) -> dict[int, np.ndarray]:
    """Gradients of a scalar loss w.r.t. every parameter on its tape.

    Returns a dict keyed by parameter node id; parameters the loss never
    touched get zeros.
    """
    if loss.tape is None:
        raise ShapeError("backward: loss is a constant, nothing to differentiate")
    if loss.values.shape != ():
        raise ShapeError(f"backward: loss must be scalar, got {loss.values.shape}")
    tape = loss.tape
    grads: list[Optional[np.ndarray]] = [None] * len(tape.nodes)
    grads[loss.node_id] = np.asarray(1.0)
    for nid in range(loss.node_id, -1, -1):
        g = grads[nid]
        if g is None:
            continue
        node = tape.nodes[nid]
        if node.backward is None:
            continue
        # every consumer of node nid sits later on the tape, so g is
        # complete here; dropping it keeps only live gradients in memory
        grads[nid] = None
        for in_id, gin in zip(node.input_ids, node.backward(g)):
            if in_id is None or gin is None:
                continue
            if grads[in_id] is None:
                # kept as returned (maybe a view of g, or shared with a
                # sibling): accumulation is out of place, no closure writes g
                grads[in_id] = gin
            else:
                grads[in_id] = grads[in_id] + gin
    store: dict[int, np.ndarray] = {}
    for nid, node in enumerate(tape.nodes):
        if node.is_param:
            g = grads[nid]
            store[nid] = np.zeros(node.shape) if g is None else np.asarray(g)
    return store


def grad_of(store: dict[int, np.ndarray], tensor: TapeTensor) -> np.ndarray:
    """Gradient for one parameter tensor out of a backward() store."""
    return store[tensor.node_id]


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """First/second moment accumulators for a named parameter set."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> dict[str, np.ndarray]:
    """One bias-corrected Adam update; mutates state, returns new params."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8  # the defaults of Kingma & Ba
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
