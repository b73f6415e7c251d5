"""Spans and counters recorded from outside the stationcast package.

Every layer boundary is a module-level function the package calls through a
module attribute (``tp.conv1d``, ``md.predict_dataset``, ``cli.main``).  The
tracer replaces each such function, in every stationcast module that holds a
reference to it, with a wrapper that records one span per call: name, start,
end, parent and run id.  Spans stay in memory until the run writes them out.
Backward time per tape op comes from wrapping the closure of each recorded
node in ``Tape.nodes`` just before ``tape.backward`` walks them.

Untraced runs install only the three coarse ``PROBES`` (at most one call per
optimisation step), which the step-time and throughput metrics need.
"""

from __future__ import annotations

import gzip
import inspect
import math
import time
from collections import defaultdict

import numpy as np

PROBES = (("model", "train"), ("model", "predict_dataset"),
          ("tape", "adam_step"))

# differentiable tape ops and the op tag each one writes into Tape.nodes
TAPE_OPS = {
    "matmul": "matmul", "conv1d": "conv1d",
    "scaled_laplacian_op": "scaled_laplacian", "add": "add", "sub": "sub",
    "hadamard": "hadamard", "scalar_mul": "scalar_mul", "tanh": "tanh",
    "relu": "relu", "absolute": "abs", "concat": "concat",
    "slice_axis": "slice", "reshape": "reshape", "transpose": "transpose",
    "tile_leading": "tile_leading", "add_bias": "add_bias",
    "reduce_mean": "reduce_mean",
}
_OP_BY_TAG = {tag: name for name, tag in TAPE_OPS.items()}

LAYERS = (
    [("tape", op) for op in TAPE_OPS]
    + [("tape", "backward"), ("tape", "adam_step")]
    + [("graphs", f) for f in ("fuse_graphs_op", "learnable_graph_op",
                               "dynamic_graph_op", "symmetrize_op",
                               "build_static_graphs", "save_graphs",
                               "load_graphs")]
    + [("model", f) for f in ("train", "forward_on_tape", "_fused_laplacian",
                              "st_block_forward", "_cheb_over_time",
                              "temporal_multibranch", "_mae_loss",
                              "predict_dataset", "save_checkpoint",
                              "load_checkpoint")]
    + [("data", f) for f in ("make_windows", "generate_synthetic",
                             "_load_csv_dir", "_load_binary", "save_dataset",
                             "screen_missing", "screen_defaults",
                             "interpolate_linear", "normalize")]
    + [("baselines", f) for f in ("persistence_forecast", "fit_regression",
                                  "predict_regression")]
    + [("evaluation", f) for f in ("compute_metrics", "save_predictions",
                                   "load_predictions", "score_external",
                                   "evaluate_baseline")]
    + [("cli", "main"), ("cli", "_write_manifest")]
)

_RENAMED = {
    "model.forward_on_tape": "model.forward",
    "model._fused_laplacian": "model.graph_stage",
    "model._mae_loss": "model.loss",
    "data._load_csv_dir": "data.load_csv",
    "data._load_binary": "data.load_packed",
    "cli._write_manifest": "cli.manifest",
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _values(x) -> np.ndarray:
    return np.asarray(getattr(x, "values", x))


def laplacian_reference(a: np.ndarray) -> np.ndarray:
    """Normalized Laplacian I - D^-1/2 A D^-1/2 of a [B, N, N] stack.

    Isolated nodes get a unit self-loop, as the model's Laplacian does.
    """
    a = a.copy()
    n = a.shape[1]
    di = np.arange(n)
    isolated = a.sum(axis=2) <= 0.0
    a[:, di, di] = np.where(isolated, 1.0, a[:, di, di])
    s = 1.0 / np.sqrt(a.sum(axis=2))
    return np.eye(n) - s[:, :, None] * a * s[:, None, :]


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, modules: dict, traced: bool):
        self.modules = modules        # short name -> stationcast module
        self.traced = traced
        self.run_id = ""
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.runs, self.extra = [], [], []
        self.stack = []
        self.counts = defaultdict(float)
        # per scaled_laplacian call: (training, epoch, step, B, fallbacks);
        # training counts model.train calls, epoch and step are 0 outside one
        self.spectral = []
        self.lambda_rel_err_max = 0.0
        self.spectrum_bad = 0
        self.nodes_per_tape = []
        self.histories = []
        self._bwd_flops = {}  # (tape id, node id) -> flops of its closure
        self._train = 0
        self._epoch = 0
        self._step = 0
        self._undo = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.runs.append(self.run_id)
        self.extra.append(0.0)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.names[i] == name for i in self.stack)

    def spans(self, name: str, run_prefix: str = ""):
        return [i for i, n in enumerate(self.names)
                if n == name and self.runs[i].startswith(run_prefix)]

    # -- installing wrappers ----------------------------------------------

    def install(self) -> None:
        table = LAYERS if self.traced else PROBES
        for mod_name, attr in table:
            self._patch(mod_name, attr)

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._undo):
            setattr(mod, key, orig)
        self._undo.clear()

    def _patch(self, mod_name: str, attr: str) -> None:
        orig = getattr(self.modules[mod_name], attr)
        qual = f"{mod_name}.{attr}"
        wrapper = self._make_wrapper(qual, orig)
        for mod in self.modules.values():
            for key in [k for k, v in vars(mod).items() if v is orig]:
                setattr(mod, key, wrapper)
                self._undo.append((mod, key, orig))

    def _make_wrapper(self, qual: str, orig):
        if inspect.isgeneratorfunction(orig):
            return self._generator_wrapper(_RENAMED.get(qual, qual), orig)
        namer = self._namer(qual)
        before, after = self._hooks(qual)
        tracer = self

        def wrapper(*args, **kwargs):
            if before:
                before(args, kwargs)
            idx = tracer.open(namer(args, kwargs))
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after:
                after(idx, args, kwargs, out)
            return out

        wrapper.__wrapped__ = orig
        return wrapper

    def _generator_wrapper(self, name: str, orig):
        tracer = self

        def wrapper(*args, **kwargs):
            it = orig(*args, **kwargs)
            while True:
                idx = tracer.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                windows = len(item.inputs)
                tracer.extra[idx] = windows
                tracer.counts["data.windows"] += windows
                yield item

        wrapper.__wrapped__ = orig
        return wrapper

    # -- span names -------------------------------------------------------

    def _namer(self, qual: str):
        if qual.startswith("tape.") and qual[5:] in TAPE_OPS:
            name = f"{qual}.fwd"
            return lambda a, k: name
        if qual == "model.st_block_forward":
            return lambda a, k: "model." + _arg(a, k, 4, "prefix")
        if qual in ("model._cheb_over_time", "model.temporal_multibranch"):
            part = "cheb" if "cheb" in qual else "temporal"
            return lambda a, k: f"{self._block()}.{part}"
        if qual == "model.predict_dataset":
            return lambda a, k: ("model.val_predict"
                                 if self.inside("model.train")
                                 else "model.predict_dataset")
        if qual == "baselines.fit_regression":
            return lambda a, k: f"baselines.{_arg(a, k, 2, 'kind')}.fit"
        if qual == "baselines.predict_regression":
            return lambda a, k: \
                f"baselines.{_arg(a, k, 0, 'model').kind}.predict"
        if qual == "baselines.persistence_forecast":
            return lambda a, k: "baselines.persistence.predict"
        if qual == "cli.main":
            return lambda a, k: "cli." + cli_command(_arg(a, k, 0, "argv"))
        name = _RENAMED.get(qual, qual)
        return lambda a, k: name

    def _block(self) -> str:
        for i in reversed(self.stack):
            if self.names[i].startswith("model.block"):
                return self.names[i]
        return "model.block?"

    # -- counters and checks at boundaries --------------------------------

    def _hooks(self, qual: str):
        if qual == "model.train":
            def before(a, k):
                self._train += 1
                self._epoch, self._step = 1, 0

            def after(idx, a, k, out):
                self.histories.append(out[1])
            return before, after
        if qual == "tape.adam_step":
            def after(idx, a, k, out):
                self._step += 1
            return None, after
        if qual == "model.predict_dataset":
            def after(idx, a, k, out):
                self.extra[idx] = len(out[0])
                batch = a[3] if len(a) > 3 else k.get("batch_size", 64)
                self.counts["model.predict_batches"] += \
                    math.ceil(len(out[0]) / batch)
                if self.names[idx] == "model.val_predict":
                    self._epoch += 1
            return None, after
        if qual in ("tape.matmul", "tape.conv1d"):
            op = qual[5:]

            def after(idx, a, k, out):
                av, bv = _values(a[0]), _values(a[1])
                ov = out.values
                if op == "matmul":
                    flops = 2.0 * ov.size * av.shape[-1]
                else:
                    flops = 2.0 * ov.size * bv.shape[0] * bv.shape[1]
                self.counts[f"tape.{op}.flops"] += flops
                if out.tape is not None:
                    # backward forms both operand gradients: twice the work
                    self._bwd_flops[(id(out.tape), out.node_id)] = 2.0 * flops
            return None, after
        if qual == "tape.scaled_laplacian_op":
            return None, self._laplacian_check
        if qual == "tape.backward":
            def before(a, k):
                hook = self.open("trace.hooks")
                self._time_closures(_arg(a, k, 0, "loss").tape)
                self.close(hook)
            return before, None
        return None, None

    def _time_closures(self, tape) -> None:
        self.nodes_per_tape.append(len(tape.nodes))
        flops = self._bwd_flops
        for nid, node in enumerate(tape.nodes):
            if node.backward is None:
                continue
            op = _OP_BY_TAG.get(node.op, node.op)
            node.backward = self._timed_closure(
                f"tape.{op}.bwd", node.backward,
                flops.pop((id(tape), nid), 0.0), op)

    def _timed_closure(self, name, fn, flops, op):
        tracer = self

        def timed(g):
            idx = tracer.open(name)
            try:
                return fn(g)
            finally:
                tracer.close(idx)
                if flops:
                    tracer.counts[f"tape.{op}.flops"] += flops
        return timed

    def _laplacian_check(self, idx, args, kwargs, out) -> None:
        """Fallback share, lambda error and spectrum of each output matrix.

        lambda_used is recovered from the op's input and output as the
        least-squares scale between L and L~ + I; the spectrum of L~ follows
        from eigvalsh(L).  Runs inside a trace.hooks span.
        """
        chk = self.open("trace.hooks")
        a = _values(args[0] if args else kwargs["a"])
        lt = out.values
        if a.ndim == 2:
            a, lt = a[None], lt[None]
        lap = laplacian_reference(a)
        eye = np.eye(a.shape[1])
        shifted = lt + eye
        lam_used = 2.0 * np.einsum("bij,bij->b", lap, lap) \
            / np.einsum("bij,bij->b", lap, shifted)
        resid = np.abs(shifted - (2.0 / lam_used)[:, None, None] * lap).max()
        eig = np.linalg.eigvalsh(lap)
        lam_true = eig[:, -1]
        lo = 2.0 * eig[:, 0] / lam_used - 1.0
        hi = 2.0 * lam_true / lam_used - 1.0
        tol = 1e-8
        bad = (lo < -1.0 - tol) | (hi > 1.0 + tol) | (resid > 1e-8)
        self.spectrum_bad += int(bad.sum())
        fallbacks = int((np.abs(lam_used - 2.0) <= 1e-9).sum())
        rel = np.abs(lam_used - lam_true) / lam_true
        self.lambda_rel_err_max = max(self.lambda_rel_err_max,
                                      float(rel.max()))
        if self.inside("model.train"):
            step = 0 if self.inside("model.val_predict") else self._step + 1
            self.spectral.append((self._train, self._epoch, step, len(a),
                                  fallbacks))
        else:
            self.spectral.append((0, 0, 0, len(a), fallbacks))
        self.close(chk)

    # -- reduction --------------------------------------------------------

    def self_times(self) -> list:
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i]
                for i in range(len(self.names))]

    def totals(self, run_prefix: str = ""):
        """{span name: (count, inclusive seconds, self seconds)}."""
        selfs = self.self_times()
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, name in enumerate(self.names):
            if not self.runs[i].startswith(run_prefix):
                continue
            rec = out[name]
            rec[0] += 1
            rec[1] += self.ends[i] - self.starts[i]
            rec[2] += selfs[i]
        return dict(out)

    def write(self, path) -> None:
        """All spans as gzip CSV: run,name,start,end,parent."""
        t0 = min(self.starts) if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("run,name,start_s,end_s,parent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{self.runs[i]},{name},{self.starts[i] - t0:.9f},"
                         f"{self.ends[i] - t0:.9f},{self.parents[i]}\n")


def cli_command(argv) -> str:
    """Per-command span name for one cli.main argv."""
    cmd = argv[0]
    if cmd == "eval":
        for flag in ("--ckpt", "--baseline", "--pred"):
            if flag in argv:
                return "eval_" + flag[2:]
    return cmd


def step_times(tr: Tracer) -> list:
    """Duration of every optimisation step inside model.train spans.

    A step ends when its adam_step returns and starts at the previous
    boundary: the start of train, the previous step's end, or the end of the
    epoch's validation pass.
    """
    out = []
    for t in tr.spans("model.train"):
        lo, hi = tr.starts[t], tr.ends[t]
        inside = [i for i in range(t + 1, len(tr.names))
                  if tr.starts[i] >= lo and tr.ends[i] <= hi]
        marks = sorted([(tr.ends[i], tr.names[i]) for i in inside
                        if tr.names[i] in ("tape.adam_step",
                                           "model.val_predict")])
        prev = lo
        for end, name in marks:
            if name == "tape.adam_step":
                out.append(end - prev)
            prev = end
    return out


def modules() -> dict:
    """The stationcast modules whose functions the tracer may replace."""
    from stationcast import (baselines, cli, data, evaluation, graphs, model,
                             tape)
    return {"tape": tape, "data": data, "graphs": graphs, "model": model,
            "baselines": baselines, "evaluation": evaluation, "cli": cli}
