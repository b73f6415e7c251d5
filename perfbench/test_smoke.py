"""Smoke test of the benchmark at toy sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload untraced and traced through run.py and checks that each
named end-to-end and per-layer metric is reported with its unit for its
workload, that the last line honours the BENCHMARK.json contract, and that
the benchmark refuses to run without the package.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TRAINING = {"setup_s": "s", "workload_s": "s", "train_s": "s",
            "train_step_s.p50": "s", "predict_windows_per_s": "windows/s",
            "peak_rss_mb": "MB", "test_mae": "z-score",
            "ops_attempted": "count", "ops_failed": "count"}
END_TO_END = {
    "train_n100": TRAINING,
    "ablate_n20": {**TRAINING, "train_step_s.p90": "s"},
    "desk_n300": {"setup_s": "s", "workload_s": "s", "cli_chain_s": "s",
                  "predict_windows_per_s": "windows/s", "peak_rss_mb": "MB",
                  "test_mae": "z-score", "ops_attempted": "count",
                  "ops_failed": "count"},
}

_OPS = ("matmul", "conv1d", "scaled_laplacian_op", "add", "sub", "hadamard",
        "scalar_mul", "tanh", "relu", "absolute", "concat", "slice_axis",
        "reshape", "transpose", "tile_leading", "add_bias", "reduce_mean")
PER_LAYER = {f"tape.{op}.{d}_s": "s" for op in _OPS for d in ("fwd", "bwd")}
PER_LAYER.update({
    "tape.backward_s": "s", "tape.backward.self_s": "s",
    "tape.adam_step_s": "s", "tape.nodes_per_step": "count",
    "tape.matmul.flops": "flop", "tape.conv1d.flops": "flop",
    "tape.scaled_laplacian_op.matrices": "count",
    "tape.scaled_laplacian_op.fallback_ratio": "ratio",
    "tape.scaled_laplacian_op.lambda_rel_err_max": "ratio",
    "data.windows": "count", "cli.manifest_s": "s", "cli.self_s": "s",
    "trace.unattributed_share": "ratio", "trace.overhead_s": "s",
})
for layer, names in {
        "graphs": ("fuse_graphs_op", "learnable_graph_op", "dynamic_graph_op",
                   "symmetrize_op", "build_static_graphs", "save_graphs",
                   "load_graphs"),
        "model": ("forward", "graph_stage", "block0.cheb", "block1.cheb",
                  "block0.temporal", "block1.temporal", "loss",
                  "val_predict", "predict_dataset", "save_checkpoint",
                  "load_checkpoint"),
        "data": ("make_windows", "generate_synthetic", "load_csv",
                 "load_packed", "save_dataset", "screen_missing",
                 "screen_defaults", "interpolate_linear", "normalize"),
        "baselines": ("persistence.predict", "ridge.fit", "ridge.predict",
                      "kernel_ridge.fit", "kernel_ridge.predict"),
        "evaluation": ("compute_metrics", "save_predictions",
                       "load_predictions", "score_external",
                       "evaluate_baseline"),
        "cli": ("preprocess", "graphs", "eval_baseline", "eval_ckpt",
                "eval_pred")}.items():
    PER_LAYER.update({f"{layer}.{n}_s": "s" for n in names})


def run(trace: int, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", "all", "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def reported(stdout: str) -> dict:
    """{workload: {metric: unit}} from the report lines."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] in END_TO_END:
            out.setdefault(parts[0], {})[parts[1]] = parts[3]
    return out


def contract_lines(stdout: str) -> list:
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith("{")]


def check_contract(line: dict, wanted: list) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported(trace):
    proc = run(trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = reported(proc.stdout)
    assert sorted(got) == sorted(END_TO_END)
    for workload, names in END_TO_END.items():
        want = dict(names)
        if trace:
            want.update(PER_LAYER)
            if workload != "desk_n300":
                want["tape.scaled_laplacian_op.fallback_ratio.epoch1"] = \
                    "ratio"
        missing = {k: v for k, v in want.items()
                   if got[workload].get(k) != v}
        assert not missing, f"{workload}: {missing}"
    lines = contract_lines(proc.stdout)
    assert len(lines) == len(END_TO_END)
    for line in lines:
        check_contract(line, SPEC["per_layer"] if trace
                       else SPEC["end_to_end"])
    assert proc.stdout.splitlines()[-1].startswith("{")
    assert "desk_n300   KNOWN DEFECT ckpt_pred_time_labels" in proc.stdout


def test_refuses_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert not contract_lines(proc.stdout)
