"""stationcast benchmark: one command, every workload, every metric.

    python3 perfbench/run.py --workload train_n100 --seed 1 --seconds 25 \\
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run it from anywhere inside a checkout; it imports the package from
``src/``.  Each workload runs in a fresh process (workload.py) whose BLAS
and OpenMP pools are pinned to one thread: a closed loop with one caller,
leaving the second core of a two-core machine free.  The report lines name
every metric with its unit and sample count, after a line recording the
Python, numpy and BLAS versions, nproc and the CPU model.  The last line of
standard output is one JSON object holding ``correct``, ``attempted``,
``failed`` and the metrics BENCHMARK.json lists: its ``end_to_end`` set when
untraced, its ``per_layer`` set when traced.  The full result, including the
per-layer metrics BENCHMARK.json leaves out and the traced spans, stays
under ``perfbench/out/``.

The exit code is non-zero only for a benchmark error (no package to
measure, a workload process that crashed or overran).  Failed correctness
checks are counted in ``failed`` and named in the report.  Known defects of
the package are probed on every run and named as such, outside ``failed``.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("train_n100", "ablate_n20", "desk_n300")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
TIME_LIMIT_S = 175.0


class BenchmarkError(Exception):
    pass


def run_workload(args, workload: str, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    out = OUT / (f"{workload}-seed{args.seed}-trace{args.trace}"
                 f"-{args.scale}.json")
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    env.update({k: "1" for k in THREAD_VARS})
    env.pop("STATIONCAST_DATA_DIR", None)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale,
           "--out", str(out)]
    try:
        # the child's stdout goes to our stderr: our stdout ends in the result
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload}: workload process overran the "
                             "time limit") from None
    if proc.returncode != 0 or not out.exists():
        raise BenchmarkError(f"{workload}: workload process exited with "
                             f"{proc.returncode}")
    return json.loads(out.read_text())


def report(result: dict) -> None:
    w = result["workload"]
    env = result["environment"]
    print(f"# {w} seed={result['seed']} trace={result['trace']} "
          f"scale={result['scale']} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas']!r} nproc={env['nproc']} "
          f"cpu={env['cpu']!r} threads={env['threads']}")
    for name, m in sorted(result["metrics"].items()):
        n = f"  n={m['n']}" if "n" in m else ""
        print(f"{w:<11} {name:<52} {m['value']:>16.6g} {m['unit']}{n}")
    print(f"{w:<11} {'ops_attempted':<52} {result['attempted']:>16d} count")
    print(f"{w:<11} {'ops_failed':<52} {result['failed']:>16d} count")
    failed = {}
    for c in result["checks"]:
        if not c["ok"]:
            failed.setdefault(c["name"], []).append(c["detail"])
    for name, details in failed.items():
        print(f"{w:<11} FAILED CHECK {name} x{len(details)}: {details[0]}")
    for d in result.get("known_defects", []):
        state = ("reproduced" if d["reproduced"] else
                 "NO LONGER REPRODUCED, drop it from the benchmark")
        print(f"{w:<11} KNOWN DEFECT {d['name']} {state}: {d['detail']}")
    if result.get("fallback_by_step"):
        steps = " ".join(f"{f}/{m}" for _, m, f in result["fallback_by_step"])
        print(f"{w:<11} lambda fallbacks per step of the first training "
              f"(fallbacks/matrices): {steps}")


def contract_line(result: dict, spec: dict) -> dict:
    wanted = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        m = result["metrics"].get(entry["name"])
        if m is None or m["unit"] != entry["unit"]:
            raise BenchmarkError(f"{result['workload']}: metric "
                                 f"{entry['name']} [{entry['unit']}] missing")
        metrics[entry["name"]] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "toy"), default="full",
                   help="toy sizes are for the smoke test only")
    args = p.parse_args(argv)
    try:
        if not (ROOT / "src" / "stationcast" / "__init__.py").is_file():
            raise BenchmarkError(f"no stationcast package under {ROOT}/src")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        for workload in names:
            result = run_workload(args, workload,
                                  time.monotonic() + TIME_LIMIT_S)
            report(result)
            print(json.dumps(contract_line(result, spec)), flush=True)
    except (BenchmarkError, OSError, json.JSONDecodeError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
