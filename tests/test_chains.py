"""Command-line chains: the README's quick start and library use, raw CSV
to scores, and byte determinism across two processes, the second running
``python -m stationcast.cli`` under another hash seed."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stationcast import data as dt
from stationcast import graphs as gr
from stationcast.cli import main

from helpers import save_csv_dir

ROOT = Path(__file__).resolve().parent.parent
# a hash seed other than this process's, which is random or the one set
_HASH_SEED = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"


def run(cwd, command, process=False, code=0):
    """Run one command line from cwd, which must exit with code: in this
    process, or, with ``process``, in an interpreter of its own."""
    argv = shlex.split(command)
    if process:
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
               "PYTHONHASHSEED": _HASH_SEED}
        done = subprocess.run([sys.executable, "-W", "error", "-m",
                               "stationcast.cli", *argv], cwd=cwd, env=env)
        assert done.returncode == code, command
        return
    here = os.getcwd()
    os.chdir(cwd)
    try:
        assert main(argv) == code, command
    finally:
        os.chdir(here)


def twice(cwd, command, *outputs):
    """Run command with "{}" read as "a" in this process, then as "b" in
    an interpreter of its own; each output's two files must be equal."""
    for side in "ab":
        run(cwd, command.replace("{}", side), process=side == "b")
    for name in outputs:
        a, b = ((cwd / name.replace("{}", side)).read_bytes() for side in "ab")
        assert a == b, name


def readme_block(heading, lang):
    """The first ```lang block after the README line starting heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    found = re.search(rf"^{heading}.*?^```{lang}.*?\n(.*?)^```", text,
                      re.M | re.S)
    assert found and found[1].strip(), heading
    return found[1]


def test_ci_runs_no_chain_of_its_own():
    # a new chain belongs in this module, where a local pytest runs it
    ci = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert "stationcast.cli" not in ci
    assert not re.search(r"\bpython3?\b.*\s-c?(\s|$)", ci, re.M)


def test_readme_quick_start(tmp_path, monkeypatch):
    block = readme_block("## Quick start", "bash").replace("\\\n", " ")
    commands = [c for c in (shlex.split(line, comments=True)
                            for line in block.splitlines()) if c]
    calls = []
    for argv in commands:
        with monkeypatch.context() as patch:
            # scoring a checkpoint is forward only: no eigenvector
            for name in ("eigh", "solve") if "--ckpt" in argv else ():
                real = getattr(np.linalg, name)
                patch.setattr(np.linalg, name, lambda *a, _n=name, _f=real,
                              **k: calls.append(_n) or _f(*a, **k))
            # of a flag given twice the last counts: 2 epochs, not 30
            run(tmp_path, shlex.join(argv[1:]) + " --epochs 2" * (
                argv[1] == "train"))
    assert calls == []
    assert (tmp_path / "net.graphs").read_bytes()[:4] == b"W2KG"
    doc = json.loads((tmp_path / "net.metrics.json").read_text())
    assert doc["space"] == "normalized" and doc["overall"]["mae"] > 0.0
    assert len(doc["per_factor"]["t"]["mae_by_horizon"]) == 12
    lines = [json.loads(line) for line in
             (tmp_path / "net.history.jsonl").read_text().splitlines()]
    assert len(lines) == 3  # two epochs plus the summary line
    assert lines[0]["epoch"] == 1 and "best_epoch" in lines[-1]
    for out in ("net.w2kt", "net.graphs", "net.ckpt", "net.metrics.json"):
        assert (tmp_path / (out + ".manifest.json")).exists()


def test_readme_library_use():
    exec(readme_block("## Library use", "python"), {"__name__": "__main__"})


def test_raw_csv_chain(tmp_path):
    # 12 stations: S003 and S007 miss 3% of their records, S005 reports
    # hv2's default code on 3% of steps; each other station has one blank
    # cell and one code, which preprocess fills
    ds = dt.generate_synthetic(dt.SynthConfig(n=12, t=400, d=3, seed=0))
    rng = np.random.default_rng(0)
    hv2 = ds.factors.index("hv2")
    for i in range(12):
        for t in rng.choice(400, 12 if i in (3, 7) else 1, replace=False):
            ds.mask[i, t, rng.integers(3)] = False
        codes = rng.choice(400, 12 if i == 5 else 1, replace=False)
        ds.values[i, codes, hv2] = dt.DEFAULT_CODES["hv2"]
        ds.mask[i, codes, hv2] = True
    save_csv_dir(ds, tmp_path / "raw")
    commands = ["preprocess --data ../raw --out clean.w2kt",
                "graphs --data clean.w2kt --n-adjacent 3 --out graphs.bin"]
    for k in ("ridge", "krr"):
        commands += [f"eval --baseline {k} --lam 1.0 --data clean.w2kt "
                     f"--save-pred {k}.pred --out {k}.json",
                     f"eval --pred {k}.pred --data clean.w2kt "
                     f"--out {k}.pred.json"]
    for side in "ab":
        (tmp_path / side).mkdir()
        for command in commands:
            run(tmp_path / side, command, process=side == "b")

    def doc(name):
        return json.loads((tmp_path / "a" / name).read_text())

    cfg = doc("clean.w2kt.manifest.json")["config"]
    assert cfg["default_report"]["dropped"] == ["S005"], cfg
    assert cfg["missing_report"]["dropped"] == ["S003", "S007"], cfg
    for kind in ("ridge", "krr"):
        # the saved baseline forecasts score exactly as the baseline did
        base, pred = doc(f"{kind}.json"), doc(f"{kind}.pred.json")
        for key in ("overall", "per_factor"):
            assert base[key] == pred[key], (kind, key)
        # a manifest records the flags its mode read, with resolved values
        cfg = doc(f"{kind}.json.manifest.json")["config"]
        assert (cfg["factor"], cfg["wprime"], cfg["w"], cfg["lam"]) \
            == ("t", 12, 12, 1.0), cfg
        assert not {"ckpt", "pred", "graphs"} & set(cfg), cfg
        cfg = doc(f"{kind}.pred.json.manifest.json")["config"]
        assert not {"factor", "space", "lam", "wprime", "w"} & set(cfg), cfg
    # outputs are byte-equal; manifests are equal but for wall time
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    manifests = [n for n in names if n.endswith(".manifest.json")]
    assert len(manifests) == 6, manifests
    for name in names:
        a, b = ((tmp_path / side / name).read_bytes() for side in "ab")
        if name in manifests:
            a, b = json.loads(a), json.loads(b)
            del a["wall_time_s"], b["wall_time_s"]
        assert a == b, name


_TRAIN40 = "train --data net.w2kt --graphs net.graphs --factor t --epochs 1"
_EVAL40 = "eval --data net.w2kt --graphs net.graphs"


@pytest.fixture(scope="module")
def net40(tmp_path_factory):
    """At n=40 a batch of 32 windows trains as four chunks of 8."""
    root = tmp_path_factory.mktemp("net40")
    run(root, "synth --n 40 --t 600 --d 1 --seed 0 --out net.w2kt")
    run(root, "graphs --data net.w2kt --n-adjacent 5 --out net.graphs")
    run(root, f"{_TRAIN40} --out a.ckpt")
    return root


def test_chunked_training_is_deterministic(net40):
    run(net40, f"{_TRAIN40} --out b.ckpt", process=True)
    assert (net40 / "a.ckpt").read_bytes() == (net40 / "b.ckpt").read_bytes()
    run(net40, f"{_EVAL40} --ckpt a.ckpt --out a.metrics.json")


def test_streamed_scores_match_saved_predictions(net40):
    # eval --ckpt predicts and scores the test windows in chunks of 8;
    # eval --pred scores the saved file in 1 MiB blocks
    twice(net40, f"{_EVAL40} --ckpt a.ckpt --save-pred {{}}.pred "
                 "--out {}.ckpt.json", "{}.pred", "{}.ckpt.json")
    twice(net40, "eval --pred {}.pred --data net.w2kt --out {}.pred.json",
          "{}.pred.json")
    ckpt, pred = (json.loads((net40 / f"a.{kind}.json").read_text())
                  for kind in ("ckpt", "pred"))
    for key in ("overall", "per_factor"):
        assert ckpt[key] == pred[key], key


def test_static_only_training_is_deterministic(net40):
    # without the dynamic graph a chunk's windows share one [N, N]
    # Laplacian, whose gradient the Chebyshev backward sums over them
    (net40 / "static.json").write_text(json.dumps({"model": {
        "graph_kinds": ["distance", "neighbor", "pattern", "learnable"]}}))
    twice(net40, f"{_TRAIN40} --config static.json --out static-{{}}.ckpt",
          "static-{}.ckpt")
    # scoring runs the off-tape forward: one shared [N, N] Laplacian
    # through each chunk of 8 windows
    twice(net40, f"{_EVAL40} --ckpt static-a.ckpt --save-pred "
                 "static-{}.pred --out static-{}.json",
          "static-{}.pred", "static-{}.json")


def test_isolated_station_training_is_deterministic(net40):
    # a 50 km bandwidth with epsilon 0.5 leaves 12 of the 40 stations with
    # no distance edge, so every chunk's Laplacian backward takes the
    # isolated-node path
    run(net40, "graphs --data net.w2kt --sigma 50 --epsilon 0.5 "
               "--out iso.graphs")
    weights = gr.load_graphs(net40 / "iso.graphs")["distance"].weights
    assert (weights.sum(axis=1) == 0).sum() == 12
    (net40 / "distance.json").write_text(
        '{"model": {"graph_kinds": ["distance"]}}')
    twice(net40, "train --data net.w2kt --graphs iso.graphs --factor t "
                 "--config distance.json --epochs 1 --out iso-{}.ckpt",
          "iso-{}.ckpt")


def test_ablation_and_sweep_commands(tmp_path):
    run(tmp_path, "synth --n 8 --t 300 --d 1 --seed 0 --out net.w2kt")
    run(tmp_path, "ablate --data net.w2kt --grid singles --seeds 0,1 "
                  "--epochs 1 --n-adjacent 3 --out ablation.json")
    doc = json.loads((tmp_path / "ablation.json").read_text())
    assert len(doc["rows"]) == 5
    assert doc["reference_full_scale"]["five_graph"]["rmse"] == 2.0574
    twice(tmp_path, "sweep --data net.w2kt --counts 2,3 --epochs 1 "
                    "--out sweep-{}.json", "sweep-{}.json")
    curve = json.loads((tmp_path / "sweep-a.json").read_text())
    assert curve["n_adjacent"] == [2, 3] and len(curve["test_mae"]) == 2
    run(tmp_path, "sweep --data net.w2kt --counts 2,99 --epochs 1 "
                  "--out bad.json", code=1)
    assert not (tmp_path / "bad.json").exists()


def test_two_chunk_ablation_is_deterministic(tmp_path):
    # at n=20 a batch of 32 windows trains as chunks of 17 and 15, so
    # every row of the grid sums two chunks' gradients
    run(tmp_path, "synth --n 20 --t 300 --d 1 --seed 0 --out net.w2kt")
    twice(tmp_path, "ablate --data net.w2kt --grid singles --seeds 0 "
                    "--epochs 1 --n-adjacent 5 --out {}.json", "{}.json")
