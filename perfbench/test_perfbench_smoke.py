"""Smoke test of the benchmark itself on toy inputs.

Each workload runs once untraced and once traced on census(2, 1) graphs at
degree 2 (and a two-graph deep set at --max 2), with no time budget, so one
pass or round each.  The results must be correct and carry every metric
name that BENCHMARK.json declares.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchdata  # noqa: E402
import run as bench  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _toy_config() -> "bench.Config":
    # census(2, 1) is the part of the frozen census(4, 2) list with at most
    # two edges and every multiplicity 1
    toy = [fg for fg in benchdata.load_frozen()
           if len(fg.sigma) <= 4 and set(fg.mults) == {1}]
    return bench.Config(frozen=toy, sweep_degree=2, census_args=(2, 1),
                        deep_set=(("triangle", 2), ("pendant_triangle", 2)))


@pytest.fixture
def restore_modules():
    """The benchmark re-imports brauergraph; give later tests back their copy."""
    def ours():
        return [n for n in sys.modules if n == "brauergraph" or n.startswith("brauergraph.")]
    saved = {n: sys.modules[n] for n in ours()}
    yield
    for n in ours():
        del sys.modules[n]
    sys.modules.update(saved)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run(workload, tmp_path, restore_modules):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        out = bench.run_benchmark(workload, seed=1, seconds=0, trace=trace,
                                  cfg=_toy_config(), work_root=str(tmp_path))
        result, record = out["result"], out["record"]
        assert result["correct"], record["problems"] + record["failures"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
        for m in SPEC[kind]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        json.dumps(result)
    assert os.path.isfile(tmp_path / f"spans-{workload}-seed1.json")


def test_toy_census_sample_is_census_2_1(restore_modules):
    cfg = _toy_config()
    prog = bench.import_program()
    want = {benchdata.canonical_key(prog.bg.from_dict(benchdata.graph_doc(fg.sigma, fg.mults)))
            for fg in cfg.frozen}
    got = {benchdata.canonical_key(g) for g in prog.census.census(2, 1)}
    assert got == want and len(cfg.frozen) == len(list(prog.census.census(2, 1)))


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-q", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
