import importlib.util
import json
import os
import signal
import subprocess
import sys
import time

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "benchpairs.py")
_spec = importlib.util.spec_from_file_location("benchpairs", _PATH)
benchpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpairs)

# the two metrics' entries as BENCHMARK.json declares them
METRICS = [{"name": "graphs_per_s", "better": "higher", "bound": 0.2},
           {"name": "verify_p50_ms", "better": "lower", "bound": 0.25}]
NAMES = [m["name"] for m in METRICS]


def _run(rate, p50, failed=0, attempted=100):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"graphs_per_s": rate, "verify_p50_ms": p50}}


def _pairs(n, change_failed=0, base_failed=0):
    """n pairs in which the change is faster on both metrics in every pair."""
    return [{"base": _run(20.0 + 0.1 * (p % 3), 45.0 + 0.1 * (p % 3), base_failed),
             "change": _run(23.0 + 0.1 * (p % 3), 40.0 + 0.1 * (p % 3), change_failed)}
            for p in range(n)]


def test_gain_holds_on_ten_clean_wins():
    summary = benchpairs.summarize(_pairs(benchpairs.PAIRS), METRICS)
    for name in NAMES:
        assert summary[name]["wins"] == benchpairs.PAIRS
        assert summary[name]["gain_holds"], name
        assert summary[name]["all_correct"]
    assert summary["verify_p50_ms"]["median_gap"] == pytest.approx(5.0)


@pytest.mark.parametrize("n", [1, 2, benchpairs.PAIRS - 1])
def test_gain_needs_the_full_pair_count(n):
    summary = benchpairs.summarize(_pairs(n), METRICS)
    assert summary["graphs_per_s"]["wins"] == n
    assert not any(s["gain_holds"] for s in summary.values())


def test_gain_refused_when_the_change_fails_more():
    summary = benchpairs.summarize(_pairs(benchpairs.PAIRS, change_failed=1), METRICS)
    assert not any(s["gain_holds"] or s["all_correct"] for s in summary.values())
    # failures on both sides in equal share do not refuse a gain by themselves
    summary = benchpairs.summarize(
        _pairs(benchpairs.PAIRS, change_failed=1, base_failed=1), METRICS)
    assert all(s["gain_holds"] and not s["all_correct"] for s in summary.values())


def test_gain_needs_nine_wins_and_a_gap_wider_than_the_base_spread():
    pairs = _pairs(benchpairs.PAIRS)
    for p in pairs[:2]:
        p["change"]["metrics"]["graphs_per_s"] = 19.0
    assert not benchpairs.summarize(pairs, METRICS)["graphs_per_s"]["gain_holds"]
    pairs = _pairs(benchpairs.PAIRS)
    for p, pair in enumerate(pairs):
        pair["base"]["metrics"]["graphs_per_s"] = 10.0 + 3 * p
        pair["change"]["metrics"]["graphs_per_s"] = 10.5 + 3 * p
    summary = benchpairs.summarize(pairs, METRICS)["graphs_per_s"]
    assert summary["wins"] == benchpairs.PAIRS
    assert summary["median_gap"] < summary["base_iqr"]
    assert not summary["gain_holds"]


def _set(pairs, name, base, change):
    for pair, b, c in zip(pairs, base, change):
        pair["base"]["metrics"][name] = b
        pair["change"]["metrics"][name] = c
    return pairs


def test_no_regression_on_clean_wins_or_a_loss_inside_the_bound():
    summary = benchpairs.summarize(_pairs(benchpairs.PAIRS), METRICS)
    assert all(s["regression"] == "no" for s in summary.values())
    # 10 % slower and 20 % higher p50, inside the bounds of 20 % and 25 %
    pairs = _set(_pairs(benchpairs.PAIRS), "graphs_per_s", [20.0] * 10, [18.0] * 10)
    pairs = _set(pairs, "verify_p50_ms", [40.0] * 10, [48.0] * 10)
    assert all(s["regression"] == "no"
               for s in benchpairs.summarize(pairs, METRICS).values())


def test_regression_shown_beyond_the_bound():
    pairs = _set(_pairs(benchpairs.PAIRS), "graphs_per_s", [20.0] * 10, [15.9] * 10)
    pairs = _set(pairs, "verify_p50_ms", [40.0] * 10, [50.1] * 10)
    summary = benchpairs.summarize(pairs, METRICS)
    assert {name: s["regression"] for name, s in summary.items()} == {
        "graphs_per_s": "yes", "verify_p50_ms": "yes"}
    # a wide base spread does not hide a median beyond the bound
    pairs = _set(_pairs(benchpairs.PAIRS), "graphs_per_s",
                 [10.0 + 2 * p for p in range(10)], [10.0] * 10)
    assert benchpairs.summarize(pairs, METRICS)["graphs_per_s"]["regression"] == "yes"


def test_regression_unresolved_when_the_base_spreads_wider_than_the_bound():
    # base medians 19, interquartile range 9 > 0.2 x 19
    base = [10.0 + 2 * p for p in range(10)]
    pairs = _set(_pairs(benchpairs.PAIRS), "graphs_per_s", base, list(base))
    summary = benchpairs.summarize(pairs, METRICS)["graphs_per_s"]
    assert summary["base_iqr"] > 0.2 * summary["base"][1]
    assert summary["regression"] == "unresolved"
    # unless every change run beats every base run
    pairs = _set(_pairs(benchpairs.PAIRS), "graphs_per_s", base, [29.0 + p for p in range(10)])
    assert benchpairs.summarize(pairs, METRICS)["graphs_per_s"]["regression"] == "no"
    pairs = _set(_pairs(benchpairs.PAIRS), "verify_p50_ms", base, [9.0] * 10)
    assert benchpairs.summarize(pairs, METRICS)["verify_p50_ms"]["regression"] == "no"


def test_run_once_keeps_the_measured_source_digest(tmp_path):
    """``run_once`` reads the result line of a checkout's ``perfbench/run.py``
    and keeps the ``src=`` digest of its header line."""
    result = {"correct": True, "attempted": 12, "failed": 0,
              "metrics": {"graphs_per_s": {"value": 24.5, "unit": "graphs/s"}}}
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json\n"
        "print('# workload=deep-cli seed=1 held_out_seed=2 rev=abc src=0123456789ab "
        "python=3.11.7 nproc=2')\n"
        "print('# failed_frac 0/12')\n"
        f"print({json.dumps(json.dumps(result))})\n")
    run = benchpairs.run_once(str(tmp_path), "deep-cli", 1, 0.1)
    assert run == {"src": "0123456789ab", "correct": True, "attempted": 12, "failed": 0,
                   "metrics": {"graphs_per_s": 24.5}}


_STOPPED_CHILD = """
import importlib.util, sys, time
spec = importlib.util.spec_from_file_location("benchpairs", sys.argv[1])
benchpairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(benchpairs)

def run_once(checkout, workload, seed, seconds):
    open(sys.argv[2], "w").close()
    time.sleep(60)

benchpairs.ROOT = sys.argv[4]
benchpairs.run_once = run_once
benchpairs.main(["--base", "HEAD", "--workload", "deep-cli", "--out", sys.argv[3]])
"""


def _throwaway_repository(path) -> str:
    """A git repository of one commit holding a ``BENCHMARK.json``, so that
    a test runs ``main`` whether or not this checkout is a git work tree."""
    path.mkdir()
    (path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": METRICS}))
    for args in (["init", "-q"], ["add", "BENCHMARK.json"],
                 ["-c", "user.name=bench", "-c", "user.email=bench@example.invalid",
                  "-c", "commit.gpgsign=false", "commit", "-q", "-m", "bench"]):
        subprocess.run(["git", *args], cwd=path, check=True, capture_output=True)
    return str(path)


def test_sigterm_removes_the_base_checkout(tmp_path):
    """A run stopped by SIGTERM while a pair runs leaves no temporary
    checkout behind."""
    started = tmp_path / "started"
    root = _throwaway_repository(tmp_path / "repo")
    env = dict(os.environ, TMPDIR=str(tmp_path))
    child = subprocess.Popen([sys.executable, "-c", _STOPPED_CHILD, _PATH, str(started),
                              str(tmp_path / "out.json"), root], env=env)
    try:
        deadline = time.monotonic() + 30
        while not started.exists():
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        assert [p.name for p in tmp_path.glob("benchpairs-*/base")] == ["base"]
        child.send_signal(signal.SIGTERM)
        assert child.wait(timeout=30) != 0
    finally:
        child.kill()
        child.wait()
    assert not list(tmp_path.glob("benchpairs-*"))


def test_root_outside_a_git_work_tree_is_refused(tmp_path, monkeypatch, capsys):
    """A root that is no git work tree has no base revision: ``main`` says
    so in one stderr line and exits 2, with no traceback and no checkout."""
    root = tmp_path / "plain"
    root.mkdir()
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(benchpairs, "ROOT", str(root))
    out = tmp_path / "out.json"
    assert benchpairs.main(["--workload", "deep-cli", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"{root} is not a git work tree, so it has no base revision\n"
    assert not out.exists() and not list(tmp_path.glob("benchpairs-*"))
