import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "benchpairs.py")
_spec = importlib.util.spec_from_file_location("benchpairs", _PATH)
benchpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpairs)

BETTER = {"graphs_per_s": "higher", "verify_p50_ms": "lower"}


def _run(rate, p50, failed=0, attempted=100):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"graphs_per_s": rate, "verify_p50_ms": p50}}


def _pairs(n, change_failed=0, base_failed=0):
    """n pairs in which the change is faster on both metrics in every pair."""
    return [{"base": _run(20.0 + 0.1 * (p % 3), 45.0 + 0.1 * (p % 3), base_failed),
             "change": _run(23.0 + 0.1 * (p % 3), 40.0 + 0.1 * (p % 3), change_failed)}
            for p in range(n)]


def test_gain_holds_on_ten_clean_wins():
    summary = benchpairs.summarize(_pairs(benchpairs.PAIRS), BETTER)
    for name in BETTER:
        assert summary[name]["wins"] == benchpairs.PAIRS
        assert summary[name]["gain_holds"], name
        assert summary[name]["all_correct"]
    assert summary["verify_p50_ms"]["median_gap"] == pytest.approx(5.0)


@pytest.mark.parametrize("n", [1, 2, benchpairs.PAIRS - 1])
def test_gain_needs_the_full_pair_count(n):
    summary = benchpairs.summarize(_pairs(n), BETTER)
    assert summary["graphs_per_s"]["wins"] == n
    assert not any(s["gain_holds"] for s in summary.values())


def test_gain_refused_when_the_change_fails_more():
    summary = benchpairs.summarize(_pairs(benchpairs.PAIRS, change_failed=1), BETTER)
    assert not any(s["gain_holds"] or s["all_correct"] for s in summary.values())
    # failures on both sides in equal share do not refuse a gain by themselves
    summary = benchpairs.summarize(
        _pairs(benchpairs.PAIRS, change_failed=1, base_failed=1), BETTER)
    assert all(s["gain_holds"] and not s["all_correct"] for s in summary.values())


def test_gain_needs_nine_wins_and_a_gap_wider_than_the_base_spread():
    pairs = _pairs(benchpairs.PAIRS)
    for p in pairs[:2]:
        p["change"]["metrics"]["graphs_per_s"] = 19.0
    assert not benchpairs.summarize(pairs, BETTER)["graphs_per_s"]["gain_holds"]
    pairs = _pairs(benchpairs.PAIRS)
    for p, pair in enumerate(pairs):
        pair["base"]["metrics"]["graphs_per_s"] = 10.0 + 3 * p
        pair["change"]["metrics"]["graphs_per_s"] = 10.5 + 3 * p
    summary = benchpairs.summarize(pairs, BETTER)["graphs_per_s"]
    assert summary["wins"] == benchpairs.PAIRS
    assert summary["median_gap"] < summary["base_iqr"]
    assert not summary["gain_holds"]
