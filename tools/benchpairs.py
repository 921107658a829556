"""Alternating benchmark pairs of a base revision against the working tree.

Run from the repository root:

    python3 tools/benchpairs.py --base HEAD~1 --workload deep-cli --seeds 1 7919 \
        --out BENCH_<n>.json

The base revision is checked out into a temporary ``git worktree``, removed
at the end.  Both sides run their own, unchanged ``perfbench/run.py`` with
``--trace 0``, one run at a time, each run as long as ``run_seconds`` in
``BENCHMARK.json``.  Every workload and seed gets ``PAIRS`` pairs; pair p
runs the base first when p is even and the working tree first when p is
odd, so a drift of the host's speed does not favour one side.  The output
file is rewritten after every pair; it holds every run's end-to-end metrics
and, per workload and seed, each metric's median and quartiles on both
sides, the change's wins (pairs in which it is better in the direction
``BENCHMARK.json`` declares) and whether a gain claim holds: at least
``PAIRS`` pairs, wins in at least nine of ten of them, a median gap wider
than the base's interquartile range, and no larger share of failed
operations on the change's side than on the base's.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` run in ``checkout``: its result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {checkout} (exit {proc.returncode}): "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> list[float]:
    """The lower quartile, median and upper quartile."""
    if len(values) == 1:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def failed_share(pairs: list[dict], side: str) -> float:
    """The share of operations that failed on one side, over all pairs."""
    attempted = sum(p[side]["attempted"] for p in pairs)
    return sum(p[side]["failed"] for p in pairs) / attempted if attempted else 0.0


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: quartiles of both sides, the change's wins, the median gap
    and whether a gain claim holds."""
    no_more_failures = failed_share(pairs, "change") <= failed_share(pairs, "base")
    all_correct = all(p[side]["correct"] and not p[side]["failed"]
                      for p in pairs for side in ("base", "change"))
    out = {}
    for name, direction in better.items():
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        bq, cq = quartiles(base), quartiles(change)
        gap = sign * (cq[1] - bq[1])
        out[name] = {"base": bq, "change": cq, "wins": wins, "pairs": len(pairs),
                     "all_correct": all_correct,
                     "median_gap": gap, "base_iqr": bq[2] - bq[0],
                     "gain_holds": (len(pairs) >= PAIRS and wins >= 0.9 * len(pairs)
                                    and gap > bq[2] - bq[0] and no_more_failures)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD~1", help="base revision (default HEAD~1)")
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload of perfbench/run.py; may be repeated")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--out", required=True, help="the JSON file to write")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    doc = {"base": _git("rev-parse", args.base),
           "change": _git("rev-parse", "HEAD") + (" + working tree"
                                                  if _git("status", "--porcelain") else ""),
           "python": platform.python_version(), "nproc": os.cpu_count(),
           "seconds": seconds, "order": "base first in even pairs",
           "workloads": {}}
    tmp = tempfile.mkdtemp(prefix="benchpairs-")
    base_dir = os.path.join(tmp, "base")
    _git("worktree", "add", "--detach", base_dir, doc["base"])
    try:
        for workload in args.workload:
            for seed in args.seeds:
                pairs: list[dict] = []
                entry = doc["workloads"].setdefault(workload, {})
                for p in range(PAIRS):
                    sides = [("base", base_dir), ("change", ROOT)]
                    pair = {side: run_once(where, workload, seed, seconds)
                            for side, where in (sides if p % 2 == 0 else sides[::-1])}
                    pairs.append(pair)
                    entry[str(seed)] = {"pairs": pairs, "summary": summarize(pairs, better)}
                    with open(args.out, "w", encoding="utf-8") as fh:
                        json.dump(doc, fh, indent=1)
                    print(f"{workload} seed {seed} pair {p + 1}: " + ", ".join(
                        f"{name} {pair['base']['metrics'][name]:.4g} -> "
                        f"{pair['change']['metrics'][name]:.4g}" for name in better),
                        flush=True)
    finally:
        _git("worktree", "remove", "--force", base_dir)
        os.rmdir(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
