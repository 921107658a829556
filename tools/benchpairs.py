"""Alternating benchmark pairs of a base revision against the working tree.

Run from the repository root:

    python3 tools/benchpairs.py --base HEAD~1 --workload deep-cli --seeds 1 7919 \
        --out BENCH_<n>.json

The base revision is extracted with ``git archive`` into a temporary
directory, removed at the end, also when the run fails or is stopped by
SIGTERM, so no worktree is registered; a root that is no git work tree
is refused with one line on standard error and exit 2.  Both sides
run their own, unchanged ``perfbench/run.py`` with ``--trace 0``, one run
at a time, each run as long as ``run_seconds`` in ``BENCHMARK.json``.  Every workload and seed gets ``PAIRS`` pairs; pair p
runs the base first when p is even and the working tree first when p is
odd, so a drift of the host's speed does not favour one side.  The output
file is rewritten after every pair; it holds every run's end-to-end metrics
and the ``src=`` digest of the code it measured (the change is labelled
"+ working tree" when ``src/`` differs from ``HEAD``), and, per workload
and seed, each metric's median and quartiles on both sides, the change's
wins (pairs in which it is better in the direction
``BENCHMARK.json`` declares), whether a gain claim holds - at least
``PAIRS`` pairs, wins in at least nine of ten of them, a median gap wider
than the base's interquartile range, and no larger share of failed
operations on the change's side than on the base's - and whether a
regression was shown, by the metric's ``bound`` in ``BENCHMARK.json``:
"yes" when the change's median is worse than the base's by more than
``bound`` times the base's median, else "unresolved" when the base's
interquartile range is wider than that and some change run does not beat
every base run, else "no".
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _in_work_tree() -> bool:
    try:
        return _git("rev-parse", "--is-inside-work-tree") == "true"
    except subprocess.CalledProcessError:
        return False


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` run in ``checkout``: its result line,
    and the ``src=`` digest of the code it measured from its header line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {checkout} (exit {proc.returncode}): "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    src = next((word[len("src="):] for line in lines if line.startswith("# workload=")
                for word in line.split() if word.startswith("src=")), None)
    return {"src": src, "correct": result["correct"], "attempted": result["attempted"],
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


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric of ``BENCHMARK.json`` (its ``name``, ``better``
    and ``bound``): quartiles of both sides, the change's wins, the median
    gap, whether a gain claim holds and whether a regression was shown."""
    no_more_failures = failed_share(pairs, "change") <= failed_share(pairs, "base")
    all_correct = all(p[side]["correct"] and not p[side]["failed"]
                      for p in pairs for side in ("base", "change"))
    out = {}
    for metric in metrics:
        name = metric["name"]
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        bq, cq = quartiles(base), quartiles(change)
        gap = sign * (cq[1] - bq[1])
        # the acceptance rule: worse by more than bound x the base's median is
        # a regression; a base spread wider than that leaves it unresolved
        # unless every change run beats every base run
        allowed = metric["bound"] * abs(bq[1])
        if -gap > allowed:
            regressed = "yes"
        elif (bq[2] - bq[0] > allowed
              and min(sign * c for c in change) <= max(sign * b for b in base)):
            regressed = "unresolved"
        else:
            regressed = "no"
        out[name] = {"base": bq, "change": cq, "wins": wins, "pairs": len(pairs),
                     "all_correct": all_correct,
                     "median_gap": gap, "base_iqr": bq[2] - bq[0],
                     "gain_holds": (len(pairs) >= PAIRS and wins >= 0.9 * len(pairs)
                                    and gap > bq[2] - bq[0] and no_more_failures),
                     "regression": regressed}
    return out


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD~1", help="base revision (default HEAD~1)")
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload of perfbench/run.py; may be repeated")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--out", required=True, help="the JSON file to write")
    args = ap.parse_args(argv)
    if not _in_work_tree():
        sys.stderr.write(f"{ROOT} is not a git work tree, so it has no base revision\n")
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]
    doc = {"base": _git("rev-parse", args.base),
           "change": _git("rev-parse", "HEAD") + (
               " + working tree" if _git("status", "--porcelain", "--", "src") else ""),
           "python": platform.python_version(), "nproc": os.cpu_count(),
           "seconds": seconds, "order": "base first in even pairs",
           "workloads": {}}
    # SIGTERM exits through the ``finally`` below, which removes the
    # temporary checkout; ``subprocess.run`` kills the running child on the way
    signal.signal(signal.SIGTERM, _terminate)
    tmp = tempfile.mkdtemp(prefix="benchpairs-")
    try:
        base_dir = os.path.join(tmp, "base")
        archive = subprocess.run(["git", "archive", doc["base"]], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(base_dir)
        for workload in args.workload:
            for seed in args.seeds:
                pairs: list[dict] = []
                entry = doc["workloads"].setdefault(workload, {})
                for p in range(PAIRS):
                    sides = [("base", base_dir), ("change", ROOT)]
                    pair = {side: run_once(where, workload, seed, seconds)
                            for side, where in (sides if p % 2 == 0 else sides[::-1])}
                    pairs.append(pair)
                    entry[str(seed)] = {"pairs": pairs, "summary": summarize(pairs, metrics)}
                    with open(args.out, "w", encoding="utf-8") as fh:
                        json.dump(doc, fh, indent=1)
                    print(f"{workload} seed {seed} pair {p + 1}: " + ", ".join(
                        f"{m['name']} {pair['base']['metrics'][m['name']]:.4g} -> "
                        f"{pair['change']['metrics'][m['name']]:.4g}" for m in metrics),
                        flush=True)
    finally:
        shutil.rmtree(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
