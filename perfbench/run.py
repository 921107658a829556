"""Benchmark of brauergraph: census sweeps over Q and F_p, and deep CLI verify.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-q --seed 1 --seconds 25 --trace 0

Workloads (one process, one thread each; see README.md):

* ``sweep-q``   enumerate census(4, 2) once, then verify_graph(g, 3) over Q
                on seeded passes drawn from the frozen census list;
* ``sweep-fp``  the same passes, each graph verified over F2 and over F3;
* ``deep-cli``  rounds of in-process ``brauergraph verify`` on the deep set.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
record of the run (seed, graphs verified, revision, Python, cores) goes to
``.perfbench_work/``.  Exit code 2 means the program could not be loaded.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

import benchdata
import benchtrace
import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("sweep-q", "sweep-fp", "deep-cli")

# kept out of all tuning; a later gain claim must also hold on this seed
HELD_OUT_SEED = 7919

SETUP_REPEATS = 5

CLI_OK_OUTPUT = json.dumps({"ok": True, "diffs": []}, indent=2, sort_keys=True) + "\n"


class ProgramMissing(RuntimeError):
    """The brauergraph sources are not in this checkout."""


@dataclass
class Config:
    frozen: list | None = None   # None: the frozen census list, read at set-up
    sweep_degree: int = 3
    census_args: tuple = (4, 2)
    deep_set: tuple = benchdata.DEEP_SET


@dataclass
class Program:
    """The brauergraph modules, looked up by attribute at call time so that
    tracing wrappers take effect."""

    bg: object
    census: object
    cli: object
    verify: object
    fields: object


def import_program() -> Program:
    """Import brauergraph afresh from this checkout's ``src``."""
    if not os.path.isfile(os.path.join(SRC, "brauergraph", "__init__.py")):
        raise ProgramMissing(f"no brauergraph package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "brauergraph" or n.startswith("brauergraph.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    bg = importlib.import_module("brauergraph")
    if not os.path.abspath(bg.__file__).startswith(os.path.join(SRC, "")):
        raise ProgramMissing(f"brauergraph was imported from {bg.__file__}, not {SRC}")
    return Program(
        bg=bg,
        census=importlib.import_module("brauergraph.census"),
        cli=importlib.import_module("brauergraph.cli"),
        verify=importlib.import_module("brauergraph.oracle.verify"),
        fields=importlib.import_module("brauergraph.oracle.fields"),
    )


@dataclass
class Inputs:
    prog: Program
    frozen: list
    calls: list        # sweeps: (graph index, field name); deep: (name, copy, max)
    unit: int          # calls in one sweep pass or one deep-cli round
    graphs: dict       # sweeps: graph index -> BrauerGraph
    paths: dict        # deep: name -> relabelled file paths
    field_objs: dict


def set_up(workload: str, seed: int, cfg: Config, work_dir: str) -> Inputs:
    """Import the program and build every input of the run."""
    prog = import_program()
    field_objs = {"Q": prog.fields.QQ, "F2": prog.fields.PrimeField(2),
                  "F3": prog.fields.PrimeField(3)}
    frozen = cfg.frozen if cfg.frozen is not None else benchdata.load_frozen()
    graphs, paths, calls = {}, {}, []
    if workload in ("sweep-q", "sweep-fp"):
        by_index = {fg.index: fg for fg in frozen}
        names = ("Q",) if workload == "sweep-q" else ("F2", "F3")
        passes = benchdata.sweep_passes(frozen, seed)
        unit = len(passes[0]) * len(names)
        for one_pass in passes:
            for i in one_pass:
                fg = by_index[i]
                graphs[i] = prog.bg.from_dict(benchdata.graph_doc(fg.sigma, fg.mults))
                calls.extend((i, name) for name in names)
    else:
        paths = benchdata.write_deep_files(prog.bg, work_dir)
        unit = len(cfg.deep_set)
        rng = random.Random(seed)
        for r in range(benchdata.DEEP_COPIES):
            order = list(cfg.deep_set)
            rng.shuffle(order)
            calls.extend((name, r, n) for name, n in order)
    return Inputs(prog, frozen, calls, unit, graphs, paths, field_objs)


# ----------------------------------------------------------------------
# one verify call; returns None when it is correct, else the reason


def sweep_call(inp: Inputs, call, degree: int) -> str | None:
    i, fname = call
    rep = inp.prog.verify.verify_graph(inp.graphs[i], max_degree=degree,
                                       field_obj=inp.field_objs[fname])
    return None if rep.ok else f"graph {i} over {fname}: {rep.entries[:2]}"


def deep_call(inp: Inputs, call, tracer=None) -> tuple[str | None, int]:
    name, r, n = call
    path = inp.paths[name][r]
    out, err = io.StringIO(), io.StringIO()
    span = tracer.open("cli.run") if tracer else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = inp.prog.cli.run(["verify", "--input", path, "--max", str(n)])
    finally:
        if tracer:
            tracer.close(span)
    text = out.getvalue()
    if code != 0 or text != CLI_OK_OUTPUT or err.getvalue():
        why = f"{name}@{n}: exit {code}, stdout {text[:200]!r}, stderr {err.getvalue()[:200]!r}"
        return why, len(text)
    return None, len(text)


@dataclass
class Phase:
    latencies: list = field(default_factory=list)   # seconds, one per call
    done: list = field(default_factory=list)        # the calls, in order
    stretches: list = field(default_factory=list)   # host-probe stretch of each call
    failures: list = field(default_factory=list)
    wall: float = 0.0
    census: dict | None = None
    clock: hostspeed.HostClock | None = None


def run_calls(workload: str, inp: Inputs, cfg: Config, calls, phase: Phase,
              tracer=None, stop=None, t0: float = 0.0) -> None:
    """Run ``calls`` in order; with ``stop`` set, stop at the first whole
    pass (sweeps) or round (deep-cli) that starts ``stop`` seconds after ``t0``."""
    for k, call in enumerate(calls):
        if stop is not None and k and k % inp.unit == 0 and perf_counter() - t0 >= stop:
            break
        phase.stretches.append(phase.clock.stretch() if phase.clock else 0)
        t = perf_counter()
        try:
            if workload == "deep-cli":
                why, nbytes = deep_call(inp, call, tracer)
                if tracer:
                    tracer.counts["cli.stdout_bytes"] += nbytes
            else:
                why = sweep_call(inp, call, cfg.sweep_degree)
        except Exception as exc:  # a crash of the program is a failed call
            why = f"{call}: {type(exc).__name__}: {exc}"
        phase.latencies.append(perf_counter() - t)
        phase.done.append(call)
        if why is not None:
            phase.failures.append(why)


def timed_phase(workload: str, inp: Inputs, cfg: Config, seconds: float,
                tracer=None) -> Phase:
    phase = Phase(clock=hostspeed.HostClock())
    t0 = perf_counter()
    if workload == "sweep-q":
        phase.clock.stretch()
        span = tracer.open("census.enum") if tracer else None
        t = perf_counter()
        graphs = list(inp.prog.census.census(*cfg.census_args))
        enum_s = perf_counter() - t
        if tracer:
            tracer.close(span)
        phase.census = {"graphs_list": graphs, "enum_s": enum_s, "graphs": len(graphs)}
    # once every planned call is used, start over rather than stop early
    run_calls(workload, inp, cfg, itertools.cycle(inp.calls), phase, tracer,
              stop=seconds, t0=t0)
    phase.clock.probe()
    phase.wall = perf_counter() - t0
    return phase


# ----------------------------------------------------------------------
# checks outside the timed phase


def canaries(workload: str, inp: Inputs, work_dir: str) -> list[str]:
    """Fault-injected runs that must each produce a diff; returns misses."""
    prog = inp.prog
    misses = []
    tri = prog.bg.triangle_graph()
    n_rel = len(prog.bg.present(tri).all_relations)
    if workload == "deep-cli":
        path = os.path.join(work_dir, "canary-triangle.bg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(prog.bg.to_dict(tri), fh)
        argvs = [["verify", "--input", path, "--max", "3", "--inject-flip", "e1:2:0:0"]]
        argvs += [["verify", "--input", path, "--max", "3", "--field", "fp:3",
                   "--inject-drop", str(k)] for k in range(n_rel)]
        for argv in argvs:
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = prog.cli.run(argv)
            except Exception as exc:  # a crash is not a detection
                code = f"{type(exc).__name__}: {exc}"
            if code != prog.cli.EXIT_MISMATCH:
                misses.append(f"canary {' '.join(argv[3:])}: exit {code}")
        return misses
    Fault = prog.verify.Fault
    runs = [("flip e1:2:0:0 over Q", Fault(flip_sign=("e1", 2, 0, 0)), prog.fields.QQ)]
    runs += [(f"drop relation {k} over F3", Fault(drop_relation=k), prog.fields.PrimeField(3))
             for k in range(n_rel)]
    for label, fault, fobj in runs:
        try:
            if prog.verify.verify_graph(tri, max_degree=3, field_obj=fobj, fault=fault).ok:
                misses.append(f"canary {label}: no diff")
        except Exception as exc:  # a crash is not a detection
            misses.append(f"canary {label}: {type(exc).__name__}: {exc}")
    return misses


def census_check(phase: Phase, cfg: Config, inp: Inputs) -> list[str]:
    """census()'s isomorphism classes must be exactly the frozen list's."""
    from_dict = inp.prog.bg.from_dict
    got = {benchdata.canonical_key(g) for g in phase.census.pop("graphs_list")}
    want = {benchdata.canonical_key(from_dict(benchdata.graph_doc(fg.sigma, fg.mults)))
            for fg in inp.frozen}
    phase.census["classes"] = len(got)
    if got != want:
        return [f"census{cfg.census_args}: {len(got - want)} classes not in the frozen "
                f"list, {len(want - got)} frozen classes missing"]
    return []


def coverage_check(tracer, phase: Phase, top: str) -> list[str]:
    """Every timed call must sit under one root span of the traced layer."""
    roots = [i for i, p in enumerate(tracer.parent) if p < 0]
    names = {tracer.names[tracer.span_name[i]] for i in roots}
    tops = [i for i in roots if tracer.names[tracer.span_name[i]] == top]
    n_top = len(tops)
    covered = sum(tracer.end[i] - tracer.start[i] for i in tops)
    measured = sum(phase.latencies)
    problems = []
    if names - {top, "census.enum"}:
        problems.append(f"untraced entry points: {sorted(names - {top, 'census.enum'})}")
    if n_top != len(phase.done):
        problems.append(f"{n_top} root {top} spans for {len(phase.done)} calls")
    if covered < 0.95 * measured:
        problems.append(f"root spans cover {covered:.3f} s of {measured:.3f} s")
    return problems


# ----------------------------------------------------------------------


def scaled_latencies(phase: Phase) -> list:
    """Call latencies in seconds at the reference host speed."""
    scales = phase.clock.scales()
    return [x * scales[k] for x, k in zip(phase.latencies, phase.stretches)]


def end_to_end_metrics(phase: Phase, setups: list, setup_clock) -> dict:
    """The end-to-end metrics, every time scaled to the reference host speed."""
    census_s = phase.census["enum_s"] if phase.census else 0.0
    lat_ms = [x * 1000 for x in scaled_latencies(phase)]
    busy_s = sum(lat_ms) / 1000 + census_s * phase.clock.scales()[0]
    setup_s = statistics.median(x * k for x, k in zip(setups, setup_clock.scales()))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "graphs_per_s": {"value": len(lat_ms) / busy_s, "unit": "1/s"},
        "verify_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "verify_p90_ms": {"value": percentile(lat_ms, 90), "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def unscaled(phase: Phase) -> dict:
    """The timing metrics as the clock read them, before host-speed scaling."""
    lat_ms = [x * 1000 for x in phase.latencies]
    busy_s = sum(phase.latencies) + (phase.census["enum_s"] if phase.census else 0.0)
    return {"graphs_per_s": len(lat_ms) / busy_s, "verify_p50_ms": statistics.median(lat_ms),
            "verify_p90_ms": percentile(lat_ms, 90)}


def percentile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def src_digest() -> str:
    """SHA-256 over the program's source files; identifies a checkout
    that is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_rev() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  cfg: Config | None = None, work_root: str = WORK) -> dict:
    """One run; returns the result object plus a ``record`` with context."""
    cfg = cfg or Config()
    work_dir = os.path.join(work_root, f"{workload}-{os.getpid()}")
    try:
        setup_clock = hostspeed.HostClock()
        setups = []
        for _ in range(SETUP_REPEATS):
            setup_clock.probe()
            t = perf_counter()
            inp = set_up(workload, seed, cfg, work_dir)
            setups.append(perf_counter() - t)
        setup_clock.probe()

        problems = canaries(workload, inp, work_dir)

        tracer = instr = None
        if trace:
            tracer = benchtrace.Tracer()
            instr = benchtrace.Instrumentation(tracer)
            instr.install()
        try:
            phase = timed_phase(workload, inp, cfg, seconds, tracer)
        finally:
            if instr:
                instr.restore()

        if phase.census is not None:
            problems += census_check(phase, cfg, inp)
        top = "cli.run" if workload == "deep-cli" else "verify.graph"
        overhead_s = 0.0
        if trace:
            problems += coverage_check(tracer, phase, top)
            # rerun untraced the first whole passes or rounds that took a
            # quarter of the timed phase
            n, acc = 0, 0.0
            while n < len(phase.done) and (n == 0 or n % inp.unit or acc < seconds / 4):
                acc += phase.latencies[n]
                n += 1
            calib = Phase(clock=hostspeed.HostClock())
            run_calls(workload, inp, cfg, phase.done[:n], calib)
            calib.clock.probe()
            problems += calib.failures
            traced = scaled_latencies(phase)
            overhead_s = sum(traced) * (1 - sum(scaled_latencies(calib)) / sum(traced[:n]))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(phase.done)
    failed = len(phase.failures)
    if trace:
        layer = benchtrace.per_layer_metrics(tracer, attempted, top, overhead_s, phase.census)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        os.makedirs(work_root, exist_ok=True)
        tracer.write(os.path.join(work_root, f"spans-{workload}-seed{seed}.json"))
    else:
        metrics = end_to_end_metrics(phase, setups, setup_clock)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": bool(trace),
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "samples": attempted,
        "timed_wall_s": phase.wall,
        "probe_ms": [x * 1000 for x in phase.clock.probe_s],
        "unscaled": unscaled(phase),
        "setup_samples_s": setups,
        "setup_probe_ms": [x * 1000 for x in setup_clock.probe_s],
        "calls": [list(c) for c in phase.done],
        "problems": problems,
        "failures": phase.failures[:20],
    }
    return {"result": result, "record": record}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    result, record = out["result"], out["record"]
    os.makedirs(WORK, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, name), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "record": record}, fh, indent=1)
    for msg in record["problems"] + record["failures"]:
        sys.stderr.write(f"perfbench: {msg}\n")
    print(f"# workload={args.workload} seed={args.seed} held_out_seed={HELD_OUT_SEED} "
          f"rev={record['git_rev']} src={record['src_sha256'][:12]} "
          f"python={record['python']} nproc={record['nproc']} "
          f"samples={record['samples']} timed_wall_s={record['timed_wall_s']:.3f} "
          f"probe_ms_median={statistics.median(record['probe_ms']):.3f}")
    print(f"# failed_frac {result['failed']}/{result['attempted']}")
    for key, value in record["unscaled"].items():
        print(f"# unscaled {key} {value:.6g}")
    for key, m in result["metrics"].items():
        print(f"{key:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
