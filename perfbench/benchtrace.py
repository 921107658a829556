"""Span tracing of the brauergraph layers, from outside the package.

A :class:`Tracer` records spans (name, start, end, parent) in memory and
counters.  :meth:`Instrumentation.install` wraps the public functions of each
layer and puts the wrapper into every ``brauergraph`` namespace that holds
the original, so ``from .modules import min_resolution`` in another module
is traced too.  Per-element calls (``FiniteDimAlgebra.mult``, field
arithmetic) are never wrapped.  :meth:`Instrumentation.restore` undoes it.
"""
from __future__ import annotations

import inspect
import json
import sys
import weakref
from collections import Counter
from time import perf_counter

# (span name, module, attribute); a dotted attribute is a class member
SPANS = (
    ("presentation.present", "brauergraph.presentation", "present"),
    ("algebra.build", "brauergraph.oracle.algebra", "build_algebra"),
    ("algebra.assoc", "brauergraph.oracle.algebra", "FiniteDimAlgebra.check_associativity"),
    ("algebra.redundant", "brauergraph.oracle.algebra", "is_redundant_relation"),
    ("linalg.rref", "brauergraph.oracle.linalg", "rref"),
    ("linalg.solve_left", "brauergraph.oracle.linalg", "solve_left"),
    ("modules.cover", "brauergraph.oracle.modules", "projective_cover"),
    ("modules.kernel", "brauergraph.oracle.modules", "kernel_module"),
    ("modules.min_resolution", "brauergraph.oracle.modules", "min_resolution"),
    ("strings.iterate", "brauergraph.strings", "iterate_syzygy"),
    ("strings.realize", "brauergraph.strings", "realize"),
    ("resolution.resolve", "brauergraph.resolution", "resolve_simple"),
    ("resolution.resolve", "brauergraph.resolution", "resolve_simple_2d"),
    ("resolution.ext_dim", "brauergraph.resolution", "ext_dim"),
    ("ext.from_steps", "brauergraph.oracle.ext", "ProjResolution.from_steps"),
    ("ext.exactness", "brauergraph.oracle.ext", "ProjResolution.exactness_defects"),
    ("ext.lift", "brauergraph.oracle.ext", "lift_through"),
    ("ext.yoneda", "brauergraph.oracle.ext", "yoneda_multiply"),
    ("ext.closure", "brauergraph.oracle.ext", "element_in_span"),
    ("classify.koszul", "brauergraph.classify", "koszul_report"),
    ("verify.graph", "brauergraph.oracle.verify", "verify_graph"),
    ("verify.strings", "brauergraph.oracle.verify", "_check_strings"),
    ("verify.resolution", "brauergraph.oracle.verify", "_check_resolution"),
    ("verify.certificates", "brauergraph.oracle.verify", "_check_certificates"),
    ("verify.obstruction", "brauergraph.oracle.verify", "_check_obstruction"),
    ("verify.nakayama_degrees", "brauergraph.oracle.verify", "_check_nakayama_degrees"),
    ("verify.linear", "brauergraph.oracle.verify", "_check_linear"),
    ("cli.load", "brauergraph.graph", "load_file"),
)

# called too often for a span each: counted only
COUNTS = (
    ("linalg.reducer_add", "brauergraph.oracle.linalg", "SparseReducer.add"),
    ("strings.syzygy", "brauergraph.strings", "syzygy"),
    ("resolution.certificate", "brauergraph.resolution", "generation_certificate"),
)

VERIFY_FAMILIES = ("strings", "resolution", "certificates", "obstruction",
                   "nakayama_degrees", "linear")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack = [-1]
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        i = len(self.start)
        self.span_name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def span_wrapper(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def count_wrapper(self, name: str, fn, after=None):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1
            if after is not None:
                after(args, kwargs, result)
            return result
        counted.__wrapped__ = fn
        return counted

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict] = {}
        for i, nid in enumerate(self.span_name):
            dur = self.end[i] - self.start[i]
            agg = out.setdefault(self.names[nid], {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["incl_s"] += dur
            agg["self_s"] += dur - child[i]
        return out

    def write(self, path: str) -> None:
        """Spans as parallel arrays; times in microseconds from the first start."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "name": self.span_name,
                       "start_us": [round((t - t0) * 1e6) for t in self.start],
                       "end_us": [round((t - t0) * 1e6) for t in self.end],
                       "parent": self.parent, "counts": dict(self.counts)},
                      fh, separators=(",", ":"))


class Instrumentation:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []
        self._resolved_degrees: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._built_resolutions: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- counting hooks: each gets the call's arguments by parameter name ----

    def _after_build(self, a, la):
        self.tracer.counts["algebra.words"] += len(la.allowed)
        self.tracer.counts["algebra.dim"] += la.dim

    def _after_assoc(self, a, result):
        self.tracer.counts["algebra.assoc_checked"] += a["self"].dim <= a["cap"]

    def _after_reducer_add(self, a, grew):
        self.tracer.counts["linalg.reducer_useful"] += bool(grew)

    def _after_min_resolution(self, a, result):
        la, e, n = a["la"], a["e"], a["n"]
        seen = self._resolved_degrees.setdefault(la, {})
        prev = seen.get(e, -1)
        self.tracer.counts["modules.min_resolution_degrees"] += n + 1
        self.tracer.counts["modules.min_resolution_redundant"] += min(n, prev) + 1
        seen[e] = max(prev, n)

    def _after_from_steps(self, a, result):
        la, source, steps = a["la"], a["source"], a["steps"]
        key = (source, repr([(s.degree, s.summands, sorted(s.differential.items()),
                              s.generation_degrees) for s in steps]))
        built = self._built_resolutions.setdefault(la, set())
        self.tracer.counts["ext.from_steps_redundant"] += key in built
        built.add(key)

    # span or counter name -> hook run after each call
    HOOKS = {
        "algebra.build": "_after_build",
        "algebra.assoc": "_after_assoc",
        "linalg.reducer_add": "_after_reducer_add",
        "modules.min_resolution": "_after_min_resolution",
        "ext.from_steps": "_after_from_steps",
    }

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        for name, module, attr in SPANS:
            self._patch(name, module, attr, self.tracer.span_wrapper)
        for name, module, attr in COUNTS:
            self._patch(name, module, attr, self.tracer.count_wrapper)

    def _hook(self, name: str, fn):
        if name not in self.HOOKS:
            return None
        method = getattr(self, self.HOOKS[name])
        sig = inspect.signature(fn)

        def after(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            method(bound.arguments, result)
        return after

    def _patch(self, name: str, module: str, attr: str, make) -> None:
        owner = sys.modules[module]
        if "." in attr:
            cls_name, member = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[member]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(name, raw.__func__, self._hook(name, raw.__func__)))
            else:
                wrapped = make(name, raw, self._hook(name, raw))
            self._undo.append((cls, member, raw))
            setattr(cls, member, wrapped)
            return
        original = getattr(owner, attr)
        wrapped = make(name, original, self._hook(name, original))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "brauergraph" or mod_name.startswith("brauergraph.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


def per_layer_metrics(tracer: Tracer, verify_calls: int, top_span: str,
                      overhead_s: float, census_stats: dict | None) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit).

    Counts and self times are divided by ``verify_calls`` (unit ``/verify``)
    so that runs doing a different number of passes compare; census figures
    are per run.  A layer that did not run reports 0.
    """
    s = tracer.summary()
    c = tracer.counts
    per = max(verify_calls, 1)

    def calls(name):
        return s.get(name, {}).get("calls", 0) / per

    def self_s(name):
        return s.get(name, {}).get("self_s", 0.0) / per

    def frac(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    census_stats = census_stats or {}
    m["census.enum_s"] = (census_stats.get("enum_s", 0.0), "s")
    m["census.graphs"] = (census_stats.get("graphs", 0), "count")
    m["census.class_frac"] = (frac(census_stats.get("classes", 0),
                                   census_stats.get("graphs", 0)), "ratio")
    m["presentation.present_calls"] = (calls("presentation.present"), "count/verify")
    m["presentation.present_s"] = (self_s("presentation.present"), "s/verify")
    m["cli.load_s"] = (self_s("cli.load"), "s/verify")
    m["cli.stdout_bytes"] = (c["cli.stdout_bytes"] / per, "bytes/verify")
    m["algebra.build_calls"] = (calls("algebra.build"), "count/verify")
    m["algebra.build_s"] = (self_s("algebra.build"), "s/verify")
    m["algebra.words"] = (c["algebra.words"] / per, "count/verify")
    m["algebra.dim"] = (c["algebra.dim"] / per, "count/verify")
    m["algebra.assoc_s"] = (self_s("algebra.assoc"), "s/verify")
    m["algebra.assoc_checked_frac"] = (
        frac(c["algebra.assoc_checked"], s.get("algebra.assoc", {}).get("calls", 0)), "ratio")
    m["algebra.redundant_calls"] = (calls("algebra.redundant"), "count/verify")
    m["algebra.redundant_s"] = (self_s("algebra.redundant"), "s/verify")
    m["linalg.rref_calls"] = (calls("linalg.rref"), "count/verify")
    m["linalg.rref_s"] = (self_s("linalg.rref"), "s/verify")
    m["linalg.solve_left_calls"] = (calls("linalg.solve_left"), "count/verify")
    m["linalg.solve_left_s"] = (self_s("linalg.solve_left"), "s/verify")
    m["linalg.reducer_adds"] = (c["linalg.reducer_add"] / per, "count/verify")
    m["linalg.reducer_useful_frac"] = (
        frac(c["linalg.reducer_useful"], c["linalg.reducer_add"]), "ratio")
    m["modules.cover_calls"] = (calls("modules.cover"), "count/verify")
    m["modules.cover_s"] = (self_s("modules.cover"), "s/verify")
    m["modules.kernel_calls"] = (calls("modules.kernel"), "count/verify")
    m["modules.kernel_s"] = (self_s("modules.kernel"), "s/verify")
    m["modules.min_resolution_calls"] = (calls("modules.min_resolution"), "count/verify")
    m["modules.min_resolution_s"] = (self_s("modules.min_resolution"), "s/verify")
    m["modules.min_resolution_redundant_frac"] = (
        frac(c["modules.min_resolution_redundant"], c["modules.min_resolution_degrees"]),
        "ratio")
    m["strings.syzygy_calls"] = (c["strings.syzygy"] / per, "count/verify")
    m["strings.iterate_s"] = (self_s("strings.iterate"), "s/verify")
    m["strings.realize_s"] = (self_s("strings.realize"), "s/verify")
    m["resolution.resolve_calls"] = (calls("resolution.resolve"), "count/verify")
    m["resolution.resolve_s"] = (self_s("resolution.resolve"), "s/verify")
    m["resolution.ext_dim_calls"] = (calls("resolution.ext_dim"), "count/verify")
    m["resolution.ext_dim_s"] = (self_s("resolution.ext_dim"), "s/verify")
    m["resolution.certificate_calls"] = (c["resolution.certificate"] / per, "count/verify")
    m["ext.from_steps_calls"] = (calls("ext.from_steps"), "count/verify")
    m["ext.from_steps_s"] = (self_s("ext.from_steps"), "s/verify")
    m["ext.from_steps_redundant_frac"] = (
        frac(c["ext.from_steps_redundant"], s.get("ext.from_steps", {}).get("calls", 0)),
        "ratio")
    m["ext.exactness_s"] = (self_s("ext.exactness"), "s/verify")
    m["ext.lift_calls"] = (calls("ext.lift"), "count/verify")
    m["ext.lift_s"] = (self_s("ext.lift"), "s/verify")
    m["ext.yoneda_calls"] = (calls("ext.yoneda"), "count/verify")
    m["ext.closure_s"] = (self_s("ext.closure"), "s/verify")
    m["classify.koszul_s"] = (self_s("classify.koszul"), "s/verify")
    for fam in VERIFY_FAMILIES:
        m[f"verify.{fam}_s"] = (self_s(f"verify.{fam}"), "s/verify")
        m[f"verify.{fam}_wall_s"] = (
            s.get(f"verify.{fam}", {}).get("incl_s", 0.0) / per, "s/verify")
        m[f"verify.{fam}_runs"] = (calls(f"verify.{fam}"), "count/verify")
    glue = sum(s.get(n, {}).get("self_s", 0.0) for n in ("verify.graph", "cli.run"))
    m["trace.unattributed_frac"] = (frac(glue, s.get(top_span, {}).get("incl_s", 0.0)),
                                    "ratio")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
