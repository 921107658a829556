"""Inputs of the benchmark, built only from its own files and the public API.

* the frozen census(4, 2) list (``census_4_2.txt``) and the seeded plan of
  sweep passes drawn from it;
* the deep single-graph set, written as relabelled ``.bg.json`` files;
* the benchmark's own isomorphism key for Brauer graphs, used to check the
  output of ``census(4, 2)`` against the frozen list.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

FROZEN_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "census_4_2.txt")

# verify calls per sweep pass; each pass takes one graph from each of this
# many blocks of the frame sorted by ref_ms, so passes cost about the same
PASS_SIZE = 100

# (name, --max) of the deep single-graph set
DEEP_SET = (("triangle", 8), ("cycle8_m2", 5), ("pendant_triangle", 6), ("cycle6", 8))

# relabelled copies of the deep set written at set-up; round r uses copy
# r mod DEEP_COPIES, so in-process state keyed on a graph or path rarely repeats
DEEP_COPIES = 32


@dataclass(frozen=True)
class FrozenGraph:
    index: int
    sigma: tuple[int, ...]
    mults: tuple[int, ...]
    ref_ms: float


def load_frozen(path: str = FROZEN_FILE) -> list[FrozenGraph]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip() or line.startswith("#"):
                continue
            sigma, mults, ref_ms = line.split()
            out.append(FrozenGraph(
                len(out),
                tuple(int(x) for x in sigma.split(",")),
                tuple(int(x) for x in mults.split(",")),
                float(ref_ms),
            ))
    return out


def graph_doc(sigma: tuple[int, ...], mults: tuple[int, ...]) -> dict:
    """The ``from_dict`` document of a rotation permutation with multiplicities."""
    seen: set[int] = set()
    cycles: list[list[int]] = []
    for d in range(len(sigma)):
        if d in seen:
            continue
        cyc = [d]
        seen.add(d)
        nd = sigma[d]
        while nd != d:
            cyc.append(nd)
            seen.add(nd)
            nd = sigma[nd]
        cycles.append(cyc)
    if len(cycles) != len(mults):
        raise ValueError(f"{len(cycles)} vertices but {len(mults)} multiplicities")
    vertex_of = {d: f"v{j}" for j, cyc in enumerate(cycles) for d in cyc}
    return {
        "vertices": [{"id": f"v{j}", "multiplicity": m} for j, m in enumerate(mults)],
        "edges": [{"id": f"e{i}", "ends": [vertex_of[2 * i], vertex_of[2 * i + 1]]}
                  for i in range(len(sigma) // 2)],
        "rotation": {f"v{j}": [[f"e{d // 2}", d % 2] for d in cyc]
                     for j, cyc in enumerate(cycles)},
    }


def canonical_key(g) -> tuple:
    """Isomorphism key of a Brauer graph: rotation system plus multiplicities.

    Darts are numbered by edge position and end; the key is the least
    breadth-first encoding of (next dart around the vertex, other end,
    multiplicity) over all starting darts.  Ids and edge order drop out.
    """
    dart = {}
    for i, e in enumerate(g.edge_ids):
        dart[(e, 0)] = 2 * i
        dart[(e, 1)] = 2 * i + 1
    n = len(dart)
    sigma = [0] * n
    mult = [0] * n
    for v in g.vertex_ids:
        halves = g.rotation.get(v, ())
        for j, h in enumerate(halves):
            nxt = halves[(j + 1) % len(halves)]
            sigma[dart[(h.edge, h.end)]] = dart[(nxt.edge, nxt.end)]
            mult[dart[(h.edge, h.end)]] = g.multiplicity(v)
    best = None
    for start in range(n):
        label = {start: 0}
        order = [start]
        for d in order:
            for nd in (sigma[d], d ^ 1):
                if nd not in label:
                    label[nd] = len(order)
                    order.append(nd)
        enc = tuple(x for d in order for x in (label[sigma[d]], label[d ^ 1], mult[d]))
        if best is None or enc < best:
            best = enc
    return best


def sweep_passes(frozen: list[FrozenGraph], seed: int) -> list[list[int]]:
    """Seeded passes of graph indices; no graph appears twice.

    The frame is sorted by ref_ms and cut into PASS_SIZE blocks.  Each
    block is shuffled by the seed and pass p takes the p-th graph of every
    block, so every pass has the same cost profile.  The order within a
    pass is shuffled too.
    """
    rng = random.Random(seed)
    frame = sorted(frozen, key=lambda fg: (fg.ref_ms, fg.index))
    n = len(frame)
    pass_size = min(PASS_SIZE, n)
    blocks = [[fg.index for fg in frame[k * n // pass_size:(k + 1) * n // pass_size]]
              for k in range(pass_size)]
    for b in blocks:
        rng.shuffle(b)
    passes = []
    for p in range(min(len(b) for b in blocks)):
        one = [b[p] for b in blocks]
        rng.shuffle(one)
        passes.append(one)
    return passes


def deep_graph_docs(bg) -> dict[str, dict]:
    """The deep set as ``from_dict`` documents, built with the public API."""
    pendant = bg.BrauerGraph(
        [("alpha", 1), ("beta", 1), ("gamma", 1), ("delta", 1)],
        [("e1", ("alpha", "beta")), ("e2", ("beta", "gamma")),
         ("e3", ("gamma", "alpha")), ("e4", ("alpha", "delta"))],
        {"alpha": [bg.HalfEdge("e1", 0), bg.HalfEdge("e3", 1), bg.HalfEdge("e4", 0)],
         "beta": [bg.HalfEdge("e1", 1), bg.HalfEdge("e2", 0)],
         "gamma": [bg.HalfEdge("e2", 1), bg.HalfEdge("e3", 0)],
         "delta": [bg.HalfEdge("e4", 1)]},
    )
    graphs = {
        "triangle": bg.triangle_graph(),
        "cycle8_m2": bg.cycle_graph(8, 2),
        "pendant_triangle": pendant,
        "cycle6": bg.cycle_graph(6),
    }
    return {name: bg.to_dict(g) for name, g in graphs.items()}


def relabel(doc: dict, tag: str) -> dict:
    """Prefix every vertex and edge id with ``tag``; id order is unchanged."""
    return {
        "vertices": [{**v, "id": tag + v["id"]} for v in doc["vertices"]],
        "edges": [{"id": tag + e["id"], "ends": [tag + x for x in e["ends"]]}
                  for e in doc["edges"]],
        "rotation": {tag + v: [[tag + h[0], h[1]] for h in halves]
                     for v, halves in doc["rotation"].items()},
    }


def write_deep_files(bg, work_dir: str) -> dict[str, list[str]]:
    """Write DEEP_COPIES relabelled files per deep graph; returns name -> paths."""
    os.makedirs(work_dir, exist_ok=True)
    out: dict[str, list[str]] = {}
    for name, doc in deep_graph_docs(bg).items():
        paths = []
        for r in range(DEEP_COPIES):
            path = os.path.join(work_dir, f"{name}-{r:02d}.bg.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(relabel(doc, f"r{r:02d}"), fh)
            paths.append(path)
        out[name] = paths
    return out
