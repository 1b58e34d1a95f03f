"""Span tracing for the traced run, recorded from outside the package.

Every public entry point named in ENTRY_POINTS is replaced, at every place it
is bound (names are imported by value, so `validate` lives in five module
namespaces), by a wrapper that records a span: entry id, parent span, start,
end and one integer of work computed from the call's arguments.  Spans are
kept in flat arrays and reduced after the pass.  A layer's self time is its
spans' durations minus the time their child spans cover, so the self times
of all layers, plus the benchmark's own setup root, add up to the traced time
of the root spans.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from array import array
from time import perf_counter

ALL = ("exact-large", "exact-small", "planar", "product-glue")
EXACT = ("exact-large", "exact-small")
SMALL = ("exact-small",)
PLANAR = ("planar",)
GLUE = ("product-glue",)

ROOTS = ("cli", "bench.setup")

# (layer metric prefix, module, attribute or Class.method, workloads on which
#  the entry point must record at least one span)
ENTRY_POINTS = [
    ("cli", "cli", "main", ALL),
    ("exact.kernel.tw_dp", "exact._kernels", "treewidth_dp", EXACT),
    ("exact.kernel.pw_dp", "exact._kernels", "pathwidth_dp", EXACT),
    ("exact.oracle.tw", "exact", "treewidth_exact", EXACT),
    ("exact.oracle.pw", "exact", "pathwidth_exact", EXACT),
    ("exact.oracle.bw", "exact", "bandwidth_exact", SMALL),
    ("exact.oracle.td", "exact", "treedepth_exact", SMALL),
    ("exact.oracle.treef", "exact", "tree_param_exact", SMALL),
    ("exact.oracle.twintw", "exact", "twintw_exact", SMALL),
    ("exact.oracle.twtw", "exact", "twtw_exact", SMALL),
    ("planar.faces", "planar", "faces", PLANAR),
    ("planar.lex_bfs", "planar", "lex_bfs", PLANAR),
    ("planar.cotree", "planar", "cotree", PLANAR),
    ("planar.bw3", "planar", "planar_bandwidth3_decomposition", PLANAR),
    ("planar.ctor", "planar", "PlaneTriangulation.__init__", PLANAR + SMALL),
    ("planar.json", "planar", "PlaneTriangulation.to_json", PLANAR),
    ("planar.json", "planar", "PlaneTriangulation.from_json", PLANAR),
    ("constructions.stacked", "constructions", "stacked_triangulation", PLANAR + SMALL),
    ("constructions.random_regular", "constructions", "random_regular", EXACT),
    ("decomposition.validate", "decomposition", "validate", PLANAR + GLUE),
    ("decomposition.torso", "decomposition", "torso", GLUE),
    ("decomposition.glue", "decomposition", "glue_tree_f", GLUE),
    ("decomposition.glue", "decomposition", "glue_orthogonal", GLUE),
    ("decomposition.project", "decomposition", "project_product_decomposition", GLUE),
    ("decomposition.orthogonality", "decomposition", "orthogonality", GLUE),
    ("decomposition.ctor", "decomposition", "TreeDecomposition.__init__", ALL),
    ("decomposition.ctor", "decomposition", "PathDecomposition.__init__", EXACT + GLUE),
    ("decomposition.json", "decomposition", "TreeDecomposition.to_json", ALL),
    ("decomposition.json", "decomposition", "TreeDecomposition.from_json", PLANAR + GLUE),
    ("decomposition.json", "decomposition", "PathDecomposition.to_json", EXACT + GLUE),
    ("decomposition.json", "decomposition", "PathDecomposition.from_json", GLUE),
    ("products.product", "products", "cartesian", ("exact-large",) + SMALL + GLUE),
    ("products.product", "products", "direct", GLUE),
    ("products.product", "products", "strong", GLUE),
    ("products.product", "products", "directed_strong", GLUE),
    ("products.embed", "products", "embed_join_product", GLUE),
    ("products.embed", "products", "embed_move_apex", GLUE),
    ("products.embed", "products", "embed_apex_partition", GLUE),
    ("products.embed", "products", "degree_partition", GLUE),
    ("products.embed", "products", "partition_product_check", ()),
    ("products.embed", "products", "orient_apex_fan", ()),
    ("products.validate_embedding", "products", "validate_embedding", GLUE),
    ("products.validate_embedding", "products", "validate_directed_embedding", GLUE),
    ("products.glue_directed", "products", "glue_directed_products", GLUE),
    ("graphs.ctor", "graphs", "Graph.__init__", ALL),
    ("graphs.ctor", "graphs", "Digraph.__init__", GLUE),
    ("graphs.json", "graphs", "Graph.to_json", EXACT + GLUE),
    ("graphs.json", "graphs", "Graph.from_json", ALL),
    ("graphs.json", "graphs", "Digraph.to_json", GLUE),
    ("graphs.json", "graphs", "Digraph.from_json", GLUE),
    ("graphs.subgraph", "graphs", "Graph.subgraph", SMALL + GLUE),
    ("graphs.quotient", "graphs", "quotient", SMALL),
]

FAMILIES = {
    "path": EXACT, "cycle": EXACT + GLUE, "complete": SMALL,
    "complete_multipartite": SMALL, "star": SMALL, "grid2": EXACT + GLUE,
    "grid3": SMALL, "hex_graph": EXACT, "pyramid": SMALL, "windmill": SMALL,
    "flower": SMALL, "separating_graph": SMALL, "v8": SMALL,
    "triangulated_grid2": (), "triangulated_grid3": (), "treedepth_family": (),
    "tightness_example": (),
}
ENTRY_POINTS += [("constructions.families", "constructions", name, where)
                 for name, where in FAMILIES.items()]

ORACLES = [p for p, *_ in ENTRY_POINTS if p.startswith("exact.oracle.")]


def _graph_key(a, k):
    g = a[0]
    return (g.n, g.adj, a[1:], tuple(sorted(k.items())))


def _decomposition_key(a, k):
    g, td = a[0], a[1]
    return (g.n, g.adj, type(td).__name__, td.host_n, td.bags,
            getattr(td, "tree_edges", None))


def _faces_key(a, k):
    return (a[0].rotation, a[0].outer_face)


# work count recorded per span, computed from the call's arguments
WORK = {
    "exact.kernel.tw_dp": lambda a: len(a[0]),
    "exact.kernel.pw_dp": lambda a: len(a[0]),
    "decomposition.validate": lambda a: a[1].nodes,
}
# value-level input identity, for the distinct-input ratios
KEYS = dict({p: _graph_key for p in ORACLES},
            **{"decomposition.validate": _decomposition_key,
               "planar.faces": _faces_key})


class TraceError(RuntimeError):
    """The traced run could not attribute time as it promises to."""


class Tracer:
    """Installs span wrappers and records spans into flat arrays."""

    def __init__(self):
        # entry id -> layer metric prefix, module.attribute, required workloads
        self.prefix = [p for p, *_ in ENTRY_POINTS] + ["bench.setup"]
        self.label = [f"{mod}.{attr}" for _, mod, attr, _ in ENTRY_POINTS] + ["bench.setup"]
        self.where = [w for *_, w in ENTRY_POINTS] + [()]
        self.setup_root = len(self.prefix) - 1
        self.sites = []           # (namespace, name, original) to restore
        self.reset()

    def reset(self):
        self.entry = array("i")
        self.parent = array("i")
        self.work = array("q")
        self.start = array("d")
        self.end = array("d")
        self.keys = {}
        self.stack = []

    # -- recording ----------------------------------------------------------

    def open(self, entry, work=0):
        idx = len(self.entry)
        self.entry.append(entry)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.work.append(work)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _wrapper(self, fn, entry, prefix):
        work_of = WORK.get(prefix)
        key_of = KEYS.get(prefix)
        tracer = self

        def traced(*a, **k):
            if key_of is not None:
                tracer.keys.setdefault(entry, []).append(hash(key_of(a, k)))
            idx = tracer.open(entry, work_of(a) if work_of else 0)
            try:
                return fn(*a, **k)
            finally:
                tracer.close(idx)

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__wrapped__ = fn
        return traced

    # -- installing ---------------------------------------------------------

    def install(self):
        """Wrap every entry point at every binding site in the package."""
        importlib.import_module("prodstruct.cli")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "prodstruct" or name.startswith("prodstruct."))]
        originals = set()
        for entry, (prefix, mod, attr, _) in enumerate(ENTRY_POINTS):
            owner = importlib.import_module("prodstruct." + mod)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                new = self._wrapper(fn, entry, prefix)
                setattr(cls, meth, staticmethod(new) if isinstance(raw, staticmethod) else new)
                self.sites.append((cls, meth, raw))
                originals.add(id(fn))
                continue
            fn = getattr(owner, attr)
            originals.add(id(fn))
            new = self._wrapper(fn, entry, prefix)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, name, new)
                        self.sites.append((m, name, fn))
        for m in modules:
            for name, value in vars(m).items():
                if id(value) in originals:
                    raise TraceError(f"unwrapped binding {m.__name__}.{name}")

    def uninstall(self):
        for owner, name, original in reversed(self.sites):
            setattr(owner, name, original)
        self.sites = []

    # -- reducing -----------------------------------------------------------

    def reduce(self):
        """Per-entry totals of one traced pass: self time, calls, work, keys."""
        n = len(self.entry)
        if self.stack:
            raise TraceError("spans still open at the end of the pass")
        child = [0.0] * n
        oracle_ids = {i for i, p in enumerate(self.prefix) if p in ORACLES}
        nested = [False] * n          # has an oracle span among its ancestors
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                if not (self.start[p] <= self.start[i] and self.end[i] <= self.end[p]):
                    raise TraceError(f"span {self.label[self.entry[i]]} escapes its parent")
                child[p] += self.end[i] - self.start[i]
                nested[i] = self.entry[p] in oracle_ids or nested[p]
            elif self.prefix[self.entry[i]] not in ROOTS:
                raise TraceError(f"span {self.label[self.entry[i]]} has no root")
        out = {}
        roots = 0.0
        for i in range(n):
            entry, w = self.entry[i], self.work[i]
            prefix = self.prefix[entry]
            dur = self.end[i] - self.start[i]
            if self.parent[i] < 0:
                roots += dur
            r = out.setdefault(self.label[entry], _blank())
            r["self"] += dur - child[i]
            r["calls"] += 1
            r["work"] += w
            if prefix.startswith("exact.kernel."):
                # int8 dp table, plus the int64 neighbourhood table for pw
                r["states"] += 1 << w
                r["table"] = max(r["table"], (1 if prefix.endswith("tw_dp") else 9) << w)
            r["nested"] += entry in oracle_ids and nested[i]
        for entry, keys in self.keys.items():
            out.setdefault(self.label[entry], _blank())["keys"].update(keys)
        attributed = sum(r["self"] for r in out.values())
        if abs(attributed - roots) > 1e-6 * max(1.0, roots):
            raise TraceError(f"self times {attributed:.6f}s do not add up to {roots:.6f}s")
        return out


SUMMED = ("self", "calls", "work", "states", "nested")


def _blank():
    return {"self": 0.0, "calls": 0, "work": 0, "states": 0, "table": 0, "nested": 0,
            "keys": set()}


def merge(*reduced):
    """Per-entry totals of several traced spans sets (setup and a pass)."""
    out = {}
    for red in reduced:
        for label, r in red.items():
            m = out.setdefault(label, _blank())
            for f in SUMMED:
                m[f] += r[f]
            m["table"] = max(m["table"], r["table"])
            m["keys"] |= r["keys"]
    return out


def coverage_failures(labels, where, totals, workload):
    """Entry points that recorded no span on a workload listed for them."""
    return [label for label, req in zip(labels, where)
            if workload in req and totals.get(label, {}).get("calls", 0) == 0]


def layer_metrics(totals, prefix_of):
    """The per-layer metric values, as (value, unit), from per-entry totals."""
    groups = {prefix: dict(_blank(), distinct=0) for prefix in prefix_of.values()}
    for label, r in totals.items():
        g = groups[prefix_of[label]]
        for f in SUMMED:
            g[f] += r[f]
        g["table"] = max(g["table"], r["table"])
        g["distinct"] += len(r["keys"])

    def ratio(a, b):
        return a / b if b else 0.0

    m = {prefix + ".self_s": (g["self"], "s") for prefix, g in groups.items()}
    tw, pw = groups["exact.kernel.tw_dp"], groups["exact.kernel.pw_dp"]
    states = tw["states"] + pw["states"]
    m["exact.kernel.calls"] = (tw["calls"] + pw["calls"], "count")
    m["exact.kernel.states"] = (states, "count")
    m["exact.kernel.states_per_s"] = (ratio(states, tw["self"] + pw["self"]), "1/s")
    m["exact.kernel.table_bytes_max"] = (max(tw["table"], pw["table"]), "B")
    oracles = [groups[p] for p in ORACLES]
    calls = sum(o["calls"] for o in oracles)
    m["exact.oracle.calls"] = (calls, "count")
    m["exact.oracle.nested_calls"] = (sum(o["nested"] for o in oracles), "count")
    m["exact.oracle.distinct_input_ratio"] = (
        ratio(sum(o["distinct"] for o in oracles), calls), "1")
    for prefix in ("planar.faces", "decomposition.validate"):
        g = groups[prefix]
        m[prefix + ".calls"] = (g["calls"], "count")
        m[prefix + ".distinct_input_ratio"] = (ratio(g["distinct"], g["calls"]), "1")
    m["decomposition.validate.nodes"] = (groups["decomposition.validate"]["work"], "count")
    for prefix in ("cli", "decomposition.ctor", "graphs.ctor"):
        m[prefix + ".calls"] = (groups[prefix]["calls"], "count")
    return m


def median_metrics(samples):
    """Per metric, the median over traced passes."""
    return {name: (statistics.median(s[name][0] for s in samples), unit)
            for name, (_, unit) in samples[0].items()}
