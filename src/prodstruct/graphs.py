"""Core graph values: simple graphs, digraphs, vertex partitions.

Vertices are dense integer ids 0..n-1.  All values are immutable after
construction and every operation is a pure function, so concurrent use is
safe.  Constructors document the id layout of their outputs (join: in argument
order; paste: g1-then-unmerged-g2) to keep downstream embeddings reproducible.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional


class GraphError(ValueError):
    pass


def bfs_layers(adj, r: int) -> list:
    """The breadth-first layers from r, each in discovery order.

    Layer 0 is [r]; layer i+1 lists the unreached neighbours of layer i in the
    order that its vertices, scanned in turn through adj[u] (any iterable of
    u's neighbours), first reach them.  Only r's component is reached.
    """
    seen = {r}
    layers = [[r]]
    for layer in layers:        # a for loop over a list sees what is appended
        nxt = []
        for u in layer:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        if nxt:
            layers.append(nxt)
    return layers


class Graph:
    """Simple undirected graph with adjacency sets."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple] = ()):
        if n < 0:
            raise GraphError("negative vertex count")
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj = tuple(frozenset(s) for s in adj)

    @staticmethod
    def _from_adj(adj) -> "Graph":
        """The graph with neighbour sets `adj`: symmetric, loop-free frozensets of ids
        in range(len(adj)).  Unchecked: for sets that the package has built itself."""
        g = Graph.__new__(Graph)
        g.n = len(adj)
        g.adj = tuple(adj)
        return g

    # -- accessors -------------------------------------------------------

    def edges(self) -> list:
        return [(u, v) for u, s in enumerate(self.adj) for v in sorted(s) if u < v]

    @property
    def m(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(s) for s in self.adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self.adj[u]

    def closed_neighborhood(self, v: int) -> frozenset:
        return self.adj[v] | {v}

    def is_clique(self, vs) -> bool:
        """Whether the vertices vs, given without repeats, are pairwise adjacent."""
        s = frozenset(vs)          # no copy when vs is a frozenset already
        k = len(s) - 1
        return all(len(self.adj[v] & s) == k for v in s)

    def is_connected(self) -> bool:
        return self.n == 0 or sum(map(len, bfs_layers(self.adj, 0))) == self.n

    def subgraph(self, vertices) -> tuple:
        """Induced subgraph on `vertices` relabeled by ascending id.

        Returns (graph, order) where order[new_id] = old_id.
        """
        order = sorted(vertices)
        if order and not (0 <= order[0] and order[-1] < self.n):
            raise GraphError(f"vertices {order[0]}..{order[-1]} out of range for n={self.n}")
        index = {v: i for i, v in enumerate(order)}
        edges = [(index[u], index[v]) for u in order for v in self.adj[u]
                 if v in index and u < v]
        return Graph(len(order), edges), order

    def adjacency_masks(self) -> list:
        """Neighborhoods as int bitmasks (used by the exact oracles)."""
        return [sum(1 << w for w in s) for s in self.adj]

    def components(self) -> list:
        """Connected components as sorted vertex lists, in id order."""
        seen, out = set(), []
        for s in range(self.n):
            if s not in seen:
                comp = sorted(v for layer in bfs_layers(self.adj, s) for v in layer)
                seen.update(comp)
                out.append(comp)
        return out

    # -- serialization ---------------------------------------------------

    def to_data(self) -> dict:
        return {"n": self.n, "edges": self.edges()}

    def to_json(self) -> str:
        return json.dumps(self.to_data(), check_circular=False)

    @staticmethod
    def from_json(text: str) -> "Graph":
        return Graph.from_data(json.loads(text))

    @staticmethod
    def from_data(data) -> "Graph":
        """The graph in parsed JSON data, checked as from_json checks it."""
        n = data["n"]
        if type(n) is not int:
            raise GraphError("n must be an integer")
        edges = data["edges"]
        for e in edges:
            u, v = e
            if type(u) is not int or type(v) is not int:
                raise GraphError(f"edge {e} has a non-integer endpoint")
            if u >= v:
                raise GraphError(f"edge {e} not in u<v form")
        g = Graph(n, edges)
        if g.m != len(edges):       # with u < v checked, only a repeat loses an edge
            seen = set()
            for e in edges:
                if tuple(e) in seen:
                    raise GraphError(f"duplicate edge {e}")
                seen.add(tuple(e))
        return g

    def __eq__(self, other):
        return (isinstance(other, Graph)
                and self.n == other.n and self.adj == other.adj)

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class Digraph:
    """Directed graph with out-neighbour sets; both uv and vu may be present."""

    __slots__ = ("n", "out")

    def __init__(self, n: int, arcs: Iterable[tuple] = ()):
        if n < 0:
            raise GraphError("negative vertex count")
        out = [set() for _ in range(n)]
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"arc ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at {u}")
            out[u].add(v)
        self.n = n
        self.out = tuple(frozenset(s) for s in out)

    @staticmethod
    def _from_out(out) -> "Digraph":
        """The digraph whose out-sets are `out`, a sequence of frozensets of
        ids in range(len(out)), none holding its own vertex.  Unchecked: for
        out-sets that the package has built itself."""
        d = Digraph.__new__(Digraph)
        d.n = len(out)
        d.out = tuple(out)
        return d

    def arcs(self) -> list:
        return [(u, v) for u, s in enumerate(self.out) for v in sorted(s)]

    @property
    def m(self) -> int:
        return sum(map(len, self.out))

    def indegree(self, v: int) -> int:
        return sum(v in s for s in self.out)

    def max_indegree(self) -> int:
        counts = [0] * self.n
        for s in self.out:
            for h in s:
                counts[h] += 1
        return max(counts, default=0)

    def has_arc(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self.out[u]

    def to_data(self) -> dict:
        return {"n": self.n, "arcs": self.arcs()}

    def to_json(self) -> str:
        return json.dumps(self.to_data(), check_circular=False)

    @staticmethod
    def from_json(text: str) -> "Digraph":
        return Digraph.from_data(json.loads(text))

    @staticmethod
    def from_data(data) -> "Digraph":
        """The digraph in parsed JSON data, checked as from_json checks it."""
        if type(data["n"]) is not int:
            raise GraphError("n must be an integer")
        arcs = data["arcs"]
        if not all(type(x) is int for a in arcs for x in a):
            raise GraphError("arc endpoints must be integers")
        d = Digraph(data["n"], arcs)
        if d.m != len(arcs):
            raise GraphError("duplicate arcs")
        return d

    def __eq__(self, other):
        return (isinstance(other, Digraph)
                and self.n == other.n and self.out == other.out)

    def __hash__(self):
        return hash((self.n, self.out))

    def __repr__(self):
        return f"Digraph(n={self.n}, arcs={self.m})"


def bidirect(g: Graph) -> Digraph:
    """Both orientations of every edge."""
    return Digraph._from_out(g.adj)


def underlying(d: Digraph) -> Graph:
    return Graph(d.n, [(u, v) for u, s in enumerate(d.out) for v in s
                       if u < v or u not in d.out[v]])


class VertexPartition:
    """Partition of 0..n-1 into non-empty parts."""

    __slots__ = ("n", "parts", "part_of")

    def __init__(self, n: int, parts: Iterable):
        parts = tuple(frozenset(p) for p in parts)
        part_of = [-1] * n
        for i, p in enumerate(parts):
            if not p:
                raise GraphError("empty part")
            for v in p:
                if type(v) is not int:      # True == 1 would index part_of
                    raise GraphError(f"vertex {v!r} is not an integer")
                if not (0 <= v < n):
                    raise GraphError(f"vertex {v} out of range")
                if part_of[v] != -1:
                    raise GraphError(f"vertex {v} in two parts")
                part_of[v] = i
        if any(i == -1 for i in part_of):
            missing = part_of.index(-1)
            raise GraphError(f"vertex {missing} not covered")
        self.n = n
        self.parts = parts
        self.part_of = tuple(part_of)

    def __repr__(self):
        return f"VertexPartition(n={self.n}, parts={len(self.parts)})"


# -- operations ----------------------------------------------------------

def complete_join(*graphs: Graph) -> Graph:
    """The join of graphs: their disjoint union plus every edge between two of
    them.  Ids run through the graphs in order; the join of k copies of
    Graph(1) is K_k."""
    n = sum(g.n for g in graphs)
    adj, start = [], 0
    for g in graphs:
        end = start + g.n
        others = frozenset(range(start)).union(range(end, n))
        # the first graph's sets need no shift: a frozenset union runs in C
        nbrs = g.adj if start == 0 else [[v + start for v in s] for s in g.adj]
        adj += [others.union(s) for s in nbrs]
        start = end
    return Graph._from_adj(adj)


def apex(g: Graph) -> Graph:
    """g plus one dominant vertex with id g.n."""
    return complete_join(g, Graph(1))


def quotient(g: Graph, p: VertexPartition) -> Graph:
    """One vertex per part; cross parts adjacent iff some cross edge exists."""
    if p.n != g.n:
        raise GraphError("partition size mismatch")
    edges = set()
    for u in range(g.n):
        for v in g.adj[u]:
            pu, pv = p.part_of[u], p.part_of[v]
            if pu != pv:
                edges.add((min(pu, pv), max(pu, pv)))
    return Graph(len(p.parts), edges)


def clique_paste(g1: Graph, c1, g2: Graph, c2) -> Graph:
    """Paste g1 and g2 by identifying c2[i] with c1[i].

    Id layout: g1's vertices keep their ids; g2's non-clique vertices follow
    in ascending original id order.
    """
    c1, c2 = list(c1), list(c2)
    if len(c1) != len(c2):
        raise GraphError("clique size mismatch")
    if len(set(c1)) != len(c1) or len(set(c2)) != len(c2):
        raise GraphError("repeated clique vertex")
    if not all(0 <= v < g.n for g, c in ((g1, c1), (g2, c2)) for v in c):
        raise GraphError("clique vertex out of range")
    if not g1.is_clique(c1):
        raise GraphError("c1 is not a clique in g1")
    if not g2.is_clique(c2):
        raise GraphError("c2 is not a clique in g2")
    remap = {}
    nxt = g1.n
    for v in range(g2.n):
        if v in c2:
            remap[v] = c1[c2.index(v)]
        else:
            remap[v] = nxt
            nxt += 1
    edges = set(g1.edges())
    for u, v in g2.edges():
        a, b = remap[u], remap[v]
        edges.add((min(a, b), max(a, b)))
    return Graph(nxt, edges)


def subgraph_contained(h: Graph, g: Graph) -> Optional[dict]:
    """Injective map phi with uv in E(h) => phi(u)phi(v) in E(g), or None.

    Backtracking over guest vertices in descending-degree order (ties by id),
    pruning candidates by degree and adjacency to already-mapped neighbours.
    Deterministic: host candidates are tried in ascending id.
    """
    if h.n > g.n:
        return None
    order = sorted(range(h.n), key=lambda v: (-h.degree(v), v))
    pos = {v: i for i, v in enumerate(order)}
    # mapped neighbours of each guest vertex, precomputed per search depth
    mapped_nbrs = [[w for w in h.adj[v] if pos[w] < pos[v]] for v in order]

    assignment = {}
    used = set()

    def backtrack(depth: int) -> bool:
        if depth == len(order):
            return True
        v = order[depth]
        need = mapped_nbrs[depth]
        if need:
            # candidates: common host neighbours of images of mapped guest nbrs
            cands = set(g.adj[assignment[need[0]]])
            for w in need[1:]:
                cands &= g.adj[assignment[w]]
            cands = sorted(cands)
        else:
            cands = range(g.n)
        dv = h.degree(v)
        for x in cands:
            if x in used or g.degree(x) < dv:
                continue
            assignment[v] = x
            used.add(x)
            if backtrack(depth + 1):
                return True
            del assignment[v]
            used.remove(x)
        return False

    if backtrack(0):
        return dict(sorted(assignment.items()))
    return None
