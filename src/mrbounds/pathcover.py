"""Minimum vertex-disjoint induced path covers of forests.

For a forest, an induced path cover and a plain path cover coincide, and a
single greedy bottom-up pass per tree is exact.  Small brute-force variants
are kept alongside as cross-check oracles for arbitrary graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .core import (
    Graph,
    _bits,
    _component_masks,
    _edge_count,
)

__all__ = [
    "PathCover",
    "PathCoverError",
    "induced_path_cover_bruteforce",
    "min_path_cover",
    "path_cover_bruteforce",
]

BRUTE_PATH_COVER_MAX_N = 12
BRUTE_INDUCED_COVER_MAX_N = 8


class PathCoverError(ValueError):
    """Input outside the scope of a cover routine (cycles, size caps)."""


@dataclass(frozen=True)
class PathCover:
    """A partition of the vertices into vertex-disjoint paths.

    ``paths`` lists each path as a vertex tuple in traversal order; isolated
    vertices appear as length-1 tuples.  ``junctions`` records, for covers
    produced by :func:`min_path_cover`, the vertices where two child arms
    were merged; deleting them always leaves a linear forest.
    """

    paths: tuple[tuple[int, ...], ...]
    junctions: frozenset[int] = field(default_factory=frozenset)

    @property
    def size(self) -> int:
        return len(self.paths)

    def covered(self) -> frozenset[int]:
        return frozenset(v for p in self.paths for v in p)


def _validate_cover(g: Graph, cover: PathCover) -> None:
    seen = set()
    for path in cover.paths:
        for v in path:
            if v in seen:
                raise PathCoverError(f"vertex {v} covered twice")
            seen.add(v)
        for a, b in zip(path, path[1:]):
            if not g.has_edge(a, b):
                raise PathCoverError(f"({a}, {b}) is not an edge")
    if len(seen) != g.n:
        raise PathCoverError("cover misses vertices")


def _rooted(adj, comp: int) -> tuple[dict[int, int], list[int]]:
    """Parent map and DFS preorder of the tree on ``comp``, rooted at its
    lowest label (first in the order, parent -1).  Adjacency is intersected
    with ``comp``, so ``adj`` may belong to a supergraph.
    """
    root = (comp & -comp).bit_length() - 1
    parent = {root: -1}
    order = [root]
    stack = [root]
    while stack:
        v = stack.pop()
        for w in _bits(adj[v] & comp):
            if w not in parent:
                parent[w] = v
                order.append(w)
                stack.append(w)
    return parent, order


def min_path_cover(g: Graph) -> PathCover:
    """Exact minimum path cover of a forest, with junction bookkeeping.

    Each tree is rooted at its smallest label and processed leaves-first.
    A vertex with no extendable child starts a new open path; with one it
    extends that path; with two or more it joins the two smallest-label
    child paths through itself (becoming a junction) and the result is
    closed.  Raises :class:`PathCoverError` on graphs with cycles.
    """
    adj = g.adj
    full = (1 << g.n) - 1
    paths: list[tuple[int, ...]] = []
    junctions: set[int] = set()
    for comp in _component_masks(adj, full):
        nv = comp.bit_count()
        if _edge_count(adj, comp) != nv - 1:
            raise PathCoverError("graph has a cycle; minimum path cover needs a forest")
        parent, order = _rooted(adj, comp)
        # open[v]: the still-extendable path ending at v, built child-first
        open_at: dict[int, list[int]] = {}
        for v in reversed(order):
            arms = sorted(w for w in _bits(adj[v]) if w != parent[v] and w in open_at)
            if not arms:
                open_at[v] = [v]
            elif len(arms) == 1:
                path = open_at.pop(arms[0])
                path.append(v)
                open_at[v] = path
            else:
                first = open_at.pop(arms[0])
                second = open_at.pop(arms[1])
                first.append(v)
                first.extend(reversed(second))
                paths.append(tuple(first))
                junctions.add(v)
                for w in arms[2:]:
                    paths.append(tuple(open_at.pop(w)))
        if order[0] in open_at:
            paths.append(tuple(open_at.pop(order[0])))
        paths.extend(tuple(p) for p in open_at.values())
    cover = PathCover(tuple(paths), frozenset(junctions))
    _validate_cover(g, cover)
    return cover


def _tree_cover_count(adj, comp: int) -> int:
    """Size of the minimum path cover of one tree component, count only.

    ``comp`` masks the tree's vertices; adjacency is intersected with it, so
    ``adj`` may belong to a supergraph.
    """
    parent, order = _rooted(adj, comp)
    count = 0
    open_end = set()
    for v in reversed(order):
        arms = 0
        for w in _bits(adj[v] & comp):
            if w != parent[v] and w in open_end:
                open_end.discard(w)
                arms += 1
        if arms == 0:
            count += 1
            open_end.add(v)
        elif arms == 1:
            open_end.add(v)
        else:
            count -= 1  # two arms merge through v and the path closes
    return count


def path_cover_bruteforce(g: Graph) -> PathCover:
    """Minimum path cover of any graph up to 12 vertices, by edge subsets.

    Searches subsets of the edge set whose span is a linear forest, keeping
    the one using the most edges (paths = n - edges used).  Exponential;
    meant as an oracle for the greedy routine and for non-forest inputs.
    """
    if g.n > BRUTE_PATH_COVER_MAX_N:
        raise PathCoverError(f"brute-force path cover capped at n={BRUTE_PATH_COVER_MAX_N}")
    edges = sorted(g.edges)
    best: list[tuple[int, int]] = []
    # a linear forest on n vertices has at most n - 1 edges
    for k in range(min(len(edges), max(g.n - 1, 0)), 0, -1):
        if k <= len(best):
            break
        for sub in itertools.combinations(edges, k):
            deg = [0] * g.n
            ok = True
            for u, v in sub:
                deg[u] += 1
                deg[v] += 1
                if deg[u] > 2 or deg[v] > 2:
                    ok = False
                    break
            if not ok:
                continue
            sg = Graph(g.n, frozenset(sub))
            if _is_linear_forest_graph(sg):
                best = list(sub)
                break
    return _paths_from_linear_edges(g.n, best)


def _is_linear_forest_graph(g: Graph) -> bool:
    adj = g.adj
    full = (1 << g.n) - 1
    comps = _component_masks(adj, full)
    if _edge_count(adj, full) != g.n - len(comps):
        return False
    return all(adj[v].bit_count() <= 2 for v in range(g.n))


def _paths_from_linear_edges(n: int, edges) -> PathCover:
    sg = Graph.from_edges(n, edges)
    adj = sg.adj
    paths = []
    for comp in _component_masks(adj, (1 << n) - 1):
        vs = list(_bits(comp))
        ends = [v for v in vs if (adj[v] & comp).bit_count() <= 1]
        start = min(ends)
        path = [start]
        prev = -1
        while True:
            nxt = [w for w in _bits(adj[path[-1]] & comp) if w != prev]
            if not nxt:
                break
            prev = path[-1]
            path.append(nxt[0])
        paths.append(tuple(path))
    return PathCover(tuple(paths))


def induced_path_cover_bruteforce(g: Graph) -> PathCover:
    """Minimum cover by vertex-disjoint *induced* paths, up to 8 vertices.

    Subset dynamic program over vertex masks: cost[S] = fewest induced paths
    partitioning S.  Exact on any graph; exponential in n.
    """
    if g.n > BRUTE_INDUCED_COVER_MAX_N:
        raise PathCoverError(f"brute-force induced cover capped at n={BRUTE_INDUCED_COVER_MAX_N}")
    n = g.n
    adj = g.adj
    full = (1 << n) - 1
    # enumerate all induced paths as (mask, vertex order)
    induced: dict[int, tuple[int, ...]] = {}
    for v in range(n):
        induced[1 << v] = (v,)
    frontier = [((1 << v), (v,)) for v in range(n)]
    while frontier:
        nxt = []
        for mask, path in frontier:
            tail = path[-1]
            for w in _bits(adj[tail] & ~mask):
                wm = mask | 1 << w
                # keep the path induced: w may touch only the current tail
                if adj[w] & mask != 1 << tail:
                    continue
                if wm not in induced:
                    induced[wm] = path + (w,)
                nxt.append((wm, path + (w,)))
        frontier = nxt
    masks = sorted(induced)
    INF = n + 1
    cost = [INF] * (full + 1)
    choice: list[int] = [0] * (full + 1)
    cost[0] = 0
    for s in range(1, full + 1):
        low = s & -s
        # only consider pieces containing the lowest vertex of s
        sub = s
        while sub:
            if sub & low and sub in induced:
                c = cost[s & ~sub] + 1
                if c < cost[s]:
                    cost[s] = c
                    choice[s] = sub
            sub = (sub - 1) & s
    paths = []
    s = full
    while s:
        paths.append(induced[choice[s]])
        s &= ~choice[s]
    return PathCover(tuple(reversed(paths)))
