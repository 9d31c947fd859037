"""Minimum vertex-disjoint induced path covers of forests.

For a forest, an induced path cover and a plain path cover coincide, and a
single greedy leaves-first pass is exact.  It runs over the levels of
core._level_bfs, the one component traversal, with two consumers:
_forest_cover counts the cover of an induced subforest for the deletion
searches, and min_path_cover builds its paths and junctions.  Small
brute-force variants are kept alongside as cross-check oracles for
arbitrary graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .core import Graph, _bits, _is_forest_mask, _level_bfs

__all__ = [
    "PathCover",
    "PathCoverError",
    "induced_path_cover_bruteforce",
    "min_path_cover",
    "path_cover_bruteforce",
]

BRUTE_PATH_COVER_MAX_N = 12
BRUTE_PATH_COVER_MAX_TRIES = 1 << 21  # edge subsets; K9 takes 1,102,268
BRUTE_INDUCED_COVER_MAX_N = 8


class PathCoverError(ValueError):
    """Input outside the scope of a cover routine (cycles, size caps)."""


@dataclass(frozen=True)
class PathCover:
    """A partition of the vertices into vertex-disjoint paths.

    ``paths`` lists the paths in ascending order of their least vertex, each
    as a vertex tuple from one end to the other; isolated vertices appear as
    length-1 tuples.  ``junctions`` records, for covers produced by
    :func:`min_path_cover`, the vertices where two child arms were merged;
    deleting them always leaves a linear forest.
    """

    paths: tuple[tuple[int, ...], ...]
    junctions: frozenset[int] = field(default_factory=frozenset)

    @property
    def size(self) -> int:
        return len(self.paths)


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


def min_path_cover(g: Graph) -> PathCover:
    """Exact minimum path cover of a forest, with junction bookkeeping.

    Runs the greedy over the levels of _level_bfs, deepest first.  A vertex
    with no open child path starts a new open path; with one it extends
    that path; with two or more it joins the two smallest-label child paths
    through itself (becoming a junction), the result is closed, and any
    further child paths close as they are.  Raises :class:`PathCoverError`
    on graphs with cycles.
    """
    adj = g.adj
    levels, comps = _level_bfs(adj, (1 << g.n) - 1)
    if g.m != g.n - len(comps):
        raise PathCoverError("graph has a cycle; minimum path cover needs a forest")
    paths: list[tuple[int, ...]] = []
    junctions: set[int] = set()
    # open_at[v]: the still-extendable path ending at v, built child-first
    open_at: dict[int, list[int]] = {}
    for level in reversed(levels):
        for v in _bits(level):
            arms = [w for w in _bits(adj[v]) if w in open_at]
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
    # each vertex took in all its open children, so only roots are left open
    paths.extend(map(tuple, open_at.values()))
    cover = PathCover(tuple(sorted(paths, key=min)), frozenset(junctions))
    _validate_cover(g, cover)
    return cover


def _forest_cover(adj, mask: int, edges: int):
    """Minimum path cover size of G[mask] if it is a forest, else None.

    ``edges`` is e(G[mask]), which the caller already knows.  Counts the
    greedy of min_path_cover over the same levels, with one mask of open
    path ends in place of the paths.  ``adj`` may belong to a supergraph.
    This is the deletion walk's count, run once per kept set, so the forest
    test is written out here rather than called through a shared helper,
    whose extra call per kept set shows in the walk's time.  The loop takes
    the lowest bit of a level inline, as _level_bfs does.
    """
    levels, comps = _level_bfs(adj, mask)
    if edges != mask.bit_count() - len(comps):
        return None
    count = 0
    open_ends = 0
    for level in reversed(levels):
        while level:
            low = level & -level  # the bit of v
            level ^= low
            arms = (adj[low.bit_length() - 1] & open_ends).bit_count()
            if arms == 0:  # v starts a path
                count += 1
                open_ends |= low
            elif arms == 1:  # v extends its child's path
                open_ends |= low
            else:  # two arms merge through v and the path closes
                count -= 1
    return count


def path_cover_bruteforce(g: Graph) -> PathCover:
    """Minimum path cover of any graph up to 12 vertices, by edge subsets.

    Searches subsets of the edge set whose span is a linear forest, keeping
    the one using the most edges (paths = n - edges used).  Exponential;
    meant as an oracle for the greedy routine and for non-forest inputs.
    Raises PathCoverError past BRUTE_PATH_COVER_MAX_TRIES edge subsets.
    """
    if g.n > BRUTE_PATH_COVER_MAX_N:
        raise PathCoverError(f"brute-force path cover capped at n={BRUTE_PATH_COVER_MAX_N}")
    n = g.n
    full = (1 << n) - 1
    edges = sorted(g.edges)
    # a linear forest on n vertices has at most n - 1 edges
    sizes = range(min(len(edges), max(n - 1, 0)), 0, -1)
    subsets = itertools.chain.from_iterable(itertools.combinations(edges, k) for k in sizes)
    for tries, sub in enumerate(subsets, 1):
        if tries > BRUTE_PATH_COVER_MAX_TRIES:
            raise PathCoverError(f"brute-force path cover tried {BRUTE_PATH_COVER_MAX_TRIES} edge subsets")
        deg = [0] * n
        for u, v in sub:
            deg[u] += 1
            deg[v] += 1
            if deg[u] > 2 or deg[v] > 2:
                break
        else:
            # masks only for the subsets within the degree cap: most
            # subsets fail it, and a list of counts is cheaper to test
            adj = [0] * n
            for u, v in sub:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            if _is_forest_mask(adj, full):
                return _linear_forest_paths(adj)
    return _linear_forest_paths([0] * n)


def _linear_forest_paths(adj) -> PathCover:
    """The paths of the linear forest with adjacency masks ``adj``, each
    from its lower end, by ascending least vertex."""
    paths = []
    for comp in _level_bfs(adj, (1 << len(adj)) - 1)[1]:
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
    partitioning S.  Exact on any graph; exponential in n.  Some piece holds
    the lowest vertex of S, so S tries only the induced paths whose lowest
    vertex is S's, indexed by that vertex, in descending mask order: the
    first strictly cheapest one is the largest mask among the cheapest, as
    in a descending walk over all submasks of S.
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
    by_low: list[list[int]] = [[] for _ in range(n)]  # by lowest vertex, descending
    for mask in sorted(induced, reverse=True):
        by_low[(mask & -mask).bit_length() - 1].append(mask)
    INF = n + 1
    cost = [INF] * (full + 1)
    choice: list[int] = [0] * (full + 1)
    cost[0] = 0
    for s in range(1, full + 1):
        best = INF
        for sub in by_low[(s & -s).bit_length() - 1]:
            if sub & s == sub:
                c = cost[s ^ sub] + 1
                if c < best:
                    best = c
                    choice[s] = sub
        cost[s] = best
    paths = []
    s = full
    while s:
        paths.append(induced[choice[s]])
        s &= ~choice[s]
    return PathCover(tuple(paths))
