"""Immutable labeled graphs with bitmask adjacency, graph6 io, named families.

Vertices are always 0..n-1.  Adjacency lives in a tuple of int bitmasks so that
deletion searches, traversals, and subgraph tests stay in plain integer land.
One level BFS (_level_bfs) is the only component traversal: the forest test,
classify, each search's split into components and the greedy forest path
cover all read its component masks or its levels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "FamilyError",
    "ForestDecomposition",
    "Graph",
    "Graph6Error",
    "classify",
    "complete_graph",
    "cycle_graph",
    "delete_vertices",
    "emit_graph6",
    "generalized_star",
    "generate_family",
    "parse_graph6",
    "path_graph",
    "star_graph",
    "sun_graph",
    "unicyclic_family",
    "wheel_graph",
]

GRAPH6_HEADER = b">>graph6<<"
GRAPH6_MAX_N = 62

# A search refuses, before any work, a component on which it could visit more
# vertex sets than this.
SEARCH_MAX_SETS = 1 << 16


def _check_work(nc: int, work: int, sets: str, error: type[ValueError]) -> None:
    if work > SEARCH_MAX_SETS:
        raise error(f"{nc}-vertex component needs {work} {sets}, over 2^{SEARCH_MAX_SETS.bit_length() - 1}")


class Graph6Error(ValueError):
    """Malformed graph6 input or unsupported size.

    ``offset`` is the position of the offending byte in the input record,
    counting from the start of the text as given (header included).
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class FamilyError(ValueError):
    """Unknown family kind or out-of-range family parameter."""


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices 0..n-1.

    ``edges`` holds sorted pairs (i, j) with i < j; no loops, no multi-edges.
    Each endpoint is an int (a bool is not), as in _vertex_set.  Construct
    through :meth:`from_edges`, which normalizes and validates.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        n = self.n
        if type(n) is not int or n < 0:
            raise ValueError(f"vertex count {n!r} is not a non-negative int")
        for u, v in self.edges:
            if not (type(u) is int is type(v) and 0 <= u < v < n):
                raise ValueError(f"edge ({u!r}, {v!r}) is not a sorted pair of ints in 0..{n - 1}")

    @staticmethod
    def from_edges(n: int, edges=()) -> "Graph":
        """Graph on 0..n-1 from pairs in either order; the range of each
        endpoint, like ``n`` itself, is checked by the constructor."""
        norm = set()
        for u, v in edges:
            if not (type(u) is int is type(v)):
                raise ValueError(f"edge ({u!r}, {v!r}) has an endpoint that is not an int")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            norm.add((u, v) if u < v else (v, u))
        return Graph(n, frozenset(norm))

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """Bitmask neighborhoods: bit v of adj[u] is set iff {u, v} is an edge."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.adj[v]))

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edges

    def graph6(self) -> str:
        return emit_graph6(self).decode("ascii")


def _enumerated_graph(n: int, edges: frozenset[tuple[int, int]]) -> Graph:
    """Graph(n, edges) without __post_init__'s per-edge check, for
    reports.enumerate_small_graphs only.  The check always holds there: n is
    an int in 0..7 checked once per call, and each edge set is a union of
    that function's own int pairs (i, j), 0 <= i < j < n.
    """
    g = object.__new__(Graph)
    d = g.__dict__
    d["n"] = n
    d["edges"] = edges
    return g


# ---------------------------------------------------------------------------
# bitmask helpers (shared by the other modules; masks index vertices 0..n-1)

def _bits(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def _level_bfs(adj, mask: int) -> tuple[list[int], list[int]]:
    """Level BFS of G[mask], one per component from its lowest vertex.

    Returns (levels, comps): levels[d] holds the vertices at distance d from
    the lowest vertex of their component, over all components, and comps
    lists the component masks by ascending lowest vertex, so G[mask] is a
    forest iff e(G[mask]) = |mask| - len(comps).  In a forest every edge
    joins adjacent levels, so taken deepest level first, the vertices
    already seen next to v are exactly its children: its parent lies one
    level up, and no edge stays within a level.  That is the leaves-first
    order of the greedy path cover.  ``adj`` may belong to a supergraph:
    the BFS intersects it with ``mask``.  The loop takes the lowest bit of a
    mask inline, as a _bits generator per frontier costs more than the BFS
    itself on small masks.
    """
    levels: list[int] = []
    comps: list[int] = []
    rest = mask
    while rest:
        before = rest
        frontier = rest & -rest
        rest ^= frontier
        depth = 0
        while frontier:
            if depth < len(levels):
                levels[depth] |= frontier
            else:
                levels.append(frontier)
            grown = 0
            x = frontier
            while x:
                low = x & -x
                grown |= adj[low.bit_length() - 1]
                x ^= low
            frontier = grown & rest
            rest ^= frontier
            depth += 1
        comps.append(before ^ rest)
    return levels, comps


def _edge_count(adj, mask: int) -> int:
    total = 0
    for v in _bits(mask):
        total += (adj[v] & mask).bit_count()
    return total // 2


def _is_forest_mask(adj, mask: int) -> bool:
    # acyclic iff edges = vertices - components
    return _edge_count(adj, mask) == mask.bit_count() - len(_level_bfs(adj, mask)[1])


def _independence_number(adj, mask: int) -> int:
    """Independence number alpha of G[mask], by branch and reduce.

    A vertex v of degree <= 1 is taken outright: a maximum independent set
    without v holds v's only neighbour u (else adding v grows it), and
    swapping u for v keeps it independent.  Otherwise the search branches on
    a vertex of largest degree, which is either left out or taken with its
    neighbours removed; each branch drops at least one or three vertices, so
    the search tree has O(1.47^n) nodes.
    """
    if not mask:
        return 0
    top = top_deg = -1
    for v in _bits(mask):
        d = (adj[v] & mask).bit_count()
        if d <= 1:
            return 1 + _independence_number(adj, mask & ~adj[v] & ~(1 << v))
        if d > top_deg:
            top, top_deg = v, d
    rest = mask & ~(1 << top)
    return max(_independence_number(adj, rest), 1 + _independence_number(adj, rest & ~adj[top]))


# ---------------------------------------------------------------------------
# structure classification

@dataclass(frozen=True)
class ForestDecomposition:
    """Connected components of a graph with a per-component shape tag.

    ``kinds[i]`` is "path" (connected, acyclic, max degree <= 2), "tree"
    (acyclic but not a path), or "cyclic".  Components keep original labels.
    """

    components: tuple[tuple[int, ...], ...]
    kinds: tuple[str, ...]

    @property
    def is_forest(self) -> bool:
        return "cyclic" not in self.kinds

    @property
    def is_linear_forest(self) -> bool:
        return all(k == "path" for k in self.kinds)

    @property
    def p(self) -> int:
        return len(self.components)


def _decomposition_of_mask(adj, mask: int) -> ForestDecomposition:
    comps = []
    kinds = []
    for cm in _level_bfs(adj, mask)[1]:
        vs = tuple(_bits(cm))
        e = _edge_count(adj, cm)
        if e >= len(vs):
            kind = "cyclic"
        elif all((adj[v] & cm).bit_count() <= 2 for v in vs):
            kind = "path"
        else:
            kind = "tree"
        comps.append(vs)
        kinds.append(kind)
    return ForestDecomposition(tuple(comps), tuple(kinds))


def classify(g: Graph) -> ForestDecomposition:
    """Split ``g`` into connected components tagged path / tree / cyclic."""
    return _decomposition_of_mask(g.adj, (1 << g.n) - 1)


def _vertex_set(g: Graph, vertices, error: type[ValueError] = ValueError) -> frozenset[int]:
    """``vertices`` as a frozenset of g's vertices.  Each must be an int (a
    bool is not) in 0..n-1; any other raises ``error``."""
    s = frozenset(vertices)
    for v in s:
        if type(v) is not int or not 0 <= v < g.n:
            raise error(f"vertex {v!r} is not an int in 0..{g.n - 1}")
    return s


def _isolate(g: Graph, s) -> Graph:
    """G - S on g's own vertex set: each vertex of ``s`` is left isolated."""
    s = _vertex_set(g, s)
    return Graph(g.n, frozenset(e for e in g.edges if e[0] not in s and e[1] not in s))


def delete_vertices(g: Graph, s) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on V minus ``s``, plus the label map back to ``g``.

    Returns (subgraph, labels) where labels[i] is the original name of the
    subgraph's vertex i; the map is the order-preserving bijection.
    """
    s = frozenset(s)
    labels = tuple(v for v in range(g.n) if v not in s)
    index = {v: i for i, v in enumerate(labels)}
    return Graph.from_edges(len(labels), [(index[u], index[v]) for u, v in _isolate(g, s).edges]), labels


# ---------------------------------------------------------------------------
# graph6 interchange format
#
# Layout: byte n+63 for n <= 62, then the upper triangle of the adjacency
# matrix read column by column (x(0,1), x(0,2), x(1,2), x(0,3), ...) packed
# big-endian into 6-bit groups, zero padded, each group emitted as group+63.

def emit_graph6(g: Graph) -> bytes:
    """Canonical graph6 encoding (no header, zero padding)."""
    if g.n > GRAPH6_MAX_N:
        raise Graph6Error(f"n={g.n} exceeds the supported graph6 size {GRAPH6_MAX_N}")
    out = [g.n + 63]
    acc = 0
    nbits = 0
    adj = g.adj
    for j in range(1, g.n):
        col = adj[j]
        for i in range(j):
            acc = (acc << 1) | (col >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = 0
                nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out)


def parse_graph6(text: bytes | str) -> Graph:
    """Decode one graph6 record, optionally prefixed by ">>graph6<<".

    Raises :class:`Graph6Error` naming the byte offset for malformed length,
    bytes outside 63..126 (a non-ASCII character of a str among them), and
    nonzero padding bits.  Trailing newlines are tolerated.
    """
    if isinstance(text, str) and not text.isascii():
        bad = next(i for i, c in enumerate(text) if not c.isascii())
        raise Graph6Error(f"non-ASCII character {text[bad]!r}", offset=bad)
    data = text.encode("ascii") if isinstance(text, str) else bytes(text)
    base = 0
    if data.startswith(GRAPH6_HEADER):
        base = len(GRAPH6_HEADER)
        data = data[base:]
    data = data.rstrip(b"\r\n")
    if not data:
        raise Graph6Error("empty graph6 record", offset=base)
    first = data[0]
    if first == 126:
        raise Graph6Error("multi-byte vertex counts (n > 62) are not supported", offset=base)
    if not 63 <= first <= 125:
        raise Graph6Error(f"vertex-count byte {first} outside 63..125", offset=base)
    n = first - 63
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    body = data[1:]
    if len(body) != expected:
        raise Graph6Error(
            f"expected {expected} adjacency bytes for n={n}, got {len(body)}",
            offset=base + 1 + min(len(body), expected),
        )
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    edges = []
    pos = 0
    for k, byte in enumerate(body):
        if not 63 <= byte <= 126:
            raise Graph6Error(f"adjacency byte {byte} outside 63..126", offset=base + 1 + k)
        group = byte - 63
        for shift in range(5, -1, -1):
            bit = group >> shift & 1
            if pos < nbits:
                if bit:
                    edges.append(pairs[pos])
            elif bit:
                raise Graph6Error("nonzero padding bit", offset=base + 1 + k)
            pos += 1
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# named families
#
# Vertex numbering conventions are fixed so witness sets are reproducible:
# stars have center 0; wheels have the hub last; suns put the pendant of
# cycle vertex i at n+i; generalized stars chain each leg consecutively.

def _check_size(kind: str, name: str, value, least: int) -> None:
    """FamilyError unless ``value`` is an int (a bool is not), as in
    Graph, and at least ``least``."""
    if type(value) is not int or value < least:
        raise FamilyError(f"{kind} needs an int {name} >= {least}, got {value!r}")


def path_graph(n: int) -> Graph:
    _check_size("path", "n", n, 0)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    _check_size("cycle", "n", n, 3)
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """K_{1,n-1} with center 0."""
    _check_size("star", "n", n, 2)
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    _check_size("complete graph", "n", n, 0)
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def wheel_graph(n: int) -> Graph:
    """Cycle on 0..n-2 plus a dominating hub n-1."""
    _check_size("wheel", "n", n, 4)
    rim = n - 1
    edges = [(i, (i + 1) % rim) for i in range(rim)]
    edges += [(i, rim) for i in range(rim)]
    return Graph.from_edges(n, edges)

def sun_graph(n: int) -> Graph:
    """The n-sun: cycle 0..n-1 with pendant n+i attached to i (2n vertices)."""
    _check_size("sun", "n", n, 3)
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return Graph.from_edges(2 * n, edges)


def generalized_star(legs: int = 3, leg_length: int = 2) -> Graph:
    """Center 0 with ``legs`` paths of ``leg_length`` edges chained off it."""
    _check_size("generalized star", "legs", legs, 1)
    _check_size("generalized star", "leg_length", leg_length, 1)
    edges = []
    v = 1
    for _ in range(legs):
        prev = 0
        for _ in range(leg_length):
            edges.append((prev, v))
            prev = v
            v += 1
    return Graph.from_edges(v, edges)


def unicyclic_family(path_length: int = 5, chord_path_length: int = 2) -> Graph:
    """Path 0..p-1 with an extra path of given edge length joining vertices 1 and 3.

    The smallest member (p=5, chord 2) is the 6-vertex unicyclic graph used
    throughout the test corpus.
    """
    p, c = path_length, chord_path_length
    _check_size("unicyclic family", "path_length", p, 5)
    _check_size("unicyclic family", "chord_path_length", c, 2)
    edges = [(i, i + 1) for i in range(p - 1)]
    prev = 1
    for k in range(c - 1):
        edges.append((prev, p + k))
        prev = p + k
    edges.append((prev, 3))
    return Graph.from_edges(p + c - 1, edges)


# Fixed example graphs addressable through generate_family by their CLI kind.
_FIXED_EXAMPLES: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    # 6-vertex unicyclic reference graph: P_5 plus a 2-edge chord path over
    # the second and fourth vertices (= unicyclic_family(5, 2))
    "fig1": (6, ((0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (3, 5))),
    # 6-vertex H-shaped tree: two P_3 centers joined by an edge
    "fig3": (6, ((0, 1), (1, 2), (1, 4), (3, 4), (4, 5))),
    # 8 vertices, single 4-cycle 1-2-5-4 with a pendant path and pendants
    "fig4": (8, ((0, 1), (1, 2), (2, 6), (1, 4), (2, 5), (3, 4), (4, 5), (5, 7))),
}

_PARAMETRIC_KINDS = {
    "path": path_graph,
    "cycle": cycle_graph,
    "star": star_graph,
    "wheel": wheel_graph,
    "sun": sun_graph,
    "complete": complete_graph,
}

# Kinds built from keyword parameters: (builder, its keyword names, the one
# that n sets, if any).  A keyword left out takes the builder's default.
_KEYWORD_KINDS = {
    "genstar": (generalized_star, ("legs", "leg_length"), None),
    "unicyclic": (unicyclic_family, ("path_length", "chord_path_length"), "path_length"),
}

# Every kind generate_family builds, in the order of the CLI's --kind choices.
_FAMILY_KINDS = (*_PARAMETRIC_KINDS, *_KEYWORD_KINDS, *_FIXED_EXAMPLES)


def generate_family(kind: str, n: int | None = None, **extra) -> Graph:
    """Build a member of a named family; the kinds (_FAMILY_KINDS) are the
    CLI's ``--kind`` choices.

    Kinds: path, cycle, star, wheel, sun, complete (all take ``n``);
    genstar (generalized_star; extras: legs, leg_length; ``n`` ignored);
    unicyclic (unicyclic_family; extras: path_length defaulting to ``n``,
    chord_path_length); fig1, fig3, fig4 (fixed, no extras).  An extra left
    out takes the builder's default.
    """
    if extra and (kind in _PARAMETRIC_KINDS or kind in _FIXED_EXAMPLES):
        raise FamilyError(f"kind {kind!r} takes no extra parameters")
    if kind in _PARAMETRIC_KINDS:
        if n is None:
            raise FamilyError(f"kind {kind!r} needs n")
        return _PARAMETRIC_KINDS[kind](n)
    if kind in _KEYWORD_KINDS:
        builder, names, from_n = _KEYWORD_KINDS[kind]
        unknown = sorted(extra.keys() - names)
        if unknown:
            raise FamilyError(f"unknown parameters {unknown} for {kind!r}")
        if from_n is not None and n is not None:
            extra.setdefault(from_n, n)
        return builder(**extra)
    if kind in _FIXED_EXAMPLES:
        size, edges = _FIXED_EXAMPLES[kind]
        return Graph.from_edges(size, edges)
    raise FamilyError(f"unknown family kind {kind!r}")
