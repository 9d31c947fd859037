"""Immutable labeled graphs held as edge masks, graph6 io, named families.

Vertices are always 0..n-1.  A graph is its edge mask (Graph.mask), and its
adjacency a tuple of int bitmasks, so that deletion searches, traversals, and
subgraph tests stay in plain integer land.
One level BFS (_level_bfs) is the only component traversal: the forest test,
classify, each search's split into components and the greedy forest path
cover all read its component masks or its levels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property

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


def _check_int(what: str, value, least: int, most: int | None = None,
               error: type[ValueError] = ValueError) -> None:
    """The int rule of every integer argument: raise ``error`` unless
    ``value`` is an int (a bool is not) in least..most, or at least
    ``least`` when ``most`` is None."""
    if type(value) is not int or value < least or most is not None and value > most:
        bounds = f"{what} >= {least}" if most is None else f"{least} <= {what} <= {most}"
        raise error(f"{what} is {value!r}, not an int with {bounds}")


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


@dataclass(frozen=True, init=False)
class Graph:
    """A simple undirected graph on vertices 0..n-1, held as its edge mask:
    bit k of ``mask`` is the k-th pair in (0, 1), (0, 2), ..., (1, 2), ...

    ``edges`` (sorted pairs (i, j), i < j) and ``adj`` are views of the mask.
    ``Graph(n, edges)`` checks ``n`` by the int rule (_check_int) and each
    edge as a sorted pair of ints (a bool is not) in 0..n-1; :meth:`from_edges`
    also takes pairs in either order.
    """

    n: int
    mask: int

    def __init__(self, n: int, edges) -> None:
        _check_int("vertex count", n, 0)
        mask = 0
        for u, v in edges:
            if not (type(u) is int is type(v) and 0 <= u < v < n):
                raise ValueError(f"edge ({u!r}, {v!r}) is not a sorted pair of ints in 0..{n - 1}")
            mask |= 1 << u * n - u * (u + 3) // 2 + v - 1  # row u starts at bit u n - u (u + 1) / 2
        self.__dict__.update(n=n, mask=mask)

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
        return Graph(n, norm)

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """Bitmask neighborhoods: bit v of adj[u] is set iff {u, v} is an edge."""
        n, rest = self.n, self.mask
        masks = [0] * n
        for u in range(n):
            above = (rest & (1 << n - 1 - u) - 1) << u + 1  # pairs (u, u + 1), ..., (u, n - 1)
            rest >>= n - 1 - u
            masks[u] |= above
            for v in _bits(above):
                masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for u, a in enumerate(self.adj) for v in _bits(a >> u + 1 << u + 1))

    @property
    def m(self) -> int:
        return self.mask.bit_count()

    def degree(self, v: int) -> int:
        _check_int("vertex", v, 0, self.n - 1)
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        _check_int("vertex", v, 0, self.n - 1)
        return tuple(_bits(self.adj[v]))

    def has_edge(self, u: int, v: int) -> bool:
        _check_int("vertex", u, 0, self.n - 1)
        _check_int("vertex", v, 0, self.n - 1)
        return bool(self.adj[u] >> v & 1)

    def graph6(self) -> str:
        return emit_graph6(self).decode("ascii")


def _unchecked_graph(n: int, mask: int) -> Graph:
    """The Graph with fields n and mask, unchecked, for callers that know n
    is an int >= 0 and mask is below 2^(n(n-1)/2): enumerate_small_graphs,
    which checks n once per call, and parse_graph6."""
    g = object.__new__(Graph)
    d = g.__dict__
    d["n"] = n
    d["mask"] = mask
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
    """``vertices`` as a frozenset of g's vertices, each an int in 0..n-1;
    any other raises ``error``."""
    s = frozenset(vertices)
    for v in s:
        _check_int("vertex", v, 0, g.n - 1, error)
    return s


def _isolate(g: Graph, s) -> Graph:
    """G - S on g's own vertex set: each vertex of ``s`` is left isolated."""
    s = _vertex_set(g, s)
    return Graph(g.n, [e for e in g.edges if e[0] not in s and e[1] not in s])


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
# That column order is not Graph.mask's row-major order; _graph6_layout maps
# one to the other, for the encoder and the decoder alike.

@cache
def _graph6_layout(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(order, shift) on n vertices, built on first use of each n.

    order[t] is the Graph.mask bit of the t-th graph6 adjacency bit: the
    t-th pair (i, j) column by column, which row-major order puts at
    i n - i (i + 3) / 2 + j - 1.  shift is its inverse: shift[k] is the
    place of mask bit k in the zero-padded adjacency bits read as one
    integer, the first bit highest.
    """
    order = tuple(i * n - i * (i + 3) // 2 + j - 1 for j in range(1, n) for i in range(j))
    padded = 6 * -(-len(order) // 6)  # the bits in whole 6-bit groups
    shift = [0] * len(order)
    for t, k in enumerate(order):
        shift[k] = padded - 1 - t
    return order, tuple(shift)


def emit_graph6(g: Graph) -> bytes:
    """Canonical graph6 encoding (no header, zero padding)."""
    if g.n > GRAPH6_MAX_N:
        raise Graph6Error(f"n={g.n} exceeds the supported graph6 size {GRAPH6_MAX_N}")
    order, shift = _graph6_layout(g.n)
    bits = 0
    rest = g.mask
    while rest:  # the lowest bit inline, as _level_bfs does
        low = rest & -rest
        bits |= 1 << shift[low.bit_length() - 1]
        rest ^= low
    groups = -(-len(order) // 6)
    return bytes([g.n + 63, *[(bits >> 6 * k & 63) + 63 for k in range(groups - 1, -1, -1)]])


def parse_graph6(text: bytes | str) -> Graph:
    """Decode one graph6 record, optionally prefixed by ">>graph6<<".

    Raises :class:`Graph6Error` naming the byte offset for malformed length,
    bytes outside 63..126 (a non-ASCII character of a str among them), and
    nonzero padding bits.  Trailing newlines are tolerated.  The adjacency
    bits go straight into the edge mask through _graph6_layout, and the Graph
    is built unchecked (_unchecked_graph): every pair is in range by
    construction.
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
    bits = 0  # the adjacency bits, the first one highest, then the padding
    for k, byte in enumerate(body):
        if not 63 <= byte <= 126:
            raise Graph6Error(f"adjacency byte {byte} outside 63..126", offset=base + 1 + k)
        bits = bits << 6 | byte - 63
    pad = 6 * expected - nbits  # all in the last byte
    if bits & (1 << pad) - 1:
        raise Graph6Error("nonzero padding bit", offset=base + expected)
    bits >>= pad
    order = _graph6_layout(n)[0]
    mask = 0
    for k in _bits(bits):  # bit k is adjacency bit nbits - 1 - k
        mask |= 1 << order[nbits - 1 - k]
    return _unchecked_graph(n, mask)


# ---------------------------------------------------------------------------
# named families
#
# Vertex numbering conventions are fixed so witness sets are reproducible:
# stars have center 0; wheels have the hub last; suns put the pendant of
# cycle vertex i at n+i; generalized stars chain each leg consecutively.

def path_graph(n: int) -> Graph:
    _check_int("n", n, 0, error=FamilyError)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    _check_int("n", n, 3, error=FamilyError)
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """K_{1,n-1} with center 0."""
    _check_int("n", n, 2, error=FamilyError)
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    _check_int("n", n, 0, error=FamilyError)
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def wheel_graph(n: int) -> Graph:
    """Cycle on 0..n-2 plus a dominating hub n-1."""
    _check_int("n", n, 4, error=FamilyError)
    rim = n - 1
    edges = [(i, (i + 1) % rim) for i in range(rim)]
    edges += [(i, rim) for i in range(rim)]
    return Graph.from_edges(n, edges)

def sun_graph(n: int) -> Graph:
    """The n-sun: cycle 0..n-1 with pendant n+i attached to i (2n vertices)."""
    _check_int("n", n, 3, error=FamilyError)
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return Graph.from_edges(2 * n, edges)


def generalized_star(legs: int = 3, leg_length: int = 2) -> Graph:
    """Center 0 with ``legs`` paths of ``leg_length`` edges chained off it."""
    _check_int("legs", legs, 1, error=FamilyError)
    _check_int("leg_length", leg_length, 1, error=FamilyError)
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
    _check_int("path_length", p, 5, error=FamilyError)
    _check_int("chord_path_length", c, 2, error=FamilyError)
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
