"""Vertex-deletion parameters built on path covers of leftover forests.

Two dual pairs are computed exactly by subset search over deletion sets:

* t_minus / t_plus: delete a set S leaving a forest, score the forest's
  minimum path cover P against |S| (max of P - |S|, min of P + |S|).
* delta / delta_plus: delete a set S leaving a disjoint union of paths,
  score the path count p against |S| (max of p - |S|, min of p + |S|).

All four add over connected components.  One walk per component feeds
t_minus, t_plus and delta_plus, each a record with its own improvement
rule, stop rule and size cap, and walks a size while any record is active.
t+- scan only deletion sets as large as the component's cycle space, which
is always enough; delta_plus scans every size.  A component that would need
more than core.SEARCH_MAX_SETS deletion sets raises DeletionError instead.
delta always equals t_minus, so delta upgrades a t_minus witness.
_delta_values is the oracle the corpus checks compare with: one pass over
all kept sets that builds each one's path count from the kept set without
its top vertex, with no code shared with the walk or the covers.

Each component's walk runs in (size, lex) order and each record keeps only
strict improvements.  Three cuts shorten it without changing a witness: it
drops every prefix whose kept sets must all hold a cycle, a minimizing
record stops once no larger set can beat it, and t_minus's record stops at
the Gallai-Milgram bound.  _component_walk's docstring states and proves
them.

The count is one level BFS (core._level_bfs) per kept set: the BFS finds
the components for the forest test, and its levels, deepest first, order
the leaves-first greedy.  The same BFS splits each graph into the
components the walk takes one at a time.  The cover number P it returns
is also the path count of a linear forest, which the forest K is exactly
when P = |K| - e(K).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

from .core import (
    SEARCH_MAX_SETS,
    ForestDecomposition,
    Graph,
    _bits,
    _check_work,
    _decomposition_of_mask,
    _edge_count,
    _independence_number,
    _is_forest_mask,
    _isolate,
    _level_bfs,
    _mask_of,
    _vertex_set,
)
from .pathcover import _forest_cover, min_path_cover

__all__ = [
    "DeletionError",
    "DeletionWitness",
    "delta",
    "delta_plus",
    "reduce_optimal_set",
    "t_minus",
    "t_plus",
]


class DeletionError(ValueError):
    """Bad witness input or a search size cap exceeded."""


@dataclass(frozen=True)
class DeletionWitness:
    """An optimal deletion set together with what it leaves behind.

    ``parameter`` names the quantity ("t_minus", "t_plus", "delta",
    "delta_plus"); ``s`` is the deleted set; ``decomposition`` describes
    G - s in original labels; ``p_or_cover`` is the path count p of G - s
    for delta and delta_plus, and the forest cover number P for the others.
    """

    parameter: str
    s: frozenset[int]
    value: int
    decomposition: ForestDecomposition
    p_or_cover: int


# ---------------------------------------------------------------------------
# the deletion search

def _suffix_degrees(adj, vs, limit: int) -> list[list[int]]:
    """suffix[i][r]: the sum of the r largest degrees among vs[i:], for
    r <= min(limit, len(vs) - i)."""
    tail: list[int] = []  # the degrees of vs[i:], negated and sorted
    suffix = [[0]]
    for v in reversed(vs):
        bisect.insort(tail, -adj[v].bit_count())
        suffix.append(list(itertools.accumulate((-d for d in tail[:limit]), initial=0)))
    suffix.reverse()
    return suffix


def _deletion_sets(adj, vs, q: int, edges: int, suffix):
    """Yield (S, e(K)) for the q-subsets S of ``vs`` in lex order, as masks,
    where K is the rest of ``vs`` and ``edges`` = e(vs).

    The walk is depth first and carries S and e(K) as it goes: deleting v
    takes off the edges v still has into K.  A prefix is dropped with all
    its completions when even the r largest degrees among the candidates
    left (``suffix`` from _suffix_degrees), r = q minus the prefix size,
    leave e(K) >= |K| > 0: those kept sets all have a cycle.  At the root
    this skips the whole size, and at a full set it rejects that set.  The
    sets that remain come in the same order as itertools.combinations.
    """
    nc = len(vs)
    # a kept set with this many edges has a cycle; the empty kept set has none
    cyclic = max(nc - q, 1)
    chosen = [0] * q  # chosen[j]: the index in vs of the j-th vertex of S
    s_at = [0] * (q + 1)  # S and e(K) after the first j choices
    e_at = [edges] * (q + 1)
    j = i = 0  # j vertices chosen, the next candidate is vs[i]
    while True:
        r = q - j
        e = e_at[j]
        if nc - i >= r and e - suffix[i][r] < cyclic:
            if not r:
                yield s_at[j], e
            else:
                v = vs[i]
                s = s_at[j]
                chosen[j] = i
                j += 1
                i += 1
                s_at[j] = s | 1 << v
                e_at[j] = e - (adj[v] & ~s).bit_count()
                continue
        # this prefix is exhausted: move its last vertex on
        if not j:
            return
        j -= 1
        i = chosen[j] + 1


# The walk's records by name: (minimize, linear forests only).
_RECORDS = {"t_minus": (False, False), "t_plus": (True, False), "delta_plus": (True, True)}

# The per-component canonical optima unite to the global canonical witness,
# the first optimum in (size, lex) order over the whole graph.  This holds for
# every search whose sets are judged per component and whose values and sizes
# add over components: the deletion searches here and the zero forcing search
# (forcing.zero_forcing_number).  A smallest optimum is then a union of
# smallest component optima.  For two sets of equal size, sorted-tuple order is
# decided by the least element of their symmetric difference, and adding the
# same disjoint set to both leaves that element unchanged; so swapping one
# component's part for that component's lex-first optimum never moves a union
# later, and the union of per-component lex-first optima is lex-first.
def _component_walk(adj, comp: int, edges: int, limits, names):
    """[(value, deletion set mask, leftover count)] per name in ``names`` on
    one connected component with ``edges`` edges, each within its size in ``limits``.

    One walk over the deletion sets in ascending (size, lex) order feeds a
    record per name, each of t_minus, t_plus and delta_plus (_RECORDS).
    Each kept set K is counted once, by _forest_cover, into its cover
    number P.  A forest K with c trees has e(K) = |K| - c and P >= c, with
    equality exactly when each tree is a path; so K is a linear forest iff
    P = |K| - e(K), and then P is its path count p.  delta_plus sees only
    those kept sets.  A record scores P - |S| (t_minus) or P + |S| (t_plus,
    delta_plus) and keeps only strict improvements, so its optimum is
    canonical.

    Two cuts stop a record at size q, and a size is walked only while some
    record has not stopped; neither changes a record's witness:

    * A minimizing record stops once q + 1 >= best: every later set scores
      at least |S| + 1, as a nonempty kept set has P >= 1 (the empty kept
      set scores nc, and nc >= q + 1 for any q < nc).
    * The maximizing record stops once min(nc - q, alpha) - q <= best, where
      alpha is the component's independence number.  Both sides fall as q
      grows.  P <= |K| = nc - q, and P <= alpha(K) <= alpha: by Gallai and
      Milgram ("Verallgemeinerung eines graphentheoretischen Satzes von
      Redei", Acta Sci. Math. Szeged 21, 1960) the vertices of any graph
      split into at most alpha paths, and a linear forest's paths hold one
      independent vertex each.  alpha is computed once, when the nc bound
      first fails to stop a record, and only while 2^nc <= SEARCH_MAX_SETS,
      so it stays within the work cap.

    Cyclic kept sets never reach the count: a forest on k >= 1 vertices has
    fewer than k edges, and deleting a vertex takes off at most its degree,
    so _deletion_sets drops every prefix whose kept sets would keep e(K) >=
    |K| > 0 edges even after the largest degrees left are deleted.
    _forest_cover returns None on any other cycle.
    """
    vs = tuple(_bits(comp))
    nc = len(vs)
    # per name: [minimize, linear forests only, size cap, best value, its
    # set, its count]
    records = [[*_RECORDS[name], limit, None, 0, 0] for name, limit in zip(names, limits)]
    # a component holds every neighbour of its vertices, so adj[v] is the
    # degree within it
    suffix = _suffix_degrees(adj, vs, max(limits))
    alpha = None
    active = records
    for q in itertools.count():
        walking = []
        for rec in active:
            minimize, _, cap, best, _, _ = rec
            if q > cap:
                continue
            if best is not None:
                if minimize:
                    if q + 1 >= best:
                        continue
                elif nc - 2 * q <= best:
                    continue
                elif 1 << nc <= SEARCH_MAX_SETS:
                    if alpha is None:
                        alpha = _independence_number(adj, comp)
                    if alpha - q <= best:
                        continue
            walking.append(rec)
        active = walking
        if not active:
            break
        for s, kept in _deletion_sets(adj, vs, q, edges, suffix):
            p = _forest_cover(adj, comp & ~s, kept)
            if p is None:
                continue
            linear = p == nc - q - kept
            for rec in active:
                minimize, paths_only, _, best, _, _ = rec
                if paths_only and not linear:
                    continue
                val = p + q if minimize else p - q
                if best is None or (val < best if minimize else val > best):
                    rec[3:] = val, s, p
    assert all(rec[3] is not None for rec in records)
    return [(best, s, p) for _, _, _, best, s, p in records]


def _walk(adj, n: int, names) -> list[tuple[int, int, int]]:
    """(value, deletion set mask, leftover count) per name in ``names``,
    summed over the components of the n-vertex graph ``adj``.

    On a component, t+- scan deletion sets up to its cycle space dimension,
    which reduce_optimal_set shows is enough; delta_plus, which may delete
    tree vertices (a star's centre), scans every size.  Each component's
    work, the deletion sets up to the largest of those sizes, is checked
    against core.SEARCH_MAX_SETS before any walk.
    """
    plan = []
    for comp in _level_bfs(adj, (1 << n) - 1)[1]:
        nc = comp.bit_count()
        m_c = _edge_count(adj, comp)
        t_limit = min(m_c - nc + 1, nc)
        limits = [nc if _RECORDS[name][1] else t_limit for name in names]
        _check_work(nc, sum(math.comb(nc, q) for q in range(max(limits) + 1)), "deletion sets", DeletionError)
        plan.append((comp, m_c, limits))
    totals = [(0, 0, 0)] * len(names)
    for comp, m_c, limits in plan:
        found = _component_walk(adj, comp, m_c, limits, names)
        totals = [(v + fv, s | fs, p + fp) for (v, s, p), (fv, fs, fp) in zip(totals, found)]
    return totals


def _search(g: Graph, names) -> list[DeletionWitness]:
    """One DeletionWitness per name in ``names``, from one _walk."""
    adj = g.adj
    full = (1 << g.n) - 1
    return [
        DeletionWitness(name, frozenset(_bits(s)), value, _decomposition_of_mask(adj, full & ~s), p)
        for name, (value, s, p) in zip(names, _walk(adj, g.n, names))
    ]


def t_minus(g: Graph) -> DeletionWitness:
    """max of P(G - S) - |S| over deletion sets S leaving a forest.

    The witness set is canonical: smallest, then lexicographically first,
    independently per connected component.
    """
    return _search(g, ("t_minus",))[0]


def t_plus(g: Graph) -> DeletionWitness:
    """min of P(G - S) + |S| over deletion sets S leaving a forest."""
    return _search(g, ("t_plus",))[0]


def _t_values(adj, n: int) -> tuple[int, int]:
    """(t_minus, t_plus) values only, for bulk sweeps."""
    (tm, _, _), (tp, _, _) = _walk(adj, n, ("t_minus", "t_plus"))
    return tm, tp


def _delta_values(adj, n: int) -> tuple[int, int]:
    """(delta, delta_plus) values by one pass over kept-set masks.

    count[K] is the path count of G[K] if it is a linear forest, else -1,
    filled in ascending order of K.  Linear forests are hereditary, so
    G[K] with top vertex v is one exactly when G[K - v] is one and v, put
    back, touches at most two vertices of K - v, each an end of its path
    (degree <= 1 in K - v), and two of them only if they end different
    paths, which a walk from one end to the other end of its path decides.
    v then starts a path, extends one or joins two, so the count rises by
    one, stays or falls by one.  The pass reads only ``adj``; it shares no
    code with the deletion walk or the path covers, so it stays an
    independent oracle for delta = t_minus and for delta_plus.
    """
    count = [0] * (1 << n)
    best_minus = -n  # the empty kept set: p = 0, |S| = n
    best_plus = n
    for mask in range(1, 1 << n):
        top = 1 << mask.bit_length() - 1
        rest = mask ^ top
        p = count[rest]
        if p >= 0:
            arms = adj[top.bit_length() - 1] & rest
            a = arms & -arms  # v's lowest arm
            b = arms ^ a  # its other arms
            if not arms:
                p += 1  # v starts a path
            elif b & b - 1 or (adj[a.bit_length() - 1] & rest).bit_count() > 1:
                p = -1  # v has three arms, or a lies inside its path
            elif b:
                if (adj[b.bit_length() - 1] & rest).bit_count() > 1:
                    p = -1  # b lies inside its path
                else:
                    # walk a's path to its other end; if that is b, v closes a cycle
                    prev, end = 0, a
                    step = adj[a.bit_length() - 1] & rest
                    while step:
                        prev, end = end, step
                        step = adj[end.bit_length() - 1] & rest & ~prev
                    p = -1 if end == b else p - 1
            # else v extends a's path and p stays
        count[mask] = p
        if p >= 0:
            q = n - mask.bit_count()
            if p - q > best_minus:
                best_minus = p - q
            if p + q < best_plus:
                best_plus = p + q
    return best_minus, best_plus


def delta(g: Graph) -> DeletionWitness:
    """max of p - |S| over deletion sets leaving p disjoint paths.

    The witness comes from t_minus: the two parameters agree on every graph,
    and deleting the junction vertices of each tree's greedy cover turns the
    t_minus forest into a linear forest without changing the score.  It is
    not always the (size, lex)-first delta optimum.  _delta_values
    recomputes the value by its own kept-set sweep.
    """
    return _delta_from(g, t_minus(g))


def _delta_from(g: Graph, base: DeletionWitness) -> DeletionWitness:
    """The delta witness, upgraded from g's t_minus witness ``base``."""
    s = base.s | min_path_cover(_isolate(g, base.s)).junctions
    rest = (1 << g.n) - 1 & ~_mask_of(s)
    deco = _decomposition_of_mask(g.adj, rest)
    assert deco.is_linear_forest
    assert deco.p - len(s) == base.value
    return DeletionWitness("delta", s, base.value, deco, deco.p)


def delta_plus(g: Graph) -> DeletionWitness:
    """min of p + |S| over deletion sets leaving p disjoint paths."""
    return _search(g, ("delta_plus",))[0]


# ---------------------------------------------------------------------------
# feedback set utilities

def reduce_optimal_set(g: Graph, s) -> frozenset[int]:
    """Shrink an optimal t_minus or t_plus deletion set within its optimum.

    Dropping a vertex from a deletion set, when the remainder still leaves a
    forest, never worsens either score (putting one vertex back into a forest
    shifts its cover number by at most one in the harmless direction).  A
    single ascending removal pass therefore lands on an inclusion-minimal
    deletion set with the same value, and inclusion-minimal sets never exceed
    the cycle space dimension: each of their vertices owns a private cycle,
    and private cycles are linearly independent.
    """
    s = _vertex_set(g, s, DeletionError)
    adj = g.adj
    full = (1 << g.n) - 1

    def leaves_forest(drop: frozenset[int]) -> bool:
        return _is_forest_mask(adj, full & ~_mask_of(drop))

    if not leaves_forest(s):
        raise DeletionError("input set does not leave a forest")
    for v in sorted(s):
        smaller = s - {v}
        if leaves_forest(smaller):
            s = smaller
    k = len(_level_bfs(adj, full)[1])
    assert len(s) <= g.m - g.n + k
    return s
