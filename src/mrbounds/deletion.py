"""Vertex-deletion parameters built on path covers of leftover forests.

Two dual pairs are computed exactly by subset search over deletion sets:

* t_minus / t_plus: delete a set S leaving a forest, score the forest's
  minimum path cover P against |S| (max of P - |S|, min of P + |S|).
* delta / delta_plus: delete a set S leaving a disjoint union of paths,
  score the path count p against |S| (max of p - |S|, min of p + |S|).

All four run one search per connected component (they are additive) and
differ only in the leftover count.  t+- scan only deletion sets as large as
the component's cycle space, which is always enough; delta+- scan every size
and need n <= DELTA_BRUTE_MAX_N.  A component that would need more than
2^DELTA_BRUTE_MAX_N deletion sets raises DeletionError instead.  t_minus
always equals delta; the default delta routine exploits that by upgrading a
t_minus witness instead of searching.

Each component's scan runs in (size, lex) order and keeps only strict
improvements, and three cuts shorten it without changing its witness (the
proofs are in _component_extremum's docstring):

* every admissible leftover is a forest, and a forest on k >= 1 vertices
  has fewer than k edges, so the depth-first walk over deletion sets drops
  every prefix whose kept sets must all keep that many edges, counted from
  vertex degrees with no traversal;
* a minimizing search stops once |S| + 1 reaches its best score;
* a maximizing search stops once min(|K|, alpha) - |S| cannot beat its
  best, as by Gallai and Milgram (1960) the vertices of any graph split
  into at most alpha(G) paths.

The forest cover count is one level BFS per kept set: the BFS counts the
components for the forest test, and its levels, deepest first, order the
leaves-first greedy.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

from .core import (
    ForestDecomposition,
    Graph,
    _bits,
    _component_masks,
    _decomposition_of_mask,
    _edge_count,
    _independence_number,
    _is_forest_mask,
    _mask_of,
    _path_count,
    delete_vertices,
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

DELTA_BRUTE_MAX_N = 16


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

def _linear_count(adj, rest: int, edges: int):
    """Path count p of G[rest] if it is a linear forest, else None.

    ``edges`` goes unused: _path_count sums the degrees it checks anyway.
    """
    return _path_count(adj, rest)


# parameter -> (leftover count, minimize, capped by the cycle space); delta+-
# may need to delete tree vertices, e.g. a star's centre
_PARAMETERS = {
    "t_minus": (_forest_cover, False, True),
    "t_plus": (_forest_cover, True, True),
    "delta": (_linear_count, False, False),
    "delta_plus": (_linear_count, True, False),
}


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
def _component_extremum(adj, comp: int, count, minimize: bool, capped: bool):
    """Optimal (value, deletion set, leftover count) on one connected component.

    ``count(adj, rest, edges)`` is the leftover count p of the kept set K,
    given e(K), or None if K is not admissible; the score is p + |S| or
    p - |S|.  Subsets come in ascending (size, lex) order and only a strict
    improvement is kept, so the optimum recorded is canonical.  With
    ``capped`` the subset size stays within the component's cycle space
    dimension.

    Three cuts shorten the scan; none changes its order, the improvement
    rule or the canonical witness:

    * Cyclic kept sets never reach ``count``.  A forest on k >= 1 vertices
      has fewer than k edges, and deleting a vertex takes off at most its
      degree, so a prefix of S whose kept set would keep e(K) >= |K| > 0
      edges even after the largest degrees left to choose are deleted is
      dropped whole (_deletion_sets).  ``count`` returns None on any cycle.
    * A minimizing search stops at size q once q + 1 >= best: every later
      set scores at least |S| + 1, as a nonempty kept set has p >= 1 (the
      empty kept set scores nc, and nc >= q + 1 for any q < nc).
    * A maximizing search stops at size q once min(nc - q, alpha) - q <=
      best, where alpha is the component's independence number.  Both
      sides fall as q grows.  p <= |K| = nc - q, and p <= alpha(K) <=
      alpha: by Gallai and Milgram ("Verallgemeinerung eines
      graphentheoretischen Satzes von Redei", Acta Sci. Math. Szeged 21,
      1960) the vertices of any graph split into at most alpha paths, and a
      linear forest's paths hold one independent vertex each.  alpha is
      computed once, when the nc bound first fails to stop the scan, and
      only for nc <= DELTA_BRUTE_MAX_N, so it stays within the work cap.
    """
    vs = tuple(_bits(comp))
    nc = len(vs)
    m_c = _edge_count(adj, comp)
    cap = m_c - nc + 1
    limit = min(cap, nc) if capped else nc
    work = sum(math.comb(nc, q) for q in range(limit + 1))
    if work > 1 << DELTA_BRUTE_MAX_N:
        raise DeletionError(f"{nc}-vertex component needs {work} deletion sets, over 2^{DELTA_BRUTE_MAX_N}")
    # a component holds every neighbour of its vertices, so adj[v] is the
    # degree within it
    suffix = _suffix_degrees(adj, vs, limit)
    alpha = None
    best_val = None
    best_set = 0
    best_p = 0
    for q in range(limit + 1):
        if best_val is not None:
            if minimize:
                if q + 1 >= best_val:
                    break
            elif nc - 2 * q <= best_val:
                break
            elif nc <= DELTA_BRUTE_MAX_N:
                if alpha is None:
                    alpha = _independence_number(adj, comp)
                if alpha - q <= best_val:
                    break
        for s, kept in _deletion_sets(adj, vs, q, m_c, suffix):
            p = count(adj, comp & ~s, kept)
            if p is None:
                continue
            val = p + q if minimize else p - q
            if best_val is None or (val < best_val if minimize else val > best_val):
                best_val = val
                best_set = s
                best_p = p
    assert best_val is not None
    return best_val, tuple(_bits(best_set)), best_p


def _search(g: Graph, parameter: str, capped: bool = True) -> DeletionWitness:
    count, minimize, cycle_capped = _PARAMETERS[parameter]
    if not cycle_capped and g.n > DELTA_BRUTE_MAX_N:
        raise DeletionError(f"{parameter} search capped at n={DELTA_BRUTE_MAX_N}")
    adj = g.adj
    full = (1 << g.n) - 1
    value = cover = 0
    chosen: list[int] = []
    for comp in _component_masks(adj, full):
        v, s, p = _component_extremum(adj, comp, count, minimize, capped and cycle_capped)
        value += v
        chosen.extend(s)
        cover += p
    rest = full & ~_mask_of(chosen)
    return DeletionWitness(parameter, frozenset(chosen), value, _decomposition_of_mask(adj, rest), cover)


def t_minus(g: Graph, *, capped: bool = True) -> DeletionWitness:
    """max of P(G - S) - |S| over deletion sets S leaving a forest.

    The witness set is canonical: smallest, then lexicographically first,
    independently per connected component.
    """
    return _search(g, "t_minus", capped)


def t_plus(g: Graph, *, capped: bool = True) -> DeletionWitness:
    """min of P(G - S) + |S| over deletion sets S leaving a forest."""
    return _search(g, "t_plus", capped)


def _t_values(adj, n: int) -> tuple[int, int]:
    """(t_minus, t_plus) values only, for bulk sweeps."""
    tm = tp = 0
    for comp in _component_masks(adj, (1 << n) - 1):
        tm += _component_extremum(adj, comp, _forest_cover, False, True)[0]
        tp += _component_extremum(adj, comp, _forest_cover, True, True)[0]
    return tm, tp


def _delta_values(adj, n: int) -> tuple[int, int]:
    """(delta, delta_plus) values by one sweep over kept-set masks."""
    best_minus = -n
    best_plus = n
    for mask in range(1 << n):
        p = _path_count(adj, mask)
        if p is None:
            continue
        q = n - mask.bit_count()
        best_minus = max(best_minus, p - q)
        best_plus = min(best_plus, p + q)
    return best_minus, best_plus


def delta(g: Graph, *, bruteforce: bool = False) -> DeletionWitness:
    """max of p - |S| over deletion sets leaving p disjoint paths.

    The default derives a witness from t_minus: the two parameters agree on
    every graph, and deleting the junction vertices of each tree's greedy
    cover turns the t_minus forest into a linear forest without changing the
    score.  ``bruteforce=True`` runs the deletion search directly instead
    (needs n <= DELTA_BRUTE_MAX_N) and returns the canonical smallest witness.
    """
    if bruteforce:
        return _search(g, "delta")
    return _delta_from(g, t_minus(g))


def _delta_from(g: Graph, base: DeletionWitness) -> DeletionWitness:
    """The default delta witness, upgraded from g's t_minus witness ``base``."""
    forest, labels = delete_vertices(g, base.s)
    cover = min_path_cover(forest)
    s = set(base.s)
    s.update(labels[j] for j in cover.junctions)
    rest = (1 << g.n) - 1 & ~_mask_of(s)
    deco = _decomposition_of_mask(g.adj, rest)
    assert deco.is_linear_forest
    assert deco.p - len(s) == base.value
    return DeletionWitness("delta", frozenset(s), base.value, deco, deco.p)


def delta_plus(g: Graph) -> DeletionWitness:
    """min of p + |S| over deletion sets leaving p disjoint paths (n <= 16)."""
    return _search(g, "delta_plus")


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
    s = set(s)
    for v in s:
        if not 0 <= v < g.n:
            raise DeletionError(f"vertex {v} out of range for n={g.n}")
    adj = g.adj
    full = (1 << g.n) - 1

    def leaves_forest(drop: set[int]) -> bool:
        return _is_forest_mask(adj, full & ~_mask_of(drop))

    if not leaves_forest(s):
        raise DeletionError("input set does not leave a forest")
    for v in sorted(s):
        smaller = s - {v}
        if leaves_forest(smaller):
            s = smaller
    k = len(_component_masks(adj, full))
    assert len(s) <= g.m - g.n + k
    return frozenset(s)
