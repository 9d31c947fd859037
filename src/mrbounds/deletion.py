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
delta always equals t_minus, so delta upgrades a t_minus witness: it adds
the junctions of the greedy cover of G - S (pathcover._junctions), found on
masks (_delta_set).

_walk returns each record's value, witness mask and leftover count.
reports.compute_report and certificates.m_sandwich read those directly;
only the public entry points wrap them in DeletionWitnesses (_search),
with a ForestDecomposition of what each set leaves.
_delta_values is the oracle the corpus checks compare with: one pass over
all kept sets that builds each one's path count from the kept set without
its top vertex, with no code shared with the walk or the covers.

Each component's walk runs size by size and each record keeps only strict
improvements, or a tie at the same size from a lex-earlier set, so each
record ends on its (size, lex)-first optimum.  Seven cuts shorten it
without changing a witness: it drops every prefix whose kept sets must all
hold a cycle by their degrees; it takes the vertices in descending degree,
so that cut fires sooner and reads the largest degrees left off one
running sum; it ends a level once the vertices it has passed over, which
every kept set it would still build holds, have as many edges as vertices
(the kept-prefix cut); it skips every set with a vertex that could be put
back into the kept set at no loss (the put-back rule); once only
minimizing records walk, it skips every set that keeps too few edges to
beat their best (the edge floor); a minimizing record stops once no larger
set can beat it; and t_minus's record stops at the Gallai-Milgram bound.
The count gate then skips the count of a listed kept set that no record
could take, judged by two bounds on its cover number: |K| - e(K) below,
and e(K) - |K| + n1 + 2 n0 above (_cover_ceiling).  The docstrings of
_component_walk and _deletion_sets state and prove them.

The count is one level BFS (core._level_bfs) per kept set: the BFS finds
the components for the forest test, and its levels, deepest first, order
the leaves-first greedy.  The same BFS splits each graph into the
components the walk takes one at a time.  The cover number P it returns
is also the path count of a linear forest, which the forest K is exactly
when P = |K| - e(K).
"""

from __future__ import annotations

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
    _level_bfs,
    _mask_of,
    _vertex_set,
)
# min_path_cover is unused here; it stays a module attribute only for
# perfbench/tracing.py and tests/test_trace_sites.py
from .pathcover import _forest_cover, _junctions, min_path_cover

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

def _deletion_sets(adj, vs, q: int, edges: int, need: int, floor: int) -> list[tuple[int, int]]:
    """[(S, e(K))] for the q-subsets S of ``vs`` in the order of
    itertools.combinations over ``vs`` as given, as masks, where K is the
    rest of ``vs`` and ``edges`` = e(vs), for the sets that pass three
    tests: ``floor`` <= e(K) < max(|K|, 1); no vertex of S has fewer than
    ``need`` neighbours outside the vertices of S before it in ``vs``; and
    for no vertex u of K before the last vertex of S in ``vs`` do the
    vertices of K up to u have as many edges as vertices.  ``vs`` must be
    in descending degree, as _component_walk passes it.

    The list holds one size's sets, at most core.SEARCH_MAX_SETS by _walk's
    work cap.  The walk recurses over prefixes and carries S and e(K):
    deleting v takes off the edges v still has into K, and v is skipped when
    those are fewer than ``need`` (the put-back rule of _component_walk).
    Three cuts end the loops early; each drops only sets that _forest_cover
    would refuse or that lie below ``floor``:

    * A level stops at the first candidate vs[i] where even the r largest
      degrees among vs[i:], r = the choices left, leave e(K) >= |K| > 0:
      their kept sets, and those of every later candidate, have a cycle.  In
      descending degree those r degrees are those of vs[i:i + r], read off
      one running sum.  At the root this skips the whole size.
    * The kept prefix: once a level has tried vs[i], every set it or its
      recursion still builds keeps vs[i] and the vertices before it that
      are not in S.  The loop carries their mask, edge count and size, and
      returns once they have as many edges as vertices: they then hold a
      cycle, and so does every such kept set.
    * The edge floor: every later choice is a vertex with at least ``need``
      neighbours left in K, as the put-back rule skips the others, and
      deleting it takes those edges off.  So a candidate v that leaves
      e(K) - cut(v) < floor + need * (r - 1) ends every set below the floor,
      and is passed over.  With r = 1 that is exact: a set with e(K) <
      ``floor`` is never listed.  ``floor`` = 0 drops no set the put-back
      rule keeps, since e(K) >= 0.

    The last choice appends its set in the loop, if e(K) stays below the
    cycle bound, which saves one call per set.
    """
    nc = len(vs)
    # a kept set with this many edges has a cycle; the empty kept set has none
    cyclic = max(nc - q, 1)
    if not q:
        return [(0, edges)] if floor <= edges < cyclic else []
    degrees = [adj[v].bit_count() for v in vs]
    assert degrees == sorted(degrees, reverse=True)
    reach = list(itertools.accumulate(degrees, initial=0))
    out = []

    def extend(j: int, r: int, s: int, e: int, k: int, ke: int, kc: int) -> None:
        # S = s so far, r more vertices to choose from vs[j:]; k is the kept
        # prefix, with ke edges and kc vertices
        low = floor + need * (r - 1)
        for i in range(j, nc - r + 1):
            if e - (reach[i + r] - reach[i]) >= cyclic:
                return
            v = vs[i]
            bit = 1 << v
            cut = (adj[v] & ~s).bit_count()
            if cut >= need and e - cut >= low:
                if r > 1:
                    extend(i + 1, r - 1, s | bit, e - cut, k, ke, kc)
                elif e - cut < cyclic:
                    out.append((s | bit, e - cut))
            ke += (adj[v] & k).bit_count()
            kc += 1
            if ke >= kc:
                return
            k |= bit

    extend(0, q, 0, edges, 0, 0, 0)
    return out


# The walk's records by name: (minimize, linear forests only).
_RECORDS = {"t_minus": (False, False), "t_plus": (True, False), "delta_plus": (True, True)}


def _cover_ceiling(adj, mask: int, edges: int) -> int:
    """e(K) - |K| + n1 + 2 n0 for K = G[mask] with ``edges`` edges, where n1
    and n0 count the vertices with one and with no neighbour in K: at least
    the cover number P of K when K is a forest.

    At each vertex of degree d > 2 in K drop d - 2 of its edges.  What is
    left has no degree above 2 and no cycle, so it is a linear forest on
    K's vertices with at least e(K) - sum (d - 2)+ edges, and its paths
    cover K: P <= |K| - e(K) + sum (d - 2)+.  Over K, sum (d - 2) = 2 e(K)
    - 2 |K|, and the vertices of degree 1 and 0 add back 1 and 2 each, so
    sum (d - 2)+ = 2 e(K) - 2 |K| + n1 + 2 n0.  Equality holds on a path
    (ceiling 1), a star K_1,m with m >= 2 (m - 1) and isolated vertices
    (one each).  The loop takes the lowest bit inline, as _level_bfs does.
    """
    short = 0  # n1 + 2 n0: how far the degrees below 2 fall short of 2
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        d = (adj[low.bit_length() - 1] & mask).bit_count()
        if d < 2:
            short += 2 - d
    return edges - mask.bit_count() + short

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

    One walk over the deletion sets, size by size, feeds a record per name,
    each of t_minus, t_plus and delta_plus (_RECORDS).  Each kept set K
    that passes the count gate (below) is counted once, by _forest_cover,
    into its cover number P.  A forest K with c trees has e(K) = |K| - c
    and P >= c, with equality exactly when each tree is a path; so K is a
    linear forest iff P = |K| - e(K), and then P is its path count p.
    delta_plus sees only those kept sets.  A record scores P - |S|
    (t_minus) or P + |S| (t_plus, delta_plus) and keeps a set that scores
    strictly better, or as well at the same size and earlier in lex order:
    of two sets of one size, that is the one holding the least element of
    their symmetric difference.  So its optimum is the (size, lex)-first
    one among the sets walked.

    Within a size the vertices are taken in descending degree, ties by
    label, so that _deletion_sets' cycle prune returns sooner, and the
    largest degrees left are the next ones.  Cyclic kept sets never reach
    the count: a forest on k >= 1 vertices has fewer than k edges, and
    deleting a vertex takes off at most its degree, so _deletion_sets drops
    every prefix whose kept sets would keep e(K) >= |K| > 0 edges even after
    the largest degrees left are deleted, and every prefix whose kept
    vertices so far already hold a cycle (the kept-prefix cut).
    _forest_cover returns None on any other cycle.

    The put-back rule skips every set S with a vertex v that has fewer than
    ``need`` neighbours outside the vertices picked before it, so fewer
    than ``need`` in K; need is 2 while only t+- records walk and 1 while
    delta_plus does.  No such S is a record's canonical optimum, as S - v,
    one size smaller, scores at least as well:

    * t+- (need 2): v has at most one neighbour in the forest K, so K + v is
      a forest in which v is isolated or a leaf.  Dropping v from a path
      cover of K + v leaves a cover of K with no more paths, and adding v
      as a path of its own covers K + v, so P(K + v) is P(K) or P(K) + 1.
      Then S - v scores P(K + v) - |S| + 1 > P(K) - |S| for t_minus and
      P(K + v) + |S| - 1 <= P(K) + |S| for t_plus.
    * delta_plus (need 1): v has no neighbour in the linear forest K, so
      K + v is one with p(K + v) = p(K) + 1, and S - v scores p(K) + |S|,
      the same.

    The count gate and the edge floor skip only idle sets.  A set of size q
    is idle when no record walking at q could take it against the best the
    record held at the start of size q.  By the tie rule a record takes a
    set of size q only if it beats the record's best, or ties a best set at
    size q, which already beats the start best; so a set that is no better
    than every start best is idle, and an idle set is never taken.  Once
    every walking record has a best, two bounds on the cover number P of a
    forest K, taken from the start bests, find idle sets:

    * P >= |K| - e(K), one path per tree, so P + q >= nc - e(K), and a
      minimizing record with best b can take K only if e(K) >= nc - b + 1.
      low is the least such edge count over the walking minimizers (nc + 1
      if none walks).
    * P <= _cover_ceiling(K), so t_minus with best b can take K only if
      the ceiling exceeds b + q = top.

    The count gate skips the count of a listed set with e(K) < low whose
    ceiling is at most top; it reads the ceiling only when the edge test
    fails.  While t_minus does not walk, every set with e(K) < low is idle,
    and _deletion_sets drops it before it is listed: the edge floor is low.
    The floor is tie-aware: a set with e(K) = nc - b could only tie b,
    which was set at a smaller size.  While t_minus walks, or a record has
    no best, the floor is 0, which skips nothing, and while a record has no
    best the gate is off too.

    A record walks every size up to the one it stops at, and need only
    rises, from 1 to 2 once delta_plus stops, so every skip a record sees
    falls under its own case.  Each set the put-back rule skips is so
    beaten or matched by a smaller set, and by induction on size by a
    smaller set the walk counts (the empty set is never skipped), or by an
    idle one.  That one was no better than every walking record's best at
    the start of its size; a record walking now walked then, as records
    only stop, and its best has only improved since; so the set it beats or
    matches is idle too.  So every size ends with the same best as a walk
    of all sets, the stop rules below decide exactly as they would there,
    and each record's witness is the (size, lex)-first optimum of all sets.

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
    """
    # descending degree; sorted is stable, so ties stay in label order.  A
    # component holds every neighbour of its vertices, so adj[v] is the
    # degree within it
    vs = sorted(_bits(comp), key=lambda v: adj[v].bit_count(), reverse=True)
    nc = len(vs)
    # per name: [minimize, linear forests only, size cap, best value, its
    # set, its count]
    records = [[*_RECORDS[name], limit, None, 0, 0] for name, limit in zip(names, limits)]
    alpha = None
    active = records
    for q in itertools.count():
        walking = []
        need = 2  # the put-back rule's bound, 1 while delta_plus walks
        # the count gate, from the bests at the start of this size, while
        # every walking record has one: a minimizing record can take only a
        # kept set with e(K) >= low, and t_minus only one whose cover
        # ceiling exceeds top; with no t_minus, low is the edge floor
        gated = True
        low, top = nc + 1, None
        for rec in active:
            minimize, paths_only, cap, best, _, _ = rec
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
            if paths_only:
                need = 1
            if best is None:
                gated = False
            elif minimize:
                low = min(low, nc - best + 1)
            else:
                top = best + q
        active = walking
        if not active:
            break
        floor = low if gated and top is None else 0
        for s, kept in _deletion_sets(adj, vs, q, edges, need, floor):
            rest = comp & ~s
            if gated and kept < low and _cover_ceiling(adj, rest, kept) <= top:
                continue
            p = _forest_cover(adj, rest, kept)
            if p is None:
                continue
            linear = p == nc - q - kept
            for rec in active:
                minimize, paths_only, _, best, best_s, _ = rec
                if paths_only and not linear:
                    continue
                val = p + q if minimize else p - q
                if best is None or (val < best if minimize else val > best):
                    rec[3:] = val, s, p
                elif val == best and best_s.bit_count() == q:
                    d = s ^ best_s
                    if d & -d & s:
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
    """One DeletionWitness per name in ``names``, from one _walk, for the
    public entry points."""
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

    The witness comes from the t_minus walk: the two parameters agree on
    every graph, and deleting the junction vertices of each tree's greedy
    cover turns the t_minus forest into a linear forest without changing the
    score.  It is not always the (size, lex)-first delta optimum.
    _delta_values recomputes the value by its own kept-set sweep.
    """
    adj = g.adj
    ((value, s, _),) = _walk(adj, g.n, ("t_minus",))
    s = _delta_set(adj, g.n, s, value)
    deco = _decomposition_of_mask(adj, (1 << g.n) - 1 & ~s)
    return DeletionWitness("delta", frozenset(_bits(s)), value, deco, deco.p)


def _delta_set(adj, n: int, s: int, value: int) -> int:
    """The delta witness mask, upgraded from the t_minus witness mask ``s``
    of value ``value``: S and the junctions (pathcover._junctions) of the
    greedy cover of the forest G - S, found on masks with no cover built.
    Each junction joins two paths of the cover, so deleting it leaves one
    more path: p(G - S') = P(G - S) + |S' - S|, and the score stays."""
    full = (1 << n) - 1
    s |= _junctions(adj, _level_bfs(adj, full & ~s)[0])
    rest = full & ~s
    p = len(_level_bfs(adj, rest)[1])
    # a linear forest: acyclic, with no vertex of degree three or more
    assert _edge_count(adj, rest) == rest.bit_count() - p
    assert all((adj[v] & rest).bit_count() <= 2 for v in _bits(rest))
    assert p - s.bit_count() == value
    return s


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
