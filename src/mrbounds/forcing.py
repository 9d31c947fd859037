"""Zero forcing: closure traces, the minimum forcing number, and the
forcing-set construction that witnesses Z <= t_plus.

Color rule: a colored vertex with exactly one uncolored neighbor colors it.
The closure is independent of the order forces are applied in; traces fix
ascending order only so runs are reproducible.

Z is searched once per connected component, of at most 16 vertices each
(_components), in two steps.  A force u -> w only looks at u's neighbours,
which lie in u's component, so a set forces G iff its part in each
component forces that component, and Z adds up over components.  First the
wavefront (after the Sage Minimum Rank Library of Butler et al.; see
Brimkov, Fast & Hicks, "Computational approaches for zero forcing and
related problems", EJOR 2019) finds the component's forcing number by a
cheapest-cost search over closed sets, with no subset scan (_wavefront).
Then one scan of the subsets of exactly that size, in lex order, returns
the first that forces.  The per-component witnesses unite to the global
(size, lex)-first forcing set by the argument beside
deletion._component_walk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import Graph, _bits, _check_work, _is_forest_mask, _isolate, _level_bfs, _mask_of, _vertex_set
from .deletion import DeletionWitness
from .pathcover import min_path_cover

__all__ = [
    "ForcingError",
    "ForcingTrace",
    "forcing_closure",
    "forcing_set_from_tplus",
    "zero_forcing_number",
]


class ForcingError(ValueError):
    """Search cap exceeded or a construction precondition violated."""


@dataclass(frozen=True)
class ForcingTrace:
    """One complete run of the forcing process from an initial set.

    ``forces`` lists (u, v) pairs in application order: u was colored and v
    was its only uncolored neighbor at that moment.  ``final`` is closed.
    """

    initial: frozenset[int]
    forces: tuple[tuple[int, int], ...]
    final: frozenset[int]

    def forces_all(self, n: int) -> bool:
        return len(self.final) == n


def _closure_mask(adj, filled: int) -> int:
    """Fixed point of the color rule starting from the ``filled`` mask.  Each
    sweep takes the lowest bit of ``filled`` inline, as _level_bfs does."""
    while True:
        grown = rest = filled
        while rest:
            low = rest & -rest
            rest ^= low
            white = adj[low.bit_length() - 1] & ~grown
            if white and white & (white - 1) == 0:
                grown |= white
        if grown == filled:
            return filled
        filled = grown


def forcing_closure(g: Graph, b) -> ForcingTrace:
    """Run the forcing process from ``b``, one force at a time.

    Each step applies the force with the smallest colored vertex u (its
    uncolored neighbor v is then unique).  ``b`` forces the whole graph iff
    the final set has all n vertices.
    """
    b = _vertex_set(g, b)
    adj = g.adj
    filled = _mask_of(b)
    forces = []
    while True:
        for u in _bits(filled):
            white = adj[u] & ~filled
            if white and white & (white - 1) == 0:
                v = white.bit_length() - 1
                forces.append((u, v))
                filled |= white
                break
        else:
            break
    return ForcingTrace(b, tuple(forces), frozenset(_bits(filled)))


def _wavefront(adj, comp: int) -> int:
    """Zero forcing number of the connected component ``comp``.

    A cheapest-cost search over closed sets, held in integer cost buckets.
    From a closed set S one step picks a vertex v with N[v] not inside S.
    If v has a neighbour outside S, the step buys N[v] \\ S but one such
    neighbour w, at cost |N[v] \\ S| - 1: then v is colored with w its only
    uncolored neighbour, so v forces w.  Otherwise it buys v alone, at cost
    1.  Either way the step moves to the closure of S | N[v].  Every step
    costs at least 1: a vertex of the closed set S never has exactly one
    neighbour outside S, and a vertex outside S is bought itself.

    The cheapest cost of reaching the whole component is its forcing number.

    * It is at least Z.  A step's purchases lie outside S, so the purchases
      along a route are disjoint and their union F has the route's cost.
      By induction the closure of F holds every state of the route: it
      holds S and the purchases, so it holds N[v] (all of N[v] is in S or
      bought, but for the one neighbour w that v then forces), and the
      closure is monotone and idempotent, so it holds the closure of
      S | N[v].  F forces the component.
    * It is at most Z.  Take a forcing set F and its forces u_1 -> w_1, ...,
      u_m -> w_m in the order they are made.  Walk from the empty set: at
      force i, if w_i is not yet in S, step with v = u_i and buy N[u_i] \\ S
      but w_i.  Every vertex of N[u_i] but w_i was colored before force i,
      so it is in F or is an earlier w_j, which S holds: the purchases are
      in F \\ S.  Once every w_i is in S, the vertices left outside S are
      all in F, and steps with any v outside S, until S is the whole
      component, buy only vertices of F \\ S.  Purchases are disjoint, so
      the walk costs at most |F|.

    Costs only grow along a route, so states are expanded bucket by bucket,
    each at its cheapest cost.  A state reached at cost c + 1 while bucket c
    is expanded cannot be reached more cheaply: every state still to be
    expanded costs at least c, and one more step at least 1.  So the search
    returns the first time it reaches the whole component at cost c + 1;
    otherwise it returns when it comes to the component's bucket.  Each
    closed set is expanded once, with one closure per vertex: at most
    2^nc * nc closures on nc vertices.  Twin leaves make many closed sets:
    the star K_1,15 has 2^15 - 14 of them: the empty set, and the
    centre with any set of leaves that does not miss exactly one.
    """
    vs = tuple(_bits(comp))
    ball = [adj[v] | 1 << v for v in vs]
    best = {0: 0}  # closed set -> cheapest cost found
    buckets = [[0]] + [[] for _ in vs]  # buckets[c]: states found at cost c
    for c, bucket in enumerate(buckets):
        if best.get(comp) == c:
            return c
        for s in bucket:
            if best[s] < c:
                continue  # reached more cheaply later
            for v, nb in zip(vs, ball):
                new = nb & ~s
                if not new:
                    continue
                cost = c + (new.bit_count() - 1 if adj[v] & ~s else 1)
                t = _closure_mask(adj, s | nb)
                if t == comp and cost == c + 1:
                    return cost
                if t not in best or cost < best[t]:
                    best[t] = cost
                    buckets[cost].append(t)
    raise AssertionError("the whole component is always reachable")


def _first_forcing_set(adj, comp: int, k: int) -> tuple[int, ...]:
    """The lex-first k-subset of the component ``comp`` that forces it."""
    for sub in itertools.combinations(_bits(comp), k):
        if _closure_mask(adj, _mask_of(sub)) == comp:
            return sub
    raise AssertionError("the wavefront value always has a forcing set")


def _components(adj, n: int) -> list[int]:
    """Component masks of ``adj``, each within the work cap on its 2^nc closed sets and subsets."""
    comps = _level_bfs(adj, (1 << n) - 1)[1]
    for comp in comps:
        _check_work(comp.bit_count(), 1 << comp.bit_count(), "vertex sets", ForcingError)
    return comps


def zero_forcing_number(g: Graph) -> tuple[int, frozenset[int]]:
    """Smallest size of a set that forces all of g, with its witness.

    The witness is the first forcing set in (size, lex) order: the
    lexicographically smallest among the smallest.  A component of more
    than 16 vertices raises ForcingError.
    """
    adj = g.adj
    witness: list[int] = []
    for comp in _components(adj, g.n):
        witness.extend(_first_forcing_set(adj, comp, _wavefront(adj, comp)))
    return len(witness), frozenset(witness)


def _z_value(adj, n: int) -> int:
    """Forcing number only, for bulk sweeps: no subset scan."""
    return sum(_wavefront(adj, comp) for comp in _components(adj, n))


def forcing_set_from_tplus(g: Graph, w: DeletionWitness) -> frozenset[int]:
    """A forcing set from a t_plus witness S, with no search: the lower end
    min(p[0], p[-1]) of each path p of the minimum path cover of G - S on
    g's own vertex set (core._isolate), where each vertex of S is a
    one-vertex path.  It holds S and has P(G - S) + |S| = t_plus vertices.

    It forces G by this lemma: for any path cover C of a forest F, any set B
    holding one end of each path of C forces F.  By induction on |C|.
    Contracting each path of C to a point leaves a forest (two paths joined
    by two edges would close a cycle), so some path p meets the rest R of F
    by at most one edge, xy with x in p; and p has no chord, which would
    close a cycle too.  So B's end of p forces along p until x is colored
    (all of p if there is no edge xy).  R then forces as it would on its
    own, by induction: y is R's only vertex with a neighbour outside R, and
    that neighbour x is already colored.  Once R is colored, x finishes p.

    In G, S is colored from the start, so an edge into S never blocks a
    force, and the forces of F = G - S (S isolated) run in G as well.  The
    closure check below is a soundness check.  A witness whose S leaves no
    forest in g (whatever its ``decomposition`` says), or whose ``value`` is
    not P(G - S) + |S|, raises ForcingError.
    """
    if w.parameter != "t_plus":
        raise ForcingError(f"witness is for {w.parameter!r}, need t_plus")
    forest = _isolate(g, w.s)
    if not _is_forest_mask(forest.adj, (1 << g.n) - 1):
        raise ForcingError("deleting the witness set does not leave a forest")
    chosen = _mask_of(min(p[0], p[-1]) for p in min_path_cover(forest).paths)
    if chosen.bit_count() != w.value:
        raise ForcingError(f"{chosen.bit_count()} path ends, but the witness claims t_plus = {w.value}")
    if _closure_mask(g.adj, chosen) != (1 << g.n) - 1:
        raise ForcingError("the path ends do not force the graph; the path-cover construction is unsound")
    return frozenset(_bits(chosen))
