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
"""

from __future__ import annotations

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
    _is_forest_mask,
    _mask_of,
    delete_vertices,
)
from .pathcover import _tree_cover_count, min_path_cover

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

def _forest_cover(adj, rest: int):
    """Forest cover number P of G[rest], or None if G[rest] has a cycle."""
    # forest test inlined: comps also feeds the cover count, and
    # _is_forest_mask would walk the components a second time
    comps = _component_masks(adj, rest)
    if _edge_count(adj, rest) != rest.bit_count() - len(comps):
        return None
    return sum(_tree_cover_count(adj, cm) for cm in comps)


def _path_count(adj, mask: int):
    """Path count p of G[mask] if it is a linear forest, else None."""
    w = mask.bit_count()
    e = 0
    for v in _bits(mask):
        d = (adj[v] & mask).bit_count()
        if d > 2:
            return None
        e += d
    e //= 2
    if e != w - len(_component_masks(adj, mask)):
        return None
    return w - e


# parameter -> (leftover count, minimize, capped by the cycle space); delta+-
# may need to delete tree vertices, e.g. a star's centre
_PARAMETERS = {
    "t_minus": (_forest_cover, False, True),
    "t_plus": (_forest_cover, True, True),
    "delta": (_path_count, False, False),
    "delta_plus": (_path_count, True, False),
}


# The per-component canonical optima unite to the global canonical witness,
# the first optimum in (size, lex) order over the whole graph.  Values and
# sizes add over components, so a smallest optimum is a union of smallest
# component optima.  For two sets of equal size, sorted-tuple order is decided
# by the least element of their symmetric difference, and adding the same
# disjoint set to both leaves that element unchanged; so the union of
# per-component lex-first optima is lex-first.
def _component_extremum(adj, comp: int, count, minimize: bool, capped: bool):
    """Optimal (value, deletion set, leftover count) on one connected component.

    ``count(adj, rest)`` is the leftover count p of the kept set, or None if
    the kept set is not admissible; the score is p + |S| or p - |S|.  Subsets
    come in ascending (size, lex) order and only a strict improvement is kept,
    so the optimum recorded is canonical.  With ``capped`` the subset size
    stays within the component's cycle space dimension.
    """
    vs = tuple(_bits(comp))
    nc = len(vs)
    cap = _edge_count(adj, comp) - nc + 1
    limit = min(cap, nc) if capped else nc
    work = sum(math.comb(nc, q) for q in range(limit + 1))
    if work > 1 << DELTA_BRUTE_MAX_N:
        raise DeletionError(f"{nc}-vertex component needs {work} deletion sets, over 2^{DELTA_BRUTE_MAX_N}")
    best_val = None
    best_set = ()
    best_p = 0
    for q in range(limit + 1):
        if best_val is not None:
            if minimize and q + 1 >= best_val:
                break
            if not minimize and nc - 2 * q <= best_val:
                break
        for sub in itertools.combinations(vs, q):
            p = count(adj, comp & ~_mask_of(sub))
            if p is None:
                continue
            val = p + q if minimize else p - q
            if best_val is None or (val < best_val if minimize else val > best_val):
                best_val = val
                best_set = sub
                best_p = p
    assert best_val is not None
    return best_val, best_set, best_p


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

def reduce_optimal_set(g: Graph, s, parameter: str = "t_minus") -> frozenset[int]:
    """Shrink an optimal t_minus or t_plus deletion set within its optimum.

    Dropping a vertex from a deletion set, when the remainder still leaves a
    forest, never worsens either score (putting one vertex back into a forest
    shifts its cover number by at most one in the harmless direction).  A
    single ascending removal pass therefore lands on an inclusion-minimal
    deletion set with the same value, and inclusion-minimal sets never exceed
    the cycle space dimension: each of their vertices owns a private cycle,
    and private cycles are linearly independent.
    """
    if parameter not in ("t_minus", "t_plus"):
        raise DeletionError(f"unknown parameter {parameter!r}")
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
