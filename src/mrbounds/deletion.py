"""Vertex-deletion parameters built on path covers of leftover forests.

Two dual pairs are computed exactly by subset search over deletion sets:

* t_minus / t_plus: delete a set S leaving a forest, score the forest's
  minimum path cover P against |S| (max of P - |S|, min of P + |S|).
* delta / delta_plus: delete a set S leaving a disjoint union of paths,
  score the path count p against |S| (max of p - |S|, min of p + |S|).

t_minus always equals delta; the default delta routine exploits that by
upgrading a t_minus witness instead of searching.  Searches run per
connected component (all four parameters are additive) and, by default,
only over deletion sets as large as the component's cycle space, which is
always enough.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

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
    "enumerate_feedback_sets",
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


def _forest_cover_count(adj, mask: int) -> int:
    """P of the forest induced on ``mask``; caller guarantees acyclicity."""
    return sum(_tree_cover_count(adj, cm) for cm in _component_masks(adj, mask))


# ---------------------------------------------------------------------------
# t_minus / t_plus

def _component_t_extremum(adj, comp: int, minimize: bool, capped: bool):
    """Optimal (value, deletion set, leftover P) on one connected component.

    Enumerates deletion subsets in ascending (size, lex) order, so the
    recorded optimum is the canonical witness: smallest, then lexicographic.
    With ``capped`` the subset size stays within the component's cycle space
    dimension, which always contains an optimal set.
    """
    vs = tuple(_bits(comp))
    nc = len(vs)
    cap = _edge_count(adj, comp) - nc + 1
    limit = min(cap, nc) if capped else nc
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
            rest = comp & ~_mask_of(sub)
            # forest test inlined: comps also feeds the cover count below, and
            # _is_forest_mask would walk the components a second time
            comps = _component_masks(adj, rest)
            if _edge_count(adj, rest) != rest.bit_count() - len(comps):
                continue
            p = sum(_tree_cover_count(adj, cm) for cm in comps)
            val = p + q if minimize else p - q
            if best_val is None or (val < best_val if minimize else val > best_val):
                best_val = val
                best_set = sub
                best_p = p
    assert best_val is not None
    return best_val, best_set, best_p


def _t_extremum(g: Graph, minimize: bool, capped: bool) -> DeletionWitness:
    adj = g.adj
    value = 0
    chosen: set[int] = set()
    cover = 0
    for comp in _component_masks(adj, (1 << g.n) - 1):
        v, s, p = _component_t_extremum(adj, comp, minimize, capped)
        value += v
        chosen.update(s)
        cover += p
    rest = (1 << g.n) - 1 & ~_mask_of(chosen)
    witness = DeletionWitness(
        "t_plus" if minimize else "t_minus",
        frozenset(chosen),
        value,
        _decomposition_of_mask(adj, rest),
        cover,
    )
    return witness


def t_minus(g: Graph, *, capped: bool = True) -> DeletionWitness:
    """max of P(G - S) - |S| over deletion sets S leaving a forest.

    The witness set is canonical: smallest, then lexicographically first,
    independently per connected component.
    """
    return _t_extremum(g, minimize=False, capped=capped)


def t_plus(g: Graph, *, capped: bool = True) -> DeletionWitness:
    """min of P(G - S) + |S| over deletion sets S leaving a forest."""
    return _t_extremum(g, minimize=True, capped=capped)


def _t_values(adj, n: int) -> tuple[int, int]:
    """(t_minus, t_plus) values only, for bulk sweeps."""
    tm = tp = 0
    for comp in _component_masks(adj, (1 << n) - 1):
        vm, _, _ = _component_t_extremum(adj, comp, False, True)
        vp, _, _ = _component_t_extremum(adj, comp, True, True)
        tm += vm
        tp += vp
    return tm, tp


# ---------------------------------------------------------------------------
# delta / delta_plus
#
# A kept set W inducing a linear forest with e edges and c components gives
# p = |W| - e paths and q = n - |W| deletions, so
#   p - q = 2|W| - e - n      and      p + q = n - e.

def _linear_profile(adj, mask: int):
    """(vertex count, edge count) if ``mask`` induces a linear forest, else None."""
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
    return w, e


def _delta_values(adj, n: int) -> tuple[int, int]:
    """(delta, delta_plus) values by one sweep over kept-set masks."""
    best_minus = -n
    best_plus = n
    for mask in range(1 << n):
        prof = _linear_profile(adj, mask)
        if prof is None:
            continue
        w, e = prof
        best_minus = max(best_minus, 2 * w - e - n)
        best_plus = min(best_plus, n - e)
    return best_minus, best_plus


def _first_achiever(g: Graph, target: int, plus: bool) -> DeletionWitness:
    """Canonical deletion set attaining a known optimal value.

    Scans deletion sets in ascending (size, lex) order and returns the first
    whose kept set induces a linear forest with the target score.
    """
    adj = g.adj
    n = g.n
    full = (1 << n) - 1
    for q in range(n + 1):
        if plus and q + 1 > target and q < n:
            break
        if not plus and n - 2 * q < target:
            break
        for sub in itertools.combinations(range(n), q):
            mask = full & ~_mask_of(sub)
            prof = _linear_profile(adj, mask)
            if prof is None:
                continue
            w, e = prof
            val = n - e if plus else 2 * w - e - n
            if val == target:
                return DeletionWitness(
                    "delta_plus" if plus else "delta",
                    frozenset(sub),
                    target,
                    _decomposition_of_mask(adj, mask),
                    w - e,
                )
    raise AssertionError("optimal value not attained; sweep and scan disagree")


def delta(g: Graph, *, bruteforce: bool = False, max_n: int = DELTA_BRUTE_MAX_N) -> DeletionWitness:
    """max of p - |S| over deletion sets leaving p disjoint paths.

    The default derives a witness from t_minus: the two parameters agree on
    every graph, and deleting the junction vertices of each tree's greedy
    cover turns the t_minus forest into a linear forest without changing the
    score.  ``bruteforce=True`` searches kept sets directly instead (needs
    n <= max_n) and returns the canonical smallest witness.
    """
    if bruteforce:
        if g.n > max_n:
            raise DeletionError(f"brute-force delta capped at n={max_n}")
        value, _ = _delta_values(g.adj, g.n)
        return _first_achiever(g, value, plus=False)
    base = t_minus(g)
    forest, labels = delete_vertices(g, base.s)
    cover = min_path_cover(forest)
    s = set(base.s)
    s.update(labels[j] for j in cover.junctions)
    rest = (1 << g.n) - 1 & ~_mask_of(s)
    deco = _decomposition_of_mask(g.adj, rest)
    assert deco.is_linear_forest
    assert deco.p - len(s) == base.value
    return DeletionWitness("delta", frozenset(s), base.value, deco, deco.p)


def delta_plus(g: Graph, *, max_n: int = DELTA_BRUTE_MAX_N) -> DeletionWitness:
    """min of p + |S| over deletion sets leaving p disjoint paths."""
    if g.n > max_n:
        raise DeletionError(f"delta_plus search capped at n={max_n}")
    _, value = _delta_values(g.adj, g.n)
    return _first_achiever(g, value, plus=True)


# ---------------------------------------------------------------------------
# feedback set utilities

def enumerate_feedback_sets(g: Graph, max_size: int | None = None) -> Iterator[frozenset[int]]:
    """Yield every deletion set leaving a forest, ascending by (size, lex)."""
    adj = g.adj
    full = (1 << g.n) - 1
    limit = g.n if max_size is None else min(max_size, g.n)
    for q in range(limit + 1):
        for sub in itertools.combinations(range(g.n), q):
            if _is_forest_mask(adj, full & ~_mask_of(sub)):
                yield frozenset(sub)


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
