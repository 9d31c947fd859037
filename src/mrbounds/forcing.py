"""Zero forcing: closure traces, the minimum forcing number, and the
forcing-set construction that witnesses Z <= t_plus.

Color rule: a colored vertex with exactly one uncolored neighbor colors it.
The closure is independent of the order forces are applied in; traces fix
ascending order only so runs are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import Graph, _bits, _mask_of, delete_vertices
from .deletion import DeletionWitness
from .pathcover import min_path_cover

__all__ = [
    "ForcingError",
    "ForcingTrace",
    "forcing_closure",
    "forcing_set_from_tplus",
    "zero_forcing_number",
]

Z_SEARCH_MAX_N = 16


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
    """Fixed point of the color rule starting from the ``filled`` mask."""
    while True:
        grown = filled
        for u in _bits(filled):
            white = adj[u] & ~grown
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
    b = frozenset(b)
    for v in b:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
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


def _min_forcing_set(adj, n: int) -> tuple[int, ...]:
    """First forcing set in (size, lex) order: the lexicographically smallest
    among the smallest."""
    full = (1 << n) - 1
    for k in range(n + 1):
        for sub in itertools.combinations(range(n), k):
            if _closure_mask(adj, _mask_of(sub)) == full:
                return sub
    raise AssertionError("the full vertex set always forces")


def zero_forcing_number(g: Graph, *, max_n: int = Z_SEARCH_MAX_N) -> tuple[int, frozenset[int]]:
    """Smallest size of a set that forces all of g, with its witness.

    Enumerates candidate sets by increasing size, lexicographically within a
    size, so the witness is the lexicographically smallest optimum.
    """
    if g.n > max_n:
        raise ForcingError(f"zero forcing search capped at n={max_n}")
    sub = _min_forcing_set(g.adj, g.n)
    return len(sub), frozenset(sub)


def _z_value(adj, n: int) -> int:
    """Forcing number only, for bulk sweeps."""
    return len(_min_forcing_set(adj, n))


def forcing_set_from_tplus(g: Graph, w: DeletionWitness) -> frozenset[int]:
    """Build a forcing set from a t_plus witness: one endpoint per cover path
    of the leftover forest, plus the deleted set itself.

    Tries the lowest-label endpoint of every path first; if that set fails
    to force, searches the other endpoint orientations.  Some orientation
    always works, so exhausting them signals a soundness bug and raises.
    The result has size <= the t_plus value.
    """
    if w.parameter != "t_plus":
        raise ForcingError(f"witness is for {w.parameter!r}, need t_plus")
    if not w.decomposition.is_forest:
        raise ForcingError("witness deletion does not leave a forest")
    forest, labels = delete_vertices(g, w.s)
    cover = min_path_cover(forest)
    endpoint_pairs = []
    for path in cover.paths:
        a, b = labels[path[0]], labels[path[-1]]
        endpoint_pairs.append((min(a, b), max(a, b)) if a != b else (a, a))
    full = (1 << g.n) - 1
    base = _mask_of(w.s)
    for pick in itertools.product((0, 1), repeat=len(endpoint_pairs)):
        chosen = base
        for (lo, hi), side in zip(endpoint_pairs, pick):
            chosen |= 1 << (hi if side else lo)
        if _closure_mask(g.adj, chosen) == full:
            return frozenset(_bits(chosen))
    raise ForcingError(
        "no endpoint orientation forces the graph; the path-cover construction is unsound"
    )
