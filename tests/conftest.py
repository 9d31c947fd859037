"""Shared test helpers: labeled tree generation, random graphs, class
representatives and the exhaustive deletion reference."""

from __future__ import annotations

import heapq
import itertools
import random

import pytest

from mrbounds import Graph, classify, delete_vertices, min_path_cover


def pruefer_edges(seq: tuple[int, ...], n: int) -> frozenset[tuple[int, int]]:
    """The edge set of the tree with Pruefer sequence ``seq`` (length n-2,
    entries in 0..n-1), as sorted pairs.  Its iteration order is not
    promised: a test that draws random numbers per edge iterates
    ``sorted(...)``."""
    if n <= 2:
        edges = [(0, 1)] if n == 2 else []
    else:
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        leaf_heap = sorted(v for v in range(n) if degree[v] == 1)
        heapq.heapify(leaf_heap)
        for v in seq:
            leaf = heapq.heappop(leaf_heap)
            edges.append((leaf, v))
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(leaf_heap, v)
        u = heapq.heappop(leaf_heap)
        w = heapq.heappop(leaf_heap)
        edges.append((u, w))
    return frozenset((u, v) if u < v else (v, u) for u, v in edges)


def tree_from_pruefer(seq: tuple[int, ...], n: int) -> Graph:
    """Decode a Pruefer sequence (length n-2, entries in 0..n-1) to a tree."""
    return Graph(n, pruefer_edges(seq, n))


def all_labeled_trees(n: int):
    """Every labeled tree on n vertices, by Pruefer enumeration (n^(n-2))."""
    if n <= 2:
        yield tree_from_pruefer((), n)
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield tree_from_pruefer(seq, n)


def random_tree_edges(n: int, rng: random.Random) -> frozenset[tuple[int, int]]:
    """pruefer_edges of a random Pruefer sequence."""
    return pruefer_edges(tuple(rng.randrange(n) for _ in range(max(n - 2, 0))), n)


def random_tree(n: int, rng: random.Random) -> Graph:
    return Graph(n, random_tree_edges(n, rng))


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def class_representatives(n: int):
    """The first labeled member of each isomorphism class on n vertices."""
    from mrbounds.reports import _isomorphism_classes

    seen = 0
    for g, c in _isomorphism_classes(n):
        if c == seen:
            seen += 1
            yield g


def first_optima(g: Graph) -> dict:
    """Reference for the canonical witnesses of the deletion walk: scan every
    deletion set of the whole graph in (size, lex) order, with no components,
    no size cap and no cycle prechecks, and keep the first set with the
    optimal score.  The forest cover comes from min_path_cover, not from the
    walk's count.  Returns {parameter: (set, value, leftover count)} for
    t_minus, t_plus and delta_plus."""
    best = {}
    for q in range(g.n + 1):
        for sub in itertools.combinations(range(g.n), q):
            forest = delete_vertices(g, sub)[0]
            deco = classify(forest)
            cover = min_path_cover(forest).size if deco.is_forest else None
            paths = deco.p if deco.is_linear_forest else None
            for name, p, minimize in (("t_minus", cover, False), ("t_plus", cover, True),
                                      ("delta_plus", paths, True)):
                if p is None:
                    continue
                val = p + q if minimize else p - q
                if name not in best or (val < best[name][1] if minimize else val > best[name][1]):
                    best[name] = (frozenset(sub), val, p)
    return best


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260819)
