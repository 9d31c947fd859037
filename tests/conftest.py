"""Shared test helpers: labeled tree generation, random graphs and class
representatives."""

from __future__ import annotations

import itertools
import random

import pytest

from mrbounds import Graph


def tree_from_pruefer(seq: tuple[int, ...], n: int) -> Graph:
    """Decode a Pruefer sequence (length n-2, entries in 0..n-1) to a tree."""
    if n == 1:
        return Graph.from_edges(1)
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaf_heap = sorted(v for v in range(n) if degree[v] == 1)
    import heapq

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
    return Graph.from_edges(n, edges)


def all_labeled_trees(n: int):
    """Every labeled tree on n vertices, by Pruefer enumeration (n^(n-2))."""
    if n <= 2:
        yield tree_from_pruefer((), n)
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield tree_from_pruefer(seq, n)


def random_tree(n: int, rng: random.Random) -> Graph:
    seq = tuple(rng.randrange(n) for _ in range(max(n - 2, 0)))
    return tree_from_pruefer(seq, n)


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


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260819)
