"""Greedy forest path covers against brute-force oracles."""

import hashlib
import itertools
import pathlib
import random

import pytest

import mrbounds as mb
from mrbounds import Graph
from mrbounds.core import _edge_count, _isolate, _mask_of
from mrbounds.deletion import _delta_set
from mrbounds.pathcover import BRUTE_PATH_COVER_MAX_N, PathCoverError, _forest_cover
from conftest import all_labeled_trees, random_graph, random_tree, random_tree_edges


def cover_is_valid(g, cover):
    seen = set()
    for path in cover.paths:
        assert path, "empty path"
        for v in path:
            assert v not in seen
            seen.add(v)
        for a, b in zip(path, path[1:]):
            assert g.has_edge(a, b)
    assert seen == set(range(g.n))


class TestMinPathCover:
    def test_path_is_one_path(self):
        cover = mb.min_path_cover(mb.path_graph(6))
        assert cover.size == 1 and cover.junctions == frozenset()

    def test_star_cover(self):
        cover = mb.min_path_cover(mb.star_graph(6))
        # one path through the center, remaining leaves are singletons
        assert cover.size == 4
        assert cover.junctions == frozenset({0})
        cover_is_valid(mb.star_graph(6), cover)

    def test_paths_ascend_by_least_vertex(self, rng):
        assert mb.min_path_cover(mb.star_graph(6)).paths == ((1, 0, 2), (3,), (4,), (5,))
        # the leftover paths of demo 04: fig4 less its t_plus deletion set
        fig4 = mb.generate_family("fig4")
        sub, _ = mb.delete_vertices(fig4, mb.t_plus(fig4).s)
        assert mb.min_path_cover(sub).paths == ((0,), (5, 1), (2, 3, 4, 6))
        for _ in range(30):
            forest = random_forest(rng)
            g = random_graph(7, 0.3, rng)
            for cover in (
                mb.min_path_cover(forest),
                mb.path_cover_bruteforce(g),
                mb.induced_path_cover_bruteforce(g),
            ):
                least = [min(p) for p in cover.paths]
                assert least == sorted(least)

    def test_h_tree(self):
        g = mb.generate_family("fig3")
        cover = mb.min_path_cover(g)
        assert cover.size == 2
        cover_is_valid(g, cover)

    def test_empty_and_isolated(self):
        assert mb.min_path_cover(Graph.from_edges(0)).size == 0
        cover = mb.min_path_cover(Graph.from_edges(3))
        assert cover.size == 3 and all(len(p) == 1 for p in cover.paths)

    def test_rejects_cycles(self):
        with pytest.raises(PathCoverError):
            mb.min_path_cover(mb.cycle_graph(4))

    def test_matches_bruteforce_on_all_trees_to_6(self):
        for n in range(1, 7):
            for g in all_labeled_trees(n):
                greedy = mb.min_path_cover(g)
                brute = mb.path_cover_bruteforce(g)
                assert greedy.size == brute.size, g.graph6()
                cover_is_valid(g, greedy)

    def test_matches_bruteforce_random_large_trees(self, rng):
        for n in (9, 11, 12):
            for _ in range(60):
                g = random_tree(n, rng)
                assert mb.min_path_cover(g).size == mb.path_cover_bruteforce(g).size

    def test_junction_deletion_leaves_linear_forest(self, rng):
        # removing the junction set must split the cover into exactly
        # size + len(junctions) paths and nothing else
        for n in (7, 9, 12):
            for _ in range(40):
                g = random_tree(n, rng)
                cover = mb.min_path_cover(g)
                sub, labels = mb.delete_vertices(g, cover.junctions)
                deco = mb.classify(sub)
                assert deco.is_linear_forest
                assert deco.p == cover.size + len(cover.junctions)


def random_forest(rng, max_n=40):
    """A forest on up to ``max_n`` vertices with shuffled labels: a random
    tree with some edges cut, drawn over its edges in sorted order."""
    n = rng.randint(1, max_n)
    labels = list(range(n))
    rng.shuffle(labels)
    tree = random_tree_edges(n, rng)
    return Graph.from_edges(n, [(labels[u], labels[v]) for u, v in sorted(tree) if rng.random() < 0.8])


def labeled_forests(n):
    """Every labeled forest on n vertices: the edge subsets of at most
    n - 1 edges that close no cycle."""
    pairs = list(itertools.combinations(range(n), 2))
    for k in range(max(n, 1)):
        for edges in itertools.combinations(pairs, k):
            g = Graph.from_edges(n, edges)
            if mb.classify(g).is_forest:
                yield g


# sha256 of (graph6, sorted(paths), sorted(junctions)) from min_path_cover
# over pinned_forests(): each path's vertices and orientation and each
# junction set are pinned, the order of PathCover.paths is not.  Taken from
# the DFS-rooted greedy that preceded the shared level BFS, so the digest
# checks that the two make the same choices.
PATHS_JUNCTIONS_SHA256 = "d907c7c90d581d1eb671ad755acda4752614a632cb2e0669c705e63bd9329f5c"

# 3,000 random forests with shuffled labels and up to 30 vertices, one graph6
# line each, drawn once by random_forest(random.Random(20261024), 30) when it
# still drew over the tree's edges in set iteration order; stored so that the
# digest above depends on no such order.  The file's own sha256 is pinned too.
PINNED_FORESTS = pathlib.Path(__file__).parent / "data" / "pinned_forests.g6"
PINNED_FORESTS_SHA256 = "e3bbe46d51cced3bd3b3897f334a950bde404afb03b1732b4ad53cccde83ecd6"


def pinned_forests():
    """Every labeled forest with n <= 6 (3,272 of them, the empty graph
    too), then the forests of PINNED_FORESTS."""
    for n in range(7):
        yield from labeled_forests(n)
    for line in PINNED_FORESTS.read_text(encoding="ascii").splitlines():
        yield mb.parse_graph6(line)


def test_pinned_forests_file():
    assert hashlib.sha256(PINNED_FORESTS.read_bytes()).hexdigest() == PINNED_FORESTS_SHA256


def test_paths_and_junctions_digest():
    h = hashlib.sha256()
    for g in pinned_forests():
        cover = mb.min_path_cover(g)
        h.update(repr((g.graph6(), sorted(cover.paths), sorted(cover.junctions))).encode())
    assert h.hexdigest() == PATHS_JUNCTIONS_SHA256


def test_mask_junctions_match_the_cover():
    # the delta witness takes the junctions of G - S on masks, with no
    # cover built; on forests they must be the cover's junctions, and the
    # score P(G - S) - |S| must carry over
    rng = random.Random(20261020)
    for g in pinned_forests():
        s = frozenset(v for v in range(g.n) if rng.random() < 0.2)
        cover = mb.min_path_cover(_isolate(g, s))
        p = cover.size - len(s)  # P(G - S): the cover counts each vertex of S as a path
        assert _delta_set(g.adj, g.n, _mask_of(s), p - len(s)) == _mask_of(s | cover.junctions), g.graph6()


class TestForestCoverCount:
    """pathcover._forest_cover, the deletion search's one-pass count."""

    def test_matches_min_path_cover_on_random_forests(self):
        rng = random.Random(20261019)
        for _ in range(300):
            g = random_forest(rng)
            assert _forest_cover(g.adj, (1 << g.n) - 1, g.m) == mb.min_path_cover(g).size, g.graph6()

    def test_mask_within_a_supergraph(self):
        # three extra vertices joined to everything: adj belongs to a
        # supergraph, and the count must see only G[mask]
        rng = random.Random(20261020)
        for _ in range(50):
            g = random_forest(rng)
            extra = [(u, v) for u in range(g.n + 3) for v in range(max(u + 1, g.n), g.n + 3)]
            big = Graph.from_edges(g.n + 3, list(g.edges) + extra)
            assert _forest_cover(big.adj, (1 << g.n) - 1, g.m) == mb.min_path_cover(g).size

    def test_none_on_cycles_with_few_edges(self):
        # e(K) < |K| leaves room for a cycle beside tree components
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
        assert _forest_cover(g.adj, (1 << 6) - 1, g.m) is None
        rng = random.Random(20261021)
        cyclic_seen = 0
        for _ in range(30):
            g = random_graph(rng.randint(4, 9), 0.3, rng)
            for mask in range(1 << g.n):
                e = _edge_count(g.adj, mask)
                if e >= mask.bit_count():
                    continue
                sub = mb.delete_vertices(g, [v for v in range(g.n) if not mask >> v & 1])[0]
                if mb.classify(sub).is_forest:
                    assert _forest_cover(g.adj, mask, e) == mb.min_path_cover(sub).size
                else:
                    cyclic_seen += 1
                    assert _forest_cover(g.adj, mask, e) is None
        assert cyclic_seen > 100

    # path_cover_bruteforce searches edge subsets and shares no traversal
    # with the level greedy, unlike min_path_cover
    def test_matches_bruteforce_on_random_forests(self):
        rng = random.Random(20261025)
        for _ in range(200):
            g = random_forest(rng, BRUTE_PATH_COVER_MAX_N)
            assert _forest_cover(g.adj, (1 << g.n) - 1, g.m) == mb.path_cover_bruteforce(g).size, g.graph6()

    def test_matches_bruteforce_on_induced_masks(self):
        rng = random.Random(20261026)
        forests_seen = 0
        for _ in range(12):
            g = random_graph(rng.randint(4, BRUTE_PATH_COVER_MAX_N), 0.25, rng)
            for mask in range(1 << g.n):
                sub = mb.delete_vertices(g, [v for v in range(g.n) if not mask >> v & 1])[0]
                if mb.classify(sub).is_forest:
                    forests_seen += 1
                    assert _forest_cover(g.adj, mask, sub.m) == mb.path_cover_bruteforce(sub).size
        assert forests_seen > 5000


class TestBruteforce:
    def test_cycle_needs_one_path_less(self):
        assert mb.path_cover_bruteforce(mb.cycle_graph(5)).size == 1

    def test_cap(self):
        with pytest.raises(PathCoverError):
            mb.path_cover_bruteforce(Graph.from_edges(13))
        with pytest.raises(PathCoverError):
            mb.induced_path_cover_bruteforce(Graph.from_edges(9))

    def test_work_cap(self):
        # K_3,9 needs 6 paths, as each path holds at most one more vertex of
        # the 9-side than of the 3-side, so the search would try every 7- to
        # 11-subset of its 27 edges; K9 stays within the cap
        k39 = Graph.from_edges(12, [(i, j) for i in range(3) for j in range(3, 12)])
        with pytest.raises(PathCoverError, match="tried 2097152 edge subsets"):
            mb.path_cover_bruteforce(k39)
        assert mb.path_cover_bruteforce(mb.complete_graph(9)).size == 1

    def test_induced_equals_plain_on_forests(self, rng):
        for n in (5, 6, 7):
            for _ in range(25):
                g = random_tree(n, rng)
                assert (
                    mb.induced_path_cover_bruteforce(g).size
                    == mb.path_cover_bruteforce(g).size
                )

    def test_induced_stricter_on_dense_graphs(self):
        # K_4: any 3 vertices span a triangle, so induced paths have <= 2
        # vertices and the induced cover needs 2, while a plain cover is
        # a single hamiltonian path
        k4 = mb.complete_graph(4)
        assert mb.path_cover_bruteforce(k4).size == 1
        assert mb.induced_path_cover_bruteforce(k4).size == 2

    def test_induced_cover_paths_are_induced(self, rng):
        from conftest import random_graph

        for _ in range(30):
            g = random_graph(7, 0.4, rng)
            cover = mb.induced_path_cover_bruteforce(g)
            cover_is_valid(g, cover)
            for path in cover.paths:
                inside = set(path)
                for i, u in enumerate(path):
                    for v in path[i + 1 :]:
                        expected = abs(path.index(u) - path.index(v)) == 1
                        assert g.has_edge(u, v) == expected
