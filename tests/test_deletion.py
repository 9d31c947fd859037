"""Deletion parameters: golden values, witness canonicality, work caps."""

import itertools
import random
import time

import pytest

import mrbounds as mb
from mrbounds import Graph, deletion
from mrbounds.core import _bits, _decomposition_of_mask, _edge_count, _level_bfs, _mask_of
from mrbounds.deletion import (
    DeletionError,
    _deletion_sets,
    _delta_values,
    _search,
    _suffix_degrees,
    _t_values,
    _walk,
)
from mrbounds.reports import _isomorphism_classes, enumerate_small_graphs
from conftest import class_representatives, first_optima, random_graph, random_tree


FIG1 = mb.generate_family("fig1")
HTREE = mb.generate_family("fig3")
FIG4 = mb.generate_family("fig4")


# (graph, t_minus, t_plus, delta, delta_plus) computed by exhaustive
# enumeration over all deletion sets with an independent script
GOLDEN = [
    (FIG1, 2, 2, 2, 2),
    (mb.generalized_star(3, 2), 2, 2, 2, 3),
    (HTREE, 2, 2, 2, 3),
    (FIG4, 2, 4, 2, 4),
    (mb.sun_graph(3), 1, 3, 1, 3),
    (mb.sun_graph(4), 2, 4, 2, 4),
    (mb.sun_graph(5), 2, 4, 2, 5),
    (mb.wheel_graph(4), -1, 3, -1, 3),
    (mb.wheel_graph(5), -1, 3, -1, 3),
    (mb.wheel_graph(6), -1, 3, -1, 3),
    (mb.star_graph(4), 2, 2, 2, 2),
    (mb.star_graph(5), 3, 3, 3, 3),
    (mb.cycle_graph(3), 0, 2, 0, 2),
    (mb.cycle_graph(4), 0, 2, 0, 2),
    (mb.cycle_graph(5), 0, 2, 0, 2),
    (mb.complete_graph(5), -2, 4, -2, 4),
    (Graph.from_edges(1), 1, 1, 1, 1),
    (Graph.from_edges(0), 0, 0, 0, 0),
]


def interleaved_union(rng):
    """Disjoint union of two random graphs whose vertex labels interleave."""
    n = rng.randint(6, 10)
    labels = list(range(n))
    rng.shuffle(labels)
    a = rng.randint(2, n - 2)
    sides = (labels[:a], labels[a:])
    edges = [e for side in sides for e in itertools.combinations(side, 2) if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


class TestGoldenValues:
    @pytest.mark.parametrize("g,tm,tp,d,dp", GOLDEN)
    def test_values(self, g, tm, tp, d, dp):
        assert mb.t_minus(g).value == tm
        assert mb.t_plus(g).value == tp
        assert mb.delta(g).value == d
        assert mb.delta_plus(g).value == dp

    @pytest.mark.parametrize("g,tm,tp,d,dp", [row for row in GOLDEN if row[0].n <= 8])
    def test_against_uncapped_oracle(self, g, tm, tp, d, dp):
        ref = first_optima(g)
        assert (ref["t_minus"][1], ref["t_plus"][1], ref["delta_plus"][1]) == (tm, tp, dp)

    def test_complement_of_fig4_values(self):
        # t_minus can be very negative on dense graphs
        comp_edges = [
            (u, v)
            for u, v in itertools.combinations(range(8), 2)
            if not FIG4.has_edge(u, v)
        ]
        g = Graph.from_edges(8, comp_edges)
        tm = mb.t_minus(g)
        tp = mb.t_plus(g)
        assert tm.value == mb.delta(g).value
        assert tm.value <= tp.value <= mb.delta_plus(g).value <= 8


class TestWitnesses:
    def test_fig1_witnesses(self):
        w = mb.t_minus(FIG1)
        assert sorted(w.s) == [1]
        assert w.p_or_cover == 3 and w.value == 2
        assert w.decomposition.is_forest

        d = mb.delta(FIG1)
        assert sorted(d.s) == [1, 3]
        assert d.value == 2 and d.p_or_cover == 4
        assert d.decomposition.is_linear_forest

    def test_witness_decompositions_consistent(self, rng):
        for _ in range(40):
            g = random_graph(7, 0.35, rng)
            for op, linear in ((mb.t_minus, False), (mb.t_plus, False),
                               (mb.delta, True), (mb.delta_plus, True)):
                w = op(g)
                left = set(range(g.n)) - w.s
                assert set(v for comp in w.decomposition.components for v in comp) == left
                if linear:
                    assert w.decomposition.is_linear_forest
                    assert w.decomposition.p == w.p_or_cover
                else:
                    assert w.decomposition.is_forest

    def test_t_witness_scores_match_value(self, rng):
        for _ in range(40):
            g = random_graph(6, 0.45, rng)
            tm = mb.t_minus(g)
            sub, _ = mb.delete_vertices(g, tm.s)
            assert mb.path_cover_bruteforce(sub).size - len(tm.s) == tm.value
            tp = mb.t_plus(g)
            sub, _ = mb.delete_vertices(g, tp.s)
            assert mb.path_cover_bruteforce(sub).size + len(tp.s) == tp.value

    def test_canonical_smallest_then_lex(self):
        # C_5: every single vertex is optimal for both; 0 must be chosen
        w = mb.t_minus(mb.cycle_graph(5))
        assert sorted(w.s) == [0]
        w = mb.t_plus(mb.cycle_graph(5))
        assert sorted(w.s) == [0]

    def test_delta_upgrade_equals_brute_value(self, rng):
        for _ in range(60):
            g = random_graph(6, 0.4, rng)
            assert mb.delta(g).value == _delta_values(g.adj, g.n)[0]

    @pytest.mark.parametrize("source", ["labeled_n_le_5", "interleaved_unions"])
    def test_delta_witnesses_match_global_scan(self, source, rng):
        if source == "labeled_n_le_5":
            graphs = [g for n in range(6) for g in enumerate_small_graphs(n)]
        else:
            graphs = [interleaved_union(rng) for _ in range(100)]
        for g in graphs:
            w = mb.delta_plus(g)
            assert (w.s, w.value, w.p_or_cover) == first_optima(g)["delta_plus"], g.graph6()

    def test_delta_brute_cap(self):
        # the cap is per component: P17 is refused, 17 isolated vertices are not
        with pytest.raises(DeletionError, match="17-vertex component"):
            mb.delta_plus(mb.path_graph(17))
        assert mb.delta_plus(Graph.from_edges(17)).value == 17


class TestPrunedKernel:
    @pytest.mark.parametrize("source", ["labeled_n_le_5", "classes_n6", "complete_and_empty", "random_n9_11"])
    def test_matches_plain_scan(self, source):
        if source == "labeled_n_le_5":
            graphs = [g for n in range(6) for g in enumerate_small_graphs(n)]
        elif source == "classes_n6":
            graphs = class_representatives(6)
        elif source == "complete_and_empty":
            graphs = [mb.complete_graph(n) for n in range(1, 8)] + [Graph.from_edges(n) for n in range(8)]
        else:
            rng = random.Random(20261018)
            graphs = [random_graph(n, p, rng) for n in (9, 10, 11) for p in (0.2, 0.35, 0.6)]
        for g in graphs:
            ref = first_optima(g)
            # the three searches of a report, from one joint walk
            joint = _search(g, ("t_minus", "t_plus", "delta_plus"))
            for w in (mb.t_minus(g), mb.t_plus(g), mb.delta_plus(g), *joint):
                assert (w.s, w.value, w.p_or_cover) == ref[w.parameter], (w.parameter, g.graph6())
            assert _t_values(g.adj, g.n) == (ref["t_minus"][1], ref["t_plus"][1])

    def test_delta_has_one_engine(self):
        # delta is always the t_minus upgrade: no keyword picks another
        # engine, and the walk keeps no delta record; t+- take no keyword
        # that widens their size limit
        with pytest.raises(TypeError):
            mb.delta(FIG1, bruteforce=True)
        with pytest.raises(KeyError):
            _walk(FIG1.adj, FIG1.n, ("delta",))
        for op in (mb.t_minus, mb.t_plus):
            with pytest.raises(TypeError):
                op(FIG1, capped=False)

    def test_count_never_sees_a_cyclic_kept_set(self, monkeypatch):
        # K8 less a 3-edge matching: most kept sets hold a cycle
        missing = {(0, 1), (2, 3), (4, 5)}
        g = Graph.from_edges(8, [e for e in itertools.combinations(range(8), 2) if e not in missing])
        ref = first_optima(g)
        count = deletion._forest_cover
        seen = []

        def spy(adj, rest, edges):
            seen.append(rest)
            assert edges == _edge_count(adj, rest)
            return count(adj, rest, edges)

        monkeypatch.setattr(deletion, "_forest_cover", spy)
        names = tuple(ref)
        for asked in (names, *((name,) for name in names)):
            seen.clear()
            for name, (value, s, p) in zip(asked, _walk(g.adj, g.n, asked)):
                assert (frozenset(_bits(s)), value, p) == ref[name], (asked, name)
            assert seen
            assert all(rest == 0 or _edge_count(g.adj, rest) < rest.bit_count() for rest in seen), asked


def kept_set_sweep(adj, n):
    """Reference for _delta_values: (delta, delta_plus) from the path count of
    classify's decomposition of each kept-set mask on its own, with no order
    between masks."""
    best_minus, best_plus = -n, n
    for mask in range(1 << n):
        d = _decomposition_of_mask(adj, mask)
        if d.is_linear_forest:
            q = n - mask.bit_count()
            best_minus = max(best_minus, d.p - q)
            best_plus = min(best_plus, d.p + q)
    return best_minus, best_plus


class TestDeltaValues:
    """The one-pass kept-set DP of _delta_values against the per-mask sweep."""

    @pytest.mark.parametrize("n", range(7))
    def test_every_labeled_graph(self, n):
        # the values are invariants, so the sweep runs once per isomorphism
        # class, while the DP, whose pass depends on the labels, runs on each
        # labeled member
        swept = []
        for g, c in _isomorphism_classes(n):
            if c == len(swept):
                swept.append(kept_set_sweep(g.adj, n))
            assert _delta_values(g.adj, n) == swept[c], g.graph6()

    def test_random_graphs(self):
        rng = random.Random(20261019)
        for n in range(7, 15):
            for p in (0.15, 0.3, 0.5):
                g = random_graph(n, p, rng)
                assert _delta_values(g.adj, n) == kept_set_sweep(g.adj, n), g.graph6()

    @pytest.mark.parametrize(
        "g",
        [mb.cycle_graph(n) for n in (3, 4, 5, 8, 11)]
        + [mb.wheel_graph(n) for n in (4, 5, 7, 10)]
        + [mb.complete_graph(n) for n in (1, 2, 3, 4, 6, 9)]
        + [mb.star_graph(16)],
        ids=lambda g: g.graph6(),
    )
    def test_families(self, g):
        assert _delta_values(g.adj, g.n) == kept_set_sweep(g.adj, g.n)


class TestDeletionSetWalk:
    """_deletion_sets against itertools.combinations, on whole graphs and on
    the components _component_walk passes it."""

    @staticmethod
    def walk(g, q, vs=None, limit=None):
        # vs defaults to the whole graph, and the suffix table's limit to q
        vs = tuple(range(g.n)) if vs is None else vs
        edges = _edge_count(g.adj, _mask_of(vs))
        return _deletion_sets(g.adj, vs, q, edges, _suffix_degrees(g.adj, vs, q if limit is None else limit))

    @staticmethod
    def combinations(g, q, vs=None):
        vs = tuple(range(g.n)) if vs is None else vs
        out = []
        for sub in itertools.combinations(vs, q):
            s = _mask_of(sub)
            out.append((s, _edge_count(g.adj, _mask_of(vs) & ~s)))
        return out

    def kept(self, g, q, vs=None):
        # the sets whose kept part K has e(K) < |K|, or K empty, in lex order
        nc = g.n if vs is None else len(vs)
        return [(s, e) for s, e in self.combinations(g, q, vs) if e < max(nc - q, 1)]

    def test_lex_order_when_no_prune_fires(self, rng):
        # every kept set of a forest is a forest, so nothing is pruned
        graphs = [Graph.from_edges(n) for n in range(6)] + [random_tree(n, rng) for n in (1, 4, 7, 9)]
        for g in graphs:
            for q in range(g.n + 1):
                assert self.walk(g, q) == self.combinations(g, q), (g.graph6(), q)

    def test_prunes_exactly_the_cyclic_edge_counts(self, rng):
        graphs = [mb.complete_graph(6), mb.wheel_graph(7)] + [random_graph(9, p, rng) for p in (0.3, 0.5, 0.8)]
        for g in graphs:
            for q in range(g.n + 1):
                assert self.walk(g, q) == self.kept(g, q), (g.graph6(), q)

    def test_random_graphs(self):
        rng = random.Random(20261019)
        for k in range(30):
            g = random_graph(10 + k % 4, (0.2, 0.35, 0.6)[k % 3], rng)
            for q in range(g.n + 1):
                assert self.walk(g, q) == self.kept(g, q), (g.graph6(), q)

    def test_components_as_the_component_walk_passes_them(self, rng):
        # each component of a union with interleaved labels, read through
        # the whole graph's adj, with the suffix table built up to the
        # component size as _component_walk builds it for delta_plus; a q
        # past the component size gives no sets
        for _ in range(10):
            g = interleaved_union(rng)
            for comp in _level_bfs(g.adj, (1 << g.n) - 1)[1]:
                vs = tuple(_bits(comp))
                for q in range(len(vs) + 3):
                    assert self.walk(g, q, vs, len(vs)) == self.kept(g, q, vs), (g.graph6(), vs, q)
                assert self.walk(g, len(vs) + 1, vs, len(vs)) == []

    def test_suffix_table(self):
        g = mb.star_graph(5)  # centre 0 of degree 4, leaves of degree 1
        vs = tuple(range(5))
        assert _suffix_degrees(g.adj, vs, 2) == [[0, 4, 5], [0, 1, 2], [0, 1, 2], [0, 1, 2], [0, 1], [0]]


class TestCaps:
    # t+- stop at each component's cycle space dimension; first_optima
    # scans every deletion set with no limit
    def test_capped_equals_uncapped_random(self, rng):
        for _ in range(30):
            g = random_graph(6, 0.5, rng)
            ref = first_optima(g)
            assert mb.t_minus(g).value == ref["t_minus"][1], g.graph6()
            assert mb.t_plus(g).value == ref["t_plus"][1], g.graph6()

    def test_capped_witness_identical(self, rng):
        for _ in range(30):
            g = random_graph(6, 0.5, rng)
            ref = first_optima(g)
            assert mb.t_minus(g).s == ref["t_minus"][0], g.graph6()
            assert mb.t_plus(g).s == ref["t_plus"][0], g.graph6()

    def test_t_work_cap(self):
        for op in (mb.t_minus, mb.t_plus):
            start = time.perf_counter()
            with pytest.raises(DeletionError):
                op(mb.complete_graph(40))
            assert time.perf_counter() - start < 0.5
        # forests and cycles stay within the cap at any size
        assert mb.t_minus(mb.path_graph(300)).value == 1
        assert mb.t_plus(mb.cycle_graph(60)).value == 2

    def test_light_values_agree_with_ops(self, rng):
        for _ in range(40):
            g = random_graph(7, 0.35, rng)
            assert _t_values(g.adj, g.n) == (mb.t_minus(g).value, mb.t_plus(g).value)
            assert _delta_values(g.adj, g.n) == (mb.delta(g).value, mb.delta_plus(g).value)


class TestAdditivity:
    def test_disjoint_union(self, rng):
        # all four parameters add over components
        for _ in range(15):
            a = random_graph(4, 0.5, rng)
            b = random_graph(4, 0.5, rng)
            edges = list(a.edges) + [(u + 4, v + 4) for u, v in b.edges]
            g = Graph.from_edges(8, edges)
            for op in (mb.t_minus, mb.t_plus, mb.delta, mb.delta_plus):
                assert op(g).value == op(a).value + op(b).value


class TestReduceOptimalSet:
    def test_cycle_reduction(self):
        assert mb.reduce_optimal_set(mb.cycle_graph(5), {0, 2}) == frozenset({2})

    def test_preserves_optimum_by_construction(self, rng):
        for _ in range(40):
            g = random_graph(7, 0.4, rng)
            for param, op in (("t_minus", mb.t_minus), ("t_plus", mb.t_plus)):
                w = op(g)
                # grow the optimal set by value-preserving additions only
                grown = set(w.s)
                for v in range(g.n):
                    cand = grown | {v}
                    sub, _ = mb.delete_vertices(g, cand)
                    if not mb.classify(sub).is_forest:
                        continue
                    p = mb.path_cover_bruteforce(sub).size
                    val = p + len(cand) if param == "t_plus" else p - len(cand)
                    if val == w.value:
                        grown = cand
                reduced = mb.reduce_optimal_set(g, grown)
                assert reduced <= grown
                k = mb.classify(g).p
                assert len(reduced) <= g.m - g.n + k
                sub, _ = mb.delete_vertices(g, reduced)
                p = mb.path_cover_bruteforce(sub).size
                val = p + len(reduced) if param == "t_plus" else p - len(reduced)
                assert val == w.value

    def test_rejects_non_feedback_input(self):
        with pytest.raises(DeletionError):
            mb.reduce_optimal_set(mb.wheel_graph(5), {0})
        with pytest.raises(DeletionError):
            mb.reduce_optimal_set(mb.cycle_graph(4), {9})


class TestForestFastPath:
    def test_trees_need_no_deletion(self, rng):
        for n in (5, 8, 12):
            for _ in range(20):
                g = random_tree(n, rng)
                tm, tp = mb.t_minus(g), mb.t_plus(g)
                assert tm.s == tp.s == frozenset()
                assert tm.value == tp.value == mb.min_path_cover(g).size
