"""Deletion parameters: golden values, witness canonicality, cap soundness."""

import itertools
import time

import pytest

import mrbounds as mb
from mrbounds import Graph
from mrbounds.deletion import DeletionError, _delta_values, _t_values
from mrbounds.reports import enumerate_small_graphs
from conftest import random_graph, random_tree


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


def brute_t(g, minimize):
    """Independent oracle: scan every deletion set, no caps, no components."""
    adj = g.adj
    best = None
    for q in range(g.n + 1):
        for sub in itertools.combinations(range(g.n), q):
            sg, _ = mb.delete_vertices(g, sub)
            if not mb.classify(sg).is_forest:
                continue
            p = mb.path_cover_bruteforce(sg).size
            val = p + q if minimize else p - q
            if best is None or (val < best if minimize else val > best):
                best = val
    return best


def first_linear_optima(g):
    """Reference for the canonical delta and delta_plus witnesses: scan every
    deletion set of the whole graph in (size, lex) order, no components, no
    pruning, and keep the first set with the optimal score.  Returns
    {parameter: (set, value, path count)}."""
    best = {}
    for q in range(g.n + 1):
        for sub in itertools.combinations(range(g.n), q):
            deco = mb.classify(mb.delete_vertices(g, sub)[0])
            if not deco.is_linear_forest:
                continue
            for name, val, better in (("delta", deco.p - q, int.__gt__),
                                      ("delta_plus", deco.p + q, int.__lt__)):
                if name not in best or better(val, best[name][1]):
                    best[name] = (frozenset(sub), val, deco.p)
    return best


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
        assert brute_t(g, minimize=False) == tm
        assert brute_t(g, minimize=True) == tp

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

    def test_delta_brute_canonical(self):
        d = mb.delta(FIG1, bruteforce=True)
        assert d.value == 2
        assert sorted(d.s) == [1, 3]
        assert d.decomposition.is_linear_forest
        assert d.decomposition.p - len(d.s) == 2

    def test_delta_upgrade_equals_brute_value(self, rng):
        for _ in range(60):
            g = random_graph(6, 0.4, rng)
            assert mb.delta(g).value == mb.delta(g, bruteforce=True).value

    @pytest.mark.parametrize("source", ["labeled_n_le_5", "interleaved_unions"])
    def test_delta_witnesses_match_global_scan(self, source, rng):
        if source == "labeled_n_le_5":
            graphs = [g for n in range(6) for g in enumerate_small_graphs(n)]
        else:
            graphs = [interleaved_union(rng) for _ in range(100)]
        for g in graphs:
            ref = first_linear_optima(g)
            for w in (mb.delta(g, bruteforce=True), mb.delta_plus(g)):
                assert (w.s, w.value, w.p_or_cover) == ref[w.parameter], g.graph6()

    def test_delta_brute_cap(self):
        with pytest.raises(DeletionError):
            mb.delta(Graph.from_edges(17), bruteforce=True)
        with pytest.raises(DeletionError):
            mb.delta_plus(Graph.from_edges(17))


class TestCaps:
    def test_capped_equals_uncapped_random(self, rng):
        for _ in range(30):
            g = random_graph(6, 0.5, rng)
            assert mb.t_minus(g).value == mb.t_minus(g, capped=False).value
            assert mb.t_plus(g).value == mb.t_plus(g, capped=False).value

    def test_capped_witness_identical(self, rng):
        for _ in range(30):
            g = random_graph(6, 0.5, rng)
            assert mb.t_minus(g).s == mb.t_minus(g, capped=False).s
            assert mb.t_plus(g).s == mb.t_plus(g, capped=False).s

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
            assert _delta_values(g.adj, g.n) == (
                mb.delta(g, bruteforce=True).value,
                mb.delta_plus(g).value,
            )


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
                reduced = mb.reduce_optimal_set(g, grown, param)
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
            mb.reduce_optimal_set(mb.cycle_graph(4), {0}, parameter="zeta")
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
