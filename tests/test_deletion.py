"""Deletion parameters: golden values, witness canonicality, work caps."""

import itertools
import random
import sys
import time

import pytest

import mrbounds as mb
from mrbounds import Graph, deletion
from mrbounds.core import _bits, _decomposition_of_mask, _edge_count, _level_bfs, _mask_of
from mrbounds.deletion import (
    DeletionError,
    _deletion_sets,
    _delta_set,
    _delta_values,
    _search,
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

    def test_delta_walks_once(self, monkeypatch):
        # delta reads the t_minus value and mask off one walk and builds one
        # decomposition, its witness's; the witness is the t_minus upgrade
        rng = random.Random(20261031)
        graphs = [FIG1, random_tree(9, rng)] + [random_graph(n, p, rng) for n, p in ((6, 0.4), (8, 0.3), (10, 0.5))]
        calls = []

        def spy(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            return wrapped

        for g in graphs:
            tm = mb.t_minus(g)
            s = _delta_set(g.adj, g.n, _mask_of(tm.s), tm.value)
            deco = _decomposition_of_mask(g.adj, (1 << g.n) - 1 & ~s)
            with monkeypatch.context() as m:
                m.setattr(deletion, "_walk", spy("walk", deletion._walk))
                m.setattr(deletion, "_decomposition_of_mask", spy("decomposition", _decomposition_of_mask))
                calls.clear()
                w = mb.delta(g)
            assert sorted(calls) == ["decomposition", "walk"], g.graph6()
            assert (w.s, w.value, w.decomposition, w.p_or_cover) == (frozenset(_bits(s)), tm.value, deco, deco.p)

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

    def test_witnesses_when_degree_and_label_order_disagree(self):
        # relabel so that the higher a vertex's degree, the higher its label:
        # the walk takes vertices in descending degree, against lex order,
        # and must still return the (size, lex)-first optimum of each record
        rng = random.Random(20261020)
        for k in range(150):
            n = rng.randint(2, 8)
            g = random_tree(n, rng) if k % 4 == 0 else random_graph(n, (0.25, 0.4, 0.6)[k % 3], rng)
            order = sorted(range(n), key=lambda v: (g.adj[v].bit_count(), v))
            label = {v: i for i, v in enumerate(order)}
            h = Graph.from_edges(n, [(label[u], label[v]) for u, v in g.edges])
            ref = first_optima(h)
            joint = _search(h, ("t_minus", "t_plus", "delta_plus"))
            for w in (mb.t_minus(h), mb.t_plus(h), mb.delta_plus(h), *joint):
                assert (w.s, w.value, w.p_or_cover) == ref[w.parameter], (w.parameter, h.graph6())

    def test_delta_brute_cap(self):
        # the cap is per component: P17 is refused, 17 isolated vertices are not
        with pytest.raises(DeletionError, match="17-vertex component"):
            mb.delta_plus(mb.path_graph(17))
        assert mb.delta_plus(Graph.from_edges(17)).value == 17


class TestPrunedKernel:
    @pytest.mark.parametrize(
        "source", ["labeled_n_le_5", "classes_n6", "complete_and_empty", "random_n9_11", "random_n12_13"])
    def test_matches_plain_scan(self, source):
        if source == "labeled_n_le_5":
            graphs = [g for n in range(6) for g in enumerate_small_graphs(n)]
        elif source == "classes_n6":
            graphs = class_representatives(6)
        elif source == "complete_and_empty":
            graphs = [mb.complete_graph(n) for n in range(1, 8)] + [Graph.from_edges(n) for n in range(8)]
        elif source == "random_n9_11":
            rng = random.Random(20261018)
            graphs = [random_graph(n, p, rng) for n in (9, 10, 11) for p in (0.2, 0.35, 0.6)]
        else:
            # the densities where the kept-prefix cut and the edge floor
            # fire most, two graphs per cell
            rng = random.Random(20261021)
            graphs = [random_graph(n, p, rng) for n in (12, 13) for p in (0.35, 0.6) for _ in range(2)]
        for g in graphs:
            ref = first_optima(g)
            # the three searches of a report, from one joint walk, and the
            # two minimizing ones, whose joint walk sets its edge floor by
            # the larger of their bests
            joint = _search(g, ("t_minus", "t_plus", "delta_plus")) + _search(g, ("t_plus", "delta_plus"))
            for w in (mb.t_minus(g), mb.t_plus(g), mb.delta_plus(g), *joint):
                assert (w.s, w.value, w.p_or_cover) == ref[w.parameter], (w.parameter, g.graph6())
            assert _t_values(g.adj, g.n) == (ref["t_minus"][1], ref["t_plus"][1])

    def test_edge_floor_takes_the_larger_best(self):
        # two sparse 11-vertex graphs with t_plus 5 and delta_plus 6, where a
        # floor taken from the smaller best, t_plus's, would skip
        # delta_plus's canonical witness while both minimizing records walk
        for g6 in ("JGA?GI?rKg?", "J[G_L?GGAR?"):
            g = mb.parse_graph6(g6)
            ref = first_optima(g)
            for names in (("t_plus", "delta_plus"), ("t_minus", "t_plus", "delta_plus")):
                for w in _search(g, names):
                    assert (w.s, w.value, w.p_or_cover) == ref[w.parameter], (names, w.parameter, g6)

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

    def test_put_back_rule_fires_on_twin_leaves(self, monkeypatch):
        # K_1,15: every deletion set that holds the centre and a leaf has a
        # leaf with no neighbour left in K, so of the 2^15 sets with the
        # centre the walk counts only {0}; with the empty set and the leaf
        # sets of sizes 1..13 that makes 32,753 kept sets, where a walk
        # without the rule counts 65,399
        count = deletion._forest_cover
        seen = []

        def spy(adj, rest, edges):
            seen.append(rest)
            return count(adj, rest, edges)

        monkeypatch.setattr(deletion, "_forest_cover", spy)
        w = mb.delta_plus(mb.star_graph(16))
        assert sorted(w.s) == list(range(1, 14)) and w.value == 14
        assert len(seen) <= 32_753


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

    def test_walk_agrees_past_the_corpus(self):
        # the walk's t_minus and delta_plus against this independent pass on
        # reports_mid's shapes, 3 graphs per cell of n 12..14 and density
        # .2, .35, .6
        rng = random.Random(20261020)
        for n in (12, 13, 14):
            for p in (0.2, 0.35, 0.6):
                for _ in range(3):
                    g = random_graph(n, p, rng)
                    values = tuple(v for v, _, _ in _walk(g.adj, n, ("t_minus", "delta_plus")))
                    assert values == _delta_values(g.adj, n), g.graph6()


class TestDeletionSetWalk:
    """_deletion_sets against itertools.combinations, on whole graphs and on
    the components _component_walk passes it, each in the walk's order:
    descending degree, ties by label."""

    @staticmethod
    def order(g, vs=None):
        # vs defaults to the whole graph
        vs = range(g.n) if vs is None else vs
        return tuple(sorted(vs, key=lambda v: (-g.adj[v].bit_count(), v)))

    def walk(self, g, q, vs=None, need=0, floor=0):
        vs = self.order(g, vs)
        return _deletion_sets(g.adj, vs, q, _edge_count(g.adj, _mask_of(vs)), need, floor)

    def combinations(self, g, q, vs=None):
        vs = self.order(g, vs)
        out = []
        for sub in itertools.combinations(vs, q):
            s = _mask_of(sub)
            out.append((s, _edge_count(g.adj, _mask_of(vs) & ~s)))
        return out

    def kept(self, g, q, vs=None, need=0, floor=0):
        # the sets whose kept part K has floor <= e(K) < |K|, or K empty;
        # none of whose vertices has fewer than need neighbours outside the
        # vertices of S before it in vs; and none of whose kept prefixes,
        # the vertices of K up to a vertex of K that comes before the last
        # vertex of S in vs, has as many edges as vertices; in the order of
        # combinations over vs
        vs = self.order(g, vs)
        out = []
        for s, e in self.combinations(g, q, vs):
            before = prefix = edges = 0
            put_back = cyclic = cyclic_prefix = False
            for v in vs:
                if s >> v & 1:
                    put_back = put_back or (g.adj[v] & ~before).bit_count() < need
                    cyclic_prefix = cyclic
                    before |= 1 << v
                else:
                    edges += (g.adj[v] & prefix).bit_count()
                    prefix |= 1 << v
                    cyclic = cyclic or edges >= prefix.bit_count()
            if floor <= e < max(len(vs) - q, 1) and not put_back and not cyclic_prefix:
                out.append((s, e))
        return out

    @staticmethod
    def graphs(rng):
        """(graph, vertex set) pairs of the kinds the tests below use: empty
        graphs, trees, dense graphs and 30 seeded random graphs with n
        10..13, whole, and the components of 10 interleaved unions."""
        for g in [Graph.from_edges(n) for n in range(6)] + [random_tree(n, rng) for n in (1, 4, 7, 9)]:
            yield g, tuple(range(g.n))
        for g in [mb.complete_graph(6), mb.wheel_graph(7)] + [random_graph(9, p, rng) for p in (0.3, 0.5, 0.8)]:
            yield g, tuple(range(g.n))
        seeded = random.Random(20261019)
        for k in range(30):
            g = random_graph(10 + k % 4, (0.2, 0.35, 0.6)[k % 3], seeded)
            yield g, tuple(range(g.n))
        for _ in range(10):
            g = interleaved_union(rng)
            for comp in _level_bfs(g.adj, (1 << g.n) - 1)[1]:
                yield g, tuple(_bits(comp))

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
        # the whole graph's adj; a q past the component size gives no sets
        for _ in range(10):
            g = interleaved_union(rng)
            for comp in _level_bfs(g.adj, (1 << g.n) - 1)[1]:
                vs = tuple(_bits(comp))
                for q in range(len(vs) + 3):
                    assert self.walk(g, q, vs) == self.kept(g, q, vs), (g.graph6(), vs, q)
                assert self.walk(g, len(vs) + 1, vs) == []

    @staticmethod
    def extend_calls(adj, vs, q, edges, need, floor):
        """_deletion_sets' list and how many times it called extend."""
        calls = []

        def count(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "extend":
                calls.append(frame.f_code)

        old = sys.getprofile()
        sys.setprofile(count)
        try:
            sets = _deletion_sets(adj, vs, q, edges, need, floor)
        finally:
            sys.setprofile(old)
        return sets, len(calls)

    def test_cycle_prune_fires(self):
        # on K8 every kept set of 6 or 5 vertices has a cycle, so the root
        # level returns at its first candidate: one call of extend, and a
        # walk with no prune would recurse into every prefix
        g = mb.complete_graph(8)
        for q in (2, 3):
            assert self.extend_calls(g.adj, tuple(range(8)), q, 28, 0, 0) == ([], 1), q

    def test_kept_prefix_cut_fires(self):
        # W8, hub 7 first, then the rim 0..6 in cycle order, with 14 edges;
        # 4 of its 8 vertices deleted.  The degree-sum prune never fires at
        # the root: the four largest degrees left sum to 12 or more, and
        # 14 - 12 < 4 vertices kept.  The kept prefix 7, 0, 1 is a triangle,
        # so the root returns after its third candidate: 36 calls of extend,
        # where the walk without the cut makes 56; the 42 sets listed are
        # the same
        g = mb.wheel_graph(8)
        vs = self.order(g)
        reach = list(itertools.accumulate((g.adj[v].bit_count() for v in vs), initial=0))
        assert vs[:3] == (7, 0, 1) and all(14 - (reach[i + 4] - reach[i]) < 4 for i in range(5))
        sets, calls = self.extend_calls(g.adj, vs, 4, 14, 0, 0)
        assert sets == self.kept(g, 4) and len(sets) == 42 and calls == 36

    def test_edge_floor_cut_fires(self):
        # W8 again, 4 of its 8 vertices deleted, each with at least two
        # neighbours left in K: the 14 sets keep 1 or 3 edges.  A floor of 3
        # lists the 7 with 3 and passes over every candidate that leaves
        # fewer than 3 + 2(r - 1) edges: 15 calls of extend, where floor 0
        # makes 31
        g = mb.wheel_graph(8)
        vs = self.order(g)
        low, calls_low = self.extend_calls(g.adj, vs, 4, 14, 2, 0)
        high, calls_high = self.extend_calls(g.adj, vs, 4, 14, 2, 3)
        assert sorted({e for _, e in low}) == [1, 3] and len(low) == 14
        assert high == [(s, e) for s, e in low if e >= 3] and len(high) == 7
        assert (calls_low, calls_high) == (31, 15)

    def test_order_guard(self):
        # the prune reads the largest degrees left off the next vertices, so
        # a vertex order that is not descending in degree is refused
        with pytest.raises(AssertionError):
            _deletion_sets(mb.star_graph(5).adj, (1, 2, 3, 4, 0), 1, 4, 0, 0)

    @pytest.mark.parametrize("need", [0, 1, 2])
    def test_put_back_rule_in_degree_order(self, need, rng):
        for g, vs in self.graphs(rng):
            for q in range(len(vs) + 2):
                assert self.walk(g, q, vs, need) == self.kept(g, q, vs, need), (g.graph6(), vs, q)

    @pytest.mark.parametrize("floor", [1, 3, 6])
    def test_edge_floor(self, floor, rng):
        # the walk passes a floor only with need 1 (delta_plus walking) or 2
        for g, vs in self.graphs(rng):
            for q in range(len(vs) + 2):
                for need in (1, 2):
                    assert self.walk(g, q, vs, need, floor) == self.kept(g, q, vs, need, floor), (
                        g.graph6(), vs, q, need)


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
