"""Zero forcing: closure legality, frozen forcing numbers, and the
t_plus-witness construction."""

import itertools
import random

import pytest

import mrbounds as mb
from mrbounds import forcing
from mrbounds.core import _bits, _mask_of
from mrbounds.forcing import _closure_mask, _z_value
from conftest import class_representatives, random_graph, random_tree, random_tree_edges

FIG4 = mb.generate_family("fig4")


def assert_legal_trace(g, trace):
    """Replay the trace and check every force was legal when applied."""
    colored = set(trace.initial)
    for u, v in trace.forces:
        assert u in colored and v not in colored
        white_nbrs = [w for w in g.neighbors(u) if w not in colored]
        assert white_nbrs == [v]
        colored.add(v)
    assert colored == set(trace.final)
    # final set is closed: no colored vertex has exactly one white neighbor
    for u in trace.final:
        white = [w for w in g.neighbors(u) if w not in trace.final]
        assert len(white) != 1


def first_forcing_set(g):
    """Reference for the Z witness: a (size, lex) scan from size 0 through
    forcing_closure."""
    for k in range(g.n + 1):
        for sub in itertools.combinations(range(g.n), k):
            if mb.forcing_closure(g, sub).forces_all(g.n):
                return k, frozenset(sub)


class TestForcingClosure:
    def test_path_endpoint_forces_all(self):
        g = mb.path_graph(4)
        tr = mb.forcing_closure(g, [0])
        assert tr.forces == ((0, 1), (1, 2), (2, 3))
        assert tr.forces_all(4)

    def test_cycle_single_vertex_stalls(self):
        # both neighbors white, the rule never fires
        tr = mb.forcing_closure(mb.cycle_graph(4), [0])
        assert tr.forces == ()
        assert tr.final == frozenset({0})

    def test_two_pendants_force_eight_vertices(self):
        tr = mb.forcing_closure(FIG4, [0, 3])
        assert tr.forces_all(8)
        assert len(tr.forces) == 6

    def test_initial_set_preserved(self):
        tr = mb.forcing_closure(mb.cycle_graph(5), [4, 2])
        assert tr.initial == frozenset({2, 4})
        assert tr.initial <= tr.final

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError):
            mb.forcing_closure(mb.path_graph(3), [3])

    def test_traces_are_legal(self, rng):
        for _ in range(60):
            g = random_graph(8, 0.3, rng)
            b = [v for v in range(8) if rng.random() < 0.3]
            tr = mb.forcing_closure(g, b)
            assert_legal_trace(g, tr)

    def test_closure_idempotent_and_monotone(self, rng):
        for _ in range(40):
            g = random_graph(7, 0.35, rng)
            b = frozenset(v for v in range(7) if rng.random() < 0.3)
            fin = mb.forcing_closure(g, b).final
            assert mb.forcing_closure(g, fin).final == fin
            bigger = b | {rng.randrange(7)}
            assert fin <= mb.forcing_closure(g, bigger).final


class TestClosureWorklist:
    """forcing._closure_mask, the searches' worklist closure, against
    forcing_closure, the public trace that applies one force at a time."""

    def test_every_subset_of_every_class_up_to_n6(self):
        for n in range(7):
            for g in class_representatives(n):
                for b in range(1 << n):
                    assert _closure_mask(g.adj, b) == _mask_of(mb.forcing_closure(g, _bits(b)).final), (g.graph6(), b)

    def test_seeded_graphs(self):
        rng = random.Random(20261022)
        for n in range(8, 14):
            for p in (0.15, 0.3, 0.5):
                g = random_graph(n, p, rng)
                for _ in range(40):
                    b = _mask_of(v for v in range(n) if rng.random() < 0.3)
                    assert _closure_mask(g.adj, b) == _mask_of(mb.forcing_closure(g, _bits(b)).final), (g.graph6(), b)

    def test_wavefront_lists_only_what_can_force(self, monkeypatch):
        # the wavefront lists only the vertices a step adds and their
        # colored neighbours; on every state it expands that closure must
        # be the one from all colored vertices
        closure = forcing._closure_mask
        seen = []

        def spy(adj, filled, todo=None):
            t = closure(adj, filled, todo)
            if todo is not None:
                seen.append(filled)
                assert t == closure(adj, filled), (filled, todo)
            return t

        monkeypatch.setattr(forcing, "_closure_mask", spy)
        rng = random.Random(20261023)
        graphs = [g for n in range(1, 7) for g in class_representatives(n)]
        graphs += [mb.star_graph(12), mb.sun_graph(5), mb.wheel_graph(7), FIG4]
        graphs += [random_graph(n, p, rng) for n in (9, 11, 13) for p in (0.2, 0.35, 0.6)]
        for g in graphs:
            assert _z_value(g.adj, g.n) == mb.zero_forcing_number(g)[0]
        assert len(seen) > 5_000


class TestZeroForcingNumber:
    @pytest.mark.parametrize(
        "g, z",
        [
            (mb.path_graph(1), 1),
            (mb.path_graph(8), 1),
            (mb.cycle_graph(3), 2),
            (mb.cycle_graph(9), 2),
            (mb.complete_graph(5), 4),
            (mb.star_graph(6), 4),
            # at the search cap, one component per vertex or per edge, and
            # K_1,15, whose twin leaves give the most closed sets
            (mb.Graph.from_edges(16), 16),
            (mb.Graph.from_edges(16, [(2 * i, 2 * i + 1) for i in range(8)]), 8),
            (mb.star_graph(16), 14),
        ],
    )
    def test_standard_values(self, g, z):
        k, witness = mb.zero_forcing_number(g)
        assert k == z
        assert mb.forcing_closure(g, witness).forces_all(g.n)

    @pytest.mark.parametrize("n, z", [(3, 2), (4, 2), (5, 3), (6, 3), (7, 4)])
    def test_sun_values(self, n, z):
        assert mb.zero_forcing_number(mb.sun_graph(n))[0] == z

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_wheel_values(self, n):
        k, witness = mb.zero_forcing_number(mb.wheel_graph(n))
        assert k == 3
        assert witness == frozenset({0, 1, 2})

    def test_lex_smallest_witness(self):
        k, witness = mb.zero_forcing_number(FIG4)
        assert k == 2
        assert witness == frozenset({0, 3})

    def test_witness_actually_forces(self, rng):
        for _ in range(25):
            g = random_graph(7, 0.3, rng)
            k, witness = mb.zero_forcing_number(g)
            assert len(witness) == k
            tr = mb.forcing_closure(g, witness)
            assert tr.forces_all(g.n)
            assert_legal_trace(g, tr)

    def test_witness_matches_scan_from_size_zero(self):
        graphs = [g for n in range(7) for g in class_representatives(n)]
        graphs += [mb.complete_graph(n) for n in range(8)]
        graphs += [mb.star_graph(n) for n in range(2, 9)]
        graphs += [mb.cycle_graph(n) for n in range(3, 9)]
        for g in graphs:
            ref = first_forcing_set(g)
            assert mb.zero_forcing_number(g) == ref, g.graph6()
            assert _z_value(g.adj, g.n) == ref[0]

    def test_matches_scan_on_every_class_up_to_n7(self):
        # graph_atlas_g lists one graph per isomorphism class with n <= 7
        nx = pytest.importorskip("networkx")
        atlas = [h for h in nx.graph_atlas_g() if h.number_of_nodes()]
        assert len(atlas) == 1252
        for h in atlas:
            g = mb.Graph.from_edges(h.number_of_nodes(), h.edges())
            ref = first_forcing_set(g)
            assert mb.zero_forcing_number(g) == ref, g.graph6()
            assert _z_value(g.adj, g.n) == ref[0]

    def test_matches_scan_on_random_graphs(self, rng):
        isolated = 0
        for _ in range(200):
            g = random_graph(rng.randint(8, 12), rng.choice([0.1, 0.2, 0.35, 0.5, 0.65, 0.8]), rng)
            isolated += not all(g.adj)
            ref = first_forcing_set(g)
            assert mb.zero_forcing_number(g) == ref, g.graph6()
            assert _z_value(g.adj, g.n) == ref[0]
        assert isolated  # some components are single vertices

    def test_union_witness_is_union_of_part_witnesses(self):
        wheel, sun = mb.wheel_graph(6), mb.sun_graph(4)
        # increasing label maps that interleave the two parts
        to_wheel = (0, 2, 4, 6, 8, 10)
        to_sun = (1, 3, 5, 7, 9, 11, 12, 13)
        g = mb.Graph.from_edges(
            14,
            [(to_wheel[u], to_wheel[v]) for u, v in wheel.edges]
            + [(to_sun[u], to_sun[v]) for u, v in sun.edges],
        )
        kw, ww = mb.zero_forcing_number(wheel)
        ks, ws = mb.zero_forcing_number(sun)
        k, witness = mb.zero_forcing_number(g)
        assert k == kw + ks == 5
        assert witness == {to_wheel[v] for v in ww} | {to_sun[v] for v in ws}
        assert (k, witness) == first_forcing_set(g)

    def test_search_cap(self):
        with pytest.raises(mb.ForcingError):
            mb.zero_forcing_number(mb.path_graph(17))

    def test_search_cap_is_per_component(self):
        # both entry points check each component, so they take 17 isolated
        # vertices and two disjoint C10s and refuse a 17-vertex component
        # beside an isolated vertex
        c10 = mb.cycle_graph(10)
        two_c10 = mb.Graph.from_edges(20, [*c10.edges, *((u + 10, v + 10) for u, v in c10.edges)])
        for g, z in ((mb.Graph.from_edges(17), 17), (two_c10, 4)):
            assert mb.zero_forcing_number(g)[0] == _z_value(g.adj, g.n) == z
        g = mb.Graph.from_edges(18, mb.path_graph(17).edges)
        for run in (lambda: mb.zero_forcing_number(g), lambda: _z_value(g.adj, g.n)):
            with pytest.raises(mb.ForcingError, match="17-vertex component needs 131072 vertex sets"):
                run()


class TestForcingSetFromTplus:
    def test_forest_uses_one_endpoint_per_path(self):
        g = mb.path_graph(6)
        w = mb.t_plus(g)
        assert w.s == frozenset()
        assert mb.forcing_set_from_tplus(g, w) == frozenset({0})

    @pytest.mark.parametrize("n", [4, 5, 8])
    def test_cycle(self, n):
        g = mb.cycle_graph(n)
        w = mb.t_plus(g)
        f = mb.forcing_set_from_tplus(g, w)
        assert len(f) <= w.value
        assert mb.forcing_closure(g, f).forces_all(n)

    def test_wheel(self):
        g = mb.wheel_graph(5)
        w = mb.t_plus(g)
        f = mb.forcing_set_from_tplus(g, w)
        assert len(f) <= w.value == 3
        assert mb.forcing_closure(g, f).forces_all(5)

    def test_size_bounded_by_t_plus_everywhere(self, rng):
        graphs = [random_graph(7, 0.35, rng) for _ in range(50)]
        # cyclic graphs n 8..16: a random tree plus 0, 2, 4 or 6 chords
        seeded = random.Random(20261019)
        for n in range(8, 17):
            for chords in (0, 2, 4, 6):
                for _ in range(3):
                    tree = random_tree(n, seeded)
                    missing = sorted(set(itertools.combinations(range(n), 2)) - tree.edges)
                    graphs.append(mb.Graph.from_edges(n, [*tree.edges, *seeded.sample(missing, chords)]))
        for g in graphs:
            w = mb.t_plus(g)
            f = mb.forcing_set_from_tplus(g, w)
            assert len(f) == w.value, g.graph6()
            assert mb.forcing_closure(g, f).forces_all(g.n), g.graph6()

    def test_wrong_parameter_rejected(self):
        g = mb.cycle_graph(5)
        w = mb.t_minus(g)
        with pytest.raises(mb.ForcingError):
            mb.forcing_set_from_tplus(g, w)

    @pytest.mark.parametrize("s,error", [
        ({9}, ValueError),  # out of range for n = 5
        ({0}, mb.ForcingError),  # leaves the cycle 1-2-3-4 while claiming a forest
    ], ids=["out-of-range", "cyclic"])
    def test_malformed_witness_keeps_its_error(self, s, error):
        g = mb.wheel_graph(5)
        w = mb.t_plus(g)
        with pytest.raises(error) as exc:
            mb.forcing_set_from_tplus(g, mb.DeletionWitness("t_plus", frozenset(s), w.value, w.decomposition, 1))
        assert exc.type is error  # exactly: a ForcingError is a ValueError too

    def test_forest_is_tested_on_the_graph(self):
        # S = {} on C4 with P4's forest decomposition: the witness's own
        # decomposition says forest, but C4 - S is the cycle itself
        g = mb.cycle_graph(4)
        forged = mb.DeletionWitness("t_plus", frozenset(), 1, mb.t_plus(mb.path_graph(4)).decomposition, 1)
        with pytest.raises(mb.ForcingError, match="does not leave a forest"):
            mb.forcing_set_from_tplus(g, forged)

    def test_witness_value_is_checked(self):
        # on P4, S = {1, 2} leaves P(G - S) + |S| = 4, not the claimed 1
        g = mb.path_graph(4)
        w = mb.DeletionWitness("t_plus", frozenset({1, 2}), 1, mb.t_plus(g).decomposition, 1)
        with pytest.raises(mb.ForcingError, match="claims t_plus = 1"):
            mb.forcing_set_from_tplus(g, w)


class TestPathCoverEndLemma:
    """Any set holding one end of each path of a path cover of a forest
    forces the forest (the lemma in forcing_set_from_tplus's docstring)."""

    ALL_CHOICES_MAX_PATHS = 10
    SAMPLED_CHOICES = 64

    def test_every_end_choice_forces(self, rng):
        for n in range(1, 41):
            for _ in range(3):
                tree = random_tree_edges(n, rng)
                g = mb.Graph.from_edges(n, [e for e in sorted(tree) if rng.random() < 0.8])
                ends = [(p[0], p[-1]) for p in mb.min_path_cover(g).paths]
                if len(ends) <= self.ALL_CHOICES_MAX_PATHS:
                    choices = itertools.product((0, 1), repeat=len(ends))
                else:
                    choices = ([rng.randrange(2) for _ in ends] for _ in range(self.SAMPLED_CHOICES))
                for pick in choices:
                    b = {pair[side] for pair, side in zip(ends, pick)}
                    assert mb.forcing_closure(g, b).forces_all(n), (g.graph6(), b)
