"""Graph container, classification, graph6 io, families."""

import random

import pytest

import mrbounds as mb
from mrbounds import Graph
from mrbounds.core import Graph6Error, FamilyError, _bits, _independence_number, _is_forest_mask, _isolate, _level_bfs
from conftest import class_representatives, random_graph

FIG1 = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (3, 5)])
HTREE = Graph.from_edges(6, [(0, 1), (1, 2), (1, 4), (3, 4), (4, 5)])


class TestGraph:
    def test_from_edges_normalizes(self):
        g = Graph.from_edges(3, [(2, 0), (0, 1)])
        assert g.edges == frozenset({(0, 2), (0, 1)})
        assert g.m == 2

    def test_rejects_loops_and_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph(2, frozenset({(1, 0)}))  # unsorted pair
        with pytest.raises(ValueError, match="not an int with vertex count >= 0"):
            Graph(-1, frozenset())

    @pytest.mark.parametrize("edge", [(0, 1.0), (1.0, 2), (True, 2), (0, False), ("0", 1), (0, "2")])
    def test_rejects_endpoints_that_are_not_ints(self, edge):
        # a bool is not an int here, as in the vertex-set rule
        with pytest.raises(ValueError, match="int"):
            Graph.from_edges(3, [edge])
        with pytest.raises(ValueError, match="int"):
            Graph(3, frozenset({edge}))

    @pytest.mark.parametrize("n", [2.0, True, "3"], ids=["float", "bool", "str"])
    def test_rejects_vertex_counts_that_are_not_ints(self, n):
        # a bool is not an int here either, as in the vertex-set rule
        for edges in ((), [(0, 1)]):
            with pytest.raises(ValueError, match="vertex count"):
                Graph(n, frozenset(edges))
            with pytest.raises(ValueError, match="vertex count"):
                Graph.from_edges(n, edges)

    def test_adjacency_masks(self):
        g = FIG1
        assert g.adj[1] == (1 << 0) | (1 << 2) | (1 << 5)
        assert g.degree(3) == 3
        assert g.neighbors(5) == (1, 3)
        assert g.has_edge(5, 1) and not g.has_edge(0, 5)

    def test_empty_graph(self):
        g = Graph.from_edges(0)
        assert g.n == 0 and g.m == 0
        assert mb.classify(g).p == 0


class TestClassify:
    def test_kinds(self):
        deco = mb.classify(HTREE)
        assert deco.kinds == ("tree",)
        assert deco.is_forest and not deco.is_linear_forest

        deco = mb.classify(mb.path_graph(4))
        assert deco.kinds == ("path",) and deco.is_linear_forest

        deco = mb.classify(mb.cycle_graph(4))
        assert deco.kinds == ("cyclic",) and not deco.is_forest

    def test_mixed_components(self):
        g = Graph.from_edges(7, [(0, 1), (2, 3), (3, 4), (2, 4), (5, 6)])
        deco = mb.classify(g)
        assert deco.p == 3
        by_comp = dict(zip(deco.components, deco.kinds))
        assert by_comp[(0, 1)] == "path"
        assert by_comp[(2, 3, 4)] == "cyclic"
        assert by_comp[(5, 6)] == "path"

    def test_isolated_vertex_is_path(self):
        deco = mb.classify(Graph.from_edges(1))
        assert deco.kinds == ("path",)


class TestDeleteVertices:
    def test_labels_preserve_order(self):
        sub, labels = mb.delete_vertices(FIG1, {1, 3})
        assert labels == (0, 2, 4, 5)
        assert sub.n == 4 and sub.m == 0

    def test_edges_relabelled(self):
        sub, labels = mb.delete_vertices(mb.cycle_graph(5), {0})
        assert labels == (1, 2, 3, 4)
        assert sorted(sub.edges) == [(0, 1), (1, 2), (2, 3)]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mb.delete_vertices(FIG1, {9})


@pytest.mark.parametrize("v", [True, 1.0, 2.5, "1", -1, 4], ids=["True", "1.0", "2.5", "str", "-1", "n"])
@pytest.mark.parametrize("call,error", [
    (mb.delete_vertices, ValueError),
    (mb.forcing_closure, ValueError),
    (mb.reduce_optimal_set, mb.DeletionError),
    (lambda g, vs: g.degree(*vs), ValueError),
    (lambda g, vs: g.neighbors(*vs), ValueError),
    (lambda g, vs: g.has_edge(0, *vs), ValueError),
], ids=["delete_vertices", "forcing_closure", "reduce_optimal_set", "degree", "neighbors", "has_edge"])
def test_vertex_set_rule(call, error, v):
    # each vertex is an int, not a bool, in 0..n-1, on C4 (n = 4); as a
    # tuple index, -1 would reach the last vertex and n raise IndexError
    with pytest.raises(error) as exc:
        call(mb.cycle_graph(4), [v])
    assert exc.type is error


class TestLevelBfs:
    """_level_bfs, the one component traversal, against networkx."""

    @staticmethod
    def check(nx, g, mask):
        levels, comps = _level_bfs(g.adj, mask)
        h = nx.Graph()
        h.add_nodes_from(_bits(mask))
        h.add_edges_from((u, v) for u, v in g.edges if mask >> u & mask >> v & 1)
        theirs = sorted((sorted(c) for c in nx.connected_components(h)), key=min)
        assert [list(_bits(c)) for c in comps] == theirs
        # each vertex sits in exactly one level, its distance from the
        # lowest vertex of its component
        assert sum(level.bit_count() for level in levels) == mask.bit_count()
        depth = {v: d for d, level in enumerate(levels) for v in _bits(level)}
        for c in theirs:
            for v, d in nx.single_source_shortest_path_length(h, c[0]).items():
                assert depth[v] == d
        assert _is_forest_mask(g.adj, mask) == (mask == 0 or nx.is_forest(h))

    def test_every_labeled_graph(self):
        nx = pytest.importorskip("networkx")
        for n in range(7):
            for g in mb.enumerate_small_graphs(n):
                self.check(nx, g, (1 << n) - 1)

    def test_random_submasks(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(20261019)
        for _ in range(400):
            n = rng.randint(1, 16)
            g = random_graph(n, rng.choice((0.1, 0.2, 0.35, 0.6)), rng)
            self.check(nx, g, rng.getrandbits(n))


def brute_alpha(g):
    """Largest independent vertex set, by checking every subset."""
    best = 0
    for mask in range(1 << g.n):
        if mask.bit_count() > best and all(not (g.adj[v] & mask) for v in range(g.n) if mask >> v & 1):
            best = mask.bit_count()
    return best


class TestIsolate:
    def test_keeps_labels_and_isolates_s(self):
        g = _isolate(FIG1, {1, 3})
        assert g.n == FIG1.n
        assert g.edges == frozenset()  # every edge of FIG1 meets 1 or 3
        g = _isolate(FIG1, {5})
        assert g.edges == FIG1.edges - {(1, 5), (3, 5)}
        assert mb.classify(g).components == ((0, 1, 2, 3, 4), (5,))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            _isolate(FIG1, {6})


class TestIndependenceNumber:
    @pytest.mark.parametrize("source", ["classes_n_le_6", "random_n_le_12"])
    def test_matches_brute_force(self, source):
        if source == "classes_n_le_6":
            graphs = [g for n in range(7) for g in class_representatives(n)]
        else:
            rng = random.Random(20261022)
            graphs = [random_graph(rng.randint(1, 12), rng.choice((0.2, 0.4, 0.6, 0.8)), rng) for _ in range(60)]
        for g in graphs:
            assert _independence_number(g.adj, (1 << g.n) - 1) == brute_alpha(g), g.graph6()

    def test_induced_on_mask(self):
        # alpha of the 5-cycle's path 0-1-2-3 inside C5 is 2, of C5 itself 2,
        # and of the four leaves of a 5-star 4
        c5 = mb.cycle_graph(5)
        assert _independence_number(c5.adj, 0b01111) == 2
        assert _independence_number(c5.adj, 0b11111) == 2
        assert _independence_number(mb.star_graph(5).adj, 0b11110) == 4


class TestGraph6:
    def test_frozen_encodings(self):
        assert mb.path_graph(3).graph6() == "Bg"
        assert mb.path_graph(1).graph6() == "@"
        assert mb.cycle_graph(5).graph6() == "Dhc"
        star_last = Graph.from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
        assert star_last.graph6() == "D?{"

    def test_parse_frozen(self):
        assert sorted(mb.parse_graph6("D?{").edges) == [(0, 4), (1, 4), (2, 4), (3, 4)]
        assert sorted(mb.parse_graph6("BW").edges) == [(0, 2), (1, 2)]

    def test_header_and_newline(self):
        assert mb.parse_graph6(">>graph6<<Bg\n") == mb.path_graph(3)
        assert mb.parse_graph6(b"Bg\r\n") == mb.path_graph(3)

    def test_padding_bit_error(self):
        with pytest.raises(Graph6Error) as exc:
            mb.parse_graph6("Bh")
        assert exc.value.offset == 1

    def test_header_shifts_error_offset(self):
        with pytest.raises(Graph6Error) as exc:
            mb.parse_graph6(">>graph6<<Bh")
        assert exc.value.offset == 11

    def test_truncated_body(self):
        with pytest.raises(Graph6Error) as exc:
            mb.parse_graph6("B")
        assert exc.value.offset == 1

    def test_multibyte_count_unsupported(self):
        with pytest.raises(Graph6Error) as exc:
            mb.parse_graph6("~??")
        assert exc.value.offset == 0

    def test_byte_out_of_range(self):
        with pytest.raises(Graph6Error):
            mb.parse_graph6(b"B\x20")
        with pytest.raises(Graph6Error):
            mb.parse_graph6("")
        with pytest.raises(Graph6Error, match="vertex-count byte 61") as exc:
            mb.parse_graph6("=")
        assert exc.value.offset == 0

    def test_non_ascii_text(self):
        for text, offset in (("Dh\u00e9", 2), ("\u00e9", 0), (">>graph6<<B\u20ac", 11)):
            with pytest.raises(Graph6Error, match="non-ASCII character") as exc:
                mb.parse_graph6(text)
            assert exc.value.offset == offset

    def test_emit_cap(self):
        with pytest.raises(Graph6Error):
            mb.emit_graph6(Graph.from_edges(63))

    def test_round_trip(self):
        # every labeled graph with n <= 6, then seeded ones up to graph6's cap;
        # the decoder builds its Graph unchecked, so each must pass the check
        graphs = [g for n in range(7) for g in mb.enumerate_small_graphs(n)]
        rng = random.Random(20261020)
        graphs += [random_graph(rng.randint(7, 62), rng.random(), rng) for _ in range(500)]
        for g in graphs:
            h = mb.parse_graph6(g.graph6())
            assert h == g and Graph(h.n, h.edges) == g and h.adj == g.adj, g.graph6()

    @pytest.mark.parametrize("text,message", [
        ("", "empty graph6 record (byte offset 0)"),
        ("~??", "multi-byte vertex counts (n > 62) are not supported (byte offset 0)"),
        ("=", "vertex-count byte 61 outside 63..125 (byte offset 0)"),
        ("Dh", "expected 2 adjacency bytes for n=5, got 1 (byte offset 2)"),
        ("Dhcc", "expected 2 adjacency bytes for n=5, got 3 (byte offset 3)"),
        (b"Dh\x7f", "adjacency byte 127 outside 63..126 (byte offset 2)"),
        (">>graph6<<D>c", "adjacency byte 62 outside 63..126 (byte offset 11)"),
        ("Bh", "nonzero padding bit (byte offset 1)"),
        ("Dhd", "nonzero padding bit (byte offset 2)"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(Graph6Error) as exc:
            mb.parse_graph6(text)
        assert str(exc.value) == message

    def test_matches_networkx(self, rng):
        nx = pytest.importorskip("networkx")
        from conftest import random_graph

        for _ in range(40):
            g = random_graph(9, 0.35, rng)
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges)
            theirs = nx.to_graph6_bytes(h, header=False).strip().decode()
            assert g.graph6() == theirs
            back = nx.from_graph6_bytes(g.graph6().encode())
            assert set(map(tuple, map(sorted, back.edges()))) == set(g.edges)


class TestFamilies:
    def test_fixed_examples(self):
        assert mb.generate_family("fig1") == FIG1
        assert mb.generate_family("fig3") == HTREE
        fig4 = mb.generate_family("fig4")
        assert fig4.n == 8 and fig4.m == 8

    def test_unicyclic_smallest_is_fig1(self):
        assert mb.unicyclic_family(5, 2) == FIG1
        assert mb.generate_family("unicyclic", 5) == FIG1

    def test_star_wheel_sun_shapes(self):
        s = mb.star_graph(6)
        assert s.degree(0) == 5 and all(s.degree(v) == 1 for v in range(1, 6))
        w = mb.wheel_graph(6)
        assert w.degree(5) == 5 and all(w.degree(v) == 3 for v in range(5))
        h = mb.sun_graph(4)
        assert h.n == 8 and h.m == 8
        assert all(h.degree(i) == 3 for i in range(4))
        assert all(h.degree(4 + i) == 1 for i in range(4))

    def test_generalized_star(self):
        g = mb.generalized_star(3, 2)
        assert g.n == 7 and g.degree(0) == 3
        assert mb.generate_family("genstar") == g
        assert mb.generate_family("genstar", legs=4, leg_length=1) == mb.star_graph(5)

    def test_keyword_kinds_take_the_builders_defaults(self):
        assert mb.generate_family("genstar") == mb.generalized_star()
        assert mb.generate_family("unicyclic") == mb.unicyclic_family()
        assert mb.generate_family("unicyclic", 7) == mb.unicyclic_family(7)

    def test_parametric_dispatch(self):
        assert mb.generate_family("cycle", 5) == mb.cycle_graph(5)
        assert mb.generate_family("complete", 4).m == 6

    def test_family_errors(self):
        with pytest.raises(FamilyError):
            mb.generate_family("moebius", 5)
        with pytest.raises(FamilyError):
            mb.generate_family("cycle")  # needs n
        with pytest.raises(FamilyError):
            mb.generate_family("cycle", 2)
        with pytest.raises(FamilyError):
            mb.generate_family("wheel", 3)
        with pytest.raises(FamilyError):
            mb.generate_family("star", 5, legs=3)
        with pytest.raises(FamilyError):
            mb.generate_family("genstar", legs=0)
        with pytest.raises(FamilyError):
            mb.generate_family("unicyclic", 4)
        for kind, n, extra in [("path", -1, {}), ("star", 1, {}), ("complete", -1, {}), ("sun", 2, {}),
                               ("unicyclic", 5, {"chord_path_length": 1}),
                               ("genstar", None, {"bogus": 1}), ("unicyclic", None, {"bogus": 1})]:
            with pytest.raises(FamilyError):
                mb.generate_family(kind, n, **extra)
        for alias in ("generalized_star", "unicyclic_family"):  # one name per kind
            with pytest.raises(FamilyError):
                mb.generate_family(alias)

    # (builder, its size parameter, kind, that parameter's name in
    # generate_family, None where n sets it)
    SIZES = [
        (mb.path_graph, "n", "path", None),
        (mb.cycle_graph, "n", "cycle", None),
        (mb.star_graph, "n", "star", None),
        (mb.complete_graph, "n", "complete", None),
        (mb.wheel_graph, "n", "wheel", None),
        (mb.sun_graph, "n", "sun", None),
        (mb.generalized_star, "legs", "genstar", "legs"),
        (mb.generalized_star, "leg_length", "genstar", "leg_length"),
        (mb.unicyclic_family, "path_length", "unicyclic", None),
        (mb.unicyclic_family, "chord_path_length", "unicyclic", "chord_path_length"),
    ]

    @pytest.mark.parametrize("size", [6.0, 2.5, True, "6"])
    @pytest.mark.parametrize("builder, name, kind, keyword", SIZES,
                             ids=[f"{kind}-{name}" for _, name, kind, _ in SIZES])
    def test_sizes_must_be_ints(self, builder, name, kind, keyword, size):
        # a bool is not an int here, as in Graph
        with pytest.raises(FamilyError, match=f"not an int with {name} >= "):
            builder(**{name: size})
        with pytest.raises(FamilyError, match=f"not an int with {name} >= "):
            if keyword is None:
                mb.generate_family(kind, size)
            else:
                mb.generate_family(kind, **{keyword: size})

    @pytest.mark.parametrize("kind", ["fig1", "fig3", "fig4"])
    def test_fixed_kinds_take_no_extra_parameters(self, kind):
        assert mb.generate_family(kind, 6) == mb.generate_family(kind)  # n is ignored
        with pytest.raises(FamilyError, match="takes no extra parameters"):
            mb.generate_family(kind, legs=3)
