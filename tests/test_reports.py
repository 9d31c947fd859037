"""Corpus enumeration, per-graph reports, chain checking, surveys, and the
two serialization formats."""

import dataclasses
import io
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import mrbounds as mb
from mrbounds import certificates, deletion, reports
from conftest import random_graph


class TestEnumerateSmallGraphs:
    def test_counts(self):
        assert sum(1 for _ in mb.enumerate_small_graphs(0)) == 1
        assert sum(1 for _ in mb.enumerate_small_graphs(3)) == 8
        assert sum(1 for _ in mb.enumerate_small_graphs(4)) == 64

    def test_connected_counts(self):
        # labeled connected graphs: 4, 38, 728 for n = 3, 4, 5
        assert sum(1 for _ in mb.enumerate_small_graphs(3, connected_only=True)) == 4
        assert sum(1 for _ in mb.enumerate_small_graphs(4, connected_only=True)) == 38
        assert sum(1 for _ in mb.enumerate_small_graphs(5, connected_only=True)) == 728

    def test_first_and_last(self):
        gs = list(mb.enumerate_small_graphs(3))
        assert gs[0].m == 0
        assert gs[-1].m == 3  # complete graph comes last

    # at n = 7, to keep these tests short, only the first 2^16 + 3000 masks;
    # they reach bit 16, the pair (3, 5)
    STOPS = [(n, None) for n in range(7)] + [(7, (1 << 16) + 3000)]

    @pytest.mark.parametrize("n, stop", STOPS)
    def test_position_is_the_edge_mask(self, n, stop):
        # bit k of a graph's position is the k-th pair in (0, 1), (0, 2), ..., (1, 2), ...
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask, g in enumerate(itertools.islice(mb.enumerate_small_graphs(n), stop)):
            assert g.n == n and g.edges == frozenset(p for k, p in enumerate(pairs) if mask >> k & 1)
        assert mask + 1 == (stop or 1 << len(pairs))

    @pytest.mark.parametrize("n, stop", STOPS)
    def test_graphs_match_the_checked_constructor(self, n, stop):
        # the enumeration skips Graph's per-edge check; its graphs must pass it
        for g in itertools.islice(mb.enumerate_small_graphs(n), stop):
            h = mb.Graph(g.n, g.edges)
            assert type(g) is mb.Graph and g == h and hash(g) == hash(h)
            adj = [0] * n
            for u, v in h.edges:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            assert g.adj == tuple(adj)

    def test_cap(self):
        # checked on the call, before any graph is drawn
        with pytest.raises(ValueError):
            mb.enumerate_small_graphs(8)
        with pytest.raises(ValueError):
            mb.enumerate_small_graphs(-1)


class TestComputeReport:
    def test_unicyclic_reference_graph(self):
        r = mb.compute_report(mb.generate_family("fig1"))
        assert (r.t_minus, r.delta, r.z, r.t_plus, r.delta_plus) == (2, 2, 2, 2, 2)
        assert r.m_exact == 2
        assert r.m_lower_numeric is None  # bounds met, no numerics requested
        assert r.chain_ok
        assert r.witnesses["t_minus"] == (1,)
        assert r.witnesses["delta"] == (1, 3)
        # 0-1-5-3-4 is an induced path, vertex 2 sits alone
        assert r.p_bruteforce == 2

    def test_sun_graph_gap(self):
        r = mb.compute_report(mb.sun_graph(4))
        assert (r.t_minus, r.t_plus) == (2, 4)
        assert r.z == 2
        assert r.m_exact == 2  # t_minus meets min(z, t_plus)
        assert r.chain_ok

    def test_double_branch_tree(self):
        # tree with two degree-3 vertices: both covers need 2 paths, but a
        # linear forest needs 2 deletions (keep the induced path 2-1-4-5)
        r = mb.compute_report(mb.generate_family("fig3"))
        assert r.is_forest
        assert (r.t_minus, r.delta, r.z, r.t_plus) == (2, 2, 2, 2)
        assert r.delta_plus == 3
        assert r.witnesses["delta_plus"] == (0, 3)
        assert r.m_exact == 2

    def test_with_numeric(self):
        r = mb.compute_report(mb.wheel_graph(5), with_numeric=True)
        assert r.m_lower_numeric == 3
        assert r.m_exact == 3

    def test_full_n_grid(self):
        for n in range(1, 5):
            r = mb.compute_report(mb.path_graph(n))
            assert (r.t_minus, r.t_plus, r.z) == (1, 1, 1)
            assert r.chain_ok and r.m_exact == 1

    def test_relabeling_keeps_values_and_witnesses(self):
        # every value of a relabeled graph is G's, and each of its witnesses,
        # mapped back into G, scores that value there
        rng = random.Random(20261019)
        fields = [f.name for f in dataclasses.fields(mb.ParameterReport) if f.name not in ("graph6", "witnesses")]
        for k in range(120):
            n = 9 + k % 5
            g = random_graph(n, (0.2, 0.35, 0.6)[k % 3], rng)
            perm = list(range(n))
            rng.shuffle(perm)  # vertex v of g is perm[v] of h
            h = mb.Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges])
            r, rh = mb.compute_report(g), mb.compute_report(h)
            assert [getattr(rh, f) for f in fields] == [getattr(r, f) for f in fields], g.graph6()
            back = {key: frozenset(perm.index(v) for v in s) for key, s in rh.witnesses.items()}
            for key, sign in (("t_minus", -1), ("t_plus", 1)):
                forest = mb.delete_vertices(g, back[key])[0]
                assert mb.classify(forest).is_forest, (g.graph6(), key)
                assert mb.min_path_cover(forest).size + sign * len(back[key]) == getattr(r, key), (g.graph6(), key)
            for key, sign in (("delta", -1), ("delta_plus", 1)):
                paths = mb.classify(mb.delete_vertices(g, back[key])[0])
                assert paths.is_linear_forest, (g.graph6(), key)
                assert paths.p + sign * len(back[key]) == getattr(r, key), (g.graph6(), key)
            assert len(back["z"]) == r.z, g.graph6()
            assert mb.forcing_closure(g, back["z"]).forces_all(n), g.graph6()


def _equivalence_graphs():
    graphs = [mb.cycle_graph(n) for n in range(4, 9)]
    graphs += [mb.wheel_graph(n) for n in range(5, 8)]
    graphs += [mb.sun_graph(3), mb.sun_graph(5), mb.generate_family("fig3")]
    rng = random.Random(6)
    graphs += [random_graph(rng.randint(9, 11), rng.choice((0.2, 0.35, 0.6)), rng) for _ in range(20)]
    return graphs


class TestComputeReportSharesSearches:
    """compute_report computes each exact bound once, the deletion bounds in
    one joint walk, and hands them on; its values and witnesses must match
    the public entry points, each of which searches on its own."""

    @pytest.mark.parametrize("g", _equivalence_graphs(), ids=lambda g: g.graph6())
    def test_matches_public_entry_points(self, g):
        r = mb.compute_report(g)
        z, z_wit = mb.zero_forcing_number(g)
        sw = mb.m_sandwich(g, numeric=False)
        for name, w in (("t_minus", mb.t_minus(g)), ("t_plus", mb.t_plus(g)),
                        ("delta", mb.delta(g)), ("delta_plus", mb.delta_plus(g))):
            assert getattr(r, name) == w.value
            assert r.witnesses[name] == tuple(sorted(w.s))
        assert (r.z, r.witnesses["z"]) == (z, tuple(sorted(z_wit)))
        assert (r.m_lower_numeric, r.m_exact) == (sw.numeric_lower, sw.m_exact)
        assert (sw.t_minus, sw.z, sw.t_plus, sw.delta_plus) == (r.t_minus, r.z, r.t_plus, r.delta_plus)

    def test_mask_witnesses_match_public_entry_points(self):
        # compute_report takes its witnesses as masks from the walk and
        # upgrades delta on masks; the public entry points build witnesses
        rng = random.Random(20261020)
        graphs = []
        while len(graphs) < 60:
            k = len(graphs)
            g = random_graph(9 + k % 5, (0.2, 0.35, 0.6)[k % 3], rng)
            if not mb.classify(g).is_forest:
                graphs.append(g)
        for g in graphs:
            r = mb.compute_report(g)
            for name, w in (("t_minus", mb.t_minus(g)), ("t_plus", mb.t_plus(g)),
                            ("delta", mb.delta(g)), ("delta_plus", mb.delta_plus(g))):
                assert (getattr(r, name), r.witnesses[name]) == (w.value, tuple(sorted(w.s))), (g.graph6(), name)

    @pytest.mark.parametrize("g", [mb.cycle_graph(5), mb.wheel_graph(6)], ids=["C5", "W6"])
    def test_numeric_matches_m_sandwich(self, g):
        r = mb.compute_report(g, with_numeric=True)
        sw = mb.m_sandwich(g, numeric=True)
        assert (r.m_lower_numeric, r.m_exact) == (sw.numeric_lower, sw.m_exact)

    def test_each_search_runs_once(self, monkeypatch):
        # every name under which a search is reached, by the search it runs;
        # compute_report and m_sandwich each reach t_minus, t_plus and
        # delta_plus only through the one joint walk, never through their
        # own entry points
        sites = {
            "walk": [(deletion, "_walk")],
            "t_minus": [(reports, "t_minus"), (deletion, "t_minus"), (certificates, "_t_minus_op")],
            "t_plus": [(reports, "t_plus"), (certificates, "_t_plus_op")],
            "delta_plus": [(reports, "delta_plus"), (certificates, "_delta_plus_op")],
            "zero_forcing_number": [(reports, "zero_forcing_number"),
                                    (certificates, "zero_forcing_number")],
        }
        expected = {"walk": 1, "t_minus": 0, "t_plus": 0, "delta_plus": 0, "zero_forcing_number": 1}
        calls = dict.fromkeys(sites, 0)

        def counted(search, fn):
            def wrapper(*args, **kwargs):
                calls[search] += 1
                return fn(*args, **kwargs)
            return wrapper

        for search, names in sites.items():
            for owner, attr in names:
                monkeypatch.setattr(owner, attr, counted(search, getattr(owner, attr)))
        for g in (mb.wheel_graph(6), mb.sun_graph(3), mb.path_graph(5)):
            for run in (lambda: mb.compute_report(g, with_numeric=True), lambda: mb.m_sandwich(g)):
                calls.update(dict.fromkeys(sites, 0))
                run()
                assert calls == expected

    def test_no_kept_set_counted_twice(self, monkeypatch):
        # the joint walk counts each kept set once for all three records
        count = deletion._forest_cover
        seen = []

        def spy(adj, rest, edges):
            seen.append(rest)
            return count(adj, rest, edges)

        monkeypatch.setattr(deletion, "_forest_cover", spy)
        for g in _equivalence_graphs():
            seen.clear()
            mb.compute_report(g)
            assert seen and len(seen) == len(set(seen)), g.graph6()

    @pytest.mark.parametrize("g,message", [
        (mb.complete_graph(20), "20-vertex component needs 1048576 deletion sets, over 2^16"),
        (mb.path_graph(17), "17-vertex component needs 131072 deletion sets, over 2^16"),
    ], ids=["K20", "P17"])
    def test_cap_errors_keep_their_order(self, g, message):
        # one check per component, sized by the deepest record asked: K20's
        # t+- walk every size, and so does P17's delta_plus although its t+-
        # walk none; the deletion walk runs before the Z search
        with pytest.raises(mb.DeletionError) as err:
            mb.compute_report(g)
        assert str(err.value) == message


class TestAdditivity:
    """Each exact bound and its witness add over components, also past 16
    vertices: the work cap is checked per component."""

    def test_disjoint_union_adds(self):
        rng = random.Random(20261019)
        for _ in range(10):
            a, b = (random_graph(rng.randint(9, 12), rng.choice((0.2, 0.35)), rng) for _ in range(2))
            union = mb.Graph.from_edges(a.n + b.n, [*a.edges, *((u + a.n, v + a.n) for u, v in b.edges)])
            ra, rb, r = (mb.compute_report(g) for g in (a, b, union))
            assert r.n > 16 and r.chain_ok
            for name in ("t_minus", "delta", "z", "t_plus", "delta_plus"):
                assert getattr(r, name) == getattr(ra, name) + getattr(rb, name), (name, r.graph6)
            for key, witness in r.witnesses.items():
                assert witness == ra.witnesses[key] + tuple(v + a.n for v in rb.witnesses[key]), (key, r.graph6)


class TestCheckChain:
    def test_clean_report_has_no_violations(self):
        r = mb.compute_report(mb.cycle_graph(5))
        assert mb.check_chain(r) == []

    def test_fault_injection(self):
        r = mb.compute_report(mb.cycle_graph(5))
        bad = dataclasses.replace(r, t_plus=r.t_plus - 1)
        hits = mb.check_chain(bad)
        # dropping t_plus below z also drops it below the brute cover size
        assert {h["check"] for h in hits} == {"z <= t_plus", "p_bruteforce <= t_plus"}
        z_hit = next(h for h in hits if h["check"] == "z <= t_plus")
        assert z_hit["graph6"] == r.graph6
        assert z_hit["values"] == (r.z, r.t_plus - 1)

    def test_p_check_when_present(self):
        r = mb.compute_report(mb.complete_graph(4))
        assert r.p_bruteforce == 2
        bad = dataclasses.replace(r, p_bruteforce=r.t_plus + 1)
        assert any(h["check"] == "p_bruteforce <= t_plus" for h in mb.check_chain(bad))


class TestIsomorphismClasses:
    def test_class_counts_match_a000088(self):
        # OEIS A000088: unlabeled graphs on n = 0..6 vertices
        for n, count in enumerate((1, 1, 2, 4, 11, 34, 156)):
            assert max(c for _, c in reports._isomorphism_classes(n)) + 1 == count

    @pytest.mark.parametrize("n", range(6))
    def test_class_is_the_least_relabeled_mask(self, n):
        # reference: a graph's class is its least edge mask over all n!
        # relabelings, numbered in order of first appearance
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        images = [[1 << pairs.index((min(p[a], p[b]), max(p[a], p[b]))) for a, b in pairs]
                  for p in itertools.permutations(range(n))]
        number = {}
        for mask, (g, c) in enumerate(reports._isomorphism_classes(n)):
            least = min(sum(bit for k, bit in enumerate(image) if mask >> k & 1) for image in images)
            assert c == number.setdefault(least, len(number))

    def test_light_report_is_relabeling_invariant(self, rng):
        fields = [f.name for f in dataclasses.fields(mb.ParameterReport) if f.name != "graph6"]
        for _ in range(300):
            n = rng.randint(1, 7)
            g = random_graph(n, rng.choice((0.2, 0.4, 0.6, 0.8)), rng)
            perm = list(range(n))
            rng.shuffle(perm)
            h = mb.Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges])
            a, b = reports._light_report(g), reports._light_report(h)
            assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]


class TestVerifyChainCorpus:
    def test_no_violations_up_to_four(self):
        assert mb.verify_chain_corpus(4) == []

    def test_one_report_per_class(self, monkeypatch):
        real = reports._light_report
        calls = []

        def counted(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(reports, "_light_report", counted)
        assert mb.verify_chain_corpus(5) == []
        assert len(calls) == 1 + 2 + 4 + 11 + 34

    def test_connected_only_decided_once_per_class(self, monkeypatch):
        real_report, real_bfs = reports._light_report, reports._level_bfs
        reports_made, components_found = [], []

        def counted_report(g):
            reports_made.append(g)
            return real_report(g)

        def counted_bfs(adj, mask):
            components_found.append(adj)
            return real_bfs(adj, mask)

        monkeypatch.setattr(reports, "_light_report", counted_report)
        monkeypatch.setattr(reports, "_level_bfs", counted_bfs)
        assert mb.verify_chain_corpus(5, connected_only=True) == []
        # one connectivity test per class, one report per connected class
        assert len(components_found) == 1 + 2 + 4 + 11 + 34
        assert len(reports_made) == 1 + 1 + 2 + 6 + 21

    def test_class_fault_reported_per_labeled_member(self, monkeypatch):
        # t_plus one too low on every 4-cycle, a fault shared by the class
        real = reports._t_values

        def faulty(adj, n):
            tm, tp = real(adj, n)
            if n == 4 and all(a.bit_count() == 2 for a in adj):
                tp -= 1
            return tm, tp

        monkeypatch.setattr(reports, "_t_values", faulty)
        violations = mb.verify_chain_corpus(4)
        c4s = {g.graph6() for g in mb.enumerate_small_graphs(4)
               if all(a.bit_count() == 2 for a in g.adj)}
        assert len(c4s) == 3
        assert {v["graph6"] for v in violations} == c4s
        # z <= t_plus and p_bruteforce <= t_plus fail on each labeled 4-cycle,
        # with the records a per-label sweep gives, in the same order
        assert len(violations) == 6
        assert violations == [
            hit
            for n in range(1, 5)
            for g in mb.enumerate_small_graphs(n)
            for hit in mb.check_chain(reports._light_report(g))
        ]

    def test_max_n_above_seven_rejected(self):
        with pytest.raises(ValueError, match="1 <= max_n <= 7"):
            mb.verify_chain_corpus(8)

    @pytest.mark.parametrize("max_n", [0, -1])
    def test_max_n_below_one_rejected(self, max_n):
        with pytest.raises(ValueError, match="1 <= max_n"):
            mb.verify_chain_corpus(max_n)

    @pytest.mark.parametrize("call", [
        lambda: mb.verify_chain_corpus(True),
        lambda: mb.verify_chain_corpus(2.0),
        lambda: mb.verify_chain_corpus("2"),
        lambda: mb.survey_open_questions(True),
        lambda: mb.survey_open_questions(2.0),
        lambda: mb.survey_open_questions("2"),
        lambda: mb.enumerate_small_graphs(True),
        lambda: mb.enumerate_small_graphs(3.0),
        lambda: mb.enumerate_small_graphs("2"),
    ], ids=["verify-bool", "verify-float", "verify-str", "survey-bool", "survey-float", "survey-str",
            "enumerate-bool", "enumerate-float", "enumerate-str"])
    def test_corpus_size_must_be_an_int(self, call):
        # a bool would sweep n = 1 only, a float would fail inside range()
        with pytest.raises(ValueError, match="an int"):
            call()


class TestSurvey:
    def test_counts_n_le_4(self):
        s = mb.survey_open_questions(4)
        got = {k: (v["equal_count"], v["strict_count"]) for k, v in s["classes"].items()}
        # 48 = number of labeled forests with n <= 4; 75 graphs total
        assert got == {
            "t_minus_eq_t_plus": (48, 27),
            "z_eq_t_plus": (75, 0),
            "p_eq_t_plus": (74, 1),
            "delta_eq_delta_plus": (48, 27),
        }

    def test_forests_collapse(self):
        s = mb.survey_open_questions(4)
        bucket = s["classes"]["t_minus_eq_t_plus"]
        assert mb.path_graph(3).graph6() in bucket["equal"]
        assert mb.star_graph(4).graph6() in bucket["equal"]
        assert mb.cycle_graph(3).graph6() not in bucket["equal"]

    def test_cycle_attains_z_equality(self):
        s = mb.survey_open_questions(5)
        assert mb.cycle_graph(5).graph6() in s["classes"]["z_eq_t_plus"]["equal"]

    def test_cap(self):
        with pytest.raises(ValueError):
            mb.survey_open_questions(7)

    @pytest.mark.parametrize("max_n", [0, -3])
    def test_max_n_below_one_rejected(self, max_n):
        with pytest.raises(ValueError, match="1 <= max_n"):
            mb.survey_open_questions(max_n)


def assert_cell_reads_like_json(cell):
    """_cell_value returns what json.loads returns (None for an empty
    cell), or raises its one ValueError where json.loads raises."""
    try:
        expected = None if cell == "" else json.loads(cell)
    except ValueError:
        with pytest.raises(ValueError) as err:
            reports._cell_value(cell, "col")
        assert str(err.value) == f"col cell {cell!r} is not a JSON value"
    else:
        got = reports._cell_value(cell, "col")
        assert type(got) is type(expected) and repr(got) == repr(expected)


class TestSerialization:
    def reports(self):
        return [
            mb.compute_report(mb.generate_family("fig1")),
            mb.compute_report(mb.path_graph(4)),
            mb.compute_report(mb.wheel_graph(5), with_numeric=True),
            reports._light_report(mb.cycle_graph(4)),  # no witnesses: empty cells
        ]

    def test_json_round_trip(self):
        reps = self.reports()
        buf = io.StringIO()
        mb.emit_report(reps, format="json", destination=buf)
        buf.seek(0)
        back = mb.load_reports_json(buf)
        assert back == reps

    def test_format_is_pinned(self):
        header = (
            "graph6,n,m,is_forest,t_minus,delta,p_bruteforce,z,t_plus,delta_plus,"
            "m_lower_numeric,m_exact,chain_ok,"
            "witness_t_minus,witness_t_plus,witness_delta,witness_delta_plus,witness_z"
        )
        keys = [
            "graph6", "n", "m", "is_forest", "t_minus", "delta", "p_bruteforce", "z",
            "t_plus", "delta_plus", "witnesses", "m_lower_numeric", "m_exact", "chain_ok",
        ]
        assert mb.REPORT_CSV_HEADER == header
        reps = self.reports()
        buf = io.StringIO()
        mb.emit_report(reps, format="csv", destination=buf)
        assert buf.getvalue().splitlines()[0] == header
        buf = io.StringIO()
        mb.emit_report(reps, format="json", destination=buf)
        assert [list(d) for d in json.loads(buf.getvalue())] == [keys] * len(reps)

    def test_csv_round_trip(self):
        reps = self.reports()
        buf = io.StringIO()
        mb.emit_report(reps, format="csv", destination=buf)
        text = buf.getvalue()
        assert text.startswith(mb.REPORT_CSV_HEADER + "\n")
        back = mb.load_reports_csv(io.StringIO(text))
        assert back == reps
        lines = text.splitlines()  # a blank line is skipped
        assert mb.load_reports_csv(io.StringIO("\n".join(lines[:2] + [""] + lines[2:]) + "\n")) == reps

    def test_file_destinations(self, tmp_path):
        reps = self.reports()[:1]
        jpath = tmp_path / "out.json"
        cpath = tmp_path / "out.csv"
        mb.emit_report(reps, format="json", destination=jpath)
        mb.emit_report(reps, format="csv", destination=cpath)
        assert mb.load_reports_json(jpath) == reps
        assert mb.load_reports_csv(cpath) == reps

    def test_empty_optionals_survive_csv(self):
        r = mb.compute_report(mb.cycle_graph(4))  # no numerics: empty cells
        assert r.m_lower_numeric is None
        buf = io.StringIO()
        mb.emit_report([r], format="csv", destination=buf)
        back = mb.load_reports_csv(io.StringIO(buf.getvalue()))[0]
        assert back.m_lower_numeric is None
        assert back.m_exact == r.m_exact

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            mb.emit_report([], format="yaml", destination=io.StringIO())

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            mb.load_reports_csv(io.StringIO("graph6,n\nBg,3\n"))

    def test_short_row_rejected(self):
        text = mb.REPORT_CSV_HEADER + "\nBw,3,1\n"
        with pytest.raises(ValueError, match="3 cells"):
            mb.load_reports_csv(io.StringIO(text))

    @pytest.mark.parametrize("data,where", [
        ([{"graph6": "@"}], "record 0 .*KeyError\\('n'\\)"),
        ({"a": 1}, "not an array"),
        ([1], "record 0 "),
        ("bad_witnesses", "record 1 "),
    ])
    def test_malformed_json_rejected(self, data, where):
        if data == "bad_witnesses":
            good = mb.compute_report(mb.path_graph(3)).to_dict()
            data = [good, dict(good, witnesses=[1])]
        with pytest.raises(ValueError, match=where):
            mb.load_reports_json(io.StringIO(json.dumps(data)))

    @pytest.mark.parametrize("key,value", [
        ("n", "x"),
        ("chain_ok", "no"),
        ("m_exact", True),
        ("witnesses", {"z": [0, "1"]}),
        # keys that reports never write
        ("bogus", 1),
        ("witnesses", {"z": [0], "bogus": [1]}),
        # witnesses that are not strictly increasing vertices of P3
        ("witnesses", {"z": [3, -1, 3]}),
        ("witnesses", {"z": [1, 0]}),
        ("witnesses", {"z": [0, 0]}),
        ("witnesses", {"z": [3]}),
        ("witnesses", {"z": [-1]}),
    ])
    def test_mistyped_json_rejected(self, key, value):
        good = mb.compute_report(mb.path_graph(3)).to_dict()
        data = [good, dict(good, **{key: value})]
        with pytest.raises(ValueError, match=f"record 1 .*{key}"):
            mb.load_reports_json(io.StringIO(json.dumps(data)))

    @pytest.mark.parametrize("column,cell", [
        ("is_forest", "yes"),
        ("chain_ok", "TRUE"),
        ("is_forest", "1.5"),
        ("z", "1.5"),
        ("witness_z", "0;x"),
    ])
    def test_mistyped_csv_rejected(self, column, cell):
        buf = io.StringIO()
        mb.emit_report([mb.compute_report(mb.path_graph(3))] * 2, format="csv", destination=buf)
        lines = buf.getvalue().splitlines()
        row = lines[2].split(",")
        row[lines[0].split(",").index(column)] = cell
        text = "\n".join(lines[:2] + [",".join(row)]) + "\n"
        with pytest.raises(ValueError, match=f"row 1 is malformed.*{column}"):
            mb.load_reports_csv(io.StringIO(text))

    @pytest.mark.parametrize("cell", ["3;-1;3", "1;0", "0;0", "3", "-1"])
    def test_witness_cell_not_increasing_vertices_rejected(self, cell):
        buf = io.StringIO()
        mb.emit_report([mb.compute_report(mb.path_graph(3))] * 2, format="csv", destination=buf)
        lines = buf.getvalue().splitlines()
        row = lines[2].split(",")
        row[lines[0].split(",").index("witness_z")] = cell
        text = "\n".join(lines[:2] + [",".join(row)]) + "\n"
        with pytest.raises(ValueError, match="row 1 is malformed.*strictly increasing vertices in 0..2"):
            mb.load_reports_csv(io.StringIO(text))

    # P3's record with one value that its graph6 contradicts
    BAD_VALUES = [("n", 7, "n, m, is_forest"), ("m", 99, "n, m, is_forest"),
                  ("is_forest", False, "n, m, is_forest"), ("graph6", "zzz", "Graph6Error")]

    @pytest.mark.parametrize("key,value,match", BAD_VALUES, ids=[key for key, _, _ in BAD_VALUES])
    def test_json_value_contradicting_the_graph6_rejected(self, key, value, match):
        good = mb.compute_report(mb.path_graph(3)).to_dict()
        data = [good, dict(good, **{key: value})]
        with pytest.raises(ValueError, match=f"record 1 is malformed.*{match}"):
            mb.load_reports_json(io.StringIO(json.dumps(data)))

    @pytest.mark.parametrize("key,value,match", BAD_VALUES, ids=[key for key, _, _ in BAD_VALUES])
    def test_csv_value_contradicting_the_graph6_rejected(self, key, value, match):
        buf = io.StringIO()
        mb.emit_report([mb.compute_report(mb.path_graph(3))] * 2, format="csv", destination=buf)
        lines = buf.getvalue().splitlines()
        row = lines[2].split(",")
        row[lines[0].split(",").index(key)] = value if key == "graph6" else json.dumps(value)
        text = "\n".join(lines[:2] + [",".join(row)]) + "\n"
        with pytest.raises(ValueError, match=f"row 1 is malformed.*{match}"):
            mb.load_reports_csv(io.StringIO(text))

    # a multiplicity outside the record's own bracket [t_minus, min(z, t_plus)];
    # P3's is [1, 1], C5's is [0, 2]
    OFF_BRACKET = [(mb.path_graph(3), {"m_exact": 5}), (mb.path_graph(3), {"m_exact": 0}),
                   (mb.path_graph(3), {"m_lower_numeric": 9}),
                   (mb.cycle_graph(5), {"m_exact": 1, "m_lower_numeric": 2})]
    OFF_BRACKET_IDS = ["P3-exact-high", "P3-exact-low", "P3-numeric-high", "C5-numeric-above-exact"]

    @pytest.mark.parametrize("g,values", OFF_BRACKET, ids=OFF_BRACKET_IDS)
    def test_json_multiplicity_outside_the_bracket_rejected(self, g, values):
        good = mb.compute_report(g).to_dict()
        data = [good, dict(good, **values)]
        with pytest.raises(ValueError, match="record 1 is malformed.*outside the bracket"):
            mb.load_reports_json(io.StringIO(json.dumps(data)))

    @pytest.mark.parametrize("g,values", OFF_BRACKET, ids=OFF_BRACKET_IDS)
    def test_csv_multiplicity_outside_the_bracket_rejected(self, g, values):
        buf = io.StringIO()
        mb.emit_report([mb.compute_report(g)] * 2, format="csv", destination=buf)
        lines = buf.getvalue().splitlines()
        row = lines[2].split(",")
        for key, value in values.items():
            row[lines[0].split(",").index(key)] = json.dumps(value)
        text = "\n".join(lines[:2] + [",".join(row)]) + "\n"
        with pytest.raises(ValueError, match="row 1 is malformed.*outside the bracket"):
            mb.load_reports_csv(io.StringIO(text))

    def test_multiplicity_inside_the_bracket_loads(self):
        # the bracket's ends are allowed: C5's bracket is [0, 2]
        good = mb.compute_report(mb.cycle_graph(5)).to_dict()
        for values in ({"m_lower_numeric": 2}, {"m_exact": 0}):
            r = mb.load_reports_json(io.StringIO(json.dumps([dict(good, **values)])))[0]
            assert (r.m_lower_numeric, r.m_exact) == (values.get("m_lower_numeric"), values.get("m_exact"))

    @pytest.mark.parametrize("record", [[1], "witnesses"])
    def test_from_dict_rejects_a_non_object(self, record):
        if record == "witnesses":
            record = dict(mb.compute_report(mb.path_graph(3)).to_dict(), witnesses=[1])
        with pytest.raises(TypeError, match="not a JSON object"):
            mb.ParameterReport.from_dict(record)

    # the cells a report writes, and the edge cases of the direct read: a
    # leading zero, plus or space, non-ASCII digits, and an integer past
    # CPython's 4,300-digit limit, where json.loads and int() both raise
    @pytest.mark.parametrize("cell", [
        "", "true", "false", "0", "-0", "7", "-12", "01", "-01", "+1", " 7", "7 ", "1e2", "1.0",
        "True", "null", "NaN", "-", "\u0663", "1" * 400, "9" * 5000,
    ], ids=lambda cell: repr(cell[:12]))
    def test_cell_value_is_json_loads(self, cell):
        assert_cell_reads_like_json(cell)

    @settings(database=None, deadline=None)
    @given(st.one_of(st.text(max_size=8), st.from_regex(r"-?[0-9]{1,6}", fullmatch=True)))
    def test_cell_value_is_json_loads_on_any_text(self, cell):
        assert_cell_reads_like_json(cell)

    def test_emit_is_deterministic(self):
        reps = self.reports()[:2]
        a, b = io.StringIO(), io.StringIO()
        mb.emit_report(reps, format="json", destination=a)
        mb.emit_report(reps, format="json", destination=b)
        assert a.getvalue() == b.getvalue()
