"""Corpus enumeration, per-graph reports, chain checking, surveys, and the
two serialization formats."""

import dataclasses
import io
import json
import random

import pytest

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

    def test_cap(self):
        with pytest.raises(ValueError):
            list(mb.enumerate_small_graphs(8))
        with pytest.raises(ValueError):
            list(mb.enumerate_small_graphs(-1))


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


def _equivalence_graphs():
    graphs = [mb.cycle_graph(n) for n in range(4, 9)]
    graphs += [mb.wheel_graph(n) for n in range(5, 8)]
    graphs += [mb.sun_graph(3), mb.sun_graph(5), mb.generate_family("fig3")]
    rng = random.Random(6)
    graphs += [random_graph(rng.randint(9, 11), rng.choice((0.2, 0.35, 0.6)), rng) for _ in range(20)]
    return graphs


class TestComputeReportSharesSearches:
    """compute_report computes each exact bound once and hands it on; its
    values and witnesses must match the public entry points, each of which
    searches on its own."""

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

    @pytest.mark.parametrize("g", [mb.cycle_graph(5), mb.wheel_graph(6)], ids=["C5", "W6"])
    def test_numeric_matches_m_sandwich(self, g):
        r = mb.compute_report(g, with_numeric=True)
        sw = mb.m_sandwich(g, numeric=True)
        assert (r.m_lower_numeric, r.m_exact) == (sw.numeric_lower, sw.m_exact)

    def test_each_search_runs_once(self, monkeypatch):
        # every name under which a search is reached, by the search it runs
        sites = {
            "t_minus": [(reports, "t_minus"), (deletion, "t_minus"), (certificates, "_t_minus_op")],
            "t_plus": [(reports, "t_plus"), (certificates, "_t_plus_op")],
            "delta_plus": [(reports, "delta_plus"), (certificates, "_delta_plus_op")],
            "zero_forcing_number": [(reports, "zero_forcing_number"),
                                    (certificates, "zero_forcing_number")],
        }
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
            calls.update(dict.fromkeys(sites, 0))
            mb.compute_report(g, with_numeric=True)
            assert calls == dict.fromkeys(sites, 1)


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

    def test_long_run_guard(self):
        with pytest.raises(ValueError):
            mb.verify_chain_corpus(7)
        with pytest.raises(ValueError):
            mb.verify_chain_corpus(8, long_run=True)


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

    def test_extra_graphs_join_sweep(self):
        fig4 = mb.generate_family("fig4")
        s = mb.survey_open_questions(3, extra_graphs=[fig4])
        assert fig4.graph6() in s["classes"]["z_eq_t_plus"]["strict"]
        # duplicates of corpus members are skipped
        s2 = mb.survey_open_questions(3, extra_graphs=[mb.path_graph(3)])
        assert s2["classes"]["z_eq_t_plus"]["equal_count"] == 11

    def test_cap(self):
        with pytest.raises(ValueError):
            mb.survey_open_questions(7)

    def test_extra_graph_above_cover_cap_rejected_up_front(self, monkeypatch):
        swept = []
        real = reports._isomorphism_classes
        monkeypatch.setattr(
            reports, "_isomorphism_classes", lambda *a: swept.append(a) or real(*a)
        )
        with pytest.raises(ValueError, match="cap n=8") as excinfo:
            mb.survey_open_questions(1, extra_graphs=[mb.path_graph(9)])
        assert not isinstance(excinfo.value, mb.PathCoverError)
        assert swept == []
        p8 = mb.path_graph(8).graph6()
        s = mb.survey_open_questions(1, extra_graphs=iter([mb.path_graph(8)]))
        for bucket in s["classes"].values():
            assert bucket["equal"] == ["@", p8]


class TestSerialization:
    def reports(self):
        return [
            mb.compute_report(mb.generate_family("fig1")),
            mb.compute_report(mb.path_graph(4)),
            mb.compute_report(mb.wheel_graph(5), with_numeric=True),
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
    ])
    def test_mistyped_json_rejected(self, key, value):
        good = mb.compute_report(mb.path_graph(3)).to_dict()
        data = [good, dict(good, **{key: value})]
        with pytest.raises(ValueError, match=f"record 1 .*{key}"):
            mb.load_reports_json(io.StringIO(json.dumps(data)))

    def test_emit_is_deterministic(self):
        reps = self.reports()[:2]
        a, b = io.StringIO(), io.StringIO()
        mb.emit_report(reps, format="json", destination=a)
        mb.emit_report(reps, format="json", destination=b)
        assert a.getvalue() == b.getvalue()
