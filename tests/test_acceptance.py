"""Exit-gate checks.

One test per criterion.  Each collects its sub-failures into a list, prints
exactly one PASS/FAIL summary line (run with -s to see the table), and then
asserts the list is empty, so the printed verdict and the pytest verdict
cannot drift apart.  Values asserted here are external expectations; when an
expectation is wrong the test stays red rather than being adjusted to match
the engine.  A recorded expectation changes only together with a proof
written beside it.
"""

import random
import sys
import time

import mrbounds as mb
from mrbounds.deletion import _delta_values, _t_values, t_minus, t_plus
from mrbounds.forcing import _z_value
from mrbounds.reports import _isomorphism_classes

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from conftest import all_labeled_trees, first_optima, random_graph, random_tree  # noqa: E402

TOL = 1e-8
DELTA = 1e-3
NEGATIVE_CONTROL_TOL = 1e-6
CORPUS_MAX_N = 6
TABLE_TIME_BUDGET = 10.0
ORACLE_TIME_BUDGET = 300.0
RANDOM_TREE_SEED = 20260819
REDUCTION_SEED = 20260819


def _verdict(num: int, name: str, failures: list) -> None:
    if failures:
        shown = "; ".join(str(f) for f in failures[:5])
        extra = f" and {len(failures) - 5} more" if len(failures) > 5 else ""
        print(f"ACCEPTANCE {num} {name}: FAIL [{shown}{extra}]")
    else:
        print(f"ACCEPTANCE {num} {name}: PASS")
    assert not failures, f"{name}: {len(failures)} sub-failure(s): {failures[:10]}"


def test_criterion_01_family_parameter_table():
    t0 = time.monotonic()
    failures = []

    def check(label, got, want):
        if got != want:
            failures.append(f"{label}: {got} != {want}")

    for n in range(4, 10):
        check(f"star {n} delta_plus", mb.delta_plus(mb.star_graph(n)).value, n - 2)
    for n in range(3, 13):
        g = mb.cycle_graph(n)
        check(f"cycle {n} t_minus", t_minus(g).value, 0)
        check(f"cycle {n} t_plus", t_plus(g).value, 2)
        check(f"cycle {n} delta_plus", mb.delta_plus(g).value, 2)
    for n in range(4, 11):
        g = mb.wheel_graph(n)
        check(f"wheel {n} t_minus", t_minus(g).value, -1)
        check(f"wheel {n} t_plus", t_plus(g).value, 3)
        check(f"wheel {n} delta_plus", mb.delta_plus(g).value, 3)
    g = mb.sun_graph(3)
    check("sun 3 t_minus", t_minus(g).value, 1)
    check("sun 3 t_plus", t_plus(g).value, 3)
    for n in range(4, 9):
        g = mb.sun_graph(n)
        check(f"sun {n} t_minus", t_minus(g).value, n // 2)
        check(f"sun {n} t_plus", t_plus(g).value, n // 2 + 2)
        dp = mb.delta_plus(g).value
        if dp > n:
            failures.append(f"sun {n} delta_plus: {dp} > {n}")

    elapsed = time.monotonic() - t0
    if elapsed >= TABLE_TIME_BUDGET:
        failures.append(f"time budget: {elapsed:.1f}s >= {TABLE_TIME_BUDGET}s")
    _verdict(1, "family parameter table", failures)


def test_criterion_02_reference_graph_values():
    failures = []

    def check(label, got, want):
        if got != want:
            failures.append(f"{label}: {got} != {want}")

    g = mb.generate_family("fig1")
    check("unicyclic delta", mb.delta(g).value, 2)
    check("unicyclic t_minus", t_minus(g).value, 2)
    check("unicyclic t_plus", t_plus(g).value, 2)
    check("unicyclic m_exact", mb.m_sandwich(g).m_exact, 2)

    g = mb.generalized_star(legs=3, leg_length=2)
    check("spider delta_plus", mb.delta_plus(g).value, 3)
    check("spider p", mb.induced_path_cover_bruteforce(g).size, 2)
    check("spider t_plus", t_plus(g).value, 2)

    g = mb.generate_family("fig3")
    check("joined-P3 tree t_plus", t_plus(g).value, 2)
    check("joined-P3 tree p", mb.induced_path_cover_bruteforce(g).size, 2)
    # delta_plus = min of p + |S| over sets S whose deletion leaves p disjoint
    # paths.  Edges 0-1, 1-2, 1-4, 3-4, 4-5.  Deleting {0, 3} leaves the one
    # path 2-1-4-5, so delta_plus <= 3.  Deleting nothing leaves vertex 1 with
    # degree 3, not a path.  No single deletion leaves one path: removing a
    # leaf leaves a centre of degree 3, removing a centre leaves 3 paths.  So
    # delta_plus = 3, and {0, 3} is the first such set in (size, lex) order.
    w = mb.delta_plus(g)
    check("joined-P3 tree delta_plus", w.value, 3)
    check("joined-P3 tree delta_plus witness", sorted(w.s), [0, 3])
    check("joined-P3 tree delta_plus paths", w.p_or_cover, 1)

    g = mb.generate_family("fig4")
    check("pendant-pair graph z", mb.zero_forcing_number(g)[0], 2)
    check("pendant-pair graph t_plus", t_plus(g).value, 4)

    _verdict(2, "reference graph values", failures)


def test_criterion_03_delta_equals_t_minus_on_corpus():
    # two unrelated engines: kept-set sweep for delta, bounded deletion
    # search for t_minus; the values must agree on every labeled graph
    t0 = time.monotonic()
    failures = []
    for n in range(1, CORPUS_MAX_N + 1):
        for g in mb.enumerate_small_graphs(n):
            d, _ = _delta_values(g.adj, g.n)
            tm, _ = _t_values(g.adj, g.n)
            if d != tm:
                failures.append(f"{g.graph6()}: delta {d} != t_minus {tm}")
    elapsed = time.monotonic() - t0
    if elapsed >= ORACLE_TIME_BUDGET:
        failures.append(f"time budget: {elapsed:.1f}s >= {ORACLE_TIME_BUDGET}s")
    _verdict(3, "delta equals t_minus on the corpus", failures)


def test_criterion_04_chain_on_corpus():
    failures = [
        f"{v['graph6']}: {v['check']} {v['values']}"
        for v in mb.verify_chain_corpus(CORPUS_MAX_N)
    ]
    _verdict(4, "parameter chain on the corpus", failures)


def test_criterion_05_search_cap_soundness():
    # t+- scan deletion sets only up to each component's cycle space
    # dimension; every labeled graph's values must match an exhaustive scan
    # of all deletion sets.  They are invariants, so the scan runs once per
    # isomorphism class, on its first member.
    failures = []
    for n in range(1, CORPUS_MAX_N + 1):
        ref = []
        for g, c in _isomorphism_classes(n):
            if c == len(ref):
                optima = first_optima(g)
                ref.append({name: optima[name][1] for name in ("t_minus", "t_plus")})
            for name, op in (("t_minus", t_minus), ("t_plus", t_plus)):
                got = op(g).value
                if got != ref[c][name]:
                    failures.append(f"{g.graph6()} {name}: walk {got} != exhaustive {ref[c][name]}")
    _verdict(5, "search cap soundness", failures)


def test_criterion_06_forest_collapse_and_cover_oracle():
    failures = []

    def trees(max_exhaustive, extra_ns, per_n):
        for n in range(1, max_exhaustive + 1):
            yield from all_labeled_trees(n)
        rng = random.Random(RANDOM_TREE_SEED)
        for n in extra_ns:
            for _ in range(per_n):
                yield random_tree(n, rng)

    # exhaustive through n=7, then >= 10^4 random trees for larger n;
    # the exhaustive n=8,9 sweep (17 million trees) is out of unit budget
    for g in trees(7, (8, 9), 5000):
        tm, tp = _t_values(g.adj, g.n)
        z = _z_value(g.adj, g.n)
        p = mb.min_path_cover(g).size
        if not tm == tp == z == p:
            failures.append(f"{g.graph6()}: t-={tm} t+={tp} z={z} p={p}")

    for g in trees(7, (8, 9, 10), 3334):
        fast = mb.min_path_cover(g).size
        brute = mb.path_cover_bruteforce(g).size
        if fast != brute:
            failures.append(f"{g.graph6()}: cover {fast} != brute {brute}")

    _verdict(6, "forest collapse and cover oracle", failures)


def test_criterion_07_multiplicity_certificates():
    failures = []
    # m_sandwich searches at the package defaults; they must stay the pinned tolerances.
    if (mb.DELTA_DEFAULT, mb.TOL_DEFAULT) != (DELTA, TOL):
        failures.append(f"defaults {(mb.DELTA_DEFAULT, mb.TOL_DEFAULT)} != pinned {(DELTA, TOL)}")
    cases = []
    for n in range(4, 11):
        cases.append((f"cycle {n}", mb.cycle_graph(n), n - 2, 2))
    for n in range(5, 9):
        cases.append((f"wheel {n}", mb.wheel_graph(n), n - 3, 3))
    for n in range(5, 10):
        cases.append((f"star {n}", mb.star_graph(n), 2, n - 2))
    for n in range(4, 7):
        cases.append((f"sun {n}", mb.sun_graph(n), 2 * n - n // 2, n // 2))

    # M(H_n) of the n-sun H_n (cycle c_0..c_{n-1}, pendant l_i on c_i).
    # Shift a pattern matrix so the eigenvalue sits at 0; M is then the
    # largest nullity.  Pendant-vertex rank rule: if l_i has a nonzero
    # diagonal entry it drops out with the same nullity, changing only the
    # free diagonal of c_i; if that entry is zero, l_i and c_i drop out
    # together with the same nullity.  So M(H_n) is the larger of M(C_n) = 2
    # and the most path components C_n minus a vertex set can have, which is
    # n // 2.  For n = 5 that gives M = 2 < Z = 3 (t_plus = 4), so the
    # bracket [lower, upper] = [t_minus, min(Z, t_plus)] stays [2, 3] and a
    # rank-7 certificate must not exist.  m_sandwich now applies this proof
    # (certificates._pendant_upper): the rule's upper end 2 meets t_minus,
    # so m_exact is 2 and no certificate search runs.
    open_brackets = {"sun 5": (2, 3)}

    for label, g, r, m_expected in cases:
        cert = mb.certificate_search(g, r, delta=DELTA, tol=TOL)
        if not (cert.converged and mb.verify_certificate(cert)):
            failures.append(f"{label}: rank {r} search did not converge")
        elif cert.m_lower < m_expected:
            failures.append(f"{label}: m_lower {cert.m_lower} < {m_expected}")
        sw = mb.m_sandwich(g)
        if label in open_brackets:
            if (sw.lower, sw.upper) != open_brackets[label]:
                failures.append(f"{label}: bracket {(sw.lower, sw.upper)} != {open_brackets[label]}")
        if sw.m_exact != m_expected:
            failures.append(f"{label}: m_exact {sw.m_exact} != {m_expected}")

    for n in range(4, 9):
        cert = mb.certificate_search(mb.path_graph(n), n - 2, tol=NEGATIVE_CONTROL_TOL)
        if cert.converged:
            failures.append(f"path {n}: rank {n - 2} converged but must not")
    cert = mb.certificate_search(mb.sun_graph(5), 7, delta=DELTA, tol=NEGATIVE_CONTROL_TOL)
    if cert.converged:
        failures.append("sun 5: rank 7 converged but must not")

    _verdict(7, "multiplicity certificates", failures)


def test_criterion_08_forcing_construction_on_corpus():
    failures = []
    for n in range(1, CORPUS_MAX_N + 1):
        for g in mb.enumerate_small_graphs(n):
            w = t_plus(g)
            try:
                f = mb.forcing_set_from_tplus(g, w)
            except mb.ForcingError as exc:
                failures.append(f"{g.graph6()}: {exc}")
                continue
            if len(f) > w.value:
                failures.append(f"{g.graph6()}: size {len(f)} > t_plus {w.value}")
            elif not mb.forcing_closure(g, f).forces_all(g.n):
                failures.append(f"{g.graph6()}: constructed set does not force")
    _verdict(8, "forcing construction on the corpus", failures)


def test_criterion_09_deletion_set_reduction():
    failures = []
    rng = random.Random(REDUCTION_SEED)
    densities = (0.25, 0.35, 0.5)
    trial = 0
    while trial < 100:
        g = random_graph(8, densities[trial % 3], rng)
        param = "t_minus" if trial % 2 == 0 else "t_plus"
        w = t_minus(g) if param == "t_minus" else t_plus(g)

        def score(s):
            sub, _ = mb.delete_vertices(g, s)
            p = mb.path_cover_bruteforce(sub).size
            return p - len(s) if param == "t_minus" else p + len(s)

        grown = set(w.s)
        for v in range(g.n):
            cand = grown | {v}
            sub, _ = mb.delete_vertices(g, cand)
            if mb.classify(sub).is_forest and score(cand) == w.value:
                grown = cand
        reduced = mb.reduce_optimal_set(g, grown)
        k = mb.classify(g).p
        if not reduced <= grown:
            failures.append(f"trial {trial}: output not a subset")
        if len(reduced) > g.m - g.n + k:
            failures.append(f"trial {trial}: size {len(reduced)} > {g.m - g.n + k}")
        if score(reduced) != w.value:
            failures.append(f"trial {trial}: {param} value {score(reduced)} != {w.value}")
        trial += 1
    _verdict(9, "deletion set reduction", failures)


def test_criterion_10_round_trips():
    failures = []
    for n in range(1, CORPUS_MAX_N + 1):
        for g in mb.enumerate_small_graphs(n):
            back = mb.parse_graph6(g.graph6())
            if back != g:
                failures.append(f"graph6 mismatch for {g.graph6()}")
    sample = mb.cycle_graph(5)
    if mb.parse_graph6(">>graph6<<" + sample.graph6()) != sample:
        failures.append("graph6 header variant failed")

    reports = [mb.compute_report(g) for g in mb.enumerate_small_graphs(4, connected_only=True)]
    reports.append(mb.compute_report(mb.path_graph(4)))
    # K_{2,3}: its m_lower_numeric 3 comes from a certificate, so it is not null
    reports.append(mb.compute_report(mb.parse_graph6("D]o"), with_numeric=True))
    import io

    for fmt, loader in (("json", mb.load_reports_json), ("csv", mb.load_reports_csv)):
        buf = io.StringIO()
        mb.emit_report(reports, format=fmt, destination=buf)
        buf.seek(0)
        back = loader(buf)
        if len(back) != len(reports):
            failures.append(f"{fmt}: row count {len(back)} != {len(reports)}")
            continue
        for a, b in zip(reports, back):
            fields = ("graph6", "n", "m", "t_minus", "delta", "z", "t_plus",
                      "delta_plus", "p_bruteforce", "m_lower_numeric", "m_exact")
            diffs = [f for f in fields if getattr(a, f) != getattr(b, f)]
            if diffs:
                failures.append(f"{fmt} {a.graph6}: fields differ {diffs}")
    _verdict(10, "serialization round trips", failures)
