"""Alternating-projection rank certificates and the multiplicity sandwich."""

import functools
import hashlib
import json
import random
import re
import time

import numpy as np
import pytest

import mrbounds as mb
from mrbounds import certificates, deletion, forcing
from conftest import class_representatives, random_graph, random_tree


class TestSampleAndProjectPattern:
    def test_sample_is_deterministic(self):
        g = mb.cycle_graph(5)
        a = mb.sample_pattern(g, seed=7)
        b = mb.sample_pattern(g, seed=7)
        assert np.array_equal(a.entries, b.entries)
        assert not np.array_equal(a.entries, mb.sample_pattern(g, seed=8).entries)

    def test_sample_lies_in_pattern(self):
        g = mb.wheel_graph(6)
        m = mb.sample_pattern(g, seed=0)
        m.validate()
        for u, v in g.edges:
            assert abs(m.entries[u, v]) >= m.delta

    def test_project_zero_matrix_clamps_edges_positive(self):
        g = mb.path_graph(2)
        m = mb.project_pattern(np.zeros((2, 2)), g, delta=0.1)
        assert m.entries[0, 1] == 0.1
        m.validate()

    def test_project_is_identity_on_pattern_members(self):
        g = mb.cycle_graph(4)
        a = mb.sample_pattern(g, seed=3)
        b = mb.project_pattern(a.entries, g, delta=a.delta)
        assert np.array_equal(a.entries, b.entries)

    def test_project_symmetrizes_and_zeroes_nonedges(self):
        g = mb.path_graph(3)
        raw = np.array([[1.0, 2.0, 5.0], [4.0, 1.0, 3.0], [5.0, 3.0, 1.0]])
        m = mb.project_pattern(raw, g, delta=0.5)
        assert m.entries[0, 1] == m.entries[1, 0] == 3.0
        assert m.entries[0, 2] == 0.0
        m.validate()

    def test_project_follows_the_rule_entry_by_entry(self):
        # the pattern rule as a plain double loop, compared bit for bit (sign
        # of zero included) on entries at exactly +-delta, +-0.0, just under
        # delta, and a diagonal entry so large that doubling it overflows
        delta = 1e-3
        under = np.nextafter(delta, 0.0)
        specials = np.array([delta, -delta, 0.0, -0.0, under, -under, 0.5, -0.5])
        rng = np.random.default_rng(2024)
        for g in (mb.cycle_graph(5), mb.wheel_graph(6), mb.sun_graph(3), mb.complete_graph(4), mb.Graph(3, ())):
            n = g.n
            for _ in range(25):
                m = rng.uniform(-2 * delta, 2 * delta, (n, n))
                pick = rng.random((n, n)) < 0.6
                m[pick] = rng.choice(specials, size=int(pick.sum()))
                m[rng.integers(n), rng.integers(n)] = -0.0
                k = rng.integers(n)
                m[k, k] = 1e308
                expected = np.zeros((n, n))
                for i in range(n):
                    for j in range(n):
                        if i == j:
                            expected[i, j] = m[i, j]
                        elif g.has_edge(i, j):
                            v = 0.5 * (m[i, j] + m[j, i])
                            expected[i, j] = v if abs(v) >= delta else (delta if v >= 0 else -delta)
                got = mb.project_pattern(m, g, delta).entries
                assert np.array_equal(got, expected)
                assert np.array_equal(np.signbit(got), np.signbit(expected))

    @pytest.mark.parametrize("shape", [(3, 4), (4, 4), (2, 2), (3,), ()])
    def test_project_rejects_wrong_shape(self, shape):
        # neither read from a larger matrix's top-left block nor an
        # IndexError on a smaller one: the shape names n
        with pytest.raises(mb.CertificateError, match=re.escape(f"shape {shape} is not n x n for n=3")):
            mb.project_pattern(np.zeros(shape), mb.path_graph(3))

    def test_entries_are_readonly(self):
        m = mb.sample_pattern(mb.path_graph(3), seed=0)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0

    def test_bad_delta_rejected(self):
        g = mb.path_graph(2)
        with pytest.raises(mb.CertificateError):
            mb.sample_pattern(g, seed=0, delta=0.0)
        with pytest.raises(mb.CertificateError):
            mb.project_pattern(np.zeros((2, 2)), g, delta=-1.0)
        for delta in (float("nan"), float("inf")):
            with pytest.raises(mb.CertificateError):
                mb.sample_pattern(g, seed=0, delta=delta)
            with pytest.raises(mb.CertificateError):
                mb.project_pattern(np.zeros((2, 2)), g, delta=delta)

    @pytest.mark.parametrize("delta", [2.0, 1.0000001])
    def test_delta_above_one_rejected_before_sampling(self, delta):
        # edge magnitudes come from [delta, 1]; numpy's own error read "high - low < 0"
        g = mb.path_graph(3)
        with pytest.raises(mb.CertificateError, match=re.escape("0 < delta <= 1")):
            mb.sample_pattern(g, 0, delta=delta)
        with pytest.raises(mb.CertificateError, match=re.escape("0 < delta <= 1")):
            mb.certificate_search(g, 2, delta=delta)
        # taking or loading a matrix keeps the rule delta > 0
        m = mb.project_pattern(np.ones((3, 3)), g, delta=delta)
        m.validate()
        assert m.entries[0, 1] == delta

    def test_delta_one_samples_unit_edges(self):
        g = mb.wheel_graph(6)
        m = mb.sample_pattern(g, 0, delta=1.0)
        m.validate()
        assert all(abs(m.entries[u, v]) == 1.0 for u, v in g.edges)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_matrix_rejected(self, bad):
        # one gate for every matrix: projections, validate and (TestSerialization) the loader
        g = mb.path_graph(2)
        m = np.array([[bad, 1.0], [1.0, 0.0]])
        for call in (lambda: mb.project_rank(m, 1), lambda: mb.project_pattern(m, g),
                     lambda: mb.PatternMatrix(m, g, 0.1).validate()):
            with pytest.raises(mb.CertificateError, match="entries must be finite"):
                call()

    def test_validate_catches_violations(self):
        g = mb.path_graph(3)
        sym = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 1.0], [0.5, 1.0, 0.0]])
        with pytest.raises(mb.CertificateError):
            mb.PatternMatrix(sym, g, 0.1).validate()  # non-edge (0,2) nonzero
        small = np.array([[0.0, 1e-6, 0.0], [1e-6, 0.0, 1.0], [0.0, 1.0, 0.0]])
        with pytest.raises(mb.CertificateError):
            mb.PatternMatrix(small, g, 0.1).validate()
        asym = np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        with pytest.raises(mb.CertificateError):
            mb.PatternMatrix(asym, g, 0.1).validate()
        with pytest.raises(mb.CertificateError, match="shape"):
            mb.PatternMatrix(np.eye(2), g, 0.1).validate()


class TestProjectRank:
    def test_truncates_smallest_magnitude(self):
        m = np.diag([3.0, 1.0, -2.0])
        out = mb.project_rank(m, 2)
        assert np.allclose(out, np.diag([3.0, 0.0, -2.0]), atol=1e-12)

    def test_full_rank_is_identity(self):
        m = np.diag([1.0, 2.0, 3.0])
        assert np.array_equal(mb.project_rank(m, 3), m)

    def test_rank_zero_is_zero(self):
        assert np.allclose(mb.project_rank(np.diag([1.0, 2.0]), 0), 0.0)

    def test_idempotent(self, rng):
        x = np.array([[rng.uniform(-1, 1) for _ in range(5)] for _ in range(5)])
        m = 0.5 * (x + x.T)
        once = mb.project_rank(m, 2)
        twice = mb.project_rank(once, 2)
        assert np.allclose(once, twice, atol=1e-10)
        assert np.linalg.matrix_rank(once, tol=1e-9) <= 2

    def test_closest_among_truncations(self, rng):
        # nearest rank-r point: no other spectral truncation is closer
        x = np.array([[rng.uniform(-1, 1) for _ in range(4)] for _ in range(4)])
        m = 0.5 * (x + x.T)
        best = np.linalg.norm(m - mb.project_rank(m, 2))
        lam, q = np.linalg.eigh(m)
        for _ in range(20):
            keep = rng.sample(range(4), 2)
            other = (q[:, keep] * lam[keep]) @ q[:, keep].T
            assert best <= np.linalg.norm(m - other) + 1e-12

    def test_bad_rank_rejected(self):
        with pytest.raises(mb.CertificateError):
            mb.project_rank(np.eye(3), 4)
        with pytest.raises(mb.CertificateError):
            mb.project_rank(np.eye(3), -1)

    @pytest.mark.parametrize("r", [1.5, True, 2.0, "2"])
    def test_non_int_rank_rejected(self, r):
        with pytest.raises(mb.CertificateError, match="not an int"):
            mb.project_rank(np.eye(3), r)

    def test_non_square_rejected(self):
        # the argument rules' error, not numpy's LinAlgError
        with pytest.raises(mb.CertificateError, match=re.escape("shape (3, 4) is not n x n for n=3")):
            mb.project_rank(np.zeros((3, 4)), 2)

    def test_asymmetric_rejected(self):
        # eigh reads the lower triangle only, so [[0, 1], [0, 0]] would give the
        # zero matrix (distance 1), not [[-.25, .25], [.25, -.25]] (distance .87)
        with pytest.raises(mb.CertificateError, match="not exactly symmetric"):
            mb.project_rank(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


class TestCertificateSearch:
    def test_cycle_rank_three(self):
        # C_5 has maximum nullity 2, so rank 3 is feasible
        g = mb.cycle_graph(5)
        c = mb.certificate_search(g, 3)
        assert c.converged
        assert c.m_lower == 2
        assert mb.verify_certificate(c)
        assert c.sigma[3] <= c.tol * c.sigma[0]

    def test_star_rank_two(self):
        # stars hit nullity n - 2 (rank 2: one positive, one negative direction)
        g = mb.star_graph(6)
        c = mb.certificate_search(g, 2)
        assert c.converged
        assert c.m_lower == 4
        assert mb.verify_certificate(c)

    def test_infeasible_target_does_not_converge(self):
        # paths have nullity at most 1 everywhere in the pattern
        g = mb.path_graph(4)
        c = mb.certificate_search(g, 2, restarts=3, max_iter=400)
        assert not c.converged
        assert not mb.verify_certificate(c)
        assert c.sigma[2] > c.tol * c.sigma[0]

    def test_search_is_deterministic(self):
        # the 6-sun stalls at rank 9 and is certified by the polish, whose
        # acceptance residual is far below what the projections reach
        for g, r in ((mb.cycle_graph(6), 4), (mb.sun_graph(6), 9)):
            a = mb.certificate_search(g, r, seed=5)
            b = mb.certificate_search(g, r, seed=5)
            assert a.sigma == b.sigma
            assert a.iterations == b.iterations
            assert np.array_equal(a.matrix.entries, b.matrix.entries)
        assert a.converged and mb.verify_certificate(a)
        assert a.sigma[9] <= mb.certificates.POLISH_TOL * a.sigma[0]

    def test_restarts_run_in_seed_order(self):
        # restart i draws with seed + i: on C10 at rank 8 restarts 0 and 1
        # stall and fail their polish, and restart 2 converges, so the search
        # is the one-restart search from seed 2
        full = mb.certificate_search(mb.cycle_graph(10), 8, seed=0)
        third = mb.certificate_search(mb.cycle_graph(10), 8, restarts=1, seed=2)
        assert full.converged and third.converged
        assert full.iterations == third.iterations == 54
        assert full.sigma == third.sigma
        assert np.array_equal(full.matrix.entries, third.matrix.entries)

    def test_trivial_targets(self):
        g = mb.path_graph(3)
        full = mb.certificate_search(g, 3)
        assert full.converged and full.m_lower == 0
        empty = mb.certificate_search(mb.Graph(2, frozenset()), 0)
        assert empty.converged

    @pytest.mark.parametrize("g", [mb.Graph(0, frozenset()), mb.path_graph(1), mb.Graph(3, frozenset()),
                                   mb.path_graph(3), mb.cycle_graph(5), mb.complete_graph(4)],
                             ids=lambda g: g.graph6())
    def test_boundary_ranks_verify_when_converged(self, g):
        # r = n keeps the whole spectrum, and an edgeless pattern holds the zero
        # matrix, whose empty or zero spectrum passes the rank test at r = 0
        for r in (0, g.n):
            c = mb.certificate_search(g, r, restarts=2, max_iter=50)
            if r == g.n or not g.edges:
                assert c.converged
            assert mb.verify_certificate(c) == c.converged

    def test_bad_parameters(self):
        g = mb.path_graph(3)
        with pytest.raises(mb.CertificateError):
            mb.certificate_search(g, 5)
        with pytest.raises(mb.CertificateError):
            mb.certificate_search(g, 1, restarts=0)

    @pytest.mark.parametrize("key,value", [
        ("restarts", 1.5),
        ("restarts", True),
        ("restarts", 0),
        ("restarts", 2.0),
        ("restarts", "2"),
        ("max_iter", 2.5),
        ("max_iter", True),
        ("max_iter", -1),
        ("max_iter", 2.0),
        ("max_iter", "2"),
        ("seed", None),
        ("seed", True),
        ("seed", 1.5),
        ("seed", 2.0),
        ("seed", "2"),
        ("seed", "3"),
        ("seed", -1),
    ])
    def test_bad_count_rejected(self, key, value):
        # a float count would reach range() as a TypeError, and a bool would run
        # as 1; a seed of None would draw an unseeded, unreproducible matrix
        g = mb.path_graph(3)
        with pytest.raises(mb.CertificateError, match=key):
            mb.certificate_search(g, 1, **{key: value})
        if key == "seed":
            # m_sandwich checks its seed even on a forest, where no search runs
            for call in (lambda: mb.sample_pattern(g, value), lambda: mb.m_sandwich(g, seed=value)):
                with pytest.raises(mb.CertificateError, match=key):
                    call()

    @pytest.mark.parametrize("r", [1.5, True, 2.0, "2"])
    def test_non_int_rank_rejected(self, r):
        with pytest.raises(mb.CertificateError, match="not an int"):
            mb.certificate_search(mb.path_graph(3), r)

    @pytest.mark.parametrize("key,value", [
        ("tol", float("nan")),
        ("tol", -1.0),
        ("tol", float("inf")),
        ("delta", float("nan")),
        ("delta", float("inf")),
        ("delta", 0.0),
    ])
    def test_bad_tol_or_delta_rejected(self, key, value):
        # a NaN tol would switch off the polish's residual test and let the
        # 5-sun (M = 2) pass as a rank-7 certificate, M >= 3
        with pytest.raises(mb.CertificateError, match=key):
            mb.certificate_search(mb.sun_graph(5), 7, restarts=3, **{key: value})

    def test_nullity_respects_forcing_bound(self):
        # converged nullity claims must stay under the zero forcing number
        for g in (mb.cycle_graph(5), mb.wheel_graph(5), mb.complete_graph(4)):
            z, _ = mb.zero_forcing_number(g)
            for r in range(g.n, -1, -1):
                c = mb.certificate_search(g, r, restarts=4, max_iter=600)
                if not c.converged:
                    break
                assert c.m_lower <= z


class TestPolish:
    C4 = np.array([[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0]])

    @staticmethod
    def polish_c4(a):
        # the polish of ``a`` at rank 2, as certificate_search hands it over
        lam, q = np.linalg.eigh(a)
        order = np.argsort(-np.abs(lam), kind="stable")
        pattern = certificates._Pattern(mb.cycle_graph(4))
        return certificates._polish(a, lam, q, order, 2, pattern, mb.TOL_DEFAULT, mb.DELTA_DEFAULT)

    def test_starts_from_the_largest_eigenpairs(self):
        # C4's adjacency matrix has rank 2 (eigenvalues 2, 0, 0, -2) and every
        # edge above the floor 0.3 * sigma[0], so a polish that starts from its
        # two largest-magnitude eigenpairs returns it unchanged
        polished = self.polish_c4(self.C4)
        assert polished is not None
        assert np.max(np.abs(polished[0] - self.C4)) <= 1e-9

    def test_steps_through_the_jacobian(self):
        # C4's adjacency with edge (0, 1) at 1.05 and a_22 = 0.05 has rank 4,
        # so the polish starts above cost 0 and must take Levenberg-Marquardt
        # steps back to a rank-2 pattern matrix
        a = self.C4.copy()
        a[0, 1] = a[1, 0] = 1.05
        a[2, 2] = 0.05
        polished = self.polish_c4(a)
        assert polished is not None
        entries, sigma, steps = polished
        assert steps >= 1
        assert entries[0, 2] == entries[2, 0] == entries[1, 3] == entries[3, 1] == 0.0
        assert certificates._residual(sigma, 2) <= certificates.POLISH_TOL
        # rank-2 pattern matrices near ``a`` form a continuum, and where the
        # steps land on it depends on the Jacobian: a wrong column moves this
        # diagonal by 1e-4 or more
        expected = [-0.025292076469, -0.000312209127, 0.024081148181, 0.000296985241]
        assert np.allclose(np.diagonal(entries), expected, rtol=0.0, atol=1e-9)


class TestVerifyCertificate:
    def test_rejects_corrupted_entries(self):
        g = mb.cycle_graph(5)
        c = mb.certificate_search(g, 3)
        assert mb.verify_certificate(c)
        bad = np.array(c.matrix.entries)
        bad[0, 2] = bad[2, 0] = 0.01  # non-edge in C_5
        forged = mb.RankCertificate(
            mb.PatternMatrix(bad, g, c.matrix.delta), c.r, c.sigma, c.tol,
            c.converged, c.iterations,
        )
        assert not mb.verify_certificate(forged)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    @pytest.mark.parametrize("g,r", [(mb.path_graph(3), 3), (mb.cycle_graph(5), 3)], ids=["P3-r3", "C5-r3"])
    def test_tol_outside_the_rule_never_verifies(self, g, r, tol):
        # at r = n the rank test passes for any tol >= 0; the tol rule still holds
        c = mb.certificate_search(g, r)
        assert mb.verify_certificate(c)
        forged = mb.RankCertificate(c.matrix, c.r, c.sigma, tol, True, c.iterations)
        assert not mb.verify_certificate(forged)

    @pytest.mark.parametrize("r", [1.5, True, 2.0, "2"])
    def test_non_int_rank_never_verifies(self, r):
        c = mb.certificate_search(mb.path_graph(3), 2)
        assert mb.verify_certificate(c)
        forged = mb.RankCertificate(c.matrix, r, c.sigma, c.tol, True, c.iterations)
        assert not mb.verify_certificate(forged)

    def test_residual(self):
        assert certificates._residual((4.0, 2.0, 1.0), 1) == 0.5
        assert certificates._residual((4.0, 2.0, 1.0), 3) == 0.0
        assert certificates._residual((0.0, 0.0), 0) == 0.0
        assert certificates._residual((), 0) == 0.0

    def test_rejects_wrong_tolerance_claim(self):
        g = mb.path_graph(4)
        c = mb.certificate_search(g, 2, restarts=2, max_iter=300)
        # the plateau residual is far above tol, so re-verification fails
        assert not mb.verify_certificate(c)
        relaxed = mb.RankCertificate(c.matrix, c.r, c.sigma, 1e-2, False, c.iterations)
        assert mb.verify_certificate(relaxed)

    def test_shift_preserves_pattern_and_multiplicity(self):
        # A + t*I has the same off-diagonal support; eigenvalue 0 of A moves
        # to t with the same multiplicity, so M(G) talk transfers to nullity
        g = mb.cycle_graph(5)
        c = mb.certificate_search(g, 3)
        shifted = np.array(c.matrix.entries) + 1.0 * np.eye(5)
        mb.project_pattern(shifted, g, delta=c.matrix.delta).validate()
        lam = np.linalg.eigvalsh(shifted)
        assert np.sum(np.abs(lam - 1.0) <= 1e-6) >= 2

    @pytest.mark.xfail(strict=True, reason="the rank test alone verifies a near-degenerate spectrum")
    def test_wilkinson_pair_is_no_certificate(self):
        # W21+ (diagonal |10 - i|, unit off-diagonal) shifted by its top
        # eigenvalue is a pattern matrix of P_21 whose sigma[19] / sigma[0] is
        # about 6e-15: its top two eigenvalues agree to about 1e-14, yet
        # M(P_21) = 1, so a rank-19 certificate (m_lower 2) must not verify
        g = mb.path_graph(21)
        w = np.diag(np.abs(np.arange(21) - 10.0)) + np.eye(21, k=1) + np.eye(21, k=-1)
        a = w - np.linalg.eigvalsh(w)[-1] * np.eye(21)
        c = mb.RankCertificate(mb.PatternMatrix(a, g, 1.0), 19, tuple(certificates._spectrum(a)),
                               mb.TOL_DEFAULT, True, 0)
        assert c.m_lower == 2
        assert not mb.verify_certificate(c)


class TestMSandwich:
    def test_forest_needs_no_numerics(self):
        s = mb.m_sandwich(mb.star_graph(7), numeric=False)
        assert s.m_exact == 5
        assert s.t_minus == s.upper == 5
        assert s.numeric_lower is None

    def test_combinatorial_pin_skips_numerics(self):
        # t_minus already meets min(z, t_plus): no certificates needed
        s = mb.m_sandwich(mb.generate_family("fig1"), numeric=True)
        assert s.m_exact == 2
        assert s.numeric_lower is None

    def test_biclique_pinned_by_certificate(self):
        # K_{2,3}: no exact rule reaches min(Z, t_plus) = 3, a rank-2 certificate does
        s = mb.m_sandwich(mb.parse_graph6("D]o"))
        assert (s.t_minus, s.z, s.t_plus, s.delta_plus) == (1, 3, 3, 3)
        assert s.numeric_lower == 3
        assert s.m_exact == 3
        assert s.lower == s.upper == 3

    def test_numeric_off_leaves_gap_open(self):
        s = mb.m_sandwich(mb.wheel_graph(5), numeric=False)
        assert s.numeric_lower is None and s.m_exact is None
        assert s.lower == -1 and s.upper == 3

    def test_wrong_z_on_forest_conflicts(self, monkeypatch):
        # m_sandwich searches its own bounds: a wrong Z where it reads Z
        # breaks t_minus = z = t_plus on a forest
        real = certificates.zero_forcing_number

        def wrong_z(g):
            z, witness = real(g)
            return z - 1, witness

        monkeypatch.setattr(certificates, "zero_forcing_number", wrong_z)
        with pytest.raises(mb.CertificateConflict, match="forest bounds disagree"):
            mb.m_sandwich(mb.path_graph(4))

    def test_complete_graph(self):
        s = mb.m_sandwich(mb.complete_graph(4))
        assert s.z == s.t_plus == 3
        assert s.m_exact == 3


def disjoint_union(parts):
    """The disjoint union of ``parts``, each relabelled after the last."""
    edges, n = [], 0
    for h in parts:
        edges += [(u + n, v + n) for u, v in h.edges]
        n += h.n
    return mb.Graph.from_edges(n, edges)


@functools.cache
def small_classes() -> tuple:
    """class_representatives for n = 0..7 (1,253 graphs), enumerated once."""
    return tuple(g for n in range(8) for g in class_representatives(n))


class TestPendantUpper:
    """The pendant-vertex rule's upper end (certificates._pendant_upper)."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_suns_close_at_their_multiplicity(self, n):
        # M of the n-sun is max(2, n // 2) (criterion 07's proof)
        assert mb.m_sandwich(mb.sun_graph(n)).m_exact == max(2, n // 2)

    @pytest.mark.parametrize("n", [5, 7])
    def test_odd_suns_run_no_search(self, n, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("certificate_search called")

        monkeypatch.setattr(certificates, "certificate_search", refuse)
        s = mb.m_sandwich(mb.sun_graph(n))
        assert (s.numeric_lower, s.m_exact) == (None, n // 2)
        assert s.lower < s.upper

    def test_every_small_class_meets_the_exact_upper_end(self):
        # the rule is an upper end on M, so it never falls below t_minus; on
        # every class with n <= 7, M = min(Z, t_plus), and the rule meets it
        for g in small_classes():
            tm, tp = deletion._t_values(g.adj, g.n)
            z = forcing._z_value(g.adj, g.n)
            upper = certificates._pendant_upper(g.adj, g.n)
            assert tm <= upper == min(z, tp), g.graph6()

    def test_forests_score_their_path_cover_number(self):
        # the rule alone takes a tree down to single vertices, and M = P there
        forests = [g for g in small_classes() if mb.classify(g).is_forest]
        rng = random.Random(20261020)
        forests += [random_tree(rng.randint(1, 16), rng) for _ in range(200)]
        comb = [(i, i + 1) for i in range(7)] + [(i, 8 + i) for i in range(8)]
        forests += [mb.star_graph(16), mb.Graph.from_edges(16, comb)]
        for g in forests:
            assert certificates._pendant_upper(g.adj, g.n) == mb.min_path_cover(g).size, g.graph6()

    def test_empty_single_vertex_and_disjoint_union(self):
        assert certificates._pendant_upper((), 0) == 0
        assert certificates._pendant_upper((0,), 1) == 1
        parts = [mb.sun_graph(5), mb.path_graph(4), mb.Graph(1, ()), mb.cycle_graph(6), mb.wheel_graph(5)]
        union = disjoint_union(parts)
        scores = [certificates._pendant_upper(h.adj, h.n) for h in parts]
        assert scores == [2, 1, 1, 2, 3]
        assert certificates._pendant_upper(union.adj, union.n) == sum(scores)

    def test_pendant_free_graphs_score_z(self):
        rng = random.Random(20261020)
        graphs = list(small_classes())
        graphs += [random_graph(rng.randint(8, 12), 0.4, rng) for _ in range(60)]
        free = [g for g in graphs if all(g.degree(v) != 1 for v in range(g.n))]
        assert len(free) > 500
        for g in free:
            assert certificates._pendant_upper(g.adj, g.n) == forcing._z_value(g.adj, g.n), g.graph6()

    def test_complete_graph_with_pendants_is_fast(self):
        # K8 with a pendant on every vertex: removing the pendants one by one
        # leaves K8, so M >= 7 = Z
        edges = [(i, j) for i in range(8) for j in range(i + 1, 8)] + [(i, 8 + i) for i in range(8)]
        g = mb.Graph.from_edges(16, edges)
        start = time.perf_counter()
        assert certificates._pendant_upper(g.adj, g.n) == 7
        assert time.perf_counter() - start < 0.5


def reach(adj, s: int) -> int:
    """Every vertex with a neighbour in the vertex set ``s``."""
    out = 0
    for v in range(len(adj)):
        if s >> v & 1:
            out |= adj[v]
    return out


def connected_submasks(adj, mask: int) -> list[int]:
    """Every non-empty vertex set within ``mask`` that induces a connected
    subgraph, by a search from its lowest vertex."""
    out = []
    sub = mask
    while sub:
        seen = frontier = sub & -sub
        while frontier:
            frontier = reach(adj, frontier) & sub & ~seen
            seen |= frontier
        if seen == sub:
            out.append(sub)
        sub = (sub - 1) & mask
    return out


def has_k4_minor(adj, mask: int) -> bool:
    """Brute force: four disjoint connected vertex sets within ``mask``,
    pairwise joined by an edge."""
    sets = [(s, reach(adj, s) & ~s) for s in connected_submasks(adj, mask)]

    def extend(chosen, used, start):
        if len(chosen) == 4:
            return True
        return any(extend(chosen + [s], used | s, i + 1)
                   for i, (s, outside) in enumerate(sets[start:], start)
                   if not s & used and all(outside & c for c in chosen))

    return extend([], 0, 0)


def expected_minor_lower(g) -> int:
    """The rule's value read off the oracle: per component, 1 for a path,
    3 with a K4 minor, else 2."""
    total = 0
    for comp in connected_submasks(g.adj, (1 << g.n) - 1):
        if reach(g.adj, comp) & ~comp:
            continue  # not a whole component
        degrees = [(g.adj[v] & comp).bit_count() for v in range(g.n) if comp >> v & 1]
        if sum(degrees) // 2 == len(degrees) - 1 and max(degrees) <= 2:
            total += 1
        else:
            total += 3 if has_k4_minor(g.adj, comp) else 2
    return total


class TestMinorLower:
    """Fiedler's path rule and the K4-minor rule (certificates._minor_lower)."""

    def test_k4_test_matches_branch_sets(self):
        # every class with n <= 7; 756 of them have a K4 minor
        k4 = 0
        for g in small_classes():
            assert certificates._minor_lower(g.adj, g.n) == expected_minor_lower(g), g.graph6()
            k4 += has_k4_minor(g.adj, (1 << g.n) - 1)
        assert k4 == 756

    def test_never_above_the_exact_upper_end(self):
        # the prototype's census: 627 of the 1,122 brackets with
        # t_minus < min(Z, t_plus) at n <= 7 close at the rule's value
        rng = random.Random(20261021)
        graphs = list(small_classes())
        graphs += [random_graph(rng.randint(8, 12), rng.choice((0.2, 0.35, 0.6)), rng) for _ in range(60)]
        open_brackets = closed = 0
        for i, g in enumerate(graphs):
            tm, tp = deletion._t_values(g.adj, g.n)
            upper = min(forcing._z_value(g.adj, g.n), tp)
            low = certificates._minor_lower(g.adj, g.n)
            assert low <= upper, g.graph6()
            if i < len(small_classes()) and tm < upper:
                open_brackets += 1
                closed += low == upper
        assert (open_brackets, closed) == (1122, 627)

    def test_components_add(self):
        assert certificates._minor_lower((), 0) == 0
        assert certificates._minor_lower((0,), 1) == 1
        parts = [mb.path_graph(4), mb.Graph(1, ()), mb.cycle_graph(6), mb.wheel_graph(5),
                 mb.parse_graph6("D]o"), mb.sun_graph(5)]
        union = disjoint_union(parts)
        scores = [certificates._minor_lower(h.adj, h.n) for h in parts]
        assert scores == [1, 1, 2, 3, 2, 2]
        assert certificates._minor_lower(union.adj, union.n) == sum(scores)

    @pytest.mark.parametrize("g, m", [*((mb.cycle_graph(n), 2) for n in range(4, 11)),
                                      *((mb.wheel_graph(n), 3) for n in range(5, 9)),
                                      (mb.sun_graph(3), 2), (mb.sun_graph(5), 2)],
                             ids=[*(f"C{n}" for n in range(4, 11)), *(f"W{n}" for n in range(5, 9)),
                                  "sun3", "sun5"])
    def test_certify_targets_close_with_no_search(self, g, m, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("certificate_search called")

        monkeypatch.setattr(certificates, "certificate_search", refuse)
        s = mb.m_sandwich(g)
        assert (s.numeric_lower, s.m_exact) == (None, m)

    def test_k23_still_searches(self, monkeypatch):
        # K_{2,3} has no K4 minor, so the rule gives 2 against min(Z, t_plus)
        # = 3, and a rank-2 certificate closes the bracket
        g = mb.parse_graph6("D]o")
        assert sorted(g.edges) == [(u, v) for u in (0, 1) for v in (2, 3, 4)]
        ranks = []
        real = certificates.certificate_search

        def counted(g, r, **kwargs):
            ranks.append(r)
            return real(g, r, **kwargs)

        monkeypatch.setattr(certificates, "certificate_search", counted)
        s = mb.m_sandwich(g)
        assert certificates._minor_lower(g.adj, g.n) == 2 and s.upper == 3
        assert ranks == [2]
        assert (s.numeric_lower, s.m_exact) == (3, 3)

    def test_rule_above_the_upper_end_conflicts(self, monkeypatch):
        monkeypatch.setattr(certificates, "_pendant_upper", lambda adj, n: 2)
        with pytest.raises(mb.CertificateConflict, match="minor lower end 3 exceeds upper end 2"):
            mb.m_sandwich(mb.wheel_graph(5))


# sha256 of repr(m_sandwich(g)) over sandwich_graphs(), without numerics, then
# with numerics on the cycles C4-C8, the wheels W5-W7 and the 3-sun.  Taken
# from the sandwich that set m_exact by its own three-way branch, before it
# read both ends from MSandwich.lower and MSandwich.upper; re-pinned when the
# minor rule (_minor_lower) closed all nine numeric graphs with no search,
# which moved only their numeric_lower, from a certificate's k to None.
SANDWICH_SHA256 = "1423159efc1f632702dccee0f90908ff37fc04622c8746bfeaf5b44a207c0a5e"


def sandwich_graphs():
    """Every class representative with n <= 6 (209 of them), then 200 seeded
    random graphs with n in 7..12."""
    for n in range(7):
        yield from class_representatives(n)
    rng = random.Random(20261019)
    for _ in range(200):
        yield random_graph(rng.randint(7, 12), rng.choice((0.2, 0.35, 0.6)), rng)


def test_sandwich_digest():
    h = hashlib.sha256()
    for g in sandwich_graphs():
        h.update(repr(mb.m_sandwich(g, numeric=False)).encode())
    numeric = [*map(mb.cycle_graph, range(4, 9)), *map(mb.wheel_graph, range(5, 8)), mb.sun_graph(3)]
    for g in numeric:
        h.update(repr(mb.m_sandwich(g)).encode())
    assert h.hexdigest() == SANDWICH_SHA256


class TestSerialization:
    def test_json_round_trip(self):
        c = mb.certificate_search(mb.cycle_graph(5), 3)
        back = mb.certificate_from_json(mb.certificate_to_json(c))
        assert np.array_equal(back.matrix.entries, c.matrix.entries)
        assert back.sigma == c.sigma
        assert back.r == c.r and back.tol == c.tol
        assert back.converged == c.converged
        assert back.matrix.graph == c.matrix.graph
        assert mb.verify_certificate(back)

    def test_file_round_trip(self, tmp_path):
        c = mb.certificate_search(mb.star_graph(5), 2)
        path = tmp_path / "cert.json"
        mb.write_certificate(c, path)
        back = mb.read_certificate(path)
        assert np.array_equal(back.matrix.entries, c.matrix.entries)
        assert back.iterations == c.iterations

    @pytest.mark.parametrize("key,value", [
        ("converged", "false"),
        ("r", 2.9),
        ("sigma", None),  # None: the key is missing
        ("entries", ["0.5"]),
        # the right types, but a size that does not fit the 3-vertex graph
        ("entries", [1.0, 0.0, 0.0, 1.0]),
        ("r", 7),
        ("r", -1),
        ("sigma", [1.0]),
        # the right types, but values no search would produce
        ("delta", 0.0),
        ("delta", -1.0),
        ("delta", float("nan")),
        ("tol", -1.0),
        ("tol", float("inf")),
        ("tol", float("nan")),
        ("sigma", [float("nan"), -1.0, 2.0]),
        ("sigma", [2.0, 1.0, -1.0]),
        ("sigma", [float("inf"), 1.0, 0.0]),
        ("sigma", [1.0, 2.0, 0.0]),
        ("iterations", -1),
        # an edge entry that json writes as Infinity or NaN, and reads back
        ("entries", [1.0, float("inf"), 0.0, float("inf"), 1.0, 1.0, 0.0, 1.0, 1.0]),
        ("entries", [1.0, float("nan"), 0.0, float("nan"), 1.0, 1.0, 0.0, 1.0, 1.0]),
    ])
    def test_mistyped_field_rejected(self, key, value):
        d = json.loads(mb.certificate_to_json(mb.certificate_search(mb.path_graph(3), 2)))
        if value is None:
            del d[key]
        else:
            d[key] = value
        with pytest.raises(mb.CertificateError, match=key):
            mb.certificate_from_json(json.dumps(d))

    @pytest.mark.parametrize("key", ["entries", "sigma", "tol", "delta"])
    def test_integer_too_large_for_a_float_rejected(self, key):
        # json reads the literal 1e400 as inf, but an integer literal stays an int
        d = json.loads(mb.certificate_to_json(mb.certificate_search(mb.path_graph(3), 2)))
        if isinstance(d[key], list):
            d[key][0] = 10 ** 400
        else:
            d[key] = 10 ** 400
        with pytest.raises(mb.CertificateError, match=key):
            mb.certificate_from_json(json.dumps(d))

    def test_non_object_rejected(self):
        with pytest.raises(mb.CertificateError, match="not an object"):
            mb.certificate_from_json("[]")

    def test_mismatched_n_rejected(self):
        c = mb.certificate_search(mb.path_graph(3), 2)
        d = json.loads(mb.certificate_to_json(c))
        d["n"] = 4
        with pytest.raises(mb.CertificateError):
            mb.certificate_from_json(json.dumps(d))
