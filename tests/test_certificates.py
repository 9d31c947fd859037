"""Alternating-projection rank certificates and the multiplicity sandwich."""

import numpy as np
import pytest

import mrbounds as mb
from mrbounds import certificates


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

    def test_trivial_targets(self):
        g = mb.path_graph(3)
        full = mb.certificate_search(g, 3)
        assert full.converged and full.m_lower == 0
        empty = mb.certificate_search(mb.Graph(2, frozenset()), 0)
        assert empty.converged

    def test_bad_parameters(self):
        g = mb.path_graph(3)
        with pytest.raises(mb.CertificateError):
            mb.certificate_search(g, 5)
        with pytest.raises(mb.CertificateError):
            mb.certificate_search(g, 1, restarts=0)

    def test_nullity_respects_forcing_bound(self):
        # converged nullity claims must stay under the zero forcing number
        for g in (mb.cycle_graph(5), mb.wheel_graph(5), mb.complete_graph(4)):
            z, _ = mb.zero_forcing_number(g)
            for r in range(g.n, -1, -1):
                c = mb.certificate_search(g, r, restarts=4, max_iter=600)
                if not c.converged:
                    break
                assert c.m_lower <= z


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

    def test_wheel_pinned_by_certificate(self):
        s = mb.m_sandwich(mb.wheel_graph(5))
        assert (s.t_minus, s.z, s.t_plus, s.delta_plus) == (-1, 3, 3, 3)
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

    def test_mismatched_n_rejected(self):
        import json

        c = mb.certificate_search(mb.path_graph(3), 2)
        d = json.loads(mb.certificate_to_json(c))
        d["n"] = 4
        with pytest.raises(mb.CertificateError):
            mb.certificate_from_json(json.dumps(d))
