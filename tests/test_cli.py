"""End-to-end command line checks through main(argv)."""

import json

import pytest

import mrbounds as mb
from mrbounds import reports
from mrbounds.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFamily:
    def test_path(self, capsys):
        code, out, _ = run(capsys, "family", "--kind", "path", "--n", "4")
        assert code == 0
        assert out.strip() == mb.path_graph(4).graph6()

    def test_fixed_example_needs_no_n(self, capsys):
        code, out, _ = run(capsys, "family", "--kind", "fig1")
        assert code == 0
        assert out.strip() == mb.generate_family("fig1").graph6()

    def test_extra_parameters(self, capsys):
        code, out, _ = run(
            capsys, "family", "--kind", "genstar",
            "--extra", "legs=4", "--extra", "leg_length=3",
        )
        assert code == 0
        assert out.strip() == mb.generalized_star(legs=4, leg_length=3).graph6()

    def test_malformed_extra(self, capsys):
        code, _, err = run(capsys, "family", "--kind", "genstar", "--extra", "legs4")
        assert code == 2
        assert "error" in err

    def test_unknown_extra_key(self, capsys):
        code, _, err = run(capsys, "family", "--kind", "path", "--n", "3",
                           "--extra", "bogus=1")
        assert code == 2
        assert "error" in err


class TestCompute:
    def test_json_single_graph(self, capsys):
        g6 = mb.cycle_graph(5).graph6()
        code, out, _ = run(capsys, "compute", "--graph6", g6)
        assert code == 0
        data = json.loads(out)
        assert len(data) == 1
        assert data[0]["graph6"] == g6
        assert data[0]["t_plus"] == 2
        assert data[0]["chain_ok"] is True

    def test_csv_from_file(self, capsys, tmp_path):
        src = tmp_path / "graphs.g6"
        src.write_text(f"{mb.path_graph(3).graph6()}\n{mb.cycle_graph(4).graph6()}\n")
        dst = tmp_path / "report.csv"
        code, out, _ = run(capsys, "compute", "--file", str(src),
                           "--format", "csv", "--out", str(dst))
        assert code == 0
        assert out == ""
        rows = mb.load_reports_csv(str(dst))
        assert [r.graph6 for r in rows] == [mb.path_graph(3).graph6(),
                                            mb.cycle_graph(4).graph6()]

    def test_numeric_flag(self, capsys):
        g6 = mb.wheel_graph(5).graph6()
        code, out, _ = run(capsys, "compute", "--graph6", g6, "--numeric")
        assert code == 0
        assert json.loads(out)[0]["m_exact"] == 3

    def test_bad_graph6(self, capsys):
        code, _, err = run(capsys, "compute", "--graph6", "B~~")
        assert code == 2
        assert "error" in err

    def test_contradicting_bounds_exit_one(self, capsys, monkeypatch):
        # a wrong Z on a forest breaks t_minus = z = t_plus: a verification
        # failure (exit 1), not a usage error (exit 2).  The report computes
        # Z once and hands it to the sandwich, so Z is injected where the
        # report reads it.
        real = reports.zero_forcing_number

        def wrong_z(g):
            z, witness = real(g)
            return z - 1, witness

        monkeypatch.setattr(reports, "zero_forcing_number", wrong_z)
        g6 = mb.path_graph(4).graph6()
        code, out, err = run(capsys, "compute", "--graph6", g6, "--numeric")
        assert code == 1
        assert out == ""
        assert "forest bounds disagree" in err


class TestVerifyChain:
    def test_clean_corpus(self, capsys):
        code, out, _ = run(capsys, "verify-chain", "--max-n", "4")
        assert code == 0
        assert "no violations" in out

    def test_guard_rejects_seven_without_long_run(self, capsys):
        code, _, err = run(capsys, "verify-chain", "--max-n", "7")
        assert code == 2
        assert "error" in err


class TestSurvey:
    def test_summary_and_out(self, capsys, tmp_path):
        dst = tmp_path / "survey.json"
        code, out, _ = run(capsys, "survey", "--max-n", "4", "--out", str(dst))
        assert code == 0
        assert "z_eq_t_plus: equal 75, strict 0" in out
        data = json.loads(dst.read_text())
        assert data["max_n"] == 4
        assert data["classes"]["t_minus_eq_t_plus"]["equal_count"] == 48


class TestCertify:
    def test_converged(self, capsys, tmp_path):
        dst = tmp_path / "cert.json"
        g6 = mb.cycle_graph(5).graph6()
        code, out, _ = run(capsys, "certify", "--graph6", g6, "--rank", "3",
                           "--out", str(dst))
        assert code == 0
        assert "converged" in out
        assert "maximum multiplicity >= 2" in out
        cert = mb.read_certificate(str(dst))
        assert cert.converged and mb.verify_certificate(cert)

    def test_not_converged_exits_one(self, capsys):
        g6 = mb.path_graph(4).graph6()
        code, out, _ = run(capsys, "certify", "--graph6", g6, "--rank", "2",
                           "--restarts", "2", "--max-iter", "200")
        assert code == 1
        assert "not converged" in out

    def test_bad_rank(self, capsys):
        code, _, err = run(capsys, "certify", "--graph6", "Bg", "--rank", "9")
        assert code == 2
        assert "error" in err


class TestZf:
    def test_output(self, capsys):
        g6 = mb.generate_family("fig4").graph6()
        code, out, _ = run(capsys, "zf", "--graph6", g6)
        assert code == 0
        assert "Z = 2" in out
        assert "witness: 0 3" in out


class TestParser:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_compute_requires_a_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute"])
        assert exc.value.code == 2
