"""End-to-end command line checks through main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mrbounds as mb
from mrbounds import certificates, reports
from mrbounds.cli import main
from mrbounds.core import _FAMILY_KINDS

# the directory that holds the mrbounds package this process imported
PACKAGE_ROOT = str(Path(mb.__file__).resolve().parents[1])
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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

    def test_every_kind_is_a_choice(self, capsys):
        for kind in _FAMILY_KINDS:
            code, out, _ = run(capsys, "family", "--kind", kind, "--n", "6")
            assert code == 0
            assert out.strip() == mb.generate_family(kind, 6).graph6()

    def test_malformed_extra(self, capsys):
        code, _, err = run(capsys, "family", "--kind", "genstar", "--extra", "legs4")
        assert code == 2
        assert "error" in err

    def test_fixed_example_rejects_extra(self, capsys):
        code, out, err = run(capsys, "family", "--kind", "fig1", "--extra", "legs=3")
        assert code == 2
        assert out == ""
        assert "takes no extra parameters" in err

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

    def test_chain_violation_exits_one(self, capsys, monkeypatch, tmp_path):
        # Z + 1 on C5 breaks z <= t_plus: compute still writes every report,
        # then exits 1
        c4, c5 = mb.cycle_graph(4), mb.cycle_graph(5)
        real = reports.zero_forcing_number

        def wrong_z(g):
            z, witness = real(g)
            return z + (g == c5), witness

        monkeypatch.setattr(reports, "zero_forcing_number", wrong_z)
        src = tmp_path / "graphs.g6"
        src.write_text(f"{c5.graph6()}\n{c4.graph6()}\n")
        code, out, _ = run(capsys, "compute", "--file", str(src))
        assert code == 1
        assert [(r["graph6"], r["chain_ok"]) for r in json.loads(out)] == [(c5.graph6(), False), (c4.graph6(), True)]


class TestVerifyChain:
    def test_clean_corpus(self, capsys):
        code, out, _ = run(capsys, "verify-chain", "--max-n", "4")
        assert code == 0
        assert "no violations" in out

    @staticmethod
    def inject_fault(monkeypatch, degree):
        # t_plus one too low on every 4-vertex graph whose vertices all have
        # this degree: 2 gives the 4-cycles, 1 the disconnected matchings 2K2
        real = reports._t_values

        def faulty(adj, n):
            tm, tp = real(adj, n)
            if n == 4 and all(a.bit_count() == degree for a in adj):
                tp -= 1
            return tm, tp

        monkeypatch.setattr(reports, "_t_values", faulty)

    @pytest.mark.parametrize("flags", [(), ("--connected-only",)])
    def test_violations_exit_one_with_one_line_each(self, capsys, monkeypatch, flags):
        self.inject_fault(monkeypatch, 2)
        lines = [f"{v['graph6']}: {v['check']} fails with values {v['values']}"
                 for v in mb.verify_chain_corpus(4)]
        assert len(lines) == 6  # z <= t_plus and p_bruteforce <= t_plus on each labeled 4-cycle
        code, out, _ = run(capsys, "verify-chain", "--max-n", "4", *flags)
        assert code == 1
        assert out.splitlines() == lines + ["6 violation(s)"]

    def test_connected_only_drops_a_disconnected_class(self, capsys, monkeypatch):
        self.inject_fault(monkeypatch, 1)
        code, out, _ = run(capsys, "verify-chain", "--max-n", "4")
        assert code == 1
        assert out.splitlines()[-1] == "6 violation(s)"
        code, out, _ = run(capsys, "verify-chain", "--max-n", "4", "--connected-only")
        assert code == 0
        assert out == "no violations for n <= 4\n"

    def test_guard_rejects_eight(self, capsys):
        code, out, err = run(capsys, "verify-chain", "--max-n", "8")
        assert code == 2
        assert out == ""
        assert "1 <= max_n <= 7" in err

    def test_max_n_below_one_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "verify-chain", "--max-n", "-1")
        assert code == 2
        assert out == ""
        assert "1 <= max_n" in err


class TestSurvey:
    def test_summary_and_out(self, capsys, tmp_path):
        dst = tmp_path / "survey.json"
        code, out, _ = run(capsys, "survey", "--max-n", "4", "--out", str(dst))
        assert code == 0
        assert "z_eq_t_plus: equal 75, strict 0" in out
        data = json.loads(dst.read_text())
        assert data["max_n"] == 4
        assert data["classes"]["t_minus_eq_t_plus"]["equal_count"] == 48


    def test_max_n_below_one_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "survey", "--max-n", "0")
        assert code == 2
        assert out == ""
        assert "1 <= max_n" in err


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

    @pytest.mark.parametrize("graph6,rank", [("Dhc", 3), ("Dhc", 5), ("Ch", 2)])
    def test_residual_is_the_rank_test_value(self, capsys, tmp_path, graph6, rank):
        dst = tmp_path / "cert.json"
        _, out, _ = run(capsys, "certify", "--graph6", graph6, "--rank", str(rank), "--restarts", "2",
                        "--max-iter", "200", "--out", str(dst))
        cert = mb.read_certificate(str(dst))
        assert f"(residual {certificates._residual(cert.sigma, cert.r):.3e}," in out

    def test_same_bytes_at_any_blas_thread_count(self, tmp_path):
        # main() sets the BLAS thread counts to one unless they are set: a
        # multithreaded BLAS wrote another 6-sun rank-9 certificate.  Each
        # run is a fresh interpreter, as numpy reads the variables on load.
        path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
        base = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
        outs = []
        for name, extra in (("unset", {}), ("one", dict.fromkeys(THREAD_VARIABLES, "1"))):
            dst = tmp_path / f"{name}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "mrbounds.cli", "certify", "--graph6", mb.sun_graph(6).graph6(),
                 "--rank", "9", "--out", str(dst)],
                env=dict(base, PYTHONPATH=path, **extra), capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(dst.read_bytes())
        assert outs[0] == outs[1]

    def test_bad_rank(self, capsys):
        code, _, err = run(capsys, "certify", "--graph6", "Bg", "--rank", "9")
        assert code == 2
        assert "error" in err

    # --delta 2: edge magnitudes are sampled from [delta, 1], and numpy's own
    # error ("high - low < 0") did not name delta
    @pytest.mark.parametrize("option,value", [("--tol", "nan"), ("--tol", "-1"), ("--delta", "nan"),
                                              ("--delta", "2")])
    def test_bad_tol_or_delta_is_a_usage_error(self, capsys, option, value):
        g6 = mb.sun_graph(5).graph6()
        code, out, err = run(capsys, "certify", "--graph6", g6, "--rank", "7", "--restarts", "3",
                             option, value)
        assert code == 2
        assert out == ""
        assert option[2:] in err


class TestZf:
    def test_output(self, capsys):
        g6 = mb.generate_family("fig4").graph6()
        code, out, _ = run(capsys, "zf", "--graph6", g6)
        assert code == 0
        assert "Z = 2" in out
        assert "witness: 0 3" in out

    def test_non_ascii_graph6(self, capsys):
        code, out, err = run(capsys, "zf", "--graph6", "Dh\u00e9")
        assert code == 2
        assert out == ""
        assert "non-ASCII character" in err and "byte offset 2" in err


class TestParser:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_compute_requires_a_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute"])
        assert exc.value.code == 2
