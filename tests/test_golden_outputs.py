"""Byte-identity of the program's outputs, pinned by sha256.

A speed-up must not change any value or canonical witness, and the report
format is fixed.  These digests were taken from the code before the
deletion search was pruned (level cut, prefix-pruned walk, one-pass cover),
so any later change to a value, a witness or the format fails here.  If an
output is meant to change, the digest changes in the same commit, with the
reason beside it.
"""

import hashlib
import random

from mrbounds import reports
from mrbounds.cli import main
from mrbounds.pathcover import induced_path_cover_bruteforce
from conftest import random_graph

# `mrbounds survey --max-n 6 --out FILE`
SURVEY_MAX_N6_SHA256 = "d6482683129e6a770542b8c5124e46451911afe082602edfcec1461cc2e95cad"
# emit_report of compute_report over report_graphs(), as JSON and as CSV
REPORTS_JSON_SHA256 = "385f1cce96abbf56c36a02ad03532631c9f9b8f754eeeb040e51cf47dae1fb2a"
REPORTS_CSV_SHA256 = "00c106e1bbb31dc0319ca6bf50e5079db6514fea70fd32f24aa8c9e836171d81"
# induced_path_cover_bruteforce(g).paths over induced_cover_graphs(), one line
# each, taken before the cover's DP tried only the paths through S's lowest
# vertex
INDUCED_COVER_PATHS_SHA256 = "e5a7d0a80392253a148e5564d84c35f97fd704ca09f1faf299cce71d2be56e7b"


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def report_graphs():
    """30 seeded random graphs, ten each with n = 9, 10, 11."""
    rng = random.Random(20261023)
    return [random_graph(n, rng.choice((0.2, 0.35, 0.6)), rng) for n in (9, 10, 11) for _ in range(10)]


def test_survey_json_digest(tmp_path, capsys):
    out = tmp_path / "survey.json"
    assert main(["survey", "--max-n", "6", "--out", str(out)]) == 0
    capsys.readouterr()
    assert sha256_of(out) == SURVEY_MAX_N6_SHA256


def test_report_digests(tmp_path):
    computed = [reports.compute_report(g) for g in report_graphs()]
    json_path, csv_path = tmp_path / "reports.json", tmp_path / "reports.csv"
    reports.emit_report(computed, "json", json_path)
    reports.emit_report(computed, "csv", csv_path)
    assert sha256_of(json_path) == REPORTS_JSON_SHA256
    assert sha256_of(csv_path) == REPORTS_CSV_SHA256


def induced_cover_graphs():
    """Every labeled graph with n <= 6, then 150 seeded random graphs each with
    n = 7 and n = 8."""
    for n in range(7):
        yield from reports.enumerate_small_graphs(n)
    rng = random.Random(20261019)
    for n in (7, 8):
        for _ in range(150):
            yield random_graph(n, rng.choice((0.2, 0.35, 0.5, 0.7)), rng)


def test_induced_cover_paths_digest():
    # the paths, not only the cover's size: a change of tie-break shows here
    h = hashlib.sha256()
    for g in induced_cover_graphs():
        h.update(f"{induced_path_cover_bruteforce(g).paths}\n".encode())
    assert h.hexdigest() == INDUCED_COVER_PATHS_SHA256
