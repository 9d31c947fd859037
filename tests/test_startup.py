"""numpy loads on the first numeric call, not on import.

Each check runs in a fresh interpreter: this test process may already hold
numpy (other test modules import it), so its ``sys.modules`` shows nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mrbounds as mb
from mrbounds import certificates

# the directory that holds the mrbounds package this process imported
PACKAGE_ROOT = str(Path(mb.__file__).resolve().parents[1])


def run_fresh(code: str):
    """Run ``code`` in a fresh interpreter (warnings are errors) and return
    the JSON value of its last line of output."""
    path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


EXACT_PATHS = """
import contextlib, io, json, sys
steps = []
def step(name, result=None):
    steps.append([name, result, "numpy" in sys.modules])
import mrbounds as mb
from mrbounds import cli
step("import mrbounds")
step("compute_report(C5)", mb.compute_report(mb.cycle_graph(5)).chain_ok)
step("zero_forcing_number(W6)", mb.zero_forcing_number(mb.wheel_graph(6))[0])
step("verify_chain_corpus(3)", mb.verify_chain_corpus(3))
step("m_sandwich(P5)", mb.m_sandwich(mb.path_graph(5)).m_exact)
s = mb.m_sandwich(mb.sun_graph(5))
step("m_sandwich(5-sun)", [s.numeric_lower, s.m_exact])
for argv in (["zf", "--graph6", "Dhc"], ["compute", "--graph6", "Dhc"],
             ["family", "--kind", "fig4"], ["verify-chain", "--max-n", "3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        step(" ".join(argv), cli.main(argv))
s = mb.m_sandwich(mb.cycle_graph(5))
step("m_sandwich(C5)", [s.numeric_lower, s.m_exact])
s = mb.m_sandwich(mb.parse_graph6("D]o"))
step("m_sandwich(K_2,3)", [s.numeric_lower, s.m_exact])
print(json.dumps(steps))
"""


def test_exact_paths_never_load_numpy():
    assert run_fresh(EXACT_PATHS) == [
        ["import mrbounds", None, False],
        ["compute_report(C5)", True, False],
        ["zero_forcing_number(W6)", 3, False],
        ["verify_chain_corpus(3)", [], False],
        ["m_sandwich(P5)", 1, False],
        # the pendant rule closes the 5-sun's bracket at M = 2 with no search
        ["m_sandwich(5-sun)", [None, 2], False],
        ["zf --graph6 Dhc", 0, False],
        ["compute --graph6 Dhc", 0, False],
        ["family --kind fig4", 0, False],
        ["verify-chain --max-n 3", 0, False],
        # Fiedler's rule closes C5's gap (t_minus 0, upper 2) at M = 2
        ["m_sandwich(C5)", [None, 2], False],
        # K_{2,3}'s gap (t_minus 1, the rule's 2, upper 3) needs a rank-2
        # certificate, the first numeric call
        ["m_sandwich(K_2,3)", [3, 3], True],
    ]


C4_ADJACENCY = [[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0]]
# C4's adjacency matrix as a rank-2 certificate, in certificate_to_json's layout
C4_CERTIFICATE = json.dumps({"n": 4, "graph6": mb.cycle_graph(4).graph6(), "r": 2,
                             "entries": sum(C4_ADJACENCY, []), "delta": 0.5, "tol": 1e-8,
                             "sigma": [2.0, 2.0, 0.0, 0.0], "converged": True, "iterations": 0}, indent=2)

# Each case is the first numeric call of a fresh interpreter: the code after
# the import, whose last line is the expression printed as JSON, and the
# value expected from it.
FIRST_CALLS = {
    "sample_pattern": (
        "mb.sample_pattern(mb.cycle_graph(5), seed=3).entries.tolist()",
        mb.sample_pattern(mb.cycle_graph(5), seed=3).entries.tolist(),
    ),
    "project_pattern": (
        "mb.project_pattern([[1.0, 2.0, 5.0], [4.0, 1.0, 3.0], [5.0, 3.0, 1.0]], mb.path_graph(3), 0.5).entries.tolist()",
        [[1.0, 3.0, 0.0], [3.0, 1.0, 3.0], [0.0, 3.0, 1.0]],
    ),
    "project_rank": (
        f"mb.project_rank({C4_ADJACENCY}, 2).tolist()",
        mb.project_rank(C4_ADJACENCY, 2).tolist(),
    ),
    # the caller, not the package, imports numpy and builds the array
    "validate": (
        "import numpy\n"
        "def check(entries):\n"
        "    try:\n"
        "        mb.PatternMatrix(numpy.array(entries), mb.cycle_graph(4), 0.5).validate()\n"
        "    except mb.CertificateError as exc:\n"
        "        return str(exc)\n"
        f"[check([[0.0, 1.0, 0.0, 2.0]] + {C4_ADJACENCY[1:]}), check({C4_ADJACENCY})]",
        ["entries are not exactly symmetric", None],
    ),
    "verify_certificate": (
        "import numpy\n"
        f"m = mb.PatternMatrix(numpy.array({C4_ADJACENCY}), mb.cycle_graph(4), 0.5)\n"
        "[mb.verify_certificate(mb.RankCertificate(m, r, (2.0, 2.0, 0.0, 0.0), 1e-8, True, 0)) for r in (2, 1)]",
        [True, False],
    ),
    "certificate_from_json": (
        f"mb.certificate_to_json(mb.certificate_from_json({C4_CERTIFICATE!r}))",
        C4_CERTIFICATE,
    ),
    "_Pattern": (
        "p = certificates._Pattern(mb.cycle_graph(5))\n"
        "[p.n_free, p.pi.tolist(), p.pj.tolist()]",
        [5, [0, 0, 1, 1, 2, 0, 0, 1, 2, 3], [2, 3, 3, 4, 4, 1, 4, 2, 3, 4]],
    ),
}


@pytest.mark.parametrize("name", FIRST_CALLS)
def test_first_numeric_call_loads_numpy(name):
    body, expected = FIRST_CALLS[name]
    *statements, expression = body.split("\n")
    code = "\n".join([
        "import json, sys",
        "import mrbounds as mb",
        "from mrbounds import certificates",
        "assert 'numpy' not in sys.modules",
        *statements,
        f"print(json.dumps({expression}))",
    ])
    assert run_fresh(code) == expected


def test_stand_in_becomes_numpy():
    # this process has made numeric calls, so the global is numpy itself
    import numpy

    certificates.sample_pattern(mb.path_graph(2), seed=0)
    assert certificates.np is numpy
