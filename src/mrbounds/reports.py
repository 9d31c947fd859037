"""Whole-corpus verification and report plumbing.

Everything here treats one graph as one row: compute all parameters, check
the inequality chain between them, and serialize.  Corpus sweeps walk every
labeled graph and recompute each side of every identity with unrelated
algorithms, so an equality in the chain is evidence, not an echo.  The
parameters are graph invariants, so each isomorphism class of the labeled
corpus is computed once and its verdict shared by every labeled member; a
class that fails is recomputed member by member, so each violation record
is that labeled graph's own.  The per-label audit stays in the acceptance
gate: criteria 03, 05 and 08 run every labeled graph with n <= 6 through
the engines, and criterion 10 through the graph6 codec.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from array import array
from dataclasses import MISSING, dataclass, field, fields
from typing import Iterable, Iterator

# delta and m_sandwich are unused here but stay reports attributes for perfbench
from .certificates import _sandwich, m_sandwich
from .core import Graph, _component_masks, _is_forest_mask, classify
from .deletion import _delta_from, _delta_values, _t_values, delta, delta_plus, t_minus, t_plus
from .forcing import _z_value, zero_forcing_number
from .pathcover import BRUTE_INDUCED_COVER_MAX_N, induced_path_cover_bruteforce

__all__ = [
    "ParameterReport",
    "REPORT_CSV_HEADER",
    "check_chain",
    "compute_report",
    "emit_report",
    "enumerate_small_graphs",
    "load_reports_csv",
    "load_reports_json",
    "survey_open_questions",
    "verify_chain_corpus",
]

ENUMERATION_MAX_N = 7

_WITNESS_KEYS = ("t_minus", "t_plus", "delta", "delta_plus", "z")


@dataclass(frozen=True, kw_only=True)
class ParameterReport:
    """All computed parameters of one graph, plus the chain verdict.

    The field order is the report format: it is the JSON key order, and the
    CSV column order with ``witnesses`` replaced by one ``witness_<key>``
    column per key of _WITNESS_KEYS at the end (REPORT_CSV_HEADER).

    ``witnesses`` maps parameter name to a sorted vertex tuple (the deletion
    set, or the forcing set for "z"); may be empty for bulk sweeps.
    ``p_bruteforce`` is the brute-force induced path cover number, absent
    above its size cap; the numeric fields are absent unless requested.
    ``chain_ok`` records t_minus = delta <= z <= t_plus <= delta_plus <= n.
    """

    graph6: str
    n: int
    m: int
    is_forest: bool
    t_minus: int
    delta: int
    p_bruteforce: int | None = None
    z: int
    t_plus: int
    delta_plus: int
    witnesses: dict[str, tuple[int, ...]] = field(default_factory=dict)
    m_lower_numeric: int | None = None
    m_exact: int | None = None
    chain_ok: bool

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["witnesses"] = {k: list(v) for k, v in self.witnesses.items()}
        return d

    @staticmethod
    def from_dict(d: dict) -> "ParameterReport":
        """Inverse of to_dict; a defaulted key may be absent, a mistyped value raises TypeError."""
        kwargs = {}
        for f in fields(ParameterReport):
            if f.name == "witnesses":
                w = d.get(f.name, {})
                if any(type(v) is not list or any(type(x) is not int for x in v) for v in w.values()):
                    raise TypeError(f"witnesses {w!r} are not lists of ints")
                kwargs[f.name] = {k: tuple(v) for k, v in w.items()}
            elif f.default is MISSING or f.name in d:
                if type(d[f.name]) not in _JSON_TYPES[f.type]:
                    raise TypeError(f"{f.name} {d[f.name]!r} is not {f.type}")
                kwargs[f.name] = d[f.name]
        return ParameterReport(**kwargs)


_CSV_FIELDS = tuple(f for f in fields(ParameterReport) if f.name != "witnesses")

REPORT_CSV_HEADER = ",".join(
    [f.name for f in _CSV_FIELDS] + [f"witness_{k}" for k in _WITNESS_KEYS]
)


def _chain_holds(tm: int, d: int, z: int, tp: int, dp: int, n: int) -> bool:
    return tm == d and tm <= z <= tp <= dp <= n


# ---------------------------------------------------------------------------
# corpus enumeration

def enumerate_small_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """All labeled graphs on exactly n vertices, ascending by edge bitmask.

    Capped at n = 7 (2^21 graphs); no isomorphism reduction.
    """
    if not 0 <= n <= ENUMERATION_MAX_N:
        raise ValueError(f"labeled enumeration supports 0 <= n <= {ENUMERATION_MAX_N}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    full = (1 << n) - 1
    for mask in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        g = Graph(n, frozenset(edges))
        if connected_only and n > 0 and len(_component_masks(g.adj, full)) != 1:
            continue
        yield g


def _isomorphism_classes(n: int, connected_only: bool = False) -> Iterator[tuple[Graph, int]]:
    """Each graph of ``enumerate_small_graphs(n, connected_only)`` with the
    index of its isomorphism class.

    Classes are numbered 0, 1, ... in order of first appearance, so a class
    is new exactly when its index equals the number of classes met so far.
    The first member of a class marks the class's whole orbit of edge masks
    in a table with one 2-byte entry per labeled graph (64 KB at n = 6, 4 MB
    at n = 7; freed when the generator ends), by a stack walk under the
    adjacent transpositions (v v+1), which generate all relabelings.  Each
    transposition maps an edge mask through three 256-entry tables, one per
    mask byte, which cover the 21 edge bits of n = ENUMERATION_MAX_N.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    bit = {pair: 1 << k for k, pair in enumerate(pairs)}
    moves = []
    for v in range(n - 1):
        swap = {v: v + 1, v + 1: v}
        image = [bit[tuple(sorted((swap.get(a, a), swap.get(b, b))))] for a, b in pairs]
        image += [0] * (24 - len(image))
        luts = []
        for base in (0, 8, 16):
            lut = [0] * 256
            for byte in range(1, 256):
                low = byte & -byte
                lut[byte] = lut[byte ^ low] | image[base + low.bit_length() - 1]
            luts.append(lut)
        moves.append(luts)
    table = array("H", bytes(2 << len(pairs)))  # 0 = unseen, else class index + 1
    classes = 0
    for g in enumerate_small_graphs(n, connected_only):
        mask = 0
        for e in g.edges:
            mask |= bit[e]
        if not table[mask]:
            classes += 1
            table[mask] = classes
            stack = [mask]
            while stack:
                x = stack.pop()
                for lo, mid, hi in moves:
                    y = lo[x & 255] | mid[x >> 8 & 255] | hi[x >> 16]
                    if not table[y]:
                        table[y] = classes
                        stack.append(y)
        yield g, table[mask] - 1


# ---------------------------------------------------------------------------
# reports

def compute_report(g: Graph, *, with_numeric: bool = False, seed: int = 0) -> ParameterReport:
    """Full parameter report for one graph.

    The delta witness comes from the t_minus upgrade (the two values agree by
    theorem); corpus verification recomputes delta independently instead.
    Each exact bound is computed once and handed to the sandwich; numeric
    certificate search runs only when ``with_numeric`` is set.
    """
    tm_w = t_minus(g)
    tp_w = t_plus(g)
    d_w = _delta_from(g, tm_w)
    dp_w = delta_plus(g)
    z_val, z_wit = zero_forcing_number(g)
    p = None
    if g.n <= BRUTE_INDUCED_COVER_MAX_N:
        p = induced_path_cover_bruteforce(g).size
    sw = _sandwich(g, tm_w.value, z_val, tp_w.value, dp_w.value, numeric=with_numeric, seed=seed)
    sets = (tm_w.s, tp_w.s, d_w.s, dp_w.s, z_wit)
    witnesses = {key: tuple(sorted(s)) for key, s in zip(_WITNESS_KEYS, sets)}
    return ParameterReport(
        graph6=g.graph6(),
        n=g.n,
        m=g.m,
        is_forest=classify(g).is_forest,
        t_minus=tm_w.value,
        delta=d_w.value,
        z=z_val,
        t_plus=tp_w.value,
        delta_plus=dp_w.value,
        chain_ok=_chain_holds(tm_w.value, d_w.value, z_val, tp_w.value, dp_w.value, g.n),
        p_bruteforce=p,
        m_lower_numeric=sw.numeric_lower,
        m_exact=sw.m_exact,
        witnesses=witnesses,
    )


def _light_report(g: Graph) -> ParameterReport:
    """Values-only report for corpus sweeps; delta comes from its own
    kept-set search rather than the t_minus shortcut."""
    adj = g.adj
    tm, tp = _t_values(adj, g.n)
    d, dp = _delta_values(adj, g.n)
    z = _z_value(adj, g.n)
    p = None
    if g.n <= BRUTE_INDUCED_COVER_MAX_N:
        p = induced_path_cover_bruteforce(g).size
    return ParameterReport(
        graph6=g.graph6(),
        n=g.n,
        m=g.m,
        is_forest=_is_forest_mask(adj, (1 << g.n) - 1),
        t_minus=tm,
        delta=d,
        z=z,
        t_plus=tp,
        delta_plus=dp,
        chain_ok=_chain_holds(tm, d, z, tp, dp, g.n),
        p_bruteforce=p,
    )


def check_chain(report: ParameterReport) -> list[dict]:
    """Violations of the parameter chain within one report.

    Each record carries the graph6 string, the failed comparison, and the
    two offending values.
    """
    r = report
    checks = [
        ("t_minus == delta", r.t_minus == r.delta, (r.t_minus, r.delta)),
        ("t_minus <= z", r.t_minus <= r.z, (r.t_minus, r.z)),
        ("z <= t_plus", r.z <= r.t_plus, (r.z, r.t_plus)),
        ("t_plus <= delta_plus", r.t_plus <= r.delta_plus, (r.t_plus, r.delta_plus)),
        ("delta_plus <= n", r.delta_plus <= r.n, (r.delta_plus, r.n)),
    ]
    if r.p_bruteforce is not None:
        checks.append(
            ("p_bruteforce <= t_plus", r.p_bruteforce <= r.t_plus, (r.p_bruteforce, r.t_plus))
        )
    return [
        {"graph6": r.graph6, "check": name, "values": values}
        for name, ok, values in checks
        if not ok
    ]


def verify_chain_corpus(
    max_n: int,
    connected_only: bool = False,
    *,
    long_run: bool = False,
    progress: bool = False,
) -> list[dict]:
    """Check the chain on every labeled graph with 1 <= n <= max_n.

    Returns all violation records (expected: none), in enumeration order.
    Each isomorphism class is computed once, on its first labeled member;
    only a class with a violation is recomputed on each of its members, so
    every record carries that labeled graph's own graph6 and values.
    max_n = 7 (2^21 labeled graphs, 1044 classes) is allowed only with
    ``long_run``.
    """
    if max_n > ENUMERATION_MAX_N or (max_n > 6 and not long_run):
        raise ValueError("max_n <= 6 unless long_run is set (then <= 7)")
    violations = []
    for n in range(1, max_n + 1):
        failing: list[bool] = []  # per class, does its first member violate?
        for i, (g, c) in enumerate(_isomorphism_classes(n, connected_only)):
            if c == len(failing):
                hits = check_chain(_light_report(g))
                failing.append(bool(hits))
                violations.extend(hits)
            elif failing[c]:
                violations.extend(check_chain(_light_report(g)))
            if progress and n >= 7 and i % 100000 == 0:
                print(f"n={n}: {i} graphs checked", file=sys.stderr)
    return violations


# ---------------------------------------------------------------------------
# open-question surveys

# Each survey class compares two ParameterReport fields for equality.
_SURVEY_CLASSES = {
    "t_minus_eq_t_plus": ("t_minus", "t_plus"),
    "z_eq_t_plus": ("z", "t_plus"),
    "p_eq_t_plus": ("p_bruteforce", "t_plus"),
    "delta_eq_delta_plus": ("delta", "delta_plus"),
}


def survey_open_questions(max_n: int, extra_graphs: Iterable[Graph] = ()) -> dict:
    """Empirical equality classes over the labeled corpus with n <= max_n.

    For each of the four comparisons (t_minus vs t_plus, z vs t_plus, p vs
    t_plus, delta vs delta_plus) the summary holds the graph6 lists where
    equality holds and where it is strict, with counts.  These are lists,
    not characterizations.  Every labeled graph is listed, but the values
    are computed once per isomorphism class.  ``extra_graphs`` join the
    sweep after the corpus, each computed on its own (duplicates skipped),
    so reference graphs beyond max_n can be placed, up to the brute-force
    induced cover cap of n = BRUTE_INDUCED_COVER_MAX_N; a larger one raises
    ValueError before any work is done.
    """
    if max_n > 6:
        raise ValueError("survey capped at max_n <= 6")
    extra_graphs = list(extra_graphs)
    for g in extra_graphs:
        if g.n > BRUTE_INDUCED_COVER_MAX_N:
            raise ValueError(
                f"extra graph with n={g.n} above the induced cover cap "
                f"n={BRUTE_INDUCED_COVER_MAX_N}"
            )
    summary: dict = {"max_n": max_n, "classes": {}}
    for name in _SURVEY_CLASSES:
        summary["classes"][name] = {
            "equal": [],
            "strict": [],
            "equal_count": 0,
            "strict_count": 0,
        }
    seen: set[str] = set()

    def equalities(r: ParameterReport) -> tuple[bool, ...]:
        return tuple(getattr(r, a) == getattr(r, b) for a, b in _SURVEY_CLASSES.values())

    def place(key: str, flags: tuple[bool, ...]) -> None:
        seen.add(key)
        for name, equal in zip(_SURVEY_CLASSES, flags):
            summary["classes"][name]["equal" if equal else "strict"].append(key)

    for n in range(1, max_n + 1):
        class_flags: list[tuple[bool, ...]] = []
        for g, c in _isomorphism_classes(n):
            if c == len(class_flags):
                class_flags.append(equalities(_light_report(g)))
            place(g.graph6(), class_flags[c])
    for g in extra_graphs:
        key = g.graph6()
        if key not in seen:
            place(key, equalities(_light_report(g)))
    for name in _SURVEY_CLASSES:
        bucket = summary["classes"][name]
        bucket["equal_count"] = len(bucket["equal"])
        bucket["strict_count"] = len(bucket["strict"])
    return summary


# ---------------------------------------------------------------------------
# serialization

# By field annotation (a string here, under ``from __future__ import
# annotations``): CSV cell -> field value, and the JSON value types a field
# takes, matched exactly so that a JSON bool is no int
_CELL_PARSERS = {
    "str": str,
    "int": int,
    "bool": lambda cell: cell == "true",
    "int | None": lambda cell: None if cell == "" else int(cell),
}
_JSON_TYPES = {"str": (str,), "int": (int,), "bool": (bool,), "int | None": (int, type(None))}


def _witness_cell(report: ParameterReport, key: str) -> str:
    w = report.witnesses.get(key)
    if w is None:
        return ""
    if not w:
        return "-"  # present but empty, distinct from absent
    return ";".join(str(v) for v in w)


def _csv_row(r: ParameterReport) -> list[str]:
    def cell(x) -> str:
        if x is None:
            return ""
        if isinstance(x, bool):
            return "true" if x else "false"
        return str(x)

    return [cell(getattr(r, f.name)) for f in _CSV_FIELDS] + [
        _witness_cell(r, key) for key in _WITNESS_KEYS
    ]


def emit_report(reports: Iterable[ParameterReport], format: str = "json", destination=None) -> None:
    """Write reports as a JSON array or CSV table.

    ``destination`` is a path or an open text stream (default: stdout).
    CSV rows follow REPORT_CSV_HEADER; witness cells are semicolon-joined
    vertex lists ("-" for a recorded empty set), absent optionals are empty
    cells.
    """
    reports = list(reports)
    if format == "json":
        text = json.dumps([r.to_dict() for r in reports], indent=2) + "\n"
    elif format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_CSV_HEADER.split(","))
        for r in reports:
            writer.writerow(_csv_row(r))
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown report format {format!r}")
    if destination is None:
        sys.stdout.write(text)
    elif hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="ascii") as fh:
            fh.write(text)


def load_reports_json(source) -> list[ParameterReport]:
    """Read back a JSON report array from a path or stream.

    A top level that is not an array, or a malformed record, raises
    ValueError naming the record's index.
    """
    if hasattr(source, "read"):
        data = json.load(source)
    else:
        with open(source, "r", encoding="ascii") as fh:
            data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError("JSON report is not an array of records")
    out = []
    for i, d in enumerate(data):
        try:
            out.append(ParameterReport.from_dict(d))
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"JSON record {i} is malformed: {exc!r}") from exc
    return out


def load_reports_csv(source) -> list[ParameterReport]:
    """Read back a CSV report table from a path or stream."""
    if hasattr(source, "read"):
        rows = list(csv.reader(source))
    else:
        with open(source, "r", encoding="ascii", newline="") as fh:
            rows = list(csv.reader(fh))
    header = REPORT_CSV_HEADER.split(",")
    if not rows or rows[0] != header:
        raise ValueError("missing or wrong CSV header")

    def witness(cell: str) -> tuple[int, ...]:
        if cell == "-":
            return ()
        return tuple(int(tok) for tok in cell.split(";"))

    out = []
    for row in rows[1:]:
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(f"CSV row has {len(row)} cells, the header {len(header)}")
        cells = dict(zip(header, row))
        kwargs = {f.name: _CELL_PARSERS[f.type](cells[f.name]) for f in _CSV_FIELDS}
        kwargs["witnesses"] = {
            key: witness(cells[f"witness_{key}"])
            for key in _WITNESS_KEYS
            if cells[f"witness_{key}"] != ""
        }
        out.append(ParameterReport(**kwargs))
    return out
