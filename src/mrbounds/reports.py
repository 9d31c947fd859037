"""Whole-corpus verification and report plumbing.

Everything here treats one graph as one row: compute all parameters, check
the inequality chain between them, and serialize.  A report takes its
deletion values and witness sets as masks straight from the deletion walk
(deletion._walk), so it builds no DeletionWitness, decomposition or path
cover; the CSV loader reads integer, true and false cells without
json.loads.  Corpus sweeps walk every labeled graph and recompute each side
of every identity with unrelated algorithms, so an equality in the chain is
evidence, not an echo.  The parameters are graph invariants, so each
isomorphism class of the labeled corpus is computed once and its verdict
shared by every labeled member; a class that fails is recomputed member by
member, so each violation record is that labeled graph's own.  The per-label audit stays in the acceptance
gate: criteria 03, 05 and 08 run every labeled graph with n <= 6 through
the engines, and criterion 10 through the graph6 codec.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from array import array
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Iterable, Iterator

# deletion._walk is looked up on the module at each call, so a wrapper set
# there sees every call
from . import deletion
# m_sandwich, delta, delta_plus, t_minus and t_plus are unused here; they stay
# module attributes only for perfbench/tracing.py and tests/test_trace_sites.py
from .certificates import _sandwich, m_sandwich
from .core import Graph, _bits, _check_int, _is_forest_mask, _level_bfs, _unchecked_graph, parse_graph6
from .deletion import _delta_set, _delta_values, _t_values, delta, delta_plus, t_minus, t_plus
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
    ``chain_ok`` is true when check_chain finds no violation: t_minus =
    delta <= z <= t_plus <= delta_plus <= n, and p_bruteforce <= t_plus
    when present.
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
        """Inverse of to_dict; a defaulted key may be absent, a mistyped value
        (a record or a ``witnesses`` value that is not a JSON object among
        them) raises TypeError.  ValueError is raised for a key that to_dict
        never writes, a witness that is not a strictly increasing list of
        vertices in 0..n-1, a graph6 that does not decode, and an n, m or
        is_forest that the decoded graph does not have, and an m_exact or
        m_lower_numeric outside the record's bracket: t_minus <= m_exact <=
        min(z, t_plus), m_lower_numeric <= min(z, t_plus) and m_lower_numeric
        <= m_exact.  ``chain_ok`` is loaded as written, even where check_chain
        disagrees."""
        if not isinstance(d, dict):
            raise TypeError(f"report record {d!r} is not a JSON object")
        unknown = d.keys() - _FIELD_NAMES
        if unknown:
            raise ValueError(f"unknown report keys {sorted(unknown)}")
        kwargs = {}
        for f in fields(ParameterReport):
            if f.name == "witnesses":
                w = d.get(f.name, {})
                if not isinstance(w, dict):
                    raise TypeError(f"witnesses {w!r} is not a JSON object")
                unknown = w.keys() - set(_WITNESS_KEYS)
                if unknown:
                    raise ValueError(f"witnesses has unknown keys {sorted(unknown)}")
                if any(type(v) is not list or any(type(x) not in _JSON_TYPES["int"] for x in v)
                       for v in w.values()):
                    raise TypeError(f"witnesses {w!r} are not lists of ints")
                n = kwargs["n"]
                if any(v != sorted(set(v)) or v and (v[0] < 0 or v[-1] >= n) for v in w.values()):
                    raise ValueError(f"witnesses {w!r} are not strictly increasing vertices in 0..{n - 1}")
                kwargs[f.name] = {k: tuple(v) for k, v in w.items()}
            elif f.default is MISSING or f.name in d:
                if type(d[f.name]) not in _JSON_TYPES[f.type]:
                    raise TypeError(f"{f.name} {d[f.name]!r} is not {f.type}")
                kwargs[f.name] = d[f.name]
        r = ParameterReport(**kwargs)
        g = parse_graph6(r.graph6)  # Graph6Error is a ValueError
        if (r.n, r.m, r.is_forest) != (g.n, g.m, _is_forest_mask(g.adj, (1 << g.n) - 1)):
            raise ValueError(f"n, m, is_forest {r.n, r.m, r.is_forest} do not fit graph6 {r.graph6!r}")
        exact, numeric, upper = r.m_exact, r.m_lower_numeric, min(r.z, r.t_plus)
        if ((exact is not None and not r.t_minus <= exact <= upper)
                or (numeric is not None and not numeric <= (upper if exact is None else exact))):
            raise ValueError(f"m_exact {exact}, m_lower_numeric {numeric} lie outside the bracket"
                             f" [{r.t_minus}, {upper}]")
        return r


_FIELD_NAMES = frozenset(f.name for f in fields(ParameterReport))
_CSV_FIELDS = tuple(f for f in fields(ParameterReport) if f.name != "witnesses")

REPORT_CSV_HEADER = ",".join(
    [f.name for f in _CSV_FIELDS] + [f"witness_{k}" for k in _WITNESS_KEYS]
)


# ---------------------------------------------------------------------------
# corpus enumeration

def _byte_tables(items: list[int]) -> list[list[int]]:
    """Three lookup tables for masks over ``items`` (at most 24 bit masks,
    so 21 edge bits at n = 7 fit): entry x of table b is the union (|) of
    items[8 b + i] for each bit i set in x, so a mask looks up as
    lo[mask & 255] | mid[mask >> 8 & 255] | hi[mask >> 16].  Item k doubles
    table k // 8, so a table holds 2^b entries for its b items.
    """
    tables = [[0], [0], [0]]
    for k, item in enumerate(items):
        tables[k // 8] += [x | item for x in tables[k // 8]]
    return tables


def enumerate_small_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """All labeled graphs on exactly n vertices, ascending by edge mask
    (Graph.mask): bit k of the mask is the k-th pair in (0, 1), (0, 2), ...,
    (1, 2), ..., so a graph's position is its mask.

    Capped at n = 7 (2^21 graphs); no isomorphism reduction.  ``n`` is
    checked here, when the function is called, and the graphs come from the
    generator it returns.  Each mask is below 2^(n(n-1)/2), so each graph
    skips the per-edge check of ``Graph`` (core._unchecked_graph).
    """
    _check_int("n", n, 0, ENUMERATION_MAX_N)
    return _labeled_graphs(n, connected_only)


def _labeled_graphs(n: int, connected_only: bool) -> Iterator[Graph]:
    full = (1 << n) - 1
    for mask in range(1 << n * (n - 1) // 2):
        g = _unchecked_graph(n, mask)
        if connected_only and n > 0 and len(_level_bfs(g.adj, full)[1]) != 1:
            continue
        yield g


def _isomorphism_classes(n: int) -> Iterator[tuple[Graph, int]]:
    """Each graph of ``enumerate_small_graphs(n)`` with the index of its
    isomorphism class.

    Classes are numbered 0, 1, ... in order of first appearance, so a class
    is new exactly when its index equals the number of classes met so far.
    The first member of a class marks the class's whole orbit of edge masks
    in a table with one 2-byte entry per labeled graph (64 KB at n = 6, 4 MB
    at n = 7; freed when the generator ends), by a stack walk under two
    relabelings: the swap (0 1) and the rotation v -> v+1 mod n (one and the
    same at n = 2).  They generate every relabeling: conjugating (0 1) by
    the rotation k times gives (k k+1), and the adjacent transpositions
    generate the symmetric group.  So the walk marks every relabeling of the
    first member, and, each move being a relabeling, nothing else.  Each
    move maps an edge mask (Graph.mask) through its three _byte_tables of
    image bits.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    swap, rotation = (1, 0, *range(2, n)), (*range(1, n), 0)
    moves = []
    for p in [swap, rotation] if n > 2 else [swap] if n == 2 else []:
        image = [Graph.from_edges(n, [(p[a], p[b])]).mask for a, b in pairs]
        moves.append(_byte_tables(image))
    table = array("H", bytes(2 << len(pairs)))  # 0 = unseen, else class index + 1
    classes = 0
    for g in enumerate_small_graphs(n):
        mask = g.mask
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

def compute_report(g: Graph, *, with_numeric: bool = False) -> ParameterReport:
    """Full parameter report for one graph.

    The delta witness comes from the t_minus upgrade (the two values agree by
    theorem); corpus verification recomputes delta independently instead.
    One deletion walk per component (deletion._walk) gives the t_minus,
    t_plus and delta_plus values and witness masks, and the delta witness is
    upgraded from the t_minus mask (deletion._delta_set), so no
    DeletionWitness, decomposition or cover is built.  Each exact bound is
    computed once and handed to the sandwich, which runs the certificate
    searches of ``m_sandwich(g)`` only with ``with_numeric``.
    """
    adj = g.adj
    (tm, tm_s, _), (tp, tp_s, _), (dp, dp_s, _) = deletion._walk(adj, g.n, ("t_minus", "t_plus", "delta_plus"))
    d_s = _delta_set(adj, g.n, tm_s, tm)
    z_val, z_wit = zero_forcing_number(g)
    sw = _sandwich(g, tm, z_val, tp, dp, numeric=with_numeric)
    witnesses = {key: tuple(_bits(s)) for key, s in zip(_WITNESS_KEYS, (tm_s, tp_s, d_s, dp_s))}
    witnesses["z"] = tuple(sorted(z_wit))
    # delta = t_minus, which _delta_set asserts of its witness
    return _report(g, tm, tm, z_val, tp, dp,
                   m_lower_numeric=sw.numeric_lower, m_exact=sw.m_exact, witnesses=witnesses)


def _light_report(g: Graph) -> ParameterReport:
    """Values-only report for corpus sweeps; delta comes from its own
    kept-set search rather than the t_minus shortcut."""
    adj = g.adj
    tm, tp = _t_values(adj, g.n)
    d, dp = _delta_values(adj, g.n)
    return _report(g, tm, d, _z_value(adj, g.n), tp, dp)


def _report(g: Graph, tm: int, d: int, z: int, tp: int, dp: int, **rest) -> ParameterReport:
    """The report row of g from its exact values; ``rest`` holds the
    optional fields a caller sets.

    p_bruteforce is computed here up to its size cap, and ``chain_ok`` is
    ``not check_chain(r)``.  check_chain tests the chain t_minus = delta <=
    z <= t_plus <= delta_plus <= n and, when p_bruteforce is present, also
    P_ind <= t_plus.  That extra test never fails on true values, so it
    changes no verdict: for a t_plus deletion set S, the cover in the lemma
    of forcing.forcing_set_from_tplus splits V(G) into t_plus paths of the
    forest G - S with S isolated, none with a chord (as the lemma's proof
    notes), so into t_plus induced paths of G.
    """
    p = induced_path_cover_bruteforce(g).size if g.n <= BRUTE_INDUCED_COVER_MAX_N else None
    r = ParameterReport(graph6=g.graph6(), n=g.n, m=g.m, is_forest=_is_forest_mask(g.adj, (1 << g.n) - 1),
                        t_minus=tm, delta=d, p_bruteforce=p, z=z, t_plus=tp, delta_plus=dp,
                        chain_ok=True, **rest)
    return replace(r, chain_ok=not check_chain(r))


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


def verify_chain_corpus(max_n: int, connected_only: bool = False) -> list[dict]:
    """Check the chain on every labeled graph with 1 <= n <= max_n.

    Returns all violation records (expected: none), in enumeration order.
    Each isomorphism class is computed once, on its first labeled member;
    only a class with a violation is recomputed on each of its members, so
    every record carries that labeled graph's own graph6 and values.
    ``connected_only`` is decided on the first member too, and drops a
    disconnected class whole.  max_n runs from 1 to ENUMERATION_MAX_N = 7
    (2^21 labeled graphs, 1044 classes); any other max_n, or one that is
    not an int (a bool is not), raises ValueError.
    """
    _check_int("max_n", max_n, 1, ENUMERATION_MAX_N)
    violations = []
    for n in range(1, max_n + 1):
        failing: list[bool] = []  # per class, does its first member violate?
        for g, c in _isomorphism_classes(n):
            if c == len(failing):
                skip = connected_only and len(_level_bfs(g.adj, (1 << n) - 1)[1]) != 1
                hits = [] if skip else check_chain(_light_report(g))
                failing.append(bool(hits))
                violations.extend(hits)
            elif failing[c]:
                violations.extend(check_chain(_light_report(g)))
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


def survey_open_questions(max_n: int) -> dict:
    """Empirical equality classes over the labeled corpus with n <= max_n.

    For each of the four comparisons (t_minus vs t_plus, z vs t_plus, p vs
    t_plus, delta vs delta_plus) the summary holds the graph6 lists where
    equality holds and where it is strict, with counts.  These are lists,
    not characterizations.  Every labeled graph is listed, but the values
    are computed once per isomorphism class.  Place any other graph with
    compute_report.  max_n must be an int in 1..6.
    """
    _check_int("max_n", max_n, 1, 6)
    lists = {name: ([], []) for name in _SURVEY_CLASSES}  # (equal, strict)
    for n in range(1, max_n + 1):
        class_flags: list[list[bool]] = []
        for g, c in _isomorphism_classes(n):
            if c == len(class_flags):
                r = _light_report(g)
                class_flags.append([getattr(r, a) == getattr(r, b) for a, b in _SURVEY_CLASSES.values()])
            key = g.graph6()
            for (equal, strict), same in zip(lists.values(), class_flags[c]):
                (equal if same else strict).append(key)
    classes = {name: {"equal": eq, "strict": st, "equal_count": len(eq), "strict_count": len(st)}
               for name, (eq, st) in lists.items()}
    return {"max_n": max_n, "classes": classes}


# ---------------------------------------------------------------------------
# serialization

# By field annotation (a string here, under ``from __future__ import
# annotations``): the JSON value types a field takes, matched exactly so that
# a JSON bool is no int.  Both loaders check values against it.
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
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"JSON record {i} is malformed: {exc!r}") from exc
    return out


# The CSV cells read without json.loads, besides exact JSON integers.
_CELL_WORDS = {"": None, "true": True, "false": False}


def _cell_value(cell: str, column: str):
    """The JSON value in a CSV cell; an empty cell is None.

    The cells a report writes, an exact JSON integer (an optional minus,
    then 0 or digits with no leading zero), true or false, are read
    directly; any other cell goes through json.loads.  A ValueError of
    either path, the int digit limit's among them, raises the same error.
    """
    if cell in _CELL_WORDS:
        return _CELL_WORDS[cell]
    digits = cell[1:] if cell[:1] == "-" else cell
    try:
        if digits.isascii() and digits.isdigit() and (digits[0] != "0" or len(digits) == 1):
            return int(cell)
        return json.loads(cell)
    except ValueError:
        raise ValueError(f"{column} cell {cell!r} is not a JSON value") from None


def _witness_value(cell: str, column: str) -> list:
    """The vertex list in a witness cell: "-" is empty, else semicolon-joined."""
    return [] if cell == "-" else [_cell_value(tok, column) for tok in cell.split(";")]


def load_reports_csv(source) -> list[ParameterReport]:
    """Read back a CSV report table from a path or stream.  Cells decode to
    JSON values and ParameterReport.from_dict checks each row, as it checks a
    JSON record; a bad row raises ValueError naming its index."""
    if hasattr(source, "read"):
        rows = list(csv.reader(source))
    else:
        with open(source, "r", encoding="ascii", newline="") as fh:
            rows = list(csv.reader(fh))
    header = REPORT_CSV_HEADER.split(",")
    if not rows or rows[0] != header:
        raise ValueError("missing or wrong CSV header")

    out = []
    for i, row in enumerate(rows[1:]):
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(f"CSV row {i} has {len(row)} cells, the header {len(header)}")
        cells = dict(zip(header, row))
        try:
            d = {f.name: cells[f.name] if f.name == "graph6" else _cell_value(cells[f.name], f.name)
                 for f in _CSV_FIELDS}
            d["witnesses"] = {
                key: _witness_value(cells[f"witness_{key}"], f"witness_{key}")
                for key in _WITNESS_KEYS
                if cells[f"witness_{key}"] != ""
            }
            out.append(ParameterReport.from_dict(d))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"CSV row {i} is malformed: {exc!r}") from exc
    return out
