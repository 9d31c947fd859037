"""Numerical minimum-rank certificates by alternating projections.

A symmetric matrix whose off-diagonal support is exactly the edge set of G
and whose rank is at most r certifies that the maximum eigenvalue
multiplicity of G is at least n - r.  The search alternates between the
nearest rank-r matrix (spectral truncation) and the pattern set (zeroing
non-edges, clamping edge entries away from zero), restarting from fresh
random samples; a restart that stalls is refined by Levenberg-Marquardt on
a fixed-rank factor and kept only at machine-precision residual.
Certificates are numerical claims with an explicit tolerance, never proofs;
m_sandwich combines them with the exact combinatorial bounds and refuses to
let the numerics override those.  numpy loads on the first numeric call
(see _NumpyOnFirstUse), so the exact bounds, and m_sandwich wherever no
certificate search runs (no gap, or one that the pendant-vertex rule or
the path and K4-minor rule closes), run without it.

The rank test: a matrix with singular values sigma (descending) passes at
rank r when _residual(sigma, r) = sigma[r] / sigma[0] <= tol.  The argument
rules hold wherever an argument is taken or loaded: tol non-negative and
finite, delta positive and finite (and at most 1 where patterns are
sampled: sample_pattern, certificate_search), and the int rule
(core._check_int) for r in 0..n, certificate_search's restarts >= 1 and
max_iter >= 0, the seed >= 0 of sample_pattern, certificate_search and
m_sandwich.  Every matrix has finite entries (_as_matrix), n x n for a
PatternMatrix and project_pattern, square and exactly symmetric for
project_rank.  A breach raises CertificateError, and verify_certificate
returns False.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .core import Graph, _bits, _check_int, _is_forest_mask, _level_bfs, parse_graph6
from . import deletion
# _t_minus_op, _t_plus_op and _delta_plus_op are unused here; they stay module
# attributes only for perfbench/tracing.py and tests/test_trace_sites.py
from .deletion import delta_plus as _delta_plus_op
from .deletion import t_minus as _t_minus_op
from .deletion import t_plus as _t_plus_op
from .forcing import _wavefront, zero_forcing_number

__all__ = [
    "CertificateConflict",
    "CertificateError",
    "DELTA_DEFAULT",
    "MAX_ITER_DEFAULT",
    "MSandwich",
    "PatternMatrix",
    "RESTARTS_DEFAULT",
    "RankCertificate",
    "TOL_DEFAULT",
    "certificate_from_json",
    "certificate_search",
    "certificate_to_json",
    "m_sandwich",
    "project_pattern",
    "project_rank",
    "read_certificate",
    "sample_pattern",
    "verify_certificate",
    "write_certificate",
]

DELTA_DEFAULT = 1e-3
TOL_DEFAULT = 1e-8
MAX_ITER_DEFAULT = 5000
RESTARTS_DEFAULT = 20
# A restart stalls when its best residual falls by less than STALL_FACTOR
# over STALL_WINDOW projection rounds.
STALL_WINDOW = 100
STALL_FACTOR = 0.5
# The polish: Levenberg-Marquardt steps, damping retries per step, the
# accepted relative residual, the edge floor held during the polish (times
# the starting sigma[0]) and the least edge accepted (times the result's).
POLISH_STEPS = 60
POLISH_DAMPING_TRIES = 10
POLISH_TOL = 1e-11
POLISH_EDGE_FLOOR = 0.3
POLISH_EDGE_ACCEPT = 0.03


class _NumpyOnFirstUse:
    """Stands in for numpy until its first attribute lookup, which imports
    numpy and rebinds the global ``np`` to it; later lookups go straight to
    numpy."""

    def __getattr__(self, name: str):
        global np
        import numpy as np
        return getattr(np, name)


np = _NumpyOnFirstUse()


class CertificateError(ValueError):
    """Pattern violations or bad parameters."""


class CertificateConflict(CertificateError):
    """Bounds that contradict each other: a verification failure, not bad input."""


def _check_tol(tol: float) -> None:
    if not 0 <= tol < math.inf:
        raise CertificateError(f"tol={tol} is not a non-negative finite number")


def _check_delta(delta: float) -> None:
    if not 0 < delta < math.inf:
        raise CertificateError(f"delta={delta} is not a positive finite number")


def _residual(sigma, r: int) -> float:
    """sigma[r] / sigma[0] for the n descending singular values ``sigma``;
    0 when r >= n (nothing is truncated) or sigma[0] == 0 (zero matrix)."""
    if r >= len(sigma) or sigma[0] == 0:
        return 0.0
    return float(sigma[r]) / float(sigma[0])


def _spectrum(x: np.ndarray) -> np.ndarray:
    """Singular values of the symmetric ``x``, descending: the rank test's input."""
    return np.sort(np.abs(np.linalg.eigvalsh(x)))[::-1]


@dataclass(frozen=True)
class PatternMatrix:
    """A symmetric matrix constrained to the support pattern of a graph.

    Off-diagonal entries are exactly zero on non-edges and at least ``delta``
    in magnitude on edges; the diagonal is free.  ``entries`` is read-only.
    """

    entries: np.ndarray
    graph: Graph
    delta: float

    def validate(self) -> None:
        _check_delta(self.delta)
        a = _as_matrix(self.entries, self.graph.n, symmetric=True)
        p = _Pattern(self.graph)
        bad = np.argwhere(np.triu(np.where(p.edge, np.abs(a) < self.delta, a != 0.0), 1))
        for i, j in bad[:1]:  # the first breach above the diagonal, row-major
            if p.edge[i, j]:
                raise CertificateError(f"edge entry ({i},{j}) = {a[i, j]} under magnitude {self.delta}")
            raise CertificateError(f"non-edge entry ({i},{j}) = {a[i, j]} is nonzero")


@dataclass(frozen=True)
class RankCertificate:
    """Outcome of one rank-r pattern search.

    ``sigma`` holds the singular values (eigenvalue magnitudes, descending)
    of ``matrix``; ``converged`` means the rank test passed at ``tol``, so
    the matrix has numerical rank <= r and the graph has maximum nullity at
    least ``m_lower``.  ``iterations`` counts the projection rounds of the
    reported iterate within its restart, plus the Levenberg-Marquardt steps
    when the polish produced it (see certificate_search).
    """

    matrix: PatternMatrix
    r: int
    sigma: tuple[float, ...]
    tol: float
    converged: bool
    iterations: int

    @property
    def m_lower(self) -> int:
        return self.matrix.graph.n - self.r


class _Pattern:
    """G's pattern, built once per search: n x n masks ``edge`` (both
    orientations) and ``diag``, and the polish's residual pairs (pi[k], pj[k]),
    the ``n_free`` non-edges then the edges, each row-major."""

    def __init__(self, g: Graph):
        n, adj = g.n, g.adj
        self.edge = np.array([[adj[i] >> j & 1 for j in range(n)] for i in range(n)], dtype=bool).reshape(n, n)
        self.diag = np.eye(n, dtype=bool)
        iu, ju = np.nonzero(~np.tri(n, dtype=bool))  # the pairs i < j, row-major
        on = self.edge[iu, ju]
        self.n_free = int(np.count_nonzero(~on))
        pairs = np.argsort(on, kind="stable")  # non-edges first, each part row-major
        self.pi, self.pj = iu[pairs], ju[pairs]

    def apply(self, m: np.ndarray, delta: float) -> np.ndarray:
        """Nearest pattern member to the n x n ``m``, a new array: edge entries
        0.5 (m_ij + m_ji), clamped to sign * delta below delta in magnitude (a
        zero of either sign taken positive), m's diagonal, non-edges +0.0."""
        half = np.where(self.edge, m, 0.0)
        out = half + half.T
        out *= 0.5
        mag = np.abs(out)
        np.maximum(mag, delta, out=mag)
        out += 0.0  # -0.0 becomes +0.0, so copysign clamps it to +delta
        np.copysign(mag, out, out=out, where=self.edge)
        np.copyto(out, m, where=self.diag)
        return out


def sample_pattern(g: Graph, seed: int, delta: float = DELTA_DEFAULT) -> PatternMatrix:
    """Random pattern member: edge entries uniform over +-[delta, 1], so
    0 < delta <= 1, and the diagonal uniform over [-1, 1].  Deterministic for
    a fixed seed; draws happen in vertex order for the diagonal, then sorted
    edge order."""
    if not 0 < delta <= 1:
        raise CertificateError(f"delta={delta} is not in 0 < delta <= 1, the range edges are sampled from")
    _check_int("seed", seed, 0, error=CertificateError)
    rng = np.random.default_rng(seed)
    a = np.zeros((g.n, g.n))
    np.fill_diagonal(a, rng.uniform(-1.0, 1.0, g.n))
    for u, v in sorted(g.edges):
        mag = rng.uniform(delta, 1.0)
        sign = 1.0 if rng.integers(0, 2) else -1.0
        a[u, v] = a[v, u] = sign * mag
    a.setflags(write=False)
    return PatternMatrix(a, g, delta)


def _as_matrix(m, n: int, symmetric: bool = False) -> np.ndarray:
    """``m`` as an n x n float array, the gate of every matrix taken or
    loaded: another shape, a non-finite entry or, with ``symmetric``, an
    entry that differs from its transpose's raises CertificateError."""
    m = np.asarray(m, dtype=float)
    if m.shape != (n, n):
        raise CertificateError(f"matrix shape {m.shape} is not n x n for n={n}")
    if not np.isfinite(m).all():
        raise CertificateError("matrix entries must be finite")
    if symmetric and not np.array_equal(m, m.T):
        raise CertificateError("entries are not exactly symmetric")
    return m


def project_pattern(m: np.ndarray, g: Graph, delta: float = DELTA_DEFAULT) -> PatternMatrix:
    """Nearest pattern member: zero the non-edges, clamp small edge entries
    to sign * delta (sign of zero taken positive), keep the diagonal."""
    _check_delta(delta)
    out = _Pattern(g).apply(_as_matrix(m, g.n), delta)
    out.setflags(write=False)
    return PatternMatrix(out, g, delta)


def project_rank(m: np.ndarray, r: int) -> np.ndarray:
    """Nearest (Frobenius) symmetric matrix of rank <= r to the exactly
    symmetric ``m``: spectral truncation keeping the r eigenvalues of largest
    magnitude.  eigh reads one triangle only, hence the symmetry rule."""
    m = _as_matrix(m, np.ndim(m) and len(m), symmetric=True)
    _check_int("r", r, 0, m.shape[0], CertificateError)
    if r == m.shape[0]:
        return m.copy()
    lam, q = np.linalg.eigh(m)
    keep = np.argsort(-np.abs(lam), kind="stable")[:r]
    out = (q[:, keep] * lam[keep]) @ q[:, keep].T
    return 0.5 * (out + out.T)


def _polish(a: np.ndarray, lam, q, order, r: int, pattern: _Pattern, tol: float, delta: float):
    """Levenberg-Marquardt on the rank-r factor A = X diag(s) X^T of the
    pattern iterate ``a``, with the non-edge entries as residuals and each
    edge kept, in its sign, at least POLISH_EDGE_FLOOR times sigma[0] of
    ``a`` in magnitude.  The search loop hands over its eigh (lam, q) of ``a``,
    ``order`` (eigenvalue indices by descending magnitude) and the _Pattern
    it built once.  Residual k depends on rows pi[k] and pj[k] of the
    factor, which differ, so the Jacobian's two writes never overlap.

    The result has its non-edges zeroed and is scaled up, if needed, so that
    every edge is at least ``delta`` in magnitude.  It is accepted only if it
    passes the rank test at min(tol, POLISH_TOL) and every edge is at least
    POLISH_EDGE_ACCEPT * sigma[0] in magnitude.  Returns (entries, sigma,
    steps) for an accepted matrix, else None.
    """
    n = a.shape[0]
    keep = order[:r]
    s = np.sign(lam[keep])
    x = q[:, keep] * np.sqrt(np.abs(lam[keep]))
    floor = POLISH_EDGE_FLOOR * float(np.abs(lam[order[0]]))
    pi, pj, n_free = pattern.pi, pattern.pj, pattern.n_free
    edge_sign = np.sign(a[pi[n_free:], pj[n_free:]])
    rows = np.arange(pi.size)
    eye = np.eye(n * r)

    def residuals(x):
        # Non-edge entries should vanish; an edge below its floor costs
        # its shortfall.  ``coef`` is d(residual)/d(entry) for the Jacobian.
        vals = np.einsum("kc,kc->k", (x * s)[pi], x[pj])
        res = vals.copy()
        coef = np.ones(pi.size)
        short = floor - edge_sign * vals[n_free:]
        low = short > 0
        res[n_free:] = np.where(low, short, 0.0)
        coef[n_free:] = np.where(low, -edge_sign, 0.0)
        return res, coef

    res, coef = residuals(x)
    cost = float(res @ res)
    mu = None
    steps = 0
    while steps < POLISH_STEPS and cost > 0.0:
        xs = x * s
        jac = np.zeros((pi.size, n, r))
        jac[rows, pi] = coef[:, None] * xs[pj]
        jac[rows, pj] += coef[:, None] * xs[pi]
        jac = jac.reshape(pi.size, n * r)
        grad = jac.T @ res
        hess = jac.T @ jac
        scale = float(np.max(np.diagonal(hess), initial=1.0))
        # The factor is fixed only up to X -> XQ with Q diag(s) Q^T = diag(s),
        # so ``hess`` is singular; the damping keeps a floor.
        mu = max(1e-3 * scale if mu is None else mu, 1e-12 * scale)
        for _ in range(POLISH_DAMPING_TRIES):
            step = np.linalg.solve(hess + mu * eye, -grad)
            x_new = x + step.reshape(n, r)
            res_new, coef_new = residuals(x_new)
            cost_new = float(res_new @ res_new)
            if cost_new < cost:
                x, res, coef, cost = x_new, res_new, coef_new, cost_new
                mu /= 3.0
                break
            mu *= 4.0
        else:
            break
        steps += 1
    entries = pattern.apply((x * s) @ x.T, floor)
    least = float(np.min(np.abs(entries[pattern.edge]), initial=np.inf))
    if least < delta:
        entries = pattern.apply(entries * (delta / least), delta)
        least = float(np.min(np.abs(entries[pattern.edge])))
    sig = _spectrum(entries)
    s1 = float(sig[0])
    if s1 == 0.0 or _residual(sig, r) > min(tol, POLISH_TOL) or least < POLISH_EDGE_ACCEPT * s1:
        return None
    return entries, sig, steps


def certificate_search(
    g: Graph,
    r: int,
    *,
    delta: float = DELTA_DEFAULT,
    tol: float = TOL_DEFAULT,
    max_iter: int = MAX_ITER_DEFAULT,
    restarts: int = RESTARTS_DEFAULT,
    seed: int = 0,
) -> RankCertificate:
    """Alternating-projection search for a pattern matrix of numerical rank r,
    with a local polish of each restart that ends without converging.

    Restart i samples with seed + i; restarts run in order and the first
    converged iterate wins.  Convergence of a projection iterate is judged on
    the pattern-feasible iterate, by the rank test at ``tol``.  G's pattern
    (_Pattern) is built once per search; every LAPACK/BLAS call gets the
    operands of a per-round build, so certificates are the same bit for bit.

    Stop rule: a restart ends when it converges, when it reaches ``max_iter``
    rounds, or when it stalls: its best residual fell by less than
    STALL_FACTOR over the last STALL_WINDOW rounds.  Alternating projections
    stall where the pattern set and the rank-r matrices meet at a shallow
    angle (Lewis, Luke & Malick, FoCM 2009), and the 6-sun at rank 9 stalls
    near 4e-5 this way although a rank-9 pattern matrix exists.

    Polish: a restart that ends without converging hands its last iterate
    to Levenberg-Marquardt on the fixed-rank factor A = X diag(s) X^T, with
    the non-edge entries as residuals and each edge held at or above
    POLISH_EDGE_FLOOR times the iterate's sigma[0], keeping its sign.
    Acceptance: the polished matrix (non-edges zeroed) counts as converged
    only if quadratic convergence took its residual down to machine
    precision, the rank test at min(tol, POLISH_TOL), with every edge
    at least POLISH_EDGE_ACCEPT times its own sigma[0] in magnitude.  A
    residual that merely passes ``tol`` is not enough: on infeasible targets
    the polish can creep to 1e-8 by shrinking edges, and the edge rule stops
    it from calling a nearly deleted edge present.  An accepted matrix is
    scaled so every edge is at least ``delta`` in magnitude.

    ``iterations`` of the result counts the projection rounds of the
    reported iterate within its restart, plus the polish's
    Levenberg-Marquardt steps when the polish produced it.  Without
    convergence the certificate carries the best-residual projection
    iterate seen anywhere; rejected polish results are never reported.
    """
    _check_int("r", r, 0, g.n, CertificateError)
    _check_tol(tol)
    _check_delta(delta)
    _check_int("restarts", restarts, 1, error=CertificateError)
    _check_int("max_iter", max_iter, 0, error=CertificateError)
    _check_int("seed", seed, 0, error=CertificateError)
    pattern = _Pattern(g)
    best_rel = np.inf
    best: tuple[np.ndarray, np.ndarray, int] | None = None
    converged = False
    for attempt in range(restarts):
        a = np.array(sample_pattern(g, seed + attempt, delta).entries)
        restart_best = mark = np.inf
        for rounds in range(max_iter + 1):
            lam, q = np.linalg.eigh(a)
            mag = np.abs(lam)
            order = (-mag).argsort(kind="stable")
            sig = mag[order]
            rel = _residual(sig, r)
            if rel < best_rel:
                best_rel = rel
                best = (a, sig, rounds)
            if rel <= tol:
                converged = True
                break
            if rounds == max_iter:
                break
            restart_best = min(restart_best, rel)
            if rounds % STALL_WINDOW == 0:
                if restart_best > STALL_FACTOR * mark:
                    break
                mark = restart_best
            # rank-r truncation, symmetric up to rounding; apply averages edges
            keep = order[:r]
            qk = q[:, keep]
            a = pattern.apply((qk * lam[keep]) @ qk.T, delta)
        if converged:
            break
        if r > 0:
            polished = _polish(a, lam, q, order, r, pattern, tol, delta)
            if polished is not None:
                entries, sigma, steps = polished
                best = (entries, sigma, rounds + steps)
                converged = True
                break
    assert best is not None
    entries, sigma, iterations = best
    entries.setflags(write=False)
    sigma = tuple(float(x) for x in sigma)
    return RankCertificate(PatternMatrix(entries, g, delta), r, sigma, tol, converged, iterations)


def verify_certificate(c: RankCertificate) -> bool:
    """Independent check: the argument rules, exact pattern membership and
    the rank test on a freshly computed spectrum.  True only if all hold.

    The rank test alone cannot prove a nullity on near-degenerate
    spectra: Wilkinson's W21+ shifted by its top eigenvalue is a pattern
    matrix of P_21 whose sigma[19] / sigma[0] is about 6e-15, so it verifies
    as a rank-19 certificate (nullity 2) although M(P_21) = 1.
    """
    try:
        c.matrix.validate()
        _check_int("r", c.r, 0, c.matrix.graph.n, CertificateError)
        _check_tol(c.tol)
    except CertificateError:
        return False
    return _residual(_spectrum(c.matrix.entries), c.r) <= c.tol


# ---------------------------------------------------------------------------
# sandwich report

@dataclass(frozen=True)
class MSandwich:
    """Bounds on the maximum eigenvalue multiplicity of one graph.

    Exact bounds: t_minus from below, z and t_plus from above.  The numeric
    lower bound comes from converged rank certificates and is a claim at the
    search tolerance.  ``m_exact`` is set when ``lower`` meets ``upper``,
    or, on the numeric path, when ``lower`` or the path and K4-minor rule's
    lower end (_minor_lower) meets the pendant-vertex rule's upper end
    (_pendant_upper).  Neither rule's end is a field: the upper end can lie
    below ``upper``, and the lower end above ``lower``, so ``m_exact`` can
    lie above ``lower`` with ``numeric_lower`` None (C5: t_minus 0, M = 2).
    Otherwise it stays None, however good the certificates are: no
    certificate can lift the lower bound past M.  The odd n-suns from n = 5
    up are such graphs: M = max(2, n // 2) < z (the 5-sun: M = 2 with z = 3),
    which only the pendant rule reaches from above.
    """

    t_minus: int
    numeric_lower: int | None
    z: int
    t_plus: int
    delta_plus: int
    m_exact: int | None

    @property
    def lower(self) -> int:
        if self.numeric_lower is None:
            return self.t_minus
        return max(self.t_minus, self.numeric_lower)

    @property
    def upper(self) -> int:
        return min(self.z, self.t_plus)


def m_sandwich(g: Graph, *, numeric: bool = True, seed: int = 0) -> MSandwich:
    """Pin the maximum multiplicity between combinatorial and numeric bounds.

    Forests need no numerics (the bounds collapse).  Otherwise, when the
    exact bounds leave a gap and ``numeric`` is on, rank certificates are
    tried at descending nullity targets from the upper bound down to just
    above t_minus; the first verified convergence sets numeric_lower.  Each
    target runs certificate_search at its default settings from ``seed``;
    call certificate_search directly for other settings.  The first target is
    min(upper, the pendant-vertex rule's exact upper end, _pendant_upper),
    and upper <= Z <= n, so a numeric claim never exceeds an exact upper
    bound; when t_minus or _minor_lower (1 per path component, 3 per
    component with a K4 minor, 2 per other component) already meets that
    first target, ``m_exact`` is set to it and no search runs (the odd
    n-suns, cycles and wheels).  A _minor_lower above it contradicts the
    exact bounds and raises CertificateConflict.
    Forest bounds that disagree are a contradiction and raise
    CertificateConflict instead of being reported.
    ``compute_report`` computes each exact bound once and hands the values
    to the same sandwich instead of searching them again; here one deletion
    walk (deletion._walk) gives the values of t_minus, t_plus and
    delta_plus.  ``m_exact`` is set as MSandwich says.
    """
    _check_int("seed", seed, 0, error=CertificateError)
    tm, tp, dp = (value for value, _, _ in deletion._walk(g.adj, g.n, ("t_minus", "t_plus", "delta_plus")))
    z, _ = zero_forcing_number(g)
    return _sandwich(g, tm, z, tp, dp, numeric=numeric, seed=seed)


def _sandwich(g: Graph, tm: int, z: int, tp: int, dp: int, *, numeric: bool = True,
              seed: int = 0) -> MSandwich:
    """m_sandwich on exact bound values already computed for g."""
    s = MSandwich(tm, None, z, tp, dp, None)
    top = s.upper
    if tm != top:
        # t_minus = z = t_plus on every forest, so only a gap can be a conflict
        if _is_forest_mask(g.adj, (1 << g.n) - 1):
            raise CertificateConflict(f"forest bounds disagree: t_minus={tm}, z={z}, t_plus={tp}")
        if numeric:
            top = min(top, _pendant_upper(g.adj, g.n))
            low = _minor_lower(g.adj, g.n)
            if low > top:
                raise CertificateConflict(f"minor lower end {low} exceeds upper end {top}")
            if low == top:
                return replace(s, m_exact=top)
            for k in range(top, max(tm, 0), -1):
                cert = certificate_search(g, g.n - k, seed=seed)
                if cert.converged and verify_certificate(cert):
                    s = replace(s, numeric_lower=k)
                    break
    return replace(s, m_exact=top) if s.lower == top else s


def _pendant_upper(adj, n: int) -> int:
    """An upper bound on M(G) for the n-vertex graph ``adj``, exact wherever
    the pendant-vertex rule leaves only components with Z = M (trees do).

    The rule: for a vertex l whose only neighbour is c,
    M(G) = max(M(G - l), M(G - l - c)), the pendant case of the cut-vertex
    rank formula (Barioli, Fallat & Hogben, "Computation of minimal rank and
    path cover number for certain graphs", LAA 2004).  Proof: shift a
    pattern matrix A of G so that the eigenvalue sits at 0; M(G) is the
    largest nullity of such an A.
    * If a_ll != 0, eliminating l (the Schur complement on a_ll) leaves a
      pattern matrix of G - l that differs from A only in a_cc, with the
      same nullity.
    * If a_ll = 0, row l is a_lc at c and 0 elsewhere, with a_lc != 0, so
      any null vector has x_c = 0, x_l is fixed by row c, and the rest is a
      null vector of A[G - l - c]: l and c drop out together, and the
      nullity is kept.
    * Both constructions reverse: a matrix B of G - l is the Schur
      complement of its border with a_ll = a_lc = 1 and a_cc = b_cc + 1, and
      a matrix C of G - l - c keeps its nullity in a border with a_ll = 0,
      a_lc = 1 and any nonzero edges at c.
    M adds over components, as each one's diagonal shifts on its own.  A
    component recurses on its lowest-labelled pendant vertex.  One with none
    (a single vertex, or minimum degree >= 2) scores Z, by forcing._wavefront
    on adjacency restricted to it: Z >= M, Z = M = 1 on a single vertex, and
    Z <= t_plus on every graph (the lemma of forcing.forcing_set_from_tplus),
    so t_plus adds nothing.  Trees need no case: a tree on 2 or more vertices
    has a leaf, so the rule takes it down to single vertices, exactly.

    Work: scores are memoized by component mask, and every mask is a subset
    of one component of G, so a component of nc vertices has at most 2^nc
    entries, the cap that Z's search has already passed on it.  Each entry
    costs one level BFS, or a wavefront on a subgraph, whose closed sets
    stay within those of its component.  K8 with a pendant on every vertex
    takes 502 entries.
    """
    memo: dict[int, int] = {}

    def total(mask: int) -> int:
        return sum(score(comp) for comp in _level_bfs(adj, mask)[1])

    def score(comp: int) -> int:
        if comp not in memo:
            for leaf in _bits(comp):
                nb = adj[leaf] & comp
                if nb and not nb & (nb - 1):
                    rest = comp ^ 1 << leaf
                    memo[comp] = max(score(rest), total(rest ^ nb))
                    break
            else:
                memo[comp] = _wavefront(tuple(a & comp for a in adj), comp)
        return memo[comp]

    return total((1 << n) - 1)


def _minor_lower(adj, n: int) -> int:
    """A lower bound on M(G) for the n-vertex graph ``adj``: the sum over
    components of 1 for a path (a single vertex included), 3 for a component
    with a K4 minor, and 2 for any other.

    The values: M adds over components, as each one's diagonal shifts on its
    own.  M = 1 exactly on paths, and M >= 2 on every other connected graph
    (Fiedler, "A characterization of tridiagonal matrices", LAA 1969).  The
    parameter xi(G), the largest nullity of a pattern matrix of G with the
    strong Arnold property, is at most M(G), minor-monotone and 3 on K4
    (Barioli, Fallat & Hogben, "A variant on the graph parameters of Colin
    de Verdiere", ELA 2005), so a K4 minor gives M >= xi >= 3.

    The K4 test is the series-parallel reduction: delete a vertex of degree
    <= 1, or replace a vertex of degree 2 by an edge between its two
    neighbours, until no such vertex is left.  Each step takes a minor, so
    a non-empty remainder, of minimum degree >= 3, is a minor of G and holds
    a K4 minor (Dirac 1952).  Each step also keeps a K4 minor: in a K4 model
    (four disjoint connected branch sets, pairwise adjacent) a vertex v of
    degree <= 2 is no branch set on its own, which needs three neighbours,
    so v is unused or has a neighbour a in its branch set B.  Then B - v
    stays connected, through the new edge ab if v's other neighbour b is in
    B too, and keeps its adjacencies, through ab if b lies outside B.  So an
    empty remainder means no K4 minor.

    Work: O(n^2) bitmask operations, as each step removes one vertex after a
    scan of at most n degrees.
    """
    total = 0
    for comp in _level_bfs(adj, (1 << n) - 1)[1]:
        nbrs = {v: adj[v] & comp for v in _bits(comp)}
        degrees = [nb.bit_count() for nb in nbrs.values()]
        if max(degrees) <= 2 and min(degrees) <= 1:
            total += 1  # a path: degrees at most 2 and not a cycle
            continue
        while nbrs:
            v = next((v for v, nb in nbrs.items() if nb.bit_count() <= 2), None)
            if v is None:
                break
            nb = nbrs.pop(v)
            ends = list(_bits(nb))
            for u in ends:
                nbrs[u] &= ~(1 << v)
            if len(ends) == 2:
                a, b = ends
                nbrs[a] |= 1 << b
                nbrs[b] |= 1 << a
        total += 3 if nbrs else 2
    return total


# ---------------------------------------------------------------------------
# serialization

def certificate_to_json(c: RankCertificate) -> str:
    g = c.matrix.graph
    payload = {
        "n": g.n,
        "graph6": g.graph6(),
        "r": c.r,
        "entries": [float(x) for x in c.matrix.entries.reshape(-1)],
        "delta": c.matrix.delta,
        "tol": c.tol,
        "sigma": list(c.sigma),
        "converged": c.converged,
        "iterations": c.iterations,
    }
    return json.dumps(payload, indent=2)


# JSON value types of each certificate key, matched exactly so that a JSON
# bool is no number; "entries" and "sigma" are lists of numbers
_REAL = (int, float)
_CERTIFICATE_TYPES = {"n": (int,), "graph6": (str,), "r": (int,), "entries": (list,), "delta": _REAL,
                      "tol": _REAL, "sigma": (list,), "converged": (bool,), "iterations": (int,)}


def certificate_from_json(text: str) -> RankCertificate:
    """Inverse of certificate_to_json.  A missing key, a value whose JSON
    type does not match the field, ``entries`` that are not n^2 finite
    numbers (json reads Infinity and NaN), ``sigma`` that is not n values,
    an ``r``, ``tol`` or ``delta`` that breaks the argument rules, a
    ``sigma`` that holds a negative or non-finite value or is not
    non-increasing, or a negative ``iterations`` raises CertificateError.
    Every number in ``entries``, ``sigma``, ``tol`` and ``delta`` is read
    as a float; a JSON integer too large for one raises CertificateError
    too."""
    d = json.loads(text)
    if not isinstance(d, dict):
        raise CertificateError("certificate JSON is not an object")
    for key, types in _CERTIFICATE_TYPES.items():
        if type(d.get(key)) not in types:
            names = " or ".join(t.__name__ for t in types)
            raise CertificateError(f"certificate key {key!r} is missing or not {names}: {d.get(key)!r}")
    if any(type(x) not in _REAL for x in d["entries"] + d["sigma"]):
        raise CertificateError("certificate entries and sigma must hold numbers only")
    g = parse_graph6(d["graph6"])
    if g.n != d["n"]:
        raise CertificateError(f"graph6 has n={g.n} but record says n={d['n']}")
    if len(d["entries"]) != g.n * g.n:
        raise CertificateError(f"certificate entries has {len(d['entries'])} numbers, need n^2 = {g.n * g.n}")
    if len(d["sigma"]) != g.n:
        raise CertificateError(f"certificate sigma has {len(d['sigma'])} values, need n = {g.n}")
    floats = {}
    for key in ("entries", "sigma", "tol", "delta"):
        try:
            floats[key] = np.array(d[key], dtype=float)
        except OverflowError:
            raise CertificateError(f"certificate {key} holds an integer too large for a float") from None
    sigma, tol, delta = floats["sigma"].tolist(), float(floats["tol"]), float(floats["delta"])
    _check_int("r", d["r"], 0, g.n, CertificateError)
    _check_tol(tol)
    _check_delta(delta)
    if not all(0 <= x < math.inf for x in sigma) or any(a < b for a, b in zip(sigma, sigma[1:])):
        raise CertificateError(f"certificate sigma={sigma} is not non-negative, finite and non-increasing")
    if d["iterations"] < 0:
        raise CertificateError(f"certificate iterations={d['iterations']} is negative")
    entries = _as_matrix(floats["entries"].reshape(g.n, g.n), g.n)
    entries.setflags(write=False)
    return RankCertificate(PatternMatrix(entries, g, delta), d["r"], tuple(sigma), tol, d["converged"], d["iterations"])


def write_certificate(c: RankCertificate, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(certificate_to_json(c))
        fh.write("\n")


def read_certificate(path) -> RankCertificate:
    with open(path, "r", encoding="ascii") as fh:
        return certificate_from_json(fh.read())
