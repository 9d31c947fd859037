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
let the numerics override those.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import Graph, classify, parse_graph6
from .deletion import delta_plus as _delta_plus_op
from .deletion import t_minus as _t_minus_op
from .deletion import t_plus as _t_plus_op
from .forcing import zero_forcing_number

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


class CertificateError(ValueError):
    """Pattern violations or bad parameters."""


class CertificateConflict(CertificateError):
    """Bounds that contradict each other: a verification failure, not bad input."""


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
        a = self.entries
        n = self.graph.n
        if self.delta <= 0:
            raise CertificateError("delta must be positive")
        if a.shape != (n, n):
            raise CertificateError(f"entries shape {a.shape} does not match n={n}")
        if not np.array_equal(a, a.T):
            raise CertificateError("entries are not exactly symmetric")
        for i in range(n):
            for j in range(i + 1, n):
                if self.graph.has_edge(i, j):
                    if abs(a[i, j]) < self.delta:
                        raise CertificateError(
                            f"edge entry ({i},{j}) = {a[i, j]} under magnitude {self.delta}"
                        )
                elif a[i, j] != 0.0:
                    raise CertificateError(f"non-edge entry ({i},{j}) = {a[i, j]} is nonzero")


@dataclass(frozen=True)
class RankCertificate:
    """Outcome of one rank-r pattern search.

    ``sigma`` holds the singular values (eigenvalue magnitudes, descending)
    of ``matrix``; ``converged`` means sigma[r] <= tol * sigma[0] held, so
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


def _edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    es = sorted(g.edges)
    rows = np.fromiter((u for u, _ in es), dtype=np.intp, count=len(es))
    cols = np.fromiter((v for _, v in es), dtype=np.intp, count=len(es))
    return rows, cols


def _apply_pattern(m: np.ndarray, n: int, rows, cols, delta: float) -> np.ndarray:
    out = np.zeros((n, n))
    np.fill_diagonal(out, np.diagonal(m))
    if rows.size:
        vals = 0.5 * (m[rows, cols] + m[cols, rows])
        clamped = np.where(np.abs(vals) < delta, np.where(vals >= 0, delta, -delta), vals)
        out[rows, cols] = clamped
        out[cols, rows] = clamped
    return out


def sample_pattern(g: Graph, seed: int, delta: float = DELTA_DEFAULT) -> PatternMatrix:
    """Random pattern member: edge entries uniform over +-[delta, 1],
    diagonal uniform over [-1, 1].  Deterministic for a fixed seed; draws
    happen in vertex order for the diagonal, then sorted edge order."""
    if delta <= 0:
        raise CertificateError("delta must be positive")
    rng = np.random.default_rng(seed)
    a = np.zeros((g.n, g.n))
    np.fill_diagonal(a, rng.uniform(-1.0, 1.0, g.n))
    for u, v in sorted(g.edges):
        mag = rng.uniform(delta, 1.0)
        sign = 1.0 if rng.integers(0, 2) else -1.0
        a[u, v] = a[v, u] = sign * mag
    a.setflags(write=False)
    return PatternMatrix(a, g, delta)


def project_pattern(m: np.ndarray, g: Graph, delta: float = DELTA_DEFAULT) -> PatternMatrix:
    """Nearest pattern member: zero the non-edges, clamp small edge entries
    to sign * delta (sign of zero taken positive), keep the diagonal."""
    if delta <= 0:
        raise CertificateError("delta must be positive")
    m = np.asarray(m, dtype=float)
    rows, cols = _edge_arrays(g)
    out = _apply_pattern(m, g.n, rows, cols, delta)
    out.setflags(write=False)
    return PatternMatrix(out, g, delta)


def project_rank(m: np.ndarray, r: int) -> np.ndarray:
    """Nearest (Frobenius) symmetric matrix of rank <= r: spectral
    truncation keeping the r eigenvalues of largest magnitude."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if not 0 <= r <= n:
        raise CertificateError(f"rank target {r} outside 0..{n}")
    if r == n:
        return m.copy()
    lam, q = np.linalg.eigh(m)
    out = _truncate(lam, q, np.argsort(-np.abs(lam), kind="stable")[:r])
    return 0.5 * (out + out.T)


def _truncate(lam: np.ndarray, q: np.ndarray, keep) -> np.ndarray:
    """q diag(lam) q^T restricted to the eigenpairs ``keep``, symmetric only
    up to rounding: project_rank symmetrises it, and _apply_pattern averages
    each edge pair itself, so the search loop skips that cost per round."""
    return (q[:, keep] * lam[keep]) @ q[:, keep].T


def _nonedge_arrays(n: int, rows, cols) -> tuple[np.ndarray, np.ndarray]:
    adj = np.zeros((n, n), dtype=bool)
    adj[rows, cols] = adj[cols, rows] = True
    iu, ju = np.triu_indices(n, 1)
    off = ~adj[iu, ju]
    return iu[off], ju[off]


def _polish(a: np.ndarray, r: int, rows, cols, tol: float, delta: float):
    """Levenberg-Marquardt on the rank-r factor A = X diag(s) X^T of the
    pattern iterate ``a``, with the non-edge entries as residuals and each
    edge kept, in its sign, at least POLISH_EDGE_FLOOR times sigma[0] of
    ``a`` in magnitude.

    The result has its non-edges zeroed and is scaled up, if needed, so that
    every edge is at least ``delta`` in magnitude.  It is accepted only if
    sigma[r] <= min(tol, POLISH_TOL) * sigma[0] and every edge is at least
    POLISH_EDGE_ACCEPT * sigma[0] in magnitude.  Returns (entries, sigma,
    steps) for an accepted matrix, else None.
    """
    n = a.shape[0]
    lam, q = np.linalg.eigh(a)
    order = np.argsort(-np.abs(lam), kind="stable")
    keep = order[:r]
    s = np.sign(lam[keep])
    x = q[:, keep] * np.sqrt(np.abs(lam[keep]))
    floor = POLISH_EDGE_FLOOR * float(np.abs(lam[order[0]]))
    ni, nj = _nonedge_arrays(n, rows, cols)
    pi = np.concatenate([ni, rows])
    pj = np.concatenate([nj, cols])
    n_free = ni.size
    edge_sign = np.sign(a[rows, cols])
    k = np.arange(pi.size)

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
        jac[k, pi, :] = coef[:, None] * xs[pj]
        jac[k, pj, :] += coef[:, None] * xs[pi]
        jac = jac.reshape(pi.size, n * r)
        grad = jac.T @ res
        hess = jac.T @ jac
        scale = float(np.max(np.diagonal(hess), initial=1.0))
        # The factor is fixed only up to X -> XQ with Q diag(s) Q^T = diag(s),
        # so ``hess`` is singular; the damping keeps a floor.
        mu = max(1e-3 * scale if mu is None else mu, 1e-12 * scale)
        for _ in range(POLISH_DAMPING_TRIES):
            step = np.linalg.solve(hess + mu * np.eye(n * r), -grad)
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
    entries = _apply_pattern((x * s) @ x.T, n, rows, cols, floor)
    least = float(np.min(np.abs(entries[rows, cols]), initial=np.inf))
    if least < delta:
        entries = _apply_pattern(entries * (delta / least), n, rows, cols, delta)
        least = float(np.min(np.abs(entries[rows, cols])))
    sig = np.sort(np.abs(np.linalg.eigvalsh(entries)))[::-1]
    s1 = float(sig[0])
    if s1 == 0.0 or sig[r] > min(tol, POLISH_TOL) * s1 or least < POLISH_EDGE_ACCEPT * s1:
        return None
    return entries, tuple(float(v) for v in sig), steps


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
    the pattern-feasible iterate: sigma[r] <= tol * sigma[0].

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
    precision, sigma[r] <= min(tol, POLISH_TOL) * sigma[0], with every edge
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
    n = g.n
    if not 0 <= r <= n:
        raise CertificateError(f"rank target {r} outside 0..{n}")
    if restarts < 1 or max_iter < 0:
        raise CertificateError("need restarts >= 1 and max_iter >= 0")
    rows, cols = _edge_arrays(g)
    best_rel = np.inf
    best: tuple[np.ndarray, tuple[float, ...], int] | None = None
    converged = False
    for attempt in range(restarts):
        a = np.array(sample_pattern(g, seed + attempt, delta).entries)
        restart_best = mark = np.inf
        for rounds in range(max_iter + 1):
            lam, q = np.linalg.eigh(a)
            order = np.argsort(-np.abs(lam), kind="stable")
            sig = np.abs(lam)[order]
            s1 = float(sig[0]) if n else 0.0
            tail = float(sig[r]) if r < n else 0.0
            if s1 > 0:
                rel = tail / s1
            else:
                rel = 0.0 if tail == 0.0 else np.inf
            if rel < best_rel:
                best_rel = rel
                best = (a.copy(), tuple(float(x) for x in sig), rounds)
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
            a = _apply_pattern(_truncate(lam, q, order[:r]), n, rows, cols, delta)
        if converged:
            break
        if r > 0:
            polished = _polish(a, r, rows, cols, tol, delta)
            if polished is not None:
                entries, sigma, steps = polished
                best = (entries, sigma, rounds + steps)
                converged = True
                break
    assert best is not None
    entries, sigma, iterations = best
    entries.setflags(write=False)
    return RankCertificate(PatternMatrix(entries, g, delta), r, sigma, tol, converged, iterations)


def verify_certificate(c: RankCertificate) -> bool:
    """Independent check: exact pattern membership plus the tolerance test
    on a freshly computed spectrum.  True only if both hold.

    The tolerance test alone cannot prove a nullity on near-degenerate
    spectra: Wilkinson's W21+ shifted by its top eigenvalue is a pattern
    matrix of P_21 whose sigma[19] / sigma[0] is about 6e-15, so it verifies
    as a rank-19 certificate (nullity 2) although M(P_21) = 1.
    """
    try:
        c.matrix.validate()
    except CertificateError:
        return False
    n = c.matrix.graph.n
    if not 0 <= c.r <= n:
        return False
    if c.r >= n:
        return True
    sig = np.sort(np.abs(np.linalg.eigvalsh(c.matrix.entries)))[::-1]
    s1 = float(sig[0]) if n else 0.0
    tail = float(sig[c.r])
    if s1 == 0.0:
        return tail == 0.0
    return tail <= c.tol * s1


# ---------------------------------------------------------------------------
# sandwich report

@dataclass(frozen=True)
class MSandwich:
    """Bounds on the maximum eigenvalue multiplicity of one graph.

    Exact bounds: t_minus from below, z and t_plus from above.  The numeric
    lower bound comes from converged rank certificates and is a claim at the
    search tolerance.  ``m_exact`` is set only when lower meets upper, so it
    stays None whenever M < min(z, t_plus): no certificate can lift the
    lower bound past M.  Odd suns from n = 5 up are examples: M = 2 for the
    5-sun, below z = 3.
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


def m_sandwich(
    g: Graph,
    *,
    numeric: bool = True,
    delta: float = DELTA_DEFAULT,
    tol: float = TOL_DEFAULT,
    max_iter: int = MAX_ITER_DEFAULT,
    restarts: int = RESTARTS_DEFAULT,
    seed: int = 0,
) -> MSandwich:
    """Pin the maximum multiplicity between combinatorial and numeric bounds.

    Forests need no numerics (the bounds collapse).  Otherwise, when the
    exact bounds leave a gap and ``numeric`` is on, rank certificates are
    tried at descending nullity targets from the upper bound down to just
    above t_minus; the first verified convergence sets numeric_lower.  A
    numeric claim exceeding the exact upper bound, or forest bounds that
    disagree, is a contradiction and raises CertificateConflict instead of
    being reported.  ``compute_report`` computes each exact bound once and
    hands the values to the same sandwich instead of searching them again.

    ``m_exact`` is set only when the lower bound meets min(z, t_plus).  When
    M itself lies below min(z, t_plus) it stays None however good the
    certificates are: the odd n-suns from n = 5 up have M = max(2, n // 2)
    (the 5-sun: M = 2 with z = 3), and no bound here closes them from above.
    """
    tm = _t_minus_op(g).value
    tp = _t_plus_op(g).value
    dp = _delta_plus_op(g).value
    z, _ = zero_forcing_number(g)
    return _sandwich(g, tm, z, tp, dp, numeric=numeric, delta=delta, tol=tol,
                     max_iter=max_iter, restarts=restarts, seed=seed)


def _sandwich(g: Graph, tm: int, z: int, tp: int, dp: int, *, numeric: bool = True,
              delta: float = DELTA_DEFAULT, tol: float = TOL_DEFAULT, max_iter: int = MAX_ITER_DEFAULT,
              restarts: int = RESTARTS_DEFAULT, seed: int = 0) -> MSandwich:
    """m_sandwich on exact bound values already computed for g."""
    upper = min(z, tp)
    numeric_lower: int | None = None
    if classify(g).is_forest:
        if tm != upper:
            raise CertificateConflict(
                f"forest bounds disagree: t_minus={tm}, z={z}, t_plus={tp}"
            )
        m_exact: int | None = tm
    elif tm == upper:
        m_exact = tm
    else:
        if numeric:
            for k in range(min(upper, g.n), max(tm, 0), -1):
                cert = certificate_search(
                    g, g.n - k, delta=delta, tol=tol,
                    max_iter=max_iter, restarts=restarts, seed=seed,
                )
                if cert.converged and verify_certificate(cert):
                    numeric_lower = k
                    break
        if numeric_lower is not None and numeric_lower > upper:
            raise CertificateConflict(
                f"numeric lower bound {numeric_lower} exceeds exact upper bound {upper}"
            )
        m_exact = upper if numeric_lower == upper else None
    return MSandwich(tm, numeric_lower, z, tp, dp, m_exact)


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


def certificate_from_json(text: str) -> RankCertificate:
    d = json.loads(text)
    g = parse_graph6(d["graph6"])
    if g.n != d["n"]:
        raise CertificateError(f"graph6 has n={g.n} but record says n={d['n']}")
    entries = np.array(d["entries"], dtype=float).reshape(g.n, g.n)
    entries.setflags(write=False)
    matrix = PatternMatrix(entries, g, float(d["delta"]))
    return RankCertificate(
        matrix,
        int(d["r"]),
        tuple(float(x) for x in d["sigma"]),
        float(d["tol"]),
        bool(d["converged"]),
        int(d["iterations"]),
    )


def write_certificate(c: RankCertificate, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(certificate_to_json(c))
        fh.write("\n")


def read_certificate(path) -> RankCertificate:
    with open(path, "r", encoding="ascii") as fh:
        return certificate_from_json(fh.read())
