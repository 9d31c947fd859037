"""Pin down maximum multiplicity with numerical rank certificates.

The combinatorial bounds leave a gap for K_2,3: t_minus = 1 but the upper
bound is 3, and the exact lower end of m_sandwich (1 on a path, 3 with a
K4 minor, 2 otherwise) reaches only 2, as K_2,3 has no K4 minor.  An
alternating-projection search finds a symmetric matrix with K_2,3's exact
zero pattern and numerical rank n - 3, which certifies multiplicity >= 3
and closes the gap.  The wheel's gap (t_minus = -1, upper bound 3) closes
with no search, by its K4 minor, though the search finds its certificate
too.  The same machinery refuses to close gaps that are real: a path
admits no such matrix below full nullity 1, and the search reports the
stall honestly.
"""

import numpy as np

import mrbounds as mb


def show(g, name, r):
    cert = mb.certificate_search(g, r)
    status = "converged" if cert.converged else "stalled"
    resid = cert.sigma[r] / cert.sigma[0] if r < g.n else 0.0
    print(f"{name}: rank {r} on {g.n} vertices {status} "
          f"(residual {resid:.1e}, iteration {cert.iterations})")
    if cert.converged:
        print(f"  independent re-check: {mb.verify_certificate(cert)}; "
              f"multiplicity >= {cert.m_lower}")
        lam = np.linalg.eigvalsh(cert.matrix.entries)
        small = ", ".join(f"{x:.1e}" for x in sorted(abs(lam))[: g.n - r + 1])
        print(f"  smallest eigenvalue magnitudes: {small}")
    return cert


def sandwich(g) -> None:
    sw = mb.m_sandwich(g)
    print(f"  sandwich: t_minus={sw.t_minus}, numeric lower={sw.numeric_lower}, "
          f"Z={sw.z}, t_plus={sw.t_plus} -> M = {sw.m_exact}")


def main() -> None:
    k23 = mb.parse_graph6("D]o")
    show(k23, "K_2,3", 2)
    sandwich(k23)

    print()
    w5 = mb.wheel_graph(5)
    show(w5, "wheel on 5", 2)
    sandwich(w5)  # closed by the K4 minor: no search, numeric lower None

    print()
    show(mb.cycle_graph(8), "cycle on 8", 6)

    print()
    # negative control: paths have full numerical rank pressure below n-1
    show(mb.path_graph(5), "path on 5", 3)

    print()
    c = mb.certificate_search(mb.cycle_graph(5), 3)
    text = mb.certificate_to_json(c)
    back = mb.certificate_from_json(text)
    print(f"serialization: {len(text)} bytes of JSON, round trip intact: "
          f"{np.array_equal(back.matrix.entries, c.matrix.entries)}")


if __name__ == "__main__":
    main()
