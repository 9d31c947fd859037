"""Command line front end.

Subcommands: compute, family, verify-chain, survey, certify, zf; each
subparser names its handler with set_defaults(run=...), and main calls it.
Exit codes: 0 success; 1 verification failure (a chain violation, a
certificate search that did not converge, or bounds that contradict each
other); 2 usage error, such as a bad graph6 record or rank target.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .certificates import (
    DELTA_DEFAULT,
    MAX_ITER_DEFAULT,
    RESTARTS_DEFAULT,
    TOL_DEFAULT,
    CertificateConflict,
    _residual,
    certificate_search,
    write_certificate,
)
from .core import _FAMILY_KINDS, FamilyError, generate_family, parse_graph6
from .forcing import zero_forcing_number
from .reports import (
    compute_report,
    emit_report,
    survey_open_questions,
    verify_chain_corpus,
)

VERIFICATION_FAILURE = 1
USAGE_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrbounds",
        description="Deletion parameters, zero forcing, and rank certificates for small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="full parameter report for one or more graphs")
    src = p_compute.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph6", help="one graph6 record")
    src.add_argument("--file", help="path with one graph6 record per line")
    p_compute.add_argument("--numeric", action="store_true", help="also run rank certificates")
    p_compute.add_argument("--format", choices=("json", "csv"), default="json")
    p_compute.add_argument("--out", help="output path (default: stdout)")
    p_compute.set_defaults(run=_cmd_compute)

    p_family = sub.add_parser("family", help="emit a named family member as graph6")
    p_family.add_argument(
        "--kind",
        required=True,
        choices=_FAMILY_KINDS,
    )
    p_family.add_argument("--n", type=int, default=None)
    p_family.add_argument(
        "--extra",
        action="append",
        default=[],
        metavar="k=v",
        help="extra integer parameters, e.g. legs=4 leg_length=3",
    )
    p_family.set_defaults(run=_cmd_family)

    p_verify = sub.add_parser("verify-chain", help="check the parameter chain over the corpus")
    p_verify.add_argument("--max-n", type=int, required=True)
    p_verify.add_argument("--connected-only", action="store_true")
    p_verify.set_defaults(run=_cmd_verify_chain)

    p_survey = sub.add_parser("survey", help="equality-class survey over the corpus")
    p_survey.add_argument("--max-n", type=int, required=True)
    p_survey.add_argument("--out", help="write the full JSON summary here")
    p_survey.set_defaults(run=_cmd_survey)

    p_certify = sub.add_parser("certify", help="alternating-projection rank certificate")
    p_certify.add_argument("--graph6", required=True)
    p_certify.add_argument("--rank", type=int, required=True)
    p_certify.add_argument("--delta", type=float, default=DELTA_DEFAULT)
    p_certify.add_argument("--tol", type=float, default=TOL_DEFAULT)
    p_certify.add_argument("--restarts", type=int, default=RESTARTS_DEFAULT)
    p_certify.add_argument("--max-iter", type=int, default=MAX_ITER_DEFAULT)
    p_certify.add_argument("--seed", type=int, default=0)
    p_certify.add_argument("--out", help="write the certificate JSON here")
    p_certify.set_defaults(run=_cmd_certify)

    p_zf = sub.add_parser("zf", help="zero forcing number and witness")
    p_zf.add_argument("--graph6", required=True)
    p_zf.set_defaults(run=_cmd_zf)

    return parser


def _cmd_compute(args) -> int:
    if args.graph6 is not None:
        records = [args.graph6]
    else:
        with open(args.file, "r", encoding="ascii") as fh:
            records = [line.strip() for line in fh if line.strip()]
    reports = [compute_report(parse_graph6(rec), with_numeric=args.numeric) for rec in records]
    emit_report(reports, format=args.format, destination=args.out)
    return 0 if all(r.chain_ok for r in reports) else VERIFICATION_FAILURE


def _cmd_family(args) -> int:
    extra = {}
    for item in args.extra:
        if "=" not in item:
            raise FamilyError(f"--extra needs k=v, got {item!r}")
        key, _, value = item.partition("=")
        extra[key.strip()] = int(value)
    g = generate_family(args.kind, args.n, **extra)
    print(g.graph6())
    return 0


def _cmd_verify_chain(args) -> int:
    violations = verify_chain_corpus(args.max_n, args.connected_only)
    if violations:
        for v in violations:
            print(f"{v['graph6']}: {v['check']} fails with values {v['values']}")
        print(f"{len(violations)} violation(s)")
        return VERIFICATION_FAILURE
    print(f"no violations for n <= {args.max_n}")
    return 0


def _cmd_survey(args) -> int:
    summary = survey_open_questions(args.max_n)
    for name, bucket in summary["classes"].items():
        print(f"{name}: equal {bucket['equal_count']}, strict {bucket['strict_count']}")
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return 0


def _cmd_certify(args) -> int:
    g = parse_graph6(args.graph6)
    cert = certificate_search(
        g,
        args.rank,
        delta=args.delta,
        tol=args.tol,
        max_iter=args.max_iter,
        restarts=args.restarts,
        seed=args.seed,
    )
    residual = _residual(cert.sigma, cert.r)
    status = "converged" if cert.converged else "not converged"
    print(
        f"rank {cert.r} on {g.n} vertices: {status} "
        f"(residual {residual:.3e}, tol {cert.tol:.1e}, iteration {cert.iterations})"
    )
    if cert.converged:
        print(f"maximum multiplicity >= {cert.m_lower}")
    if args.out:
        write_certificate(cert, args.out)
    return 0 if cert.converged else VERIFICATION_FAILURE


def _cmd_zf(args) -> int:
    g = parse_graph6(args.graph6)
    z, witness = zero_forcing_number(g)
    print(f"Z = {z}")
    print("witness:", " ".join(str(v) for v in sorted(witness)))
    return 0


# BLAS and OpenMP thread counts, set to one unless the caller chose: a
# multithreaded BLAS may sum in another order, and the certificate search
# would then write other bytes for the same graph, rank and seed.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    # before numpy loads, which happens on the first numeric call
    for var in _THREAD_VARIABLES:
        os.environ.setdefault(var, "1")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except CertificateConflict as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VERIFICATION_FAILURE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
