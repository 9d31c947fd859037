"""mrbounds benchmark: one workload per run, BLAS pinned to one thread.

    python3 perfbench/run.py --workload corpus6|reports_mid|certify|all \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout.  Every timed pass runs in a fresh process,
so no pass can reuse work that an earlier pass left in memory.  The run
starts passes for about ``--seconds`` seconds (at least one), and each pass
checks its outputs after its timed region.  The last line printed is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` follows each untraced pass with a traced pass over the same
inputs and reports the per-layer metrics.  Lines before the JSON give the
environment, the raw, CPU and scaled pass times, and the metrics named in
perfbench/predictions.json.  ``--tiny`` shrinks every input set for the
smoke test.  ``--workload all`` runs the three workloads one after another.

Every reported time is scaled to reference machine speed (see speed.py);
the raw wall times and CPU times are printed on the ``speed`` line.

What it cannot measure: there is no control of the page cache or CPU
frequency and no whole-machine tracing; it sees only its own processes' wall
time, CPU time and ru_maxrss, and the machine's speed only through its own
kernel samples.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

# Pinned before numpy loads (first imported by the workload modules) and
# inherited by every child process: one BLAS/OpenMP thread per workload.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 9
# Wall time of a fresh `python3 -c "import numpy"` at reference speed.
IMPORT_REFERENCE_S = 0.1
PASS_TIMEOUT_S = 170
WORKLOAD_NAMES = ("corpus6", "reports_mid", "certify")


def _use_checkout():
    """Put this checkout's src/ on the import path, or exit with an error."""
    if not (ROOT / "src" / "mrbounds" / "__init__.py").is_file():
        sys.exit(f"perfbench: {ROOT / 'src' / 'mrbounds'} not found; run from a repository checkout")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        return json.load(fh)


def _git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(),
    }


def _child(args, *extra) -> list[str]:
    return ([sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed)] + list(extra) + (["--tiny"] if args.tiny else []))


def _wall(cmd) -> float:
    start = time.perf_counter()
    # No timeout: with one, subprocess polls the child in steps of up to 50 ms.
    subprocess.run(cmd, check=True, cwd=ROOT)
    return time.perf_counter() - start


def _setup_seconds(args) -> list[float]:
    """Wall time of fresh processes that import the package and build the
    workload's inputs: set-up as a user pays it, measured several times.

    Each is scaled to reference speed by a fresh process that only imports
    numpy, run right after it: the set-up time times ``IMPORT_REFERENCE_S``
    over that process's wall time.  Start-up and imports follow the machine's
    file and memory speed, which the kernel of speed.py does not: on a 2-vCPU
    Xeon VM, 30 probes spread by 0.30 of their median raw, 0.20 scaled by the
    kernel and 0.06 scaled by the numpy import.
    """
    cmd = _child(args, "--setup-only")
    yardstick = [sys.executable, "-c", "import numpy"]
    times = []
    for _ in range(SETUP_PROBES):
        setup = _wall(cmd)
        times.append(setup * IMPORT_REFERENCE_S / _wall(yardstick))
    return times


def _run_child_pass(args, pass_index: int, trace: int) -> dict:
    """One timed pass in a fresh process; returns the JSON it prints."""
    cmd = _child(args, "--pass-index", str(pass_index), "--trace", str(trace))
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"perfbench: pass {pass_index} of {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# one pass, in its own process

def _per_layer(tracer, scale: float) -> dict:
    """Per-layer metrics of one traced pass, from span self times (scaled to
    reference speed by ``scale``) and counts."""
    spans = tracer.self_times()

    def self_s(name):
        return spans.get(name, (0.0, 0))[0] * scale

    def calls(name):
        return spans.get(name, (0.0, 0))[1]

    reports_done = calls("reports.compute_report")

    def per_report(name):
        return calls(name) / reports_done if reports_done else 0.0

    searches = calls("certificates.search")
    out = {
        "reports.enumerate_s": self_s("reports.enumerate"),
        "reports.enumerate_graphs": tracer.counts["reports.enumerate"],
        "reports.sweep_s": self_s("reports.verify_chain_corpus"),
        "reports.compute_report_s": self_s("reports.compute_report"),
        "reports.compute_report_calls": reports_done,
        "reports.emit_s": self_s("reports.emit"),
        "reports.load_s": self_s("reports.load"),
        "reports.t_minus_per_report": per_report("deletion.t_minus"),
        "reports.t_plus_per_report": per_report("deletion.t_plus"),
        "reports.delta_plus_per_report": per_report("deletion.delta_plus"),
        "reports.zero_forcing_per_report": per_report("forcing.zero_forcing_number"),
        "certificates.converged_frac": tracer.counts["converged"] / searches if searches else 0.0,
        "certificates.search_calls": searches,
        "certificates.restarts": calls("certificates.sample_pattern"),
        "certificates.m_exact_count": tracer.counts["m_exact"],
    }
    for name in ("deletion.t_values", "deletion.delta_values", "pathcover.induced_bruteforce",
                 "forcing.z_value", "core.graph6", "deletion.delta", "pathcover.min_path_cover",
                 "certificates.m_sandwich", "certificates.search", "certificates.eigh",
                 "certificates.verify", "deletion.t_minus", "deletion.t_plus",
                 "deletion.delta_plus", "forcing.zero_forcing_number"):
        out[f"{name}_s"] = self_s(name)
    for name in ("certificates.eigh", "deletion.t_minus", "deletion.t_plus",
                 "deletion.delta_plus", "forcing.zero_forcing_number"):
        out[f"{name}_calls"] = calls(name)
    return out


def _requests_by_input(tracer, name: str, labels) -> dict:
    counts = [0] * len(labels)
    for span in tracer.spans:
        if span[0] == name and 0 <= span[4] < len(labels):
            counts[span[4]] += 1
    return dict(zip(labels, counts))


def run_one_pass(args) -> int:
    """Build the pass's inputs, time one pass, check it, print one JSON line."""
    from speed import SpeedProbe
    from tracing import Tracer, instrumented
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.pass_index, args.tiny, OUT_DIR)
    probe = SpeedProbe()
    tracer = Tracer(probe.clock) if args.trace else None
    cpu0 = time.process_time()
    with instrumented(tracer) if tracer else nullcontext():
        with probe.sampling() as first:
            result = workload.run_pass(probe.clock, tracer)
    cpu_s = time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    f = probe.scale(first)
    gate = workload.gate(result)
    out = {
        "wall_s": result.wall_s * f,
        "raw_s": result.wall_s,
        "cpu_s": cpu_s,
        "scale": f,
        "op_s": [x * f for x in result.op_s],
        "rss_mb": rss_mb,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "notes": gate.notes,
        "outcome": workload.outcome(result),
    }
    if tracer is not None:
        out["layers"] = _per_layer(tracer, f)
        if args.workload == "certify":
            out["eigh_by_input"] = _requests_by_input(tracer, "certificates.eigh", workload.labels)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}-pass{args.pass_index}.tsv"
        tracer.write(trace_path)
        out["trace_file"] = str(trace_path.relative_to(ROOT))
        out["spans"] = len(tracer.spans)
    print(json.dumps(out))
    return 0


# ---------------------------------------------------------------------------
# a run: set-up probes, then passes in fresh processes

def _isomorphism_classes(graphs) -> int:
    """Exact count of isomorphism classes: buckets by degree invariants, split by VF2."""
    import networkx as nx

    buckets: dict[tuple, list] = {}
    classes = 0
    for g in graphs:
        adj = g.adj
        key = (g.n, g.m, tuple(sorted(
            (a.bit_count(), tuple(sorted(adj[v].bit_count() for v in g.neighbors(u))))
            for u, a in enumerate(adj)
        )))
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        reps = buckets.setdefault(key, [])
        if not any(nx.is_isomorphic(h, r) for r in reps):
            reps.append(h)
            classes += 1
    return classes


def _round(x: float) -> float:
    return round(x, 4)


def run_workload(args) -> int:
    from workloads import WORKLOADS

    spec = _spec()
    env = _environment()
    # One CPU for the run, its set-up probes and its passes: the CPUs of a
    # shared machine can run at different speeds at once.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env["pinned_cpu"] = cpu
    setup = _setup_seconds(args)

    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        # A round is one untraced pass and, when tracing, one traced pass
        # over the same inputs, so the two can be compared.
        round_start = time.perf_counter()
        untraced.append(_run_child_pass(args, len(untraced), 0))
        if args.trace:
            traced.append(_run_child_pass(args, len(traced), 1))
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    ops = [x for p in untraced for x in p["op_s"]]
    outcomes = [p["outcome"] for p in untraced]
    if WORKLOADS[args.workload].same_each_pass:
        # Passes over the same inputs must give the same outputs.
        attempted += 1
        if any(p["outcome"] != outcomes[0] for p in passes):
            failed += 1
            untraced[0]["notes"].append("outputs differ between passes over the same inputs")
    e2e = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(p["wall_s"] for p in untraced),
        "peak_rss_mb": max(p["rss_mb"] for p in untraced),
    }

    for key, value in env.items():
        print(f"env {key} {value}")
    print(f"run workload={args.workload} seed={args.seed} passes={len(untraced)}"
          f" traced_passes={len(traced)} ops={len(ops)}")
    print(f"setup setup_s={[_round(x) for x in setup]}")
    print(f"speed pass_s={[_round(p['wall_s']) for p in untraced]}"
          f" raw_pass_s={[_round(p['raw_s']) for p in untraced]}"
          f" cpu_pass_s={[_round(p['cpu_s']) for p in untraced]}"
          f" scale={[_round(p['scale']) for p in untraced]}")
    named = dict(WORKLOADS[args.workload].named_metrics(e2e["pass_s"], ops, outcomes))
    named["failed_frac"] = (failed / attempted, "ratio")
    named["peak_rss_mb"] = (e2e["peak_rss_mb"], "MB")
    named["setup_s"] = (e2e["setup_s"], "s")
    for name, (value, unit) in named.items():
        print(f"metric {name} {value} {unit}")
    if args.workload == "reports_mid":
        print(f"note report samples={len(ops)} beyond_p90={len(ops) - int(0.9 * len(ops))}")
    for i, outcome in enumerate(outcomes):
        if outcome:
            print(f"note pass {i} " + " ".join(f"{k}={v}" for k, v in outcome.items()))
    for p in passes:
        for note in p["notes"]:
            print(f"fail {note}")

    if not traced:
        wanted = spec["end_to_end"]
        values = e2e
    else:
        wanted = spec["per_layer"]
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        inputs = list(WORKLOADS[args.workload](args.seed, 0, args.tiny, OUT_DIR).corpus())
        classes = _isomorphism_classes(inputs)
        traced_s = statistics.median(p["wall_s"] for p in traced)
        values.update({
            "inputs.count": len(inputs),
            "inputs.classes": classes,
            "inputs.repeat_frac": 1.0 - classes / len(inputs),
            "trace.overhead_frac": (traced_s - e2e["pass_s"]) / e2e["pass_s"],
        })
        for label, n in traced[0].get("eigh_by_input", {}).items():
            print(f"trace certificates.eigh_calls[{label}] {n}")
        for p in traced:
            print(f"trace spans={p['spans']} file={p['trace_file']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn; prints each one's metrics by name."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for line in lines[:-1]:
            print(f"{name} {line}")
            if line.startswith("metric "):
                _, metric, value, unit = line.split()
                metrics[f"{name}.{metric}"] = {"value": float(value), "unit": unit}
        for metric, entry in result["metrics"].items():
            metrics.setdefault(f"{name}.{metric}", entry)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mrbounds benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pass-index", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _use_checkout()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, 0, args.tiny, OUT_DIR)
        return 0
    if args.pass_index is not None:
        return run_one_pass(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
