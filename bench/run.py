"""Benchmark of qconsist's Monte Carlo campaigns, one workload per process.

    python3 bench/run.py --workload strict-widths --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout; the library is imported from
`src/`.  A run builds the workload's inputs from --seed, repeats rounds of
the same calls until the next round would end past --seconds (at least one
round; with --trace 1 untraced and traced rounds alternate, at least
three), checks the first round's outputs and compares every later
round with it bit for bit, then times several fresh set-ups in child
processes.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics under
--trace 1.  A fuller record goes to bench-results/<workload>-<seed>-<trace>.json.
See bench/README.md.
"""

from __future__ import annotations

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

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RESULTS = ROOT / "bench-results"
WORKLOAD_NAMES = ("strict-widths", "relaxed-ladder", "sparse-recovery", "proximity")

# Fresh set-ups timed per run; setup_s is their median.
SETUP_PROBES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must be a 64-bit unsigned integer")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def call(step):
    try:
        return step.run()
    except Exception as exc:  # a failed operation, counted by the check
        return exc


def run_rounds(workload, seconds: float, trace: bool):
    """Rounds of the workload's steps; returns (rounds, first round's outputs)."""
    if trace:
        import spans
    rounds = []
    first = None
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        tracer = spans.Tracer() if traced else None
        with tracer or nullcontext():
            w0, c0 = time.perf_counter(), time.process_time()
            outputs = [call(step) for step in workload.steps]
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if first is None:
            first = outputs
        rounds.append({"wall": wall, "cpu": cpu, "traced": traced, "digest": workload.digest(outputs), "tracer": tracer})
        elapsed = time.perf_counter() - start
        enough = len(rounds) >= (3 if trace else 1)
        typical = statistics.median(r["wall"] for r in rounds)
        if enough and elapsed + typical > seconds:
            return rounds, first


def time_setups(args) -> list[float]:
    """Wall time from spawning a fresh process to its inputs being ready."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(t1 - t0)
    return times


def scipy_integrate_import_s() -> float:
    """Cumulative import time of scipy.integrate inside `import qconsist`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import qconsist"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    for line in proc.stderr.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if len(fields) == 3 and fields[2] == "scipy.integrate":
            return int(fields[1]) * 1e-6
    return 0.0  # not imported while importing qconsist


def layer_metrics(rounds, import_s: float) -> tuple[dict, dict]:
    """Per-layer metrics from the traced rounds, and the counts' agreement."""
    from spans import LAYER_COUNTS, LAYER_TIMES

    traced = [r for r in rounds if r["traced"]]
    # the first round pays first-call costs, so the overhead leaves it out
    plain = [r for r in rounds[1:] if not r["traced"]]
    per_round = []
    for r in traced:
        tot = r["tracer"].totals()
        counts = r["tracer"].counts
        cycles = counts.get("reconstruct.pocs_on_support.cycles", 0) + counts.get("reconstruct.pocs_consistent.cycles", 0)
        pocs_s = tot.get("reconstruct.pocs_on_support.s", 0.0) + tot.get("reconstruct.pocs_consistent.s", 0.0)
        times = {name: tot.get(name, 0.0) for name in LAYER_TIMES}
        times["reconstruct.pocs_cycle_us"] = pocs_s / cycles * 1e6 if cycles else 0.0
        per_round.append((times, {name: counts.get(name, 0) for name in LAYER_COUNTS}, len(r["tracer"].spans)))
    metrics = {
        "setup.import_s": (import_s, "s"),
        "setup.scipy_integrate_import_s": (scipy_integrate_import_s(), "s"),
    }
    for name in LAYER_TIMES:
        metrics[name] = (statistics.median(t[name] for t, _, _ in per_round), "s")
    metrics["reconstruct.pocs_cycle_us"] = (statistics.median(t["reconstruct.pocs_cycle_us"] for t, _, _ in per_round), "us")
    counts, span_count = per_round[0][1], per_round[0][2]
    for name in LAYER_COUNTS:
        metrics[name] = (counts[name], "count")
    traced_s = statistics.median(r["wall"] for r in traced)
    plain_s = statistics.median(r["wall"] for r in plain)
    metrics["trace.round_s"] = (traced_s, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - plain_s) / plain_s, "%")
    repeat = all(c == counts and n == span_count for _, c, n in per_round)
    return metrics, {
        "counts_repeat": repeat,
        "spans_per_round": span_count,
        "traced_rounds": len(traced),
        "untraced_rounds": len(plain),
    }


def blas_threads() -> int | None:
    """OpenBLAS's own thread count in this process, read from the library."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy
    import scipy
    import workloads

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "runner_threads": workloads.THREADS,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qconsist" / "__init__.py").is_file():
        print(f"bench: no qconsist sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import workloads  # imports qconsist

    import_s = time.perf_counter() - t0
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    rounds, first = run_rounds(workload, args.seconds, bool(args.trace))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raised, wrong = workload.failed_ops(first)
    digest0 = rounds[0]["digest"]
    repeat = all(r["digest"] == digest0 for r in rounds)
    # a round whose outputs differ from the first round's fails as a whole
    failed = sum(raised + wrong if r["digest"] == digest0 else workload.ops for r in rounds)
    attempted = workload.ops * len(rounds)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "rounds": [{k: r[k] for k in ("wall", "cpu", "traced")} for r in rounds],
        "ops_per_round": workload.ops,
        "first_round_raised": raised,
        "first_round_wrong": wrong,
        "rounds_identical": repeat,
    }
    if args.trace:
        metrics, extra = layer_metrics(rounds, import_s)
        details.update(extra)
    else:
        setups = time_setups(args)
        details["setup_probes_s"] = setups
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (statistics.median(r["wall"] for r in rounds), "s"),
            "cpu_s": (statistics.median(r["cpu"] for r in rounds), "s"),
            "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
        }
    result = {
        "correct": wrong == 0 and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details["result"] = result
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-{args.seed}-{args.trace}.json").write_text(json.dumps(details, indent=1) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6f} {unit}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
