"""Self-test of the benchmark: a tiny run of every workload, then proof that
the checks catch wrong outputs.

    python3 bench/selftest.py

Each workload runs once at the TINY size, plain and traced, and must report
no failed operation.  A tiny traced run must report exactly the per-layer
metrics that BENCHMARK.json names, with their units.  Then the program is
deliberately broken, one function at a time and in every module that
calls it, and the matching check must report wrong operations: a width
witness reflected through the cell's center, a width and its witness
pulled halfway to the center, every ray exit 1e-6 short, a least-squares
baseline scaled by 0.9, a reconstruction moved one code step out of its
cell, and a chi-mixture off by 1e-4.  Exits 0 when every case behaves, 1
otherwise.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from qconsist import buffon, cellgeom, reconstruct  # noqa: E402
from run import call, layer_metrics, run_rounds  # noqa: E402

SEED = 7


def run_once(workload, traced: bool = False) -> tuple[int, int]:
    with spans.Tracer() if traced else nullcontext():
        outputs = [call(step) for step in workload.steps]
    return workload.failed_ops(outputs)


@contextmanager
def patched(home, attr, make):
    """Replace home.attr with make(original) in every qconsist module that binds it."""
    original = getattr(home, attr)
    broken = make(original)
    modules = [
        m for name, m in list(sys.modules.items())
        if name.split(".")[0] == "qconsist" and vars(m).get(attr) is original
    ]
    for module in modules:
        setattr(module, attr, broken)
    try:
        yield
    finally:
        for module in modules:
            setattr(module, attr, original)


def reflected_witness(estimate_width):
    # same distance from the center, on the other side: outside the cell
    # unless the cell happens to reach as far in the opposite direction
    def broken(cell, center, *args, **kwargs):
        est = estimate_width(cell, center, *args, **kwargs)
        return replace(est, witness=2.0 * center - est.witness)
    return broken


def halfway_width(estimate_width):
    # still a member, at the reported distance, but not at the cell boundary
    def broken(cell, center, *args, **kwargs):
        est = estimate_width(cell, center, *args, **kwargs)
        return replace(est, value=0.5 * est.value, witness=0.5 * (center + est.witness))
    return broken


def shorter_exits(ray_exits):
    return lambda *args: ray_exits(*args) * (1.0 - 1e-6)


def scaled_baseline(linear_baseline):
    return lambda *args: 0.9 * linear_baseline(*args)


def one_code_off(pocs_consistent):
    def broken(ensemble, codes, *args, **kwargs):
        result = pocs_consistent(ensemble, codes, *args, **kwargs)
        row = ensemble.phi[0]
        x = result.x_star + ensemble.spec.delta * row / float(row @ row)
        return replace(result, x_star=x)
    return broken


def shifted_mixture(mixture_p1):
    return lambda *args, **kwargs: mixture_p1(*args, **kwargs) + 1e-4


def main() -> int:
    ok = True

    def report(label, good, detail):
        nonlocal ok
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} {label}: {detail}", flush=True)

    built = {}
    for name, cls in workloads.WORKLOADS.items():
        start = time.perf_counter()
        built[name] = workload = cls(SEED, workloads.TINY)
        for traced in (False, True):
            raised, wrong = run_once(workload, traced)
            report(
                f"{name} tiny {'traced' if traced else 'plain'}",
                raised == 0 and wrong == 0,
                f"{workload.ops} ops, {raised} raised, {wrong} wrong, {time.perf_counter() - start:.1f}s",
            )

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    rounds, _ = run_rounds(built["proximity"], 0.0, True)
    metrics, _ = layer_metrics(rounds, 0.0)
    reported = [(name, unit) for name, (_, unit) in metrics.items()]
    expected = [(m["name"], m["unit"]) for m in declared]
    report(
        "per-layer metrics match BENCHMARK.json",
        sorted(reported) == sorted(expected),
        f"{len(reported)} reported, {len(expected)} declared, "
        f"differing: {sorted(set(reported) ^ set(expected))}",
    )

    cases = [
        ("a reflected witness", "strict-widths", cellgeom, "estimate_width", reflected_witness),
        ("a reflected relaxed witness", "relaxed-ladder", cellgeom, "estimate_width", reflected_witness),
        ("a width and witness pulled halfway to the center", "strict-widths", cellgeom, "estimate_width", halfway_width),
        ("ray exits 1e-6 short", "strict-widths", cellgeom, "_ray_exits", shorter_exits),
        ("relaxed ray exits 1e-6 short", "relaxed-ladder", cellgeom, "_ray_exits", shorter_exits),
        ("a baseline scaled by 0.9", "strict-widths", reconstruct, "linear_baseline", scaled_baseline),
        ("a reconstruction one code step off", "sparse-recovery", reconstruct, "pocs_consistent", one_code_off),
        ("a chi-mixture off by 1e-4", "proximity", buffon, "mixture_p1", shifted_mixture),
    ]
    for label, name, module, attr, make in cases:
        with patched(module, attr, make):
            raised, wrong = run_once(built[name])
        report(f"{name} catches {label}", wrong > 0, f"{wrong} wrong operations")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
