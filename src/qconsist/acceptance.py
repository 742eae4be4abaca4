"""Acceptance suite: the thirteen release criteria behind `qconsist check`.

Each criterion is a self-contained check with a pinned tolerance.  The
`full` tier runs the stated sample sizes; the `quick` tier is a smoke
variant with reduced Monte Carlo budgets and, where a tolerance is a
fixed multiple of a standard error, the tolerance recomputed for the
reduced budget.  Fixed windows (slope ranges, constant ranges) never
change between tiers.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import rho_constants
from .buffon import (
    DumbbellConfig,
    estimate_p1,
    estimate_p1_conditional,
    kappa,
    consistent_pair_bound,
    dumbbell_radius,
    verify_bound_chain,
)
from .experiments import (
    ExperimentConfig,
    bias_experiment,
    decay_sweep,
    noise_power_check,
    proximity_violation_scan,
    write_records,
)
from .quantizer import QuantizerSpec, _encode_values, quantization_error
from .randkit import Stream, derive_stream, substream, uniform

__all__ = ["CriterionResult", "Tier", "QUICK", "FULL", "run_all", "SLOPE_WINDOW"]

SLOPE_WINDOW = (-1.15, -0.75)
BASELINE_SLOPE_WINDOW = (-0.6, -0.4)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"C{self.number:02d} {status} {self.name}: {self.detail} ({self.seconds:.1f}s)"


@dataclass(frozen=True)
class Tier:
    name: str
    quantizer_samples: int
    error_samples: int
    noise_trials: int
    buffon_throws: int
    grid_throws: int
    chain_throws: int
    decay_trials: int
    decay_directions: int
    scan_draws: int
    scan_signals: int
    scan_directions: int
    bias_trials: int
    bias_stability_tol: float


FULL = Tier(
    name="full",
    quantizer_samples=100_000,
    error_samples=1_000_000,
    noise_trials=1000,
    buffon_throws=1_000_000,
    grid_throws=100_000,
    chain_throws=100_000,
    decay_trials=50,
    decay_directions=512,
    scan_draws=20,
    scan_signals=200,
    scan_directions=128,
    bias_trials=200,
    bias_stability_tol=0.02,
)

QUICK = Tier(
    name="quick",
    quantizer_samples=20_000,
    error_samples=200_000,
    noise_trials=150,
    buffon_throws=200_000,
    grid_throws=20_000,
    chain_throws=20_000,
    decay_trials=12,
    decay_directions=128,
    scan_draws=8,
    scan_signals=60,
    scan_directions=64,
    bias_trials=60,
    bias_stability_tol=0.05,
)

GRFCQ_M_LIST = (32, 64, 128, 256, 512, 1024)
QCS_M_LIST = (64, 128, 256, 512, 1024, 2048)
BIAS_M_LIST = (1_000, 10_000)

# Wall-clock budgets (seconds) stated with the criteria; enforced at the
# full tier.  None = shares another criterion's run.
RUNTIME_BUDGETS = {
    1: 1.0,
    2: 10.0,
    3: 5.0,
    4: 120.0,
    5: 1.0,
    6: 600.0,
    7: 600.0,
    8: None,
    9: 600.0,
    10: 900.0,
    11: 120.0,
    12: 1.0,
    13: None,
}


def _seed_for(master: int, number: int) -> int:
    return derive_stream(master, 1000 + number)


def criterion_quantizer_laws(tier: Tier, master: int) -> tuple[bool, str]:
    """C1: exact shift covariance and monotonicity of the encoder."""
    n = tier.quantizer_samples
    stream = Stream(_seed_for(master, 1))
    groups = 16
    per = n // groups
    covariance_fails = 0
    mono_fails = 0
    for _ in range(groups):
        delta = float(uniform(stream, 0.05, 8.0))
        lam = uniform(stream, -100.0, 100.0, per)
        shifts = stream.rng.integers(-1000, 1001, size=per)
        shifted = _encode_values(lam + shifts * delta, delta)
        plain = _encode_values(lam, delta)
        covariance_fails += int(np.sum(shifted != plain + shifts))
        mu = lam + uniform(stream, 0.0, 50.0, per)
        mono_fails += int(np.sum(plain > _encode_values(mu, delta)))
    ok = covariance_fails == 0 and mono_fails == 0
    return ok, f"{n} draws: {covariance_fails} covariance failures, {mono_fails} monotonicity failures"


def criterion_error_law(tier: Tier, master: int) -> tuple[bool, str]:
    """C2: dithered error moments and the M*delta^2/12 noise-power law."""
    n = tier.error_samples
    delta = 1.0
    spec = QuantizerSpec(delta)
    stream = Stream(_seed_for(master, 2))
    y = 3.0 * stream.rng.standard_normal(n)
    xi = uniform(stream, 0.0, delta, n)
    err = quantization_error(y, xi, spec)
    mean = float(err.mean())
    var = float(err.var())
    mean_tol = 3.0 * (delta / math.sqrt(12.0)) / math.sqrt(n)
    var_dev = abs(var / (delta**2 / 12.0) - 1.0)
    cfg = ExperimentConfig(
        mode="noise", n=8, m_list=(1000,), trials=tier.noise_trials, delta=delta,
        seed=_seed_for(master, 22),
    )
    ratio = noise_power_check(cfg).per_m[0]["mean_ratio"]
    ok = abs(mean) < mean_tol and var_dev < 0.01 and 0.99 <= ratio <= 1.01
    return ok, (
        f"|mean|={abs(mean):.2e} (tol {mean_tol:.2e}), var dev={var_dev:.4f} (tol 0.01), "
        f"power ratio={ratio:.4f} (window [0.99, 1.01])"
    )


def criterion_classic_buffon(tier: Tier, master: int) -> tuple[bool, str]:
    """C3: radius-0 dumbbell at unit projector norm vs the 1 - 1/pi closed form."""
    cfg = DumbbellConfig(n=2, p=np.zeros(2), q=np.array([0.5, 0.0]), radius=0.0, delta=1.0)
    est = estimate_p1_conditional(cfg, tier.buffon_throws, Stream(_seed_for(master, 3)))
    target = 1.0 - 1.0 / math.pi
    dev = abs(est.p_hat - target)
    return dev < 0.005, f"p_hat={est.p_hat:.5f} vs {target:.5f}, |diff|={dev:.5f} (tol 0.005)"


def criterion_dumbbell_grid(tier: Tier, master: int) -> tuple[bool, str]:
    """C4: Monte Carlo crossing probability under the bound on an (n, alpha) grid."""
    failures = []
    idx = 0
    for n in (2, 4, 8):
        for alpha in (0.5, 1.0, 2.0, 4.0):
            idx += 1
            p = np.zeros(n)
            q = np.zeros(n)
            q[0] = alpha
            cfg = DumbbellConfig(n=n, p=p, q=q, radius=dumbbell_radius(p, q, n), delta=1.0)
            est = estimate_p1(cfg, tier.grid_throws, substream(_seed_for(master, 4), idx))
            bound = consistent_pair_bound(alpha, 1)
            if est.p_hat > bound + 3.0 * est.stderr:
                failures.append(f"(n={n}, alpha={alpha}): {est.p_hat:.4f} > {bound:.4f}")
    chain_fail = []
    for j, (n, alpha) in enumerate(((2, 0.5), (4, 2.0), (8, 4.0))):
        report = verify_bound_chain(n, alpha, tier.chain_throws, substream(_seed_for(master, 44), j))
        if not report.ok:
            chain_fail.append(f"(n={n}, alpha={alpha})")
    ok = not failures and not chain_fail
    detail = "12 grid cells within bound + 3*stderr; chain ordering holds on 3 spot cells"
    if failures or chain_fail:
        detail = f"grid failures: {failures}; chain failures: {chain_fail}"
    return ok, detail


def criterion_kappa(tier: Tier, master: int) -> tuple[bool, str]:
    """C5: two-sided kappa_n inequalities for n in 2..200, plus exact anchors."""
    coeff = math.sqrt(2.0 / math.pi)
    bad = []
    for n in range(2, 201):
        ratio = 2.0 * kappa(n) / (n - 1)
        if not (coeff / math.sqrt(n + 1) <= ratio <= coeff / math.sqrt(n - 1)):
            bad.append(n)
    k2 = abs(kappa(2) - 1.0 / math.pi)
    k3 = abs(kappa(3) - 0.5)
    ok = not bad and k2 < 1e-12 and k3 < 1e-12
    return ok, f"inequality failures: {bad or 'none'}; |kappa_2 - 1/pi|={k2:.1e}, |kappa_3 - 1/2|={k3:.1e}"


def _monotone_medians(per_m: list[dict], key: str, slack: float = 1.05) -> bool:
    meds = [row[key] for row in per_m]
    return all(b <= a * slack for a, b in zip(meds, meds[1:]))


def run_grfcq_sweep(tier: Tier, master: int, threads: int = 1) -> "object":
    """The shared N=8 unit-ball sweep used by criteria 6 and 8."""
    cfg = ExperimentConfig(
        mode="grfcq",
        n=8,
        m_list=GRFCQ_M_LIST,
        trials=tier.decay_trials,
        directions=tier.decay_directions,
        delta=1.0,
        eta=0.1,
        seed=_seed_for(master, 6),
    )
    return decay_sweep(cfg, threads)


def criterion_grfcq_decay(sweep) -> tuple[bool, str]:
    """C6: slope window, width-below-baseline at the largest M, shrinking medians."""
    lo, hi = SLOPE_WINDOW
    slope = sweep.fit.slope
    last = sweep.summary["per_m"][-1]
    width_last = last["median_width"]
    base_last = last["baseline_median"]
    monotone = _monotone_medians(sweep.summary["per_m"], "median_width")
    ok = lo <= slope <= hi and width_last < base_last and monotone
    return ok, (
        f"slope={slope:.3f} (window [{lo}, {hi}]), median width @M={last['m']}: "
        f"{width_last:.5f} < baseline {base_last:.5f}: {width_last < base_last}, "
        f"medians nonincreasing: {monotone}"
    )


def criterion_qcs_decay(tier: Tier, master: int, threads: int = 1):
    """C7: sparse-signal decay slope with support-restricted widths."""
    cfg = ExperimentConfig(
        mode="qcs",
        n=32,
        k=3,
        m_list=QCS_M_LIST,
        trials=tier.decay_trials,
        directions=tier.decay_directions,
        delta=1.0,
        eta=0.1,
        seed=_seed_for(master, 7),
    )
    sweep = decay_sweep(cfg, threads)
    lo, hi = SLOPE_WINDOW
    slope = sweep.fit.slope
    ok = lo <= slope <= hi
    return sweep, (ok, f"slope={slope:.3f} (window [{lo}, {hi}])")


def criterion_baseline_contrast(sweep) -> tuple[bool, str]:
    """C8: least-squares baseline decays at the 1/sqrt(M) rate."""
    lo, hi = BASELINE_SLOPE_WINDOW
    slope = sweep.baseline_fit.slope
    ok = lo <= slope <= hi
    return ok, f"baseline slope={slope:.3f} (window [{lo}, {hi}])"


def criterion_scan(tier: Tier, master: int, threads: int = 1):
    """C9: violation rate of the proximity predicate at the formula M."""
    cfg = ExperimentConfig(
        mode="scan",
        n=3,
        eps0=0.8,
        eta=0.1,
        delta=1.0,
        trials=tier.scan_draws,
        signals=tier.scan_signals,
        directions=tier.scan_directions,
        seed=_seed_for(master, 9),
    )
    result = proximity_violation_scan(cfg, threads)
    ok = result.violation_rate <= result.threshold
    return result, (
        ok,
        f"M={result.m}, violation rate={result.violation_rate:.3f} <= {result.threshold:.3f}",
    )


def criterion_relaxed(tier: Tier, master: int, threads: int = 1):
    """C10: relaxed widths monotone in r pointwise; slope window for each r."""
    sweeps = {}
    for r in (0, 2, 4):
        cfg = ExperimentConfig(
            mode="relaxed",
            n=8,
            r=r,
            m_list=GRFCQ_M_LIST,
            trials=tier.decay_trials,
            directions=tier.decay_directions,
            delta=1.0,
            eta=0.1,
            seed=_seed_for(master, 10),
        )
        sweeps[r] = decay_sweep(cfg, threads)
    lo, hi = SLOPE_WINDOW
    slopes = {r: s.fit.slope for r, s in sweeps.items()}
    slope_ok = all(lo <= s <= hi for s in slopes.values())
    monotone = True
    for r_small, r_big in ((0, 2), (2, 4)):
        small = sweeps[r_small].records
        big = sweeps[r_big].records
        for a, b in zip(small, big):
            if b.value < a.value * (1.0 - 1e-12):
                monotone = False
                break
    ok = slope_ok and monotone
    detail = (
        f"slopes r0/r2/r4 = {slopes[0]:.3f}/{slopes[2]:.3f}/{slopes[4]:.3f} "
        f"(window [{lo}, {hi}]), pointwise monotone in r: {monotone}"
    )
    return sweeps, (ok, detail)


def criterion_bias(tier: Tier, master: int, threads: int = 1):
    """C11: discrepancy/M tracks c*|lam| with M-stable c; distance never decays."""
    cfg = ExperimentConfig(
        mode="bias",
        n=8,
        lam=0.25,
        delta=1.0,
        m_list=BIAS_M_LIST,
        trials=tier.bias_trials,
        seed=_seed_for(master, 11),
    )
    result = bias_experiment(cfg, threads)
    cs = [row["c"] for row in result.per_m]
    stability = result.summary["c_stability"]
    dist_ok = all(abs(row["distance"] - 0.25) < 1e-12 for row in result.per_m)
    in_range = all(0.55 <= c <= 0.85 for c in cs)
    stable = stability is not None and stability <= tier.bias_stability_tol
    ok = dist_ok and in_range and stable
    detail = (
        f"c per M = {[round(c, 4) for c in cs]} (window [0.55, 0.85]), "
        f"stability={stability:.4f} (tol {tier.bias_stability_tol}), distance=0.25 for all M: {dist_ok}"
    )
    return result, (ok, detail)


def criterion_rho(tier: Tier, master: int) -> tuple[bool, str]:
    """C12: constants at rho = 0.1; the bias constant is reported as defined."""
    rc = rho_constants(0.1)
    ok = 4.17 < rc.c_rho < 4.2 and rc.rho_bar < 1.0
    return ok, (
        f"rho_bar={rc.rho_bar:.5f} < 1, c_rho={rc.c_rho:.5f} in (4.17, 4.2); "
        f"d_rho={rc.d_rho:.4f} by the printed natural-log definition (the often-quoted "
        f"companion value 1.7 is not reproducible from that definition; reported as computed)"
    )


def _determinism_artifacts(out_dir: Path, seed: int, threads: int) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    decay_cfg = ExperimentConfig(
        mode="grfcq", n=6, m_list=(32, 64, 128), trials=6, directions=64, delta=1.0, seed=seed
    )
    path = out_dir / "decay.csv"
    write_records(path, decay_sweep(decay_cfg, threads).records)
    paths.append(path)
    bias_cfg = ExperimentConfig(
        mode="bias", n=6, lam=0.25, delta=1.0, m_list=(200, 400), trials=8, seed=seed
    )
    path = out_dir / "bias.csv"
    write_records(path, bias_experiment(bias_cfg, threads).records)
    paths.append(path)
    noise_cfg = ExperimentConfig(mode="noise", n=6, m_list=(256,), trials=16, delta=1.0, seed=seed)
    path = out_dir / "noise.csv"
    write_records(path, noise_power_check(noise_cfg, threads).records)
    paths.append(path)
    return paths


def _strip_wall(text: str) -> str:
    lines = text.split("\n")
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


def criterion_determinism(tier: Tier, master: int) -> tuple[bool, str]:
    """C13: CSV artifacts byte-identical across reruns and thread counts
    (wall-time column excluded)."""
    seed = _seed_for(master, 13)
    with tempfile.TemporaryDirectory() as tmp:
        a = _determinism_artifacts(Path(tmp) / "a", seed, threads=1)
        b = _determinism_artifacts(Path(tmp) / "b", seed, threads=4)
        mismatches = []
        for pa, pb in zip(a, b):
            ta = _strip_wall(pa.read_text(encoding="utf-8"))
            tb = _strip_wall(pb.read_text(encoding="utf-8"))
            if ta != tb:
                mismatches.append(pa.name)
    ok = not mismatches
    return ok, (
        "3 artifact pairs byte-identical across threads 1 vs 4 (wall_ms excluded)"
        if ok
        else f"mismatched artifacts: {mismatches}"
    )


def run_all(
    tier: Tier,
    master: int = 0,
    out_dir: str | Path | None = None,
    threads: int = 1,
    progress=None,
) -> list[CriterionResult]:
    """Run all thirteen criteria in order; write sweep CSVs into out_dir."""
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    results: list[CriterionResult] = []

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    def push(number: int, name: str, outcome: tuple[bool, str], started: float) -> None:
        passed, detail = outcome
        elapsed = time.perf_counter() - started
        budget = RUNTIME_BUDGETS[number]
        if tier.name == "full" and budget is not None and elapsed > budget:
            passed = False
            detail += f"; exceeded the {budget:.0f}s runtime budget"
        results.append(CriterionResult(number, name, passed, detail, elapsed))

    def simple(number: int, name: str, fn) -> None:
        note(f"criterion {number}: {name}")
        started = time.perf_counter()
        push(number, name, fn(tier, master), started)

    simple(1, "quantizer-laws", criterion_quantizer_laws)
    simple(2, "dither-error-law", criterion_error_law)
    simple(3, "classic-buffon-oracle", criterion_classic_buffon)
    simple(4, "dumbbell-bound-grid", criterion_dumbbell_grid)
    simple(5, "kappa-bounds", criterion_kappa)

    note("criterion 6: grfcq-decay (shared sweep with criterion 8)")
    started = time.perf_counter()
    sweep6 = run_grfcq_sweep(tier, master, threads)
    if out is not None:
        write_records(out / "grfcq_decay.csv", sweep6.records)
    push(6, "grfcq-decay", criterion_grfcq_decay(sweep6), started)

    note("criterion 7: qcs-decay")
    started = time.perf_counter()
    sweep7, outcome = criterion_qcs_decay(tier, master, threads)
    if out is not None:
        write_records(out / "qcs_decay.csv", sweep7.records)
    push(7, "qcs-decay", outcome, started)

    started = time.perf_counter()
    push(8, "baseline-contrast", criterion_baseline_contrast(sweep6), started)

    note("criterion 9: proximity-predicate-scan")
    started = time.perf_counter()
    scan, outcome = criterion_scan(tier, master, threads)
    if out is not None:
        write_records(out / "scan.csv", scan.records)
    push(9, "proximity-predicate-scan", outcome, started)

    note("criterion 10: relaxed-cells")
    started = time.perf_counter()
    sweeps, outcome = criterion_relaxed(tier, master, threads)
    if out is not None:
        for r, sweep in sweeps.items():
            write_records(out / f"relaxed_r{r}.csv", sweep.records)
    push(10, "relaxed-cells", outcome, started)

    note("criterion 11: bias-floor")
    started = time.perf_counter()
    bias, outcome = criterion_bias(tier, master, threads)
    if out is not None:
        write_records(out / "bias.csv", bias.records)
    push(11, "bias-floor", outcome, started)

    simple(12, "rho-constants", criterion_rho)
    simple(13, "determinism", criterion_determinism)
    return results
