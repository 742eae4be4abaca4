"""Acceptance suite: the thirteen release criteria behind `qconsist check`.

Each criterion is a self-contained check with a pinned tolerance, and
states each of its Monte Carlo budgets once, at the call that uses it, at
its full-tier size.  The `full` tier runs those sizes; the `quick` tier is
a smoke variant that divides every budget by 4 (integer division).  A
tolerance that is a fixed multiple of a standard error is recomputed from
the budget it runs, so C11's stability tolerance scales by sqrt(4).  Fixed
windows (slope ranges, constant ranges) and the `CRITERIA` runtime budgets
never change between tiers.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .bounds import rho_constants
from .buffon import (
    DumbbellConfig,
    estimate_p1,
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
    """A tier runs every criterion's stated Monte Carlo budget // divisor."""

    name: str
    divisor: int


FULL = Tier("full", 1)
QUICK = Tier("quick", 4)

GRFCQ_M_LIST = (32, 64, 128, 256, 512, 1024)
QCS_M_LIST = (64, 128, 256, 512, 1024, 2048)
BIAS_M_LIST = (1_000, 10_000)


@dataclass
class _Run:
    """What every check receives: one `run_all` call's tier, seed, threads and
    artifact directory, plus the sweep criteria 6 and 8 share, cached per
    call so nothing is shared between two `run_all` calls."""

    tier: Tier
    master: int
    threads: int
    out: Path | None

    def seed(self, number: int) -> int:
        return derive_stream(self.master, 1000 + number)

    def budget(self, stated: int) -> int:
        """The tier's share of a budget stated at its full-tier size."""
        return stated // self.tier.divisor

    def keep(self, csv_name: str, records) -> None:
        """Write records as out/csv_name when an output directory was given."""
        if self.out is not None:
            write_records(self.out / csv_name, records)

    def width_sweep(self, number: int, mode: str, n: int, m_list, k: int | None = None, r: int = 0):
        """A width sweep of 50 trials x 512 directions, seeded for criterion `number`."""
        cfg = ExperimentConfig(
            mode=mode, n=n, k=k, r=r, m_list=m_list, trials=self.budget(50),
            directions=self.budget(512), delta=1.0, eta=0.1, seed=self.seed(number),
        )
        return decay_sweep(cfg, self.threads)

    @cached_property
    def grfcq_sweep(self):
        """The N=8 unit-ball sweep shared by criteria 6 and 8."""
        sweep = self.width_sweep(6, "grfcq", 8, GRFCQ_M_LIST)
        self.keep("grfcq_decay.csv", sweep.records)
        return sweep


def criterion_quantizer_laws(run: _Run) -> tuple[bool, str]:
    """C1: exact shift covariance and monotonicity of the encoder."""
    n = run.budget(100_000)
    stream = Stream(run.seed(1))
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
    return ok, f"{groups * per} draws: {covariance_fails} covariance failures, {mono_fails} monotonicity failures"


def criterion_error_law(run: _Run) -> tuple[bool, str]:
    """C2: dithered error moments and the M*delta^2/12 noise-power law."""
    n = run.budget(1_000_000)
    delta = 1.0
    spec = QuantizerSpec(delta)
    stream = Stream(run.seed(2))
    y = 3.0 * stream.rng.standard_normal(n)
    xi = uniform(stream, 0.0, delta, n)
    err = quantization_error(y, xi, spec)
    mean = float(err.mean())
    var = float(err.var())
    mean_tol = 3.0 * (delta / math.sqrt(12.0)) / math.sqrt(n)
    var_dev = abs(var / (delta**2 / 12.0) - 1.0)
    cfg = ExperimentConfig(
        mode="noise", n=8, m_list=(1000,), trials=run.budget(1000), delta=delta,
        seed=run.seed(22),
    )
    ratio = noise_power_check(cfg).per_m[0]["mean_ratio"]
    ok = abs(mean) < mean_tol and var_dev < 0.01 and 0.99 <= ratio <= 1.01
    return ok, (
        f"|mean|={abs(mean):.2e} (tol {mean_tol:.2e}), var dev={var_dev:.4f} (tol 0.01), "
        f"power ratio={ratio:.4f} (window [0.99, 1.01])"
    )


def criterion_classic_buffon(run: _Run) -> tuple[bool, str]:
    """C3: radius-0 dumbbell at unit projector norm vs the 1 - 1/pi closed form."""
    cfg = DumbbellConfig(n=2, p=np.zeros(2), q=np.array([0.5, 0.0]), radius=0.0, delta=1.0)
    est = estimate_p1(cfg, run.budget(1_000_000), Stream(run.seed(3)), phi_norm=1.0)
    target = 1.0 - 1.0 / math.pi
    dev = abs(est.p_hat - target)
    return dev < 0.005, f"p_hat={est.p_hat:.5f} vs {target:.5f}, |diff|={dev:.5f} (tol 0.005)"


def criterion_dumbbell_grid(run: _Run) -> tuple[bool, str]:
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
            est = estimate_p1(cfg, run.budget(100_000), substream(run.seed(4), idx))
            bound = consistent_pair_bound(alpha, 1)
            if est.p_hat > bound + 3.0 * est.stderr:
                failures.append(f"(n={n}, alpha={alpha}): {est.p_hat:.4f} > {bound:.4f}")
    chain_fail = []
    for j, (n, alpha) in enumerate(((2, 0.5), (4, 2.0), (8, 4.0))):
        report = verify_bound_chain(n, alpha, run.budget(100_000), substream(run.seed(44), j))
        if not report.ok:
            chain_fail.append(f"(n={n}, alpha={alpha}): {report.failed_step}")
    ok = not failures and not chain_fail
    detail = "12 grid cells within bound + 3*stderr; chain ordering holds on 3 spot cells"
    if failures or chain_fail:
        detail = f"grid failures: {failures}; chain failures: {chain_fail}"
    return ok, detail


def criterion_kappa(run: _Run) -> tuple[bool, str]:
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


def criterion_grfcq_decay(run: _Run) -> tuple[bool, str]:
    """C6: slope window, width-below-baseline at the largest M, shrinking medians."""
    sweep = run.grfcq_sweep
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


def criterion_qcs_decay(run: _Run) -> tuple[bool, str]:
    """C7: sparse-signal decay slope with support-restricted widths."""
    sweep = run.width_sweep(7, "qcs", 32, QCS_M_LIST, k=3)
    run.keep("qcs_decay.csv", sweep.records)
    lo, hi = SLOPE_WINDOW
    slope = sweep.fit.slope
    return lo <= slope <= hi, f"slope={slope:.3f} (window [{lo}, {hi}])"


def criterion_baseline_contrast(run: _Run) -> tuple[bool, str]:
    """C8: least-squares baseline decays at the 1/sqrt(M) rate."""
    lo, hi = BASELINE_SLOPE_WINDOW
    slope = run.grfcq_sweep.baseline_fit.slope
    return lo <= slope <= hi, f"baseline slope={slope:.3f} (window [{lo}, {hi}])"


def criterion_scan(run: _Run) -> tuple[bool, str]:
    """C9: violation rate of the proximity predicate at the formula M."""
    cfg = ExperimentConfig(
        mode="scan",
        n=3,
        eps0=0.8,
        eta=0.1,
        delta=1.0,
        trials=run.budget(20),
        signals=run.budget(200),
        directions=run.budget(128),
        seed=run.seed(9),
    )
    result = proximity_violation_scan(cfg, run.threads)
    run.keep("scan.csv", result.records)
    ok = result.violation_rate <= result.threshold
    return ok, f"M={result.m}, violation rate={result.violation_rate:.3f} <= {result.threshold:.3f}"


def criterion_relaxed(run: _Run) -> tuple[bool, str]:
    """C10: relaxed widths monotone in r pointwise; slope window for each r."""
    sweeps = {}
    for r in (0, 2, 4):
        sweeps[r] = run.width_sweep(10, "relaxed", 8, GRFCQ_M_LIST, r=r)
        run.keep(f"relaxed_r{r}.csv", sweeps[r].records)
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
    return ok, detail


def criterion_bias(run: _Run) -> tuple[bool, str]:
    """C11: discrepancy/M tracks c*|lam| with M-stable c; distance never decays."""
    cfg = ExperimentConfig(
        mode="bias",
        n=8,
        k=2,
        lam=0.25,
        delta=1.0,
        m_list=BIAS_M_LIST,
        trials=run.budget(200),
        seed=run.seed(11),
    )
    result = bias_experiment(cfg, run.threads)
    run.keep("bias.csv", result.records)
    cs = [row["c"] for row in result.per_m]
    stability = result.summary["c_stability"]
    dist_ok = all(abs(row["distance"] - 0.25) < 1e-12 for row in result.per_m)
    in_range = all(0.55 <= c <= 0.85 for c in cs)
    tol = 0.02 * math.sqrt(run.tier.divisor)  # scales as the stability's stderr, 1/sqrt(trials)
    stable = stability is not None and stability <= tol
    ok = dist_ok and in_range and stable
    detail = (
        f"c per M = {[round(c, 4) for c in cs]} (window [0.55, 0.85]), "
        f"stability={stability:.4f} (tol {tol}), distance=0.25 for all M: {dist_ok}"
    )
    return ok, detail


def criterion_rho(run: _Run) -> tuple[bool, str]:
    """C12: constants at rho = 0.1; the bias constant is reported as defined."""
    rc = rho_constants(0.1)
    ok = 4.17 < rc.c_rho < 4.2 and rc.rho_bar < 1.0
    return ok, (
        f"rho_bar={rc.rho_bar:.5f} < 1, c_rho={rc.c_rho:.5f} in (4.17, 4.2); "
        f"d_rho={rc.d_rho:.4f} by the printed natural-log definition (the often-quoted "
        f"companion value 1.7 is not reproducible from that definition; reported as computed)"
    )


# C13's artifacts: (file, campaign, config keys besides delta=1.0 and the seed).
_DETERMINISM_ARTIFACTS = (
    ("decay.csv", decay_sweep, dict(mode="grfcq", n=6, m_list=(32, 64, 128), trials=6, directions=64)),
    ("bias.csv", bias_experiment, dict(mode="bias", n=6, k=2, lam=0.25, m_list=(200, 400), trials=8)),
    ("noise.csv", noise_power_check, dict(mode="noise", n=6, m_list=(256,), trials=16)),
)


def _determinism_artifacts(out_dir: Path, seed: int, threads: int) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, campaign, keys in _DETERMINISM_ARTIFACTS:
        paths.append(out_dir / name)
        cfg = ExperimentConfig(delta=1.0, seed=seed, **keys)
        write_records(paths[-1], campaign(cfg, threads).records)
    return paths


def _strip_wall(text: str) -> str:
    lines = text.split("\n")
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


def criterion_determinism(run: _Run) -> tuple[bool, str]:
    """C13: CSV artifacts byte-identical across reruns and thread counts
    (wall-time column excluded)."""
    seed = run.seed(13)
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


# The suite, in run order: (number, name, wall-clock budget in seconds, check).
# Budgets are stated with the criteria and enforced at the full tier; None
# means no budget of its own (C8 reads C6's sweep).
CRITERIA = [
    (1, "quantizer-laws", 1.0, criterion_quantizer_laws),
    (2, "dither-error-law", 10.0, criterion_error_law),
    (3, "classic-buffon-oracle", 5.0, criterion_classic_buffon),
    (4, "dumbbell-bound-grid", 120.0, criterion_dumbbell_grid),
    (5, "kappa-bounds", 1.0, criterion_kappa),
    (6, "grfcq-decay", 600.0, criterion_grfcq_decay),
    (7, "qcs-decay", 600.0, criterion_qcs_decay),
    (8, "baseline-contrast", None, criterion_baseline_contrast),
    (9, "proximity-predicate-scan", 600.0, criterion_scan),
    (10, "relaxed-cells", 900.0, criterion_relaxed),
    (11, "bias-floor", 120.0, criterion_bias),
    (12, "rho-constants", 1.0, criterion_rho),
    (13, "determinism", None, criterion_determinism),
]


def run_all(
    tier: Tier,
    master: int = 0,
    out_dir: str | Path | None = None,
    threads: int = 1,
    progress=None,
) -> list[CriterionResult]:
    """Run the CRITERIA rows in order; write sweep CSVs into out_dir."""
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    run = _Run(tier, master, threads, out)
    results: list[CriterionResult] = []
    for number, name, budget, check in CRITERIA:
        if progress is not None:
            progress(f"criterion {number}: {name}")
        started = time.perf_counter()
        passed, detail = check(run)
        elapsed = time.perf_counter() - started
        if tier.name == "full" and budget is not None and elapsed > budget:
            passed = False
            detail += f"; exceeded the {budget:.0f}s runtime budget"
        results.append(CriterionResult(number, name, passed, detail, elapsed))
    return results
