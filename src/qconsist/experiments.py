"""Monte Carlo campaigns: decay sweeps (strict and relaxed), bias floor,
proximity predicate scans, noise power checks, and log-log fitting.

Every campaign is one task per (M, trial) run by a single runner: per-task
substreams are keyed by the global trial index under the master seed, so
identical configs produce identical records (and CSV bytes) regardless of
thread count.  Wall-clock columns are the single exception and are
excluded from the determinism contract.

CSV schema (header exactly):
    mode,N,K,M,r,trial,seed,value,baseline,wall_ms
Column meaning by mode:
    grfcq/qcs/relaxed  value = width estimate, baseline = linear least-squares
                       error (nan when M < N);
    bias               value = code discrepancy / M, baseline = ||x - x*||;
    scan               value = max width over the searched signals, baseline = nan;
    noise              value = ||noise||^2 / (M*delta^2/12), baseline = the
                       normalized deviation zeta_hat.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from .bounds import _check_eta, min_measurements, predicted_eps
from .cellgeom import build_cell, empirical_worst_case, estimate_width
from .quantizer import QuantizerSpec, l1_discrepancy, quantization_error
from .randkit import Stream, derive_stream
from .reconstruct import linear_baseline
from .sensing import SignalModel, gen_ensemble, sample_signal, sense

__all__ = [
    "ExperimentConfig",
    "RunRecord",
    "DecayFit",
    "CampaignResult",
    "FitError",
    "CSV_HEADER",
    "fit_loglog",
    "decay_sweep",
    "bias_experiment",
    "proximity_violation_scan",
    "noise_power_check",
    "write_records",
]

CSV_HEADER = "mode,N,K,M,r,trial,seed,value,baseline,wall_ms"


class FitError(ValueError):
    """Not enough usable points for a log-log fit."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared experiment configuration; not every field matters to every mode."""

    mode: str
    n: int
    k: int | None = None
    r: int = 0
    m_list: tuple[int, ...] = ()
    trials: int = 50
    directions: int = 512
    delta: float = 1.0
    eta: float = 0.1
    lam: float = 0.25
    eps0: float = 0.5
    signals: int = 200
    seed: int = 0

    def __post_init__(self):
        SignalModel(self.n, self.k)
        QuantizerSpec(self.delta)
        _check_eta(self.eta)
        if self.r < 0:
            raise ValueError(f"r must be >= 0, got {self.r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.directions < 1:
            raise ValueError(f"directions must be >= 1, got {self.directions}")
        m_list = tuple(int(m) for m in self.m_list)
        if any(m < 1 for m in m_list):
            raise ValueError("every M must be >= 1")
        if any(a >= b for a, b in zip(m_list, m_list[1:])):
            raise ValueError(f"m_list must be strictly ascending, got {m_list}")
        object.__setattr__(self, "m_list", m_list)


@dataclass(frozen=True)
class RunRecord:
    """One experiment data point; one CSV row."""

    mode: str
    n: int
    k: int
    m: int
    r: int
    trial: int
    seed: int
    value: float
    baseline: float
    wall_ms: float

    def to_row(self) -> str:
        return (
            f"{self.mode},{self.n},{self.k},{self.m},{self.r},{self.trial},"
            f"{self.seed},{self.value!r},{self.baseline!r},{self.wall_ms:.3f}"
        )


@dataclass(frozen=True)
class DecayFit:
    """Ordinary least squares on (ln M, ln value)."""

    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class CampaignResult:
    """Records and JSON summary of one campaign.

    Width sweeps also carry their log-log fits; `per_m`, `m`,
    `violation_rate` and `threshold` read the summary entries of that name.
    """

    records: list[RunRecord]
    summary: dict
    fit: DecayFit | None = None
    baseline_fit: DecayFit | None = None

    per_m = property(lambda self: self.summary["per_m"])
    m = property(lambda self: self.summary["m"])
    violation_rate = property(lambda self: self.summary["violation_rate"])
    threshold = property(lambda self: self.summary["threshold"])


def fit_loglog(points) -> DecayFit:
    """OLS power-law fit; needs >= 3 distinct M values and positive values."""
    ms = np.asarray([p[0] for p in points], dtype=np.float64)
    vs = np.asarray([p[1] for p in points], dtype=np.float64)
    if np.unique(ms).size < 3:
        raise FitError(f"need >= 3 distinct M values, got {np.unique(ms).size}")
    if np.any(ms <= 0.0) or np.any(vs <= 0.0) or not np.all(np.isfinite(vs)):
        raise FitError("log-log fit needs positive finite points")
    x = np.log(ms)
    y = np.log(vs)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    r_squared = 1.0 if ss_tot == 0.0 and ss_res < 1e-24 else 1.0 - ss_res / max(ss_tot, 1e-300)
    return DecayFit(slope=float(slope), intercept=float(intercept), r_squared=r_squared)


def _map_tasks(fn, args_list, threads: int):
    if threads <= 1:
        return [fn(*args) for args in args_list]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda args: fn(*args), args_list))


def _task_seed(master: int, global_index: int) -> tuple[int, int, int]:
    seed_t = derive_stream(master, global_index)
    return seed_t, derive_stream(seed_t, 0), derive_stream(seed_t, 1)


def _run(cfg: ExperimentConfig, label: tuple[str, int, int], measure, threads: int, row=None, m_list=None):
    """The campaign runner: one timed task per (M, trial), records sorted by
    (M, trial), and one summary row per M.

    Task (mi, m, trial) of m_list (default cfg.m_list) x range(cfg.trials)
    draws its seeds from global index mi*trials + trial;
    `measure(m, ens_seed, sig_seed)` returns the record's (value, baseline)
    and `label` its (mode, k, r).  `row(m, records_at_m)` builds the per-M
    summary rows, in m_list order.  Returns (records, rows).  Tasks run
    with one BLAS thread each (one_blas_thread).
    """
    mode, k, r = label
    m_list = cfg.m_list if m_list is None else m_list
    if not m_list:
        raise ValueError("m_list must not be empty")

    def task(mi: int, m: int, trial: int) -> RunRecord:
        start = time.perf_counter()
        seed_t, ens_seed, sig_seed = _task_seed(cfg.seed, mi * cfg.trials + trial)
        value, baseline = measure(m, ens_seed, sig_seed)
        wall_ms = (time.perf_counter() - start) * 1e3
        return RunRecord(mode, cfg.n, k, m, r, trial, seed_t, value, baseline, wall_ms)

    tasks = [(mi, m, trial) for mi, m in enumerate(m_list) for trial in range(cfg.trials)]
    with one_blas_thread():
        records = _map_tasks(task, tasks, threads)
    records.sort(key=lambda rec: (rec.m, rec.trial))
    if row is None:
        return records, []
    groups = {m: [rec for rec in records if rec.m == m] for m in m_list}
    return records, [row(m, groups[m]) for m in m_list]


def _column(records: list[RunRecord], attr: str) -> np.ndarray:
    return np.asarray([getattr(rec, attr) for rec in records])


def _try_fit(medians: dict) -> DecayFit | None:
    try:
        return fit_loglog(list(medians.items()))
    except FitError:
        return None


def decay_sweep(cfg: ExperimentConfig, threads: int = 1) -> CampaignResult:
    """Width-vs-M sweep with the linear baseline alongside.

    Mode "grfcq" samples unit-ball signals; "qcs" samples sparse signals and
    measures widths inside the true support subspace; "relaxed" measures
    widths of the cell relaxed to code discrepancy cfg.r (matched seeds keep
    per-trial instances identical across r, and r = 0 reproduces the strict
    widths).  Fits the log-log slope of per-M median widths and overlays the
    saturated-proximity prediction for the signal set of cfg.k where M is
    large enough for it.
    """
    if cfg.mode not in ("grfcq", "qcs", "relaxed"):
        raise ValueError(f"decay sweep supports modes grfcq/qcs/relaxed, got {cfg.mode!r}")
    if cfg.mode == "qcs" and cfg.k is None:
        raise ValueError("qcs mode requires k")
    if cfg.mode == "grfcq" and cfg.k is not None:
        raise ValueError("grfcq mode samples the full ball; leave k unset")
    spec = QuantizerSpec(cfg.delta)
    # k set => sparse signals with support-restricted widths (any mode label)
    model = SignalModel(cfg.n, cfg.k)

    def measure(m, ens_seed, sig_seed):
        ensemble = gen_ensemble(m, cfg.n, spec, ens_seed)
        stream = Stream(sig_seed)
        signal = sample_signal(model, stream)
        obs = sense(ensemble, signal)
        cell = build_cell(ensemble, obs.codes, ball_radius=1.0, support=signal.support)
        width = estimate_width(cell, signal.x, cfg.directions, stream, r=cfg.r).value
        baseline = float("nan")
        if m >= cfg.n:
            baseline = float(np.linalg.norm(signal.x - linear_baseline(ensemble, obs.codes)))
        return width, baseline

    def row(m, recs):
        base = _column(recs, "baseline")
        base = base[np.isfinite(base)]
        try:
            predicted = predicted_eps(m, cfg.eta, cfg.delta, cfg.n, k=cfg.k)
        except ValueError:
            predicted = None
        widths = _column(recs, "value")
        return {
            "m": m,
            "median_width": float(np.median(widths)),
            "max_width": float(np.max(widths)),
            "baseline_median": float(np.median(base)) if base.size else None,
            "predicted_eps": predicted,
        }

    records, per_m = _run(cfg, (cfg.mode, cfg.k or 0, cfg.r), measure, threads, row)
    fit = _try_fit({row["m"]: row["median_width"] for row in per_m})
    baseline_fit = _try_fit(
        {row["m"]: row["baseline_median"] for row in per_m if row["baseline_median"] is not None}
    )
    summary = {
        "mode": cfg.mode,
        "n": cfg.n,
        "k": cfg.k,
        "r": cfg.r,
        "delta": cfg.delta,
        "trials": cfg.trials,
        "directions": cfg.directions,
        "seed": cfg.seed,
        "per_m": per_m,
        "fit": None if fit is None else vars(fit),
        "baseline_fit": None if baseline_fit is None else vars(baseline_fit),
    }
    if fit is None:
        summary["fit_note"] = "fit undefined: needs >= 3 distinct M values with positive finite medians"
    return CampaignResult(records, summary, fit, baseline_fit)


def bias_experiment(cfg: ExperimentConfig, threads: int = 1) -> CampaignResult:
    """Constant-offset discrepancy floor: x* = x + lam*delta*e_i on the support of a cfg.k-sparse x.

    Per M reports the mean and stderr of discrepancy/M and the implied
    constant c with discrepancy/M ~ c*|lam|; the distance ||x - x*|| equals
    |lam|*delta for every M, demonstrating the non-decaying floor.
    """
    if cfg.k is None:
        raise ValueError("bias_experiment needs a sparsity k: the offset moves one support coordinate")
    if abs(cfg.lam) * cfg.delta >= 1.0:
        raise ValueError(
            f"|lam|*delta = {abs(cfg.lam) * cfg.delta} >= 1 pushes the offset signal out of the unit ball"
        )
    spec = QuantizerSpec(cfg.delta)
    model = SignalModel.sparse_ball(cfg.n, cfg.k)

    def measure(m, ens_seed, sig_seed):
        ensemble = gen_ensemble(m, cfg.n, spec, ens_seed)
        raw = sample_signal(model, Stream(sig_seed))
        # Shrink so the offset vector stays inside the unit ball.
        x = raw.x * (1.0 - abs(cfg.lam) * cfg.delta)
        x_star = x.copy()
        x_star[int(raw.support[0])] += cfg.lam * cfg.delta
        disc = l1_discrepancy(sense(ensemble, x), sense(ensemble, x_star))
        return disc / m, float(np.linalg.norm(x - x_star))

    def row(m, recs):
        vals = _column(recs, "value")
        mean = float(vals.mean())
        return {
            "m": m,
            "mean_discrepancy_per_m": mean,
            "stderr": float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else float("nan"),
            "c": mean / abs(cfg.lam) if cfg.lam != 0.0 else None,
            "distance": abs(cfg.lam) * cfg.delta,
        }

    records, per_m = _run(cfg, ("bias", cfg.k, 0), measure, threads, row)
    cs = [row["c"] for row in per_m if row["c"] is not None]
    stability = None
    if len(cs) >= 2 and np.mean(cs) > 0.0:
        stability = float((max(cs) - min(cs)) / np.mean(cs))
    summary = {
        "mode": "bias",
        "n": cfg.n,
        "k": cfg.k,
        "lam": cfg.lam,
        "delta": cfg.delta,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "per_m": per_m,
        "c_stability": stability,
    }
    return CampaignResult(records, summary)


def proximity_violation_scan(cfg: ExperimentConfig, threads: int = 1) -> CampaignResult:
    """Fraction of ensemble draws where the searched worst case exceeds eps0.

    M is set from the unit-ball measurement formula at (eps0, eta); each of
    the cfg.trials draws is one task at that single M and searches
    cfg.signals sampled signals with cfg.directions random directions each.
    The searcher is a lower-bound method, so the reported rate
    conservatively lower-bounds the true failure probability.
    """
    m = min_measurements(cfg.eps0, cfg.eta, cfg.delta, cfg.n)
    spec = QuantizerSpec(cfg.delta)
    model = SignalModel.unit_ball(cfg.n)

    def measure(m_draw, ens_seed, scan_seed):
        ensemble = gen_ensemble(m_draw, cfg.n, spec, ens_seed)
        worst = empirical_worst_case(ensemble, model, cfg.signals, cfg.directions, scan_seed)
        return worst.max_width, float("nan")

    records, _ = _run(cfg, ("scan", 0, 0), measure, threads, m_list=(m,))
    rate = sum(1 for rec in records if rec.value > cfg.eps0) / cfg.trials
    summary = {
        "mode": "scan",
        "n": cfg.n,
        "eps0": cfg.eps0,
        "eta": cfg.eta,
        "delta": cfg.delta,
        "m": m,
        "draws": cfg.trials,
        "signals": cfg.signals,
        "directions": cfg.directions,
        "violation_rate": rate,
        "threshold": cfg.eta + 2.0 * float(np.sqrt(cfg.eta * (1.0 - cfg.eta) / cfg.trials)),
        "seed": cfg.seed,
    }
    return CampaignResult(records, summary)


def noise_power_check(cfg: ExperimentConfig, threads: int = 1) -> CampaignResult:
    """Quantization-noise power against the M*delta^2/12 law.

    Per trial senses a fresh unit-ball signal and reports the normalized
    power ratio and the deviation zeta_hat = (power - M*delta^2/12) /
    (delta^2*sqrt(M)/12).  Both are computed in resolution units (the
    error divided by delta), so that delta^2 cannot overflow.
    """
    spec = QuantizerSpec(cfg.delta)
    model = SignalModel.unit_ball(cfg.n)

    def measure(m, ens_seed, sig_seed):
        ensemble = gen_ensemble(m, cfg.n, spec, ens_seed)
        signal = sample_signal(model, Stream(sig_seed))
        err = quantization_error(ensemble.phi @ signal.x, ensemble.xi, spec) / cfg.delta
        power = float(err @ err)
        expected = m / 12.0
        zeta = (power - expected) / (np.sqrt(m) / 12.0)
        return power / expected, float(zeta)

    def row(m, recs):
        return {
            "m": m,
            "mean_ratio": float(_column(recs, "value").mean()),
            "p99_zeta": float(np.percentile(_column(recs, "baseline"), 99.0)),
        }

    records, per_m = _run(cfg, ("noise", 0, 0), measure, threads, row)
    summary = {
        "mode": "noise",
        "n": cfg.n,
        "delta": cfg.delta,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "per_m": per_m,
    }
    return CampaignResult(records, summary)


def write_records(path, records: list[RunRecord]) -> None:
    """Write records as UTF-8, LF-terminated CSV with the fixed schema."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.to_row() + "\n")
