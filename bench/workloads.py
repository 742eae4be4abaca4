"""The benchmark's four workloads.

Each workload is a list of steps, each one call into a public campaign or
solver function of qconsist, plus a check of the outputs against the
independent computations in checks.py.  A step counts as `ops` operations:
one campaign task, enumeration instance, POCS solve, scan draw or dumbbell
cell.  Inputs come from the master seed that --seed picks (see MASTERS;
sparse-recovery's are fixed, see there); every round of a run repeats the
same steps on the same inputs.  The campaign runners get THREADS worker threads.

Sizes are the ones acceptance.py states for the criteria each workload
re-runs (FULL; the relaxed ladder runs fewer trials, see RelaxedLadder);
TINY is the smoke size used by selftest.py.  Statistical windows are
checked only at the stated sizes.  The program is called through module
attributes (`experiments.decay_sweep`, ...) so that a traced round sees
the calls.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from qconsist import buffon, cellgeom, experiments, reconstruct, sensing
from qconsist.experiments import ExperimentConfig
from qconsist.quantizer import QuantizerSpec
from qconsist.randkit import Stream, derive_stream, substream
from qconsist.sensing import SignalModel

SLOPE_WINDOW = (-1.15, -0.75)  # C6, width medians
BASELINE_SLOPE_WINDOW = (-0.6, -0.4)  # C8, least-squares baseline medians
UNIT = QuantizerSpec(1.0)

# Worker threads passed to the campaign runners.  One, although two cores
# exist: OpenBLAS's own threads already use the second core, and on a 2-core
# machine a second runner thread left strict-widths' median round time
# unchanged (2.02 s against 2.07 s) while widening its run-to-run range from
# 8% to 35% over five alternating runs.
THREADS = 1

# Sub-seed tags: every input of a workload is derived from its master seed
# and one tag.
TAG_SWEEP, TAG_SAMPLE, TAG_POCS, TAG_SCAN, TAG_GRID, TAG_CHAIN = range(6)

# --seed picks one of these master seeds.  estimate_width raises on about
# one width in 5000 (its witness, pulled back by a relative 1e-12 from a
# short exit, lands on a code boundary), which ends the whole decay_sweep
# or scan draw.  Of the masters 0-63, the FULL strict sweep raised on 0, 39,
# 43 and 63 and the proximity scan on 34 (relaxed-ladder on none), so
# masters drawn freely would make the failed share depend on the seed.
# These are the other 59.
MASTERS = tuple(s for s in range(64) if s not in (0, 34, 39, 43, 63))


def master(seed: int) -> int:
    return MASTERS[seed % len(MASTERS)]


@dataclass(frozen=True)
class Size:
    # width sweeps (strict-widths, relaxed-ladder)
    m_list: tuple[int, ...]
    trials: int
    ladder_trials: int
    directions: int
    witnesses_per_m: int
    # sparse-recovery
    enum_instances: int
    pocs_m_list: tuple[int, ...]
    pocs_per_m: int
    # proximity
    scan_draws: int
    scan_signals: int
    scan_directions: int
    throws: int


FULL = Size(
    m_list=(32, 64, 128, 256, 512, 1024),
    trials=50,
    ladder_trials=10,
    directions=512,
    witnesses_per_m=2,
    enum_instances=3,
    pocs_m_list=(32, 64, 128, 256, 512, 1024),
    pocs_per_m=20,
    scan_draws=20,
    scan_signals=200,
    scan_directions=128,
    throws=100_000,
)

TINY = Size(
    m_list=(32, 64, 128),
    trials=3,
    ladder_trials=2,
    directions=32,
    witnesses_per_m=1,
    enum_instances=1,
    pocs_m_list=(32, 128),
    pocs_per_m=2,
    scan_draws=2,
    scan_signals=8,
    scan_directions=16,
    throws=2_000,
)


@dataclass(frozen=True, eq=False)
class Step:
    ops: int
    run: Callable[[], object]
    meta: object = None  # what the check needs to know about the call


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


class Workload:
    """Steps over fixed inputs, and the check of their outputs."""

    def __init__(self, size: Size):
        self.size = size
        self.stated = size == FULL
        self.steps: list[Step] = []

    @property
    def ops(self) -> int:
        return sum(step.ops for step in self.steps)

    def failed_ops(self, outputs: list) -> tuple[int, int]:
        """Operations whose call raised, and operations whose output is wrong."""
        raised = wrong = 0
        for step, out in zip(self.steps, outputs):
            if isinstance(out, Exception):
                raised += step.ops
            else:
                wrong += len(self.check_step(step, out))
        return raised, wrong + self.check_across(outputs)

    def check_step(self, step: Step, out) -> set[int]:
        """Indices (within the step) of operations that fail a check."""
        raise NotImplementedError

    def check_across(self, outputs: list) -> int:
        """Failed operations found only by comparing steps."""
        return 0

    def digest(self, outputs: list) -> str:
        """Fingerprint of all outputs, to compare rounds bit for bit."""
        parts = []
        for out in outputs:
            if isinstance(out, Exception):
                parts.append((type(out).__name__, str(out)))
            else:
                parts.extend(self.digest_parts(out))
        return _digest(parts)

    def digest_parts(self, out) -> list:
        raise NotImplementedError


# ------------------------------------------------------------ width sweeps ---

class _Sweeps(Workload):
    """decay_sweep at N=8 over the workload's r levels, on matched instances."""

    mode: str
    levels: tuple[int, ...]

    def __init__(self, seed: int, size: Size = FULL):
        super().__init__(size)
        seed = master(seed)
        trials = self.trials(size)
        for r in self.levels:
            cfg = ExperimentConfig(
                mode=self.mode,
                n=8,
                r=r,
                m_list=size.m_list,
                trials=trials,
                directions=size.directions,
                delta=1.0,
                eta=0.1,
                seed=derive_stream(seed, TAG_SWEEP),
            )
            self.steps.append(Step(len(size.m_list) * trials, self._runner(cfg), cfg))
        pick = Stream(derive_stream(seed, TAG_SAMPLE))
        self.sample = sorted(
            (mi, int(t))
            for mi in range(len(size.m_list))
            for t in pick.rng.choice(trials, size.witnesses_per_m, replace=False)
        )
        self.probe_directions = [
            _unit(pick.rng.standard_normal(8)) for _ in range(3)
        ]

    @staticmethod
    def trials(size: Size) -> int:
        return size.trials

    def _runner(self, cfg):
        return lambda: experiments.decay_sweep(cfg, THREADS)

    def check_step(self, step, sweep) -> set[int]:
        cfg = step.meta
        r = cfg.r
        records = sweep.records
        everything = set(range(step.ops))
        keys = [(m, t) for m in cfg.m_list for t in range(cfg.trials)]
        if [(rec.m, rec.trial) for rec in records] != keys:
            return everything
        failed = {i for i, rec in enumerate(records) if not (0.0 < rec.value <= 2.0) or rec.r != r}
        # per-M medians and log-log slopes of widths and baselines,
        # recomputed from the records
        medians = checks.medians_per_m(records, "value")
        base = checks.medians_per_m(records, "baseline")
        per_m = sweep.summary["per_m"]
        if not (
            _summary_agrees(medians, [(row["m"], row["median_width"]) for row in per_m])
            and _summary_agrees(base, [(row["m"], row["baseline_median"]) for row in per_m])
            and _fit_agrees(medians, sweep.fit)
            and _fit_agrees(base, sweep.baseline_fit)
        ):
            return everything
        if self.stated and not self.window_holds(medians, base):
            return everything
        for mi, t in self.sample:
            i = mi * cfg.trials + t
            if not self.witness_holds(records[i], cfg, r):
                failed.add(i)
        return failed

    def window_holds(self, medians, base) -> bool:
        """The statistical windows acceptance.py states at this size."""
        return True

    def witness_holds(self, rec, cfg: ExperimentConfig, r: int) -> bool:
        """Re-run one task through the public functions and certify its
        width and baseline.

        The record's seed splits into the ensemble stream (index 0) and the
        signal-and-directions stream (index 1).  The width must be the exit,
        found by bisection on the benchmark's own membership test, along the
        witness's direction (less the program's stated relative pullback),
        and at least the exit along every signed axis, which estimate_width
        always shoots.
        """
        ens = sensing.gen_ensemble(rec.m, cfg.n, QuantizerSpec(cfg.delta), derive_stream(rec.seed, 0))
        stream = Stream(derive_stream(rec.seed, 1))
        signal = sensing.sample_signal(SignalModel(cfg.n, cfg.k), stream)
        codes = sensing.sense(ens, signal).codes
        phi, xi, delta = ens.phi, ens.xi, cfg.delta
        if not np.array_equal(checks.codes_of(phi, xi, delta, signal.x), codes):
            return False
        cell = cellgeom.build_cell(ens, codes, 1.0, signal.support)
        est = cellgeom.estimate_width(cell, signal.x, cfg.directions, stream, r=r)
        w = est.witness
        if est.value != rec.value:
            return False
        if not checks.member(phi, xi, delta, codes, w, r, checks.BALL_TOL):
            return False
        if abs(float(np.linalg.norm(w - signal.x)) - est.value) > 1e-9:
            return False

        def exit_time(d):
            return checks.bisect_exit(phi, xi, delta, codes, signal.x, d, r)

        def tol(t):
            return 1e-9 * max(1.0, t)

        pullback = 1.0 - cellgeom._EXIT_MARGIN
        d_w = _unit(w - signal.x)
        t_w = exit_time(d_w)
        if abs(est.value - t_w * pullback) > tol(t_w):
            return False
        for axis in np.vstack([np.eye(cfg.n), -np.eye(cfg.n)]):
            t_axis = exit_time(axis)
            if est.value < t_axis * pullback - tol(t_axis):
                return False
        for d in [*self.probe_directions, d_w]:
            if r == 0:
                t_prog = cellgeom.ray_exit_strict(cell, signal.x, d)
            else:
                t_prog = cellgeom.ray_exit_relaxed(cell, signal.x, d, r)
            t_bis = t_w if d is d_w else exit_time(d)
            if abs(t_prog - t_bis) > tol(t_bis):
                return False
        # the baseline from the normal equations, apart from lstsq
        target = delta * (codes + 0.5) - xi
        x_ls = np.linalg.solve(phi.T @ phi, phi.T @ target)
        baseline = float(np.linalg.norm(signal.x - x_ls))
        return abs(baseline - rec.baseline) <= 1e-8 * max(1.0, baseline)

    def digest_parts(self, sweep) -> list:
        return [(rec.m, rec.trial, rec.seed, rec.value, rec.baseline) for rec in sweep.records]


def _unit(v: np.ndarray) -> np.ndarray:
    return v / float(np.linalg.norm(v))


def _summary_agrees(recomputed, reported) -> bool:
    return len(recomputed) == len(reported) and all(
        m == rm and rv is not None and checks.close(v, rv)
        for (m, v), (rm, rv) in zip(recomputed, reported)
    )


def _fit_agrees(points, fit) -> bool:
    return fit is not None and checks.close(checks.loglog_slope(points), fit.slope, 1e-9)


class StrictWidths(_Sweeps):
    """C6/C8 unit-ball decay sweep, strict cells, least-squares baseline."""

    name = "strict-widths"
    mode = "grfcq"
    levels = (0,)

    def window_holds(self, medians, base) -> bool:
        # C6: slope window, width below the baseline at the largest M and
        # medians nonincreasing within 5%; C8: the baseline's slope window
        widths = [v for _, v in medians]
        return (
            SLOPE_WINDOW[0] <= checks.loglog_slope(medians) <= SLOPE_WINDOW[1]
            and medians[-1][1] < base[-1][1]
            and all(b <= a * 1.05 for a, b in zip(widths, widths[1:]))
            and BASELINE_SLOPE_WINDOW[0] <= checks.loglog_slope(base) <= BASELINE_SLOPE_WINDOW[1]
        )


class RelaxedLadder(_Sweeps):
    """C10 relaxed cells, r in {0, 2, 4} on matched instances, at 10 trials
    per M instead of C10's 50.

    The full ladder takes about 16 s, so a 20 s run would hold a single
    round, and one slow period of the shared machine then decides run_s
    (one of five runs read 39 s against 16-19 s).  At 10 trials a run holds
    about five rounds.  Tasks are the same size (same M list, directions and
    r), only fewer; the C10 slope window is stated for 50 trials and is not
    checked here.
    """

    name = "relaxed-ladder"
    mode = "relaxed"
    levels = (0, 2, 4)

    @staticmethod
    def trials(size: Size) -> int:
        return size.ladder_trials

    def check_across(self, outputs) -> int:
        # widths are monotone in r, pointwise on matched records
        failed = 0
        for small, big in zip(outputs, outputs[1:]):
            if isinstance(small, Exception) or isinstance(big, Exception):
                continue
            if len(small.records) != len(big.records):
                continue  # already failed by check_step
            failed += sum(1 for a, b in zip(small.records, big.records) if b.value < a.value)
        return failed


# --------------------------------------------------------- sparse recovery ---

class SparseRecovery(Workload):
    """qcs_enumerate over all 2-supports at (M=40, n=10, k=2), and
    pocs_consistent on unit-ball instances at n=8.

    No input depends on the seed.  At the enumeration size random instances
    can make qcs_enumerate raise a false NoConsistentSolutionError when the
    true support needs more POCS cycles than the 200-cycle cap (1 of the
    first 408 drawn), so seed-drawn instances would make the failed share
    depend on the seed.  The enumeration instances are the first ones of the
    enumeration test in tests/test_reconstruct.py, on which enumeration
    succeeds.  POCS cycle counts are heavy-tailed (one solve may take ten
    times the median), so over seeds 1-10 the M-weighted cycles of the 120
    seed-drawn solves ranged from 0.88 to 1.41 million and the round time
    with them; the solves are therefore the ones --seed 0 would draw
    (1.06 million).
    """

    name = "sparse-recovery"
    ENUM_M, ENUM_N, ENUM_K = 40, 10, 2
    POCS_N = 8
    POCS_MASTER = 0

    def __init__(self, seed: int, size: Size = FULL):
        super().__init__(size)
        model = SignalModel.sparse_ball(self.ENUM_N, self.ENUM_K)
        for i in range(size.enum_instances):
            ens_seed, sig_seed = 5000 + i, 6000 + i
            ens = sensing.gen_ensemble(self.ENUM_M, self.ENUM_N, UNIT, ens_seed)
            codes = sensing.sense(ens, sensing.sample_signal(model, Stream(sig_seed))).codes
            self.steps.append(Step(1, self._enumerate(ens, codes), (ens, codes, self.ENUM_K)))
        pocs_seed = derive_stream(self.POCS_MASTER, TAG_POCS)
        model = SignalModel.unit_ball(self.POCS_N)
        for mi, m in enumerate(size.pocs_m_list):
            for j in range(size.pocs_per_m):
                idx = mi * size.pocs_per_m + j
                ens = sensing.gen_ensemble(m, self.POCS_N, UNIT, derive_stream(pocs_seed, 2 * idx))
                codes = sensing.sense(ens, sensing.sample_signal(model, substream(pocs_seed, 2 * idx + 1))).codes
                self.steps.append(Step(1, self._solve(ens, codes), (ens, codes, self.POCS_N)))

    def _enumerate(self, ens, codes):
        return lambda: reconstruct.qcs_enumerate(ens, codes, self.ENUM_K)

    @staticmethod
    def _solve(ens, codes):
        return lambda: reconstruct.pocs_consistent(ens, codes)

    def check_step(self, step, result) -> set[int]:
        ens, codes, k = step.meta
        x = result.x_star
        ok = (
            result.consistent
            and x.shape == (ens.n,)
            and np.count_nonzero(x) <= k
            and float(np.linalg.norm(x)) <= 1.0 + checks.BALL_TOL
            and np.array_equal(checks.codes_of(ens.phi, ens.xi, ens.spec.delta, x), codes)
        )
        return set() if ok else {0}

    def digest_parts(self, result) -> list:
        return [result.x_star, result.iterations, result.consistent]


# --------------------------------------------------------------- proximity ---

class Proximity(Workload):
    """C9 proximity scan, C4 dumbbell grid and bound chain."""

    name = "proximity"
    SCAN = dict(n=3, eps0=0.8, eta=0.1, delta=1.0)
    GRID = [(n, alpha) for n in (2, 4, 8) for alpha in (0.5, 1.0, 2.0, 4.0)]
    CHAIN = [(2, 0.5), (4, 2.0), (8, 4.0)]

    def __init__(self, seed: int, size: Size = FULL):
        super().__init__(size)
        seed = master(seed)
        self.scan_cfg = ExperimentConfig(
            mode="scan",
            trials=size.scan_draws,
            signals=size.scan_signals,
            directions=size.scan_directions,
            seed=derive_stream(seed, TAG_SCAN),
            **self.SCAN,
        )
        self.steps.append(Step(size.scan_draws, self._scan, ("scan",)))
        grid_seed = derive_stream(seed, TAG_GRID)
        for idx, (n, alpha) in enumerate(self.GRID):
            p = np.zeros(n)
            q = np.zeros(n)
            q[0] = alpha
            cfg = buffon.DumbbellConfig(n=n, p=p, q=q, radius=buffon.dumbbell_radius(p, q, n), delta=1.0)
            self.steps.append(Step(1, self._grid(cfg, grid_seed, idx), ("grid", n, alpha, cfg)))
        chain_seed = derive_stream(seed, TAG_CHAIN)
        for j, (n, alpha) in enumerate(self.CHAIN):
            self.steps.append(Step(1, self._chain(n, alpha, chain_seed, j), ("chain", n, alpha, None)))
        self.mixtures = {}  # (n, alpha) -> chi_mixture, filled on first check

    def _scan(self):
        return experiments.proximity_violation_scan(self.scan_cfg, THREADS)

    def _grid(self, cfg, grid_seed, idx):
        return lambda: buffon.estimate_p1(cfg, self.size.throws, substream(grid_seed, idx))

    def _chain(self, n, alpha, chain_seed, j):
        return lambda: buffon.verify_bound_chain(n, alpha, self.size.throws, substream(chain_seed, j))

    def _mixture(self, n, alpha) -> float:
        key = (n, alpha)
        if key not in self.mixtures:
            self.mixtures[key] = checks.chi_mixture(alpha, checks.dumbbell_rho(n), n)
        return self.mixtures[key]

    def _estimate_holds(self, n, alpha, p_hat, throws) -> bool:
        # Monte Carlo agrees with the exact chi-mixture; the mixture sits under
        # the concavity bound, which sits under the single-projection bound
        # (C4: p_hat <= bound + 3 stderr).
        mix = self._mixture(n, alpha)
        sigma = math.sqrt(mix * (1.0 - mix) / throws)
        stderr = math.sqrt(p_hat * (1.0 - p_hat) / throws)
        bound = checks.pair_bound(alpha)
        return (
            abs(p_hat - mix) <= checks.MC_Z * sigma
            and mix <= checks.jensen_bound(alpha) <= bound
            and p_hat <= bound + 3.0 * stderr
        )

    def check_step(self, step, out) -> set[int]:
        kind, *cell = step.meta
        if kind == "scan":
            return self._check_scan(step, out)
        n, alpha, cfg = cell
        if kind == "grid":  # ProbEstimate
            radius = checks.RADIUS_WEIGHT / (4.0 * checks.kappa(n)) * alpha
            ok = (
                checks.close(cfg.radius, radius)
                and out.throws == self.size.throws
                and self._estimate_holds(n, alpha, out.p_hat, out.throws)
            )
            return set() if ok else {0}
        ok = (  # chain: BoundChainReport
            abs(out.mixture - self._mixture(n, alpha)) <= checks.MIXTURE_TOL
            and checks.close(out.jensen_bound, checks.jensen_bound(alpha))
            and checks.close(out.bound, checks.pair_bound(alpha))
            and self._estimate_holds(n, alpha, out.p_hat, self.size.throws)
        )
        return set() if ok else {0}

    def _check_scan(self, step, scan) -> set[int]:
        cfg = self.scan_cfg
        records = scan.records
        if [rec.trial for rec in records] != list(range(cfg.trials)):
            return set(range(step.ops))
        # M from the unit-ball measurement formula at (eps0, eta)
        factor = (4.0 * cfg.delta + 2.0 * cfg.eps0) / cfg.eps0
        m = math.ceil(factor * (cfg.n * math.log(29.0 * math.sqrt(cfg.n) / cfg.eps0) + math.log(1.0 / (2.0 * cfg.eta))))
        failed = {i for i, rec in enumerate(records) if rec.m != m or not (0.0 < rec.value <= 2.0)}
        rate = sum(1 for rec in records if rec.value > cfg.eps0) / cfg.trials
        threshold = cfg.eta + 2.0 * math.sqrt(cfg.eta * (1.0 - cfg.eta) / cfg.trials)
        if scan.m != m or rate != scan.violation_rate or not checks.close(threshold, scan.threshold):
            return set(range(step.ops))
        if self.stated and rate > threshold:  # C9
            return set(range(step.ops))
        return failed

    def digest_parts(self, out) -> list:
        if hasattr(out, "records"):
            return [(rec.trial, rec.seed, rec.value) for rec in out.records]
        if hasattr(out, "mixture"):
            return [(out.p_hat, out.mixture, out.jensen_bound, out.bound, out.ok)]
        return [(out.p_hat, out.throws)]


WORKLOADS = {cls.name: cls for cls in (StrictWidths, RelaxedLadder, SparseRecovery, Proximity)}
