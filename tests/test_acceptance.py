"""Acceptance criteria at their stated (full-tier) sizes and tolerances.

Runs the whole suite once per session and asserts each criterion
separately, printing the one-line verdicts as it goes.
"""

import dataclasses
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from qconsist import acceptance


@pytest.fixture(scope="session")
def full_results():
    threads = min(4, os.cpu_count() or 1)
    results = acceptance.run_all(acceptance.FULL, master=0, out_dir=None, threads=threads)
    return {result.number: result for result in results}


def _check(full_results, number):
    result = full_results[number]
    print(result.line())
    assert result.passed, result.detail
    return result


def test_criterion_01_quantizer_laws(full_results):
    _check(full_results, 1)


def test_criterion_02_dither_error_law(full_results):
    _check(full_results, 2)


def test_criterion_03_classic_buffon_oracle(full_results):
    _check(full_results, 3)


def test_criterion_04_dumbbell_bound_grid(full_results):
    _check(full_results, 4)


def test_criterion_05_kappa_bounds(full_results):
    _check(full_results, 5)


def test_criterion_06_grfcq_decay(full_results):
    result = _check(full_results, 6)
    assert "slope" in result.detail


def test_criterion_07_qcs_decay(full_results):
    _check(full_results, 7)


def test_criterion_08_baseline_contrast(full_results):
    _check(full_results, 8)


def test_criterion_09_proximity_predicate_scan(full_results):
    _check(full_results, 9)


def test_criterion_10_relaxed_cells(full_results):
    _check(full_results, 10)


def test_criterion_11_bias_floor(full_results):
    result = _check(full_results, 11)
    assert "0.25" in result.detail


def test_criterion_12_rho_constants(full_results):
    result = _check(full_results, 12)
    assert "d_rho" in result.detail


def test_criterion_13_determinism(full_results):
    _check(full_results, 13)


def test_budget_overrun_fails_only_at_the_full_tier(monkeypatch):
    def stub(run):
        time.sleep(0.001)
        return True, "stub passed"

    monkeypatch.setattr(acceptance, "CRITERIA", [(1, "stub", 0.0, stub)])
    notes = []
    [full] = acceptance.run_all(acceptance.FULL, progress=notes.append)
    assert not full.passed
    assert full.detail.endswith("exceeded the 0s runtime budget")
    [quick] = acceptance.run_all(acceptance.QUICK)
    assert quick.passed and quick.detail == "stub passed"
    assert notes == ["criterion 1: stub"]


def test_shared_sweep_runs_once_per_call(monkeypatch):
    calls = []

    def fake_sweep(cfg, threads):
        calls.append(cfg.seed)
        return SimpleNamespace(records=[])

    def reads_sweep(run):
        return run.grfcq_sweep.records == [], "read the shared sweep"

    monkeypatch.setattr(acceptance, "decay_sweep", fake_sweep)
    monkeypatch.setattr(acceptance, "CRITERIA", [(6, "a", None, reads_sweep), (8, "b", None, reads_sweep)])
    for master in (0, 1):
        assert all(result.passed for result in acceptance.run_all(acceptance.QUICK, master=master))
    assert len(calls) == 2 and calls[0] != calls[1]


# Each criterion's Monte Carlo budgets at the full tier, in the order its
# callees receive them.
_FULL_BUDGETS = {
    1: [100_000],  # draws
    2: [1_000_000, 1000],  # error samples, noise trials
    3: [1_000_000],  # throws
    4: [100_000] * 12 + [100_000] * 3,  # throws per grid cell, per chain cell
    6: [50, 512],  # trials, directions
    7: [50, 512],
    8: [50, 512],  # C6's sweep
    9: [20, 200, 128],  # draws, signals, directions
    10: [50, 512],  # the first of the r = 0, 2, 4 sweeps
    11: [200],  # trials
}


class _Recorded(Exception):
    """Raised by a stubbed campaign once it has recorded its budget."""


def test_each_budget_is_stated_once_and_quartered_at_the_quick_tier(monkeypatch):
    assert [field.name for field in dataclasses.fields(acceptance.Tier)] == ["name", "divisor"]
    seen = {}

    def note(*budgets):
        seen.setdefault(number, []).extend(budgets)

    def campaign(*fields):
        def stub(cfg, threads=1):
            note(*(getattr(cfg, name) for name in fields))
            raise _Recorded

        return stub

    monkeypatch.setattr(acceptance, "quantization_error", lambda y, xi, spec: note(y.size) or np.zeros_like(y))
    monkeypatch.setattr(acceptance, "noise_power_check", campaign("trials"))
    monkeypatch.setattr(
        acceptance, "estimate_p1", lambda cfg, throws, *_, **__: note(throws) or SimpleNamespace(p_hat=0.0, stderr=0.0)
    )
    monkeypatch.setattr(
        acceptance, "verify_bound_chain", lambda n, alpha, throws, stream: note(throws) or SimpleNamespace(ok=True)
    )
    monkeypatch.setattr(acceptance, "decay_sweep", campaign("trials", "directions"))
    monkeypatch.setattr(acceptance, "proximity_violation_scan", campaign("trials", "signals", "directions"))
    monkeypatch.setattr(acceptance, "bias_experiment", campaign("trials"))
    for tier, divisor in ((acceptance.FULL, 1), (acceptance.QUICK, 4)):
        seen.clear()
        run = acceptance._Run(tier, 0, 1, None)
        for number, _, _, check in acceptance.CRITERIA:
            if number not in _FULL_BUDGETS:
                continue
            try:
                _, detail = check(run)
            except _Recorded:
                continue
            if number == 1:  # C1 draws its budget itself, in 16 equal groups, and reports the draws
                note(int(detail.split()[0]))
        expected = {number: [b // divisor for b in budgets] for number, budgets in _FULL_BUDGETS.items()}
        expected[1] = [16 * (b // 16) for b in expected[1]]
        assert seen == expected


def test_bias_stability_tolerance_scales_with_the_tier(monkeypatch):
    # 0.02 at the full tier's 200 trials, 0.02 * sqrt(4) at the quick tier's 50
    result = SimpleNamespace(records=[], per_m=[{"c": 0.7, "distance": 0.25}] * 2, summary={"c_stability": 0.03})
    monkeypatch.setattr(acceptance, "bias_experiment", lambda cfg, threads: result)
    quick, quick_detail = acceptance.criterion_bias(acceptance._Run(acceptance.QUICK, 0, 1, None))
    full, full_detail = acceptance.criterion_bias(acceptance._Run(acceptance.FULL, 0, 1, None))
    assert quick and "(tol 0.04)" in quick_detail
    assert not full and "(tol 0.02)" in full_detail


def test_dumbbell_grid_names_the_failed_chain_step(monkeypatch):
    monkeypatch.setattr(acceptance, "estimate_p1", lambda *_, **__: SimpleNamespace(p_hat=0.0, stderr=0.0))
    monkeypatch.setattr(
        acceptance,
        "verify_bound_chain",
        lambda n, alpha, throws, stream: SimpleNamespace(ok=n != 4, failed_step=None if n != 4 else "concavity"),
    )
    passed, detail = acceptance.criterion_dumbbell_grid(acceptance._Run(acceptance.QUICK, 0, 1, None))
    assert not passed
    assert detail == "grid failures: []; chain failures: ['(n=4, alpha=2.0): concavity']"
