"""Acceptance criteria at their stated (full-tier) sizes and tolerances.

Runs the whole suite once per session and asserts each criterion
separately, printing the one-line verdicts as it goes.
"""

import os
import time
from types import SimpleNamespace

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
