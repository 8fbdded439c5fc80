"""Unit tests for the perfguard comparison logic (pure, no timing).

The expensive collection paths (digests, speed, sweep) run in CI's
perf-smoke job; here we pin the *decision* logic: what counts as digest
drift, a speed regression, a sweep regression and a missed resume floor.
"""

from __future__ import annotations

from repro.utils.perfguard import compare


def _base(**overrides):
    data = {
        "digests": {"4-MIX/dwarn": {"cycles": 1500, "committed": [10, 20]}},
        "speed": {"normalized_score": 100.0},
        "sweep": {"normalized_sweep_secs": 50.0},
    }
    data.update(overrides)
    return data


class TestCompareSweep:
    def test_identical_passes(self):
        assert compare(_base(), _base(), tolerance=0.20) == []

    def test_sweep_within_tolerance_passes(self):
        cur = _base(sweep={"normalized_sweep_secs": 50.0 * 1.35})
        assert compare(_base(), cur, tolerance=0.20) == []  # 2x tol = 40%

    def test_sweep_regression_fails(self):
        cur = _base(sweep={"normalized_sweep_secs": 50.0 * 1.5})
        failures = compare(_base(), cur, tolerance=0.20)
        assert len(failures) == 1
        assert "sweep regression" in failures[0]

    def test_sweep_improvement_passes(self):
        cur = _base(sweep={"normalized_sweep_secs": 10.0})
        assert compare(_base(), cur, tolerance=0.20) == []

    def test_baseline_sweep_tolerance_override(self):
        base = _base(sweep_tolerance=0.05)
        cur = _base(sweep={"normalized_sweep_secs": 50.0 * 1.2})
        failures = compare(base, cur, tolerance=0.20)
        assert len(failures) == 1 and "5%" in failures[0]

    def test_missing_sweep_sections_are_ignored(self):
        # Old baselines (no sweep) and --skip-sweep runs must not fail.
        base_no_sweep = _base()
        del base_no_sweep["sweep"]
        assert compare(base_no_sweep, _base(), tolerance=0.20) == []
        cur_no_sweep = _base()
        del cur_no_sweep["sweep"]
        assert compare(_base(), cur_no_sweep, tolerance=0.20) == []


class TestCompareExisting:
    def test_digest_drift_fails(self):
        cur = _base(digests={"4-MIX/dwarn": {"cycles": 1501, "committed": [10, 20]}})
        failures = compare(_base(), cur, tolerance=0.20)
        assert len(failures) == 1 and "digest drift" in failures[0]

    def test_speed_regression_fails(self):
        cur = _base(speed={"normalized_score": 70.0})
        failures = compare(_base(), cur, tolerance=0.20)
        assert len(failures) == 1 and "speed regression" in failures[0]


def _resume(**overrides):
    data = {
        "resume_speedup": 1.8,
        "checkpoint_cycle": 10_100,
        "total_cycles": 20_200,
        "min_speedup": 1.3,
    }
    data.update(overrides)
    return data


class TestCompareResume:
    def test_speedup_above_floor_passes(self):
        base = _base(resume=_resume())
        cur = _base(resume=_resume(resume_speedup=1.35))
        assert compare(base, cur, tolerance=0.20) == []

    def test_speedup_below_floor_fails(self):
        base = _base(resume=_resume())
        cur = _base(resume=_resume(resume_speedup=1.1))
        failures = compare(base, cur, tolerance=0.20)
        assert len(failures) == 1
        assert "resume speedup" in failures[0] and "1.3x floor" in failures[0]

    def test_baseline_floor_override(self):
        base = _base(resume=_resume(min_speedup=2.0))
        cur = _base(resume=_resume(resume_speedup=1.8))
        failures = compare(base, cur, tolerance=0.20)
        assert len(failures) == 1 and "2.0x floor" in failures[0]

    def test_checkpoint_below_midpoint_fails(self):
        # A capture drifting toward cycle 0 would make the speedup gate
        # vacuous, so the midpoint requirement is checked independently.
        base = _base(resume=_resume())
        cur = _base(resume=_resume(resume_speedup=3.0, checkpoint_cycle=4000))
        failures = compare(base, cur, tolerance=0.20)
        assert len(failures) == 1 and "50%" in failures[0]

    def test_missing_resume_sections_are_ignored(self):
        # Old baselines (no resume section) and --skip-speed runs must pass.
        assert compare(_base(resume=_resume()), _base(), tolerance=0.20) == []
        assert compare(_base(), _base(resume=_resume()), tolerance=0.20) == []
