"""Tests for model fitting (Fig. 6 reproduction machinery)."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.degradation.fitting import (
    ForceFit,
    adjusted_r2,
    fit_capacitance_slope,
    fit_decay_rate,
    fit_force_curve,
)
from repro.degradation.model import DegradationParams


class TestAdjustedR2:
    def test_perfect_fit(self):
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert adjusted_r2(y, y, n_params=1) == pytest.approx(1.0)

    def test_penalizes_parameters(self):
        y = np.array([1.0, 2.1, 2.9, 4.2, 5.0, 6.1])
        pred = np.array([1.1, 2.0, 3.0, 4.0, 5.1, 6.0])
        assert adjusted_r2(y, pred, 2) < adjusted_r2(y, pred, 1)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            adjusted_r2(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            adjusted_r2(np.ones(5), np.ones(4), 1)


class TestDecayRateFit:
    def test_recovers_exact_rate(self):
        n = np.arange(0, 1000, 50, dtype=float)
        rate_true = 2e-3
        force = np.exp(-rate_true * n)
        rate, r2 = fit_decay_rate(n, force)
        assert rate == pytest.approx(rate_true, rel=1e-9)
        assert r2 == pytest.approx(1.0)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(0)
        n = np.arange(0, 1000, 25, dtype=float)
        force = np.exp(-1.5e-3 * n) * (1 + rng.normal(0, 0.02, n.size))
        rate, r2 = fit_decay_rate(n, force)
        assert rate == pytest.approx(1.5e-3, rel=0.1)
        assert r2 > 0.9

    def test_rejects_all_nonpositive(self):
        with pytest.raises(ValueError):
            fit_decay_rate(np.arange(4.0), np.array([-1.0, 0.0, -2.0, 0.0]))


class TestForceCurveFit:
    def test_recovers_paper_scale_constants(self):
        params = DegradationParams(tau=0.556, c=822.7)
        n = np.arange(0, 1600, 80, dtype=float)
        force = np.asarray(params.relative_force(n))
        fit = fit_force_curve(n, force, c_reference=800.0)
        # (tau, c) individually sit on an identifiability ridge; the decay
        # rate is the physical quantity and must match exactly.
        expected_rate = -2 * np.log(0.556) / 822.7
        assert fit.decay_rate == pytest.approx(expected_rate, rel=1e-3)
        assert fit.r2_adjusted > 0.99

    def test_fit_quality_reported_on_linear_scale(self):
        params = DegradationParams(tau=0.53, c=788.4)
        rng = np.random.default_rng(3)
        n = np.arange(0, 1600, 80, dtype=float)
        force = np.asarray(params.relative_force(n)) * (
            1 + rng.normal(0, 0.03, n.size)
        )
        fit = fit_force_curve(n, force)
        assert fit.r2_adjusted > 0.94  # the paper's bar for all curves

    def test_prediction_matches_model(self):
        fit = ForceFit(tau=0.6, c=500.0, r2_adjusted=1.0)
        n = np.array([0.0, 250.0, 500.0])
        np.testing.assert_allclose(fit.predict(n), [1.0, 0.6, 0.36])

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_force_curve(np.arange(3.0), np.ones(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_force_curve(np.arange(10.0), np.ones(9))


class TestCapacitanceSlope:
    def test_exact_linear(self):
        n = np.arange(0, 500, 50, dtype=float)
        cap = 4e-12 + 1e-16 * n
        slope, r2 = fit_capacitance_slope(n, cap)
        assert slope == pytest.approx(1e-16, rel=1e-6)
        assert r2 == pytest.approx(1.0)


def test_run_path_does_not_import_scipy_optimize():
    """Only fitting needs scipy.optimize; the run path must not pay for it."""
    code = (
        "import sys\n"
        "import repro.cli, repro.bioassay.planner, repro.biochip.simulator\n"
        "import repro.core.baseline, repro.core.scheduler\n"
        "import repro.core.synthesis, repro.modelcheck.batch, repro.engine\n"
        "import repro.degradation\n"
        "sys.exit('scipy.optimize' in sys.modules)\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env)
    assert proc.returncode == 0, "the run path imported scipy.optimize"
