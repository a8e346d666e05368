"""Unit tests for repro.arch.branch and the two-bit counter oracle."""

import numpy as np
import pytest

from oracle import TwoBitPredictor
from repro.arch.branch import two_bit_mispredict_rate
from repro.errors import ConfigurationError


class TestTwoBitPredictor:
    def test_always_taken_learns(self):
        pred = TwoBitPredictor(initial_state=0)
        for _ in range(5):
            pred.update(True)
        assert pred.predict() is True
        pred.reset = None  # no-op guard against typo'd API
        for _ in range(100):
            assert pred.update(True)

    def test_hysteresis_survives_single_flip(self):
        pred = TwoBitPredictor(initial_state=3)
        pred.update(False)  # one not-taken: state 2, still predicts taken
        assert pred.predict() is True

    def test_two_flips_change_prediction(self):
        pred = TwoBitPredictor(initial_state=3)
        pred.update(False)
        pred.update(False)
        assert pred.predict() is False

    def test_invalid_state(self):
        with pytest.raises(ConfigurationError):
            TwoBitPredictor(initial_state=5)

    def test_mispredict_rate_counter(self):
        pred = TwoBitPredictor(initial_state=0)
        pred.update(True)   # predicted NT, was T: mispredict
        pred.update(False)  # predicted NT, was NT: correct
        assert pred.mispredict_rate == pytest.approx(0.5)


class TestAnalyticMispredictRate:
    def test_degenerate_probs(self):
        assert two_bit_mispredict_rate(0.0) == 0.0
        assert two_bit_mispredict_rate(1.0) == 0.0

    def test_symmetry(self):
        assert two_bit_mispredict_rate(0.3) == pytest.approx(
            two_bit_mispredict_rate(0.7), abs=1e-12
        )

    def test_worst_case_at_half(self):
        rate_half = two_bit_mispredict_rate(0.5)
        assert rate_half == pytest.approx(0.5, abs=1e-9)
        assert two_bit_mispredict_rate(0.9) < rate_half

    def test_out_of_range(self):
        with pytest.raises(ConfigurationError):
            two_bit_mispredict_rate(1.5)

    @pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.8, 0.95])
    def test_matches_functional_simulation(self, p):
        """The stationary rate must match a long two-bit counter simulation."""
        rng = np.random.default_rng(42)
        pred = TwoBitPredictor()
        outcomes = rng.random(200_000) < p
        for taken in outcomes[:1000]:  # warm up to stationarity
            pred.update(bool(taken))
        pred.predictions = pred.mispredictions = 0
        for taken in outcomes[1000:]:
            pred.update(bool(taken))
        assert pred.mispredict_rate == pytest.approx(
            two_bit_mispredict_rate(p), abs=0.01
        )
