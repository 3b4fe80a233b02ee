"""Unit tests for the Poisson fault model and injector."""

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultModel


class TestFaultModel:
    def test_rates(self):
        m = FaultModel(alpha=0.25, memory_words=1000)
        assert m.word_rate == pytest.approx(0.25 / 1000)
        assert m.rate == pytest.approx(0.25)
        assert m.normalized_mtbf == pytest.approx(4.0)

    def test_chunk_success_probability(self):
        m = FaultModel(alpha=0.1, memory_words=100)
        assert m.chunk_success_probability(1.0) == pytest.approx(np.exp(-0.1))
        assert m.chunk_success_probability(5.0) == pytest.approx(np.exp(-0.5))

    def test_mean_strikes_matches_alpha(self, rng):
        m = FaultModel(alpha=0.5, memory_words=100)
        inj = FaultInjector(m, rng=rng)
        inj.register("a", np.zeros(100))
        samples = [len(inj.sample_strikes()) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(0.5, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultModel(alpha=0.0, memory_words=10)
        with pytest.raises(ValueError):
            FaultModel(alpha=0.1, memory_words=0)


class TestInjector:
    @pytest.fixture
    def injector(self):
        m = FaultModel(alpha=0.5, memory_words=30)
        inj = FaultInjector(m, rng=0)
        inj.register("a", np.zeros(10))
        inj.register("b", np.zeros(20, dtype=np.int64))
        return inj

    def test_registry(self, injector):
        strikes = injector.sample_strikes(n_strikes=200)
        assert {name for name, _, _ in strikes} == {"a", "b"}

    def test_register_rejects_bad_dtype(self, injector):
        with pytest.raises(TypeError):
            injector.register("c", np.zeros(5, dtype=np.float32))

    def test_sample_does_not_apply(self, injector):
        strikes = injector.sample_strikes(n_strikes=5)
        assert len(strikes) == 5
        assert injector.records == []

    def test_apply_strike_mutates_and_records(self, injector):
        rec = injector.apply_strike(3, ("a", 2, 63))
        assert rec.iteration == 3
        assert rec.target == "a"
        assert rec.old_value == 0.0
        assert rec.new_value != 0.0 or rec.new_value == -0.0
        assert len(injector.records) == 1

    def test_revert_restores(self, injector):
        rec = injector.apply_strike(0, ("b", 5, 10))
        injector.revert(rec)
        # access the registered array through a fresh strike to confirm
        strikes = injector.sample_strikes(n_strikes=0)
        assert strikes == []
        assert injector.targets.arrays["b"][5] == 0

    def test_inject_iteration_deterministic(self):
        m = FaultModel(alpha=0.5, memory_words=30)
        arrays = [np.zeros(30), np.zeros(30)]
        recs = []
        for arr in arrays:
            inj = FaultInjector(m, rng=42)
            inj.register("a", arr)
            applied = [inj.apply_strike(0, s) for s in inj.sample_strikes(n_strikes=4)]
            recs.append([(r.target, r.position, r.bit) for r in applied])
        assert recs[0] == recs[1]
        np.testing.assert_array_equal(arrays[0], arrays[1])

    def test_strike_distribution_proportional_to_size(self):
        m = FaultModel(alpha=1.0, memory_words=1000)
        inj = FaultInjector(m, rng=7)
        inj.register("small", np.zeros(100))
        inj.register("large", np.zeros(900))
        strikes = inj.sample_strikes(n_strikes=3000)
        frac_large = sum(1 for s in strikes if s[0] == "large") / 3000
        assert frac_large == pytest.approx(0.9, abs=0.03)

    def test_no_targets_no_strikes(self):
        m = FaultModel(alpha=1.0, memory_words=10)
        inj = FaultInjector(m, rng=0)
        assert inj.sample_strikes(n_strikes=3) == []
