"""Tests for the deterministic named RNG streams."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.rng import RngStream, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_root_seed_changes_result(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_key_changes_result(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_key_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_in_63_bit_range(self):
        for seed in (0, 1, 2**62, 12345):
            v = derive_seed(seed, "x")
            assert 0 <= v < 2**63

    def test_int_vs_similar_string_keys_differ(self):
        assert derive_seed(1, 5) != derive_seed(1, "5")

    @given(st.integers(min_value=0, max_value=2**62), st.text(max_size=20))
    def test_stable_under_hypothesis(self, seed, key):
        assert derive_seed(seed, key) == derive_seed(seed, key)


class TestRngStream:
    def test_same_keys_same_draws(self):
        a = RngStream(7, "pmu", 3)
        b = RngStream(7, "pmu", 3)
        assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]

    def test_different_keys_different_draws(self):
        a = RngStream(7, "pmu", 3)
        b = RngStream(7, "pmu", 4)
        assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]

    def test_child_independent_of_parent_draws(self):
        parent = RngStream(7, "x")
        child1 = parent.child("c")
        parent.uniform()  # consuming parent draws must not affect children
        child2 = RngStream(7, "x").child("c")
        assert child1.uniform() == child2.uniform()

    def test_lognormal_factor_sigma_zero_is_one(self):
        assert RngStream(1).lognormal_factor(0.0) == 1.0

    def test_lognormal_factor_positive(self):
        s = RngStream(1, "ln")
        assert all(s.lognormal_factor(0.5) > 0 for _ in range(100))

    def test_lognormal_median_near_one(self):
        s = RngStream(1, "ln2")
        draws = [s.lognormal_factor(0.3) for _ in range(2000)]
        assert 0.9 < float(np.median(draws)) < 1.1

    def test_bernoulli_edges(self):
        s = RngStream(1)
        assert s.bernoulli(0.0) is False
        assert s.bernoulli(1.0) is True
        assert s.bernoulli(-0.5) is False
        assert s.bernoulli(1.5) is True

    def test_bernoulli_rate(self):
        s = RngStream(3, "bern")
        hits = sum(s.bernoulli(0.25) for _ in range(4000))
        assert 0.20 < hits / 4000 < 0.30

    def test_integers_range(self):
        s = RngStream(1)
        draws = [s.integers(2, 5) for _ in range(100)]
        assert all(2 <= d < 5 for d in draws)
        assert set(draws) == {2, 3, 4}

    def test_choice(self):
        s = RngStream(1)
        assert s.choice(["x"]) == "x"
        assert s.choice(("a", "b")) in ("a", "b")

    def test_generator_exposed(self):
        s = RngStream(1)
        arr = s.generator().random(10)
        assert arr.shape == (10,)

    def test_uniform_bounds(self):
        s = RngStream(9)
        for _ in range(100):
            v = s.uniform(2.0, 3.0)
            assert 2.0 <= v < 3.0

    def test_normal_params(self):
        s = RngStream(9, "n")
        draws = np.array([s.normal(10.0, 0.1) for _ in range(500)])
        assert 9.8 < draws.mean() < 10.2

    @pytest.mark.parametrize("sigma", [0.05, 0.3])
    def test_vector_lognormal_draw_equals_scalar_draws(self, sigma):
        """The lockstep drain draws a rank's noise factors as one vector
        (``CostModel.noise_columns``), the per-event handler one scalar
        at a time: they must agree bit for bit, and leave the stream in
        the same place.  A SIMD ``exp`` that rounds differently from the
        scalar one fails here."""
        n = 10_000
        vector = RngStream(5, "exec_noise", 3)
        scalar = RngStream(5, "exec_noise", 3)
        drawn = np.exp(vector.generator().normal(0.0, sigma, size=n))
        one_by_one = np.array([scalar.lognormal_factor(sigma) for _ in range(n)])
        assert drawn.tobytes() == one_by_one.tobytes()
        assert vector.lognormal_factor(sigma) == scalar.lognormal_factor(sigma)
