"""Unit, oracle and property tests for the partition metrics."""

import numpy as np
import pytest

from socsim.metrics import (
    Partition,
    UniverseMismatchError,
    adjusted_rand_index,
    jaccard_index,
    pair_counts,
    rand_index,
    series_summary,
)

from conftest import brute_force_pair_counts, random_partition


def singletons(universe) -> Partition:
    """The partition of ``universe`` into one block per agent."""
    return Partition([{a} for a in universe])


class TestPartition:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Partition([{1, 2}, {2, 3}])

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            Partition([{1}, set()])

    def test_labels_round_trip(self):
        assert Partition([{1, 2}, {3}]).labels() == {1: 0, 2: 0, 3: 1}

    def test_restricted(self):
        p = Partition([{1, 2, 3}, {4}])
        assert p.restricted({1, 2, 4}) == Partition([{1, 2}, {4}])


class TestPairCounts:
    def test_identical(self):
        p = Partition([{1, 2}, {3}])
        assert pair_counts(p, p) == (1, 0, 0, 2)

    def test_crossed(self):
        p = Partition([{1, 2}, {3}])
        q = Partition([{1}, {2, 3}])
        assert pair_counts(p, q) == (0, 1, 1, 1)

    def test_all_singletons(self):
        p = singletons(range(5))
        assert pair_counts(p, p) == (0, 0, 0, 10)

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            pair_counts(Partition([{1}]), Partition([{2}]))

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            p = random_partition(rng, n)
            q = random_partition(rng, n)
            assert pair_counts(Partition(p), Partition(q)) == brute_force_pair_counts(p, q)


class TestRandIndex:
    def test_identical_is_one(self):
        p = Partition([{1, 2, 3}, {4}])
        assert rand_index(p, p) == 1.0

    def test_crossed_pair(self):
        p = Partition([{1, 2}, {3}])
        q = Partition([{1}, {2, 3}])
        assert rand_index(p, q) == pytest.approx(1 / 3)

    def test_single_agent_defined_as_one(self):
        p = Partition([{1}])
        assert rand_index(p, p) == 1.0

    def test_singleton_padding_inflates_rand_not_jaccard(self):
        # correctly-singleton agents drive the Rand index toward 1 while
        # the Jaccard index ignores them entirely
        p = Partition([{0, 1}, {2, 3}])
        q = Partition([{0, 2}, {1, 3}])
        prev_rand = rand_index(p, q)
        base_jaccard = jaccard_index(p, q)
        for k in (4, 12, 40):
            extra = [{i} for i in range(4, 4 + k)]
            pk = Partition([{0, 1}, {2, 3}, *extra])
            qk = Partition([{0, 2}, {1, 3}, *extra])
            assert rand_index(pk, qk) > prev_rand
            prev_rand = rand_index(pk, qk)
            assert jaccard_index(pk, qk) == base_jaccard


class TestAdjustedRandIndex:
    def test_identical_is_one(self):
        p = Partition([{1, 2}, {3, 4, 5}])
        assert adjusted_rand_index(p, p) == 1.0

    def test_crossed_pair_value(self):
        p = Partition([{1, 2}, {3}])
        q = Partition([{1}, {2, 3}])
        assert adjusted_rand_index(p, q) == pytest.approx(-0.5)

    def test_all_singletons_degenerate_one(self):
        p = singletons(range(6))
        assert adjusted_rand_index(p, p) == 1.0

    def test_one_iff_identical(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            p = Partition(random_partition(rng, n))
            q = Partition(random_partition(rng, n))
            if adjusted_rand_index(p, q) == 1.0:
                assert p == q
            if p == q:
                assert adjusted_rand_index(p, q) == 1.0

    def test_independent_partitions_center_on_zero(self):
        rng = np.random.default_rng(99)
        values = []
        for _ in range(300):
            p = Partition(random_partition(rng, 50, max_blocks=8))
            q = Partition(random_partition(rng, 50, max_blocks=8))
            values.append(adjusted_rand_index(p, q))
        assert abs(float(np.mean(values))) < 0.02


class TestJaccardIndex:
    def test_identical_with_pairs(self):
        p = Partition([{1, 2}, {3}])
        assert jaccard_index(p, p) == 1.0

    def test_disjoint_pairings(self):
        p = Partition([{1, 2}, {3}])
        q = Partition([{1}, {2, 3}])
        assert jaccard_index(p, q) == 0.0

    def test_all_singletons_degenerate_one(self):
        p = singletons(range(4))
        assert jaccard_index(p, p) == 1.0


class TestSeriesSummary:
    def test_constant(self):
        mean, std = series_summary([0.8, 0.8, 0.8])
        assert mean == pytest.approx(0.8)
        assert std == pytest.approx(0.0, abs=1e-12)

    def test_two_values_population_std(self):
        mean, std = series_summary([0.0, 1.0])
        assert mean == 0.5
        assert std == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            series_summary([])


def test_indices_against_brute_force_values():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        blocks_p = random_partition(rng, n)
        blocks_q = random_partition(rng, n)
        p, q = Partition(blocks_p), Partition(blocks_q)
        n11, n10, n01, n00 = brute_force_pair_counts(blocks_p, blocks_q)
        total = n11 + n10 + n01 + n00
        assert rand_index(p, q) == (n11 + n00) / total
        if n11 + n10 + n01:
            assert jaccard_index(p, q) == n11 / (n11 + n10 + n01)
        expected = (n11 + n10) * (n11 + n01) / total
        max_index = 0.5 * ((n11 + n10) + (n11 + n01))
        if max_index != expected:
            oracle_ari = (n11 - expected) / (max_index - expected)
            assert adjusted_rand_index(p, q) == pytest.approx(oracle_ari, abs=1e-12)
