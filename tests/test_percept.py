"""Percept layer tests: geometry features, opinions, GMM path."""

import math

import numpy as np
import pytest

from socsim import _kernels
from socsim.mobility import TraceFrame
from socsim.opinions import Opinion, expectation, may_pass
from socsim.percept import (
    ObservedIndex,
    PerceptConfig,
    _likelihood,
    fit_gmm,
    neighbors_within,
    observe,
    observe_block,
    observe_period,
)

from conftest import random_periods


def frame_of(agents):
    """agents: list of (id, x, y, shoulder_angle)."""
    ids = tuple(a[0] for a in agents)
    pos = np.array([[a[1], a[2]] for a in agents], dtype=float)
    ang = np.array([a[3] for a in agents], dtype=float)
    return TraceFrame(0.0, ids, pos, ang)


def facing_pair(d):
    """Two agents d apart on the x axis, facing each other."""
    return frame_of([(1, 0.0, 0.0, 0.0), (2, d, 0.0, math.pi)])


RNG = np.random.default_rng(0)


class TestObserve:
    def test_close_mutually_facing_pair_scores_high(self):
        cfg = PerceptConfig()
        [((i, j), op)] = observe(facing_pair(0.8), 1, cfg, RNG).items()
        assert (i, j) == (1, 2)
        assert expectation(op) >= 0.8
        assert op.uncertainty == cfg.base_uncertainty

    def test_distant_pair_scores_low(self):
        cfg = PerceptConfig(observation_radius=15.0)
        [op] = observe(facing_pair(10.0), 1, cfg, RNG).values()
        assert expectation(op) <= 0.2

    def test_pairs_outside_radius_absent(self):
        frame = frame_of([(1, 0.0, 0.0, 0.0), (2, 3.0, 0.0, math.pi), (3, 30.0, 0.0, 0.0)])
        cfg = PerceptConfig(observation_radius=10.0)
        out = observe(frame, 1, cfg, RNG)
        assert list(out) == [(1, 2)]

    def test_no_self_pairs(self):
        out = observe(facing_pair(1.0), 1, PerceptConfig(), RNG)
        assert all(i != j for i, j in out)

    def test_symmetry_between_observers_without_noise(self):
        frame = frame_of([(1, 0.0, 0.0, 0.3), (2, 1.2, 0.4, 2.0), (3, 2.0, 1.0, 4.0)])
        cfg = PerceptConfig()
        by_1 = observe(frame, 1, cfg, RNG)
        by_3 = observe(frame, 3, cfg, RNG)
        for pair in by_1.keys() & by_3.keys():
            assert by_1[pair] == by_3[pair]

    def test_monotone_in_distance_and_facing(self):
        cfg = PerceptConfig()
        exp_by_distance = []
        for d in (0.5, 1.0, 1.5, 2.5, 4.0):
            [op] = observe(facing_pair(d), 1, cfg, RNG).values()
            exp_by_distance.append(expectation(op))
        assert exp_by_distance == sorted(exp_by_distance, reverse=True)
        exps_by_facing = []
        for ang in (0.0, 0.8, 1.6, 2.4, math.pi):  # agent 2 turns toward agent 1
            frame = frame_of([(1, 0.0, 0.0, 0.0), (2, 1.0, 0.0, ang)])
            [op] = observe(frame, 1, PerceptConfig(), RNG).values()
            exps_by_facing.append(expectation(op))
        assert exps_by_facing == sorted(exps_by_facing)

    def test_opinions_valid_with_noise(self):
        cfg = PerceptConfig(noise_sigma_pos=0.5, noise_sigma_angle=0.3)
        frame = frame_of([(i, float(i), 0.5 * i, 0.7 * i) for i in range(1, 6)])
        for op in observe(frame, 1, cfg, np.random.default_rng(3)).values():
            assert op.is_valid()
            assert op.uncertainty == cfg.base_uncertainty

    def test_noise_changes_features_deterministically(self):
        cfg = PerceptConfig(noise_sigma_pos=0.3)
        a = observe(facing_pair(1.0), 1, cfg, np.random.default_rng(5))
        b = observe(facing_pair(1.0), 1, cfg, np.random.default_rng(5))
        c = observe(facing_pair(1.0), 1, cfg, np.random.default_rng(6))
        assert a == b
        assert a != c

    def test_unknown_observer_rejected(self):
        with pytest.raises(ValueError):
            observe(facing_pair(1.0), 99, PerceptConfig(), RNG)


class TestNeighbors:
    def test_neighbors_within_radius(self):
        frame = frame_of([(1, 0.0, 0.0, 0.0), (2, 3.0, 4.0, 0.0), (3, 30.0, 0.0, 0.0)])
        assert neighbors_within(frame, 1, 10.0) == [(2, 5.0)]

    def test_absent_observer_empty(self):
        assert neighbors_within(facing_pair(1.0), 99, 10.0) == []


def reference_observe(frame, observer, config, rng):
    """One observer at a time, with its own noise draws: the loop that
    ``observe_period`` batches, kept as the reference."""
    oidx = frame.ids.index(observer)
    rel = frame.pos - frame.pos[oidx]
    sel = np.flatnonzero(np.hypot(rel[:, 0], rel[:, 1]) <= config.observation_radius)
    if len(sel) < 2:
        return {}
    pos, ang = frame.pos[sel], frame.angle[sel]
    if config.noise_sigma_pos > 0.0:
        pos = pos + rng.normal(0.0, config.noise_sigma_pos, size=pos.shape)
    if config.noise_sigma_angle > 0.0:
        ang = ang + rng.normal(0.0, config.noise_sigma_angle, size=ang.shape)
    i_idx, j_idx, dist, phi = _kernels.pairwise_features(pos, ang)
    likelihood = _likelihood(dist, phi, config)
    u0 = config.base_uncertainty
    out = {}
    for k in range(len(i_idx)):
        a, b = frame.ids[sel[i_idx[k]]], frame.ids[sel[j_idx[k]]]
        lk = float(likelihood[k])
        op = Opinion(lk * (1.0 - u0), (1.0 - lk) * (1.0 - u0), u0, config.base_rate)
        out[min(a, b), max(a, b)] = op
    return out


def random_frame(rng, n, extent, providers=()):
    """n individuals with shuffled ids, some sharing a position, plus
    provider rows (id, x, y) appended last with angle 0."""
    ids = [int(v) for v in rng.permutation(n) + 1]
    pos = rng.uniform(0.0, extent, size=(n, 2))
    if n >= 4:
        pos[1] = pos[0]  # coincident points: distance 0, phi 1
        pos[3] = pos[2]
    ang = rng.uniform(0.0, 2 * math.pi, size=n)
    ids += [p[0] for p in providers]
    pos = np.vstack([pos] + [np.array([[p[1], p[2]]]) for p in providers])
    ang = np.concatenate([ang, np.zeros(len(providers))])
    return TraceFrame(0.0, tuple(ids), pos, ang)


NOISE = [(0.0, 0.0), (0.4, 0.0), (0.0, 0.3), (0.4, 0.3)]


class TestObservePeriod:
    @pytest.mark.parametrize("sigma_pos,sigma_angle", NOISE)
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_observer_calls(self, seed, sigma_pos, sigma_angle):
        rng = np.random.default_rng(seed)
        # sparse frames leave some observers with fewer than two individuals
        extent = (6.0, 25.0, 60.0)[seed % 3]
        providers = ((200, 3.0, 3.0), (0, 5.0, 1.0)) if seed % 2 else ()
        frame = random_frame(rng, int(rng.integers(1, 14)), extent, providers)
        cfg = PerceptConfig(
            observation_radius=8.0, noise_sigma_pos=sigma_pos, noise_sigma_angle=sigma_angle
        )
        agentless = set(frame.ids[: len(frame.ids) // 4])
        observers = [o for o in sorted(frame.ids) if o not in agentless]
        batched = observe_period(frame, observers, cfg, np.random.default_rng(seed + 100))
        rng_one = np.random.default_rng(seed + 100)
        rng_ref = np.random.default_rng(seed + 100)
        assert list(batched) == observers
        for o in observers:
            index, neighbours, strong = batched[o]
            assert strong == tuple(p for p, op in index.items() if may_pass(op, 0.5, 0.0))
            assert all(i < j for i, j in index)
            # in the same pair order too
            assert list(index.items()) == list(observe(frame, o, cfg, rng_one).items())
            assert list(index.items()) == list(reference_observe(frame, o, cfg, rng_ref).items())
            assert neighbours == neighbors_within(frame, o, cfg.observation_radius)
        # all three consumed exactly the same noise
        follow = np.random.default_rng(seed + 100)
        observe_period(frame, observers, cfg, follow)
        assert follow.random() == rng_one.random() == rng_ref.random()

    def test_gmm_matches_per_observer_calls(self):
        model = fit_gmm(TestGmm().make_labeled(seed=2), seed=3)
        cfg = PerceptConfig(model="gmm", gmm=model, noise_sigma_pos=0.3, noise_sigma_angle=0.2)
        frame = random_frame(np.random.default_rng(9), 12, 10.0)
        observers = sorted(frame.ids)
        batched = observe_period(frame, observers, cfg, np.random.default_rng(1))
        rng_ref = np.random.default_rng(1)
        for o in observers:
            reference = reference_observe(frame, o, cfg, rng_ref)
            assert list(batched[o][0].items()) == list(reference.items())

    def test_observer_seeing_nobody_draws_nothing(self):
        frame = frame_of([(1, 0.0, 0.0, 0.0), (2, 50.0, 0.0, 0.0), (3, 51.0, 0.0, 1.0)])
        cfg = PerceptConfig(noise_sigma_pos=0.5, noise_sigma_angle=0.5)
        rng = np.random.default_rng(4)
        out = observe_period(frame, [1], cfg, rng)
        assert out == {1: ({}, [], ())}
        assert rng.random() == np.random.default_rng(4).random()

    def test_coincident_points_face_each_other(self):
        frame = frame_of([(1, 2.0, 2.0, 0.0), (2, 2.0, 2.0, 2.0)])
        [op] = observe_period(frame, [1, 2], PerceptConfig(), RNG)[2][0].values()
        expected = _likelihood(np.array([0.0]), np.array([1.0]), PerceptConfig())[0]
        assert op.belief == expected * (1.0 - PerceptConfig().base_uncertainty)

    # at u_min 1 every opinion is vacuous, its expectation exactly the threshold 0.2
    @pytest.mark.parametrize("threshold,u_min", [(0.5, 0.0), (0.3, 0.2), (0.6, 0.3), (0.2, 1.0)])
    @pytest.mark.parametrize("base_uncertainty", [0.1, 0.6, 1.0])
    def test_strong_pairs_match_scalar_rule(self, threshold, u_min, base_uncertainty):
        # the numpy mask gives what opinions.may_pass gives pair by pair,
        # with and without an uncertainty floor above the percept's own
        cfg = PerceptConfig(base_uncertainty=base_uncertainty, noise_sigma_pos=0.3)
        frame = random_frame(np.random.default_rng(5), 12, 6.0)
        observers = sorted(frame.ids)
        out = observe_period(frame, observers, cfg, np.random.default_rng(2), threshold, u_min)
        for index, _, strong in out.values():
            assert strong == tuple(p for p, op in index.items() if may_pass(op, threshold, u_min))

    def test_no_observers(self):
        assert observe_period(facing_pair(1.0), [], PerceptConfig(), RNG) == {}

    def test_absent_observer_rejected(self):
        with pytest.raises(ValueError):
            observe_period(facing_pair(1.0), [1, 99], PerceptConfig(), RNG)


class TestObserveBlock:
    @staticmethod
    def drawn(seed):
        rng = np.random.default_rng(seed)
        return random_periods(rng, int(rng.integers(1, 12)))

    @pytest.mark.parametrize("sigma_pos,sigma_angle", NOISE)
    @pytest.mark.parametrize("seed", range(8))
    def test_block_equals_one_period_calls(self, seed, sigma_pos, sigma_angle):
        frames, observers = self.drawn(seed)
        cfg = PerceptConfig(
            observation_radius=5.0, noise_sigma_pos=sigma_pos, noise_sigma_angle=sigma_angle
        )
        threshold, u_min = (0.5, 0.0) if seed % 2 else (0.3, 0.2)
        block_rng = np.random.default_rng(seed + 100)
        block = observe_block(frames, observers, cfg, block_rng, threshold, u_min, 7.0)
        period_rng = np.random.default_rng(seed + 100)
        assert len(block) == len(frames)
        for frame, period_observers, (percept, _) in zip(frames, observers, block):
            single = observe_period(frame, period_observers, cfg, period_rng, threshold, u_min)
            assert list(percept) == list(single) == period_observers
            for o in period_observers:
                index, neighbours, strong = percept[o]
                one, one_neighbours, one_strong = single[o]
                # the same pairs in the same order, and the same opinions
                assert list(index.items()) == list(one.items())
                assert neighbours == one_neighbours
                assert strong == one_strong
        # the block drew exactly the noise of the one-period calls
        assert block_rng.bit_generator.state == period_rng.bit_generator.state

    def test_drawn_periods_hold_the_edge_inputs(self):
        # over the seeds above: id sets that change between frames, a low-id
        # provider's column last, agentless columns, observers that see fewer
        # than two individuals, and frames without observers
        drawn = [self.drawn(seed) for seed in range(8)]
        frames = [f for fs, _ in drawn for f in fs]
        observers = [o for _, os in drawn for o in os]
        assert len({f.ids for f in frames}) > len(frames) // 2
        assert any(f.ids[-1] == 0 and len(f.ids) > 1 for f in frames)
        assert any(set(f.ids) - set(o) for f, o in zip(frames, observers))
        assert any(not o for o in observers)
        percepts = observe_block(frames, observers, PerceptConfig(observation_radius=5.0), RNG)
        assert any(len(i) == 0 for p, _ in percepts for i, _, _ in p.values())

    def test_observer_rows_come_from_their_own_frame(self):
        # the same ids at other places in the next frame
        first = frame_of([(1, 0.0, 0.0, 0.0), (2, 1.0, 0.0, math.pi)])
        second = frame_of([(2, 40.0, 0.0, 0.0), (1, 0.0, 0.0, 0.0)])
        (near, near_range), (far, far_range) = observe_block(
            [first, second], [[1, 2], [1, 2]], PerceptConfig(), RNG, comm_range=25.0
        )
        assert near[1][1] == [(2, 1.0)] and near_range == {1: (2,), 2: (1,)}
        assert far[1][1] == [] and far_range == {1: (), 2: ()}
        assert len(near[1][0]) == 1 and len(far[1][0]) == 0

    def test_absent_observer_rejected_in_any_period(self):
        with pytest.raises(ValueError, match="observer 3 not present in frame at t=0.0"):
            observe_block([facing_pair(1.0)] * 2, [[1, 2], [1, 3]], PerceptConfig(), RNG)


class TestObservedIndex:
    @pytest.mark.parametrize("sigma_pos,sigma_angle", NOISE)
    @pytest.mark.parametrize("seed", range(6))
    def test_unbuilt_reads_match_the_built_dict(self, seed, sigma_pos, sigma_angle):
        rng = np.random.default_rng(seed)
        extent = (6.0, 25.0, 60.0)[seed % 3]
        providers = ((200, 3.0, 3.0), (0, 5.0, 1.0)) if seed % 2 else ()
        frame = random_frame(rng, int(rng.integers(1, 14)), extent, providers)
        cfg = PerceptConfig(
            observation_radius=8.0, noise_sigma_pos=sigma_pos, noise_sigma_angle=sigma_angle
        )
        observers = sorted(frame.ids)
        out = observe_period(frame, observers, cfg, np.random.default_rng(seed))
        indices = [index for index, _, _ in out.values()]
        ids = [*frame.ids, 999]  # 999 is seen by nobody
        pairs = [(a, b) for a in ids for b in ids]
        # membership, size, truth and inclusion, read before any index is built
        contains = [[p in index for p in pairs] for index in indices]
        sizes = [(len(index), bool(index)) for index in indices]
        included = [[a.keys() <= b.keys() for b in indices] for a in indices]
        assert not any(index.is_built for index in indices)
        built = [dict(index.items()) for index in indices]
        assert all(isinstance(index, ObservedIndex) and index.is_built for index in indices)
        for index, plain, found, size in zip(indices, built, contains, sizes):
            assert found == [p in plain for p in pairs]
            assert size == (len(plain), bool(plain))
            assert index == plain and list(index) == list(plain)
        assert included == [[a.keys() <= b.keys() for b in built] for a in built]
        # a built index's dict keeps the rule, against built and unbuilt indices
        fresh = [index for index, _, _ in observe_period(frame, observers, cfg, rng).values()]
        assert included == [
            [a.as_dict().keys() <= b.keys() for b in fresh] for a in indices
        ]
        assert not any(index.is_built for index in fresh)

    def test_built_once(self):
        index = observe(facing_pair(1.0), 1, PerceptConfig(), RNG)
        assert not index.is_built
        assert index[1, 2] is index.as_dict()[1, 2]
        assert index.as_dict() is index.as_dict()


class TestConfig:
    def test_invalid_uncertainty(self):
        with pytest.raises(ValueError):
            PerceptConfig(base_uncertainty=0.0)

    def test_gmm_requires_model(self):
        with pytest.raises(ValueError):
            PerceptConfig(model="gmm")

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            PerceptConfig(model="nearest")

    @pytest.mark.parametrize("name", ["distance_midpoint", "distance_steepness"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_likelihood_shape_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            PerceptConfig(**{name: value})

    @pytest.mark.parametrize("value", [0.0, math.nan])
    def test_observation_radius_must_be_positive(self, value):
        with pytest.raises(ValueError, match="observation_radius must be positive"):
            PerceptConfig(observation_radius=value)

    @pytest.mark.parametrize("name", ["noise_sigma_pos", "noise_sigma_angle", "facing_weight"])
    @pytest.mark.parametrize("value", [-0.5, -1e-12, math.nan, math.inf])
    def test_negative_or_non_finite_noise_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be non-negative and finite"):
            PerceptConfig(**{name: value})
        PerceptConfig(**{name: 0.0})


def blobs(rng, n, center, spread=0.08):
    return rng.normal(center, spread, size=(n, 2))


class TestGmm:
    def make_labeled(self, seed=0, n=120):
        rng = np.random.default_rng(seed)
        pos = blobs(rng, n, (0.8, 0.9))  # interacting: close + facing
        neg = blobs(rng, n, (4.0, 0.3))  # apart + averted
        labeled = [(float(d), float(p), 1) for d, p in pos]
        labeled += [(float(d), float(p), 0) for d, p in neg]
        return labeled

    def test_separated_blobs_high_accuracy(self):
        labeled = self.make_labeled()
        model = fit_gmm(labeled, seed=1)
        correct = 0
        for d, phi, label in labeled:
            p = float(model.posterior(np.array([d]), np.array([phi]))[0])
            correct += (p >= 0.5) == bool(label)
        assert correct / len(labeled) >= 0.95

    def test_identical_features_posterior_near_prior(self):
        rng = np.random.default_rng(2)
        shared = blobs(rng, 90, (1.5, 0.5))
        labeled = [(float(d), float(p), 1) for d, p in shared[:30]]
        labeled += [(float(d), float(p), 0) for d, p in shared[30:]]
        model = fit_gmm(labeled, seed=3)
        post = model.posterior(np.array([1.5]), np.array([0.5]))
        assert float(post[0]) == pytest.approx(model.class_priors[1], abs=0.15)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_gmm([(1.0, 0.5, 0), (2.0, 0.2, 1)])

    def test_deterministic_given_seed(self):
        labeled = self.make_labeled(seed=5)
        m1 = fit_gmm(labeled, seed=7)
        m2 = fit_gmm(labeled, seed=7)
        for field in ("means", "covariances", "weights"):
            assert all(map(np.array_equal, getattr(m1, field), getattr(m2, field)))
        assert m1.class_priors == m2.class_priors

    def test_gmm_percept_path(self):
        model = fit_gmm(self.make_labeled(), seed=1)
        cfg = PerceptConfig(model="gmm", gmm=model)
        [op] = observe(facing_pair(0.8), 1, cfg, RNG).values()
        assert expectation(op) > 0.6
        cfg = PerceptConfig(model="gmm", gmm=model, observation_radius=8.0)
        [op] = observe(facing_pair(6.0), 1, cfg, RNG).values()
        assert expectation(op) < 0.4
