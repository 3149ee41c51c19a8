"""Percept layer tests: geometry features, opinions, GMM path."""

import math

import numpy as np
import pytest

from socsim import _kernels
from socsim.mobility import TraceFrame
from socsim.opinions import Opinion, expectation
from socsim.percept import (
    GmmModel,
    PerceptConfig,
    _likelihood,
    fit_gmm,
    neighbors_within,
    observe,
    observe_period,
)


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
        [(i, j, op)] = observe(facing_pair(0.8), 1, cfg, RNG)
        assert (i, j) == (1, 2)
        assert expectation(op) >= 0.8
        assert op.uncertainty == cfg.base_uncertainty

    def test_distant_pair_scores_low(self):
        cfg = PerceptConfig(observation_radius=15.0)
        [(_, _, op)] = observe(facing_pair(10.0), 1, cfg, RNG)
        assert expectation(op) <= 0.2

    def test_pairs_outside_radius_absent(self):
        frame = frame_of([(1, 0.0, 0.0, 0.0), (2, 3.0, 0.0, math.pi), (3, 30.0, 0.0, 0.0)])
        cfg = PerceptConfig(observation_radius=10.0)
        out = observe(frame, 1, cfg, RNG)
        assert [(i, j) for i, j, _ in out] == [(1, 2)]

    def test_no_self_pairs(self):
        out = observe(facing_pair(1.0), 1, PerceptConfig(), RNG)
        assert all(i != j for i, j, _ in out)

    def test_symmetry_between_observers_without_noise(self):
        frame = frame_of([(1, 0.0, 0.0, 0.3), (2, 1.2, 0.4, 2.0), (3, 2.0, 1.0, 4.0)])
        cfg = PerceptConfig()
        by_1 = {(i, j): op for i, j, op in observe(frame, 1, cfg, RNG)}
        by_3 = {(i, j): op for i, j, op in observe(frame, 3, cfg, RNG)}
        for pair in by_1.keys() & by_3.keys():
            assert by_1[pair] == by_3[pair]

    def test_monotone_in_distance_and_facing(self):
        cfg = PerceptConfig()
        exp_by_distance = []
        for d in (0.5, 1.0, 1.5, 2.5, 4.0):
            [(_, _, op)] = observe(facing_pair(d), 1, cfg, RNG)
            exp_by_distance.append(expectation(op))
        assert exp_by_distance == sorted(exp_by_distance, reverse=True)
        exps_by_facing = []
        for ang in (0.0, 0.8, 1.6, 2.4, math.pi):  # agent 2 turns toward agent 1
            frame = frame_of([(1, 0.0, 0.0, 0.0), (2, 1.0, 0.0, ang)])
            [(_, _, op)] = observe(frame, 1, PerceptConfig(), RNG)
            exps_by_facing.append(expectation(op))
        assert exps_by_facing == sorted(exps_by_facing)

    def test_opinions_valid_with_noise(self):
        cfg = PerceptConfig(noise_sigma_pos=0.5, noise_sigma_angle=0.3)
        frame = frame_of([(i, float(i), 0.5 * i, 0.7 * i) for i in range(1, 6)])
        for _, _, op in observe(frame, 1, cfg, np.random.default_rng(3)):
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
        return []
    pos, ang = frame.pos[sel], frame.angle[sel]
    if config.noise_sigma_pos > 0.0:
        pos = pos + rng.normal(0.0, config.noise_sigma_pos, size=pos.shape)
    if config.noise_sigma_angle > 0.0:
        ang = ang + rng.normal(0.0, config.noise_sigma_angle, size=ang.shape)
    i_idx, j_idx, dist, phi = _kernels.pairwise_features(pos, ang)
    likelihood = _likelihood(dist, phi, config)
    u0 = config.base_uncertainty
    out = []
    for k in range(len(i_idx)):
        a, b = frame.ids[sel[i_idx[k]]], frame.ids[sel[j_idx[k]]]
        lk = float(likelihood[k])
        op = Opinion(lk * (1.0 - u0), (1.0 - lk) * (1.0 - u0), u0, config.base_rate)
        out.append((min(a, b), max(a, b), op))
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
            opinions, neighbours = batched[o]
            assert opinions == observe(frame, o, cfg, rng_one)
            assert opinions == reference_observe(frame, o, cfg, rng_ref)
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
            assert batched[o][0] == reference_observe(frame, o, cfg, rng_ref)

    def test_observer_seeing_nobody_draws_nothing(self):
        frame = frame_of([(1, 0.0, 0.0, 0.0), (2, 50.0, 0.0, 0.0), (3, 51.0, 0.0, 1.0)])
        cfg = PerceptConfig(noise_sigma_pos=0.5, noise_sigma_angle=0.5)
        rng = np.random.default_rng(4)
        out = observe_period(frame, [1], cfg, rng)
        assert out == {1: ([], [])}
        assert rng.random() == np.random.default_rng(4).random()

    def test_coincident_points_face_each_other(self):
        frame = frame_of([(1, 2.0, 2.0, 0.0), (2, 2.0, 2.0, 2.0)])
        [(_, _, op)] = observe_period(frame, [1, 2], PerceptConfig(), RNG)[2][0]
        expected = _likelihood(np.array([0.0]), np.array([1.0]), PerceptConfig())[0]
        assert op.belief == expected * (1.0 - PerceptConfig().base_uncertainty)

    def test_no_observers(self):
        assert observe_period(facing_pair(1.0), [], PerceptConfig(), RNG) == {}

    def test_absent_observer_rejected(self):
        with pytest.raises(ValueError):
            observe_period(facing_pair(1.0), [1, 99], PerceptConfig(), RNG)


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
        assert m1.to_json() == m2.to_json()

    def test_json_round_trip(self):
        model = fit_gmm(self.make_labeled(), seed=1)
        restored = GmmModel.from_json(model.to_json())
        x = np.array([1.0, 2.0])
        phi = np.array([0.9, 0.1])
        assert np.allclose(model.posterior(x, phi), restored.posterior(x, phi))

    def test_gmm_percept_path(self):
        model = fit_gmm(self.make_labeled(), seed=1)
        cfg = PerceptConfig(model="gmm", gmm=model)
        [(_, _, op)] = observe(facing_pair(0.8), 1, cfg, RNG)
        assert expectation(op) > 0.6
        [(_, _, op)] = observe(facing_pair(6.0), 1, PerceptConfig(model="gmm", gmm=model, observation_radius=8.0), RNG)
        assert expectation(op) < 0.4
