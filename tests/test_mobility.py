"""Mobility generator and force-model tests."""

import math

import numpy as np
import pytest

from socsim.mobility import MobilityConfig, force_step, generate

from conftest import equilibrium_pair_separation


def potential_energy(members: np.ndarray, center: np.ndarray, config: MobilityConfig) -> float:
    """Potential matching the force law (directed two-nearest-neighbor
    repulsion edges); used to check settling behaviour."""
    pos = np.asarray(members, dtype=float)
    m = pos.shape[0]
    diff = pos - np.asarray(center)[None, :]
    energy = 0.5 * config.force_k_center * float(np.sum(diff * diff))
    if m >= 2:
        delta = pos[:, None, :] - pos[None, :, :]
        d = np.hypot(delta[..., 0], delta[..., 1])
        np.fill_diagonal(d, np.inf)
        n_nb = min(2, m - 1)
        nearest = np.argsort(d, axis=1)[:, :n_nb]
        rows = np.arange(m)[:, None]
        energy -= config.force_k_repel * float(np.sum(np.log(np.maximum(d[rows, nearest], 0.01))))
    return energy


class TestGenerate:
    def test_single_agent_all_singletons(self):
        cfg = MobilityConfig(n_agents=1, seed=0)
        frames, truth = generate(cfg, duration=30.0, dt=0.5)
        assert all(blocks == (frozenset({0}),) for blocks in truth)

    def test_truth_frames_share_blocks(self):
        cfg = MobilityConfig(n_agents=6, seed=11, group_formation_rate=0.05)
        _, truth = generate(cfg, duration=120.0, dt=0.5)
        assert any(len(block) > 1 for blocks in truth for block in blocks)
        first = {}
        for blocks in truth:
            for block in blocks:
                assert first.setdefault(block, block) is block
        # a frame equal to the one before it is that frame's tuple
        assert all(a is b for a, b in zip(truth, truth[1:]) if a == b)

    def test_zero_agents(self):
        cfg = MobilityConfig(n_agents=0, seed=0)
        frames, truth = generate(cfg, duration=5.0, dt=0.5)
        assert all(f.pos.shape == (0, 2) for f in frames)
        assert all(blocks == () for blocks in truth)

    def test_determinism_same_seed(self):
        cfg = MobilityConfig(n_agents=6, seed=11, group_formation_rate=0.05)
        frames_a, truth_a = generate(cfg, duration=60.0, dt=0.5)
        frames_b, truth_b = generate(cfg, duration=60.0, dt=0.5)
        assert truth_a == truth_b
        for fa, fb in zip(frames_a, frames_b):
            assert np.array_equal(fa.pos, fb.pos)
            assert np.array_equal(fa.angle, fb.angle)

    def test_positions_stay_in_area(self):
        cfg = MobilityConfig(n_agents=8, seed=2, area=(20.0, 30.0))
        frames, _ = generate(cfg, duration=120.0, dt=0.5)
        for frame in frames:
            assert (frame.pos[:, 0] >= 0).all() and (frame.pos[:, 0] <= 20.0).all()
            assert (frame.pos[:, 1] >= 0).all() and (frame.pos[:, 1] <= 30.0).all()

    def test_angles_normalized(self):
        cfg = MobilityConfig(n_agents=5, seed=3)
        frames, _ = generate(cfg, duration=60.0, dt=0.5)
        for frame in frames:
            assert ((frame.angle >= 0) & (frame.angle < 2 * math.pi)).all()

    def test_ground_truth_is_valid_partition(self):
        cfg = MobilityConfig(n_agents=7, seed=5, group_formation_rate=0.08)
        frames, truth = generate(cfg, duration=120.0, dt=0.5)
        for frame, blocks in zip(frames, truth):
            seen = set()
            for block in blocks:
                assert block
                assert not (seen & block)
                seen |= block
            assert seen == set(frame.ids)

    def test_resting_triad_appears_as_contiguous_situation(self):
        cfg = MobilityConfig(
            n_agents=3,
            seed=4,
            group_formation_rate=1.0,
            group_size_distribution={3: 1.0},
            moving_group_ratio=0.0,
            resting_duration_range=(60.0, 60.0),
        )
        _, truth = generate(cfg, duration=120.0, dt=0.5)
        triad_frames = [k for k, blocks in enumerate(truth) if frozenset({0, 1, 2}) in blocks]
        assert triad_frames
        runs = [[triad_frames[0]]]
        for k in triad_frames[1:]:
            if k == runs[-1][-1] + 1:
                runs[-1].append(k)
            else:
                runs.append([k])
        # the group is labeled over contiguous intervals, the longest of
        # which spans a substantial part of its scheduled duration
        assert max(len(r) for r in runs) >= 40

    def test_resting_group_distances_settle_into_o_space(self):
        cfg = MobilityConfig(
            n_agents=4,
            seed=9,
            group_formation_rate=1.0,
            group_size_distribution={4: 1.0},
            moving_group_ratio=0.0,
            resting_duration_range=(90.0, 90.0),
        )
        frames, truth = generate(cfg, duration=150.0, dt=0.5)
        block = frozenset({0, 1, 2, 3})
        active = [k for k, blocks in enumerate(truth) if block in blocks]
        assert active
        settle = [k for k in active if k >= active[0] + int(5.0 / 0.5)]
        for k in settle:
            pos = frames[k].pos
            for i in range(4):
                for j in range(i + 1, 4):
                    d = float(np.hypot(*(pos[i] - pos[j])))
                    assert 0.3 <= d <= 3.0

    def test_moving_group_shares_heading(self):
        cfg = MobilityConfig(
            n_agents=2,
            seed=21,
            group_formation_rate=1.0,
            group_size_distribution={2: 1.0},
            moving_group_ratio=1.0,
            resting_duration_range=(60.0, 60.0),
        )
        frames, truth = generate(cfg, duration=100.0, dt=0.5)
        active = [k for k, blocks in enumerate(truth) if frozenset({0, 1}) in blocks]
        assert active
        k = active[len(active) // 2]
        assert frames[k].angle[0] == pytest.approx(frames[k].angle[1])

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MobilityConfig(n_agents=-1)
        with pytest.raises(ValueError):
            MobilityConfig(group_size_distribution={1: 1.0})
        with pytest.raises(ValueError):
            MobilityConfig(speed_transitions=((0.5, 0.4, 0.0),) * 3)
        with pytest.raises(ValueError):
            generate(MobilityConfig(), duration=0.0, dt=0.5)
        for area in ((math.nan, 50.0), (50.0, math.inf), (0.0, 50.0)):
            with pytest.raises(ValueError, match="area must be positive and finite"):
                MobilityConfig(area=area)
        for rate in (math.nan, math.inf, -0.1):
            with pytest.raises(ValueError, match="group_formation_rate must be non-negative"):
                MobilityConfig(group_formation_rate=rate)


class TestForceModel:
    CFG = MobilityConfig(force_k_center=1.0, force_k_repel=0.5)

    def settle(self, pos, center, steps=6000, dt=0.02):
        pos = np.asarray(pos, dtype=float)
        for _ in range(steps):
            pos = force_step(pos, np.asarray(center), self.CFG, dt)
        return pos

    def test_two_agent_equilibrium_matches_closed_form(self):
        pos = self.settle([[24.0, 25.0], [26.0, 25.0]], [25.0, 25.0])
        sep = float(np.hypot(*(pos[0] - pos[1])))
        assert abs(sep - equilibrium_pair_separation(self.CFG)) < 1e-3

    def test_three_agents_form_equilateral_triangle(self):
        pos = self.settle(
            [[24.3, 25.0], [25.8, 25.2], [25.0, 24.1]], [25.0, 25.0], steps=12000
        )
        d = [
            float(np.hypot(*(pos[i] - pos[j])))
            for i, j in ((0, 1), (0, 2), (1, 2))
        ]
        assert max(d) - min(d) < 1e-2
        angles = []
        for i in range(3):
            v1 = pos[(i + 1) % 3] - pos[i]
            v2 = pos[(i + 2) % 3] - pos[i]
            cosang = float(np.dot(v1, v2) / (np.linalg.norm(v1) * np.linalg.norm(v2)))
            angles.append(math.degrees(math.acos(max(-1.0, min(1.0, cosang)))))
        assert all(abs(a - 60.0) < 1.0 for a in angles)

    def test_agent_at_center_finite_force(self):
        pos = np.array([[25.0, 25.0], [25.0, 25.0]])
        stepped = force_step(pos, np.array([25.0, 25.0]), self.CFG, 0.05)
        assert np.isfinite(stepped).all()

    def test_potential_non_increasing_near_equilibrium(self):
        pos = np.array([[24.2, 25.0], [25.9, 25.3], [25.0, 24.2]])
        center = np.array([25.0, 25.0])
        energies = []
        for step in range(4000):
            pos = force_step(pos, center, self.CFG, 0.02)
            energies.append(potential_energy(pos, center, self.CFG))
        tail = energies[int(len(energies) * 0.8):]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))

    def test_needs_two_members(self):
        with pytest.raises(ValueError):
            force_step(np.array([[1.0, 1.0]]), np.array([0.0, 0.0]), self.CFG, 0.05)
