"""Social-aware synthetic mobility traces.

Agents perform individual Gauss-Markov walks with speeds drawn from a
small Markov chain. Groups form as a Poisson process over idle agents:
members walk to a meeting point, then either rest in a force-balanced
arrangement around the group center or move together along a shared
heading until the group dissolves. Ground-truth situation labels cover
each group from the moment all members have arrived until dissolution
(the waiting phase is unlabeled by default). There is deliberately no
collision avoidance between non-group agents, so crowded scenarios
produce chance encounters that look like social situations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import _kernels
from .schema import NON_NEGATIVE, POSITIVE, UNIT, check, ranged

_HEADING_SIGMA = 0.6  # rad, Gauss-Markov heading noise
_ARRIVAL_SLACK = 0.5  # m, extra radius counting a member as arrived
_GROUP_SIZES = (lambda size: size >= 2, "be at least 2")


@dataclass
class MobilityConfig:
    area: tuple[float, float] = ranged(POSITIVE, (50.0, 50.0))
    n_agents: int = ranged(NON_NEGATIVE, 10)
    speed_levels: tuple[float, ...] = ranged(NON_NEGATIVE, (0.0, 0.7, 1.4))
    speed_transitions: tuple[tuple[float, ...], ...] = ranged(
        UNIT, ((0.90, 0.08, 0.02), (0.10, 0.80, 0.10), (0.05, 0.15, 0.80))
    )
    gauss_markov_alpha: float = ranged(UNIT, 0.75)
    group_formation_rate: float = ranged(NON_NEGATIVE, 0.02)  # events per second
    group_size_distribution: dict[int, float] = ranged(
        UNIT, keys=_GROUP_SIZES, default_factory=lambda: {2: 0.4, 3: 0.35, 4: 0.20, 5: 0.05}
    )
    resting_duration_range: tuple[float, float] = ranged(NON_NEGATIVE, (30.0, 180.0))
    moving_group_ratio: float = ranged(UNIT, 0.3)
    force_k_center: float = ranged(POSITIVE, 1.0)
    force_k_repel: float = ranged(POSITIVE, 0.5)
    interaction_distance: float = ranged(NON_NEGATIVE, 1.2)
    angle_jitter_sigma: float = ranged(NON_NEGATIVE, 0.3)
    label_waiting_phase: bool = False
    seed: int = ranged(NON_NEGATIVE, 0)

    def __post_init__(self) -> None:
        check(self)
        if len(self.speed_levels) != len(self.speed_transitions):
            raise ValueError("speed chain size mismatch")
        for row in self.speed_transitions:
            if len(row) != len(self.speed_levels) or not abs(sum(row) - 1.0) <= 1e-9:
                raise ValueError("speed transition rows must sum to 1")
        if self.resting_duration_range[0] > self.resting_duration_range[1]:
            raise ValueError("resting_duration_range must have low <= high")
        total = sum(self.group_size_distribution.values())
        if self.group_size_distribution and not abs(total - 1.0) <= 1e-9:
            raise ValueError("group size probabilities must sum to 1")


@dataclass(frozen=True)
class TraceFrame:
    time: float
    ids: tuple[int, ...]
    pos: np.ndarray  # (n, 2) meters
    angle: np.ndarray  # (n,) radians in [0, 2*pi)


# Ground truth: one tuple of blocks (frozensets of agent ids) per frame.
GroundTruth = list[tuple[frozenset[int], ...]]


class _Group:
    __slots__ = ("members", "center", "moving", "t_end", "heading", "arrived", "active")

    def __init__(self, members, center, moving, t_end, heading):
        self.members = members
        self.center = center
        self.moving = moving
        self.t_end = t_end
        self.heading = heading
        self.arrived: set[int] = set()
        self.active = False


def generate(config: MobilityConfig, duration: float, dt: float) -> tuple[list[TraceFrame], GroundTruth]:
    """Simulate ``duration`` seconds at step ``dt`` and return the frames
    plus per-frame ground-truth partitions (singletons included): every
    step of ``steps``, in lists."""
    frames: list[TraceFrame] = []
    truth: GroundTruth = []
    for frame, blocks in steps(config, duration, dt):
        frames.append(frame)
        truth.append(blocks)
    return frames, truth


def steps(
    config: MobilityConfig, duration: float, dt: float
) -> Iterator[tuple[TraceFrame, tuple[frozenset[int], ...]]]:
    """Simulate ``duration`` seconds at step ``dt``, yielding each step's
    frame and ground-truth partition (singletons included) as it is made.
    A partition equal to the previous step's is that step's own object."""
    if duration <= 0 or dt <= 0:
        raise ValueError("duration and dt must be positive")
    rng = np.random.default_rng(config.seed)
    n = config.n_agents
    w, h = config.area
    gather_speed = max(*config.speed_levels, 0.5)
    move_speed = sorted(config.speed_levels)[len(config.speed_levels) // 2] or gather_speed

    pos = rng.uniform((0.0, 0.0), (w, h), size=(n, 2)) if n else np.zeros((0, 2))
    heading = rng.uniform(0.0, 2 * math.pi, size=n)
    mean_heading = rng.uniform(0.0, 2 * math.pi, size=n)
    shoulder = heading.copy()
    speed_state = rng.integers(0, len(config.speed_levels), size=n) if n else np.zeros(0, int)
    trans = np.asarray(config.speed_transitions)
    levels = np.asarray(config.speed_levels)
    group_of = np.full(n, -1, dtype=int)

    sizes = sorted(config.group_size_distribution)
    size_probs = np.array([config.group_size_distribution[s] for s in sizes])

    groups: dict[int, _Group] = {}
    next_gid = 0
    previous_truth = None
    ids = tuple(range(n))
    # truth frames share their blocks: one singleton per agent, each group's
    # own member set, and the previous frame's tuple when nothing changed
    singletons = [frozenset((aid,)) for aid in ids]
    alpha = config.gauss_markov_alpha
    noise_gain = math.sqrt(max(0.0, 1.0 - alpha * alpha))
    n_steps = int(round(duration / dt))
    speed_tick = max(1, int(round(1.0 / dt)))

    for step in range(n_steps + 1):
        t = step * dt

        # group formation: Poisson over idle agents
        idle = np.flatnonzero(group_of < 0)
        if (
            n >= 2
            and len(idle) >= 2
            and sizes
            and rng.random() < config.group_formation_rate * dt
        ):
            size = int(rng.choice(sizes, p=size_probs))
            size = min(size, len(idle))
            if size >= 2:
                members = rng.choice(idle, size=size, replace=False)
                margin = 3.0
                center = rng.uniform(
                    (min(margin, w / 2), min(margin, h / 2)),
                    (max(w - margin, w / 2), max(h - margin, h / 2)),
                )
                moving = bool(rng.random() < config.moving_group_ratio)
                dur = rng.uniform(*config.resting_duration_range)
                grp = _Group(frozenset(int(m) for m in members), center, moving, t + dur, rng.uniform(0, 2 * math.pi))
                groups[next_gid] = grp
                group_of[members] = next_gid
                next_gid += 1

        # dissolution
        for gid in [g for g, grp in groups.items() if t >= grp.t_end]:
            for m in groups[gid].members:
                group_of[m] = -1
                mean_heading[m] = rng.uniform(0, 2 * math.pi)
            del groups[gid]

        # speed chain transitions once per simulated second
        if n and step % speed_tick == 0:
            u = rng.random(n)
            cum = np.cumsum(trans[speed_state], axis=1)
            speed_state = (u[:, None] > cum).sum(axis=1)

        # movement
        if n:
            gm_noise = rng.normal(0.0, _HEADING_SIGMA, size=n)
            jitter = rng.normal(0.0, config.angle_jitter_sigma, size=n)
            free = group_of < 0
            delta = np.arctan2(
                np.sin(mean_heading - heading), np.cos(mean_heading - heading)
            )
            heading = np.where(
                free, heading + (1 - alpha) * delta + noise_gain * gm_noise * dt, heading
            )
            speeds = np.where(free, levels[speed_state], 0.0)
            vel = np.stack([np.cos(heading), np.sin(heading)], axis=1) * speeds[:, None]
            pos = pos + np.where(free[:, None], vel * dt, 0.0)
            shoulder = np.where(free, heading, shoulder)

            for grp in groups.values():
                midx = np.fromiter(sorted(grp.members), dtype=int)
                if not grp.active:
                    # members walk toward the meeting point
                    for m in midx:
                        if m in grp.arrived:
                            continue
                        d = grp.center - pos[m]
                        dist = math.hypot(d[0], d[1])
                        if dist <= config.interaction_distance + _ARRIVAL_SLACK:
                            grp.arrived.add(int(m))
                            continue
                        step_len = min(gather_speed * dt, dist)
                        pos[m] += d / dist * step_len
                        heading[m] = math.atan2(d[1], d[0])
                        shoulder[m] = heading[m]
                    arrived = np.fromiter(sorted(grp.arrived), dtype=int) if grp.arrived else None
                    if arrived is not None and len(arrived) >= 2:
                        pos[arrived] = force_step(pos[arrived], grp.center, config, dt)
                    if len(grp.arrived) == len(grp.members):
                        grp.active = True
                elif grp.moving:
                    v = np.array([math.cos(grp.heading), math.sin(grp.heading)]) * move_speed
                    new_center = grp.center + v * dt
                    if not (0 <= new_center[0] <= w) or not (0 <= new_center[1] <= h):
                        grp.heading = rng.uniform(0, 2 * math.pi)
                    else:
                        grp.center = new_center
                        pos[midx] += v * dt
                    shoulder[midx] = grp.heading
                else:
                    pos[midx] = force_step(pos[midx], grp.center, config, dt)
                    to_center = grp.center[None, :] - pos[midx]
                    shoulder[midx] = np.arctan2(to_center[:, 1], to_center[:, 0]) + jitter[midx]

            # reflecting boundaries
            for dim, bound in ((0, w), (1, h)):
                below = pos[:, dim] < 0
                above = pos[:, dim] > bound
                pos[below, dim] = -pos[below, dim]
                pos[above, dim] = 2 * bound - pos[above, dim]
                flipped = below | above
                if flipped.any():
                    heading[flipped] = np.where(
                        dim == 0, math.pi - heading[flipped], -heading[flipped]
                    )
                    shoulder[flipped] = heading[flipped]
                    mean_heading[flipped] = rng.uniform(0, 2 * math.pi, size=int(flipped.sum()))
            np.clip(pos[:, 0], 0, w, out=pos[:, 0])
            np.clip(pos[:, 1], 0, h, out=pos[:, 1])

        shoulder_stored = np.mod(shoulder, 2 * math.pi)
        frame = TraceFrame(t, ids, pos.copy(), shoulder_stored.copy())
        blocks: list[frozenset[int]] = []
        grouped: set[int] = set()
        for gid in sorted(groups):
            grp = groups[gid]
            if grp.active or config.label_waiting_phase:
                blocks.append(grp.members)
                grouped |= grp.members
        blocks.extend(singletons[aid] for aid in ids if aid not in grouped)
        frame_truth = tuple(blocks)
        if frame_truth != previous_truth:
            previous_truth = frame_truth
        yield frame, previous_truth


def force_step(members: np.ndarray, center: np.ndarray, config: MobilityConfig, dt: float) -> np.ndarray:
    """One integration step of the group arrangement force model for the
    given member positions (m, 2)."""
    if members.shape[0] < 2:
        raise ValueError("force model needs at least 2 members")
    cap = max(config.speed_levels) * dt
    return _kernels.force_step(
        np.asarray(members, dtype=float),
        np.asarray(center, dtype=float),
        config.force_k_center,
        config.force_k_repel,
        0.01,
        cap,
        dt,
    )

