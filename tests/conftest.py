"""Shared strategies and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import strategies as st

from socsim import harness
from socsim.mobility import MobilityConfig, TraceFrame
from socsim.opinions import PRIOR_WEIGHT, Opinion

_unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def opinions(draw, min_uncertainty=0.0, base_rate=None):
    """Valid opinions with b + d + u = 1 by construction."""
    b = draw(_unit)
    d = draw(st.floats(min_value=0.0, max_value=1.0 - b, allow_nan=False, allow_infinity=False))
    u = max(0.0, 1.0 - b - d)
    if u < min_uncertainty:
        scale = (1.0 - min_uncertainty) / (b + d) if (b + d) > 0 else 0.0
        b, d, u = b * scale, d * scale, min_uncertainty
    a = draw(_unit) if base_rate is None else base_rate
    return Opinion(b, d, u, a)


def non_dogmatic(base_rate=None):
    return opinions(min_uncertainty=1e-6, base_rate=base_rate)


def counted(fn, calls: list):
    """``fn`` appending the arguments of each call to ``calls``."""

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    return wrapper


@dataclass
class Samples:
    """A run's samples as its one per-sample call took them."""

    partitions: list = field(default_factory=list)  # (time, Partition)
    metrics_rows: list = field(default_factory=list)
    # (time, {live agent id: (role, head id)})
    role_samples: list = field(default_factory=list)


def run_sampled(*args, **kwargs) -> tuple[harness.RunResult, Samples]:
    """``harness.run`` and every sample of the run, recorded by a wrapper of
    ``harness._Sampler.take`` while the run lasts."""
    samples = Samples()
    take = harness._Sampler.take

    def capture(sampler, now, agents, universe, truth):
        partition, row = take(sampler, now, agents, universe, truth)
        samples.partitions.append((now, partition))
        samples.metrics_rows.append(row)
        roles = {aid: (agent.role, agent.head_id) for aid, agent in sorted(agents.items())}
        samples.role_samples.append((now, roles))
        return partition, row

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness._Sampler, "take", capture)
        result = harness.run(*args, **kwargs)
    return result, samples


# ----------------------------------------------------------------------
# independent oracles


def evidence_fuse_oracle(a: Opinion, b: Opinion) -> Opinion:
    """Cumulative fusion by adding Dirichlet evidence counts."""
    ra, sa = PRIOR_WEIGHT * a.belief / a.uncertainty, PRIOR_WEIGHT * a.disbelief / a.uncertainty
    rb, sb = PRIOR_WEIGHT * b.belief / b.uncertainty, PRIOR_WEIGHT * b.disbelief / b.uncertainty
    r, s = ra + rb, sa + sb
    denom = r + s + PRIOR_WEIGHT
    return Opinion(r / denom, s / denom, PRIOR_WEIGHT / denom, a.base_rate)


def evidence_average_oracle(ops: list[Opinion]) -> Opinion:
    """N-ary averaging fusion by averaging Dirichlet evidence counts."""
    rs = [PRIOR_WEIGHT * o.belief / o.uncertainty for o in ops]
    ss = [PRIOR_WEIGHT * o.disbelief / o.uncertainty for o in ops]
    r, s = sum(rs) / len(ops), sum(ss) / len(ops)
    denom = r + s + PRIOR_WEIGHT
    return Opinion(r / denom, s / denom, PRIOR_WEIGHT / denom, ops[0].base_rate)


def equilibrium_pair_separation(config: MobilityConfig) -> float:
    """Closed-form resting separation of a two-agent group: attraction
    k_center * d/2 balances repulsion k_repel / d."""
    return math.sqrt(2.0 * config.force_k_repel / config.force_k_center)


def brute_force_pair_counts(blocks_p, blocks_q):
    """O(n^2) pair enumeration over two partitions given as block lists."""
    label_p = {a: i for i, b in enumerate(blocks_p) for a in b}
    label_q = {a: i for i, b in enumerate(blocks_q) for a in b}
    agents = sorted(label_p)
    counts = [0, 0, 0, 0]  # n11, n10, n01, n00
    for x, y in itertools.combinations(agents, 2):
        same_p = label_p[x] == label_p[y]
        same_q = label_q[x] == label_q[y]
        if same_p and same_q:
            counts[0] += 1
        elif same_p:
            counts[1] += 1
        elif same_q:
            counts[2] += 1
        else:
            counts[3] += 1
    return tuple(counts)


def random_partition(rng: np.random.Generator, n: int, max_blocks: int | None = None):
    """A uniformly labeled random partition of range(n) as a block list."""
    if n == 0:
        return []
    k = int(rng.integers(1, (max_blocks or n) + 1))
    labels = rng.integers(0, k, size=n)
    blocks: dict[int, set[int]] = {}
    for agent, label in enumerate(labels):
        blocks.setdefault(int(label), set()).add(agent)
    return list(blocks.values())


def range_table(positions, agents, comm_range: float) -> dict[int, tuple[int, ...]]:
    """The range table ``Network.step`` takes, from positions: every agent's
    ascending tuple of the other agents within comm range (dx * dx + dy * dy
    <= comm_range ** 2). Positions of ids that are not agents are left out:
    only agents receive messages and are counted."""
    ids = sorted(aid for aid in positions if aid in agents)
    pos = np.array([positions[a] for a in ids], dtype=float).reshape(-1, 2)
    dx = pos[:, 0][:, None] - pos[:, 0][None, :]
    dy = pos[:, 1][:, None] - pos[:, 1][None, :]
    within = dx * dx + dy * dy <= comm_range**2
    np.fill_diagonal(within, False)
    return {aid: tuple(np.asarray(ids)[row].tolist()) for aid, row in zip(ids, within)}


def random_periods(rng: np.random.Generator, k: int, agentless=frozenset({3, 7})):
    """``k`` frames whose id sets vary from frame to frame, and each frame's
    observers (its ids but the ``agentless``, ascending). Columns come in
    shuffled order, and in some frames an opinion provider with the lowest
    id, 0, comes last; some frames sit on an integer grid, so that squared
    distances hit a whole range exactly, and share points."""
    frames, observers = [], []
    for t in range(k):
        # a few frames hold agentless ids only
        pool = np.array(sorted(agentless)) if rng.random() < 0.1 else np.arange(1, 16)
        n = int(rng.integers(1, len(pool) + 1))
        ids = [int(v) for v in rng.choice(pool, size=n, replace=False)]
        if rng.random() < 0.5:
            pos = rng.integers(0, 12, size=(n, 2)).astype(float)
        else:
            pos = rng.uniform(0.0, float(rng.choice([6.0, 25.0])), size=(n, 2))
        ang = rng.uniform(0.0, 2 * np.pi, size=n)
        if rng.random() < 0.4:
            ids.append(0)
            pos = np.vstack([pos, rng.uniform(0.0, 6.0, size=(1, 2))])
            ang = np.append(ang, 0.0)
        frames.append(TraceFrame(float(t), tuple(ids), pos, ang))
        observers.append(sorted(set(ids) - agentless))
    return frames, observers


def assert_opinions_close(x: Opinion, y: Opinion, tol: float = 1e-9) -> None:
    assert abs(x.belief - y.belief) <= tol, (x, y)
    assert abs(x.disbelief - y.disbelief) <= tol, (x, y)
    assert abs(x.uncertainty - y.uncertainty) <= tol, (x, y)
    assert abs(x.base_rate - y.base_rate) <= tol, (x, y)
