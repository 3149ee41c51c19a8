"""Partition-agreement metrics: Rand, adjusted Rand and Jaccard indices.

All three derive from the pair confusion counts between two partitions of
the same agent universe. Degenerate 0/0 cases (for instance two all-
singleton partitions) score 1, so trivially perfect agreement is perfect.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


class UniverseMismatchError(ValueError):
    """The two partitions do not cover the same set of agents."""


class Partition:
    """A disjoint cover of an agent universe by nonempty blocks."""

    __slots__ = ("blocks", "universe")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        normed: list[frozenset[int]] = []
        seen: set[int] = set()
        for block in blocks:
            fs = frozenset(block)
            if not fs:
                raise ValueError("partition blocks must be nonempty")
            if seen & fs:
                raise ValueError(f"blocks overlap on {sorted(seen & fs)}")
            seen |= fs
            normed.append(fs)
        self.blocks: tuple[frozenset[int], ...] = tuple(
            sorted(normed, key=lambda b: min(b))
        )
        self.universe: frozenset[int] = frozenset(seen)

    @classmethod
    def from_labels(cls, labels: dict[int, int]) -> "Partition":
        by_label: dict[int, set[int]] = {}
        for agent, label in labels.items():
            by_label.setdefault(label, set()).add(agent)
        return cls(by_label.values())

    @classmethod
    def singletons(cls, universe: Iterable[int]) -> "Partition":
        return cls([{a} for a in universe])

    def labels(self) -> dict[int, int]:
        return {agent: idx for idx, block in enumerate(self.blocks) for agent in block}

    def restricted(self, universe: Iterable[int]) -> "Partition":
        """The induced partition on a sub-universe (empty blocks dropped)."""
        keep = frozenset(universe)
        blocks = [block & keep for block in self.blocks]
        return Partition([b for b in blocks if b])

    def non_singleton_count(self) -> int:
        return sum(1 for b in self.blocks if len(b) > 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, sorted(b))) + "}" for b in self.blocks)
        return f"Partition([{inner}])"


def _comb2(n: int) -> int:
    return n * (n - 1) // 2


def pair_counts(p: Partition, q: Partition) -> tuple[int, int, int, int]:
    """Confusion counts over all unordered agent pairs:
    (together in both, only in p, only in q, together in neither)."""
    if p.universe != q.universe:
        raise UniverseMismatchError(
            f"universe mismatch: {sorted(p.universe ^ q.universe)} not shared"
        )
    n = len(p.universe)
    p_labels = p.labels()
    q_labels = q.labels()
    contingency: dict[tuple[int, int], int] = {}
    for agent in p.universe:
        key = (p_labels[agent], q_labels[agent])
        contingency[key] = contingency.get(key, 0) + 1
    n11 = sum(_comb2(c) for c in contingency.values())
    sum_p = sum(_comb2(len(b)) for b in p.blocks)
    sum_q = sum(_comb2(len(b)) for b in q.blocks)
    n10 = sum_p - n11
    n01 = sum_q - n11
    n00 = _comb2(n) - n11 - n10 - n01
    return n11, n10, n01, n00


def scores(p: Partition, q: Partition) -> tuple[float, float, float, int]:
    """Rand, adjusted Rand and Jaccard indices of ``q`` against ``p``, and
    the pairs together only in ``q``, all from one pair-count table
    (Hubert & Arabie, "Comparing partitions", 1985). Fewer than 2 agents
    score (1, 1, 1, 0); so do the 0/0 cases of ARI (e.g. two all-singleton
    partitions) and Jaccard (no pair co-clustered by either)."""
    if len(p.universe) < 2:
        if p.universe != q.universe:
            raise UniverseMismatchError("universe mismatch")
        return 1.0, 1.0, 1.0, 0
    n11, n10, n01, n00 = pair_counts(p, q)
    total = n11 + n10 + n01 + n00
    sum_a = n11 + n10
    sum_b = n11 + n01
    expected = sum_a * sum_b / total
    denom = 0.5 * (sum_a + sum_b) - expected
    ari = 1.0 if denom == 0 else (n11 - expected) / denom
    together = n11 + n10 + n01
    jaccard = 1.0 if together == 0 else n11 / together
    return (n11 + n00) / total, ari, jaccard, n01


def rand_index(p: Partition, q: Partition) -> float:
    """Share of agent pairs on which the partitions agree."""
    return scores(p, q)[0]


def adjusted_rand_index(p: Partition, q: Partition) -> float:
    """Chance-corrected Rand index."""
    return scores(p, q)[1]


def jaccard_index(p: Partition, q: Partition) -> float:
    """Co-clustered pairs shared by both over those of either."""
    return scores(p, q)[2]


def series_summary(values: Sequence[float]) -> tuple[float, float]:
    """Arithmetic mean and population standard deviation of a per-frame
    metric series."""
    if not values:
        raise ValueError("empty metric series")
    mean = math.fsum(values) / len(values)
    var = math.fsum((v - mean) ** 2 for v in values) / len(values)
    return mean, math.sqrt(var)
