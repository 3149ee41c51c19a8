"""Deterministic discrete-event broadcast network.

One network step equals one protocol period: deliveries due this step are
applied first, then every agent ticks in ascending id order, then heads
attempt one request each. Broadcasts fan out to every agent within
communication range of the sender at emission time; unicasts deliver only
if the target is in range. Each delivery is independently dropped with the
configured loss probability from a seeded generator, so a (scenario, seed)
pair fully determines the delivery log.
"""

from __future__ import annotations

import gzip
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .messages import HeadMsg, Message, encode_record
from .protocol import Agent, AgentKind, Role

# A scheduler picks the index of the next ready delivery; the default is
# FIFO in sequence order. Adversarial schedulers permute same-step
# deliveries to explore protocol interleavings.
Scheduler = Callable[[float, Sequence["QueuedDelivery"]], int]


@dataclass
class NetConfig:
    comm_range: float = 25.0
    loss_probability: float = 0.0
    latency: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.comm_range <= 0:
            raise ValueError("comm_range must be positive")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError("loss_probability must lie in [0, 1)")
        if self.latency < 0 or int(self.latency) != self.latency:
            raise ValueError("latency must be a non-negative integer number of steps")


@dataclass(frozen=True)
class QueuedDelivery:
    deliver_step: int
    seq: int
    target: int
    message: Message
    sender: int


@dataclass(frozen=True)
class LogEntry:
    step: int
    time: float
    message: Message
    sender: int
    target: Optional[int]
    delivered_to: tuple[int, ...]

    def wire_line(self) -> str:
        return encode_record(self.time, self.message, self.sender, self.target)


@dataclass
class DeliveryLog:
    period: float
    entries: list[LogEntry] = field(default_factory=list)
    # step -> agent id -> number of agents within comm range
    neighbor_counts: dict[int, dict[int, int]] = field(default_factory=dict)

    def write(self, path) -> None:
        body = "".join(entry.wire_line() + "\n" for entry in self.entries).encode("utf-8")
        if str(path).endswith(".gz"):
            # fixed mtime and empty name keep the output reproducible
            with open(path, "wb") as raw:
                with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as fh:
                    fh.write(body)
        else:
            with open(path, "wb") as fh:
                fh.write(body)


@dataclass(frozen=True)
class BoundViolation:
    agent: int
    window_start: int
    emitted: int
    bound: int
    peak_neighbors: int


@dataclass(frozen=True)
class BoundReport:
    windows_checked: int
    violations: tuple[BoundViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class Network:
    """Delivers protocol messages among agents with positions."""

    def __init__(
        self,
        config: NetConfig,
        period: float,
        scheduler: Optional[Scheduler] = None,
    ) -> None:
        self.config = config
        self.period = period
        self.scheduler = scheduler
        self.log = DeliveryLog(period=period)
        self.latest_head_msgs: dict[int, tuple[int, HeadMsg]] = {}
        self._rng = np.random.default_rng(config.seed)
        self._queue: dict[int, list[QueuedDelivery]] = {}
        self._seq = 0
        self._step_no = -1
        # sender -> ascending ids of the other agents within comm range,
        # from the positions of the latest step
        self._receivers: dict[int, list[int]] = {}

    # ------------------------------------------------------------------

    def step(
        self,
        now: float,
        positions: dict[int, tuple[float, float]],
        agents: dict[int, Agent],
    ) -> None:
        """Run one protocol period at simulation time ``now``."""
        self._step_no += 1
        self._update_range(positions, agents)
        order = sorted(agents)
        self._drain(now, agents)
        for aid in order:
            self._emit(now, aid, agents[aid].tick(now))
        self._drain(now, agents)
        for aid in order:
            agent = agents[aid]
            if (
                agent.role is not Role.CLUSTER_HEAD
                or agent.kind is not AgentKind.HUMAN_LINKED
                or agent.pending_request is not None
                or now < agent.next_request_time
            ):
                continue
            candidate = agent.get_candidate(now)
            if candidate is None:
                agent.next_request_time = now + self.period
            else:
                self._emit(now, aid, agent.send_request(candidate, now))
        self._drain(now, agents)

    def inject(self, now: float, sender: int, emissions) -> None:
        """Schedule externally produced emissions (e.g. a departure
        handover) for delivery in the upcoming step. Range is that of the
        latest step's positions."""
        self._emit(now, sender, emissions, deliver_step=self._step_no + 1)

    # ------------------------------------------------------------------

    def _update_range(
        self, positions: dict[int, tuple[float, float]], agents: dict[int, Agent]
    ) -> None:
        """Build this step's range table, every position's ascending list of
        the others within comm range (dx * dx + dy * dy <= comm_range ** 2),
        and record each live agent's count of live agents in it."""
        ids = sorted(positions)
        pos = np.array([positions[a] for a in ids], dtype=float).reshape(-1, 2)
        dx = pos[:, 0][:, None] - pos[:, 0][None, :]
        dy = pos[:, 1][:, None] - pos[:, 1][None, :]
        within = dx * dx + dy * dy <= self.config.comm_range**2
        np.fill_diagonal(within, False)
        receivers = np.asarray(ids, dtype=np.int64)[np.nonzero(within)[1]].tolist()
        ends = np.cumsum(within.sum(axis=1)).tolist()
        self._receivers = {
            aid: receivers[start:end] for aid, start, end in zip(ids, [0] + ends, ends)
        }
        live = np.array([aid in agents for aid in ids], dtype=bool)
        counts = (within & live).sum(axis=1).tolist()
        self.log.neighbor_counts[self._step_no] = {
            aid: count for aid, count, alive in zip(ids, counts, live.tolist()) if alive
        }

    def _emit(self, now: float, sender: int, emissions, deliver_step: Optional[int] = None) -> None:
        cfg = self.config
        base_step = self._step_no if deliver_step is None else deliver_step
        for message, target in emissions:
            if isinstance(message, HeadMsg) and message.head == sender:
                self.latest_head_msgs[sender] = (base_step, message)
            in_range = self._receivers.get(sender)
            if in_range is None:
                receivers = []
            elif target is None:
                receivers = in_range
            else:
                # a unicast to oneself covers zero distance
                receivers = [target] if target == sender or target in in_range else []
            if cfg.loss_probability > 0.0 and receivers:
                # one uniform per receiver in range, in receiver order
                kept = self._rng.random(len(receivers)) >= cfg.loss_probability
                receivers = [r for r, keep in zip(receivers, kept.tolist()) if keep]
            if receivers:
                due = base_step + cfg.latency
                queue = self._queue.setdefault(due, [])
                for receiver in receivers:
                    self._seq += 1
                    queue.append(QueuedDelivery(due, self._seq, receiver, message, sender))
            self.log.entries.append(
                LogEntry(base_step, now, message, sender, target, tuple(receivers))
            )

    def _drain(self, now: float, agents: dict[int, Agent]) -> None:
        while True:
            ready = self._queue.get(self._step_no)
            if not ready:
                return
            if self.scheduler is None:
                idx = 0
            else:
                idx = self.scheduler(now, tuple(ready))
            delivery = ready.pop(idx)
            if not ready:
                del self._queue[self._step_no]
            agent = agents.get(delivery.target)
            if agent is None:
                continue
            out = agent.handle_message(delivery.message, delivery.sender, now)
            if out:
                self._emit(now, delivery.target, out)


def audit_message_bound(log: DeliveryLog, window: int) -> BoundReport:
    """Check the per-agent message bound: within any window of ``window``
    protocol cycles an agent may emit at most (2n + 1) messages per cycle,
    with n its peak in-communication-range neighbor count in the window."""
    if window <= 0:
        raise ValueError("window must be a positive number of cycles")
    if not log.entries:
        return BoundReport(windows_checked=0, violations=())
    emitted: dict[int, dict[int, int]] = {}
    for entry in log.entries:
        emitted.setdefault(entry.sender, {}).setdefault(entry.step, 0)
        emitted[entry.sender][entry.step] += 1
    last_step = max(e.step for e in log.entries)
    violations: list[BoundViolation] = []
    checked = 0
    for agent in sorted(emitted):
        for start in range(0, last_step + 1, window):
            steps = range(start, min(start + window, last_step + 1))
            count = sum(emitted[agent].get(s, 0) for s in steps)
            if count == 0:
                continue
            checked += 1
            peak = max(
                (log.neighbor_counts.get(s, {}).get(agent, 0) for s in steps), default=0
            )
            bound = (2 * peak + 1) * len(steps)
            if count > bound:
                violations.append(BoundViolation(agent, start, count, bound, peak))
    return BoundReport(windows_checked=checked, violations=tuple(violations))


def warn_if_range_below_social(net: NetConfig, social_distance: float) -> None:
    if net.comm_range < social_distance:
        warnings.warn(
            "communication range is below the protocol social distance; "
            "candidates may be unreachable",
            stacklevel=2,
        )
