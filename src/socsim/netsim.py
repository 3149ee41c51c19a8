"""Deterministic discrete-event broadcast network.

One network step equals one protocol period: deliveries due this step are
applied first, then every agent ticks in ascending id order, then heads
attempt one request each. Broadcasts fan out to every agent within
communication range of the sender at emission time; unicasts deliver only
if the target is in range. Each delivery is independently dropped with the
configured loss probability from a seeded generator, so a (scenario, seed)
pair fully determines the delivery log. The log lists every receiver of an
emission, but a head message reaches only the handlers it concerns: the
others would leave their agent unchanged (``protocol.concerned_receivers``).
"""

from __future__ import annotations

import gzip
import pickle
import warnings
import zlib
from array import array
from bisect import bisect_right
from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .files import atomic_write
from .messages import HeadMsg, LineEncoder, Message, decode_record, encode_record
from .protocol import Agent, concerned_receivers
from .schema import HALF_OPEN_UNIT, NON_NEGATIVE, POSITIVE, check, ranged

# A scheduler picks the index of the next ready delivery, one per receiver of
# a queued emission; the default is FIFO in sequence order. Adversarial
# schedulers permute same-step deliveries to explore protocol interleavings.
Scheduler = Callable[[float, Sequence["QueuedDelivery"]], int]


@dataclass
class NetConfig:
    comm_range: float = ranged(POSITIVE, 25.0)
    loss_probability: float = ranged(HALF_OPEN_UNIT, 0.0)
    latency: int = ranged(NON_NEGATIVE, 0)  # steps

    def __post_init__(self) -> None:
        check(self)


class QueuedDelivery(NamedTuple):
    target: int
    message: Message
    sender: int


class LogEntry(NamedTuple):
    step: int
    time: float
    message: Message
    sender: int
    target: Optional[int]
    delivered_to: tuple[int, ...]

    def wire_line(self) -> str:
        return encode_record(self.time, self.message, self.sender, self.target)


class NeighborCounts(Mapping):
    """Read-only ``step -> {agent id: number of agents within comm range}``.
    Per step it holds the ascending ids and an array of counts, each the
    previous step's own object when equal to it."""

    def __init__(self) -> None:
        self._ids: list[tuple[int, ...]] = []
        self._counts: list[array] = []

    def append(self, ids: tuple[int, ...], counts: list[int]) -> None:
        """Record the next step's counts, ``counts[i]`` that of ``ids[i]``."""
        counts = array("I", counts)
        if self._ids:
            ids = self._ids[-1] if self._ids[-1] == ids else ids
            counts = self._counts[-1] if self._counts[-1] == counts else counts
        self._ids.append(ids)
        self._counts.append(counts)

    def __getitem__(self, step: int) -> dict[int, int]:
        if not 0 <= step < len(self._ids):
            raise KeyError(step)
        return dict(zip(self._ids[step], self._counts[step]))

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._ids)))

    def __len__(self) -> int:
        return len(self._ids)


class DeliveryLog:
    """Every emission of a run, held as the wire lines the log file gets.

    ``append`` encodes an emission's line once and keeps its side record
    (step, sender, receivers). Once the open tail of lines reaches
    ``CHUNK_BYTES``, after a whole line, it is sealed with its records into
    a chunk of two zlib (level 1) strings: the lines and the pickled
    records. No message object is kept: ``entries`` decodes when read."""

    CHUNK_BYTES = 1 << 16

    def __init__(self) -> None:
        self.chunks: list[tuple[bytes, bytes]] = []
        # the first emission of each chunk and of the tail
        self.chunk_counts = array("q", [0])
        self.tail = bytearray()
        self.records: list[tuple[int, int, tuple[int, ...]]] = []
        self.neighbor_counts = NeighborCounts()
        self._encode = LineEncoder()

    def append(
        self,
        step: int,
        time: float,
        message: Message,
        sender: int,
        target: Optional[int],
        receivers: tuple[int, ...],
    ) -> None:
        tail = self.tail
        tail += self._encode(time, message, sender, target).encode("utf-8")
        self.records.append((step, sender, receivers))
        if len(tail) >= self.CHUNK_BYTES:
            self.chunks.append((zlib.compress(tail, 1), zlib.compress(pickle.dumps(self.records), 1)))
            self.chunk_counts.append(self.chunk_counts[-1] + len(self.records))
            self.tail, self.records = bytearray(), []

    def chunk(self, c: int) -> tuple[list[bytes], list[tuple]]:
        """Chunk ``c``'s lines and side records; chunk ``len(chunks)`` is the tail."""
        if c == len(self.chunks):
            return self.tail.split(b"\n"), self.records
        lines, records = self.chunks[c]
        return zlib.decompress(lines).split(b"\n"), pickle.loads(zlib.decompress(records))

    def side_records(self) -> Iterator[tuple[int, int, tuple[int, ...]]]:
        """Every emission's side record in order, one chunk at a time."""
        for _, records in self.chunks:
            yield from pickle.loads(zlib.decompress(records))
        yield from self.records

    def _body_parts(self) -> Iterator[bytes]:
        """The whole body in order, one decompressed chunk at a time."""
        for lines, _ in self.chunks:
            yield zlib.decompress(lines)
        yield bytes(self.tail)

    def body(self) -> bytes:
        """The whole body: every wire line, in emission order."""
        return b"".join(self._body_parts())

    @property
    def entries(self) -> LogEntries:
        return LogEntries(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeliveryLog):
            return NotImplemented
        # records are compared decoded: pickle writes a shared tuple once
        mine, theirs = ((log.body(), [*log.side_records()], log.neighbor_counts) for log in (self, other))
        return mine == theirs

    def write(self, path) -> None:
        """Write the wire lines to ``path``, chunk by chunk, through a temp
        file renamed into place once whole. A gzip log (a ``.gz`` name) feeds
        the chunks to one compressor and never flushes it, so its bytes are
        those of one call on the whole body: zlib's output does not depend on
        how its input is split into calls, only a flush changes it."""
        with atomic_write(path, "wb") as raw:
            if str(path).endswith(".gz"):
                # fixed mtime and empty name keep the output reproducible
                with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as fh:
                    fh.writelines(self._body_parts())
            else:
                raw.writelines(self._body_parts())


class LogEntries(Sequence):
    """A log's emissions as ``LogEntry``s, decoded when read; ``len`` decodes nothing.
    A read keeps its chunk for the next, so reading in order decompresses each once."""

    def __init__(self, log: DeliveryLog) -> None:
        self._log, self._n, self._first, self._lines, self._records = log, -1, 0, [], []

    def __len__(self) -> int:
        return self._log.chunk_counts[-1] + len(self._log.records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(len(self))[index]]
        log, n = self._log, len(self)
        k = range(n)[index] - self._first
        # a read outside the kept chunk, or of a log that has grown, finds its chunk
        if n != self._n or not 0 <= k < len(self._records):
            k += self._first
            c = bisect_right(log.chunk_counts, k) - 1
            self._n, self._first = n, log.chunk_counts[c]
            self._lines, self._records = log.chunk(c)
            k -= self._first
        step, _, receivers = self._records[k]
        time, message, sender, target = decode_record(self._lines[k].decode("utf-8"))
        return LogEntry(step, time, message, sender, target, receivers)


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
    """Delivers protocol messages among agents, in range by each step's range table."""

    def __init__(
        self,
        config: NetConfig,
        seed: int = 0,
        scheduler: Optional[Scheduler] = None,
    ) -> None:
        self.config = config
        self.scheduler = scheduler
        self.log = DeliveryLog()
        self.latest_head_msgs: dict[int, HeadMsg] = {}
        self._rng = np.random.default_rng(seed)
        # due step -> its emissions in sequence order, each (message, sender,
        # receivers, note) with the receivers in delivery order and the note
        # what the emission carries beside the message: [] or [StrongPairs]
        self._queue: dict[int, deque[tuple[Message, int, tuple[int, ...], list]]] = {}
        self._step_no = -1
        # sender -> ascending ids of the other agents within comm range,
        # the latest step's range table
        self._receivers: dict[int, tuple[int, ...]] = {}

    # ------------------------------------------------------------------

    def step(
        self,
        now: float,
        in_range: Mapping[int, tuple[int, ...]],
        agents: dict[int, Agent],
    ) -> None:
        """Run one protocol period at simulation time ``now``. ``in_range`` is
        the period's range table: each agent present maps to the ascending ids
        of the other agents within comm range (``percept.observe_block``)."""
        self._step_no += 1
        self._set_range(in_range)
        order = sorted(agents)
        self._drain(now, agents)
        for aid in order:
            self._emit(now, aid, agents[aid].tick(now))
        self._drain(now, agents)
        for aid in order:
            agent = agents[aid]
            candidate = agent.get_candidate(now)
            if candidate is not None:
                self._emit(now, aid, agent.send_request(candidate, now))
        self._drain(now, agents)

    def inject(self, now: float, sender: int, emissions) -> None:
        """Schedule externally produced emissions (e.g. a departure
        handover) for delivery in the upcoming step. Range is that of the
        latest step's range table."""
        self._emit(now, sender, emissions, deliver_step=self._step_no + 1)

    # ------------------------------------------------------------------

    def _set_range(self, in_range: Mapping[int, tuple[int, ...]]) -> None:
        """Take this step's range table and record each agent's count of
        receivers. A receiver tuple equal to the previous step's keeps its
        object: the log's open records hold the tuples, and pickle writes each once."""
        previous = self._receivers
        table = {}
        for aid in sorted(in_range):
            now_in_range = in_range[aid]
            before = previous.get(aid)
            table[aid] = before if before == now_in_range else now_in_range
        self._receivers = table
        self.log.neighbor_counts.append(tuple(table), [len(r) for r in table.values()])

    def _emit(self, now: float, sender: int, emissions, deliver_step: Optional[int] = None) -> None:
        cfg = self.config
        base_step = self._step_no if deliver_step is None else deliver_step
        for message, target, *note in emissions:
            if isinstance(message, HeadMsg) and message.head == sender:
                self.latest_head_msgs[sender] = message
            in_range = self._receivers.get(sender)
            if in_range is None:
                receivers = ()
            elif target is None:
                receivers = in_range
            else:
                receivers = (target,) if target in in_range else ()
            if cfg.loss_probability > 0.0 and receivers:
                # one uniform per receiver in range, in receiver order
                kept = self._rng.random(len(receivers)) >= cfg.loss_probability
                receivers = tuple(compress(receivers, kept.tolist()))
            if receivers:
                queue = self._queue.setdefault(base_step + cfg.latency, deque())
                queue.append((message, sender, receivers, note))
            self.log.append(base_step, now, message, sender, target, receivers)

    def _drain(self, now: float, agents: dict[int, Agent]) -> None:
        # FIFO walks each emission's receivers in order; what handlers emit
        # meanwhile queues behind them
        while True:
            ready = self._queue.get(self._step_no)
            if not ready:
                self._queue.pop(self._step_no, None)
                return
            if self.scheduler is None:
                message, sender, receivers, note = ready.popleft()
            else:
                # the scheduler picks one delivery per receiver; the rest stay queued one by one
                single = [(m, s, (r,), n) for m, s, rs, n in ready for r in rs]
                view = tuple(QueuedDelivery(rs[0], m, s) for m, s, rs, _ in single)
                message, sender, receivers, note = single.pop(self.scheduler(now, view))
                ready.clear()
                ready.extend(single)
            if isinstance(message, HeadMsg):
                # tested when popped: an earlier delivery may have moved a head_id
                receivers = concerned_receivers(message, receivers, agents)
            for target in receivers:
                agent = agents.get(target)
                if agent is None:
                    continue
                out = agent.handle_message(message, sender, now, *note)
                if out:
                    self._emit(now, target, out)


def audit_message_bound(log: DeliveryLog, window: int) -> BoundReport:
    """Check the per-agent message bound: within any window of ``window``
    protocol cycles an agent may emit at most (2n + 1) messages per cycle,
    with n its peak in-communication-range neighbor count in the window."""
    if window <= 0:
        raise ValueError("window must be a positive number of cycles")
    emitted: dict[int, dict[int, int]] = {}
    for step, sender, _ in log.side_records():
        per_step = emitted.setdefault(sender, {})
        per_step[step] = per_step.get(step, 0) + 1
    last_step = max((max(per_step) for per_step in emitted.values()), default=-1)
    violations: list[BoundViolation] = []
    checked = 0
    for start in range(0, last_step + 1, window):
        steps = range(start, min(start + window, last_step + 1))
        # each step's counts are decoded once, for every agent
        counts = [log.neighbor_counts.get(s, {}) for s in steps]
        for agent, per_step in emitted.items():
            count = sum(per_step.get(s, 0) for s in steps)
            if count == 0:
                continue
            checked += 1
            peak = max((c.get(agent, 0) for c in counts), default=0)
            bound = (2 * peak + 1) * len(steps)
            if count > bound:
                violations.append(BoundViolation(agent, start, count, bound, peak))
    violations.sort(key=lambda v: (v.agent, v.window_start))
    return BoundReport(windows_checked=checked, violations=tuple(violations))


def warn_if_range_below_social(net: NetConfig, social_distance: float) -> None:
    if net.comm_range < social_distance:
        warnings.warn(
            "communication range is below the protocol social distance; "
            "candidates may be unreachable",
            stacklevel=2,
        )
