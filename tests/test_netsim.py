"""Network simulator tests: range, loss, determinism, message bound."""

import gc
import gzip
import hashlib
import pickle
import tracemalloc
import zlib
from types import FunctionType, ModuleType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socsim import messages as messages_module
from socsim import netsim
from socsim.harness import run
from socsim.mobility import TraceFrame
from socsim.messages import (
    HeadMsg,
    MemberMsg,
    RequestMsg,
    ResponseMsg,
    encode_payload,
    message_type,
)
from socsim.netsim import (
    BoundReport,
    BoundViolation,
    DeliveryLog,
    LogEntry,
    NetConfig,
    Network,
    audit_message_bound,
)
from socsim.opinions import Opinion, format_opinion
from socsim.percept import PerceptConfig, observe_block
from socsim.protocol import Agent, AgentKind, ProtocolConfig, Role

from conftest import counted, opinions, random_periods, range_table
from test_golden import CASES

STRONG = Opinion(0.9, 0.05, 0.05, 0.2)
RNG = np.random.default_rng(0)


def make_world(ids, coords, **proto_kwargs):
    cfg = ProtocolConfig(**proto_kwargs)
    agents = {aid: Agent(id=aid, config=cfg) for aid in ids}
    positions = {aid: coords[aid] for aid in ids}
    return cfg, agents, positions


def feed_mutual_percept(agents, positions, now, radius=10.0):
    for aid, agent in agents.items():
        ax, ay = positions[aid]
        neighbors = []
        index = {}
        for nid, (nx, ny) in positions.items():
            if nid == aid:
                continue
            dist = ((ax - nx) ** 2 + (ay - ny) ** 2) ** 0.5
            if dist <= radius:
                neighbors.append((nid, AgentKind.HUMAN_LINKED, dist))
                index[min(aid, nid), max(aid, nid)] = STRONG
        agent.apply_percept(index, tuple(neighbors), now)


class TestDelivery:
    def test_in_range_broadcast_delivered(self):
        _, agents, positions = make_world([1, 2], {1: (0.0, 0.0), 2: (5.0, 0.0)})
        net = Network(NetConfig(comm_range=25.0))
        net.step(0.0, range_table(positions, agents, net.config.comm_range), agents)
        head_entries = [e for e in net.log.entries if isinstance(e.message, HeadMsg)]
        assert head_entries
        assert all(e.delivered_to for e in head_entries)

    def test_out_of_range_never_delivered(self):
        _, agents, positions = make_world([1, 2], {1: (0.0, 0.0), 2: (30.0, 0.0)})
        net = Network(NetConfig(comm_range=25.0))
        for k in range(3):
            net.step(float(k), range_table(positions, agents, net.config.comm_range), agents)
        assert all(e.delivered_to == () for e in net.log.entries)

    def test_latency_delays_delivery(self):
        _, agents, positions = make_world([1, 2], {1: (0.0, 0.0), 2: (5.0, 0.0)})
        net = Network(NetConfig(latency=1))
        feed_mutual_percept(agents, positions, 0.0)
        net.step(0.0, range_table(positions, agents, net.config.comm_range), agents)
        # requests are sent but the responses only arrive a step later
        assert all(a.role is Role.CLUSTER_HEAD for a in agents.values())
        feed_mutual_percept(agents, positions, 1.0)
        net.step(1.0, range_table(positions, agents, net.config.comm_range), agents)
        net.step(2.0, range_table(positions, agents, net.config.comm_range), agents)
        roles = sorted(a.role.value for a in agents.values())
        assert roles == ["cluster_head", "member"]

    def test_position_without_agent_neither_receives_nor_counts(self):
        def run(stray):
            _, agents, positions = make_world([1, 2], {1: (0.0, 0.0), 2: (5.0, 0.0)})
            net = Network(NetConfig(loss_probability=0.3), seed=4)
            for k in range(4):
                feed_mutual_percept(agents, positions, float(k))
                in_range = range_table({**positions, **stray}, agents, net.config.comm_range)
                net.step(float(k), in_range, agents)
            return net.log

        log = run({3: (2.0, 0.0)})
        assert log.entries and all(3 not in e.delivered_to for e in log.entries)
        assert all(3 not in counts for counts in log.neighbor_counts.values())
        assert log == run({})

    def test_removed_agent_drops_pending_messages(self):
        _, agents, positions = make_world([1, 2], {1: (0.0, 0.0), 2: (5.0, 0.0)})
        net = Network(NetConfig(latency=2))
        net.step(0.0, range_table(positions, agents, net.config.comm_range), agents)
        del agents[2]
        positions.pop(2)
        net.step(1.0, range_table(positions, agents, net.config.comm_range), agents)
        in_range = range_table(positions, agents, net.config.comm_range)
        net.step(2.0, in_range, agents)  # queued deliveries to 2 are skipped


class TestRangeTable:
    """The percept's block pass builds the range table ``Network.step`` takes;
    ``conftest.range_table`` is the reference."""

    @pytest.mark.parametrize("comm_range", [0.5, 5.0, 10.0, 25.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_block_pass_matches_reference(self, seed, comm_range):
        rng = np.random.default_rng(seed)
        frames, observers = random_periods(rng, 12)
        cfg = PerceptConfig(observation_radius=min(comm_range, 10.0))
        block = observe_block(frames, observers, cfg, rng, comm_range=comm_range)
        for frame, agents, (_, table) in zip(frames, observers, block):
            # the positions of agentless ids are strays: not agents
            positions = dict(zip(frame.ids, map(tuple, frame.pos.tolist())))
            assert table == range_table(positions, set(agents), comm_range)
            assert list(table) == agents

    def test_range_is_inclusive(self):
        # 3-4-5 triangles: a squared distance of exactly comm_range ** 2 is in range
        frame = TraceFrame(
            0.0, (3, 1, 2), np.array([[6.0, 8.0], [0.0, 0.0], [3.0, 4.0]]), np.zeros(3)
        )
        [(_, table)] = observe_block([frame], [[1, 2, 3]], PerceptConfig(), RNG, comm_range=5.0)
        assert table == {1: (2,), 2: (1, 3), 3: (2,)}


class TestRequestRounds:
    def test_lone_head_asks_once_every_short_period(self):
        # k * 0.1 + 0.1 rounds above (k + 1) * 0.1 for some k; no period is skipped
        _, agents, positions = make_world([1], {1: (0.0, 0.0)}, period=0.1)
        rounds = []
        agents[1].get_candidate = rounds.append
        net = Network(NetConfig())
        for k in range(101):
            net.step(k * 0.1, range_table(positions, agents, net.config.comm_range), agents)
        assert len(rounds) == 101


class TestDeterminism:
    def run_lossy(self, seed):
        _, agents, positions = make_world(
            [1, 2, 3], {1: (0.0, 0.0), 2: (4.0, 0.0), 3: (0.0, 4.0)}
        )
        net = Network(NetConfig(loss_probability=0.5), seed=seed)
        for k in range(10):
            feed_mutual_percept(agents, positions, float(k))
            net.step(float(k), range_table(positions, agents, net.config.comm_range), agents)
        return [e.wire_line() for e in net.log.entries]

    def test_same_seed_identical_log(self):
        assert self.run_lossy(7) == self.run_lossy(7)

    def test_different_seed_differs(self):
        assert self.run_lossy(7) != self.run_lossy(8)


class TestMessageBound:
    def test_isolated_agent_meets_unit_bound(self):
        _, agents, positions = make_world([1], {1: (0.0, 0.0)})
        net = Network(NetConfig())
        for k in range(6):
            net.step(float(k), range_table(positions, agents, net.config.comm_range), agents)
        report = audit_message_bound(net.log, window=6)
        assert report.ok
        emitted = [e for e in net.log.entries if e.sender == 1]
        assert len(emitted) == 6  # one head message per cycle, bound (2*0+1)*6

    def test_empty_log_empty_report(self):
        report = audit_message_bound(DeliveryLog(), window=4)
        assert report == BoundReport(windows_checked=0, violations=())

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            audit_message_bound(DeliveryLog(), window=0)

    def test_random_scenarios_within_bound(self):
        rng = np.random.default_rng(13)
        for trial in range(5):
            n = int(rng.integers(2, 9))
            coords = {i: (float(rng.uniform(0, 30)), float(rng.uniform(0, 30))) for i in range(n)}
            _, agents, positions = make_world(list(range(n)), coords)
            net = Network(NetConfig(), seed=trial)
            for k in range(30):
                feed_mutual_percept(agents, positions, float(k))
                net.step(float(k), range_table(positions, agents, net.config.comm_range), agents)
            for window in (1, 5, 30):
                report = audit_message_bound(net.log, window=window)
                assert report.ok, report.violations


class TestScheduler:
    def test_reversed_scheduler_changes_processing_order(self):
        logs = []
        for scheduler in (None, lambda now, ready: len(ready) - 1):
            _, agents, positions = make_world(
                [1, 2], {1: (0.0, 0.0), 2: (5.0, 0.0)}
            )
            net = Network(NetConfig(), scheduler=scheduler)
            feed_mutual_percept(agents, positions, 0.0)
            net.step(0.0, range_table(positions, agents, net.config.comm_range), agents)
            logs.append([e.wire_line() for e in net.log.entries])
            heads = [a for a in agents.values() if a.role is Role.CLUSTER_HEAD]
            assert len(heads) == 1
            assert heads[0].members == {1, 2}
        assert logs[0] != logs[1]

    def test_scheduler_view_pinned(self):
        # every ready tuple a scheduler sees, as (target, tag, sender) rows,
        # under loss, latency and an injected handover
        views = []

        def last(now, ready):
            views.append(repr([(d.target, message_type(d.message), d.sender) for d in ready]))
            return len(ready) - 1

        _, agents, positions = make_world(range(5), {i: (3.0 * i, 0.0) for i in range(5)})
        net = Network(NetConfig(loss_probability=0.3, latency=1), seed=3, scheduler=last)
        for k in range(6):
            feed_mutual_percept(agents, positions, float(k))
            net.step(float(k), range_table(positions, agents, net.config.comm_range), agents)
            if k == 2:
                net.inject(float(k), 1, [(HeadMsg(3, frozenset({1, 3}), frozenset({1, 3})), None)])
        digest = hashlib.sha256("\n".join(views).encode()).hexdigest()
        assert len(views) == 86
        assert digest == "0537372a7fc63a2574113d92aae72322557d9f6bef78788745f5b901f195d9ec"

    def test_fifo_matches_a_scheduler_that_picks_the_first(self):
        # the default walks each emission's receivers in order, exactly as a
        # scheduler taking index 0 of the per-receiver view does
        def run(scheduler):
            handled = []
            _, agents, positions = make_world(range(5), {i: (3.0 * i, 0.0) for i in range(5)})
            for agent in agents.values():
                def recording(msg, sender, now, *note, agent=agent, handle=agent.handle_message):
                    handled.append((agent.id, message_type(msg), sender))
                    return handle(msg, sender, now, *note)

                agent.handle_message = recording
            net = Network(NetConfig(loss_probability=0.3), seed=3, scheduler=scheduler)
            for k in range(6):
                feed_mutual_percept(agents, positions, float(k))
                net.step(float(k), range_table(positions, agents, net.config.comm_range), agents)
            return handled, net.log.entries

        fifo = run(None)
        first = run(lambda now, ready: 0)
        assert fifo[0] == first[0]
        assert [e.wire_line() for e in fifo[1]] == [e.wire_line() for e in first[1]]
        # deliveries as the log records them: a head message reaches only the
        # handlers it concerns, so handler calls are fewer
        assert sum(len(e.delivered_to) for e in fifo[1]) > 50


def run_triad(steps=12, **proto_kwargs):
    """A settled three-agent cluster in range of each other, without loss."""
    _, agents, positions = make_world(
        [1, 2, 3], {1: (0.0, 0.0), 2: (4.0, 0.0), 3: (0.0, 4.0)}, **proto_kwargs
    )
    net = Network(NetConfig())
    for k in range(steps):
        feed_mutual_percept(agents, positions, float(k))
        net.step(float(k), range_table(positions, agents, net.config.comm_range), agents)
    return agents, net


def capture_appends(monkeypatch) -> list[LogEntry]:
    """Record each emission as the log's one append path receives it, before
    it is encoded."""
    captured = []
    append = DeliveryLog.append

    def capture(log, *emission):
        captured.append(LogEntry(*emission))
        append(log, *emission)

    monkeypatch.setattr(DeliveryLog, "append", capture)
    return captured


class TestSharing:
    def test_unchanged_cluster_sends_one_member_set(self, monkeypatch):
        # the log holds wire lines, so the objects sent are read where they are appended
        emitted = capture_appends(monkeypatch)
        agents, _ = run_triad()
        assert agents[1].members == {1, 2, 3}
        sent = [e.message for e in emitted if isinstance(e.message, HeadMsg)]
        assert all(m.agent_members is m.human_members for m in sent)
        settled = [m for m in sent if m.head == 1 and m.agent_members == {1, 2, 3}]
        assert len(settled) >= 5
        assert all(m.agent_members is settled[0].agent_members for m in settled)
        assert settled[-1].agent_members is agents[1].members
        # the member adopted the head's own set
        assert agents[2].members is agents[1].members

    def test_detached_humans_equal_to_members_are_that_set(self):
        agents, net = run_triad(detach_extension=True)
        head = agents[1]
        assert head.human_members == head.members
        assert head.human_members is head.members

    def test_unchanged_range_keeps_receivers_and_counts(self):
        _, net = run_triad(steps=3)
        broadcasts = [e for e in net.log.entries if e.sender == 1 and e.target is None]
        assert len({id(e.delivered_to) for e in broadcasts}) == 1
        # each step's ids and counts are the first step's own objects
        counts = net.log.neighbor_counts
        assert len(counts) == 3
        assert all(ids is counts._ids[0] for ids in counts._ids)
        assert all(c is counts._counts[0] for c in counts._counts)


class TestWrite:
    def big_log(self):
        _, net = run_triad()
        log = DeliveryLog()
        for _ in range(400):
            for entry in net.log.entries:
                log.append(*entry)
        body = "".join(e.wire_line() + "\n" for e in log.entries).encode("utf-8")
        return log, body

    def test_plain_log_is_the_wire_lines(self, tmp_path):
        log, body = self.big_log()
        assert len(log.chunks) > 1 and log.body() == body
        log.write(tmp_path / "messages.log")
        assert (tmp_path / "messages.log").read_bytes() == body

    def test_gzip_log_is_one_shot_compression(self, tmp_path):
        # written chunk by chunk, the raw .gz bytes are those of one call on the body
        log, body = self.big_log()
        log.write(tmp_path / "messages.log.gz")
        expected = tmp_path / "expected.gz"
        with open(expected, "wb") as raw:
            with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as fh:
                fh.write(body)
        assert (tmp_path / "messages.log.gz").read_bytes() == expected.read_bytes()
        assert log.body() == body

    @pytest.mark.parametrize("name", ["messages.log", "messages.log.gz"])
    def test_failed_write_leaves_previous_file(self, tmp_path, name):
        log, _ = self.big_log()
        path = tmp_path / name
        log.write(path)
        before = path.read_bytes()
        # the second chunk's lines are not zlib data: the write fails after the first chunk
        log.chunks[1] = (b"not zlib", log.chunks[1][1])
        with pytest.raises(zlib.error):
            log.write(path)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_plain_write_streams(self, tmp_path):
        log, body = self.big_log()
        assert len(body) > 500_000
        tracemalloc.start()
        try:
            log.write(tmp_path / "messages.log")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (tmp_path / "messages.log").stat().st_size

    def test_gzip_write_streams(self, tmp_path):
        # the chunks go to the compressor one at a time, never joined: the
        # peak is the compressor's state and one chunk, below the body's size
        log, body = self.big_log()
        tracemalloc.start()
        try:
            log.write(tmp_path / "messages.log.gz")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(body)
        with gzip.open(tmp_path / "messages.log.gz", "rb") as fh:
            assert fh.read() == body

    def test_memoised_encoding_is_the_wire_lines(self, tmp_path, monkeypatch):
        members = frozenset({1, 2})
        op = Opinion(0.5, 0.25, 0.25, 0.2)
        zero = Opinion(0.0, 0.5, 0.5, 0.2)
        messages = [
            HeadMsg(1, members, members),
            HeadMsg(1, members, members),
            # equal to the head message above, but not the same objects
            HeadMsg(1, frozenset({2, 1}), frozenset({1, 2})),
            RequestMsg(1, frozenset({1, 2})),
            MemberMsg(2, 1, {(1, 2): op, (2, 3): op}),
            # the same pair with an equal opinion that is another object
            MemberMsg(3, 1, {(1, 2): Opinion(0.5, 0.25, 0.25, 0.2)}),
            MemberMsg(2, 1, {(1, 2): Opinion(0.5, 0.3, 0.2, 0.2)}),
            MemberMsg(2, 1, {(1, 2): zero}),
            MemberMsg(2, 1, {(1, 2): Opinion(-0.0, 0.5, 0.5, 0.2)}),
            MemberMsg(2, 1, {(1, 2): zero}),
        ]
        emissions = [
            LogEntry(k, float(k), m, m[0], None, (1, 2, 3))
            for k, m in enumerate(messages)
        ]
        expected = "".join(e.wire_line() + "\n" for e in emissions)
        assert "1:2:-0.0,0.5,0.5,0.2" in expected
        payloads, opinions = [], []
        monkeypatch.setattr(messages_module, "encode_payload", counted(encode_payload, payloads))
        monkeypatch.setattr(messages_module, "format_opinion", counted(format_opinion, opinions))
        # the log encodes each emission as it is appended
        log = DeliveryLog()
        for emission in emissions:
            log.append(*emission)
        log.write(tmp_path / "messages.log")
        assert (tmp_path / "messages.log").read_text() == expected
        # one head and one request payload; (1, 2) formatted for the first,
        # the changed and each zero opinion, and (2, 3) once
        assert len(payloads) == 2
        assert len(opinions) == 6


class TestChunks:
    """The body is sealed into zlib chunks after whole lines once the open
    tail reaches ``CHUNK_BYTES``; reads and writes see one continuous body."""

    @staticmethod
    def filled_log() -> tuple[DeliveryLog, list[LogEntry]]:
        """Two sealed chunks and an open tail, from the triad run's emissions."""
        _, net = run_triad()
        source = list(net.log.entries)
        log, appended = DeliveryLog(), []
        while len(log.chunks) < 2 or len(log.tail) < 1000:
            for entry in source:
                log.append(*entry)
                appended.append(entry)
        return log, appended

    def test_chunks_hold_whole_lines(self):
        log, appended = self.filled_log()
        longest = max(len(e.wire_line()) + 1 for e in appended)
        counts = log.chunk_counts
        assert len(counts) == len(log.chunks) + 1 and counts[0] == 0
        for (lines, records), first, end in zip(log.chunks, counts, counts[1:]):
            text = zlib.decompress(lines)
            assert text == "".join(e.wire_line() + "\n" for e in appended[first:end]).encode()
            assert log.CHUNK_BYTES <= len(text) < log.CHUNK_BYTES + longest
            sealed = [(e.step, e.sender, e.delivered_to) for e in appended[first:end]]
            assert pickle.loads(zlib.decompress(records)) == sealed
        assert 0 < len(log.tail) < log.CHUNK_BYTES
        assert counts[-1] + len(log.records) == len(appended)
        assert log.records == [(e.step, e.sender, e.delivered_to) for e in appended[counts[-1] :]]

    def test_lines_either_side_of_a_seal_decode(self):
        log, appended = self.filled_log()
        entries, n = log.entries, len(appended)
        lasts = [count - 1 for count in log.chunk_counts[1:]]
        for k in sorted({0, n - 1} | {i + d for i in lasts for d in (-1, 0, 1, 2)}):
            expected = appended[k].wire_line()
            assert entries[k].wire_line() == expected
            assert entries[k - n].wire_line() == expected
        # reading back to an earlier chunk decompresses that chunk again
        assert entries[lasts[1]].wire_line() == appended[lasts[1]].wire_line()
        assert entries[0].wire_line() == appended[0].wire_line()
        assert [e.wire_line() for e in entries] == [e.wire_line() for e in appended]

    def test_equal_runs_compare_equal(self, tmp_path):
        case = CASES["short_period_handover"]
        first, second = (run(case(tmp_path)).network.log for _ in range(2))
        assert len(first.chunks) > 1 and first == second
        second.append(0, 0.0, RequestMsg(1, frozenset({1, 2})), 1, 2, (2,))
        assert first != second


def reference_audit(entries, neighbor_counts, window: int) -> BoundReport:
    """The (2n+1) audit as a loop over decoded log entries."""
    if not entries:
        return BoundReport(windows_checked=0, violations=())
    emitted: dict[int, dict[int, int]] = {}
    for entry in entries:
        emitted.setdefault(entry.sender, {}).setdefault(entry.step, 0)
        emitted[entry.sender][entry.step] += 1
    last_step = max(e.step for e in entries)
    violations = []
    checked = 0
    for agent in sorted(emitted):
        for start in range(0, last_step + 1, window):
            steps = range(start, min(start + window, last_step + 1))
            count = sum(emitted[agent].get(s, 0) for s in steps)
            if count == 0:
                continue
            checked += 1
            peak = max((neighbor_counts.get(s, {}).get(agent, 0) for s in steps), default=0)
            bound = (2 * peak + 1) * len(steps)
            if count > bound:
                violations.append(BoundViolation(agent, start, count, bound, peak))
    return BoundReport(windows_checked=checked, violations=tuple(violations))


def scheduled_log() -> DeliveryLog:
    """A run under an adversarial scheduler, with loss, latency and an
    injected handover."""
    _, agents, positions = make_world(range(5), {i: (3.0 * i, 0.0) for i in range(5)})
    net = Network(
        NetConfig(loss_probability=0.3, latency=1),
        seed=3,
        scheduler=lambda now, ready: len(ready) - 1,
    )
    for k in range(8):
        feed_mutual_percept(agents, positions, float(k))
        net.step(float(k), range_table(positions, agents, net.config.comm_range), agents)
        if k == 2:
            net.inject(float(k), 1, [(HeadMsg(3, frozenset({1, 3}), frozenset({1, 3})), None)])
    return net.log


class TestLogOracle:
    """The log holds only wire bytes and columns; what it gives back must be
    what each emission sent."""

    @pytest.mark.parametrize("name", sorted(CASES) + ["scheduler"])
    def test_log_reads_back_every_emission(self, name, monkeypatch, tmp_path):
        captured = capture_appends(monkeypatch)
        log = scheduled_log() if name == "scheduler" else run(CASES[name](tmp_path)).network.log
        assert captured and len(log.entries) == len(captured)
        for decoded, sent in zip(log.entries, captured):
            for field in LogEntry._fields:
                assert getattr(decoded, field) == getattr(sent, field), (field, sent)
        assert log.body() == "".join(e.wire_line() + "\n" for e in captured).encode("utf-8")
        # the length and the audit read the side records alone
        monkeypatch.setattr(netsim, "decode_record", None)
        assert len(log.entries) == len(captured)
        for window in (1, 5, 30):
            expected = reference_audit(captured, log.neighbor_counts, window)
            assert audit_message_bound(log, window) == expected
        assert expected.windows_checked > 0

    def test_log_keeps_no_member_message(self, monkeypatch, tmp_path):
        # what receivers evict is freed: nothing of a member message stays
        # reachable from the log, neither the message nor its opinion dict;
        # a receiver tuple is held only by the open chunk's side records
        captured = capture_appends(monkeypatch)
        # small chunks, so that the run seals several
        monkeypatch.setattr(DeliveryLog, "CHUNK_BYTES", 4096)
        log = run(CASES["quick"](tmp_path)).network.log
        indices = {id(e.message.opinions) for e in captured if isinstance(e.message, MemberMsg)}
        receivers = {id(e.delivered_to) for e in captured if e.delivered_to}
        assert indices and log.chunks and log.records
        seen, stack = set(), [log]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (type, ModuleType, FunctionType)):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, MemberMsg)
            assert id(obj) not in indices
            stack.extend(gc.get_referents(obj))
        held = {id(r) for _, _, r in log.records if r}
        assert held and seen & receivers == held


big_ids = st.integers(min_value=0, max_value=2**63 - 1)
optional_ids = st.none() | big_ids
id_sets = st.frozensets(big_ids, max_size=4)
pair_indexes = st.dictionaries(
    st.tuples(big_ids, big_ids).filter(lambda p: p[0] < p[1]), opinions(), max_size=3
)


@st.composite
def emissions(draw, steps: int, senders) -> LogEntry:
    """One emission as ``Network._emit`` hands it to the log: any message
    kind, a sender that the wire line can carry back, and empty, single or
    many receivers."""
    sender = draw(senders)
    message = draw(
        st.one_of(
            st.builds(HeadMsg, big_ids, id_sets, id_sets),
            st.builds(RequestMsg, big_ids, id_sets),
            st.builds(ResponseMsg, st.just(sender), st.booleans(), optional_ids, st.none() | id_sets),
            st.builds(MemberMsg, st.just(sender), big_ids, pair_indexes),
        )
    )
    many = st.lists(big_ids, min_size=2, max_size=40).map(tuple)
    receivers = draw(st.just(()) | st.tuples(big_ids) | many)
    return LogEntry(
        draw(st.integers(0, steps)),
        draw(st.floats(min_value=0, max_value=1e6, allow_nan=False)),
        message,
        sender,
        draw(optional_ids),
        receivers,
    )


@st.composite
def step_counts(draw, pool: list[int]) -> tuple[tuple[int, ...], list[int]]:
    """One step's ascending agent ids and their counts: small counts for some
    agents of ``pool``, the senders that may exceed their bound, and a run of
    up to 300 other ids, whose counts may exceed 255."""
    counts = {a: draw(st.integers(0, 2)) for a in pool if draw(st.booleans())}
    n = draw(st.integers(0, 300))
    first = draw(st.integers(0, 2**63 - 1 - n))
    scale = draw(st.integers(1, 7))
    counts.update((first + k, k * scale % n) for k in range(n))
    ids = tuple(sorted(counts))
    return ids, [counts[a] for a in ids]


class TestLogReference:
    """The log against the emissions it was handed, kept as ``LogEntry``s,
    and plain dicts of neighbour counts."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), chunk_bytes=st.integers(1, 600))
    def test_matches_captured_emissions(self, data, chunk_bytes, tmp_path_factory):
        log = DeliveryLog()
        # small chunks put lines on either side of several seals
        log.CHUNK_BYTES = chunk_bytes
        pool = data.draw(st.lists(big_ids, min_size=1, max_size=5, unique=True))
        steps = data.draw(st.lists(step_counts(pool) | st.just(None), max_size=12))
        reference, ids, counts = {}, (), []
        for step, drawn in enumerate(steps):
            # None repeats the previous step's counts
            ids, counts = drawn or (ids, counts)
            log.neighbor_counts.append(ids, counts)
            reference[step] = dict(zip(ids, counts))
        captured, view = [], log.entries
        senders = st.sampled_from(pool) | big_ids
        for entry in data.draw(st.lists(emissions(len(steps), senders), max_size=60)):
            log.append(*entry)
            captured.append(entry)
            if data.draw(st.booleans()):
                # a view read while the log grows sees every append
                assert view[-1] == entry and len(view) == len(captured)
        entries, n = log.entries, len(captured)
        assert len(entries) == n and list(entries) == captured
        assert [entries[k] for k in reversed(range(n))] == captured[::-1]
        for k in data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=5)) if n else ():
            assert entries[k] == captured[k] and entries[k - n] == captured[k]
        bound = st.none() | st.integers(-n - 2, n + 2)
        stride = st.sampled_from([None, 1, 2, -1, -3])
        cut = slice(*data.draw(st.tuples(bound, bound, stride)))
        assert entries[cut] == captured[cut]
        for k in (n, -n - 1):
            with pytest.raises(IndexError):
                entries[k]
        assert log.neighbor_counts == reference and dict(log.neighbor_counts) == reference
        assert log.neighbor_counts.get(-1) is None and len(steps) not in log.neighbor_counts
        for window in (1, 2, 5):
            expected = reference_audit(captured, reference, window)
            assert audit_message_bound(log, window) == expected
        body = "".join(e.wire_line() + "\n" for e in captured).encode("utf-8")
        assert log.body() == body
        out = tmp_path_factory.mktemp("log")
        log.write(out / "messages.log")
        log.write(out / "messages.log.gz")
        assert (out / "messages.log").read_bytes() == body
        assert gzip.decompress((out / "messages.log.gz").read_bytes()) == body


class TestRangeWarning:
    def test_warns_when_comm_range_below_social(self):
        from socsim.netsim import warn_if_range_below_social

        with pytest.warns(UserWarning):
            warn_if_range_below_social(NetConfig(comm_range=5.0), social_distance=10.0)
