"""Scenario configuration, trace ingestion, and experiment orchestration.

A scenario bundles a trace source (synthetic mobility or replayed CSV
files) with protocol, network and percept parameters. ``run`` drives the
full pipeline trace -> percept -> network+protocol -> metrics and writes
plot-ready CSV outputs as it goes; ``sweep`` repeats it over one swept
parameter with derived seeds. Everything is deterministic per (scenario, seed).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import json
import math
from array import array
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import mobility, percept
from .files import Outputs, TraceFrames, _median_step, _nearest, atomic_write, table_writer
# perfbench wraps ingest_trace on this module, and the run calls it through that name
from .files import ingest_trace, read_situations
# perfbench and the CLI write traces, truth and metrics through these names
from .files import write_ground_truth, write_metrics, write_trace  # noqa: F401
from .metrics import Partition, scores, series_summary
# perfbench wraps these names on this module in traced runs, so they stay importable here
from .metrics import adjusted_rand_index, jaccard_index, pair_counts, rand_index  # noqa: F401
from .mobility import GroundTruth, MobilityConfig, TraceFrame
from .netsim import DeliveryLog, NetConfig, Network, warn_if_range_below_social
from .opinions import BASE_RATE_TOL
from .percept import PerceptConfig
from .protocol import PERIOD_TOL, Agent, AgentKind, ProtocolConfig, Role, StrongPairs
from .schema import FINITE, NON_NEGATIVE, POSITIVE, AgentId, SchemaError, build, check
from .schema import ranged


# the config field each sweepable parameter sets
SWEPT_FIELDS = {
    "moving_group_ratio": "source.mobility.moving_group_ratio",
    "n_agents": "source.mobility.n_agents",
    "loss": "net.loss_probability",
    "noise": "percept.noise_sigma_pos",
}
SWEEPABLE = tuple(SWEPT_FIELDS)


@dataclass(frozen=True)
class SyntheticSource:
    mobility: MobilityConfig


@dataclass(frozen=True)
class ReplaySource:
    trace: Path
    ground_truth: Optional[Path] = None

    def __post_init__(self) -> None:
        check(self)


@dataclass
class Scenario:
    source: SyntheticSource | ReplaySource
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    net: NetConfig = field(default_factory=NetConfig)
    percept: PerceptConfig = field(default_factory=PerceptConfig)
    duration: float = ranged(POSITIVE, 60.0)
    dt: float = ranged(POSITIVE, 0.5)
    sample_interval: Optional[float] = ranged(POSITIVE, None)
    seed: int = ranged(NON_NEGATIVE, 0)
    opinion_providers: tuple[tuple[AgentId, float, float], ...] = ranged(FINITE, ())
    agentless_ids: frozenset[AgentId] = frozenset()
    removals: tuple[tuple[float, AgentId], ...] = ranged(FINITE, ())
    gzip_log: bool = False

    def __post_init__(self) -> None:
        check(self)
        if self.sample_interval is None:
            self.sample_interval = self.protocol.period
        ratio = self.protocol.period / self.dt
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("dt must divide the protocol period")
        ratio = self.sample_interval / self.protocol.period
        if abs(ratio - round(ratio)) > 1e-9 or ratio < 1 - 1e-9:
            raise ValueError("sample_interval must be a multiple of the protocol period")
        if self.percept.observation_radius > self.net.comm_range:
            raise ValueError("observation_radius cannot exceed the communication range")
        if abs(self.percept.base_rate - self.protocol.base_rate) > BASE_RATE_TOL:
            raise ValueError("percept and protocol base rates differ")
        if len({p[0] for p in self.opinion_providers}) != len(self.opinion_providers):
            raise ValueError("opinion provider ids must be unique")


@dataclass
class MetricsRow:
    time: float
    rand: Optional[float]
    ari: Optional[float]
    jaccard: Optional[float]
    n_truth: Optional[int]
    n_protocol: int
    fp_pairs: Optional[int]


@dataclass
class RunResult:
    scenario: Scenario
    network: Network
    summary: dict


# ----------------------------------------------------------------------
# scenario (de)serialization


def scenario_from_dict(raw: dict) -> Scenario:
    """The scenario a parsed JSON config describes; each section is built
    under its dotted key, so an error names the full key."""
    try:
        if not isinstance(raw, dict):
            raise ValueError("a scenario config must be a JSON object")
        unknown = set(raw) - {f.name for f in dataclasses.fields(Scenario)}
        if unknown:
            raise ValueError(f"unknown scenario keys {sorted(unknown)}")
        src_raw = raw.get("source")
        if not isinstance(src_raw, dict) or "type" not in src_raw:
            raise ValueError(f"source must be an object with a type field, got {src_raw!r}")
        given = {k: v for k, v in src_raw.items() if k != "type"}
        if src_raw["type"] == "synthetic":
            given["mobility"] = build(MobilityConfig, given.get("mobility", {}), "source.mobility")
            source: SyntheticSource | ReplaySource = build(SyntheticSource, given, "source")
        elif src_raw["type"] == "replay":
            source = build(ReplaySource, given, "source")
        else:
            raise ValueError(f"unknown source type {src_raw['type']!r}")
        protocol = build(ProtocolConfig, raw.get("protocol", {}), "protocol")
        percept_raw = raw.get("percept", {})
        if isinstance(percept_raw, dict):
            if "base_rate" in percept_raw:
                raise ValueError("percept.base_rate is not a setting; set protocol.base_rate")
            percept_raw = {**percept_raw, "base_rate": protocol.base_rate}
        scenario = Scenario(
            **{
                **raw,
                "source": source,
                "protocol": protocol,
                "net": build(NetConfig, raw.get("net", {}), "net"),
                "percept": build(PerceptConfig, percept_raw, "percept"),
            }
        )
    except (TypeError, ValueError, KeyError) as exc:
        raise SchemaError(f"invalid scenario config: {exc}") from exc
    return scenario


def load_scenario(path: Path) -> Scenario:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc.msg}", line=exc.lineno) from exc
    except IsADirectoryError:
        raise SchemaError("is a directory, not a file", path=path) from None
    scenario = scenario_from_dict(raw)
    if isinstance(scenario.source, ReplaySource):
        # relative paths are read from the config's folder; an absolute one stays
        base, truth = Path(path).parent, scenario.source.ground_truth
        scenario.source = ReplaySource(base / scenario.source.trace, truth and base / truth)
        if not scenario.source.trace.exists():
            raise SchemaError(f"trace file not found: {scenario.source.trace}")
        if scenario.source.ground_truth is not None and not scenario.source.ground_truth.exists():
            raise SchemaError(f"ground truth file not found: {scenario.source.ground_truth}")
    return scenario


# ----------------------------------------------------------------------
# simulation driver


def run(scenario: Scenario, out_dir: Optional[Path] = None, fmt: str = "csv") -> RunResult:
    """Execute one scenario end to end; optionally write result files,
    with the metrics table as ``fmt`` ("csv" or "jsonl").

    The files are written as the run goes, each to a temp file beside it,
    and renamed into place when the run succeeds: a synthetic trace and its
    ground truth a step at a time, the partitions and metrics a sample at a
    time, the log and ``summary.json`` at the end. A run that raises leaves
    ``out_dir`` as it was. The result holds only the scenario, the network
    (with its delivery log) and the summary; a synthetic trace is generated
    as the run reads it, and no frame or sample is kept. The cyclic garbage
    collector is suspended for the run and the caller's setting restored.
    The run forms no reference cycle but one harmless one of about 33
    objects when it writes its outputs, the encoder of
    ``json.dump(..., indent=2)``, which the next collection frees."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(scenario, out_dir, fmt)
    finally:
        if enabled:
            gc.enable()


def _run(scenario: Scenario, out_dir: Optional[Path], fmt: str) -> RunResult:
    replay = None
    if isinstance(scenario.source, ReplaySource):
        replay = _load_replay(scenario)
        trace_ids = set().union(*replay[0].ids)
    else:
        trace_ids = set(range(scenario.source.mobility.n_agents))
    warn_if_range_below_social(scenario.net, scenario.protocol.social_distance)

    providers = sorted(scenario.opinion_providers)
    overlap = {p[0] for p in providers} & trace_ids
    if overlap:
        raise ValueError(f"opinion provider ids collide with trace ids: {sorted(overlap)}")
    unknown_agentless = scenario.agentless_ids - trace_ids
    if unknown_agentless:
        raise ValueError(f"agentless ids not present in trace: {sorted(unknown_agentless)}")

    kind_map = dict.fromkeys(trace_ids, AgentKind.HUMAN_LINKED)
    kind_map.update(dict.fromkeys(scenario.agentless_ids, AgentKind.HUMAN_WITHOUT_AGENT))
    kind_map.update((p[0], AgentKind.OPINION_PROVIDER) for p in providers)
    agents: dict[int, Agent] = {
        aid: Agent(id=aid, config=scenario.protocol, kind=kind)
        for aid, kind in sorted(kind_map.items())
        if kind is not AgentKind.HUMAN_WITHOUT_AGENT
    }

    seed_seq = np.random.SeedSequence(scenario.seed)
    net_seed, percept_seed = seed_seq.spawn(2)
    network = Network(scenario.net, seed=int(net_seed.generate_state(1)[0]))
    percept_rng = np.random.default_rng(percept_seed)

    period = scenario.protocol.period
    strong_at = (scenario.protocol.request_threshold, scenario.protocol.u_min)
    sample_every = _schedule(scenario)[2]

    # period index -> departing agents; a removal at t takes effect at the
    # first period k with k * period >= t - PERIOD_TOL, the protocol's rounding rule
    departures: dict[int, list[int]] = {}
    removed: set[int] = set()
    for t, aid in sorted(scenario.removals):
        if aid not in agents or aid in removed:
            raise ValueError(
                f"removal at t={t!r} names no agent: {aid} is unknown, agentless or already removed"
            )
        removed.add(aid)
        departures.setdefault(max(0, math.ceil((t - PERIOD_TOL) / period)), []).append(aid)

    with contextlib.ExitStack() as stack:
        out_path = None if out_dir is None else Path(out_dir)
        outputs = Outputs(stack, out_path, fmt, replay is None)
        if replay is None:
            periods = _synthetic_periods(scenario, outputs.frame)
        else:
            periods = _replay_periods(scenario, *replay)
        sampler = _Sampler(scenario.protocol, network, outputs)
        percepts = _percepts(scenario, periods, providers, sorted(agents), departures, percept_rng)
        for k, (frame, truth, observed, in_range) in enumerate(percepts):
            now = k * period

            for departing in departures.get(k, ()):
                agent = agents.pop(departing)
                if agent.role is Role.CLUSTER_HEAD and len(agent.members) > 1:
                    network.inject(now, departing, agent.handover_head(now))

            for aid, (index, neighbours, strong) in observed.items():
                neighbor_list = tuple((nid, kind_map[nid], dist) for nid, dist in neighbours)
                agents[aid].apply_percept(index, neighbor_list, now, StrongPairs(*strong_at, strong))

            network.step(now, in_range, agents)

            if k % sample_every == 0:
                sampler.take(now, agents, frozenset(frame.ids), truth)

        summary = {"seed": scenario.seed, **sampler.summary.result()}
        if out_dir is not None:
            _write_outputs(outputs, network.log, summary, scenario.gzip_log)
    return RunResult(scenario, network, summary)


class _Sampler:
    """Takes a run's samples. A sample's protocol partition is scored
    against its truth and goes with its metrics row to the outputs and
    the summary; nothing else of it is kept."""

    def __init__(self, config: ProtocolConfig, network: Network, outputs: Outputs) -> None:
        self.config = config
        self.network = network
        self.outputs = outputs
        self.summary = _Summary()
        # one object per distinct block and partition of the run
        self.shared: dict = {}
        # the (truth, universe, partition) that the last row scores, and that row
        self.scored: Optional[tuple] = None
        self.row: Optional[MetricsRow] = None

    def take(
        self,
        now: float,
        agents: dict[int, Agent],
        universe: frozenset[int],
        truth: Optional[tuple[frozenset[int], ...]],
    ) -> tuple[Partition, MetricsRow]:
        """The sample at ``now``, of the live ``agents`` over the ids of the
        period's frame, scored against that frame's ground truth, if any.
        Returns its partition and metrics row."""
        partition = extract_partition(agents, self.network, universe, self.config, self.shared)
        inputs = (truth, universe, partition)
        if inputs == self.scored:
            row = replace(self.row, time=now)
        else:
            truth_partition = None if truth is None else Partition(truth).restricted(universe)
            row = _score(now, truth_partition, partition)
            self.scored = inputs
        self.row = row
        self.summary.add(row)
        self.outputs.sample(now, partition.blocks, row)
        return partition, row


def _percepts(
    scenario: Scenario,
    periods: Iterable[tuple[TraceFrame, Optional[tuple[frozenset[int], ...]]]],
    providers: list[tuple[int, float, float]],
    agents: list[int],
    departures: dict[int, list[int]],
    rng: np.random.Generator,
) -> Iterator[tuple[TraceFrame, Optional[tuple], percept.Percept, percept.RangeTable]]:
    """Each period's frame, truth, percept and range table, in period order,
    from each period's frame and truth in ``periods``. A period's observers
    are the ascending ``agents``, less the departures up to it, that its
    frame holds. Periods are observed a block at a time
    (``percept.observe_block``), each block whole periods up to
    ``percept.BLOCK_ENTRIES`` observer x individual entries, at least one;
    only the periods of one block are held at a time."""
    strong_at = (scenario.protocol.request_threshold, scenario.protocol.u_min)

    def observe(block):
        frames, truths, observed, observers = zip(*block)
        results = percept.observe_block(
            observed, observers, scenario.percept, rng, *strong_at, scenario.net.comm_range
        )
        for frame, truth, (period_percept, in_range) in zip(frames, truths, results):
            yield frame, truth, period_percept, in_range

    live = list(agents)
    block: list[tuple] = []
    entries = 0
    for k, (frame, truth) in enumerate(periods):
        for departing in departures.get(k, ()):
            live.remove(departing)
        observed = _frame_with_providers(frame, providers)
        present = set(observed.ids)
        observers = [aid for aid in live if aid in present]
        size = len(observers) * len(observed.ids)
        if block and entries + size > percept.BLOCK_ENTRIES:
            yield from observe(block)
            block, entries = [], 0
        block.append((frame, truth, observed, observers))
        entries += size
    yield from observe(block)


# Synthetic steps are generated, and written, this many at a time, so that
# mobility runs in bursts between the protocol's periods. Interleaved step
# by step, a paper-scale run spent a third more time in mobility than when
# the whole trace was generated first; in bursts of 256 steps it spent the
# same, while holding about a hundred frames.
STEPS_AHEAD = 256


def _synthetic_periods(
    scenario: Scenario, write: Callable[[TraceFrame, tuple[frozenset[int], ...]], None]
) -> Iterator[tuple[TraceFrame, tuple[frozenset[int], ...]]]:
    """The synthetic trace's frame and truth at each period, generated as
    they are read, ``STEPS_AHEAD`` steps at a time. Every step goes to
    ``write`` as it is made, the steps after the last period too; only
    the period frames of one burst are held until read."""
    steps_per_period, n_periods, _ = _schedule(scenario)
    last = n_periods * steps_per_period
    # the run seed re-rolls the trace too, so sweeps with derived
    # seeds get fresh group schedules while staying reproducible
    mob = replace(scenario.source.mobility, seed=scenario.source.mobility.seed ^ scenario.seed)
    ahead: deque[tuple[TraceFrame, tuple[frozenset[int], ...]]] = deque()
    for step, (frame, truth) in enumerate(mobility.steps(mob, scenario.duration, scenario.dt)):
        write(frame, truth)
        if step % steps_per_period == 0 and step <= last:
            ahead.append((frame, truth))
        if step % STEPS_AHEAD == STEPS_AHEAD - 1:
            while ahead:
                yield ahead.popleft()
    while ahead:
        yield ahead.popleft()


def _replay_periods(
    scenario: Scenario, frames: TraceFrames, truth: Optional[GroundTruth]
) -> Iterator[tuple[TraceFrame, Optional[tuple[frozenset[int], ...]]]]:
    """The replayed trace's frame and truth at each period."""
    steps_per_period, n_periods, _ = _schedule(scenario)
    for k in range(n_periods + 1):
        # the run reads frame k * steps_per_period at time k * period
        i = k * steps_per_period
        yield frames[i], None if truth is None else truth[i]


def _load_replay(scenario: Scenario) -> tuple[TraceFrames, Optional[GroundTruth]]:
    steps_per_period, n_periods, sample_every = _schedule(scenario)
    scored = range(0, n_periods * steps_per_period + 1, sample_every * steps_per_period)
    trace = scenario.source.trace
    frames, truth = ingest_trace(trace, scenario.source.ground_truth, scored)
    times = frames.times
    if abs(times[0]) > 1e-9:
        raise SchemaError(f"trace starts at t={times[0]!r}, a replay must start at t=0", path=trace)
    step = _median_step(times)
    if len(times) > 1 and abs(step - scenario.dt) > 1e-9:
        raise SchemaError(
            f"trace step {step!r} s differs from scenario dt {scenario.dt!r} s", path=trace
        )
    end = times[-1]
    if scenario.duration > end + 1e-9:
        raise SchemaError(
            f"duration {scenario.duration!r} s outlasts the trace end t={end!r}", path=trace
        )
    return frames, truth


def _schedule(scenario: Scenario) -> tuple[int, int, int]:
    """Trace steps per protocol period, the index of a run's last period, and
    periods per sample."""
    period = scenario.protocol.period
    return (
        int(round(period / scenario.dt)),
        int(math.floor(scenario.duration / period + 1e-9)),
        int(round(scenario.sample_interval / period)),
    )


def _frame_with_providers(
    frame: TraceFrame, providers: list[tuple[int, float, float]]
) -> TraceFrame:
    if not providers:
        return frame
    ids = frame.ids + tuple(p[0] for p in providers)
    pos = np.vstack([frame.pos, np.array([[p[1], p[2]] for p in providers])])
    ang = np.concatenate([frame.angle, np.zeros(len(providers))])
    return TraceFrame(frame.time, ids, pos, ang)


def extract_partition(
    agents: dict[int, Agent],
    network: Network,
    universe: frozenset[int],
    config: ProtocolConfig,
    shared: dict,
) -> Partition:
    """The situation partition an external observer of the message stream
    would infer: the latest head message of each live head claims its
    members; agents claimed by no head or by several count as singletons.

    ``shared`` holds the run's sample objects, each keyed by itself and a
    partition by its blocks: an equal block or partition seen before in the
    run is returned as that object, and only a new partition is built."""
    live_heads = [
        aid
        for aid, agent in sorted(agents.items())
        if agent.role is Role.CLUSTER_HEAD and agent.kind is AgentKind.HUMAN_LINKED
    ]
    claims: dict[int, list[int]] = {}
    for head in live_heads:
        msg = network.latest_head_msgs.get(head)
        if msg is None:
            continue
        listed = msg.human_members if config.detach_extension else msg.agent_members
        for m in listed:
            if m == head or m not in universe or m in agents and agents[m].role is Role.CLUSTER_HEAD:
                continue
            claims.setdefault(m, []).append(head)
    blocks: dict[int, set[int]] = {h: {h} for h in live_heads if h in universe}
    assigned: set[int] = set(blocks)
    for member, heads in claims.items():
        if len(heads) == 1 and heads[0] in blocks and member not in assigned:
            blocks[heads[0]].add(member)
            assigned.add(member)
    found = [frozenset(b) for b in blocks.values()]
    found += [frozenset((a,)) for a in universe - assigned]
    # blocks are disjoint, so their least members order them as Partition does
    key = tuple(sorted((shared.setdefault(b, b) for b in found), key=min))
    partition = shared.get(key)
    if partition is None:
        partition = Partition(key)
        shared[partition.blocks] = partition
    return partition


def _score(time: float, truth: Optional[Partition], pred: Partition) -> MetricsRow:
    """One metrics row of ``pred`` against ``truth`` (no scores without a
    truth). ``pred`` is restricted to the truth universe and padded with
    singletons for the truth agents it lacks, and its situations counted."""
    if truth is None:
        return MetricsRow(time, None, None, None, None, pred.non_singleton_count(), None)
    pred = pred.restricted(truth.universe)
    missing = truth.universe - pred.universe
    if missing:
        pred = Partition(list(pred.blocks) + [{m} for m in missing])
    rand, ari, jaccard, n01 = scores(truth, pred)
    n_protocol = pred.non_singleton_count()
    return MetricsRow(time, rand, ari, jaccard, truth.non_singleton_count(), n_protocol, n01)


class _Summary:
    """The summary of metrics rows, taken as the rows are made: each score
    series is kept as floats and the false-positive pairs as a total, so no
    row need be kept and the summary is that of the same values in the same
    order."""

    def __init__(self) -> None:
        self.samples = 0
        self.series = {name: array("d") for name in ("rand", "ari", "jaccard")}
        self.fp_pairs: Optional[int] = None

    def add(self, row: MetricsRow) -> None:
        self.samples += 1
        for name, series in self.series.items():
            value = getattr(row, name)
            if value is not None:
                series.append(value)
        if row.fp_pairs is not None:
            self.fp_pairs = (self.fp_pairs or 0) + row.fp_pairs

    def result(self) -> dict:
        summary: dict = {"samples": self.samples}
        for name, series in self.series.items():
            if series:
                mean, std = series_summary(series)
                summary[f"{name}_mean"] = mean
                summary[f"{name}_std"] = std
        if self.fp_pairs is not None:
            summary["fp_pairs_total"] = self.fp_pairs
        return summary


# perfbench wraps this name in traced runs, as it does run, ingest_trace and extract_partition
def _write_outputs(outputs: Outputs, log: DeliveryLog, summary: dict, gzip_log: bool) -> None:
    """Write the files a run writes only at its end: ``summary.json`` and
    the log. The log is renamed into place as it ends, the others when the
    run's stack closes."""
    fh = outputs.open("summary.json")
    json.dump(summary, fh, sort_keys=True, indent=2)
    fh.write("\n")
    log.write(outputs.out_dir / ("messages.log.gz" if gzip_log else "messages.log"))


# ----------------------------------------------------------------------
# parameter sweeps


def sweep(
    base: Scenario,
    parameter: str,
    values: Sequence,
    out_dir: Optional[Path] = None,
    fmt: str = "csv",
) -> list[dict]:
    """One run per value with seed = base seed XOR index; returns (and
    optionally writes) one plot-ready summary row per value, the value as
    its config field's schema parsed it."""
    if parameter not in SWEEPABLE:
        raise ValueError(f"parameter must be one of {SWEEPABLE}, got {parameter!r}")
    if not values:
        raise ValueError("sweep needs at least one value")
    # every value is checked before the first run
    field_path = SWEPT_FIELDS[parameter]
    section = field_path.rpartition(".")[0]
    scenarios = []
    for item, value in enumerate(values, 1):
        try:
            scenarios.append(_apply_parameter(base, parameter, value))
        except SchemaError as exc:
            raise SchemaError(f"sweep {parameter}, value {item}: {section}.{exc}") from None
    rows: list[dict] = []
    for idx, scenario in enumerate(scenarios):
        scenario.seed = base.seed ^ idx
        run_dir = None
        if out_dir is not None:
            run_dir = Path(out_dir) / f"run_{parameter}_{idx}"
        result = run(scenario, run_dir, fmt)
        value = functools.reduce(getattr, field_path.split("."), scenario)
        row = {"parameter": parameter, "value": value, "seed": scenario.seed}
        row.update(result.summary)
        rows.append(row)
    if out_dir is not None:
        header = sorted({k for row in rows for k in row})
        with atomic_write(Path(out_dir) / f"sweep.{fmt}") as fh:
            write = table_writer(fh, header, fmt)
            for row in rows:
                write([row.get(k) for k in header])
    return rows


def _apply_parameter(base: Scenario, parameter: str, value) -> Scenario:
    """``base`` with ``value`` in the field ``SWEPT_FIELDS[parameter]``: each
    section on the field's path is replaced, so the field's own section checks
    the value."""
    field_path = SWEPT_FIELDS[parameter]
    top, *path, name = field_path.split(".")
    sections = [getattr(base, top)]
    for step in path:
        if not hasattr(sections[-1], step):
            raise ValueError(f"sweeping {parameter} needs a config with {field_path}")
        sections.append(getattr(sections[-1], step))
    for section, step in zip(reversed(sections), reversed([*path, name])):
        value = dataclasses.replace(section, **{step: value})
    scenario = dataclasses.replace(base)
    setattr(scenario, top, value)
    return scenario


def compare_partition_files(
    truth_path: Path, predicted_path: Path
) -> tuple[list[MetricsRow], dict]:
    """Offline comparison of two situation files: each truth time is scored
    against the nearest predicted time, which must lie within half the larger
    of the two files' median steps."""
    truth = read_situations(truth_path)
    predicted = read_situations(predicted_path)
    pred_times = sorted(predicted)
    truth_times = sorted(truth)
    nearest = _nearest(pred_times, truth_times)
    reach = max(_median_step(truth_times), _median_step(pred_times)) / 2
    gaps = np.abs(np.asarray(pred_times)[nearest] - truth_times)
    uncovered = np.flatnonzero(gaps > reach + 1e-9)
    if uncovered.size:
        raise SchemaError(
            f"no predicted situations within {reach!r} s of the truth time "
            f"t={truth_times[uncovered[0]]!r}",
            path=predicted_path,
        )
    rows: list[MetricsRow] = []
    summary = _Summary()
    scored = None  # the (truth, predicted) situations that the last row scores
    for t, i in zip(truth_times, nearest):
        inputs = (truth[t], predicted[pred_times[i]])
        if inputs == scored:
            rows.append(replace(rows[-1], time=t))
        else:
            rows.append(_score(t, Partition(inputs[0]), Partition(inputs[1])))
            scored = inputs
        summary.add(rows[-1])
    return rows, summary.result()
