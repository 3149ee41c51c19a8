"""Scenario configuration, trace ingestion, and experiment orchestration.

A scenario bundles a trace source (synthetic mobility or replayed CSV
files) with protocol, network and percept parameters. ``run`` drives the
full pipeline trace -> percept -> network+protocol -> metrics and writes
plot-ready CSV outputs; ``sweep`` repeats it over one swept parameter
with derived seeds. Everything is deterministic per (scenario, seed).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import mobility, percept
from .metrics import Partition, scores, series_summary
# perfbench wraps these names on this module in traced runs, so they stay importable here
from .metrics import adjusted_rand_index, jaccard_index, pair_counts, rand_index  # noqa: F401
from .mobility import GroundTruth, MobilityConfig, TraceFrame
from .netsim import NetConfig, Network, warn_if_range_below_social
from .percept import PerceptConfig
from .protocol import Agent, AgentKind, ProtocolConfig, Role

log = logging.getLogger(__name__)

SWEEPABLE = ("moving_group_ratio", "n_agents", "loss", "noise")


class SchemaError(ValueError):
    """A trace or config file does not match its documented schema."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class SyntheticSource:
    mobility: MobilityConfig


@dataclass(frozen=True)
class ReplaySource:
    trace: Path
    ground_truth: Optional[Path] = None


@dataclass
class Scenario:
    source: SyntheticSource | ReplaySource
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    net: NetConfig = field(default_factory=NetConfig)
    percept: PerceptConfig = field(default_factory=PerceptConfig)
    duration: float = 60.0
    dt: float = 0.5
    sample_interval: Optional[float] = None
    seed: int = 0
    opinion_providers: tuple[tuple[int, float, float], ...] = ()
    agentless_ids: frozenset[int] = frozenset()
    removals: tuple[tuple[float, int], ...] = ()
    gzip_log: bool = False

    def __post_init__(self) -> None:
        if self.duration <= 0 or self.dt <= 0:
            raise ValueError("duration and dt must be positive")
        ratio = self.protocol.period / self.dt
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("dt must divide the protocol period")
        if self.sample_interval is None:
            self.sample_interval = self.protocol.period
        ratio = self.sample_interval / self.protocol.period
        if abs(ratio - round(ratio)) > 1e-9 or ratio < 1 - 1e-9:
            raise ValueError("sample_interval must be a multiple of the protocol period")
        if self.percept.observation_radius > self.net.comm_range:
            raise ValueError("observation_radius cannot exceed the communication range")


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
    metrics_rows: list[MetricsRow]
    partitions: list[tuple[float, Partition]]
    network: Network
    summary: dict
    # per sample: live agent id -> (role, head id); protocol observability
    role_samples: list[tuple[float, dict[int, tuple[Role, int]]]] = field(default_factory=list)


# ----------------------------------------------------------------------
# scenario (de)serialization


def scenario_from_dict(raw: dict) -> Scenario:
    try:
        if not isinstance(raw, dict):
            raise ValueError("a scenario config must be a JSON object")
        unknown = set(raw) - {f.name for f in dataclasses.fields(Scenario)}
        if unknown:
            raise ValueError(f"unknown scenario keys {sorted(unknown)}")
        src_raw = raw.get("source")
        if not isinstance(src_raw, dict) or "type" not in src_raw:
            raise ValueError("config needs a source object with a type field")
        if src_raw["type"] == "synthetic":
            mob_raw = dict(src_raw.get("mobility", {}))
            if "group_size_distribution" in mob_raw:
                mob_raw["group_size_distribution"] = {
                    int(k): float(v) for k, v in mob_raw["group_size_distribution"].items()
                }
            for tuple_key in ("area", "speed_levels", "resting_duration_range"):
                if tuple_key in mob_raw:
                    mob_raw[tuple_key] = tuple(mob_raw[tuple_key])
            if "speed_transitions" in mob_raw:
                mob_raw["speed_transitions"] = tuple(
                    tuple(row) for row in mob_raw["speed_transitions"]
                )
            source: SyntheticSource | ReplaySource = SyntheticSource(MobilityConfig(**mob_raw))
        elif src_raw["type"] == "replay":
            trace = Path(src_raw["trace"])
            truth = src_raw.get("ground_truth")
            source = ReplaySource(trace, Path(truth) if truth else None)
        else:
            raise ValueError(f"unknown source type {src_raw['type']!r}")
        scenario = Scenario(
            source=source,
            protocol=ProtocolConfig(**raw.get("protocol", {})),
            net=NetConfig(**raw.get("net", {})),
            percept=PerceptConfig(**raw.get("percept", {})),
            duration=float(raw.get("duration", 60.0)),
            dt=float(raw.get("dt", 0.5)),
            sample_interval=raw.get("sample_interval"),
            seed=int(raw.get("seed", 0)),
            opinion_providers=tuple(
                (int(p[0]), float(p[1]), float(p[2])) for p in raw.get("opinion_providers", [])
            ),
            agentless_ids=frozenset(int(a) for a in raw.get("agentless_ids", [])),
            removals=tuple((float(t), int(a)) for t, a in raw.get("removals", [])),
            gzip_log=bool(raw.get("gzip_log", False)),
        )
    except (TypeError, ValueError, KeyError) as exc:
        raise SchemaError(f"invalid scenario config: {exc}") from exc
    return scenario


def load_scenario(path: Path) -> Scenario:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc.msg}", line=exc.lineno) from exc
    scenario = scenario_from_dict(raw)
    if isinstance(scenario.source, ReplaySource):
        base = Path(path).parent
        trace = scenario.source.trace
        truth = scenario.source.ground_truth
        scenario.source = ReplaySource(
            trace if trace.is_absolute() else base / trace,
            None if truth is None else (truth if truth.is_absolute() else base / truth),
        )
        if not scenario.source.trace.exists():
            raise SchemaError(f"trace file not found: {scenario.source.trace}")
        if scenario.source.ground_truth is not None and not scenario.source.ground_truth.exists():
            raise SchemaError(f"ground truth file not found: {scenario.source.ground_truth}")
    return scenario


# ----------------------------------------------------------------------
# trace ingestion / writing

TRACE_HEADER = "time,agent_id,x,y,shoulder_angle"
TRUTH_HEADER = "time,situation_id,member_ids"


def ingest_trace(
    path: Path, ground_truth: Optional[Path] = None
) -> tuple[list[TraceFrame], Optional[GroundTruth]]:
    """Read a trace CSV (and optional ground-truth CSV) into frames.

    Irregular timesteps are resampled onto a uniform grid by nearest
    frame; shoulder angles outside [0, 2*pi) are normalized with a
    warning; non-finite times, coordinates and angles are rejected."""
    rows: dict[float, list[tuple[int, float, float, float]]] = {}
    normalized = 0
    two_pi = 2 * math.pi
    for lineno, parts in _csv_rows(path, TRACE_HEADER):
        try:
            t = float(parts[0])
            aid = int(parts[1])
            x, y, ang = float(parts[2]), float(parts[3]), float(parts[4])
        except ValueError as exc:
            raise SchemaError(str(exc), line=lineno) from exc
        if not all(map(math.isfinite, (t, x, y, ang))):
            raise SchemaError("non-finite time, coordinate or angle", line=lineno)
        if not 0.0 <= ang < two_pi:
            ang = ang % two_pi
            normalized += 1
        rows.setdefault(t, []).append((aid, x, y, ang))
    if normalized:
        log.warning("normalized %d shoulder angles into [0, 2*pi)", normalized)
    if not rows:
        raise SchemaError("trace file contains no frames")
    times = sorted(rows)
    frames = [_build_frame(t, rows[t]) for t in times]
    if len(times) > 1:
        diffs = np.diff(times)
        dt = float(np.median(diffs))
        if np.any(np.abs(diffs - dt) > 1e-6):
            log.warning("irregular trace timestep; resampling by nearest frame")
            grid = np.arange(times[0], times[-1] + dt / 2, dt)
            frames = [
                dataclasses.replace(frames[i], time=float(g))
                for g, i in zip(grid, _nearest(times, grid))
            ]
    truth = None
    if ground_truth is not None:
        truth = _align_truth(read_situations(ground_truth), frames)
    return frames, truth


def read_situations(path: Path) -> dict[float, list[frozenset[int]]]:
    """Read a ``time,situation_id,member_ids`` file (ground truth or
    protocol partitions) into the member sets listed at each time."""
    situations: dict[float, list[frozenset[int]]] = {}
    for lineno, parts in _csv_rows(path, TRUTH_HEADER):
        try:
            t = float(parts[0])
            members = frozenset(int(v) for v in parts[2].split(";") if v)
        except ValueError as exc:
            raise SchemaError(str(exc), line=lineno) from exc
        if not math.isfinite(t):
            raise SchemaError(f"non-finite time {parts[0]!r}", line=lineno)
        if not members:
            raise SchemaError("empty situation member list", line=lineno)
        situations.setdefault(t, []).append(members)
    return situations


def _csv_rows(path: Path, header: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each non-blank line after ``header``."""
    n_fields = header.count(",") + 1
    with open(path, "r", encoding="utf-8") as fh:
        found = fh.readline().strip()
        if found != header:
            raise SchemaError(f"expected header {header!r}, got {found!r}", line=1)
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != n_fields:
                raise SchemaError(f"expected {n_fields} fields, got {len(parts)}", line=lineno)
            yield lineno, parts


def _nearest(times: Sequence[float], queries: Sequence[float]) -> np.ndarray:
    """Index of the nearest of the ascending ``times`` to each query; a tie
    goes to the earlier time."""
    times = np.asarray(times, dtype=float)
    queries = np.asarray(queries, dtype=float)
    above = np.searchsorted(times, queries)
    lo = np.maximum(above - 1, 0)
    hi = np.minimum(above, len(times) - 1)
    return np.where(np.abs(times[hi] - queries) < np.abs(times[lo] - queries), hi, lo)


def _build_frame(t: float, rows: list[tuple[int, float, float, float]]) -> TraceFrame:
    rows = sorted(rows)
    ids = tuple(r[0] for r in rows)
    if len(set(ids)) != len(ids):
        raise SchemaError(f"duplicate agent ids in frame at t={t}")
    pos = np.array([[r[1], r[2]] for r in rows], dtype=float)
    ang = np.array([r[3] for r in rows], dtype=float)
    return TraceFrame(t, ids, pos, ang)


def _align_truth(
    situations: dict[float, list[frozenset[int]]], frames: Sequence[TraceFrame]
) -> GroundTruth:
    """Each frame's situations at the nearest truth time, with the frame's
    agents that no situation lists added as singletons."""
    times = sorted(situations)
    nearest = _nearest(times, [f.time for f in frames]) if times else ()
    truth: GroundTruth = []
    for k, frame in enumerate(frames):
        blocks = list(situations[times[nearest[k]]]) if times else []
        covered = set().union(*blocks)
        blocks.extend(frozenset((a,)) for a in frame.ids if a not in covered)
        truth.append(tuple(blocks))
    return truth


def write_trace(path: Path, frames: Sequence[TraceFrame]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRACE_HEADER + "\n")
        for frame in frames:
            for k, aid in enumerate(frame.ids):
                fh.write(
                    f"{frame.time!r},{aid},{float(frame.pos[k, 0])!r},"
                    f"{float(frame.pos[k, 1])!r},{float(frame.angle[k])!r}\n"
                )


def write_ground_truth(path: Path, frames: Sequence[TraceFrame], truth: GroundTruth) -> None:
    _write_situations(path, ((frame.time, blocks) for frame, blocks in zip(frames, truth)))


def _write_situations(
    path: Path, samples: Iterable[tuple[float, Iterable[frozenset[int]]]]
) -> None:
    """Write (time, situations) samples in the format ``read_situations`` reads."""
    with _atomic_write(path) as fh:
        fh.write(TRUTH_HEADER + "\n")
        for t, blocks in samples:
            for sid, block in enumerate(blocks):
                members = ";".join(str(m) for m in sorted(block))
                fh.write(f"{t!r},{sid},{members}\n")


# ----------------------------------------------------------------------
# simulation driver


def run(scenario: Scenario, out_dir: Optional[Path] = None, fmt: str = "csv") -> RunResult:
    """Execute one scenario end to end; optionally write result files,
    with the metrics table as ``fmt`` ("csv" or "jsonl")."""
    frames, truth = _load_source(scenario)
    warn_if_range_below_social(scenario.net, scenario.protocol.social_distance)

    trace_ids = set()
    for frame in frames:
        trace_ids.update(frame.ids)
    provider_ids = {p[0] for p in scenario.opinion_providers}
    overlap = provider_ids & trace_ids
    if overlap:
        raise ValueError(f"opinion provider ids collide with trace ids: {sorted(overlap)}")
    unknown_agentless = scenario.agentless_ids - trace_ids
    if unknown_agentless:
        raise ValueError(f"agentless ids not present in trace: {sorted(unknown_agentless)}")

    kind_map: dict[int, AgentKind] = {}
    for aid in trace_ids:
        kind_map[aid] = (
            AgentKind.HUMAN_WITHOUT_AGENT
            if aid in scenario.agentless_ids
            else AgentKind.HUMAN_LINKED
        )
    for pid, _, _ in scenario.opinion_providers:
        kind_map[pid] = AgentKind.OPINION_PROVIDER

    agents: dict[int, Agent] = {
        aid: Agent(id=aid, config=scenario.protocol, kind=kind_map[aid])
        for aid in sorted(kind_map)
        if kind_map[aid] is not AgentKind.HUMAN_WITHOUT_AGENT
    }

    seed_seq = np.random.SeedSequence(scenario.seed)
    net_seed, percept_seed = seed_seq.spawn(2)
    net_cfg = replace(scenario.net, seed=int(net_seed.generate_state(1)[0]))
    network = Network(net_cfg, period=scenario.protocol.period)
    percept_rng = np.random.default_rng(percept_seed)

    provider_pos = {p[0]: (p[1], p[2]) for p in scenario.opinion_providers}
    provider_frame_extra = [
        (pid, provider_pos[pid][0], provider_pos[pid][1]) for pid in sorted(provider_pos)
    ]

    period = scenario.protocol.period
    steps_per_period = int(round(period / scenario.dt))
    n_periods = int(math.floor(scenario.duration / period + 1e-9))
    sample_every = int(round(scenario.sample_interval / period))
    removals = sorted(scenario.removals)
    removal_idx = 0

    metrics_rows: list[MetricsRow] = []
    partitions: list[tuple[float, Partition]] = []
    role_samples: list[tuple[float, dict[int, tuple[Role, int]]]] = []

    for k in range(n_periods + 1):
        now = k * period
        frame_idx = min(k * steps_per_period, len(frames) - 1)
        frame = _frame_with_providers(frames[frame_idx], provider_frame_extra)

        while removal_idx < len(removals) and removals[removal_idx][0] <= now:
            _, departing = removals[removal_idx]
            removal_idx += 1
            agent = agents.pop(departing, None)
            if agent is None:
                continue
            if (
                scenario.protocol.stable_handover
                and agent.role is Role.CLUSTER_HEAD
                and len(agent.members) > 1
            ):
                network.inject(now, departing, agent.handover_head(now))

        positions = {
            aid: (float(frame.pos[i, 0]), float(frame.pos[i, 1]))
            for i, aid in enumerate(frame.ids)
            if aid in agents
        }

        observers = [aid for aid in sorted(agents) if aid in positions]
        observed = percept.observe_period(frame, observers, scenario.percept, percept_rng)
        for aid, (opinions, neighbours) in observed.items():
            neighbor_list = tuple(
                (nid, kind_map.get(nid, AgentKind.HUMAN_LINKED), dist)
                for nid, dist in neighbours
            )
            agents[aid].apply_percept(tuple(opinions), neighbor_list, now)

        network.step(now, positions, agents)

        if k % sample_every == 0:
            universe = frozenset(a for a in frame.ids if kind_map[a] is not AgentKind.OPINION_PROVIDER)
            protocol_partition = extract_partition(agents, network, universe, scenario.protocol)
            partitions.append((now, protocol_partition))
            truth_partition = (
                None if truth is None else Partition(truth[frame_idx]).restricted(universe)
            )
            n_protocol = protocol_partition.non_singleton_count()
            metrics_rows.append(_score(now, truth_partition, protocol_partition, n_protocol))
            role_samples.append(
                (now, {aid: (a.role, a.head_id) for aid, a in sorted(agents.items())})
            )

    summary = {"seed": scenario.seed, **_summarize(metrics_rows)}
    result = RunResult(scenario, metrics_rows, partitions, network, summary, role_samples)
    if out_dir is not None:
        _write_outputs(result, frames, truth, Path(out_dir), fmt)
    return result


def _load_source(scenario: Scenario) -> tuple[list[TraceFrame], Optional[GroundTruth]]:
    if isinstance(scenario.source, SyntheticSource):
        # the run seed re-rolls the trace too, so sweeps with derived
        # seeds get fresh group schedules while staying reproducible
        mob = replace(
            scenario.source.mobility, seed=scenario.source.mobility.seed ^ scenario.seed
        )
        return mobility.generate(mob, scenario.duration, scenario.dt)
    frames, truth = ingest_trace(scenario.source.trace, scenario.source.ground_truth)
    # the run reads frame k * steps_per_period at time k * period
    if abs(frames[0].time) > 1e-9:
        raise SchemaError(f"trace starts at t={frames[0].time!r}, a replay must start at t=0")
    if len(frames) > 1:
        step = float(np.median(np.diff([f.time for f in frames])))
        if abs(step - scenario.dt) > 1e-9:
            raise SchemaError(f"trace step {step!r} s differs from scenario dt {scenario.dt!r} s")
    return frames, truth


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
) -> Partition:
    """The situation partition an external observer of the message stream
    would infer: the latest head message of each live head claims its
    members; agents claimed by no head or by several count as singletons."""
    live_heads = [
        aid
        for aid, agent in sorted(agents.items())
        if agent.role is Role.CLUSTER_HEAD and agent.kind is AgentKind.HUMAN_LINKED
    ]
    claims: dict[int, list[int]] = {}
    for head in live_heads:
        latest = network.latest_head_msgs.get(head)
        if latest is None:
            continue
        msg = latest[1]
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
    leftovers = [{a} for a in universe - assigned]
    return Partition(list(blocks.values()) + leftovers)


def _score(
    time: float, truth: Optional[Partition], pred: Partition, n_protocol: Optional[int] = None
) -> MetricsRow:
    """One metrics row of ``pred`` against ``truth`` (no scores without a
    truth). ``pred`` is restricted to the truth universe and padded with
    singletons for the truth agents it lacks; ``n_protocol`` defaults to
    that restricted prediction's situation count."""
    if truth is None:
        return MetricsRow(time, None, None, None, None, n_protocol, None)
    pred = pred.restricted(truth.universe)
    missing = truth.universe - pred.universe
    if missing:
        pred = Partition(list(pred.blocks) + [{m} for m in missing])
    if n_protocol is None:
        n_protocol = pred.non_singleton_count()
    rand, ari, jaccard, n01 = scores(truth, pred)
    return MetricsRow(time, rand, ari, jaccard, truth.non_singleton_count(), n_protocol, n01)


def _summarize(rows: Sequence[MetricsRow]) -> dict:
    summary: dict = {"samples": len(rows)}
    for name in ("rand", "ari", "jaccard"):
        series = [getattr(r, name) for r in rows if getattr(r, name) is not None]
        if series:
            mean, std = series_summary(series)
            summary[f"{name}_mean"] = mean
            summary[f"{name}_std"] = std
    fp = [r.fp_pairs for r in rows if r.fp_pairs is not None]
    if fp:
        summary["fp_pairs_total"] = int(sum(fp))
    return summary


# ----------------------------------------------------------------------
# output files


METRICS_HEADER = (
    "time",
    "rand",
    "ari",
    "jaccard",
    "n_situations_truth",
    "n_situations_protocol",
    "false_positive_pairs",
)


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


# perfbench wraps this name in traced runs, as it does run, ingest_trace and extract_partition
def _write_outputs(
    result: RunResult,
    frames: Sequence[TraceFrame],
    truth: Optional[GroundTruth],
    out_dir: Path,
    fmt: str = "csv",
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario = result.scenario
    write_metrics(out_dir / f"metrics.{fmt}", result.metrics_rows, fmt)
    _write_situations(out_dir / "partitions.csv", ((t, p.blocks) for t, p in result.partitions))

    log_name = "messages.log.gz" if scenario.gzip_log else "messages.log"
    result.network.log.write(out_dir / log_name)

    if isinstance(scenario.source, SyntheticSource):
        write_trace(out_dir / "trace.csv", frames)
        if truth is not None:
            write_ground_truth(out_dir / "ground_truth.csv", frames, truth)

    with _atomic_write(out_dir / "summary.json") as fh:
        json.dump(result.summary, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_metrics(path: Path, rows: Sequence[MetricsRow], fmt: str = "csv") -> None:
    """Write metrics rows as a CSV table or as JSON lines."""
    table = [(r.time, r.rand, r.ari, r.jaccard, r.n_truth, r.n_protocol, r.fp_pairs) for r in rows]
    _write_table(path, METRICS_HEADER, table, fmt)


def _write_table(path: Path, header: Sequence[str], rows: Sequence[Sequence], fmt: str) -> None:
    with _atomic_write(path) as fh:
        if fmt == "jsonl":
            for row in rows:
                fh.write(json.dumps(dict(zip(header, row)), sort_keys=True))
                fh.write("\n")
        else:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_format_value(v) for v in row) + "\n")


class _atomic_write:
    """Write to a temp file and rename into place on success."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self.tmp = self.path.with_name(self.path.name + ".tmp")

    def __enter__(self):
        self._fh = open(self.tmp, "w", encoding="utf-8")
        return self._fh

    def __exit__(self, exc_type, exc, tb):
        self._fh.close()
        if exc_type is None:
            self.tmp.replace(self.path)
        else:
            self.tmp.unlink(missing_ok=True)
        return False


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
    optionally writes) one plot-ready summary row per value."""
    if parameter not in SWEEPABLE:
        raise ValueError(f"parameter must be one of {SWEEPABLE}, got {parameter!r}")
    if not values:
        raise ValueError("sweep needs at least one value")
    rows: list[dict] = []
    for idx, value in enumerate(values):
        scenario = _apply_parameter(base, parameter, value)
        scenario.seed = base.seed ^ idx
        run_dir = None
        if out_dir is not None:
            run_dir = Path(out_dir) / f"run_{parameter}_{idx}"
        result = run(scenario, run_dir, fmt)
        row = {"parameter": parameter, "value": value, "seed": scenario.seed}
        row.update(result.summary)
        rows.append(row)
    if out_dir is not None:
        header = sorted({k for row in rows for k in row})
        table = [[row.get(k) for k in header] for row in rows]
        _write_table(Path(out_dir) / f"sweep.{fmt}", header, table, fmt)
    return rows


def _apply_parameter(base: Scenario, parameter: str, value) -> Scenario:
    scenario = dataclasses.replace(base)
    if parameter in ("moving_group_ratio", "n_agents"):
        if not isinstance(base.source, SyntheticSource):
            raise ValueError(f"sweeping {parameter} requires a synthetic source")
        mob = dataclasses.replace(
            base.source.mobility,
            **{
                "moving_group_ratio" if parameter == "moving_group_ratio" else "n_agents": (
                    float(value) if parameter == "moving_group_ratio" else int(value)
                )
            },
        )
        scenario.source = SyntheticSource(mob)
    elif parameter == "loss":
        scenario.net = dataclasses.replace(base.net, loss_probability=float(value))
    elif parameter == "noise":
        scenario.percept = dataclasses.replace(base.percept, noise_sigma_pos=float(value))
    return scenario


def compare_partition_files(
    truth_path: Path, predicted_path: Path
) -> tuple[list[MetricsRow], dict]:
    """Offline comparison of two situation files: each truth time is scored
    against the nearest predicted time."""
    truth = read_situations(truth_path)
    predicted = read_situations(predicted_path)
    if not predicted:
        raise SchemaError(f"no partitions in {predicted_path}")
    pred_times = sorted(predicted)
    truth_times = sorted(truth)
    rows = [
        _score(t, Partition(truth[t]), Partition(predicted[pred_times[i]]))
        for t, i in zip(truth_times, _nearest(pred_times, truth_times))
    ]
    return rows, _summarize(rows)
