"""Harness tests: config parsing, ingestion, pipeline runs, CLI surface."""

import dataclasses
import gc
import json
import logging
import math
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from socsim import cli, files, harness, mobility, percept
from socsim.files import atomic_write
from socsim.harness import (
    ReplaySource,
    Scenario,
    SchemaError,
    SyntheticSource,
    _nearest,
    _score,
    compare_partition_files,
    ingest_trace,
    load_scenario,
    read_situations,
    run,
    scenario_from_dict,
    sweep,
    write_ground_truth,
    write_trace,
)
from socsim.messages import MemberMsg, decode_record
from socsim.metrics import Partition
from socsim.mobility import MobilityConfig, TraceFrame, generate
from socsim.percept import PerceptConfig
from socsim.netsim import Network
from socsim.protocol import Agent, ProtocolConfig

from conftest import counted, run_sampled
from test_golden import CASES, output_digests


def synthetic_scenario(**overrides) -> Scenario:
    mob = overrides.pop("mobility", MobilityConfig(n_agents=6, seed=3, group_formation_rate=0.05))
    defaults = dict(duration=30.0, dt=0.5, seed=11)
    defaults.update(overrides)
    return Scenario(source=SyntheticSource(mob), **defaults)


class TestScenarioConfig:
    def test_dt_must_divide_period(self):
        with pytest.raises(ValueError):
            synthetic_scenario(dt=0.3)

    def test_sample_interval_must_be_period_multiple(self):
        with pytest.raises(ValueError):
            synthetic_scenario(sample_interval=1.5)

    def test_from_dict_round_trip(self):
        raw = {
            "source": {"type": "synthetic", "mobility": {"n_agents": 4, "seed": 9}},
            "protocol": {"period": 2.0, "base_rate": 0.3},
            "net": {"comm_range": 30.0},
            "percept": {"observation_radius": 8.0},
            "duration": 20.0,
            "dt": 0.5,
            "seed": 5,
        }
        scenario = scenario_from_dict(raw)
        assert scenario.protocol.period == 2.0
        assert scenario.source.mobility.n_agents == 4
        assert scenario.net.comm_range == 30.0

    def test_differing_base_rates_rejected(self):
        with pytest.raises(ValueError, match="base rates"):
            synthetic_scenario(percept=PerceptConfig(base_rate=0.5))

    def test_bad_source_rejected(self):
        with pytest.raises(SchemaError):
            scenario_from_dict({"source": {"type": "teleport"}})

    def test_unknown_top_level_key_rejected(self):
        raw = {"source": {"type": "synthetic"}, "durration": 20.0}
        with pytest.raises(SchemaError, match="durration"):
            scenario_from_dict(raw)

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
    def test_non_finite_removal_time_rejected(self, time):
        with pytest.raises(ValueError, match="finite"):
            synthetic_scenario(removals=((time, 1),))

    def test_load_scenario_reports_json_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(SchemaError) as err:
            load_scenario(path)
        assert err.value.line is not None

    def test_load_scenario_resolves_relative_replay_paths(self, tmp_path):
        frames, truth = generate(MobilityConfig(n_agents=2, seed=0), 5.0, 0.5)
        write_trace(tmp_path / "trace.csv", frames)
        write_ground_truth(tmp_path / "truth.csv", frames, truth)
        cfg = {
            "source": {"type": "replay", "trace": "trace.csv", "ground_truth": "truth.csv"},
            "duration": 5.0,
            "dt": 0.5,
        }
        (tmp_path / "scenario.json").write_text(json.dumps(cfg))
        scenario = load_scenario(tmp_path / "scenario.json")
        assert scenario.source.trace.exists()


class TestIngest:
    def test_round_trips_generated_trace(self, tmp_path):
        frames, truth = generate(MobilityConfig(n_agents=5, seed=8), 20.0, 0.5)
        write_trace(tmp_path / "trace.csv", frames)
        write_ground_truth(tmp_path / "truth.csv", frames, truth)
        frames2, truth2 = ingest_trace(
            tmp_path / "trace.csv", ground_truth=tmp_path / "truth.csv"
        )
        assert len(frames2) == len(frames)
        for fa, fb in zip(frames, frames2):
            assert fa.ids == fb.ids
            assert np.array_equal(fa.pos, fb.pos)
            assert np.array_equal(fa.angle, fb.angle)
        for ta, tb in zip(truth, truth2):
            assert set(ta) == set(tb)

    def test_angle_normalized_with_warning(self, tmp_path, caplog):
        path = tmp_path / "trace.csv"
        path.write_text(
            "time,agent_id,x,y,shoulder_angle\n0.0,1,0.0,0.0,7.0\n0.0,2,1.0,0.0,0.5\n"
        )
        with caplog.at_level("WARNING"):
            frames, _ = ingest_trace(path)
        assert "normalized" in caplog.text
        assert frames[0].angle[0] == pytest.approx(7.0 % (2 * math.pi))

    def test_schema_error_carries_line_number(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time,agent_id,x,y,shoulder_angle\n0.0,1,0.0\n")
        with pytest.raises(SchemaError) as err:
            ingest_trace(path)
        assert err.value.line == 2
        assert str(err.value) == f"{path}: line 2: expected 5 fields, got 3"

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,agent,x,y,a\n")
        with pytest.raises(SchemaError) as err:
            ingest_trace(path)
        assert str(err.value).startswith(f"{path}: line 1: expected header")

    def test_irregular_trace_resampled(self, tmp_path, caplog):
        path = tmp_path / "trace.csv"
        lines = ["time,agent_id,x,y,shoulder_angle"]
        for t in (0.0, 0.5, 1.3, 1.5, 2.0):
            lines.append(f"{t},1,{t},0.0,0.0")
        path.write_text("\n".join(lines) + "\n")
        with caplog.at_level("WARNING"):
            frames, _ = ingest_trace(path)
        assert "resampling" in caplog.text
        diffs = {round(b.time - a.time, 9) for a, b in zip(frames, frames[1:])}
        assert len(diffs) == 1
        # x holds the source frame's time: grid 1.0 takes 1.3 (0.3 away), not 0.5
        assert [f.time for f in frames] == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert [float(f.pos[0, 0]) for f in frames] == [0.0, 0.5, 1.3, 1.5, 2.0]

    @pytest.mark.parametrize(
        "row", ["nan,2,1.0,0.0,0.0", "0.0,2,nan,0.0,0.0", "0.0,2,1.0,inf,0.0", "0.0,2,1.0,0.0,-inf"]
    )
    def test_non_finite_trace_value_rejected(self, tmp_path, row):
        path = tmp_path / "trace.csv"
        path.write_text(f"time,agent_id,x,y,shoulder_angle\n0.0,1,0.0,0.0,0.0\n{row}\n")
        with pytest.raises(SchemaError) as err:
            ingest_trace(path)
        assert err.value.line == 3
        assert str(err.value) == f"{path}: line 3: non-finite time, coordinate or angle"

    @pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
    def test_non_finite_situation_time_rejected(self, tmp_path, time):
        path = tmp_path / "truth.csv"
        path.write_text(f"time,situation_id,member_ids\n0.0,0,1;2\n{time},0,1;2\n")
        with pytest.raises(SchemaError) as err:
            read_situations(path)
        assert err.value.line == 3

    def test_empty_situation_rejected_with_line(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text("time,situation_id,member_ids\n0.0,0,1;2\n0.0,1,\n")
        with pytest.raises(SchemaError) as err:
            compare_partition_files(path, path)
        assert err.value.line == 3

    @pytest.mark.parametrize("members", ["1;;2", "1;2;", ";1", ";"])
    def test_empty_member_id_rejected_with_line(self, tmp_path, members):
        path = tmp_path / "truth.csv"
        path.write_text(f"time,situation_id,member_ids\n0.0,0,3\n0.0,1,{members}\n")
        with pytest.raises(SchemaError) as err:
            read_situations(path)
        assert err.value.line == 3
        assert str(err.value) == f"{path}: line 3: empty member id in {members!r}"

    @pytest.mark.parametrize("member", ["-1", str(2**63)])
    def test_member_id_outside_agent_ids_rejected_with_line(self, tmp_path, member):
        path = tmp_path / "truth.csv"
        path.write_text(f"time,situation_id,member_ids\n0.0,0,3\n0.0,1,2;{member}\n")
        with pytest.raises(SchemaError) as err:
            read_situations(path)
        assert err.value.line == 3
        message = f"member ids '2;{member}' must each be an agent id in [0, 2**63)"
        assert str(err.value) == f"{path}: line 3: {message}"

    def test_agent_in_two_situations_rejected_with_line(self, tmp_path):
        path = tmp_path / "pred.csv"
        # 2 is listed twice at t=0.5; the same sets at different times are fine
        path.write_text(
            "time,situation_id,member_ids\n0.0,0,1;2\n0.0,1,3\n0.5,0,1;2\n0.5,1,3;4\n0.5,2,2;5\n"
        )
        overlap = r"agents \[2\] are in two situations at t=0\.5"
        with pytest.raises(SchemaError, match=overlap) as err:
            read_situations(path)
        assert err.value.line == 6
        assert str(path) in str(err.value)

    def test_agent_in_two_situations_at_a_time_that_comes_back(self, tmp_path):
        # t=0 comes back after t=0.5, written as 0 this time, and its second
        # run lists agent 2 of its first again
        path = tmp_path / "pred.csv"
        path.write_text("time,situation_id,member_ids\n0.0,0,1;2\n0.5,0,1;2\n0,0,3\n0,1,2;4\n")
        overlap = r"agents \[2\] are in two situations at t=0\.0$"
        with pytest.raises(SchemaError, match=overlap) as err:
            read_situations(path)
        assert err.value.line == 5

    def test_time_that_comes_back_is_one_time(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text("time,situation_id,member_ids\n0.0,0,1;2\n0.5,0,1;2\n0,0,3\n")
        assert read_situations(path) == {0.0: [{1, 2}, {3}], 0.5: [{1, 2}]}

    def test_blank_lines_and_crlf_read_as_before(self, tmp_path):
        frames, truth = generate(MobilityConfig(n_agents=3, seed=2), 5.0, 0.5)
        write_trace(tmp_path / "trace.csv", frames)
        write_ground_truth(tmp_path / "truth.csv", frames, truth)
        for name in ("trace.csv", "truth.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            padded = lines[:1] + [row for line in lines[1:] for row in ("", " \t", line)]
            (tmp_path / f"padded_{name}").write_bytes(("\r\n".join(padded) + "\r\n").encode())
        expected = ingest_trace(tmp_path / "trace.csv", tmp_path / "truth.csv")
        got = ingest_trace(tmp_path / "padded_trace.csv", tmp_path / "padded_truth.csv")
        assert got[1] == expected[1]
        for frame, reference in zip(got[0], expected[0], strict=True):
            assert (frame.time, frame.ids) == (reference.time, reference.ids)
            assert frame.pos.tobytes() + frame.angle.tobytes() == (
                reference.pos.tobytes() + reference.angle.tobytes()
            )
        path = tmp_path / "bad.csv"
        path.write_text(f"{files.TRACE_HEADER}\n\n \t\n0.0,1,0.0,nan,0.0\n")
        with pytest.raises(SchemaError) as err:
            ingest_trace(path)
        assert str(err.value) == f"{path}: line 4: non-finite time, coordinate or angle"

    @pytest.mark.parametrize("number", ["1_0", "\u0661"])
    def test_number_numpy_does_not_read_rejected_with_line(self, tmp_path, number):
        # float() reads digit-group underscores and non-ASCII digits; numpy does not
        message = f"{number!r} is not a number in plain ASCII digits"
        path = tmp_path / "trace.csv"
        path.write_text(f"{files.TRACE_HEADER}\n0.0,1,0,0,0\n0.0,2,{number},0,0\n", "utf-8")
        with pytest.raises(SchemaError) as err:
            ingest_trace(path)
        assert str(err.value) == f"{path}: line 3: {message}"
        path = tmp_path / "truth.csv"
        path.write_text(f"time,situation_id,member_ids\n0.0,0,1\n{number},0,1\n", "utf-8")
        with pytest.raises(SchemaError) as err:
            read_situations(path)
        assert str(err.value) == f"{path}: line 3: {message}"

    def test_chunk_boundaries_change_nothing(self, tmp_path, monkeypatch):
        frames, truth = generate(MobilityConfig(n_agents=3, seed=2), 5.0, 0.5)
        write_trace(tmp_path / "trace.csv", frames)
        write_ground_truth(tmp_path / "truth.csv", frames, truth)
        expected = ingest_trace(tmp_path / "trace.csv", tmp_path / "truth.csv")
        monkeypatch.setattr(files, "CHUNK_ROWS", 2)
        got = ingest_trace(tmp_path / "trace.csv", tmp_path / "truth.csv")
        assert got[1] == expected[1]
        assert [(f.time, f.ids, f.pos.tobytes()) for f in got[0]] == [
            (f.time, f.ids, f.pos.tobytes()) for f in expected[0]
        ]
        # agent 1 is listed again at t=0 in the next chunk, and line 5 does not parse
        path = tmp_path / "pred.csv"
        path.write_text("time,situation_id,member_ids\n0.0,0,1\n0.0,1,2\n0.0,2,3;1\nx,0,1\n")
        with pytest.raises(SchemaError, match=r"line 4: agents \[1\] are in two situations"):
            read_situations(path)

    def test_equal_member_sets_are_one_object(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text(
            "time,situation_id,member_ids\n0.0,0,1;2\n0.0,1,3\n0.5,0,2;1\n0.5,1,3;4\n1.0,0,3\n"
        )
        situations = read_situations(path)
        assert situations == {
            0.0: [{1, 2}, {3}],
            0.5: [{1, 2}, {3, 4}],
            1.0: [{3}],
        }
        assert situations[0.5][0] is situations[0.0][0]
        assert situations[1.0][0] is situations[0.0][1]

    def test_replayed_truth_shares_blocks(self, tmp_path):
        frames, truth = generate(MobilityConfig(n_agents=5, seed=8), 20.0, 0.5)
        write_trace(tmp_path / "trace.csv", frames)
        write_ground_truth(tmp_path / "truth.csv", frames, truth)
        _, replayed = ingest_trace(tmp_path / "trace.csv", tmp_path / "truth.csv")
        blocks = {}
        for frame_truth in replayed:
            for block in frame_truth:
                assert blocks.setdefault(block, block) is block


def row_tuple_ingest(path: Path, ground_truth=None, scored=None):
    """``ingest_trace`` as it was before columnar ingestion: one tuple per
    row, grouped by time in a dict, each frame sorted and converted on its
    own. Kept as the reference the columnar reader must match."""
    rows: dict[float, list[tuple[int, float, float, float]]] = {}
    normalized = 0
    two_pi = 2 * math.pi
    time_text = None
    for lineno, parts in files._csv_rows(path, files.TRACE_HEADER):
        new_time = parts[0] != time_text
        try:
            if new_time:
                t = float(parts[0])
            aid = int(parts[1])
            x, y, ang = float(parts[2]), float(parts[3]), float(parts[4])
        except ValueError as exc:
            raise SchemaError(str(exc), line=lineno, path=path) from exc
        if new_time:
            if not math.isfinite(t):
                raise SchemaError("non-finite time, coordinate or angle", line=lineno, path=path)
            time_text, frame_rows = parts[0], rows.setdefault(t, [])
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(ang)):
            raise SchemaError("non-finite time, coordinate or angle", line=lineno, path=path)
        if not 0.0 <= ang < two_pi:
            ang = ang % two_pi
            normalized += 1
        frame_rows.append((aid, x, y, ang))
    if normalized:
        files.log.warning("normalized %d shoulder angles into [0, 2*pi)", normalized)
    if not rows:
        raise SchemaError("trace file contains no frames", path=path)
    times = sorted(rows)
    frames = []
    for t in times:
        frame_rows = sorted(rows[t])
        ids = tuple(r[0] for r in frame_rows)
        if len(set(ids)) != len(ids):
            raise SchemaError(f"duplicate agent ids in frame at t={t}", path=path)
        pos = np.array([[r[1], r[2]] for r in frame_rows], dtype=float)
        ang = np.array([r[3] for r in frame_rows], dtype=float)
        frames.append(TraceFrame(t, ids, pos, ang))
    dt = 0.0
    if len(times) > 1:
        diffs = np.diff(times)
        dt = float(np.median(diffs))
        if np.any(np.abs(diffs - dt) > 1e-6):
            files.log.warning("irregular trace timestep; resampling by nearest frame")
            grid = np.arange(times[0], times[-1] + dt / 2, dt)
            frames = [
                dataclasses.replace(frames[i], time=float(g))
                for g, i in zip(grid, _nearest(times, grid))
            ]
    truth = None
    if ground_truth is not None:
        situations = read_situations(ground_truth)
        if scored is None:
            scored = range(len(frames))
        truth = files._align_truth(situations, frames, dt, scored, ground_truth)
    return frames, truth


_coordinate = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def trace_texts(draw):
    """A trace CSV: frames at irregular steps, agents joining and leaving,
    angles outside [0, 2*pi), equal times written differently, the rows in
    any order, and at times one non-finite value or one repeated agent."""
    steps = draw(st.lists(st.sampled_from([0.25, 0.5, 0.5, 0.5, 1.25]), max_size=6))
    times = [draw(st.sampled_from([0.0, 0.5, 3.0]))]
    for step in steps:
        times.append(times[-1] + step)
    rows = []
    for t in times:
        for aid in sorted(draw(st.sets(st.integers(0, 7), min_size=1, max_size=5))):
            angle = draw(st.floats(-20.0, 20.0) | st.sampled_from([0.0, 2 * math.pi]))
            rows.append([t, aid, draw(_coordinate), draw(_coordinate), angle])
    fault = draw(st.sampled_from([None, None, "repeat", "non-finite"]))
    if fault == "repeat":
        row = list(draw(st.sampled_from(rows)))
        row[2] = draw(_coordinate)
        rows.append(row)
    elif fault == "non-finite":
        row = draw(st.sampled_from(rows))
        row[draw(st.sampled_from([0, 2, 3, 4]))] = draw(st.sampled_from(["nan", "inf", "-inf"]))
    lines = []
    for t, aid, x, y, angle in draw(st.permutations(rows)):
        if t == 0.0:
            t = draw(st.sampled_from(["0.0", "-0.0", "0.00", "0"]))
        elif isinstance(t, float):
            t = draw(st.sampled_from([repr(t), repr(t) + "0"]))
        values = [v if isinstance(v, str) else repr(v) for v in (x, y, angle)]
        lines.append(",".join([t, str(aid), *values]))
    return "\n".join([files.TRACE_HEADER] + lines) + "\n"


class _Recorded(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def ingest_outcome(ingest, path):
    """What ``ingest`` makes of ``path``: its frames or its error, and the
    warnings it logged."""
    handler = _Recorded()
    files.log.addHandler(handler)
    try:
        outcome = ingest(path)[0]
    except SchemaError as exc:
        outcome = (str(exc), exc.line)
    finally:
        files.log.removeHandler(handler)
    return outcome, handler.messages


class TestColumnarIngest:
    """Columnar ingestion reads every trace as the row-tuple reader did."""

    @settings(max_examples=200, deadline=None)
    @given(text=trace_texts())
    # a frame keeps the time as the file first wrote it, not as its least id did
    @example(text="time,agent_id,x,y,shoulder_angle\n0.0,2,0,0,0\n-0.0,1,0,0,7\n0.5,1,0,0,0\n")
    @example(text="time,agent_id,x,y,shoulder_angle\n-0.0,2,0,0,0\n0.0,1,0,0,0\n0,2,1,1,0\n")
    def test_matches_row_tuple_reader(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.csv"
            path.write_text(text)
            got, got_warnings = ingest_outcome(ingest_trace, path)
            expected, expected_warnings = ingest_outcome(row_tuple_ingest, path)
        assert got_warnings == expected_warnings
        if isinstance(expected, tuple):
            assert got == expected
            return
        assert len(got) == len(expected)
        for frame, reference in zip(got, expected):
            assert repr(frame.time) == repr(reference.time)
            assert frame.ids == reference.ids
            for name in ("pos", "angle"):
                array, ref = getattr(frame, name), getattr(reference, name)
                assert array.dtype == ref.dtype and array.shape == ref.shape
                assert array.tobytes() == ref.tobytes()
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 0.0
        # consecutive trace frames share equal ids; resampling may reorder them
        if not got_warnings or "resampling" not in got_warnings[-1]:
            for before, after in zip(got, got[1:]):
                assert before.ids is after.ids or before.ids != after.ids

    def test_earliest_repeated_frame_named(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            f"{files.TRACE_HEADER}\n1.0,3,0,0,0\n1.0,3,1,1,0\n"
            "0.5,2,0,0,0\n0.5,1,0,0,0\n0.5,2,5,5,0\n0.0,1,0,0,0\n"
        )
        with pytest.raises(SchemaError) as err:
            ingest_trace(path)
        assert str(err.value) == f"{path}: duplicate agent ids in frame at t=0.5"

    def test_agent_id_beyond_64_bits_rejected_with_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(f"{files.TRACE_HEADER}\n0.0,1,0,0,0\n0.0,{2**63},0,0,0\n")
        with pytest.raises(SchemaError) as err:
            ingest_trace(path)
        assert err.value.line == 3
        assert str(err.value) == f"{path}: line 3: agent id {2**63} exceeds 64 bits"

    def test_negative_agent_id_rejected_with_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(f"{files.TRACE_HEADER}\n0.0,1,0,0,0\n0.0,-1,0,0,0\n")
        with pytest.raises(SchemaError) as err:
            ingest_trace(path)
        assert err.value.line == 3
        assert str(err.value) == f"{path}: line 3: agent id -1 is negative"


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def written_frames(draw):
    """Frames on a uniform grid, each agent's ids ascending, angles in [0, 2*pi)."""
    start, step = draw(st.floats(-1e4, 1e4)), draw(st.floats(0.01, 100.0))
    frames = []
    for k in range(draw(st.integers(1, 5))):
        ids = sorted(draw(st.sets(st.integers(0, 2**63 - 1), min_size=1, max_size=4)))
        pos = np.array([[draw(_finite), draw(_finite)] for _ in ids])
        angle = np.array([draw(st.floats(0.0, 2 * math.pi, exclude_max=True)) for _ in ids])
        frames.append(TraceFrame(start + k * step, tuple(ids), pos, angle))
    return frames


@st.composite
def written_situations(draw):
    """(time, blocks) samples at distinct times, each a partition of some agents."""
    samples = []
    for t in draw(st.lists(_finite, min_size=1, max_size=5, unique=True)):
        agents = draw(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=8, unique=True))
        cuts = sorted(draw(st.sets(st.integers(1, len(agents)), max_size=3)) - {len(agents)})
        samples.append((t, [frozenset(agents[a:b]) for a, b in zip([0, *cuts], [*cuts, len(agents)])]))
    return samples


# decimal texts that need correct rounding: long mantissas, large and small exponents
_decimal = st.from_regex(r"-?[0-9]{1,25}(\.[0-9]{1,25})?([eE][-+]?[0-9]{1,3})?", fullmatch=True)


class TestRoundTrip:
    """What a writer writes, its reader reads back."""

    @settings(max_examples=100, deadline=None)
    @given(frames=written_frames())
    def test_trace(self, frames):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.csv"
            with open(path, "w", encoding="utf-8") as fh:
                write = files.trace_writer(fh)
                for frame in frames:
                    write(frame)
            got, _ = ingest_trace(path)
        assert len(got) == len(frames)
        for frame, written in zip(got, frames):
            assert repr(frame.time) == repr(written.time)
            assert frame.ids == written.ids
            assert frame.pos.tobytes() == written.pos.tobytes()
            assert frame.angle.tobytes() == written.angle.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(samples=written_situations())
    def test_situations(self, samples):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "truth.csv"
            with open(path, "w", encoding="utf-8") as fh:
                write = files.situations_writer(fh)
                for t, blocks in samples:
                    write(t, blocks)
            got = read_situations(path)
        assert [(repr(t), blocks) for t, blocks in got.items()] == [
            (repr(t), blocks) for t, blocks in samples
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        text=st.builds(
            str.format, st.sampled_from(["{!r}", "{:.17g}", "{:.25e}", "{:.3g}"]), _finite
        )
        | _decimal
    )
    def test_numbers_read_as_float_reads_them(self, text):
        value = float(text)
        assume(math.isfinite(value))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.csv"
            path.write_text(f"{files.TRACE_HEADER}\n{text},0,{text},{text},0.5\n")
            (frame,), _ = ingest_trace(path)
        assert repr(frame.time) == repr(value)
        assert frame.pos.tobytes() == np.array([[value, value]]).tobytes()


class TestNearest:
    @given(
        times=st.lists(st.integers(-400, 400), min_size=1, max_size=40, unique=True),
        queries=st.lists(st.integers(-1000, 1000), max_size=40),
    )
    @example(times=[3], queries=[-50, 3, 50])
    @example(times=[0, 2, 4], queries=[1, 3, -9, 9])
    def test_matches_argmin(self, times, queries):
        # quarter-unit times and eighth-unit queries keep every distance
        # exact, so a query midway between two times is an exact tie
        t = np.array(sorted(times)) * 0.25
        q = np.array(queries, dtype=float) * 0.125
        expected = [int(np.argmin(np.abs(t - x))) for x in q]
        assert _nearest(t, q).tolist() == expected

    @given(
        times=st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=30, unique=True),
        queries=st.lists(st.floats(-1e12, 1e12), max_size=30),
    )
    def test_picks_a_nearest_time(self, times, queries):
        # with rounded distances several times can tie; any pick is nearest
        t = np.array(sorted(times))
        for x, i in zip(queries, _nearest(t, queries)):
            assert abs(t[i] - x) == np.min(np.abs(t - x))


class TestMedianStep:
    @given(times=st.lists(st.floats(-1e300, 1e300), max_size=12))
    @example(times=[0.0, 1.0, 3.0])
    @example(times=[0.0, 0.1, 0.3, 0.6])
    def test_equals_numpy_median(self, times):
        times = sorted(times)
        expected = float(np.median(np.diff(times))) if len(times) > 1 else 0.0
        assert repr(files._median_step(times)) == repr(expected)


class TestRun:
    def test_zero_agents_empty_outputs(self, tmp_path):
        scenario = synthetic_scenario(mobility=MobilityConfig(n_agents=0, seed=0))
        _, samples = run_sampled(scenario, tmp_path)
        assert (tmp_path / "metrics.csv").exists()
        assert samples.metrics_rows
        assert all(r.rand == 1.0 for r in samples.metrics_rows)

    def test_deterministic_outputs_byte_identical(self, tmp_path):
        scenario = synthetic_scenario()
        run(scenario, tmp_path / "a")
        run(scenario, tmp_path / "b")
        for name in ("metrics.csv", "partitions.csv", "messages.log", "summary.json", "trace.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    # departures, a varying cast, a low-id provider, and a period not exact in floats
    @pytest.mark.parametrize(
        "case",
        [
            "removals_handover",
            "replay_varying_cast",
            "replay_low_provider",
            "short_period_handover",
        ],
    )
    def test_outputs_do_not_depend_on_block_size(self, case, tmp_path, monkeypatch):
        scenario = CASES[case](tmp_path)
        digests = []
        for cap in (1, percept.BLOCK_ENTRIES, 1 << 40):
            blocks = []
            monkeypatch.setattr(percept, "BLOCK_ENTRIES", cap)
            monkeypatch.setattr(percept, "observe_block", counted(percept.observe_block, blocks))
            run(scenario, tmp_path / str(cap))
            monkeypatch.undo()
            digests.append(output_digests(tmp_path / str(cap)))
            # whole periods, greedily: a block stops where the next period would pass the cap
            sizes = [[len(o) * len(f.ids) for f, o in zip(*args[:2])] for args in blocks]
            assert all(len(b) == 1 or sum(b) <= cap for b in sizes)
            assert all(sum(b) + c[0] > cap for b, c in zip(sizes, sizes[1:]))
            if cap == 1:
                assert all(len(b) == 1 for b in sizes)
            elif cap > 1 << 20:
                assert len(sizes) == 1
        assert digests[0] == digests[1] == digests[2]

    def test_replay_of_synthetic_trace_matches_synthetic_run(self, tmp_path):
        scenario = synthetic_scenario()
        result = run(scenario, tmp_path / "syn")
        replay = Scenario(
            source=ReplaySource(
                tmp_path / "syn" / "trace.csv", tmp_path / "syn" / "ground_truth.csv"
            ),
            protocol=scenario.protocol,
            net=scenario.net,
            percept=scenario.percept,
            duration=scenario.duration,
            dt=scenario.dt,
            seed=scenario.seed,
        )
        run(replay, tmp_path / "rep")
        for name in ("metrics.csv", "partitions.csv", "messages.log"):
            assert (tmp_path / "syn" / name).read_bytes() == (tmp_path / "rep" / name).read_bytes()

    @pytest.mark.parametrize("trace_dt", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("dt", [0.25, 0.5, 1.0])
    def test_replay_needs_trace_step_equal_to_dt(self, tmp_path, trace_dt, dt):
        synthetic = synthetic_scenario(duration=10.0, dt=trace_dt)
        run(synthetic, tmp_path / "syn")
        replay = dataclasses.replace(
            synthetic,
            source=ReplaySource(
                tmp_path / "syn" / "trace.csv", tmp_path / "syn" / "ground_truth.csv"
            ),
            dt=dt,
        )
        if dt != trace_dt:
            with pytest.raises(SchemaError, match=f"trace step {trace_dt!r} s"):
                run(replay, tmp_path / "rep")
            assert not (tmp_path / "rep").exists()
            return
        run(replay, tmp_path / "rep")
        for name in ("metrics.csv", "partitions.csv", "messages.log"):
            assert (tmp_path / "syn" / name).read_bytes() == (tmp_path / "rep" / name).read_bytes()

    def test_replay_must_start_at_zero(self, tmp_path):
        frames, _ = generate(MobilityConfig(n_agents=3, seed=1), 10.0, 0.5)
        shifted = [dataclasses.replace(f, time=f.time + 1.0) for f in frames]
        write_trace(tmp_path / "trace.csv", shifted)
        scenario = Scenario(source=ReplaySource(tmp_path / "trace.csv"), duration=10.0, dt=0.5)
        with pytest.raises(SchemaError, match="t=1.0"):
            run(scenario, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_replay_must_cover_duration(self, tmp_path):
        frames, _ = generate(MobilityConfig(n_agents=3, seed=1), 10.0, 0.5)
        write_trace(tmp_path / "trace.csv", frames)
        scenario = Scenario(source=ReplaySource(tmp_path / "trace.csv"), duration=60.0, dt=0.5)
        with pytest.raises(SchemaError, match=r"duration 60\.0 s .* t=10\.0"):
            run(scenario, tmp_path / "out")
        assert not (tmp_path / "out").exists()
        # a trace that ends exactly at the duration replays in full
        _, samples = run_sampled(dataclasses.replace(scenario, duration=10.0))
        assert samples.partitions[-1][0] == 10.0

    def test_metrics_rows_equal_per_sample_scores(self, tmp_path, monkeypatch):
        # agent 5 leaves the trace after 20 s and agent 2 departs at 30 s, so
        # the truth, the universe and the prediction all change between samples
        mob = MobilityConfig(n_agents=6, seed=3, group_formation_rate=0.05)
        frames, truth = generate(mob, 60.0, 0.5)
        frames = [
            f if f.time <= 20.0 else TraceFrame(f.time, f.ids[:5], f.pos[:5], f.angle[:5])
            for f in frames
        ]
        write_trace(tmp_path / "trace.csv", frames)
        write_ground_truth(tmp_path / "truth.csv", frames, truth)
        source = ReplaySource(tmp_path / "trace.csv", tmp_path / "truth.csv")
        scenario = Scenario(source=source, duration=60.0, seed=11, removals=((30.0, 2),))
        calls = []
        monkeypatch.setattr(harness, "scores", counted(harness.scores, calls))
        _, samples = run_sampled(scenario)
        scored = len(calls)

        frames, truth = ingest_trace(source.trace, source.ground_truth)
        expected, inputs = [], []
        for now, partition in samples.partitions:
            k = round(now / scenario.dt)
            universe = frozenset(frames[k].ids)
            expected.append(_score(now, Partition(truth[k]).restricted(universe), partition))
            inputs.append((truth[k], universe, partition))
        assert samples.metrics_rows == expected
        for part in range(3):
            assert len({sample[part] for sample in inputs}) > 1
        # only a sample whose inputs differ from the previous sample's is scored
        changed = sum(a != b for a, b in zip([None] + inputs, inputs))
        assert scored == changed < len(inputs)

    def test_replay_without_truth_skips_metrics(self, tmp_path):
        scenario = synthetic_scenario()
        run(scenario, tmp_path / "syn")
        replay = Scenario(
            source=ReplaySource(tmp_path / "syn" / "trace.csv", None),
            duration=scenario.duration,
            dt=scenario.dt,
            seed=scenario.seed,
        )
        _, samples = run_sampled(replay, tmp_path / "rep")
        assert all(r.rand is None for r in samples.metrics_rows)
        metrics_lines = (tmp_path / "rep" / "metrics.csv").read_text().splitlines()
        assert metrics_lines[1].split(",")[1] == ""

    def test_gzip_log(self, tmp_path):
        scenario = synthetic_scenario(gzip_log=True)
        run(scenario, tmp_path)
        assert (tmp_path / "messages.log.gz").exists()

    def test_opinion_providers_feed_opinions_but_stay_out(self, tmp_path):
        scenario = synthetic_scenario(
            mobility=MobilityConfig(n_agents=3, seed=1, group_formation_rate=0.0),
            opinion_providers=((100, 25.0, 25.0),),
        )
        result, samples = run_sampled(scenario)
        for _, partition in samples.partitions:
            assert 100 not in partition.universe
        provider_msgs = [
            e for e in result.network.log.entries if e.sender == 100
        ]
        assert all(type(e.message).__name__ == "MemberMsg" for e in provider_msgs)

    def test_provider_id_collision_rejected(self):
        scenario = synthetic_scenario(opinion_providers=((0, 1.0, 1.0),))
        with pytest.raises(ValueError):
            run(scenario)

    @pytest.mark.parametrize("period", [0.3, 0.7])
    def test_departure_at_its_period_despite_rounding(self, period):
        # k * period rounds below the decimal time for many k at these periods
        late = []
        for k in range(1, 41):
            at = round(k * period, 9)
            _, samples = run_sampled(
                synthetic_scenario(
                    mobility=MobilityConfig(n_agents=3, seed=1, group_formation_rate=0.0),
                    protocol=ProtocolConfig(period=period),
                    duration=at,
                    dt=0.1,
                    removals=((at, 1),),
                )
            )
            roles = [r for _, r in samples.role_samples]
            assert len(roles) == k + 1 and 1 in roles[k - 1]
            if 1 in roles[k]:
                late.append(k)
        assert late == []

    def test_provider_never_inside_any_member_set(self):
        scenario = synthetic_scenario(
            mobility=MobilityConfig(n_agents=5, seed=2, group_formation_rate=0.1),
            opinion_providers=((100, 25.0, 25.0), (101, 10.0, 10.0)),
            duration=40.0,
        )
        result = run(scenario)
        for entry in result.network.log.entries:
            msg = entry.message
            members = getattr(msg, "agent_members", None) or getattr(msg, "members", None)
            if members:
                assert not ({100, 101} & set(members))

    def test_shipped_scenarios_hold_message_invariants_and_bound(self):
        from socsim.messages import HeadMsg, MemberMsg
        from socsim.netsim import audit_message_bound

        scenario_dir = Path(__file__).parent.parent / "scenarios"
        for config in sorted(scenario_dir.glob("*.json")):
            from socsim.harness import load_scenario

            result = run(load_scenario(config))
            audit = audit_message_bound(result.network.log, window=1)
            assert audit.ok, f"{config.name}: {audit.violations[:3]}"
            for entry in result.network.log.entries:
                msg = entry.message
                if isinstance(msg, MemberMsg):
                    assert msg.opinions
                elif isinstance(msg, HeadMsg):
                    assert msg.head in msg.agent_members or entry.sender != msg.head
                    assert msg.agent_members <= msg.human_members

    def test_detach_extension_tracks_agentless_humans(self, tmp_path):
        import math

        from socsim.mobility import TraceFrame
        from socsim.percept import PerceptConfig
        from socsim.protocol import ProtocolConfig

        ids, pos, ang = [], [], []
        cx, cy = 25.0, 25.0
        for k in range(3):
            theta = 2 * math.pi * k / 3
            x, y = cx + 0.6 * math.cos(theta), cy + 0.6 * math.sin(theta)
            ids.append(k + 1)
            pos.append((x, y))
            ang.append(math.atan2(cy - y, cx - x) % (2 * math.pi))
        frames = [
            TraceFrame(s * 0.5, tuple(ids), np.array(pos), np.array(ang))
            for s in range(61)
        ]
        truth = [(frozenset({1, 2, 3}),) for _ in frames]
        write_trace(tmp_path / "trace.csv", frames)
        write_ground_truth(tmp_path / "truth.csv", frames, truth)
        scenario = Scenario(
            source=ReplaySource(tmp_path / "trace.csv", tmp_path / "truth.csv"),
            protocol=ProtocolConfig(detach_extension=True),
            percept=PerceptConfig(base_uncertainty=0.05),
            duration=30.0,
            dt=0.5,
            seed=2,
            agentless_ids=frozenset({3}),
        )
        result, samples = run_sampled(scenario)
        # the human without an agent ends up in the agreed situation via
        # third-party opinions alone
        final = samples.partitions[-1][1]
        assert frozenset({1, 2, 3}) in final.blocks
        assert samples.metrics_rows[-1].jaccard == 1.0
        # and never appears as an agent member
        for entry in result.network.log.entries:
            members = getattr(entry.message, "agent_members", None)
            if members is not None:
                assert 3 not in members

    def test_quiescent_head_member_sets_disjoint(self):
        # after convergence the latest head message of every live head
        # claims a disjoint member set
        from socsim.harness import load_scenario
        from socsim.protocol import Role

        scenario = load_scenario(
            Path(__file__).parent.parent / "scenarios" / "triads.json"
        )
        scenario.duration = 30.0
        result, samples = run_sampled(scenario)
        last_roles = dict(samples.role_samples)[30.0]
        live_heads = [a for a, (r, _) in last_roles.items() if r is Role.CLUSTER_HEAD]
        claimed: set[int] = set()
        for head in live_heads:
            msg = result.network.latest_head_msgs[head]
            assert not (claimed & set(msg.agent_members))
            claimed |= set(msg.agent_members)

    def test_routing_off_keeps_no_head_knowledge(self, monkeypatch):
        built = []
        post_init = Agent.__post_init__

        def recording(agent):
            post_init(agent)
            built.append(agent)

        monkeypatch.setattr(Agent, "__post_init__", recording)
        quick = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "quick.json")
        assert not quick.protocol.direct_to_head_routing
        run(quick)
        assert built and all(agent.observed_heads == {} for agent in built)


QUICK = Path(__file__).resolve().parent.parent / "scenarios" / "quick.json"


def files_under(root: Path) -> dict[str, bytes]:
    return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*")) if f.is_file()}


class TestStreamedOutputs:
    """A run writes its outputs as it goes, holds no whole trace, and leaves
    its output directory as it was when it fails."""

    def held_frames(self, monkeypatch, scenario, out_dir) -> int:
        """The most synthetic frames alive at the start of any period."""
        refs = []
        steps = mobility.steps

        def recording(*args):
            for frame, truth in steps(*args):
                refs.append(weakref.ref(frame))
                yield frame, truth

        peak = 0
        step = Network.step

        def counting(network, *args):
            nonlocal peak
            peak = max(peak, sum(ref() is not None for ref in refs))
            step(network, *args)

        with monkeypatch.context() as patch:
            patch.setattr(mobility, "steps", recording)
            patch.setattr(Network, "step", counting)
            run(scenario, out_dir)
        assert len(refs) == round(scenario.duration / scenario.dt) + 1
        return peak

    def test_held_frames_do_not_grow_with_duration(self, tmp_path, monkeypatch):
        # a percept block of 30 agents spans 2 periods; with bursts of 16
        # steps, the short run's 31 periods see every way the two overlap
        monkeypatch.setattr(harness, "STEPS_AHEAD", 16)
        mob = MobilityConfig(n_agents=30, seed=3, group_formation_rate=0.05)
        short, long = (
            self.held_frames(monkeypatch, synthetic_scenario(mobility=mob, duration=d), tmp_path / str(d))
            for d in (30.0, 300.0)
        )
        assert short == long < 31

    @pytest.mark.parametrize("label_waiting_phase", [False, True])
    @pytest.mark.parametrize("n_agents", [0, 1, 2])
    def test_streamed_trace_and_truth_equal_written_lists(self, tmp_path, n_agents, label_waiting_phase):
        # the duration ends half a period after the last period, whose step is written too
        mob = MobilityConfig(
            n_agents=n_agents, seed=5, group_formation_rate=0.2, label_waiting_phase=label_waiting_phase
        )
        scenario = synthetic_scenario(mobility=mob, duration=60.5)
        run(scenario, tmp_path / "out")
        frames, truth = generate(dataclasses.replace(mob, seed=mob.seed ^ scenario.seed), 60.5, 0.5)
        write_trace(tmp_path / "trace.csv", frames)
        write_ground_truth(tmp_path / "truth.csv", frames, truth)
        streamed = (tmp_path / "out" / "ground_truth.csv").read_text()
        assert (tmp_path / "out" / "trace.csv").read_bytes() == (tmp_path / "trace.csv").read_bytes()
        assert streamed == (tmp_path / "truth.csv").read_text()
        assert (";" in streamed) == (n_agents == 2)

    def test_failed_trace_write_leaves_previous_file(self, tmp_path):
        frames, _ = generate(MobilityConfig(n_agents=3, seed=1), 10.0, 0.5)
        path = tmp_path / "trace.csv"
        write_trace(path, frames[:4])
        before = path.read_bytes()
        # the third frame has no positions: the write fails after two frames' rows
        broken = [*frames[:2], dataclasses.replace(frames[2], pos=None), *frames[3:]]
        with pytest.raises(AttributeError):
            write_trace(path, broken)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("entry", ["run", "cli"])
    @pytest.mark.parametrize("previous", [False, True])
    def test_failed_run_leaves_out_dir_as_it_was(self, tmp_path, monkeypatch, entry, previous):
        out = tmp_path / "out" if previous else tmp_path / "new" / "out"
        if previous:
            run(load_scenario(QUICK), out)
        before = files_under(tmp_path)
        opened = []
        enter = atomic_write.__enter__
        monkeypatch.setattr(atomic_write, "__enter__", lambda self: opened.append(enter(self)) or opened[-1])
        # the first sample is taken after the first step; the second step fails
        steps = []
        step = Network.step

        def failing(network, *args):
            steps.append(args[0])
            if len(steps) > 1:
                raise RuntimeError("injected failure")
            step(network, *args)

        monkeypatch.setattr(Network, "step", failing)
        if entry == "run":
            with pytest.raises(RuntimeError, match="injected"):
                run(load_scenario(QUICK), out)
        else:
            assert cli.main(["simulate", "--config", str(QUICK), "--out-dir", str(out)]) == 2
        assert steps == [0.0, 1.0]
        assert len(opened) == 4 and all(fh.closed for fh in opened)
        assert files_under(tmp_path) == before
        assert not list(tmp_path.rglob("*.tmp"))
        assert out.exists() == previous and (tmp_path / "new").exists() is False


class TestCollectorScope:
    """``run`` suspends the cyclic garbage collector and restores the
    caller's setting, which is safe only while a run forms no cycles."""

    @staticmethod
    def short_replay(tmp_path) -> Scenario:
        frames, _ = generate(MobilityConfig(n_agents=3, seed=1), 10.0, 0.5)
        write_trace(tmp_path / "trace.csv", frames)
        return Scenario(source=ReplaySource(tmp_path / "trace.csv"), duration=60.0, dt=0.5)

    def test_suspended_during_run_and_restored(self, tmp_path, monkeypatch):
        import socsim.harness as harness

        during = []
        extract = harness.extract_partition

        def recording(*args):
            during.append(gc.isenabled())
            return extract(*args)

        monkeypatch.setattr(harness, "extract_partition", recording)
        assert gc.isenabled()
        run(synthetic_scenario(duration=5.0), tmp_path / "out")
        assert during and not any(during)
        assert gc.isenabled()
        with pytest.raises(SchemaError):
            run(self.short_replay(tmp_path), tmp_path / "short")
        assert gc.isenabled()

    def test_disabled_collector_stays_disabled(self, tmp_path):
        gc.disable()
        try:
            run(synthetic_scenario(duration=5.0), tmp_path / "out")
            assert not gc.isenabled()
            with pytest.raises(SchemaError):
                run(self.short_replay(tmp_path), tmp_path / "short")
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_cyclic_garbage_does_not_grow_with_duration(self, tmp_path):
        quick = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "quick.json")

        def garbage(duration):
            gc.collect()
            gc.disable()
            try:
                run(dataclasses.replace(quick, duration=duration), tmp_path / str(duration))
                return gc.collect()
            finally:
                gc.enable()

        assert garbage(30.0) == garbage(60.0)


class TestSweep:
    def test_three_values_three_rows(self, tmp_path):
        base = synthetic_scenario(duration=10.0)
        rows = sweep(base, "moving_group_ratio", [0.0, 0.5, 1.0], tmp_path)
        assert len(rows) == 3
        assert [r["seed"] for r in rows] == [base.seed ^ 0, base.seed ^ 1, base.seed ^ 2]
        assert (tmp_path / "sweep.csv").exists()

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            sweep(synthetic_scenario(), "loss", [])

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            sweep(synthetic_scenario(), "gravity", [1.0])

    def test_loss_sweep_on_replay_source_allowed(self, tmp_path):
        scenario = synthetic_scenario(duration=10.0)
        run(scenario, tmp_path / "syn")
        replay = Scenario(
            source=ReplaySource(
                tmp_path / "syn" / "trace.csv", tmp_path / "syn" / "ground_truth.csv"
            ),
            duration=10.0,
            dt=0.5,
        )
        rows = sweep(replay, "loss", [0.0, 0.3])
        assert len(rows) == 2

    @pytest.mark.parametrize(
        "parameter,value",
        [("moving_group_ratio", 0.25), ("n_agents", 7), ("loss", 0.125), ("noise", 0.3)],
    )
    def test_parameter_sets_its_swept_field(self, parameter, value):
        assert set(harness.SWEPT_FIELDS) == set(harness.SWEEPABLE)
        base = synthetic_scenario()
        scenario = harness._apply_parameter(base, parameter, value)
        *path, name = harness.SWEPT_FIELDS[parameter].split(".")
        section, base_section = scenario, base
        for step in path:
            section, base_section = getattr(section, step), getattr(base_section, step)
        assert getattr(section, name) == value
        # nothing else changes, and the base is left as it was
        assert dataclasses.replace(section, **{name: getattr(base_section, name)}) == base_section
        assert getattr(base_section, name) != value

    def test_mobility_sweep_on_replay_rejected(self, tmp_path):
        scenario = synthetic_scenario(duration=10.0)
        run(scenario, tmp_path / "syn")
        replay = Scenario(
            source=ReplaySource(tmp_path / "syn" / "trace.csv", None),
            duration=10.0,
            dt=0.5,
        )
        with pytest.raises(ValueError):
            sweep(replay, "n_agents", [5])


def mobility_section(**mobility):
    return {"source": {"type": "synthetic", "mobility": mobility}}


class TestCli:
    def write_config(self, tmp_path) -> Path:
        cfg = {
            "source": {"type": "synthetic", "mobility": {"n_agents": 4, "seed": 2}},
            "duration": 10.0,
            "dt": 0.5,
            "seed": 3,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_simulate_exit_zero(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        code = cli.main(
            ["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["samples"] > 0

    def test_missing_config_exit_one(self, tmp_path):
        code = cli.main(["simulate", "--config", str(tmp_path / "nope.json")])
        assert code == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--config", "{dir}"],
            ["replay", "--config", "{triads}", "--trace", "{dir}"],
            ["replay", "--config", "{triads}", "--ground-truth", "{dir}"],
            ["metrics", "--truth", "{dir}", "--predicted", "{truth}"],
            ["metrics", "--truth", "{truth}", "--predicted", "{dir}"],
        ],
    )
    def test_directory_input_exit_one(self, tmp_path, capsys, args):
        root = Path(__file__).parent.parent / "scenarios"
        paths = {
            "dir": tmp_path,
            "triads": root / "triads.json",
            "truth": root / "fixtures" / "triads_truth.csv",
        }
        out = ["--out-dir", str(tmp_path / "out")] if args[0] != "metrics" else []
        assert cli.main([a.format(**paths) for a in args] + out) == 1
        assert capsys.readouterr().err == f"config error: {tmp_path}: is a directory, not a file\n"

    def test_output_failure_stays_exit_two(self, tmp_path, capsys):
        # only reading an input is a config error: an out-dir that is a file
        # fails while the outputs are written
        config = self.write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert cli.main(["simulate", "--config", str(config), "--out-dir", str(taken)]) == 2
        assert capsys.readouterr().err.startswith("runtime error: ")

    def test_negated_triads_trace_exit_one(self, tmp_path, capsys):
        # every id a written as -a-1: rejected at its first row, not mid-run
        root = Path(__file__).parent.parent / "scenarios"
        header, *rows = (root / "fixtures" / "triads_trace.csv").read_text().splitlines()
        trace = tmp_path / "negated.csv"
        fields = [row.split(",") for row in rows]
        negated = [",".join([t, str(-int(a) - 1), *rest]) for t, a, *rest in fields]
        assert len(negated) == len(rows) > 1
        trace.write_text("\n".join([header, *negated]) + "\n")
        args = ["replay", "--config", str(root / "triads.json"), "--trace", str(trace)]
        assert cli.main(args + ["--out-dir", str(tmp_path / "out")]) == 1
        first = negated[0].split(",")[1]
        message = f"config error: {trace}: line 2: agent id {first} is negative\n"
        assert capsys.readouterr().err == message

    def test_bad_config_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"source": {"type": "synthetic"}, "dt": 0.3}))
        code = cli.main(["simulate", "--config", str(path)])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_runtime_failure_exit_two(self, tmp_path, capsys, monkeypatch):
        config = self.write_config(tmp_path)

        def boom(*args, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(cli.harness, "run", boom)
        code = cli.main(["simulate", "--config", str(config)])
        assert code == 2
        assert "runtime error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw, message",
        [({"source": {"type": "synthetic"}, "durration": 20.0}, "durration"), ([], "JSON object")],
    )
    def test_malformed_config_exit_one(self, tmp_path, capsys, raw, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["simulate", "--config", str(path)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, message",
        [
            ({"net": {"seed": 99}}, "seed"),
            ({"percept": {"base_rate": 0.5}}, "protocol.base_rate"),
            ({"percept": {"model": "gmm", "gmm": {"class_priors": [0.5, 0.5]}}}, "GmmModel"),
            ({"removals": [[2.0, 99]]}, "names no agent"),
            ({"agentless_ids": [1], "removals": [[2.0, 1]]}, "names no agent"),
            ({"removals": [[2.0, 1], [4.0, 1]]}, "names no agent"),
            # Python's JSON reader accepts the NaN literal that json.dumps writes
            ({"removals": [[math.nan, 1]]}, "finite"),
            ({"opinion_providers": [[100, 1, 1], [100, 40, 40]]}, "provider ids"),
            # non-finite times, written as the Infinity and NaN literals
            ({"dt": math.inf}, "dt must be positive and finite"),
            ({"duration": math.inf}, "duration must be positive and finite"),
            ({"sample_interval": math.inf}, "sample_interval must be positive and finite"),
            ({"sample_interval": math.nan}, "sample_interval must be positive and finite"),
            ({"protocol": {"period": math.inf}}, "period must be positive and finite"),
            ({"protocol": {"period": math.nan}}, "period must be positive and finite"),
            ({"percept": {"noise_sigma_pos": -0.5}}, "noise_sigma_pos must be non-negative"),
            ({"percept": {"noise_sigma_pos": math.nan}}, "noise_sigma_pos must be non-negative"),
            ({"protocol": {"opinion_ttl": math.nan}}, "opinion_ttl must be positive and finite"),
            ({"protocol": {"denial_ttl": -5.0}}, "denial_ttl must be positive and finite"),
            (
                {"protocol": {"head_knowledge_ttl": math.nan}},
                "head_knowledge_ttl must be positive and finite",
            ),
            ({"protocol": {"social_distance": math.nan}}, "social_distance must be positive"),
            ({"net": {"comm_range": math.nan}}, "comm_range must be positive"),
            ({"net": {"latency": math.inf}}, "latency must be a whole number"),
            ({"net": {"latency": math.nan}}, "latency must be a whole number"),
            ({"percept": {"observation_radius": math.nan}}, "observation_radius must be positive"),
            ({"percept": {"distance_midpoint": math.nan}}, "distance_midpoint must be finite"),
            (
                {"source": {"type": "synthetic", "mobility": {"area": [math.nan, 50.0]}}},
                "area must be positive and finite",
            ),
            (
                {"source": {"type": "synthetic", "mobility": {"group_formation_rate": math.nan}}},
                "group_formation_rate must be non-negative and finite",
            ),
            (mobility_section(interaction_distance=math.nan), "interaction_distance must be"),
            (mobility_section(angle_jitter_sigma=math.nan), "angle_jitter_sigma must be"),
            (mobility_section(speed_levels=[0, math.nan, 1.4]), "speed_levels must be"),
            (
                mobility_section(speed_transitions=[[1.5, -0.5, 0], [0, 1, 0], [0, 0, 1]]),
                "speed_transitions must lie in [0, 1]",
            ),
            (mobility_section(resting_duration_range=[math.nan, 60]), "resting_duration_range"),
        ],
    )
    def test_unusable_setting_exit_one(self, tmp_path, capsys, section, message):
        config = json.loads(self.write_config(tmp_path).read_text())
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**config, **section}))
        assert cli.main(["simulate", "--config", str(path)]) == 1
        assert message in capsys.readouterr().err

    def test_protocol_base_rate_reaches_percept(self, tmp_path):
        quick = json.loads(
            (Path(__file__).parent.parent / "scenarios" / "quick.json").read_text()
        )
        path = tmp_path / "quick.json"
        path.write_text(json.dumps({**quick, "protocol": {"base_rate": 0.5}}))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 0
        rates = set()
        for line in (out / "messages.log").read_text().splitlines():
            _, msg, _, _ = decode_record(line)
            if isinstance(msg, MemberMsg):
                rates.update(op.base_rate for op in msg.opinions.values())
        assert rates == {0.5}

    def test_bad_replay_inputs_exit_one(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        frames, _ = generate(MobilityConfig(n_agents=3, seed=1), 10.0, 2.0)
        write_trace(tmp_path / "coarse.csv", frames)
        (tmp_path / "nan.csv").write_text(
            "time,agent_id,x,y,shoulder_angle\n0.0,1,nan,0.0,0.0\n"
        )
        for trace in ("coarse.csv", "nan.csv"):
            code = cli.main(
                [
                    "replay",
                    "--config", str(config),
                    "--trace", str(tmp_path / trace),
                    "--out-dir", str(tmp_path / "out"),
                ]
            )
            assert code == 1, trace
        assert capsys.readouterr().err.count("config error") == 2

    def test_replay_shorter_than_duration_exit_one(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        frames, _ = generate(MobilityConfig(n_agents=3, seed=1), 5.0, 0.5)
        write_trace(tmp_path / "short.csv", frames)
        code = cli.main(
            [
                "replay",
                "--config", str(config),
                "--trace", str(tmp_path / "short.csv"),
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"config error: {tmp_path / 'short.csv'}: duration 10.0 s outlasts the trace" in err

    @pytest.mark.parametrize(
        "shift, stride, message",
        [
            (0.5, 1, "trace starts at t=0.5, a replay must start at t=0"),
            (0.0, 2, "trace step 1.0 s differs from scenario dt 0.5 s"),
        ],
    )
    def test_replay_inconsistent_trace_named_exit_one(
        self, tmp_path, capsys, shift, stride, message
    ):
        config = self.write_config(tmp_path)
        frames, _ = generate(MobilityConfig(n_agents=3, seed=1), 30.0, 0.5)
        frames = [dataclasses.replace(f, time=f.time + shift) for f in frames[::stride]]
        trace = tmp_path / "bad.csv"
        write_trace(trace, frames)
        code = cli.main(
            [
                "replay",
                "--config", str(config),
                "--trace", str(trace),
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert f"config error: {trace}: {message}" in capsys.readouterr().err

    def replay_triads(self, tmp_path, truth_times, name):
        """Replay the triads fixture against its truth rows at ``truth_times``."""
        root = Path(__file__).parent.parent / "scenarios"
        lines = (root / "fixtures" / "triads_truth.csv").read_text().splitlines()
        truth = tmp_path / f"{name}.csv"
        kept = [line for line in lines[1:] if truth_times(float(line.split(",")[0]))]
        truth.write_text("\n".join(lines[:1] + kept) + "\n")
        out = tmp_path / name
        code = cli.main(
            [
                "replay",
                "--config", str(root / "triads.json"),
                "--ground-truth", str(truth),
                "--out-dir", str(out),
            ]
        )
        return code, truth, out

    def test_replay_truth_ending_early_exit_one(self, tmp_path, capsys):
        # samples fall on whole seconds; the first past t=4.0 is 1 s from the truth
        code, truth, out = self.replay_triads(tmp_path, lambda t: t <= 4.0, "cut")
        assert code == 1
        err = capsys.readouterr().err
        message = "no ground truth within 0.25 s of the scored frame at t=5.0"
        assert f"config error: {truth}: {message}" in err
        assert not out.exists()

    def test_replay_truth_every_second_keeps_rows(self, tmp_path, capsys):
        # a truth step of 1 s covers the 0.5 s trace steps, and each sample
        # reads the same truth time as with the full file
        code, _, full = self.replay_triads(tmp_path, lambda t: True, "full")
        assert code == 0
        code, _, sparse = self.replay_triads(tmp_path, lambda t: t == int(t), "sparse")
        assert code == 0
        full_rows = (full / "metrics.csv").read_bytes()
        assert (sparse / "metrics.csv").read_bytes() == full_rows
        assert full_rows.count(b"\n") == 117

    def test_non_finite_situation_time_exit_one(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        good.write_text("time,situation_id,member_ids\n0.0,0,1;2\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("time,situation_id,member_ids\ninf,0,1;2\n")
        for truth, predicted in ((bad, good), (good, bad)):
            code = cli.main(["metrics", "--truth", str(truth), "--predicted", str(predicted)])
            assert code == 1
        assert capsys.readouterr().err.count("line 2") == 2

    def test_agent_in_two_situations_exit_one(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        good.write_text("time,situation_id,member_ids\n0.0,0,1;2\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("time,situation_id,member_ids\n0.0,0,1;2\n0.0,1,2;3\n")
        for truth, predicted in ((bad, good), (good, bad)):
            code = cli.main(["metrics", "--truth", str(truth), "--predicted", str(predicted)])
            assert code == 1
        err = capsys.readouterr().err
        assert err.count(f"config error: {bad}: line 3: agents [2] are in two situations") == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("time,situation,members\n", "line 1: expected header 'time,situation_id,member_ids'"),
            ("time,situation_id,member_ids\n0.0,0\n", "line 2: expected 3 fields, got 2"),
            (
                "time,situation_id,member_ids\n0.0,0,1;x\n",
                "line 2: invalid literal for int() with base 10: 'x'",
            ),
            (
                "time,situation_id,member_ids\nx,0,1\n",
                "line 2: could not convert string to float: 'x'",
            ),
            ("time,situation_id,member_ids\n", "no situation rows after the header"),
        ],
    )
    def test_bad_situations_file_named_exit_one(self, tmp_path, capsys, text, message):
        good = tmp_path / "good.csv"
        good.write_text("time,situation_id,member_ids\n0.0,0,1;2\n")
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        for truth, predicted in ((bad, good), (good, bad)):
            code = cli.main(["metrics", "--truth", str(truth), "--predicted", str(predicted)])
            assert code == 1
        assert capsys.readouterr().err.count(f"config error: {bad}: {message}") == 2

    def test_negated_triads_truth_exit_one(self, tmp_path, capsys):
        # every member id a written as -a-1: rejected at its first row, by
        # the offline comparison and by a replay alike
        root = Path(__file__).parent.parent / "scenarios"
        header, *rows = (root / "fixtures" / "triads_truth.csv").read_text().splitlines()
        negated = []
        for row in rows:
            t, sid, members = row.split(",")
            negated.append(f"{t},{sid},{';'.join(str(-int(m) - 1) for m in members.split(';'))}")
        truth = tmp_path / "negated.csv"
        truth.write_text("\n".join([header, *negated]) + "\n")
        replay = ["replay", "--config", str(root / "triads.json"), "--ground-truth", str(truth)]
        assert cli.main(["metrics", "--truth", str(truth), "--predicted", str(truth)]) == 1
        assert cli.main(replay + ["--out-dir", str(tmp_path / "out")]) == 1
        first = negated[0].split(",")[2]
        message = f"config error: {truth}: line 2: member ids {first!r} must each be an agent id"
        assert capsys.readouterr().err.count(message) == 2
        assert not (tmp_path / "out").exists()

    def test_replay_truth_naming_an_agent_of_no_frame_exit_one(self, tmp_path, capsys):
        root = Path(__file__).parent.parent / "scenarios"
        header, *rows = (root / "fixtures" / "triads_truth.csv").read_text().splitlines()
        # agent 99 joins a situation of the last truth time; the trace never has it
        t, sid, members = rows[-1].split(",")
        truth = tmp_path / "truth.csv"
        truth.write_text("\n".join([header, *rows[:-1], f"{t},{sid},{members};99"]) + "\n")
        args = ["replay", "--config", str(root / "triads.json"), "--ground-truth", str(truth)]
        assert cli.main(args + ["--out-dir", str(tmp_path / "out")]) == 1
        message = f"config error: {truth}: agent 99 is in no frame of the trace\n"
        assert capsys.readouterr().err == message
        assert not (tmp_path / "out").exists()

    def test_replay_with_header_only_truth_exit_one(self, tmp_path, capsys):
        empty = tmp_path / "truth.csv"
        empty.write_text("time,situation_id,member_ids\n")
        config = Path(__file__).parent.parent / "scenarios" / "triads.json"
        code = cli.main(
            [
                "replay",
                "--config", str(config),
                "--ground-truth", str(empty),
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert f"config error: {empty}: no situation rows after the header" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_replay_truth_with_agent_in_two_situations_exit_one(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        assert cli.main(
            ["simulate", "--config", str(config), "--out-dir", str(tmp_path / "syn")]
        ) == 0
        capsys.readouterr()
        truth = tmp_path / "syn" / "ground_truth.csv"
        lines = truth.read_text().splitlines()
        lines.insert(3, "0.0,9,0;1")
        truth.write_text("\n".join(lines) + "\n")
        code = cli.main(
            [
                "replay",
                "--config", str(config),
                "--trace", str(tmp_path / "syn" / "trace.csv"),
                "--ground-truth", str(truth),
                "--out-dir", str(tmp_path / "rep"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"{truth}: line 4: agents [0, 1] are in two situations at t=0.0" in err
        assert not (tmp_path / "rep").exists()

    def test_seed_override(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        cli.main(["simulate", "--config", str(config), "--seed", "99", "--out-dir", str(tmp_path / "o")])
        summary = json.loads(capsys.readouterr().out)
        assert summary["seed"] == 99

    def test_replay_subcommand(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        assert cli.main(
            ["simulate", "--config", str(config), "--out-dir", str(tmp_path / "syn")]
        ) == 0
        capsys.readouterr()
        code = cli.main(
            [
                "replay",
                "--config", str(config),
                "--trace", str(tmp_path / "syn" / "trace.csv"),
                "--ground-truth", str(tmp_path / "syn" / "ground_truth.csv"),
                "--out-dir", str(tmp_path / "rep"),
            ]
        )
        assert code == 0
        assert (tmp_path / "rep" / "metrics.csv").exists()

    def test_sweep_subcommand(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        code = cli.main(
            [
                "sweep",
                "--config", str(config),
                "--parameter", "loss",
                "--values", "0.0,0.2",
                "--out-dir", str(tmp_path / "sweep"),
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert (tmp_path / "sweep" / "sweep.csv").exists()

    def test_sweep_rejects_negative_noise_before_any_run(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        out = tmp_path / "sweep"
        code = cli.main(
            [
                "sweep",
                "--config", str(config),
                "--parameter", "noise",
                "--values", "0,-0.2",
                "--out-dir", str(out),
            ]
        )
        assert code == 1
        assert "noise_sigma_pos must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values, item", [("0,,0.2", 2), (",0.1", 1), ("0.1,", 2)])
    def test_sweep_rejects_empty_value_before_any_run(self, tmp_path, capsys, values, item):
        config = self.write_config(tmp_path)
        out = tmp_path / "sweep"
        code = cli.main(
            [
                "sweep",
                "--config", str(config),
                "--parameter", "loss",
                "--values", values,
                "--out-dir", str(out),
            ]
        )
        assert code == 1
        assert f"--values item {item} is empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "parameter, values, message",
        [
            ("n_agents", "4,8.5", "source.mobility.n_agents must be a whole number, got 8.5"),
            (
                "n_agents",
                "4,-3",
                "source.mobility.n_agents must be non-negative and finite, got -3",
            ),
            ("n_agents", "4,x", "--values item 2 'x' is not a JSON number"),
            ("n_agents", "true", "--values item 1 'true' is not a JSON number"),
            ("loss", "0,nan", "--values item 2 'nan' is not a JSON number"),
            ("loss", "0,NaN", "--values item 2 'NaN' is not a JSON number"),
            ("loss", '0,"0.1"', "--values item 2 '\"0.1\"' is not a JSON number"),
            ("loss", "0,1.5", "net.loss_probability must lie in [0, 1), got 1.5"),
        ],
    )
    def test_sweep_values_are_json_numbers_checked_by_the_schema(
        self, tmp_path, capsys, parameter, values, message
    ):
        config = self.write_config(tmp_path)
        out = tmp_path / "sweep"
        code = cli.main(
            [
                "sweep",
                "--config", str(config),
                "--parameter", parameter,
                "--values", values,
                "--out-dir", str(out),
            ]
        )
        assert code == 1
        # a value the schema rejects is named by the parameter and its place
        named = "" if message.startswith("--values") else f"sweep {parameter}, value 2: "
        assert capsys.readouterr().err == f"config error: {named}{message}\n"
        assert not out.exists()

    def test_sweep_reports_values_as_parsed(self, tmp_path, capsys):
        # a whole JSON number in any spelling is an n_agents; loss is a float
        config = self.write_config(tmp_path)
        for parameter, values, expected in (("n_agents", "3,1e0", [3, 1]), ("loss", "0", [0.0])):
            code = cli.main(
                [
                    "sweep",
                    "--config", str(config),
                    "--parameter", parameter,
                    "--values", values,
                    "--out-dir", str(tmp_path / parameter),
                ]
            )
            assert code == 0
            rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
            assert [row["value"] for row in rows] == expected
            assert [type(v) for v in expected] == [type(row["value"]) for row in rows]

    def test_metrics_rejects_empty_member_id(self, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        truth.write_text("time,situation_id,member_ids\n0.0,0,1;2\n0.5,0,1;;2\n")
        code = cli.main(["metrics", "--truth", str(truth), "--predicted", str(truth)])
        assert code == 1
        assert f"{truth}: line 3: empty member id" in capsys.readouterr().err

    def test_metrics_subcommand(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        assert cli.main(
            ["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]
        ) == 0
        capsys.readouterr()
        code = cli.main(
            [
                "metrics",
                "--truth", str(tmp_path / "out" / "ground_truth.csv"),
                "--predicted", str(tmp_path / "out" / "partitions.csv"),
                "--out", str(tmp_path / "cmp.csv"),
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert "rand_mean" in summary
        assert (tmp_path / "cmp.csv").exists()

    def test_jsonl_format(self, tmp_path):
        config = self.write_config(tmp_path)
        # jsonl format applies to the sweep summary table
        code = cli.main(
            [
                "sweep",
                "--config", str(config),
                "--parameter", "loss",
                "--values", "0.0",
                "--out-dir", str(tmp_path / "s"),
                "--format", "jsonl",
            ]
        )
        assert code == 0
        line = (tmp_path / "s" / "sweep.jsonl").read_text().strip()
        assert json.loads(line)["parameter"] == "loss"


    def test_jsonl_format_applies_to_run_metrics(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        syn, rep, swp = tmp_path / "syn", tmp_path / "rep", tmp_path / "sweep"
        jsonl = ["--format", "jsonl"]
        assert cli.main(["simulate", "--config", str(config), "--out-dir", str(syn)] + jsonl) == 0
        code = cli.main(
            [
                "replay",
                "--config", str(config),
                "--trace", str(syn / "trace.csv"),
                "--ground-truth", str(syn / "ground_truth.csv"),
                "--out-dir", str(rep),
            ]
            + jsonl
        )
        assert code == 0
        code = cli.main(
            [
                "sweep",
                "--config", str(config),
                "--parameter", "loss",
                "--values", "0.0",
                "--out-dir", str(swp),
            ]
            + jsonl
        )
        assert code == 0
        for out_dir in (syn, rep, swp / "run_loss_0"):
            assert not (out_dir / "metrics.csv").exists()
            rows = (out_dir / "metrics.jsonl").read_text().splitlines()
            assert json.loads(rows[0])["time"] == 0.0


class TestGoldenSummary:
    def test_quick_scenario_pinned_values(self):
        # golden regression: summary of the shipped quick scenario,
        # computed once and frozen (runs are byte-deterministic)
        from socsim.harness import load_scenario

        scenario = load_scenario(
            Path(__file__).parent.parent / "scenarios" / "quick.json"
        )
        result = run(scenario)
        golden = {
            "ari_mean": 0.41152439728091433,
            "ari_std": 0.4921537053442351,
            "fp_pairs_total": 10,
            "jaccard_mean": 0.416015132408575,
            "jaccard_std": 0.48752861447412965,
            "rand_mean": 0.7839578454332552,
            "rand_std": 0.19725727145963917,
            "samples": 61,
            "seed": 7,
        }
        assert result.summary.keys() == golden.keys()
        for key, expected in golden.items():
            if isinstance(expected, float):
                assert result.summary[key] == pytest.approx(expected, rel=1e-9), key
            else:
                assert result.summary[key] == expected, key


class TestOfflineCompare:
    def test_identical_partitions_score_one(self, tmp_path):
        scenario = synthetic_scenario(duration=10.0)
        run(scenario, tmp_path)
        rows, summary = compare_partition_files(
            tmp_path / "ground_truth.csv", tmp_path / "ground_truth.csv"
        )
        assert summary["rand_mean"] == 1.0
        assert summary["jaccard_mean"] == 1.0

    # sha256 of the `socsim metrics --out` file in each format, and the
    # stdout summary, for two comparisons: the quick scenario's ground truth
    # against the partitions of another seed, and the triads fixture truth
    # (agents 1-9) up to the quick run's end at 60 s against the quick
    # partitions (agents 0-7), so truth agents the prediction lacks are
    # padded as singletons. Its rows are the first 121 of the full fixture's,
    # which the quick partitions do not cover.
    PINNED = {
        "quick_vs_seed8": (
            "2ce3d97d99a3ab4e4b102867ad6b95cd938a944a48c05c32e7ca59d8d05d1dc3",
            "1b43dd5107839dbc56934f0a353b491099c498db4580fcfa1839c552f12a45ab",
            {
                "ari_mean": 0.436626971480537,
                "ari_std": 0.5256654957696061,
                "fp_pairs_total": 70,
                "jaccard_mean": 0.47362485998849635,
                "jaccard_std": 0.4893130832947796,
                "rand_mean": 0.7733175914994097,
                "rand_std": 0.21274092648220536,
                "samples": 121,
            },
        ),
        "triads_truth_vs_quick": (
            "c5f30c3f967a206d3b5e311844da46baccaccc3f06e13a06f41fb2174cc329e3",
            "6961e08b8f3598f346a4c6d035836699f57b74baed206ed1b6dcb235bb7326c3",
            {
                "ari_mean": -0.009569377990430622,
                "ari_std": 0.02029971620631237,
                "fp_pairs_total": 22,
                "jaccard_mean": 0.0,
                "jaccard_std": 0.0,
                "rand_mean": 0.7449494949494949,
                "rand_std": 0.010713739108887088,
                "samples": 121,
            },
        ),
    }

    def test_rows_equal_per_time_scores(self, tmp_path, monkeypatch):
        quick = load_scenario(Path(__file__).parent.parent / "scenarios" / "quick.json")
        run(quick, tmp_path / "seed7")
        run(dataclasses.replace(quick, seed=8), tmp_path / "seed8")
        truth_path = tmp_path / "seed7" / "ground_truth.csv"
        predicted_path = tmp_path / "seed8" / "partitions.csv"
        calls = []
        monkeypatch.setattr(harness, "scores", counted(harness.scores, calls))
        rows, _ = compare_partition_files(truth_path, predicted_path)
        scored = len(calls)

        truth, predicted = read_situations(truth_path), read_situations(predicted_path)
        expected, inputs = [], []
        for t in sorted(truth):
            # the nearest predicted time, the earlier one on a tie
            nearest = min(predicted, key=lambda p: (abs(p - t), p))
            expected.append(_score(t, Partition(truth[t]), Partition(predicted[nearest])))
            inputs.append((truth[t], predicted[nearest]))
        assert rows == expected
        assert len({tuple(sample[0]) for sample in inputs}) > 1
        assert len({tuple(sample[1]) for sample in inputs}) > 1
        # only a time whose situations differ from the previous time's is scored
        changed = sum(a != b for a, b in zip([None] + inputs, inputs))
        assert scored == changed < len(inputs)

    def test_prediction_not_covering_truth_exit_one(self, tmp_path, capsys):
        # the triads replay's partitions cut after t=4.0 s: truth times from
        # 5.0 s on have no predicted time within half the larger median step
        root = Path(__file__).parent.parent
        truth = root / "scenarios" / "fixtures" / "triads_truth.csv"
        out = tmp_path / "replay"
        config = root / "scenarios" / "triads.json"
        assert cli.main(["replay", "--config", str(config), "--out-dir", str(out)]) == 0
        header, *rows = (out / "partitions.csv").read_text().splitlines(keepends=True)
        cut = tmp_path / "cut.csv"
        cut.write_text(header + "".join(r for r in rows if float(r.split(",")[0]) <= 4.0))
        capsys.readouterr()
        for predicted, code in ((out / "partitions.csv", 0), (cut, 1)):
            args = ["metrics", "--truth", str(truth), "--predicted", str(predicted)]
            assert cli.main(args) == code
        captured = capsys.readouterr()
        assert json.loads(captured.out)["samples"] == 231
        assert f"{cut}: no predicted situations within 0.5 s of the truth time t=5.0" in captured.err

    def test_metrics_command_output_pinned(self, tmp_path, capsys):
        import dataclasses
        import hashlib

        from socsim.harness import load_scenario

        root = Path(__file__).parent.parent
        quick = load_scenario(root / "scenarios" / "quick.json")
        run(quick, tmp_path / "seed7")
        run(dataclasses.replace(quick, seed=8), tmp_path / "seed8")
        triads = (root / "scenarios" / "fixtures" / "triads_truth.csv").read_text()
        header, *rows = triads.splitlines(keepends=True)
        (tmp_path / "triads_to_60.csv").write_text(
            header + "".join(row for row in rows if float(row.split(",")[0]) <= 60.0)
        )
        pairs = {
            "quick_vs_seed8": (
                tmp_path / "seed7" / "ground_truth.csv",
                tmp_path / "seed8" / "partitions.csv",
            ),
            "triads_truth_vs_quick": (
                tmp_path / "triads_to_60.csv",
                tmp_path / "seed7" / "partitions.csv",
            ),
        }
        for name, (truth, predicted) in pairs.items():
            csv_digest, jsonl_digest, summary = self.PINNED[name]
            for fmt, digest in (("csv", csv_digest), ("jsonl", jsonl_digest)):
                out = tmp_path / f"{name}.{fmt}"
                code = cli.main(
                    [
                        "metrics",
                        "--truth", str(truth),
                        "--predicted", str(predicted),
                        "--out", str(out),
                        "--format", fmt,
                    ]
                )
                assert code == 0
                assert json.loads(capsys.readouterr().out) == summary, (name, fmt)
                assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (name, fmt)
