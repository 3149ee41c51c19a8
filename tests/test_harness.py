"""Harness tests: config parsing, ingestion, pipeline runs, CLI surface."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from socsim import cli
from socsim.harness import (
    ReplaySource,
    Scenario,
    SchemaError,
    SyntheticSource,
    _nearest,
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
from socsim.mobility import MobilityConfig, generate


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

    def test_bad_source_rejected(self):
        with pytest.raises(SchemaError):
            scenario_from_dict({"source": {"type": "teleport"}})

    def test_unknown_top_level_key_rejected(self):
        raw = {"source": {"type": "synthetic"}, "durration": 20.0}
        with pytest.raises(SchemaError, match="durration"):
            scenario_from_dict(raw)

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

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,agent,x,y,a\n")
        with pytest.raises(SchemaError):
            ingest_trace(path)

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


class TestRun:
    def test_zero_agents_empty_outputs(self, tmp_path):
        scenario = synthetic_scenario(mobility=MobilityConfig(n_agents=0, seed=0))
        result = run(scenario, tmp_path)
        assert (tmp_path / "metrics.csv").exists()
        assert result.metrics_rows
        assert all(r.rand == 1.0 for r in result.metrics_rows)

    def test_deterministic_outputs_byte_identical(self, tmp_path):
        scenario = synthetic_scenario()
        run(scenario, tmp_path / "a")
        run(scenario, tmp_path / "b")
        for name in ("metrics.csv", "partitions.csv", "messages.log", "summary.json", "trace.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

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

    def test_replay_without_truth_skips_metrics(self, tmp_path):
        scenario = synthetic_scenario()
        run(scenario, tmp_path / "syn")
        replay = Scenario(
            source=ReplaySource(tmp_path / "syn" / "trace.csv", None),
            duration=scenario.duration,
            dt=scenario.dt,
            seed=scenario.seed,
        )
        result = run(replay, tmp_path / "rep")
        assert all(r.rand is None for r in result.metrics_rows)
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
        result = run(scenario)
        for _, partition in result.partitions:
            assert 100 not in partition.universe
        provider_msgs = [
            e for e in result.network.log.entries if e.sender == 100
        ]
        assert all(type(e.message).__name__ == "MemberMsg" for e in provider_msgs)

    def test_provider_id_collision_rejected(self):
        scenario = synthetic_scenario(opinion_providers=((0, 1.0, 1.0),))
        with pytest.raises(ValueError):
            run(scenario)

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
        result = run(scenario)
        # the human without an agent ends up in the agreed situation via
        # third-party opinions alone
        final = result.partitions[-1][1]
        assert frozenset({1, 2, 3}) in final.blocks
        assert result.metrics_rows[-1].jaccard == 1.0
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
        result = run(scenario)
        last_roles = dict(result.role_samples)[30.0]
        live_heads = [a for a, (r, _) in last_roles.items() if r is Role.CLUSTER_HEAD]
        claimed: set[int] = set()
        for head in live_heads:
            _, msg = result.network.latest_head_msgs[head]
            assert not (claimed & set(msg.agent_members))
            claimed |= set(msg.agent_members)


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

    def test_non_finite_situation_time_exit_one(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        good.write_text("time,situation_id,member_ids\n0.0,0,1;2\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("time,situation_id,member_ids\ninf,0,1;2\n")
        for truth, predicted in ((bad, good), (good, bad)):
            code = cli.main(["metrics", "--truth", str(truth), "--predicted", str(predicted)])
            assert code == 1
        assert capsys.readouterr().err.count("line 2") == 2

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
    # (agents 1-9) against the quick partitions (agents 0-7), so truth
    # agents the prediction lacks are padded as singletons
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
            "7785d65a967f2460c809977c7c97d9b439f0741b3daa40ec555615b495598ee5",
            "3d28017264915ea949bb61475e37724a1dda4554d077fbb7107052ed466e257b",
            {
                "ari_mean": -0.005012531328320803,
                "ari_std": 0.015449659155310717,
                "fp_pairs_total": 22,
                "jaccard_mean": 0.0,
                "jaccard_std": 0.0,
                "rand_mean": 0.7473544973544973,
                "rand_std": 0.008153986776413994,
                "samples": 231,
            },
        ),
    }

    def test_metrics_command_output_pinned(self, tmp_path, capsys):
        import dataclasses
        import hashlib

        from socsim.harness import load_scenario

        root = Path(__file__).parent.parent
        quick = load_scenario(root / "scenarios" / "quick.json")
        run(quick, tmp_path / "seed7")
        run(dataclasses.replace(quick, seed=8), tmp_path / "seed8")
        pairs = {
            "quick_vs_seed8": (
                tmp_path / "seed7" / "ground_truth.csv",
                tmp_path / "seed8" / "partitions.csv",
            ),
            "triads_truth_vs_quick": (
                root / "scenarios" / "fixtures" / "triads_truth.csv",
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
