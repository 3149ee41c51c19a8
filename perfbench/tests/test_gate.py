import json
from pathlib import Path

import child
import run
from workloads import END_TO_END, PER_LAYER, WORKLOADS, Run, Workload

DIGESTS = {"partitions.csv": "a", "metrics.csv": "b", "messages.log": "c"}


def result(digests=DIGESTS, ok=True):
    return {
        "ok": ok,
        "problems": [] if ok else ["boom"],
        "digests": dict(digests),
        "wall_s": 2.0,
        "cpu_s": 1.5,
        "sim_s": 10.0,
        "rss_mb": 50.0,
        "ari_mean": 0.5,
        "stats": {"log_entries": 20, "agent_periods": 10, "wire_bytes": 400},
        "setup_s": 0.1,
    }


def test_identical_repeats_pass():
    results = [[result(), result()], [result(), result()]]
    assert run.gate(results, None) == (0, [])
    assert run.gate(results, [DIGESTS, DIGESTS]) == (0, [])


def test_digest_mismatch_between_repeats_is_a_failed_run():
    results = [[result()], [result(dict(DIGESTS, **{"messages.log": "x"}))]]
    failed, problems = run.gate(results, None)
    assert failed == 1
    assert "differ between repeats" in problems[0]
    metrics = run.end_to_end(results, [0.1], failed)
    assert metrics["ok_runs"] == 0.5


def test_digest_mismatch_with_reference_is_a_failed_run():
    failed, problems = run.gate([[result()]], [dict(DIGESTS, **{"metrics.csv": "x"})])
    assert failed == 1 and "reference.json" in problems[0]


def test_child_problem_is_a_failed_run():
    failed, problems = run.gate([[result(ok=False)]], None)
    assert failed == 1 and "boom" in problems[0]


def test_end_to_end_is_a_ratio_of_totals():
    metrics = run.end_to_end([[result(), result()]], [0.1, 0.3, 0.2], 0)
    assert metrics["wall_per_sim_s"] == 0.2
    assert metrics["cpu_per_sim_s"] == 0.15
    assert metrics["setup_s"] == 0.2
    assert metrics["msgs_per_agent_period"] == 2.0
    assert metrics["ok_runs"] == 1.0
    assert list(metrics) == [name for name, *_ in END_TO_END]


def test_traced_runs_must_repeat_their_counts():
    base = {"stats": {"log_entries": 7}}
    a = {"span_calls": {"x": 1}, "counts": {"emissions": 7}, "stats": {"log_entries": 7}}
    assert run.trace_check(base, [a, dict(a)]) == []
    b = dict(a, span_calls={"x": 2})
    assert run.trace_check(base, [a, b])
    assert run.trace_check({"stats": {"log_entries": 8}}, [a, dict(a)])


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in PER_LAYER
    ]


def test_workloads_derive_their_inputs_from_the_seed():
    for workload in WORKLOADS.values():
        assert workload.build(3) == workload.build(3)
        assert workload.build(3) != workload.build(4)


def test_layer_metrics_cover_every_per_layer_name():
    stats = {"opinions_delivered": 0, "requests": 0, "accepted": 0, "deliveries": 0,
             "broadcasts": 0, "broadcast_deliveries": 0, "wire_bytes": 40, "agent_periods": 4}
    names = set(child.layer_metrics({}, {}, stats)) | {"trace_overhead"}
    assert names == {name for name, *_ in PER_LAYER}


TINY = Workload(
    "tiny",
    "test only",
    0,
    lambda seed: [
        Run(
            {
                "source": {"type": "synthetic", "mobility": {"n_agents": 5, "seed": seed}},
                "duration": 6.0,
                "seed": seed,
            }
        )
    ],
)


def children(tmp_path):
    return run.Children(tmp_path, run._clock() + 120.0)


def test_traced_and_untraced_runs_agree(tmp_path):
    report = run.bench_traced(TINY, 1, children(tmp_path))
    assert report["correct"], report["problems"]
    assert report["attempted"] == 3 and report["failed"] == 0
    assert set(report["metrics"]) == {name for name, *_ in PER_LAYER}
    assert report["metrics"]["netsim.emissions"] == report["runs"][0][0]["stats"]["log_entries"]


def test_reference_mismatch_fails_the_command(tmp_path, monkeypatch):
    reference = tmp_path / "reference.json"
    reference.write_text(json.dumps({"tiny": [DIGESTS]}))
    monkeypatch.setattr(run, "REFERENCE", reference)
    report = run.bench(TINY, 0, 0.0, children(tmp_path))
    assert not report["correct"]
    assert report["failed"] == report["attempted"] == 1
    assert report["metrics"]["ok_runs"] == 0.0
