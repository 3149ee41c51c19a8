"""One benchmark run of socsim in a fresh, single-threaded process.

Usage: python3 child.py JOB_JSON SPAWN_TIME

``SPAWN_TIME`` is the parent's CLOCK_MONOTONIC reading just before it
started this process, so set-up time covers interpreter start, the socsim
import and loading the scenario. The job file names a mode:

- ``prep``: generate and write the replay traces of a workload (untimed);
- ``setup``: import socsim, load the scenario and report set-up time only;
- ``measure``: additionally run the scenario (and, for replay, the offline
  comparison) as the timed part, optionally under the tracer, then check
  the outputs outside the timed part.

The result goes to the job's ``result`` path as JSON.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def socsim_targets():
    """(owner, attribute, span name, tally) for every traced call.

    Names are wrapped where the caller resolves them: ``protocol`` and
    ``harness`` import ``fuse_averaging_multi`` and the metric functions by
    name, so their own module attributes are the ones replaced."""
    from socsim import _kernels, harness, mobility, netsim, percept, protocol

    def emitted(counts, args, result):
        counts["emissions"] = counts.get("emissions", 0) + len(result)

    def opinions_out(counts, args, result):
        counts["opinions_out"] = counts.get("opinions_out", 0) + len(result)

    def kernel_rows(counts, args, result):
        counts["kernel_rows"] = counts.get("kernel_rows", 0) + len(args[0])

    def compared(counts, args, result):
        counts["compare_rows"] = counts.get("compare_rows", 0) + len(result[0])

    agent, network = protocol.Agent, netsim.Network
    return [
        (mobility, "generate", "mobility.generate", None),
        (percept, "observe", "percept.observe", opinions_out),
        (percept, "neighbors_within", "percept.neighbors", None),
        (_kernels, "pairwise_features", "kernels.pairwise_features", kernel_rows),
        (agent, "tick", "protocol.tick", emitted),
        (agent, "handle_message", "protocol.handle_message", emitted),
        (agent, "get_candidate", "protocol.get_candidate", None),
        (agent, "send_request", "protocol.send_request", emitted),
        (agent, "handover_head", "protocol.handover_head", emitted),
        (agent, "apply_percept", "protocol.apply_percept", None),
        (protocol, "fuse_averaging_multi", "opinions.fuse", None),
        (network, "step", "netsim.step", None),
        (netsim.DeliveryLog, "write", "netsim.log_write", None),
        (harness, "run", "harness.run", None),
        (harness, "ingest_trace", "harness.ingest_trace", None),
        (harness, "_write_outputs", "harness.write", None),
        (harness, "extract_partition", "metrics.extract_partition", None),
        (harness, "pair_counts", "metrics.indices", None),
        (harness, "rand_index", "metrics.indices", None),
        (harness, "adjusted_rand_index", "metrics.indices", None),
        (harness, "jaccard_index", "metrics.indices", None),
        (harness, "compare_partition_files", "metrics.compare", compared),
    ]


def wrapped_targets() -> list[str]:
    """Names of traced attributes that currently hold a wrapper."""
    from tracer import is_wrapper

    found = []
    for owner, attr, name, _ in socsim_targets():
        value = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if is_wrapper(value):
            found.append(name)
    return found


def log_stats(log) -> dict:
    """Deterministic counts over the delivery log."""
    from socsim.messages import MemberMsg, RequestMsg, ResponseMsg

    deliveries = broadcasts = broadcast_deliveries = 0
    opinions_delivered = requests = accepted = 0
    for entry in log.entries:
        n = len(entry.delivered_to)
        deliveries += n
        if entry.target is None:
            broadcasts += 1
            broadcast_deliveries += n
        msg = entry.message
        if isinstance(msg, MemberMsg):
            opinions_delivered += len(msg.opinions) * n
        elif isinstance(msg, RequestMsg):
            requests += 1
        elif isinstance(msg, ResponseMsg) and msg.accepted:
            accepted += 1
    return {
        "log_entries": len(log.entries),
        "agent_periods": sum(len(counts) for counts in log.neighbor_counts.values()),
        "deliveries": deliveries,
        "broadcasts": broadcasts,
        "broadcast_deliveries": broadcast_deliveries,
        "opinions_delivered": opinions_delivered,
        "requests": requests,
        "accepted": accepted,
    }


def output_digests(out_dir: Path) -> tuple[dict, int]:
    """sha256 of the outputs under the determinism contract, and the size
    of the uncompressed wire log. A gzip log is hashed decompressed, so the
    digest does not depend on the zlib build."""
    digests = {}
    for name in ("partitions.csv", "metrics.csv"):
        digests[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    if (out_dir / "messages.log.gz").exists():
        with gzip.open(out_dir / "messages.log.gz", "rb") as fh:
            body = fh.read()
    else:
        body = (out_dir / "messages.log").read_bytes()
    digests["messages.log"] = hashlib.sha256(body).hexdigest()
    return digests, len(body)


def layer_metrics(spans: dict, counts: dict, stats: dict) -> dict:
    """Per-layer figures of one traced run (see workloads.PER_LAYER)."""

    def own(name):
        return spans.get(name, (0, 0.0))[1]

    def calls(name):
        return spans.get(name, (0, 0.0))[0]

    kernel_calls = calls("kernels.pairwise_features")
    return {
        "mobility.generate_s": own("mobility.generate"),
        "percept.observe_s": own("percept.observe"),
        "percept.observe_calls": calls("percept.observe"),
        "percept.opinions_out": counts.get("opinions_out", 0),
        "percept.neighbors_s": own("percept.neighbors"),
        "percept.neighbors_calls": calls("percept.neighbors"),
        "kernels.pairwise_features_s": own("kernels.pairwise_features"),
        "kernels.pairwise_features_calls": kernel_calls,
        "kernels.pairwise_rows_mean": counts.get("kernel_rows", 0) / kernel_calls
        if kernel_calls
        else 0.0,
        "protocol.tick_s": own("protocol.tick"),
        "protocol.tick_calls": calls("protocol.tick"),
        "protocol.handle_message_s": own("protocol.handle_message"),
        "protocol.handle_message_calls": calls("protocol.handle_message"),
        "protocol.get_candidate_s": own("protocol.get_candidate"),
        "protocol.apply_percept_s": own("protocol.apply_percept"),
        "protocol.opinions_delivered": stats["opinions_delivered"],
        "protocol.requests": stats["requests"],
        "protocol.accept_ratio": stats["accepted"] / stats["requests"]
        if stats["requests"]
        else 0.0,
        "opinions.fuse_calls": calls("opinions.fuse"),
        "opinions.fuse_s": own("opinions.fuse"),
        "netsim.step_self_s": own("netsim.step"),
        "netsim.emissions": counts.get("emissions", 0),
        "netsim.deliveries": stats["deliveries"],
        "netsim.fanout_mean": stats["broadcast_deliveries"] / stats["broadcasts"]
        if stats["broadcasts"]
        else 0.0,
        "netsim.log_write_s": own("netsim.log_write"),
        "netsim.wire_bytes_per_agent_period": stats["wire_bytes"] / stats["agent_periods"],
        "metrics.extract_partition_s": own("metrics.extract_partition"),
        "metrics.indices_s": own("metrics.indices"),
        "metrics.samples": calls("metrics.extract_partition") + counts.get("compare_rows", 0),
        "metrics.compare_s": own("metrics.compare"),
        "harness.ingest_trace_s": own("harness.ingest_trace"),
        "harness.write_s": own("harness.write"),
        "harness.self_s": own("harness.run"),
    }


def machine() -> dict:
    import numpy
    from socsim import _kernels

    try:
        import numba  # noqa: F401

        numba_importable = True
    except ImportError:
        numba_importable = False
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_importable": numba_importable,
        "numba_used": _kernels.HAVE_NUMBA,
        "SOCSIM_NO_NUMBA": os.environ.get("SOCSIM_NO_NUMBA"),
    }


def prepare_traces(job: dict) -> dict:
    from socsim import harness, mobility

    for item in job["traces"]:
        config = mobility.MobilityConfig(n_agents=item["n_agents"], seed=item["seed"])
        frames, truth = mobility.generate(config, item["duration"], item["dt"])
        harness.write_trace(Path(item["trace"]), frames)
        harness.write_ground_truth(Path(item["truth"]), frames, truth)
    return {"ok": True}


def measure(job: dict, spawned: float) -> dict:
    import socsim
    from socsim import harness
    from socsim.netsim import audit_message_bound

    scenario = harness.load_scenario(Path(job["scenario"]))
    setup_s = _clock() - spawned
    if job["mode"] == "setup":
        return {"ok": True, "setup_s": setup_s}

    out_dir = Path(job["out_dir"])
    truth = job.get("compare_truth")
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        for owner, attr, name, tally in socsim_targets():
            tracer.install(owner, attr, name, tally)

    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    result = harness.run(scenario, out_dir)
    if truth is not None:
        harness.compare_partition_files(Path(truth), out_dir / "partitions.csv")
    wall_s, cpu_s = time.perf_counter() - t0, _cpu_seconds() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # everything below is outside the timed part
    if tracer is not None:
        tracer.restore()
    left_wrapped = wrapped_targets()
    audit = audit_message_bound(result.network.log, window=1)
    digests, wire_bytes = output_digests(out_dir)
    stats = dict(log_stats(result.network.log), wire_bytes=wire_bytes)
    summary = json.loads((out_dir / "summary.json").read_text())
    problems = []
    if not Path(socsim.__file__).resolve().is_relative_to(Path(job["src"]).resolve()):
        problems.append(f"socsim imported from {socsim.__file__}, not from {job['src']}")
    if not audit.ok:
        problems.append(f"(2n+1) message bound violated: {audit.violations[:3]}")
    if left_wrapped:
        problems.append(f"wrappers left installed: {left_wrapped}")
    if "ari_mean" not in summary:
        problems.append("summary.json has no ari_mean")
    out = {
        "ok": not problems,
        "problems": problems,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "rss_mb": rss_mb,
        "sim_s": float(scenario.duration),
        "ari_mean": summary.get("ari_mean"),
        "digests": digests,
        "stats": stats,
        "machine": machine(),
    }
    if tracer is not None:
        spans = tracer.by_name()
        out["span_calls"] = {name: calls for name, (calls, _) in spans.items()}
        out["counts"] = dict(tracer.counts)
        out["layers"] = layer_metrics(spans, tracer.counts, stats)
    return out


def main(argv: list[str]) -> int:
    spawned = float(argv[2])
    job = json.loads(Path(argv[1]).read_text())
    try:
        if job["mode"] == "prep":
            out = prepare_traces(job)
        else:
            out = measure(job, spawned)
    except Exception:  # noqa: BLE001 - any failure is reported to the parent
        out = {"ok": False, "problems": [traceback.format_exc()]}
    Path(job["result"]).write_text(json.dumps(out))
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
