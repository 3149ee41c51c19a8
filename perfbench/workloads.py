"""Workload and metric definitions of the socsim benchmark.

A workload is a fixed-size ensemble of scenarios whose seeds all derive
from the benchmark's ``--seed``. The cost and the quality of a single
socsim run depend strongly on its mobility seed: at paper scale one run
varies by about 13 % in wall time and in ARI from seed to seed, because
the number and length of group meetings in a 900 s run is a small Poisson
sample. Averaging over several independent scenarios per invocation is
what keeps the figures comparable from one ``--seed`` to the next.

Everything here is plain data: the benchmark's parent process builds the
scenario files without importing socsim.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Optional

# ----------------------------------------------------------------------
# metrics (BENCHMARK.json lists the same names; a test keeps them in step)

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("wall_per_sim_s", "s/s", "lower", 0.25),
    ("cpu_per_sim_s", "s/s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("ari_mean", "index", "higher", 0.25),
    ("msgs_per_agent_period", "msgs", "lower", 0.05),
    ("ok_runs", "share", "higher", 0.05),
)

# name, unit, better. Every "_s" figure is self time: the span's duration
# minus the spans of wrapped calls made inside it, so the times add up to
# the traced run's wall time.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("mobility.generate_s", "s", "lower"),
    ("percept.observe_s", "s", "lower"),
    ("percept.observe_calls", "count", "lower"),
    ("percept.opinions_out", "count", "lower"),
    ("percept.neighbors_s", "s", "lower"),
    ("percept.neighbors_calls", "count", "lower"),
    ("kernels.pairwise_features_s", "s", "lower"),
    ("kernels.pairwise_features_calls", "count", "lower"),
    ("kernels.pairwise_rows_mean", "rows", "higher"),
    ("protocol.tick_s", "s", "lower"),
    ("protocol.tick_calls", "count", "lower"),
    ("protocol.handle_message_s", "s", "lower"),
    ("protocol.handle_message_calls", "count", "lower"),
    ("protocol.get_candidate_s", "s", "lower"),
    ("protocol.apply_percept_s", "s", "lower"),
    ("protocol.opinions_delivered", "count", "lower"),
    ("protocol.requests", "count", "lower"),
    ("protocol.accept_ratio", "ratio", "higher"),
    ("opinions.fuse_calls", "count", "lower"),
    ("opinions.fuse_s", "s", "lower"),
    ("netsim.step_self_s", "s", "lower"),
    ("netsim.emissions", "count", "lower"),
    ("netsim.deliveries", "count", "lower"),
    ("netsim.fanout_mean", "receivers", "lower"),
    ("netsim.log_write_s", "s", "lower"),
    ("netsim.wire_bytes_per_agent_period", "bytes", "lower"),
    ("metrics.extract_partition_s", "s", "lower"),
    ("metrics.indices_s", "s", "lower"),
    ("metrics.samples", "count", "lower"),
    ("metrics.compare_s", "s", "lower"),
    ("harness.ingest_trace_s", "s", "lower"),
    ("harness.write_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


# ----------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Run:
    """One scenario of a workload's ensemble.

    ``scenario`` is the JSON config socsim loads. ``replay_trace``, when
    set, is the mobility config of a trace that is generated and written
    next to the config, untimed, before the run. ``compare`` makes the
    timed part end with the offline comparison of the ground truth with
    the run's partitions, as ``socsim metrics`` does."""

    scenario: dict
    replay_trace: Optional[dict] = None
    compare: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    default_seed: int
    build: Callable[[int], list[Run]]


def derive_seed(workload: str, seed: int, index: int, purpose: str) -> int:
    """A 32-bit seed for one purpose of one ensemble member."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}/{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _paper(seed: int) -> list[Run]:
    runs = []
    for k in range(3):
        mobility = {
            "n_agents": 30,
            "seed": derive_seed("paper", seed, k, "mobility"),
            "group_formation_rate": 0.03,
            "area": [50.0, 50.0],
        }
        scenario = {
            "source": {"type": "synthetic", "mobility": mobility},
            "duration": 900.0,
            "dt": 0.5,
            "seed": derive_seed("paper", seed, k, "run"),
        }
        runs.append(Run(scenario))
    return runs


# The sensor noise of scenarios/crowded.json on the default percept model.
# That file's flatter distance model as well would put most of the crowd
# into clusters and carry ten times the opinions per run, but the cost of
# one run then varies 25 % from seed to seed, heavy-tailed with cluster
# size; a 5-run ensemble spread 27 % over ten seeds on a shared 2-vCPU VM.
# With the default model one run varies 14 % and costs a third as much.
CROWDED_NOISE = {"noise_sigma_pos": 0.6, "noise_sigma_angle": 0.5}


def _crowded(seed: int) -> list[Run]:
    runs = []
    for k in range(10):
        departing = random.Random(derive_seed("crowded", seed, k, "faults")).sample(range(80), 8)
        mobility = {
            "n_agents": 80,
            "seed": derive_seed("crowded", seed, k, "mobility"),
            "group_formation_rate": 0.2,
            "area": [50.0, 50.0],
        }
        scenario = {
            "source": {"type": "synthetic", "mobility": mobility},
            "protocol": {"stable_handover": True},
            "net": {"loss_probability": 0.1},
            "percept": dict(CROWDED_NOISE),
            # cost per simulated second grows as groups accumulate, so the
            # length is part of the workload and must stay fixed
            "duration": 60.0,
            "dt": 0.5,
            "seed": derive_seed("crowded", seed, k, "run"),
            "removals": [[10.0 + 5.0 * i, a] for i, a in enumerate(departing)],
            "gzip_log": True,
        }
        runs.append(Run(scenario))
    return runs


def _replay(seed: int) -> list[Run]:
    runs = []
    for k in range(2):
        trace = {
            "n_agents": 12,
            "seed": derive_seed("replay", seed, k, "mobility"),
            "duration": 1800.0,
            "dt": 0.5,
        }
        scenario = {
            "source": {"type": "replay", "trace": "trace.csv", "ground_truth": "truth.csv"},
            "duration": 1800.0,
            "dt": 0.5,
            "seed": derive_seed("replay", seed, k, "run"),
        }
        runs.append(Run(scenario, replay_trace=trace, compare=True))
    return runs


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper",
            "paper scale at low density (30 agents, 50x50 m, 900 s, the largest c06 case); "
            "percept has its largest share here",
            0,
            _paper,
        ),
        Workload(
            "crowded",
            "80 agents in 50x50 m with sensor noise, loss, gzip log and 8 departures with "
            "handover; network fan-out (about 30 receivers) and protocol handlers dominate",
            0,
            _crowded,
        ),
        Workload(
            "replay",
            "replays a written 12-agent 1800 s trace, then scores it offline; the only user "
            "of trace ingestion and file comparison, light on protocol work",
            0,
            _replay,
        ),
    )
}
