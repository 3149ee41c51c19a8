"""Golden digests: the exact output bytes of a small scenario matrix.

Every output file of each case is hashed with sha256 (a gzip log is hashed
decompressed, so the digest does not depend on the zlib build) and compared
with ``tests/data/golden_digests.json``. Runs are deterministic per
(scenario, seed), so any change to a digest is a change of behaviour. A
change that alters outputs on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from socsim.harness import ReplaySource, Scenario, SyntheticSource, load_scenario, run
from socsim.mobility import MobilityConfig
from socsim.netsim import NetConfig
from socsim.percept import PerceptConfig, fit_gmm
from socsim.protocol import ProtocolConfig, Role

from conftest import run_sampled

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "data" / "golden_digests.json"


def _shipped(name: str, **changes) -> Scenario:
    scenario = load_scenario(ROOT / "scenarios" / f"{name}.json")
    return dataclasses.replace(scenario, **changes)


def _quick(**changes) -> Scenario:
    return _shipped("quick", **changes)


def _gmm_scenario() -> Scenario:
    rng = np.random.default_rng(21)
    close = rng.normal((0.9, 0.85), 0.15, size=(80, 2))
    apart = rng.normal((4.0, 0.4), 0.8, size=(80, 2))
    labeled = [(float(d), float(p), 1) for d, p in close]
    labeled += [(float(d), float(p), 0) for d, p in apart]
    model = fit_gmm(labeled, seed=4)
    return _quick(
        percept=PerceptConfig(model="gmm", gmm=model, noise_sigma_pos=0.2)
    )


def _varying_cast(work: Path) -> Scenario:
    """The triads replay with agent 4 absent from the frames 20 <= t < 40 s,
    its trace written under ``work``."""
    triads = _shipped("triads")
    lines = triads.source.trace.read_text().splitlines(keepends=True)
    kept = [lines[0]]
    for line in lines[1:]:
        t, aid = line.split(",")[:2]
        if not (aid == "4" and 20.0 <= float(t) < 40.0):
            kept.append(line)
    trace = work / "varying_cast_trace.csv"
    trace.write_text("".join(kept))
    return dataclasses.replace(
        triads, source=ReplaySource(trace, triads.source.ground_truth)
    )


# each case builds its scenario from a work directory, which it may write
# input files to; outputs go elsewhere
CASES = {
    "quick": lambda work: _shipped("quick"),
    "triads": lambda work: _shipped("triads"),
    "crowded": lambda work: _shipped("crowded"),
    "quick_loss": lambda work: _quick(net=NetConfig(loss_probability=0.2)),
    "quick_latency": lambda work: _quick(net=NetConfig(latency=1)),
    "removals_handover": lambda work: Scenario(
        source=SyntheticSource(MobilityConfig(n_agents=12, seed=8, group_formation_rate=0.2)),
        protocol=ProtocolConfig(stable_handover=True),
        duration=60.0,
        seed=5,
        removals=((30.0, 3), (40.0, 7), (45.0, 4), (56.0, 9)),
    ),
    "detach_agentless": lambda work: _quick(
        protocol=ProtocolConfig(detach_extension=True), agentless_ids=frozenset({2, 5})
    ),
    "direct_to_head": lambda work: _quick(protocol=ProtocolConfig(direct_to_head_routing=True)),
    "opinion_providers": lambda work: _quick(
        opinion_providers=((100, 25.0, 25.0), (101, 10.0, 30.0))
    ),
    "gmm_percept": lambda work: _gmm_scenario(),
    # a period that float arithmetic does not represent exactly
    "short_period_handover": lambda work: Scenario(
        source=SyntheticSource(MobilityConfig(n_agents=12, seed=8, group_formation_rate=0.2)),
        protocol=ProtocolConfig(period=0.1, stable_handover=True),
        net=NetConfig(loss_probability=0.2),
        duration=40.0,
        dt=0.05,
        sample_interval=1.0,
        seed=5,
        removals=((29.0, 1),),
    ),
    # a provider whose frame column comes last although its id is the lowest
    "replay_low_provider": lambda work: _shipped("triads", opinion_providers=((0, 5.0, 5.0),)),
    "replay_varying_cast": _varying_cast,
}


def output_digests(out_dir: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".gz":
            with gzip.open(path, "rb") as fh:
                body = fh.read()
        else:
            body = path.read_bytes()
        digests[path.name] = hashlib.sha256(body).hexdigest()
    return digests


def case_digests(name: str, work: Path) -> dict[str, str]:
    out_dir = work / "out"
    run(CASES[name](work), out_dir)
    return output_digests(out_dir)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name, tmp_path):
    expected = json.loads(DIGESTS.read_text())
    assert sorted(expected) == sorted(CASES)
    assert case_digests(name, tmp_path) == expected[name]


@pytest.mark.parametrize("name", ["removals_handover", "short_period_handover", "crowded"])
def test_role_follows_head(name, tmp_path):
    # accepted responses, foreign adoption, head timeouts and handovers all
    # occur in these runs; an agent heads a cluster exactly when it is its own head
    _, samples = run_sampled(CASES[name](tmp_path))
    sampled = [
        (aid, role, head)
        for _, roles in samples.role_samples
        for aid, (role, head) in roles.items()
    ]
    assert any(head != aid for aid, _, head in sampled)
    assert all((role is Role.CLUSTER_HEAD) == (head == aid) for aid, role, head in sampled)


def regenerate(path: Path = DIGESTS) -> None:
    import tempfile

    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            work = Path(tmp) / name
            work.mkdir()
            table[name] = case_digests(name, work)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
