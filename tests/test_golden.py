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

from socsim.harness import Scenario, SyntheticSource, load_scenario, run
from socsim.mobility import MobilityConfig
from socsim.netsim import NetConfig
from socsim.percept import PerceptConfig, fit_gmm
from socsim.protocol import ProtocolConfig

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


CASES = {
    "quick": lambda: _shipped("quick"),
    "triads": lambda: _shipped("triads"),
    "crowded": lambda: _shipped("crowded"),
    "quick_loss": lambda: _quick(net=NetConfig(loss_probability=0.2)),
    "quick_latency": lambda: _quick(net=NetConfig(latency=1)),
    "removals_handover": lambda: Scenario(
        source=SyntheticSource(MobilityConfig(n_agents=12, seed=8, group_formation_rate=0.2)),
        protocol=ProtocolConfig(stable_handover=True),
        duration=60.0,
        seed=5,
        removals=((30.0, 3), (40.0, 7), (45.0, 4), (56.0, 9)),
    ),
    "detach_agentless": lambda: _quick(
        protocol=ProtocolConfig(detach_extension=True), agentless_ids=frozenset({2, 5})
    ),
    "direct_to_head": lambda: _quick(protocol=ProtocolConfig(direct_to_head_routing=True)),
    "opinion_providers": lambda: _quick(opinion_providers=((100, 25.0, 25.0), (101, 10.0, 30.0))),
    "gmm_percept": _gmm_scenario,
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


def case_digests(name: str, out_dir: Path) -> dict[str, str]:
    run(CASES[name](), out_dir)
    return output_digests(out_dir)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name, tmp_path):
    expected = json.loads(DIGESTS.read_text())
    assert sorted(expected) == sorted(CASES)
    assert case_digests(name, tmp_path) == expected[name]


def regenerate(path: Path = DIGESTS) -> None:
    import tempfile

    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            table[name] = case_digests(name, Path(tmp) / name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
