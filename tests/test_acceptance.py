"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Budgets and tolerances are asserted as stated, never loosened.
"""

import math
import time
from pathlib import Path

import numpy as np

from socsim.harness import (
    ReplaySource,
    Scenario,
    SyntheticSource,
    load_scenario,
    run,
    sweep,
)
from socsim.messages import HeadMsg
from socsim.metrics import (
    Partition,
    adjusted_rand_index,
    jaccard_index,
    rand_index,
)
from socsim.mobility import MobilityConfig, force_step
from socsim.netsim import NetConfig, Network, audit_message_bound
from socsim.opinions import Opinion, fuse_averaging, fuse_averaging_multi, fuse_cumulative
from socsim.percept import PerceptConfig
from socsim.protocol import Agent, AgentKind, ProtocolConfig, Role

from conftest import brute_force_pair_counts, equilibrium_pair_separation, range_table, run_sampled

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"
PRIOR_WEIGHT = 2.0


def report(line: str) -> None:
    print(f"\n[PASS] {line}")


def random_opinions(rng, n, min_u=1e-6):
    bdu = rng.dirichlet((1.0, 1.0, 1.0), size=int(n * 1.3) + 16)
    bdu = bdu[bdu[:, 2] > min_u][:n]
    assert len(bdu) == n
    return [Opinion(float(b), float(d), float(u), 0.5) for b, d, u in bdu]


def test_c01_sl_algebra_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    ops = random_opinions(rng, 20_000)
    worst = 0.0
    for a, b in zip(ops[0::2], ops[1::2]):
        fused = fuse_cumulative(a, b)
        ra, sa = PRIOR_WEIGHT * a.belief / a.uncertainty, PRIOR_WEIGHT * a.disbelief / a.uncertainty
        rb, sb = PRIOR_WEIGHT * b.belief / b.uncertainty, PRIOR_WEIGHT * b.disbelief / b.uncertainty
        denom = ra + sa + rb + sb + PRIOR_WEIGHT
        worst = max(
            worst,
            abs(fused.belief - (ra + rb) / denom),
            abs(fused.disbelief - (sa + sb) / denom),
            abs(fused.uncertainty - PRIOR_WEIGHT / denom),
        )
    assert worst <= 1e-9

    idem_worst = 0.0
    for op in random_opinions(rng, 1000):
        fused = fuse_averaging(op, op)
        idem_worst = max(
            idem_worst,
            abs(fused.belief - op.belief),
            abs(fused.disbelief - op.disbelief),
            abs(fused.uncertainty - op.uncertainty),
        )
    assert idem_worst <= 1e-9

    perm_worst = 0.0
    pool = random_opinions(rng, 4000)
    for _ in range(1000):
        size = int(rng.integers(2, 8))
        chosen = [pool[int(i)] for i in rng.integers(0, len(pool), size=size)]
        base = fuse_averaging_multi(chosen)
        shuffled = list(chosen)
        rng.shuffle(shuffled)
        other = fuse_averaging_multi(shuffled)
        perm_worst = max(
            perm_worst,
            abs(base.belief - other.belief),
            abs(base.uncertainty - other.uncertainty),
        )
    assert perm_worst <= 1e-9

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(
        "SL algebra oracle equivalence: 10,000 cumulative fusions within "
        f"{worst:.2e} of the evidence oracle; idempotence and permutation "
        f"invariance within 1e-9 ({elapsed:.2f}s < 5s)"
    )


def _random_labeling(rng, n, k_low=2, k_high=10):
    k = int(rng.integers(k_low, k_high + 1))
    labels = rng.integers(0, k, size=n)
    blocks: dict[int, set[int]] = {}
    for agent, label in enumerate(labels):
        blocks.setdefault(int(label), set()).add(agent)
    return list(blocks.values())


def test_c02_metrics_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    for _ in range(500):
        n = int(rng.integers(2, 13))
        blocks_p = _random_labeling(rng, n, 1, n)
        blocks_q = _random_labeling(rng, n, 1, n)
        p, q = Partition(blocks_p), Partition(blocks_q)
        n11, n10, n01, n00 = brute_force_pair_counts(blocks_p, blocks_q)
        total = n11 + n10 + n01 + n00
        assert rand_index(p, q) == (n11 + n00) / total
        expected = 1.0 if (n11 + n10 + n01) == 0 else n11 / (n11 + n10 + n01)
        assert jaccard_index(p, q) == expected

    values = []
    for _ in range(1000):
        p = Partition(_random_labeling(rng, 50))
        q = Partition(_random_labeling(rng, 50))
        values.append(adjusted_rand_index(p, q))
    mean_ari = float(np.mean(values))
    assert abs(mean_ari) <= 0.02

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(
        "metrics oracle equivalence: 500 rand/jaccard exact matches; mean ARI "
        f"of independent partitions {mean_ari:+.4f} within +/-0.02 ({elapsed:.2f}s < 30s)"
    )


def test_c03_protocol_convergence_easy_scenario():
    scenario = load_scenario(SCENARIO_DIR / "triads.json")
    _, samples = run_sampled(scenario)
    perfect = [
        k
        for k, row in enumerate(samples.metrics_rows)
        if row.rand == 1.0 and row.ari == 1.0 and row.jaccard == 1.0
    ]
    assert perfect, "protocol never matched ground truth"
    first = perfect[0]
    assert first <= 10, f"convergence took {first} periods"
    horizon = first + 100
    assert len(samples.metrics_rows) > horizon
    stable = set(range(first, horizon + 1)) <= set(perfect)
    assert stable, "partition did not stay at ground truth for 100 periods"
    report(
        f"easy-scenario convergence: 3 triads matched ground truth after "
        f"{first} periods and stayed exact for 100 more"
    )


def _mutual_request_run(scheduler):
    cfg = ProtocolConfig()
    agents = {1: Agent(id=1, config=cfg), 2: Agent(id=2, config=cfg)}
    positions = {1: (0.0, 0.0), 2: (1.0, 0.0)}
    strong = Opinion(0.9, 0.05, 0.05, cfg.base_rate)
    net = Network(NetConfig(), scheduler=scheduler)
    for k in range(3):
        now = float(k)
        for aid, agent in sorted(agents.items()):
            other = 2 if aid == 1 else 1
            agent.apply_percept({(1, 2): strong}, ((other, AgentKind.HUMAN_LINKED, 1.0),), now)
        net.step(now, range_table(positions, agents, net.config.comm_range), agents)
    return agents


def _assert_single_merged_cluster(agents):
    heads = [a for a in agents.values() if a.role is Role.CLUSTER_HEAD]
    members = [a for a in agents.values() if a.role is Role.MEMBER]
    assert len(heads) == 1 and len(members) == 1
    assert heads[0].members == {1, 2}
    assert members[0].head_id == heads[0].id


def _explore_all_delivery_orders(run_fn, max_runs):
    """DFS over the schedule tree: every same-step delivery order."""
    outcomes = 0
    prefixes = [()]
    while prefixes:
        prefix = prefixes.pop()
        taken: list[int] = []
        sizes: list[int] = []
        remaining = iter(prefix)

        def scheduler(now, ready):
            try:
                choice = next(remaining)
            except StopIteration:
                choice = 0
            choice = min(choice, len(ready) - 1)
            taken.append(choice)
            sizes.append(len(ready))
            return choice

        yield_agents = run_fn(scheduler)
        _assert_single_merged_cluster(yield_agents)
        outcomes += 1
        assert outcomes <= max_runs, "schedule tree larger than expected"
        for depth in range(len(prefix), len(taken)):
            for alternative in range(1, sizes[depth]):
                prefixes.append(tuple(taken[:depth]) + (alternative,))
    return outcomes


def test_c04_conflict_safety():
    started = time.perf_counter()
    explored = _explore_all_delivery_orders(_mutual_request_run, max_runs=20_000)
    assert explored >= 2

    for seed in range(1000):
        rng = np.random.default_rng(seed)
        agents = _mutual_request_run(lambda now, ready: int(rng.integers(0, len(ready))))
        _assert_single_merged_cluster(agents)

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(
        f"conflict safety: {explored} exhaustive same-step delivery orders and "
        f"1000 random schedules all end with one merged cluster ({elapsed:.2f}s < 10s)"
    )


def _quad_scenario(stable_handover, removals=()):
    return Scenario(
        source=ReplaySource(
            SCENARIO_DIR / "fixtures" / "quad_trace.csv",
            SCENARIO_DIR / "fixtures" / "quad_truth.csv",
        ),
        protocol=ProtocolConfig(stable_handover=stable_handover),
        percept=PerceptConfig(base_uncertainty=0.05),
        duration=45.0,
        dt=0.5,
        seed=4,
        removals=removals,
    )


def _converged_head(samples, at=20.0):
    snapshot = dict(samples.role_samples)[at]
    heads = [a for a, (role, _) in snapshot.items() if role is Role.CLUSTER_HEAD]
    assert len(heads) == 1, f"cluster not converged at t={at}: {snapshot}"
    return heads[0]


def test_c05_timeout_semantics():
    head = _converged_head(run_sampled(_quad_scenario(False))[1])
    former = {1, 2, 3, 4} - {head}

    result = run(_quad_scenario(False, removals=((30.0, head),)))
    last_head_step = max(
        e.step
        for e in result.network.log.entries
        if e.sender == head and isinstance(e.message, HeadMsg)
    )
    revert_step = last_head_step + 2  # (last head message + T) + one period
    singleton_ch = {
        aid: sorted(
            e.step
            for e in result.network.log.entries
            if e.sender == aid
            and isinstance(e.message, HeadMsg)
            and e.step >= last_head_step
        )
        for aid in former
    }
    for aid, steps in singleton_ch.items():
        assert steps, f"former member {aid} never became a head"
        assert steps[0] == revert_step, (
            f"member {aid} reverted at step {steps[0]}, expected exactly {revert_step}"
        )

    handover, handover_samples = run_sampled(_quad_scenario(True, removals=((30.0, head),)))
    nominations = [
        e
        for e in handover.network.log.entries
        if e.sender == head and isinstance(e.message, HeadMsg) and e.message.head != head
    ]
    assert len(nominations) == 1
    replacement = nominations[0].message.head
    survivors = former - {replacement}
    for aid in survivors:
        later_heads = [
            e
            for e in handover.network.log.entries
            if e.sender == aid and isinstance(e.message, HeadMsg) and e.step >= 30
        ]
        assert not later_heads, f"member {aid} became a singleton despite handover"
    for t, snapshot in handover_samples.role_samples:
        if t < 31.0:
            continue
        assert snapshot[replacement][0] is Role.CLUSTER_HEAD
        for aid in survivors:
            assert snapshot[aid] == (Role.MEMBER, replacement)
    report(
        f"timeout semantics: members reverted exactly at step {revert_step} "
        f"(= last head message + T + one period); with handover the cluster "
        f"survived under replacement {replacement} with no singleton members"
    )


def test_c06_message_bound():
    started = time.perf_counter()
    sizes = [4, 7, 10, 13, 16, 19, 22, 25, 28, 30]
    total_checked = 0
    for idx, n in enumerate(sizes):
        scenario = Scenario(
            source=SyntheticSource(
                MobilityConfig(n_agents=n, seed=idx, group_formation_rate=0.03)
            ),
            duration=900.0,
            dt=0.5,
            seed=100 + idx,
        )
        result = run(scenario)
        audit = audit_message_bound(result.network.log, window=1)
        assert audit.ok, f"n={n}: {audit.violations[:3]}"
        total_checked += audit.windows_checked
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(
        f"message bound: zero violations of the per-cycle (2n+1) bound over "
        f"10 scenarios, {total_checked} agent-cycles audited ({elapsed:.1f}s < 120s)"
    )


def test_c07_crowdedness_trend():
    started = time.perf_counter()
    base = Scenario(
        source=SyntheticSource(
            MobilityConfig(
                n_agents=10, seed=5, group_formation_rate=0.02, moving_group_ratio=0.3
            )
        ),
        percept=PerceptConfig(
            distance_steepness=1.2,
            distance_midpoint=3.0,
            facing_weight=0.2,
            noise_sigma_pos=0.6,
            noise_sigma_angle=0.5,
        ),
        duration=900.0,
        dt=0.5,
        seed=42,
    )
    rows = sweep(base, "n_agents", [10, 20, 30])
    fp = [row["fp_pairs_total"] for row in rows]
    ari = [row["ari_mean"] for row in rows]
    jac = [row["jaccard_mean"] for row in rows]
    assert fp[0] < fp[1] < fp[2], f"false-positive pairs not increasing: {fp}"
    assert ari[0] > ari[1] > ari[2], f"ARI not decreasing: {ari}"
    assert jac[0] > jac[1] > jac[2], f"Jaccard not decreasing: {jac}"
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(
        f"crowdedness trend: FP pairs {fp} strictly increasing while "
        f"ARI {[round(v, 3) for v in ari]} and Jaccard {[round(v, 3) for v in jac]} "
        f"decrease monotonically ({elapsed:.1f}s < 300s)"
    )


def test_c08_singleton_inflation():
    extras = [{i} for i in range(10, 56)]
    truth = Partition([{0, 1}, {2, 3}, *extras])
    predicted = Partition([{0, 2}, {1, 3}, *extras])
    ri = rand_index(truth, predicted)
    jac = jaccard_index(truth, predicted)
    assert ri >= 0.95
    assert jac <= 0.5
    report(
        f"singleton inflation: Rand index {ri:.4f} >= 0.95 while "
        f"Jaccard {jac:.4f} <= 0.5 on the singleton-heavy fixture"
    )


def test_c09_force_model_equilibria():
    started = time.perf_counter()
    cfg = MobilityConfig(force_k_center=1.0, force_k_repel=0.5)

    pos = np.array([[24.0, 25.0], [26.0, 25.0]])
    center = np.array([25.0, 25.0])
    for _ in range(6000):
        pos = force_step(pos, center, cfg, 0.02)
    separation = float(np.hypot(*(pos[0] - pos[1])))
    target = equilibrium_pair_separation(cfg)
    assert abs(separation - target) < 1e-3

    pos = np.array([[24.3, 25.0], [25.8, 25.2], [25.0, 24.1]])
    for _ in range(12000):
        pos = force_step(pos, center, cfg, 0.02)
    sides = sorted(
        float(np.hypot(*(pos[i] - pos[j]))) for i, j in ((0, 1), (0, 2), (1, 2))
    )
    assert sides[-1] - sides[0] < 1e-2
    angles = []
    for i in range(3):
        v1, v2 = pos[(i + 1) % 3] - pos[i], pos[(i + 2) % 3] - pos[i]
        cosang = float(np.dot(v1, v2) / (np.linalg.norm(v1) * np.linalg.norm(v2)))
        angles.append(math.degrees(math.acos(max(-1.0, min(1.0, cosang)))))
    assert all(abs(a - 60.0) < 1.0 for a in angles)

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(
        f"force-model equilibria: pair separation {separation:.6f} vs closed form "
        f"{target:.6f} (<1e-3); triangle sides within 1e-2 and angles within 1 deg "
        f"({elapsed:.2f}s < 5s)"
    )


def test_c10_end_to_end_determinism(tmp_path):
    scenario_files = sorted(SCENARIO_DIR.glob("*.json"))
    assert scenario_files, "no shipped scenarios found"
    compared = []
    for path in scenario_files:
        outputs = []
        for attempt in ("a", "b"):
            out_dir = tmp_path / f"{path.stem}_{attempt}"
            run(load_scenario(path), out_dir)
            outputs.append(
                {
                    f.name: f.read_bytes()
                    for f in sorted(out_dir.iterdir())
                    if f.is_file()
                }
            )
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], f"{path.name}:{name} differs"
        compared.append(f"{path.stem}({len(outputs[0])} files)")
    report(
        "end-to-end determinism: byte-identical outputs for repeated runs of "
        + ", ".join(compared)
    )
