"""socsim benchmark: end-to-end figures per workload, or a traced per-layer split.

Usage (from the repository root):

    python3 perfbench/run.py [--workload paper|crowded|replay] [--seed N]
                             [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs, one after the other. Each run
of socsim happens in a fresh single-threaded child process (``child.py``)
that imports socsim from ``src/`` of this checkout. The scenarios derive
from ``--seed`` (see ``workloads.py``); the program only receives the
generated scenario files and traces.

``--trace 0`` runs the workload's whole ensemble once, and again while the
next pass still fits into ``--seconds``, and reports the end-to-end
metrics (medians over passes). ``--trace 1`` runs the ensemble's first
scenario once untraced and twice under the tracer, and reports the
per-layer metrics; both traced runs must give exactly the same counts.

Every run is checked outside its timed part: the (2n+1) message bound,
byte-identical outputs across repeats of a scenario, and, at a workload's
default seed, the sha256 digests in ``reference.json``. Any miss is a
failed run and makes the command exit with 1. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a full report goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from workloads import END_TO_END, PER_LAYER, UNITS, WORKLOADS, Run, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
SETUP_SAMPLES = 9
# one invocation of a single workload must end within 180 s
DEADLINE_S = 170.0
SINGLE_THREADED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS")


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Children:
    """Starts child processes one at a time inside a work directory."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.seq = 0
        self.env = dict(os.environ)
        path = [str(ROOT / "src")] + [p for p in self.env.get("PYTHONPATH", "").split(os.pathsep) if p]
        self.env["PYTHONPATH"] = os.pathsep.join(path)
        for name in SINGLE_THREADED:
            self.env[name] = "1"

    def spawn(self, job: dict) -> dict:
        self.seq += 1
        job_path = self.work / f"job{self.seq}.json"
        result_path = self.work / f"result{self.seq}.json"
        job = dict(job, result=str(result_path), src=str(ROOT / "src"))
        job_path.write_text(json.dumps(job))
        timeout = max(5.0, self.deadline - _clock())
        started = _clock()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(job_path), repr(started)],
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"ok": False, "problems": [f"child timed out after {timeout:.0f} s"]}
        if not result_path.exists():
            return {"ok": False, "problems": [f"child exited {proc.returncode}: {proc.stderr[-2000:]}"]}
        return json.loads(result_path.read_text())

    def prepare(self, workload: Workload, runs: list[Run]) -> list[Path]:
        """Write each scenario (and replay trace) into its own directory."""
        dirs, traces = [], []
        for k, run in enumerate(runs):
            d = self.work / f"{workload.name}{k}"
            d.mkdir()
            (d / "scenario.json").write_text(json.dumps(run.scenario, indent=1))
            if run.replay_trace is not None:
                traces.append(dict(run.replay_trace, trace=str(d / "trace.csv"), truth=str(d / "truth.csv")))
            dirs.append(d)
        if traces:
            result = self.spawn({"mode": "prep", "traces": traces})
            if not result["ok"]:
                raise RuntimeError(f"could not write replay traces: {result['problems']}")
        return dirs

    def measure(self, d: Path, run: Run, repeat: int, trace: bool) -> dict:
        return self.spawn(
            {
                "mode": "measure",
                "scenario": str(d / "scenario.json"),
                "out_dir": str(d / f"out{repeat}"),
                "compare_truth": str(d / "truth.csv") if run.compare else None,
                "trace": trace,
            }
        )

    def setup_only(self, d: Path) -> dict:
        return self.spawn({"mode": "setup", "scenario": str(d / "scenario.json")})


# ----------------------------------------------------------------------
# correctness gate


def gate(results: list[list[dict]], reference: Optional[list[dict]]) -> tuple[int, list[str]]:
    """Failed runs and their reasons. ``results[i][k]`` is repeat ``i`` of
    ensemble member ``k``. A run fails if the child reported a problem, if
    its output digests differ from the first repeat of the same member, or
    if they differ from ``reference[k]``."""
    failed, problems = 0, []
    first: dict[int, dict] = {}
    for i, repeat in enumerate(results):
        for k, res in enumerate(repeat):
            why = list(res.get("problems", [])) if not res.get("ok") else []
            digests = res.get("digests")
            if digests is not None:
                if first.setdefault(k, digests) != digests:
                    why.append(f"outputs of scenario {k} differ between repeats")
                if reference is not None and (k >= len(reference) or digests != reference[k]):
                    why.append(f"outputs of scenario {k} differ from reference.json")
            elif not why:
                why.append("no output digests")
            if why:
                failed += 1
                problems.extend(f"repeat {i}, scenario {k}: {w}" for w in why)
    return failed, problems


def reference_for(workload: Workload, seed: int) -> Optional[list[dict]]:
    if seed != workload.default_seed or not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload.name)


# ----------------------------------------------------------------------
# figures


def end_to_end(results: list[list[dict]], setups: list[float], failed: int) -> dict:
    """End-to-end metrics: per pass, sums over the ensemble divided by
    sums (a ratio of totals, so long scenarios weigh more); then the
    median over passes."""
    per_pass: dict[str, list[float]] = {}
    for repeat in results:
        ok = [r for r in repeat if "wall_s" in r]
        if not ok:
            continue
        sim = sum(r["sim_s"] for r in ok)
        agent_periods = sum(r["stats"]["agent_periods"] for r in ok)
        aris = [r["ari_mean"] for r in ok if r["ari_mean"] is not None]
        figures = {
            "wall_per_sim_s": sum(r["wall_s"] for r in ok) / sim,
            "cpu_per_sim_s": sum(r["cpu_s"] for r in ok) / sim,
            "peak_rss_mb": statistics.fmean(r["rss_mb"] for r in ok),
            "msgs_per_agent_period": sum(r["stats"]["log_entries"] for r in ok) / agent_periods,
        }
        if aris:
            figures["ari_mean"] = statistics.fmean(aris)
        for name, value in figures.items():
            per_pass.setdefault(name, []).append(value)
    metrics = {name: statistics.median(values) for name, values in per_pass.items()}
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    attempted = sum(len(repeat) for repeat in results)
    metrics["ok_runs"] = (attempted - failed) / attempted if attempted else 0.0
    return {name: metrics[name] for name, *_ in END_TO_END if name in metrics}


def trace_check(base: dict, traced: list[dict]) -> list[str]:
    """The traced runs must repeat their counts exactly and agree with the
    untraced run's log."""
    problems = []
    a, b = traced
    for key in ("span_calls", "counts", "stats"):
        if a.get(key) != b.get(key):
            problems.append(f"traced runs differ in {key}: {a.get(key)} != {b.get(key)}")
    emissions = a.get("counts", {}).get("emissions")
    logged = base.get("stats", {}).get("log_entries")
    if emissions != logged:
        problems.append(f"traced emissions {emissions} != untraced log entries {logged}")
    return problems


def per_layer(base: dict, traced: list[dict]) -> dict:
    """Times are the mean of the two traced runs, counts the first run's."""
    layers = [t["layers"] for t in traced]
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace_overhead":
            metrics[name] = statistics.fmean(t["wall_s"] for t in traced) / base["wall_s"] - 1.0
        elif unit == "s":
            metrics[name] = statistics.fmean(layer[name] for layer in layers)
        else:
            metrics[name] = layers[0][name]
    return metrics


# ----------------------------------------------------------------------
# entry point


def bench(workload: Workload, seed: int, seconds: float, children: Children) -> dict:
    """End-to-end figures: passes over the whole ensemble while they fit."""
    runs = workload.build(seed)
    dirs = children.prepare(workload, runs)
    results: list[list[dict]] = []
    started = _clock()
    while True:
        pass_started = _clock()
        results.append([children.measure(d, run, len(results), trace=False) for d, run in zip(dirs, runs)])
        took = _clock() - pass_started
        if _clock() - started + took > seconds or _clock() + took > children.deadline:
            break
    setups = [r["setup_s"] for repeat in results for r in repeat if "setup_s" in r]
    while len(setups) < SETUP_SAMPLES:
        res = children.setup_only(dirs[len(setups) % len(dirs)])
        if not res.get("ok"):
            break
        setups.append(res["setup_s"])
    failed, problems = gate(results, reference_for(workload, seed))
    return _report(workload, seed, results, failed, problems, end_to_end(results, setups, failed))


def bench_traced(workload: Workload, seed: int, children: Children) -> dict:
    """Per-layer figures of the ensemble's first scenario: one untraced
    run, then two traced runs that must repeat its outputs and each
    other's counts."""
    run = workload.build(seed)[0]
    (d,) = children.prepare(workload, [run])
    base = children.measure(d, run, 0, trace=False)
    traced = [children.measure(d, run, i, trace=True) for i in (1, 2)]
    results = [[base], [traced[0]], [traced[1]]]
    reference = reference_for(workload, seed)
    failed, problems = gate(results, None if reference is None else reference[:1])
    metrics = {}
    if not failed:
        problems = trace_check(base, traced)
        if problems:
            failed = 1
        else:
            metrics = per_layer(base, traced)
    return _report(workload, seed, results, failed, problems, metrics)


def _report(workload, seed, results, failed, problems, metrics) -> dict:
    attempted = sum(len(repeat) for repeat in results)
    machine = next((r["machine"] for repeat in results for r in repeat if "machine" in r), None)
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "correct": failed == 0 and attempted > 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "machine": machine,
        "runs": [
            [{k: v for k, v in r.items() if k not in ("machine", "layers")} for r in repeat]
            for repeat in results
        ],
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="default: each workload's default seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a termination request into an exception, so the running child is
    # killed and waited for and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "socsim" / "__init__.py").is_file():
        print(f"socsim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    reports = []
    for name in names:
        workload = WORKLOADS[name]
        seed = workload.default_seed if args.seed is None else args.seed
        work = HERE / "_work" / f"{name}-{seed}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            children = Children(work, _clock() + DEADLINE_S)
            if args.trace:
                report = bench_traced(workload, seed, children)
            else:
                report = bench(workload, seed, args.seconds, children)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        reports.append(report)
        for problem in report["problems"]:
            print(f"FAILED {name}: {problem}", file=sys.stderr)
        for metric, value in report["metrics"].items():
            print(f"{name:8} {metric:34} {value:14.6g} {UNITS[metric]}")

    label = f"{args.workload or 'all'}-seed{args.seed if args.seed is not None else 'default'}-trace{args.trace}"
    out = HERE / "results" / f"{label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "reports": reports}, indent=1))
    machine = next((r["machine"] for r in reports if r["machine"]), None)
    print("machine " + json.dumps(machine, sort_keys=True))

    def key(report, metric):
        return metric if len(reports) == 1 else f"{report['workload']}:{metric}"

    correct = all(r["correct"] for r in reports)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in reports),
                "failed": sum(r["failed"] for r in reports),
                "metrics": {
                    key(r, m): {"value": v, "unit": UNITS[m]}
                    for r in reports
                    for m, v in r["metrics"].items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
