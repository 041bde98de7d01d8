#!/usr/bin/env python3
"""Capacity planning without a cluster (paper Section 6.5 / Figure 8).

Answers, from a *single-GPU* profile:

* "How will my workload scale with the number of GPUs?"
* "Would upgrading to a faster network improve training throughput?"
* "Would gradient compression (DGC) or hierarchical all-reduce
  (BlueConnect) help at my bandwidth?"

The whole study is a list of declared scenarios (bandwidth x cluster shape,
plus three stacked-optimization questions); the runner's grid executor fans
the predictions across CPU cores.

Run:  python examples/plan_cluster.py [model]
"""

import sys

from repro.common.texttable import render_table
from repro.scenarios import Scenario, ScenarioRunner


def scaling_table(runner: ScenarioRunner, base: Scenario) -> None:
    scenarios = []
    for bw in (10.0, 20.0, 40.0):
        for machines, gpus in ((1, 1), (2, 1), (4, 1), (2, 2), (4, 2), (4, 4)):
            distributed = machines * gpus > 1
            scenarios.append(base.with_(
                optimizations=["distributed_training"] if distributed else []
            ).with_cluster(machines, gpus, bandwidth_gbps=bw))

    rows = []
    for outcome in runner.run_grid(scenarios):
        cluster = outcome.cluster
        iter_ms = outcome.predicted_us / 1000.0
        # throughput relative to one GPU (samples/s, normalized)
        scale = (cluster.n_workers * outcome.baseline_us
                 / (iter_ms * 1000.0))
        rows.append([f"{cluster.network.bandwidth_gbps:g}", cluster.label(),
                     iter_ms, f"{scale:.2f}x"])
    print(render_table(
        ["bandwidth_gbps", "config", "iteration_ms", "scaling_efficiency"],
        rows, title="Predicted data-parallel scaling from one profile"))


def communication_fixes(runner: ScenarioRunner, base: Scenario,
                        bandwidth: float) -> None:
    """Stack communication optimizations on the distributed prediction."""
    target = base.with_cluster(4, 2, bandwidth_gbps=bandwidth)
    plain = runner.run(target.with_(optimizations=["distributed_training"]))

    rows = [["plain NCCL ring", plain.predicted_us / 1000.0, "-"]]
    for label, stack in (
        ("BlueConnect decomposition",
         ["distributed_training", "blueconnect"]),
        ("DGC 100x compression",
         ["distributed_training",
          {"name": "dgc", "params": {"compression_ratio": 0.01}}]),
    ):
        outcome = runner.run(target.with_(optimizations=stack))
        delta = ((plain.predicted_us - outcome.predicted_us)
                 / plain.predicted_us * 100.0)
        rows.append([label, outcome.predicted_us / 1000.0, f"{delta:+.1f}%"])

    print()
    print(render_table(
        ["communication strategy", "iteration_ms", "vs plain ring"],
        rows, title=f"Communication what-ifs on 4x2 @ {bandwidth:g} Gbps"))


def main() -> None:
    model = sys.argv[1] if len(sys.argv) > 1 else "gnmt"
    runner = ScenarioRunner()
    base = Scenario(model=model)
    session = runner.session(base)
    print(f"profiled {model}: {session.baseline_us / 1000:.1f} ms/iteration "
          "on one GPU\n")
    scaling_table(runner, base)
    communication_fixes(runner, base, bandwidth=10.0)


if __name__ == "__main__":
    main()
