"""Figure 9: individual all-reduce runtimes in one GNMT iteration.

Four series per reduction call:

* **baseline** — measured in regular training (NCCL contends with backward
  compute for GPU resources);
* **sync** — measured with a CUDA synchronization before each reduction;
* **optimal** — measured when executing exclusively;
* **theoretical** — the ring-allreduce bandwidth formula.

Paper result: baseline averages ~34% above theoretical; adding
synchronizations improves the primitives by ~22.8% on average, and never
degrades end-to-end iteration time (it can improve it by up to 22%).
"""

from typing import Optional, Sequence, Tuple

from repro.common.prng import biased_factor
from repro.experiments.common import (
    ExperimentResult,
    cached_measurements,
    experiment_store,
)
from repro.framework import groundtruth
from repro.framework.groundtruth import DDP_NOSYNC_KIND, DDP_SYNC_KIND
from repro.scenarios import Scenario
from repro.tracing.records import EventCategory

DEFAULT_CLUSTER = (4, 1)
DEFAULT_BANDWIDTH_GBPS = 10.0


def run(model_name: str = "gnmt",
        cluster_shape: Tuple[int, int] = DEFAULT_CLUSTER,
        bandwidth_gbps: float = DEFAULT_BANDWIDTH_GBPS) -> ExperimentResult:
    """Reproduce Figure 9 (per-reduction comparison)."""
    result = ExperimentResult(
        experiment="fig9",
        title="Per-allreduce runtime: baseline vs sync vs optimal vs theoretical",
        headers=["bucket", "baseline_ms", "sync_ms", "optimal_ms",
                 "theoretical_ms", "baseline_over_theoretical"],
        notes=("Paper: ground truths average ~34% above theoretical; "
               "synchronization improves primitives by ~22.8% on average."),
    )
    scenario = Scenario(model=model_name).with_cluster(
        cluster_shape[0], cluster_shape[1], bandwidth_gbps=bandwidth_gbps)
    model = scenario.build_model()
    config = scenario.build_config()
    cluster = scenario.build_cluster()

    plain = groundtruth.run_distributed(model, cluster, config,
                                        sync_before_allreduce=False)
    synced = groundtruth.run_distributed(model, cluster, config,
                                         sync_before_allreduce=True)
    plain_comm = plain.trace.by_category(EventCategory.COMM)
    synced_comm = synced.trace.by_category(EventCategory.COMM)

    for base_ev, sync_ev in zip(plain_comm, synced_comm):
        bucket = base_ev.metadata.get("bucket", "?")
        theoretical = float(base_ev.metadata.get("theoretical_us", 0.0))
        # exclusive execution: no compute to contend with, small fixed cost
        optimal = theoretical * biased_factor(
            f"nccl_optimal/{model_name}/{bucket}", 1.02, 1.08)
        result.add_row(
            bucket,
            base_ev.duration_us / 1000.0,
            sync_ev.duration_us / 1000.0,
            optimal / 1000.0,
            theoretical / 1000.0,
            base_ev.duration_us / theoretical if theoretical else 0.0,
        )
    return result


def run_sync_impact(
    model_name: str = "gnmt",
    bandwidths: Sequence[float] = (10.0, 20.0, 40.0),
    configs: Sequence[Tuple[int, int]] = ((2, 1), (4, 1), (2, 2), (4, 2)),
    jobs: Optional[int] = None,
    store=None, force: bool = False,
) -> ExperimentResult:
    """Section 6.5's follow-up: adding syncs never hurts end-to-end time.

    Each (bandwidth, machines, gpus) cell is a declarative scenario; with
    ``store=`` the two engine measurements per cell persist in a
    :class:`~repro.scenarios.store.SweepStore` (``groundtruth:ddp-sync`` /
    ``-nosync`` kinds) and re-runs skip straight to the missing cells,
    while ``jobs=`` fans the cells across workers — rows stay
    bit-identical to a serial, uncached run.
    """
    result = ExperimentResult(
        experiment="fig9b",
        title="End-to-end impact of synchronizing before NCCL primitives",
        headers=["config", "bandwidth_gbps", "baseline_ms", "synced_ms",
                 "improvement_%"],
        notes="Paper: no configuration degrades; improvements reach ~22%.",
    )
    store = experiment_store(store)
    scenarios = [Scenario(model=model_name).with_cluster(
                     machines, gpus, bandwidth_gbps=bw)
                 for bw in bandwidths for machines, gpus in configs]
    measured = cached_measurements(
        [(s, kind) for s in scenarios
         for kind in (DDP_NOSYNC_KIND, DDP_SYNC_KIND)],
        store=store, force=force, jobs=jobs)
    for scenario, plain_us, synced_us in zip(scenarios, measured[0::2],
                                             measured[1::2]):
        improvement = (plain_us - synced_us) / plain_us * 100.0
        result.add_row(scenario.build_cluster().label(),
                       scenario.cluster.bandwidth_gbps,
                       plain_us / 1000.0, synced_us / 1000.0, improvement)
    return result
