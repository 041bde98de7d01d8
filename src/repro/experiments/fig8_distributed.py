"""Figure 8: distributed-training runtime predictions across deployments.

For each model, Daydream predicts multi-machine iteration time from a
*single-GPU* profile, across machines x GPUs configurations and network
bandwidths.  Ground truth is the engine running data-parallel with a CUDA
synchronization before each all-reduce (the paper's measurement baseline).

Paper result: at most ~10% error in most configurations, with a few
exceptions at 20/40 Gbps.

The grid runs on the scenario batch substrate: predictions fan out over
the process-pool executor (``jobs=`` workers, one per CPU by default), and
with ``store=`` both the prediction and ground-truth rows persist in a
:class:`~repro.scenarios.store.SweepStore` (ground truth under the
``groundtruth:ddp-sync`` kind), so a re-run — after a crash, or with more
bandwidth points — only simulates the new cells.
"""

import os
from typing import List, Optional, Sequence, Tuple

from repro.analysis.metrics import prediction_error
from repro.experiments.common import (
    ExperimentResult,
    cached_measurements,
    experiment_store,
)
from repro.framework.groundtruth import DDP_SYNC_KIND
from repro.scenarios import Scenario, ScenarioRunner

MODELS = ("resnet50", "gnmt", "bert_base", "bert_large")
CONFIGS: Sequence[Tuple[int, int]] = ((1, 1), (2, 1), (3, 1), (4, 1),
                                      (2, 2), (3, 2), (4, 2))
BANDWIDTHS_GBPS = (10, 20, 40)


def run(models: Optional[List[str]] = None,
        bandwidths: Optional[Sequence[float]] = None,
        configs: Optional[Sequence[Tuple[int, int]]] = None,
        jobs: Optional[int] = None,
        store=None, force: bool = False) -> ExperimentResult:
    """Reproduce Figure 8 (all four sub-figures).

    Every (model, bandwidth, machines, gpus) cell is one scenario over its
    model's single-GPU profile, and the whole grid runs through one
    :meth:`~repro.scenarios.ScenarioRunner.run_grid` call.  ``jobs``
    workers (one per CPU unless told otherwise) fan out both the
    predictions and the ground-truth engine runs; ``store=`` persists and
    resumes both.  Rows are deterministic: a parallel run is identical to
    a serial one.
    """
    result = ExperimentResult(
        experiment="fig8",
        title="Distributed training: Daydream prediction vs ground truth",
        headers=["model", "config", "bandwidth_gbps", "ground_truth_ms",
                 "predicted_ms", "prediction_error_%"],
        notes="Paper: at most ~10% error in most configurations.",
    )
    store = experiment_store(store)
    scenarios = [
        Scenario(model=name).with_cluster(
            machines, gpus, bandwidth_gbps=bw).with_(
                optimizations=(["distributed_training"]
                               if machines * gpus > 1 else []))
        for name in models or MODELS
        for bw in (bandwidths or BANDWIDTHS_GBPS)
        for machines, gpus in (configs or CONFIGS)
    ]
    outcomes = ScenarioRunner().run_grid(scenarios, parallel=jobs,
                                         store=store, force=force)

    # the measurement depends only on (model, cluster, config), so every
    # experiment sharing a deployment (e.g. fig9b's sync cells) shares one
    # entry; single-worker cells have nothing to measure
    measured = iter(cached_measurements(
        [(o.scenario, DDP_SYNC_KIND) for o in outcomes
         if o.cluster.is_distributed],
        store=store, force=force,
        jobs=jobs if jobs is not None else (os.cpu_count() or 1)))
    for outcome in outcomes:
        name = outcome.scenario.model
        bw = outcome.scenario.cluster.bandwidth_gbps
        if not outcome.cluster.is_distributed:
            # single-worker cell: nothing to predict
            result.add_row(name, outcome.cluster.label(), bw,
                           outcome.baseline_us / 1000.0,
                           outcome.baseline_us / 1000.0, 0.0)
        else:
            truth_us = next(measured)
            result.add_row(name, outcome.cluster.label(), bw,
                           truth_us / 1000.0,
                           outcome.predicted_us / 1000.0,
                           prediction_error(outcome.predicted_us,
                                            truth_us) * 100.0)
    return result
