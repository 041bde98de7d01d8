"""Figure 10: P3 under different network bandwidths (ResNet-50, VGG-19).

Setup mirrors the paper's Section 6.6: four machines with one P4000 each,
MXNet parameter server.  Three series per bandwidth:

* **baseline** — ground-truth MXNet PS (whole-tensor transfers, arrival
  order, with server-side processing);
* **ground truth** — P3 actually applied (sliced + prioritized, still with
  server-side processing);
* **prediction** — Daydream's P3 model (sliced + prioritized, idealized
  bandwidth-only transfer costs).

Paper result: prediction faithfully tracks the trend; error at most 16.2%,
over-estimating P3's speedup at higher bandwidths because communication
becomes bottlenecked by non-network resources.

Both measured series persist in a
:class:`~repro.scenarios.store.SweepStore` when ``store=`` is given
(``kind="groundtruth:ps-baseline"`` / ``"groundtruth:ps-p3"``), one entry
per (model, cluster, bandwidth) cell; a re-run with more bandwidth points
only measures the new cells.
"""

from typing import Optional, Sequence

from repro.analysis.metrics import prediction_error
from repro.experiments.common import (
    ExperimentResult,
    cached_measurements,
    experiment_store,
)
from repro.framework.groundtruth import PS_BASELINE_KIND, PS_P3_KIND
from repro.scenarios import Scenario, ScenarioRunner

RESNET_BANDWIDTHS = (1.0, 2.0, 4.0, 6.0, 8.0)
VGG_BANDWIDTHS = (5.0, 10.0, 15.0, 20.0, 25.0)
MACHINES = 4


def run(model_name: str = "resnet50",
        bandwidths: Optional[Sequence[float]] = None,
        batch_size: Optional[int] = 32,
        jobs: Optional[int] = None,
        store=None, force: bool = False) -> ExperimentResult:
    """Reproduce one sub-figure of Figure 10.

    Args:
        model_name: ``"resnet50"`` or ``"vgg19"`` (the paper's two).
        bandwidths: network bandwidth points in Gbps.
        batch_size: per-GPU mini-batch size.
        jobs: fan the per-bandwidth engine measurements across workers.
        store: a :class:`~repro.scenarios.store.SweepStore` (or its
            directory path) caching both measured series.
        force: recompute measurements even on store hits.
    """
    if bandwidths is None:
        bandwidths = (RESNET_BANDWIDTHS if model_name == "resnet50"
                      else VGG_BANDWIDTHS)
    result = ExperimentResult(
        experiment="fig10",
        title=f"P3 on {model_name}: baseline vs ground truth vs prediction",
        headers=["bandwidth_gbps", "baseline_ms", "p3_ground_truth_ms",
                 "p3_predicted_ms", "prediction_error_%"],
        notes=("Paper: error at most 16.2%; speedup over-estimated at high "
               "bandwidth (server CPU becomes the bottleneck)."),
    )
    store = experiment_store(store)
    runner = ScenarioRunner()
    base = Scenario(model=model_name, batch_size=batch_size,
                    framework="mxnet", gpu="p4000", optimizations=["p3"])
    outcomes = [runner.run(base.with_cluster(MACHINES, 1, bandwidth_gbps=bw))
                for bw in bandwidths]

    measured = cached_measurements(
        [(o.scenario, kind) for o in outcomes
         for kind in (PS_BASELINE_KIND, PS_P3_KIND)],
        store=store, force=force, jobs=jobs, runner=runner)
    for bw, outcome, baseline_us, truth_us in zip(bandwidths, outcomes,
                                                  measured[0::2],
                                                  measured[1::2]):
        result.add_row(
            bw,
            baseline_us / 1000.0,
            truth_us / 1000.0,
            outcome.predicted_us / 1000.0,
            prediction_error(outcome.predicted_us, truth_us) * 100.0,
        )
    return result
