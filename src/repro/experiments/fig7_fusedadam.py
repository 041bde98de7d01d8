"""Figure 7: FusedAdam — baseline, ground truth, and Daydream's prediction.

Paper result: predictions within 13% of ground truth on BERT_base,
BERT_large and GNMT; BERT models improve dramatically (weight update is
30-45% of their iteration and launch-bound), GNMT only ~9% (its update
phase is under 10% of the iteration).

Predictions run locally (the ``wu_kernels`` column counts weight-update
kernels on the profiled session's graph), but the engine ground truth of
each model persists in a :class:`~repro.scenarios.store.SweepStore` under
``kind="groundtruth:fused-adam"`` when ``store=`` is given — a second run
skips every engine measurement.
"""

from typing import List, Optional

from repro.analysis.metrics import improvement_percent, prediction_error
from repro.experiments.common import (
    ExperimentResult,
    cached_measurements,
    experiment_store,
)
from repro.framework.groundtruth import FUSED_ADAM_KIND
from repro.scenarios import Scenario, ScenarioRunner

MODELS = ("bert_base", "bert_large", "gnmt")


def run(models: Optional[List[str]] = None,
        jobs: Optional[int] = None,
        store=None, force: bool = False) -> ExperimentResult:
    """Reproduce Figure 7.

    Args:
        models: subset of :data:`MODELS` to evaluate.
        jobs: fan the per-model engine measurements across workers.
        store: a :class:`~repro.scenarios.store.SweepStore` (or its
            directory path) caching the ground-truth measurements.
        force: recompute measurements even on store hits.
    """
    result = ExperimentResult(
        experiment="fig7",
        title="FusedAdam: baseline vs ground truth vs Daydream prediction",
        headers=["model", "baseline_ms", "ground_truth_ms", "predicted_ms",
                 "gt_improvement_%", "prediction_error_%", "wu_kernels"],
        notes=("Paper: BERT_large improves 38.7% with <7% error; the unfused "
               "update launches 2,633 (base) / 5,164 (large) kernels."),
    )
    store = experiment_store(store)
    runner = ScenarioRunner()
    outcomes = [runner.run(Scenario(model=name,
                                    optimizations=["fused_adam"]))
                for name in models or MODELS]

    truths = cached_measurements(
        [(o.scenario, FUSED_ADAM_KIND) for o in outcomes],
        store=store, force=force, jobs=jobs, runner=runner)
    for outcome, truth_us in zip(outcomes, truths):
        wu_kernels = sum(
            1 for t in outcome.session.graph.tasks()
            if t.is_gpu and t.phase == "weight_update"
        )
        result.add_row(
            outcome.scenario.model,
            outcome.baseline_us / 1000.0,
            truth_us / 1000.0,
            outcome.predicted_us / 1000.0,
            improvement_percent(outcome.baseline_us, truth_us),
            prediction_error(outcome.predicted_us, truth_us) * 100.0,
            wu_kernels,
        )
    return result
