"""Figure 5: AMP — baseline, ground truth, and Daydream's prediction.

Paper result: predictions within 13% of ground truth for BERT_base,
BERT_large, Seq2Seq (GNMT) and ResNet-50; AMP speedups generally below 2x,
far below the 3x per-kernel ideal, because CPU time is untouched.

With ``jobs=``/``store=`` the per-model predictions run on the scenario
batch substrate and both the prediction rows (``kind="predict"``) and the
measured AMP iterations (``kind="groundtruth:amp"``) persist in a
:class:`~repro.scenarios.store.SweepStore`, so a re-run skips the engine
and simulator entirely.
"""

from typing import List, Optional

from repro.analysis.metrics import improvement_percent, prediction_error
from repro.experiments.common import (
    ExperimentResult,
    cached_measurements,
    experiment_store,
)
from repro.framework.groundtruth import AMP_KIND
from repro.scenarios import Scenario, ScenarioRunner

MODELS = ("bert_base", "bert_large", "gnmt", "resnet50")


def run(models: Optional[List[str]] = None,
        jobs: Optional[int] = None,
        store=None, force: bool = False) -> ExperimentResult:
    """Reproduce Figure 5.

    Args:
        models: subset of :data:`MODELS` to evaluate.
        jobs: fan predictions and engine measurements across processes.
        store: a :class:`~repro.scenarios.store.SweepStore` (or its
            directory path) caching predictions and ground truth.
        force: recompute cells even on store hits.
    """
    result = ExperimentResult(
        experiment="fig5",
        title="AMP: baseline vs ground truth vs Daydream prediction",
        headers=["model", "baseline_ms", "ground_truth_ms", "predicted_ms",
                 "gt_improvement_%", "prediction_error_%"],
        notes=("Paper: <13% error on all four models; e.g. BERT_large "
               "improves 17.2% with <3% error."),
    )
    store = experiment_store(store)
    runner = ScenarioRunner()
    scenarios = [Scenario(model=name, optimizations=["amp"])
                 for name in models or MODELS]
    if jobs is not None or store is not None:
        outcomes = runner.run_grid(scenarios, parallel=jobs, store=store,
                                   force=force)
    else:
        outcomes = [runner.run(s) for s in scenarios]

    truths = cached_measurements([(s, AMP_KIND) for s in scenarios],
                                 store=store, force=force, jobs=jobs,
                                 runner=runner)
    for outcome, truth_us in zip(outcomes, truths):
        result.add_row(
            outcome.scenario.model,
            outcome.baseline_us / 1000.0,
            truth_us / 1000.0,
            outcome.predicted_us / 1000.0,
            improvement_percent(outcome.baseline_us, truth_us),
            prediction_error(outcome.predicted_us, truth_us) * 100.0,
        )
    return result
