"""Section 6.4: reconstructing batchnorm on DenseNet-121 (Caffe).

Paper result: Daydream predicts a 12.7% improvement — less promising than
the 17.5% the optimization's own paper claims — and the measured ground
truth is even lower (~7%), because the restructured implementation's new
kernels are slower than the idealized 2x estimate and it introduces extra
CUDA memory copies/allocations.
"""

from repro.analysis.metrics import improvement_percent, prediction_error
from repro.experiments.common import (
    ExperimentResult,
    cached_measurements,
    experiment_store,
)
from repro.framework.config import TrainingConfig
from repro.framework.groundtruth import RECONSTRUCT_BATCHNORM_KIND
from repro.scenarios import Scenario, ScenarioRunner

#: Caffe's convolution path on DenseNet's many narrow layers achieves far
#: lower arithmetic efficiency than tuned cuDNN kernels; this calibration
#: reproduces the paper's Caffe runtime composition.
CAFFE_CONV_EFFICIENCY = 0.22


def caffe_scenario(model_name: str = "densenet121") -> Scenario:
    """The Caffe/DenseNet what-if of Section 6.4, as a declared scenario."""
    return Scenario(
        model=model_name,
        framework="caffe",
        gpu={"preset": "2080ti", "compute_efficiency": CAFFE_CONV_EFFICIENCY},
        optimizations=["reconstruct_batchnorm"],
    )


def caffe_config() -> TrainingConfig:
    """The Caffe/DenseNet training configuration of Section 6.4."""
    return caffe_scenario().build_config()


def run(model_name: str = "densenet121",
        store=None, force: bool = False) -> ExperimentResult:
    """Reproduce the Section 6.4 comparison.

    With ``store=`` the single engine measurement persists in a
    :class:`~repro.scenarios.store.SweepStore` under
    ``kind="groundtruth:reconstruct-batchnorm"``.
    """
    result = ExperimentResult(
        experiment="sec64",
        title="Reconstructing batchnorm on DenseNet-121 (Caffe)",
        headers=["quantity", "value"],
        notes=("Paper: predicted 12.7% vs claimed 17.5%; ground truth ~7%. "
               "Prediction correctly flags the optimization as less "
               "promising than claimed."),
    )
    store = experiment_store(store)
    runner = ScenarioRunner()
    outcome = runner.run(caffe_scenario(model_name))
    (truth_us,) = cached_measurements(
        [(outcome.scenario, RECONSTRUCT_BATCHNORM_KIND)],
        store=store, force=force, runner=runner)

    gt_improvement = improvement_percent(outcome.baseline_us, truth_us)
    result.add_row("baseline_ms", outcome.baseline_us / 1000.0)
    result.add_row("predicted_ms", outcome.predicted_us / 1000.0)
    result.add_row("ground_truth_ms", truth_us / 1000.0)
    result.add_row("predicted_improvement_%", outcome.improvement_percent)
    result.add_row("ground_truth_improvement_%", gt_improvement)
    result.add_row("prediction_error_%", prediction_error(
        outcome.predicted_us, truth_us) * 100.0)
    result.add_row("paper_predicted_improvement_%", 12.7)
    result.add_row("paper_ground_truth_improvement_%", 7.0)
    return result
