"""Experiment runners: one module per paper table/figure.

Every runner returns an :class:`ExperimentResult` with the same rows/series
the paper reports, plus a text rendering.  The benchmark harness under
``benchmarks/`` wraps these runners with pytest-benchmark.
"""

from typing import Callable, Dict

from repro.experiments.common import ExperimentResult

__all__ = ["ExperimentResult", "experiment_runners"]


def experiment_runners() -> Dict[str, Callable[..., ExperimentResult]]:
    """Every ``repro experiment`` name and its runner.

    The modules import on call: they need :mod:`repro.scenarios`, which
    itself imports :mod:`repro.experiments.common`.
    """
    from functools import partial

    from repro.experiments import (
        fig1_timeline, fig5_amp, fig6_breakdown, fig7_fusedadam,
        fig8_distributed, fig9_nccl, fig10_p3, sec52_modeling,
        sec64_batchnorm, sec75_concurrency, table1_catalog,
    )
    return {
        "fig1": fig1_timeline.run,
        "table1": table1_catalog.run,
        "fig5": fig5_amp.run,
        "fig6": fig6_breakdown.run,
        "fig7": fig7_fusedadam.run,
        "fig8": fig8_distributed.run,
        "fig9": fig9_nccl.run,
        "fig9b": fig9_nccl.run_sync_impact,
        "fig10-resnet50": partial(fig10_p3.run, "resnet50"),
        "fig10-vgg19": partial(fig10_p3.run, "vgg19"),
        "sec52": sec52_modeling.run,
        "sec64": sec64_batchnorm.run,
        "sec75": sec75_concurrency.run,
    }
