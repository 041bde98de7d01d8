"""Ground-truth executions of the paper's evaluated optimizations.

Each function here runs the engine with the optimization *actually applied*
— recomputed kernel durations, new kernel implementations, real contention —
rather than Daydream's heuristic graph edits.  The difference between these
results and Daydream's predictions is the reproduced prediction error of
Figures 5, 7, 8, 10 and Section 6.4.

Ground-truth specifics that Daydream's models do not see:

* **AMP**: per-kernel achieved fp16 speedups from the roofline model
  (2.4-3.2x for tensor-core GEMM/conv, 1.7-2.0x for memory-bound), not the
  flat 3x/2x heuristic;
* **FusedAdam**: the fused multi-tensor kernel is priced by the roofline of
  the *fused* working set (intermediate round-trips eliminated), not a sum
  of removed kernels;
* **Reconstructing batchnorm**: the new BN kernels achieve only ~1.8x (new,
  less-tuned implementation) and introduce extra memory copies and
  allocations (Section 6.4's explanation for the 7% vs 12.7% gap);
* **Distributed**: NCCL primitives pay contention/overhead on top of the
  bandwidth formula (Section 6.5 / Figure 9).

:data:`MEASUREMENTS` names each measurement the experiments use by its
store kind (``groundtruth:amp``, ...): the batch executor
(:func:`repro.scenarios.batch.run_batch`) runs ``(scenario, kind)`` cells
through it, so ground truth fans out and caches like any prediction.
"""

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.common.errors import ConfigError
from repro.framework.config import TrainingConfig
from repro.framework.engine import Engine
from repro.framework.paramserver import run_ps_baseline, run_ps_p3
from repro.hw.topology import ClusterSpec
from repro.kernels.kernel import KernelKind, KernelSpec
from repro.models.base import LayerSpec, ModelSpec
from repro.tracing.trace import Trace

#: achieved speedup of the hand-written restructured batchnorm kernels —
#: lower than the idealized 2x because the new implementation is less tuned
RESTRUCTURED_BN_SPEEDUP = 1.55
#: extra data movement the restructured implementation introduces (new CUDA
#: memory copies and allocations, per Section 6.4)
RESTRUCTURED_BN_COPY_FRACTION = 0.45


@dataclass(frozen=True)
class GroundTruthResult:
    """Measured behaviour of a real (simulated-substrate) execution."""

    trace: Trace
    iteration_us: float

    @classmethod
    def from_trace(cls, trace: Trace) -> "GroundTruthResult":
        return cls(trace=trace, iteration_us=trace.duration_us)


def run_baseline(model: ModelSpec,
                 config: Optional[TrainingConfig] = None) -> GroundTruthResult:
    """Plain fp32 single-GPU training."""
    config = config or TrainingConfig()
    trace = Engine(model=model, config=config).run_iteration()
    return GroundTruthResult.from_trace(trace)


def run_amp(model: ModelSpec,
            config: Optional[TrainingConfig] = None) -> GroundTruthResult:
    """Mixed-precision training (Apex AMP): real per-kernel fp16 costs."""
    config = (config or TrainingConfig()).with_(precision="fp16")
    trace = Engine(model=model, config=config).run_iteration()
    return GroundTruthResult.from_trace(trace)


def run_fused_adam(model: ModelSpec,
                   config: Optional[TrainingConfig] = None) -> GroundTruthResult:
    """Training with Apex FusedAdam (single multi-tensor update kernel)."""
    config = (config or TrainingConfig()).with_(optimizer="fused_adam")
    if model.default_optimizer != "adam" and config.optimizer != "fused_adam":
        raise ConfigError("FusedAdam applies to Adam-trained models")
    trace = Engine(model=model, config=config).run_iteration()
    return GroundTruthResult.from_trace(trace)


def run_reconstructed_batchnorm(
    model: ModelSpec,
    config: Optional[TrainingConfig] = None,
) -> GroundTruthResult:
    """Training with Jung et al.'s restructured batchnorm implementation."""
    surgered = apply_batchnorm_restructuring(model)
    config = config or TrainingConfig(framework="caffe")
    trace = Engine(model=surgered, config=config).run_iteration()
    return GroundTruthResult.from_trace(trace)


def run_distributed(
    model: ModelSpec,
    cluster: ClusterSpec,
    config: Optional[TrainingConfig] = None,
    sync_before_allreduce: bool = True,
) -> GroundTruthResult:
    """Data-parallel training on a cluster (NCCL all-reduce).

    ``sync_before_allreduce=True`` matches the paper's Figure-8 baseline
    ("with synchronization before each allReduce").
    """
    config = config or TrainingConfig()
    engine = Engine(model=model, config=config, cluster=cluster,
                    sync_before_allreduce=sync_before_allreduce)
    return GroundTruthResult.from_trace(engine.run_iteration())


# ------------------------------------------------------- measurement kinds

#: store kinds of the engine measurements the experiments compare against
AMP_KIND = "groundtruth:amp"
FUSED_ADAM_KIND = "groundtruth:fused-adam"
RECONSTRUCT_BATCHNORM_KIND = "groundtruth:reconstruct-batchnorm"
DDP_SYNC_KIND = "groundtruth:ddp-sync"
DDP_NOSYNC_KIND = "groundtruth:ddp-nosync"
PS_BASELINE_KIND = "groundtruth:ps-baseline"
PS_P3_KIND = "groundtruth:ps-p3"

#: kind → ``(model, cluster, config, profile) -> iteration_us``;
#: ``profile()`` returns the workload's profiled single-GPU trace, which
#: the parameter-server measurements replay instead of re-running the
#: (deterministic) engine
MEASUREMENTS: Dict[str, Callable[..., float]] = {
    AMP_KIND: lambda model, cluster, config, profile:
        run_amp(model, config).iteration_us,
    FUSED_ADAM_KIND: lambda model, cluster, config, profile:
        run_fused_adam(model, config).iteration_us,
    RECONSTRUCT_BATCHNORM_KIND: lambda model, cluster, config, profile:
        run_reconstructed_batchnorm(model, config).iteration_us,
    DDP_SYNC_KIND: lambda model, cluster, config, profile:
        run_distributed(model, cluster, config,
                        sync_before_allreduce=True).iteration_us,
    DDP_NOSYNC_KIND: lambda model, cluster, config, profile:
        run_distributed(model, cluster, config,
                        sync_before_allreduce=False).iteration_us,
    PS_BASELINE_KIND: lambda model, cluster, config, profile:
        run_ps_baseline(model, cluster, config,
                        trace=profile()).iteration_us,
    PS_P3_KIND: lambda model, cluster, config, profile:
        run_ps_p3(model, cluster, config, trace=profile()).iteration_us,
}


# ------------------------------------------------------------- model surgery

def apply_batchnorm_restructuring(model: ModelSpec) -> ModelSpec:
    """Build the restructured-batchnorm variant of a CNN.

    * ReLU layers that directly follow a batchnorm (or sit between BN and
      conv, as in DenseNet's BN-ReLU-Conv units) are fused away;
    * batchnorm kernels get the *achieved* speedup of the new
      implementation;
    * each restructured BN adds a device-to-device copy standing in for the
      extra CUDA memory copies/allocations of the real implementation.
    """
    new_layers: List[LayerSpec] = []
    prev_kind: Optional[str] = None
    for layer in model.layers:
        if layer.kind == "relu" and prev_kind == "batchnorm":
            prev_kind = layer.kind
            continue  # fused into the neighboring conv
        if layer.kind == "batchnorm":
            new_layers.append(_restructure_bn(layer))
        else:
            new_layers.append(layer)
        prev_kind = layer.kind
    return dataclasses.replace(
        model,
        name=f"{model.name}+restructured_bn",
        layers=new_layers,
    )


def _restructure_bn(layer: LayerSpec) -> LayerSpec:
    def rebuild(kernels: List[KernelSpec]) -> List[KernelSpec]:
        out: List[KernelSpec] = []
        for k in kernels:
            if k.kind is KernelKind.BATCHNORM:
                faster = dataclasses.replace(
                    k,
                    name=k.name.replace("batch_norm", "restructured_bn"),
                    flops=k.flops / RESTRUCTURED_BN_SPEEDUP,
                    bytes=k.bytes / RESTRUCTURED_BN_SPEEDUP,
                )
                out.append(faster)
                out.append(KernelSpec(
                    name="CUDA memcpy DtoD (restructured_bn staging)",
                    kind=KernelKind.MEMCPY_D2D,
                    bytes=k.bytes * RESTRUCTURED_BN_COPY_FRACTION,
                ))
            else:
                out.append(k)
        return out

    return LayerSpec(
        name=layer.name,
        kind=layer.kind,
        forward_kernels=rebuild(layer.forward_kernels),
        backward_kernels=rebuild(layer.backward_kernels),
        params=list(layer.params),
    )
