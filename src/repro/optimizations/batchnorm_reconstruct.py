"""Reconstructing batch normalization — paper Algorithm 5 (Appendix A.3).

Jung et al. split each batchnorm layer in two and fuse the halves with the
neighboring convolution/activation layers.  The Daydream model:

* activation (ReLU) kernels disappear — they are memory-bound and now fused
  into the compute-bound convolutions;
* batchnorm kernels shrink 2x — the restructured layers load half the
  input data from GPU memory.

The model needs the task-to-layer mapping plus the layer *kinds* recorded
by the framework instrumentation to find ReLU/batchnorm tasks.
"""

from typing import Dict

from repro.core import transform
from repro.core.graph import DependencyGraph
from repro.optimizations.base import OptimizationModel, WhatIfContext, WhatIfOutcome

#: the paper's estimate: restructured BN loads half the data -> 2x faster
BATCHNORM_SHRINK = 2.0


class ReconstructBatchnorm(OptimizationModel):
    """What if batchnorm layers were restructured per Jung et al.?"""

    name = "reconstruct_batchnorm"

    def apply(self, graph: DependencyGraph, context: WhatIfContext) -> WhatIfOutcome:
        kinds: Dict[str, str] = dict(
            context.trace_metadata.get("layer_kinds", {}))
        relu_tasks = [
            t for t in transform.select_gpu_tasks(graph)
            if t.layer is not None and kinds.get(t.layer) == "relu"
        ]
        bn_tasks = [
            t for t in transform.select_gpu_tasks(graph)
            if t.layer is not None and kinds.get(t.layer) == "batchnorm"
        ]
        transform.remove_gpu_tasks(graph, relu_tasks, remove_launch=True)
        transform.shrink_durations(bn_tasks, BATCHNORM_SHRINK)
        return WhatIfOutcome(graph=graph)
