"""FusedAdam — paper Algorithm 4 (Appendix A.2).

Apex's FusedAdam replaces the thousands of small pointwise kernels of an
unfused Adam step with one multi-tensor kernel.  The Daydream model:

1. select the GPU tasks of the weight-update phase (via the task-to-layer
   mapping);
2. keep the first one, setting its duration to the estimated fused-kernel
   duration; remove all the others *together with their CPU launch APIs* —
   eliminating the launch overhead that dominates BERT's update phase
   (Section 6.3);
3. the fused duration is estimated as the sum of the removed
   *compute-intensive core* update kernels (the multiply-accumulate ones),
   per the paper: "a new GPU task whose duration is roughly estimated by
   the sum of all removed compute-intensive kernels".
"""

import re

from repro.common.errors import GraphConsistencyError
from repro.core import transform
from repro.core.graph import DependencyGraph
from repro.core.task import GPU_KINDS
from repro.optimizations.base import OptimizationModel, WhatIfContext, WhatIfOutcome

#: kernel-name substrings of the Adam step's compute core (the actual
#: moment/update math, as opposed to bookkeeping like zero_grad or bias
#: correction scalars)
CORE_UPDATE_MARKERS = ("addcmul", "addcdiv", "mul_exp_avg")
_CORE_UPDATE = re.compile("|".join(map(re.escape, CORE_UPDATE_MARKERS)))


class FusedAdam(OptimizationModel):
    """What if the optimizer step used Apex FusedAdam?"""

    name = "fused_adam"

    def apply(self, graph: DependencyGraph, context: WhatIfContext) -> WhatIfOutcome:
        # plain field reads, phase first (it rejects most tasks): this
        # scan visits every task of the graph
        wu_gpu = graph.select(
            lambda t: t.phase == "weight_update" and t.kind in GPU_KINDS)
        if not wu_gpu:
            raise GraphConsistencyError(
                "no weight-update GPU tasks found; is the model trained with "
                "Adam and the task-to-layer mapping applied?"
            )
        fused_estimate = sum(t.duration for t in wu_gpu
                             if _CORE_UPDATE.search(t.name))
        if fused_estimate == 0.0:
            # non-Adam optimizer traces: fall back to the full sum
            fused_estimate = transform.total_duration(wu_gpu)

        # Keep the last update task (in stream order): it carries the
        # synchronization edge that gates the end of the iteration, so the
        # fused kernel still drains before the iteration boundary.
        keep, rest = wu_gpu[-1], wu_gpu[:-1]
        keep.name = "multi_tensor_apply_kernel_fused_adam"
        keep.duration = fused_estimate
        keep.layer = "fused_adam"
        transform.remove_gpu_tasks(graph, rest, remove_launch=True)
        return WhatIfOutcome(graph=graph)
