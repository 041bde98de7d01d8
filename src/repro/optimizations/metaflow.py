"""MetaFlow relaxed graph substitutions — paper Algorithm 9 (Appendix A.7).

MetaFlow (Jia et al.) rewrites the layer-level topology (fusing layers,
enlarging kernels).  Daydream does not search for substitutions — that is
MetaFlow's job — but given a substitution *policy* it estimates the policy's
runtime by removing the substituted layers' tasks and scaling the layers
whose dimensions changed.  The paper notes Daydream can serve as a precise
cost model inside MetaFlow's backtracking search.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Union

from repro.common.errors import ConfigError
from repro.core import transform
from repro.core.graph import DependencyGraph
from repro.optimizations.base import OptimizationModel, WhatIfContext, WhatIfOutcome


@dataclass
class SubstitutionPolicy:
    """A MetaFlow transformation policy.

    Attributes:
        remove_layers: layers whose kernels disappear (fused away).
        scale_layers: layer -> duration factor for dimension changes (e.g.
            an enlarged convolution running 1.3x longer but replacing two).
    """

    remove_layers: List[str] = field(default_factory=list)
    scale_layers: Dict[str, float] = field(default_factory=dict)


class MetaFlowSubstitution(OptimizationModel):
    """What if MetaFlow applied the given substitution policy?

    ``policy`` is either an explicit :class:`SubstitutionPolicy` or the name
    of a registered one (see :data:`NAMED_POLICIES`); named policies are
    resolved lazily from the what-if context, which makes this model
    declarable in scenario files.
    """

    name = "metaflow"

    def __init__(self, policy: Union[str, SubstitutionPolicy]) -> None:
        self.policy = policy

    def _resolve(self, context: WhatIfContext) -> SubstitutionPolicy:
        if isinstance(self.policy, SubstitutionPolicy):
            return self.policy
        try:
            builder = NAMED_POLICIES[self.policy]
        except KeyError:
            raise ConfigError(
                f"unknown MetaFlow policy {self.policy!r}; "
                f"named policies: {sorted(NAMED_POLICIES)}"
            ) from None
        return builder(context)

    def apply(self, graph: DependencyGraph, context: WhatIfContext) -> WhatIfOutcome:
        policy = self._resolve(context)
        removed = set(policy.remove_layers)
        transform.remove_gpu_tasks(
            graph, [t for t in transform.select_gpu_tasks(graph)
                    if t.layer in removed], remove_launch=True)
        for layer, factor in policy.scale_layers.items():
            tasks = transform.select_by_layer(graph, lambda l: l == layer)
            transform.scale_durations([t for t in tasks if t.is_gpu], factor)
        return WhatIfOutcome(graph=graph)


def fuse_conv_bn_relu_policy(context: WhatIfContext) -> SubstitutionPolicy:
    """A canonical CNN policy: fuse every batchnorm + ReLU into its conv.

    The fused convolution runs slightly longer (epilogue math) while the
    normalization/activation kernels disappear.
    """
    kinds: Dict[str, str] = dict(context.trace_metadata.get("layer_kinds", {}))
    remove = [name for name, kind in kinds.items() if kind in ("batchnorm", "relu")]
    scale = {name: 1.08 for name, kind in kinds.items() if kind == "conv"}
    return SubstitutionPolicy(remove_layers=remove, scale_layers=scale)


#: policies addressable by name from scenario files
NAMED_POLICIES: Dict[str, Callable[[WhatIfContext], SubstitutionPolicy]] = {
    "fuse_conv_bn_relu": fuse_conv_bn_relu_policy,
}
