"""Composable optimization pipelines with ordering and conflict rules.

A pipeline turns a declared optimization stack into a single
:class:`~repro.optimizations.base.OptimizationModel` that applies every
member through one graph-transformation pass, so the whole stack flows
through the existing :meth:`WhatIfSession.predict` path (and so through
every grid) unchanged.

Composition is validated up front:

* **ordering** — categories apply in :data:`~repro.scenarios.registry.CATEGORY_ORDER`
  (compute, then memory, then communication-inserting, then
  communication-rewriting transforms); the stack is stably normalized, so
  declaring ``["blueconnect", "distributed_training"]`` still all-reduces
  before decomposing;
* **slot conflicts** — two members of one exclusive slot (e.g. two
  gradient-sync strategies) are an error;
* **scheduler conflicts** — at most one member may supply a custom
  scheduler (the paper's Schedule primitive is global to a simulation);
* **prerequisites** — a ``comm_rewrite`` member without an earlier
  ``comm_insert`` member has no communication tasks to rewrite.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import DaydreamError
from repro.core.graph import DependencyGraph
from repro.optimizations.base import (
    OptimizationModel,
    WhatIfContext,
    WhatIfOutcome,
)
from repro.scenarios.registry import (
    DEFAULT_REGISTRY,
    OptimizationRegistry,
    OptimizationSpec,
)


class PipelineError(DaydreamError):
    """A declared optimization stack cannot compose."""


class OptimizationPipeline(OptimizationModel):
    """An ordered, validated stack of optimization models.

    Args:
        stack: declared entries (registry keys / keyed dicts) and/or
            pre-built :class:`OptimizationModel` instances (instances of
            registered classes inherit their spec's composition metadata).
        registry: the registry resolving declared entries.

    The pipeline is itself an :class:`OptimizationModel`: ``apply`` runs
    every member in normalized order on the same working graph and returns
    one combined outcome.
    """

    def __init__(self, stack: Sequence[object],
                 registry: Optional[OptimizationRegistry] = None) -> None:
        self.registry = registry or DEFAULT_REGISTRY
        members: List[Tuple[Optional[OptimizationSpec], OptimizationModel]] = []
        for entry in stack:
            if isinstance(entry, OptimizationModel):
                members.append((self._spec_of(entry), entry))
            else:
                spec, params = self.registry.parse_entry(entry)
                members.append((spec, spec.create(params)))
        self._members = self._normalize(members)
        self._validate()
        self.name = "+".join(m.name for _, m in self._members) or "baseline"

    # ------------------------------------------------------------ composition

    def _spec_of(self, model: OptimizationModel) -> Optional[OptimizationSpec]:
        """Best-effort spec lookup for a pre-built instance."""
        for spec in self.registry.specs():
            factory = spec.factory
            if isinstance(factory, type) and type(model) is factory:
                return spec
        return None

    @staticmethod
    def _normalize(
        members: Sequence[Tuple[Optional[OptimizationSpec], OptimizationModel]]
    ) -> List[Tuple[Optional[OptimizationSpec], OptimizationModel]]:
        """Stable-sort members into category application order.

        Unregistered instances keep their declared position relative to the
        compute stage (rank 0) — they have no composition metadata.
        """
        return sorted(members, key=lambda m: m[0].rank if m[0] else 0)

    def _validate(self) -> None:
        slots: Dict[str, str] = {}
        scheduler_owner: Optional[str] = None
        seen_categories: List[str] = []
        for spec, model in self._members:
            if spec is None:
                # unregistered member: only its scheduler claim is knowable
                # (e.g. a scenario-level schedule_policy rider)
                if getattr(model, "provides_scheduler", False):
                    if scheduler_owner is not None:
                        raise PipelineError(
                            f"{scheduler_owner!r} and {model.name!r} both "
                            "supply a schedule override; a simulation has "
                            "one scheduler"
                        )
                    scheduler_owner = model.name
                continue
            if spec.slot is not None:
                if spec.slot in slots:
                    raise PipelineError(
                        f"{slots[spec.slot]!r} and {spec.key!r} both occupy "
                        f"the exclusive {spec.slot!r} slot"
                    )
                slots[spec.slot] = spec.key
            if spec.provides_scheduler:
                if scheduler_owner is not None:
                    raise PipelineError(
                        f"{scheduler_owner!r} and {spec.key!r} both supply a "
                        "schedule override; a simulation has one scheduler"
                    )
                scheduler_owner = spec.key
            if (spec.requires_category is not None
                    and spec.requires_category not in seen_categories):
                raise PipelineError(
                    f"{spec.key!r} rewrites communication tasks and needs a "
                    f"{spec.requires_category!r} optimization (e.g. "
                    "'distributed_training') earlier in the stack"
                )
            seen_categories.append(spec.category)

    # ---------------------------------------------------------------- queries

    @property
    def models(self) -> List[OptimizationModel]:
        """The member models, in application order."""
        return [model for _, model in self._members]

    @property
    def requires_cluster(self) -> bool:
        """Whether any member needs a distributed target cluster."""
        return any(spec.requires_cluster for spec, _ in self._members if spec)

    def __len__(self) -> int:
        return len(self._members)

    def describe(self) -> List[str]:
        """Registry keys (or instance names) in application order."""
        return [spec.key if spec else model.name
                for spec, model in self._members]

    # -------------------------------------------------------------- execution

    def apply(self, graph: DependencyGraph, context: WhatIfContext) -> WhatIfOutcome:
        """Apply every member to ``graph`` and merge the outcomes."""
        scheduler = None
        for spec, model in self._members:
            outcome = model.apply(graph, context)
            graph = outcome.graph
            if outcome.scheduler is not None:
                if scheduler is not None:
                    raise PipelineError(
                        "two stack members supplied schedule overrides at "
                        "apply time; a simulation has one scheduler"
                    )
                scheduler = outcome.scheduler
        return WhatIfOutcome(graph=graph, scheduler=scheduler)
