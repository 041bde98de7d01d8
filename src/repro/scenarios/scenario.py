"""Declarative scenarios: a what-if question as plain data.

A :class:`Scenario` names everything one what-if evaluation needs — the
workload (model, batch size), the platform (GPU/CPU specs, framework,
precision, optimizer), the deployment (cluster shape and network), the
optimization stack, and an optional schedule policy — in a form that
round-trips through dicts and JSON.  Experiments, examples, the CLI and
ad-hoc scripts all describe work this way and hand it to the
:class:`~repro.scenarios.runner.ScenarioRunner`; none of them wires the
model → trace → transform → simulate pipeline by hand.

A :class:`ScenarioGrid` is a base scenario plus named axes (dotted paths
into the scenario dict, each with a list of values); expansion takes the
cross product in declaration order — the paper's Figure-8 machines × GPUs ×
bandwidth sweep is nine lines of JSON.
"""

import copy
import dataclasses
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.common.errors import ConfigError
from repro.core.simulate import SchedulePolicy, make_priority_scheduler
from repro.framework.config import TrainingConfig
from repro.hw.device import CPUSpec, GPUSpec, get_cpu, get_gpu
from repro.hw.network import NetworkSpec
from repro.hw.topology import ClusterSpec
from repro.models.base import ModelSpec
from repro.models.registry import build_model
from repro.optimizations.base import OptimizationModel, WhatIfOutcome
from repro.scenarios.registry import (
    DEFAULT_REGISTRY,
    OptimizationRegistry,
    StackEntry,
    stack_label,
)

#: a GPU/CPU declaration: a preset name, or ``{"preset": name, **overrides}``
DeviceDecl = Union[str, Dict[str, object]]

#: named schedule policies addressable from scenario files
NAMED_SCHEDULE_POLICIES: Dict[str, Callable[[], SchedulePolicy]] = {
    "comm_priority": lambda: make_priority_scheduler(lambda t: t.is_comm),
}

#: the factories shipped with the package, by name (everything else —
#: including a builtin *overwritten* with a custom factory — is runtime
#: state that spawn workers must rebuild from a WorkerManifest)
_BUILTIN_SCHEDULE_POLICIES = dict(NAMED_SCHEDULE_POLICIES)


def register_schedule_policy(name: str,
                             factory: Callable[[], SchedulePolicy],
                             overwrite: bool = False) -> None:
    """Register a named schedule policy addressable from scenario files.

    ``factory`` is a zero-argument callable returning a fresh
    :class:`~repro.core.simulate.SchedulePolicy` (checked when a scenario
    builds it; see :meth:`Scenario.build_schedule_policy`).  Like
    runtime-registered models, registrations are runtime state: fork
    workers inherit them, and spawn workers rebuild them from the pickled
    :class:`~repro.scenarios.batch.WorkerManifest` — which requires the
    factory to be an importable module-level callable, not a closure.
    """
    if not callable(factory):
        raise ConfigError(
            f"schedule policy {name!r} needs a zero-argument factory "
            f"callable, got {factory!r}")
    if name in NAMED_SCHEDULE_POLICIES and not overwrite:
        raise ConfigError(
            f"schedule policy {name!r} is already registered "
            "(pass overwrite=True to replace it)")
    NAMED_SCHEDULE_POLICIES[name] = factory


def runtime_schedule_policies() -> Dict[str, Callable[[], SchedulePolicy]]:
    """Policies added after import — what a spawn worker must rebuild.

    Compared by factory *identity*, not name: a builtin overwritten via
    :func:`register_schedule_policy` counts as runtime state too, else a
    spawn worker would silently run the shipped factory under the same
    name (and cache differing rows under one content key).
    """
    return {name: factory
            for name, factory in NAMED_SCHEDULE_POLICIES.items()
            if _BUILTIN_SCHEDULE_POLICIES.get(name) is not factory}


class _NamedSchedulePolicy(OptimizationModel):
    """No-op stack member carrying a scenario's named schedule override."""

    #: lets pipeline validation catch scheduler conflicts at construction
    provides_scheduler = True

    def __init__(self, key: str, scheduler: SchedulePolicy) -> None:
        self.name = f"schedule[{key}]"
        self.scheduler = scheduler

    def apply(self, graph, context):
        return WhatIfOutcome(graph=graph, scheduler=self.scheduler)


def _build_device(decl: Optional[DeviceDecl], lookup, what: str):
    """Resolve a device declaration into a spec (``None`` -> ``None``)."""
    if decl is None:
        return None
    if isinstance(decl, str):
        return lookup(decl)
    if isinstance(decl, dict):
        overrides = dict(decl)
        preset = overrides.pop("preset", None)
        if preset is None:
            raise ConfigError(f"{what} declaration {decl!r} lacks 'preset'")
        base = lookup(str(preset))
        try:
            return dataclasses.replace(base, **overrides)
        except TypeError as exc:
            raise ConfigError(f"bad {what} override in {decl!r}: {exc}") from None
    raise ConfigError(f"invalid {what} declaration: {decl!r}")


@dataclass(frozen=True)
class ClusterShape:
    """Declarative form of a :class:`~repro.hw.topology.ClusterSpec`.

    ``gpu`` defaults to the owning scenario's GPU declaration, so a scenario
    stays a single source of truth for the device model.
    """

    machines: int
    gpus_per_machine: int = 1
    bandwidth_gbps: float = 10.0
    latency_us: float = 25.0
    per_primitive_overhead_us: float = 60.0
    gpu: Optional[DeviceDecl] = None

    def to_dict(self) -> Dict[str, object]:
        """Dict form; omits unset (``None``) fields."""
        return {k: v for k, v in dataclasses.asdict(self).items()
                if v is not None}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ClusterShape":
        """Parse the dict form (inverse of :meth:`to_dict`)."""
        unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ConfigError(f"unknown cluster field(s) {unknown}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(f"bad cluster declaration {data!r}: {exc}") \
                from None

    def build(self, default_gpu: GPUSpec) -> ClusterSpec:
        """Materialize the runtime cluster spec."""
        gpu = _build_device(self.gpu, get_gpu, "GPU") or default_gpu
        network = NetworkSpec(
            bandwidth_gbps=self.bandwidth_gbps,
            latency_us=self.latency_us,
            per_primitive_overhead_us=self.per_primitive_overhead_us,
        )
        return ClusterSpec(self.machines, self.gpus_per_machine, gpu, network)


@dataclass
class Scenario:
    """One declarative what-if question.

    Attributes:
        model: model-zoo name (or a name registered via
            :func:`repro.models.registry.register_model`).
        batch_size: mini-batch override; ``None`` keeps the model default.
        framework: execution semantics (``pytorch`` / ``mxnet`` / ``caffe``).
        precision: baseline numeric precision.
        optimizer: optimizer override; ``None`` keeps the model default.
        gpu / cpu: device declarations (preset name or preset + overrides).
        bucket_cap_mb / data_loading_us: optional TrainingConfig overrides.
        cluster: deployment target for communication what-ifs.
        optimizations: the declared optimization stack.
        schedule_policy: named simulator schedule override (at most one per
            scenario, counting schedulers the stack itself supplies).
    """

    model: str
    batch_size: Optional[int] = None
    framework: str = "pytorch"
    precision: str = "fp32"
    optimizer: Optional[str] = None
    gpu: Optional[DeviceDecl] = None
    cpu: Optional[DeviceDecl] = None
    bucket_cap_mb: Optional[float] = None
    data_loading_us: Optional[float] = None
    cluster: Optional[ClusterShape] = None
    optimizations: List[StackEntry] = field(default_factory=list)
    schedule_policy: Optional[str] = None

    def __post_init__(self) -> None:
        if isinstance(self.optimizations, str) \
                or not isinstance(self.optimizations, (list, tuple)):
            raise ConfigError(
                "scenario 'optimizations' must be a list of stack entries, "
                f"got {self.optimizations!r}"
            )
        if (self.schedule_policy is not None
                and self.schedule_policy not in NAMED_SCHEDULE_POLICIES):
            raise ConfigError(
                f"unknown schedule policy {self.schedule_policy!r}; "
                f"named policies: {list(NAMED_SCHEDULE_POLICIES)}"
            )

    # -------------------------------------------------------------- builders

    def build_model(self) -> ModelSpec:
        """The workload's model spec."""
        return build_model(self.model, batch_size=self.batch_size)

    def build_gpu(self) -> Optional[GPUSpec]:
        """The declared GPU spec, or ``None`` for the config default."""
        return _build_device(self.gpu, get_gpu, "GPU")

    def build_cpu(self) -> Optional[CPUSpec]:
        """The declared CPU spec, or ``None`` for the config default."""
        return _build_device(self.cpu, get_cpu, "CPU")

    def build_config(self) -> TrainingConfig:
        """The training configuration this scenario describes."""
        kwargs: Dict[str, object] = {
            "framework": self.framework,
            "precision": self.precision,
            "optimizer": self.optimizer,
        }
        gpu = self.build_gpu()
        if gpu is not None:
            kwargs["gpu"] = gpu
        cpu = self.build_cpu()
        if cpu is not None:
            kwargs["cpu"] = cpu
        if self.bucket_cap_mb is not None:
            kwargs["bucket_cap_mb"] = self.bucket_cap_mb
        if self.data_loading_us is not None:
            kwargs["data_loading_us"] = self.data_loading_us
        return TrainingConfig(**kwargs)

    def build_cluster(self) -> Optional[ClusterSpec]:
        """The deployment target, or ``None`` for single-GPU scenarios."""
        if self.cluster is None:
            return None
        return self.cluster.build(default_gpu=self.build_config().gpu)

    def build_schedule_policy(self) -> Optional[SchedulePolicy]:
        """The named simulator schedule override, if any.

        Raises:
            ConfigError: if the registered factory returns anything but a
                :class:`~repro.core.simulate.SchedulePolicy`.
        """
        if self.schedule_policy is None:
            return None
        policy = NAMED_SCHEDULE_POLICIES[self.schedule_policy]()
        if not isinstance(policy, SchedulePolicy):
            raise ConfigError(
                f"schedule policy {self.schedule_policy!r} factory returned "
                f"{policy!r}, not a SchedulePolicy (subclass "
                "repro.core.simulate.SchedulePolicy and override key(task))")
        return policy

    # ------------------------------------------------------------ convenience

    def with_(self, **changes: object) -> "Scenario":
        """A modified copy (``dataclasses.replace`` convenience)."""
        return dataclasses.replace(self, **changes)

    def with_cluster(self, machines: int, gpus_per_machine: int = 1,
                     bandwidth_gbps: float = 10.0, **kwargs: object) -> "Scenario":
        """A copy targeting a different deployment."""
        return self.with_(cluster=ClusterShape(
            machines=machines, gpus_per_machine=gpus_per_machine,
            bandwidth_gbps=bandwidth_gbps, **kwargs))

    def stack_label(self) -> str:
        """Human-readable label of the optimization stack."""
        return stack_label(self.optimizations)

    def label(self) -> str:
        """One-line identity of this scenario."""
        parts = [self.model]
        if self.batch_size is not None:
            parts.append(f"bs{self.batch_size}")
        if self.cluster is not None:
            parts.append(f"{self.cluster.machines}x{self.cluster.gpus_per_machine}"
                         f"@{self.cluster.bandwidth_gbps:g}Gbps")
        parts.append(self.stack_label())
        return " ".join(parts)

    # ---------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, object]:
        """Dict form; omits fields left at their defaults.

        Nested values are deep-copied: mutating the returned dict (e.g.
        grid-axis substitution) must never write through to the scenario.
        """
        out: Dict[str, object] = {"model": self.model}
        defaults = Scenario(model=self.model)
        for f in dataclasses.fields(self):
            if f.name in ("model", "cluster"):
                continue
            value = getattr(self, f.name)
            if value != getattr(defaults, f.name):
                out[f.name] = copy.deepcopy(value)
        if self.cluster is not None:
            out["cluster"] = self.cluster.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Scenario":
        """Parse the dict form (inverse of :meth:`to_dict`)."""
        data = dict(data)
        if "model" not in data:
            raise ConfigError("scenario lacks required field 'model'")
        unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ConfigError(f"unknown scenario field(s) {unknown}")
        cluster = data.get("cluster")
        if isinstance(cluster, dict):
            data["cluster"] = ClusterShape.from_dict(cluster)
        return cls(**data)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON text of :meth:`to_dict` (what scenario files hold)."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse JSON text (inverse of :meth:`to_json`)."""
        return cls.from_dict(json.loads(text))

    # ----------------------------------------------------------------- stack

    def build_pipeline(self, registry: Optional[OptimizationRegistry] = None):
        """Resolve the optimization stack into a validated pipeline.

        A declared ``schedule_policy`` rides along as a final no-op stack
        member supplying the scheduler, so the pipeline's one-scheduler
        conflict rule covers it too.
        """
        from repro.scenarios.pipeline import OptimizationPipeline
        stack: List[object] = list(self.optimizations)
        if self.schedule_policy is not None:
            stack.append(_NamedSchedulePolicy(self.schedule_policy,
                                              self.build_schedule_policy()))
        return OptimizationPipeline(stack, registry=registry or DEFAULT_REGISTRY)


def _set_path(data: Dict[str, object], path: str, value: object) -> None:
    """Set a dotted path inside nested dicts, creating *missing* levels.

    Crossing an existing non-dict value (e.g. axis ``gpu.compute_efficiency``
    over a string preset declaration ``"gpu": "2080ti"``) is an error —
    silently replacing it would discard part of the base scenario.
    """
    keys = path.split(".")
    node = data
    for depth, key in enumerate(keys[:-1]):
        nxt = node.get(key)
        if nxt is None:
            nxt = {}
            node[key] = nxt
        elif not isinstance(nxt, dict):
            crossed = ".".join(keys[:depth + 1])
            raise ConfigError(
                f"grid axis {path!r} crosses the non-dict value {nxt!r} at "
                f"{crossed!r}; declare the base field in dict form instead"
            )
        node = nxt
    node[keys[-1]] = value


@dataclass
class ScenarioGrid:
    """A base scenario crossed with named axes.

    ``axes`` maps dotted scenario-dict paths to value lists; :meth:`expand`
    yields one scenario per cross-product cell, axes varying slowest-first
    in declaration order (so the first axis is the outermost loop).
    """

    base: Scenario
    axes: Dict[str, List[object]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for path, values in self.axes.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError(
                    f"grid axis {path!r} must be a non-empty list"
                )

    def expand(self) -> List[Scenario]:
        """All scenarios of the grid, in cross-product order."""
        if not self.axes:
            return [self.base]
        paths = list(self.axes)
        scenarios = []
        for cell in itertools.product(*(self.axes[p] for p in paths)):
            data = self.base.to_dict()
            for path, value in zip(paths, cell):
                _set_path(data, path, value)
            scenarios.append(Scenario.from_dict(data))
        return scenarios

    def __len__(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n

    # ---------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, object]:
        """Dict form: the base scenario plus the declared axes."""
        out: Dict[str, object] = {"base": self.base.to_dict()}
        if self.axes:
            out["axes"] = {path: list(values)
                           for path, values in self.axes.items()}
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioGrid":
        """Parse the dict form (inverse of :meth:`to_dict`)."""
        unknown = sorted(set(data) - {"base", "axes"})
        if unknown:
            raise ConfigError(f"unknown grid field(s) {unknown}")
        if "base" not in data:
            raise ConfigError("scenario grid lacks required field 'base'")
        return cls(base=Scenario.from_dict(data["base"]),
                   axes=dict(data.get("axes") or {}))

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON text of :meth:`to_dict` (what grid files hold)."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioGrid":
        """Parse JSON text (inverse of :meth:`to_json`)."""
        return cls.from_dict(json.loads(text))


def load_scenario_file(path: str) -> Union[Scenario, ScenarioGrid]:
    """Load a scenario JSON file: a single scenario or a grid.

    A dict with a ``base`` key parses as a :class:`ScenarioGrid`; anything
    else as a single :class:`Scenario`.
    """
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: scenario file must hold a JSON object")
    if "base" in data:
        return ScenarioGrid.from_dict(data)
    return Scenario.from_dict(data)
