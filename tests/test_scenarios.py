"""Tests for the declarative scenario layer.

Covers the optimization registry (round-trip of every shipped model),
pipeline composition rules (ordering, slot/scheduler conflicts,
prerequisites), Scenario/ScenarioGrid serialization equality, the runner,
and the CLI surfaces built on top.
"""

import json

import pytest

from repro.__main__ import main
from repro.common.errors import ConfigError
from repro.optimizations import (
    AutomaticMixedPrecision,
    DistributedTraining,
    Gist,
)
from repro.optimizations.base import OptimizationModel
from repro.scenarios import (
    DEFAULT_REGISTRY,
    ClusterShape,
    OptimizationPipeline,
    PipelineError,
    Scenario,
    ScenarioGrid,
    ScenarioRunner,
    load_scenario_file,
)


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

class TestRegistry:
    def test_every_shipped_optimization_registered(self):
        assert set(DEFAULT_REGISTRY.keys()) >= {
            "amp", "fused_adam", "reconstruct_batchnorm", "metaflow",
            "gpu_upgrade", "cpu_upgrade", "vdnn", "gist",
            "distributed_training", "parameter_server", "p3",
            "blueconnect", "dgc",
        }

    def test_create_default_for_every_key(self):
        for key in DEFAULT_REGISTRY.keys():
            model = DEFAULT_REGISTRY.create(key)
            assert isinstance(model, OptimizationModel), key

    def test_round_trip_every_shipped_optimization(self):
        """Declaring each optimization with its documented defaults builds
        an instance identical to the bare-key default instance."""
        for spec in DEFAULT_REGISTRY.specs():
            bare = DEFAULT_REGISTRY.create(spec.key)
            declared = DEFAULT_REGISTRY.create({
                "name": spec.key,
                "params": {p.name: p.default for p in spec.params},
            })
            assert type(declared) is type(bare), spec.key
            assert vars(declared) == vars(bare), spec.key

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown optimization"):
            DEFAULT_REGISTRY.create("warp_drive")

    def test_unknown_param(self):
        with pytest.raises(ConfigError, match="no parameter"):
            DEFAULT_REGISTRY.create({"name": "amp",
                                     "params": {"warp_factor": 9}})

    def test_param_type_checked(self):
        with pytest.raises(ConfigError, match="expects float"):
            DEFAULT_REGISTRY.create({"name": "amp",
                                     "params": {"compute_shrink": "fast"}})

    def test_param_int_widens_to_float(self):
        model = DEFAULT_REGISTRY.create({"name": "amp",
                                         "params": {"compute_shrink": 4}})
        assert model.compute_shrink == 4.0

    def test_null_param_keeps_default(self):
        from repro.optimizations.p3 import DEFAULT_SLICE_BYTES
        model = DEFAULT_REGISTRY.create({"name": "p3",
                                         "params": {"slice_bytes": None}})
        assert model.slice_bytes == DEFAULT_SLICE_BYTES
        model = DEFAULT_REGISTRY.create({"name": "gpu_upgrade",
                                         "params": {"factor": None}})
        assert model.factor == 1.5

    def test_bad_entry_shapes(self):
        with pytest.raises(ConfigError):
            DEFAULT_REGISTRY.parse_entry({"params": {}})
        with pytest.raises(ConfigError):
            DEFAULT_REGISTRY.parse_entry({"name": "amp", "extra": 1})
        with pytest.raises(ConfigError):
            DEFAULT_REGISTRY.parse_entry(42)

    def test_whatif_defaults_respect_applicability(self):
        resnet_meta = {"optimizer": "sgd",
                       "layer_kinds": {"c": "conv", "r": "relu",
                                       "b": "batchnorm"}}
        keys = {type(m).__name__
                for m in DEFAULT_REGISTRY.whatif_defaults(resnet_meta)}
        assert "FusedAdam" not in keys
        assert {"AutomaticMixedPrecision", "Gist",
                "VirtualizedDNN"} <= keys

        adam_meta = {"optimizer": "adam", "layer_kinds": {"l": "linear"}}
        keys = {type(m).__name__
                for m in DEFAULT_REGISTRY.whatif_defaults(adam_meta)}
        assert "FusedAdam" in keys
        assert "VirtualizedDNN" not in keys  # no conv layers to offload


# --------------------------------------------------------------------------
# pipeline composition
# --------------------------------------------------------------------------

class TestPipeline:
    def test_orders_categories(self):
        pipeline = OptimizationPipeline(
            ["blueconnect", "gist", "distributed_training", "amp"])
        assert pipeline.describe() == [
            "amp", "gist", "distributed_training", "blueconnect"]

    def test_order_is_stable_within_category(self):
        pipeline = OptimizationPipeline(["vdnn", "gist"])
        assert pipeline.describe() == ["vdnn", "gist"]

    def test_memory_before_communication(self):
        pipeline = OptimizationPipeline(["distributed_training", "vdnn"])
        assert pipeline.describe() == ["vdnn", "distributed_training"]

    def test_comm_rewrite_requires_comm_insert(self):
        with pytest.raises(PipelineError, match="earlier in the stack"):
            OptimizationPipeline(["blueconnect"])
        with pytest.raises(PipelineError, match="earlier in the stack"):
            OptimizationPipeline(["dgc", "amp"])

    def test_gradient_sync_slot_conflict(self):
        with pytest.raises(PipelineError, match="gradient_sync"):
            OptimizationPipeline(["distributed_training", "p3"])

    def test_two_parameter_server_variants_conflict(self):
        # p3 and parameter_server collide on BOTH the gradient-sync slot and
        # the scheduler; the slot rule fires first
        with pytest.raises(PipelineError):
            OptimizationPipeline(["p3", "parameter_server"])

    def test_scheduler_conflict(self):
        from repro.optimizations.p3 import (
            ParameterServerTransfer,
            PriorityParameterPropagation,
        )
        from repro.scenarios.registry import (
            OptimizationRegistry,
            OptimizationSpec,
        )
        registry = OptimizationRegistry()
        registry.register(OptimizationSpec(
            key="sched_a", factory=PriorityParameterPropagation, summary="",
            category="comm_insert", provides_scheduler=True))
        registry.register(OptimizationSpec(
            key="sched_b", factory=ParameterServerTransfer, summary="",
            category="comm_insert", provides_scheduler=True))
        with pytest.raises(PipelineError, match="schedule override"):
            OptimizationPipeline(["sched_a", "sched_b"], registry=registry)

    def test_scenario_policy_conflicts_with_stack_scheduler(self):
        scenario = Scenario(model="resnet50", optimizations=["p3"],
                            schedule_policy="comm_priority")
        with pytest.raises(PipelineError, match="schedule override"):
            scenario.build_pipeline()

    def test_scenario_policy_composes_with_plain_stack(self):
        scenario = Scenario(model="resnet50", optimizations=["amp"],
                            schedule_policy="comm_priority")
        pipeline = scenario.build_pipeline()
        assert "schedule[comm_priority]" in pipeline.describe()

    def test_accepts_prebuilt_instances(self):
        pipeline = OptimizationPipeline(
            [DistributedTraining(), AutomaticMixedPrecision()])
        assert pipeline.describe() == ["amp", "distributed_training"]
        assert pipeline.requires_cluster

    def test_empty_stack(self):
        pipeline = OptimizationPipeline([])
        assert len(pipeline) == 0
        assert pipeline.name == "baseline"
        assert not pipeline.requires_cluster

    def test_apply_equals_sequential_application(self, tiny_model):
        from repro.analysis.session import WhatIfSession
        from repro.core.simulate import simulate
        session = WhatIfSession.from_model(tiny_model)
        context = session.context()

        manual = session.graph.copy()
        AutomaticMixedPrecision().apply(manual, context)
        Gist().apply(manual, context)
        expected = simulate(manual).makespan_us

        piped = session.graph.copy()
        outcome = OptimizationPipeline(["amp", "gist"]).apply(piped, context)
        assert simulate(outcome.graph).makespan_us == expected


# --------------------------------------------------------------------------
# scenario serialization
# --------------------------------------------------------------------------

class TestScenarioSerialization:
    def test_json_round_trip_equality(self):
        scenario = Scenario(
            model="densenet121",
            batch_size=16,
            framework="caffe",
            precision="fp32",
            gpu={"preset": "2080ti", "compute_efficiency": 0.22},
            cluster=ClusterShape(4, 2, bandwidth_gbps=25.0),
            optimizations=["amp",
                           {"name": "gist", "params": {"lossy": True}}],
        )
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_round_trip_every_shipped_optimization_entry(self):
        for spec in DEFAULT_REGISTRY.specs():
            entry = {"name": spec.key,
                     "params": {p.name: p.default for p in spec.params}}
            scenario = Scenario(model="resnet50", optimizations=[entry])
            restored = Scenario.from_json(scenario.to_json())
            assert restored == scenario, spec.key
            # and the restored stack still resolves through the registry
            if not spec.requires_category:
                restored.build_pipeline()

    def test_to_dict_omits_defaults(self):
        assert Scenario(model="gnmt").to_dict() == {"model": "gnmt"}

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario field"):
            Scenario.from_dict({"model": "gnmt", "turbo": True})
        with pytest.raises(ConfigError, match="unknown cluster field"):
            ClusterShape.from_dict({"machines": 2, "nics": 4})

    def test_unknown_schedule_policy(self):
        with pytest.raises(ConfigError, match="schedule policy"):
            Scenario(model="gnmt", schedule_policy="random")

    def test_builders(self):
        scenario = Scenario(
            model="resnet50", batch_size=8, framework="mxnet", gpu="p4000",
            cluster=ClusterShape(4, 1, bandwidth_gbps=5.0))
        config = scenario.build_config()
        assert config.framework == "mxnet"
        assert config.gpu.name == "Quadro-P4000"
        cluster = scenario.build_cluster()
        assert cluster.label() == "4x1"
        assert cluster.gpu.name == "Quadro-P4000"  # inherited from scenario
        assert scenario.build_model().batch_size == 8

    def test_grid_round_trip_and_expansion(self):
        grid = ScenarioGrid(
            base=Scenario(model="resnet50",
                          optimizations=["distributed_training"],
                          cluster=ClusterShape(2, 1)),
            axes={"cluster.bandwidth_gbps": [10, 20],
                  "cluster.machines": [2, 4]},
        )
        assert ScenarioGrid.from_json(grid.to_json()) == grid
        scenarios = grid.expand()
        assert len(scenarios) == len(grid) == 4
        # first axis is the outermost loop
        assert [s.cluster.bandwidth_gbps for s in scenarios] == [10, 10, 20, 20]
        assert [s.cluster.machines for s in scenarios] == [2, 4, 2, 4]

    def test_load_scenario_file(self, tmp_path):
        single = tmp_path / "one.json"
        single.write_text(Scenario(model="gnmt").to_json())
        assert isinstance(load_scenario_file(str(single)), Scenario)

        griddy = tmp_path / "grid.json"
        griddy.write_text(json.dumps(
            {"base": {"model": "gnmt"}, "axes": {"batch_size": [8, 16]}}))
        loaded = load_scenario_file(str(griddy))
        assert isinstance(loaded, ScenarioGrid)
        assert [s.batch_size for s in loaded.expand()] == [8, 16]


# --------------------------------------------------------------------------
# runner
# --------------------------------------------------------------------------

class TestScenarioRunner:
    def test_sessions_cached_per_workload(self):
        runner = ScenarioRunner()
        a = runner.session(Scenario(model="resnet50", batch_size=2))
        b = runner.session(Scenario(model="resnet50", batch_size=2,
                                    optimizations=["amp"]))
        assert a is b
        c = runner.session(Scenario(model="resnet50", batch_size=2,
                                    precision="fp16"))
        assert c is not a

    def test_baseline_only_outcome(self):
        outcome = ScenarioRunner().run(Scenario(model="resnet50",
                                                batch_size=2))
        assert outcome.prediction is None
        assert outcome.predicted_us == outcome.baseline_us
        assert outcome.improvement_percent == 0.0

    def test_missing_cluster_rejected(self):
        with pytest.raises(ConfigError, match="needs a cluster"):
            ScenarioRunner().run(Scenario(
                model="resnet50", batch_size=2,
                optimizations=["distributed_training"]))

    def test_callable_schedule_policy_is_a_config_error(self):
        """A registered factory returning a plain ``(frontier, progress)``
        callable names its policy in a ConfigError instead of running."""
        from repro.scenarios import (
            NAMED_SCHEDULE_POLICIES,
            register_schedule_policy,
        )

        def first_in_frontier(frontier, progress):
            return frontier[0]

        register_schedule_policy("legacy_fifo", lambda: first_in_frontier)
        try:
            scenario = Scenario(model="resnet50", batch_size=2,
                                schedule_policy="legacy_fifo")
            with pytest.raises(ConfigError,
                               match="'legacy_fifo'.*not a SchedulePolicy"):
                ScenarioRunner().run(scenario)
        finally:
            del NAMED_SCHEDULE_POLICIES["legacy_fifo"]

    def test_run_grid_rejects_missing_cluster_upfront(self, monkeypatch):
        import repro.scenarios.batch as batch

        def never(*_args, **_kwargs):
            raise AssertionError("run_batch entered before validation")

        monkeypatch.setattr(batch, "run_batch", never)
        with pytest.raises(ConfigError, match="needs a cluster"):
            ScenarioRunner().run_grid([
                Scenario(model="resnet50", batch_size=2),
                Scenario(model="resnet50", batch_size=2,
                         optimizations=["distributed_training"])])

    def test_grid_axis_into_missing_cluster_is_config_error(self):
        grid = ScenarioGrid(base=Scenario(model="gnmt"),
                            axes={"cluster.bandwidth_gbps": [10]})
        with pytest.raises(ConfigError, match="bad cluster declaration"):
            grid.expand()

    def test_grid_axis_through_string_declaration_rejected(self):
        grid = ScenarioGrid(base=Scenario(model="resnet50", gpu="2080ti"),
                            axes={"gpu.compute_efficiency": [0.2]})
        with pytest.raises(ConfigError, match="non-dict value"):
            grid.expand()

    def test_grid_cells_do_not_share_nested_state(self):
        base = Scenario(model="resnet50", gpu={"preset": "2080ti"})
        grid = ScenarioGrid(base=base,
                            axes={"gpu.compute_efficiency": [0.2, 0.5]})
        cells = grid.expand()
        assert [c.gpu["compute_efficiency"] for c in cells] == [0.2, 0.5]
        assert base.gpu == {"preset": "2080ti"}  # base untouched

    def test_run_matches_legacy_wiring(self):
        from repro.analysis.session import WhatIfSession
        runner = ScenarioRunner()
        outcome = runner.run(Scenario(model="resnet50", batch_size=2,
                                      optimizations=["amp"]))
        session = WhatIfSession.from_model(outcome.model,
                                           config=outcome.config)
        legacy = session.predict(AutomaticMixedPrecision())
        assert outcome.baseline_us == legacy.baseline_us
        assert outcome.predicted_us == legacy.predicted_us

    def test_run_grid_order_and_identity(self):
        runner = ScenarioRunner()
        base = Scenario(model="resnet50", batch_size=2)
        scenarios = [
            base,  # baseline-only cell rides along
            base.with_(optimizations=["amp"]),
            base.with_(optimizations=["gist"]),
        ]
        outcomes = runner.run_grid(scenarios, parallel=2)
        assert [o.scenario for o in outcomes] == scenarios
        # grid outcomes are detached: timings only, no session
        assert all(o.prediction is None and o.session is None
                   for o in outcomes)
        serial = [runner.run(s) for s in scenarios]
        assert [o.predicted_us for o in outcomes] == \
            [o.predicted_us for o in serial]

    def test_to_result_rows(self):
        runner = ScenarioRunner()
        outcomes = [runner.run(Scenario(model="resnet50", batch_size=2,
                                        optimizations=["amp"]))]
        result = runner.to_result(outcomes)
        assert result.headers[0] == "model"
        (row,) = result.rows
        assert row[0] == "resnet50" and row[3] == "amp"


# --------------------------------------------------------------------------
# CLI surfaces
# --------------------------------------------------------------------------

class TestScenarioCLI:
    def test_optimizations_command(self, capsys):
        assert main(["optimizations"]) == 0
        out = capsys.readouterr().out
        for key in DEFAULT_REGISTRY.keys():
            assert key in out

    def test_whatif_single_opt(self, capsys):
        assert main(["whatif", "resnet50", "--batch-size", "2",
                     "--opt", "amp"]) == 0
        assert "amp" in capsys.readouterr().out

    def test_whatif_stacked_opts_with_cluster(self, capsys):
        assert main(["whatif", "resnet50", "--batch-size", "2",
                     "--opt", "distributed_training",
                     "--opt", 'dgc={"compression_ratio": 0.05}',
                     "--cluster", "2x1", "--bandwidth", "10"]) == 0
        assert "distributed_training+dgc" in capsys.readouterr().out

    def test_whatif_default_enumerates_registry(self, capsys):
        assert main(["whatif", "resnet50", "--batch-size", "2"]) == 0
        out = capsys.readouterr().out
        for name in ("amp", "vdnn", "gist", "reconstruct_batchnorm"):
            assert name in out

    def test_whatif_invalid_stack_reports_error(self, capsys):
        assert main(["whatif", "resnet50", "--batch-size", "2",
                     "--opt", "p3", "--opt", "parameter_server"]) == 2
        assert "gradient_sync" in capsys.readouterr().err

    def test_run_single_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(Scenario(model="resnet50", batch_size=2,
                                 optimizations=["amp"]).to_json())
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "amp" in out and "resnet50" in out

    @pytest.mark.parametrize("flag", ["--jobs", "--processes"])
    def test_run_grid_file(self, flag, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({
            "base": {"model": "resnet50", "batch_size": 2,
                     "optimizations": ["distributed_training"],
                     "cluster": {"machines": 2, "gpus_per_machine": 1,
                                 "bandwidth_gbps": 10}},
            "axes": {"cluster.machines": [2, 4]},
        }))
        assert main(["run", str(path), flag, "2"]) == 0
        out = capsys.readouterr().out
        assert "2x1" in out and "4x1" in out

    @pytest.mark.parametrize("command", [
        ["run", "g.json", "--jobs"],
        ["run", "g.json", "--processes"],
        ["sweep", "g.json", "--jobs"],
        ["experiment", "fig8", "--jobs"],
    ], ids=["run", "run-processes", "sweep", "experiment"])
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_rejected(self, command, jobs, capsys):
        # 0 used to mean "one per CPU" and -2 "serial", both silently
        with pytest.raises(SystemExit) as exc:
            main(command + [jobs])
        assert exc.value.code == 2
        assert f"must be at least 1 worker, got {jobs}" \
            in capsys.readouterr().err
