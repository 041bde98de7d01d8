"""The compiled simulation core: lowering, cache invalidation, batching.

Covers the contracts :mod:`repro.core.compiled` documents:

* the stable ordinals the lowering assigns are a pure function of graph
  data (thread-major);
* the compiled lowering is cached per graph generation and invalidated by
  every mutation class — structural splices, edge changes, thread order
  flags, and in-place task field writes (through the write stamp) — and
  a what-if transaction hands the base lowering back on exit;
* ``simulate_many`` answers a shared-baseline cell grid bit-identically
  to mutating and simulating each cell's graph from scratch;
* ``SimulationResult.critical_tasks`` orders duration ties by ordinal.
"""

import dataclasses

import pytest

from repro.common.errors import SimulationError
from repro.core.compiled import (
    CellDelta,
    CompiledGraph,
    compiled_for,
    simulate_many,
)
from repro.core.graph import DependencyGraph, _StampedTask
from repro.core.simulate import make_priority_scheduler, simulate
from repro.core.task import Task, TaskKind
from repro.tracing.records import comm_channel, cpu_thread, gpu_stream


def make_task(name, thread, duration, gap=0.0, kind=TaskKind.CPU,
              priority=0):
    return Task(name=name, kind=kind, thread=thread, duration=duration,
                gap=gap, priority=priority)


def small_graph():
    """CPU thread -> GPU stream -> unordered comm channel, with gaps."""
    g = DependencyGraph()
    cpu = [g.append(make_task(f"c{i}", cpu_thread(0), 2.0 + i, gap=0.5))
           for i in range(4)]
    gpu = [g.append(make_task(f"g{i}", gpu_stream(0), 3.0,
                              kind=TaskKind.GPU_KERNEL))
           for i in range(3)]
    for i, k in enumerate(gpu):
        g.add_dependency(cpu[i], k)
    channel = comm_channel(0)
    g.mark_unordered(channel)
    for i in range(2):
        m = g.append(make_task(f"m{i}", channel, 4.0, kind=TaskKind.COMM,
                               priority=i))
        g.add_dependency(gpu[i], m)
    return g


class TestStableOrdinals:
    def test_thread_major_dense_numbering(self):
        g = small_graph()
        compiled = CompiledGraph.build(g)
        ordinals = compiled.ordinal
        assert sorted(ordinals.values()) == list(range(len(g)))
        expected = 0
        for thread in g.threads():
            for task in g.iter_tasks_on(thread):
                assert ordinals[task] == expected
                assert compiled.tasks[expected] is task
                expected += 1

    def test_ordinals_are_allocation_independent(self):
        """Two graphs with identical *data* assign identical ordinals by
        position, no matter the Task allocation order."""
        def build(reverse):
            names = [("b", 1.0), ("a", 2.0), ("c", 3.0)]
            tasks = [make_task(n, cpu_thread(0), d) for n, d in
                     (reversed(names) if reverse else names)]
            if reverse:
                tasks.reverse()  # same append order either way
            g = DependencyGraph()
            for t in tasks:
                g.append(t)
            return g

        fwd, rev = build(False), build(True)
        by_pos_fwd = {o: t.name
                      for t, o in CompiledGraph.build(fwd).ordinal.items()}
        by_pos_rev = {o: t.name
                      for t, o in CompiledGraph.build(rev).ordinal.items()}
        assert by_pos_fwd == by_pos_rev


class TestCompiledCache:
    def test_compiled_for_caches_per_generation(self):
        g = small_graph()
        assert compiled_for(g) is compiled_for(g)

    @pytest.mark.parametrize("mutate", [
        lambda g: g.append(make_task("new", cpu_thread(0), 1.0)),
        lambda g: g.remove(g.tasks()[0]),
        lambda g: g.add_dependency(g.tasks()[0], g.tasks()[-1]),
        lambda g: g.remove_dependency(g.tasks()[0], g.tasks()[4]),
        lambda g: g.mark_unordered(gpu_stream(0)),
        lambda g: setattr(g.tasks()[2], "duration", 99.0),
        lambda g: g.tasks()[2].scale_duration(0.5),
        lambda g: setattr(g.tasks()[-1], "gap", 7.0),
    ])
    def test_every_mutation_class_invalidates(self, mutate):
        g = small_graph()
        before = compiled_for(g)
        mutate(g)
        after = compiled_for(g)
        assert after is not before
        # and the fresh lowering simulates the *mutated* graph
        assert after.run().start_us == simulate(g).start_us

    def test_second_write_to_one_task_is_stamp_free(self):
        g = small_graph()
        compiled_for(g)
        task = g.tasks()[0]
        generation = g._generation
        task.duration = 5.0
        assert g._generation == generation + 1
        assert type(task) is Task  # the first write unstamps the task
        assert "_sim_stamp" not in task.__dict__
        task.duration = 6.0  # stamp already fired and popped
        assert g._generation == generation + 1

    def test_clone_does_not_carry_the_stamp(self):
        g = small_graph()
        compiled_for(g)
        clone = g.tasks()[0].clone()
        assert type(clone) is Task
        generation = g._generation
        clone.duration = 123.0
        assert g._generation == generation

    def test_graph_copy_does_not_share_cache_or_stamps(self):
        g = small_graph()
        compiled_for(g)
        dup = g.copy()
        assert dup._compiled is None
        assert all(type(t) is Task for t in dup.tasks())
        generation = g._generation
        dup.tasks()[0].duration = 50.0  # must not invalidate the original
        assert g._generation == generation
        assert compiled_for(g).run().start_us == simulate(g).start_us

    def test_task_class_has_no_write_barrier(self):
        assert "__setattr__" not in Task.__dict__

    def test_lowering_stamps_every_task(self):
        g = small_graph()
        assert all(type(t) is Task for t in g.tasks())
        compiled_for(g)
        assert all(type(t) is _StampedTask for t in g.tasks())

    def test_tasks_stay_stamped_after_a_transaction(self):
        g = small_graph()
        with g.overlay() as working:
            for task in working.tasks():
                task.duration += 1.0  # journaled, the stamp stays
            working.append(make_task("late", cpu_thread(0), 1.0))
        assert all(type(t) is _StampedTask for t in g.tasks())
        generation = g._generation
        g.tasks()[0].duration = 0.5
        assert g._generation == generation + 1

    def test_dataclass_replace_builds_an_unstamped_task(self):
        g = small_graph()
        compiled_for(g)
        source = g.tasks()[0]
        generation = g._generation
        fresh = dataclasses.replace(source, duration=9.0)
        assert type(fresh) is Task
        assert "_sim_stamp" not in fresh.__dict__
        assert fresh.duration == 9.0
        assert type(source) is _StampedTask
        assert g._generation == generation

    def test_overlay_write_invalidates_base_and_overlay(self):
        """A write inside a transaction makes the base lowering stale for
        the transacted graph; closing it hands the base lowering back."""
        g = small_graph()
        base_compiled = compiled_for(g)
        pristine = simulate(g).makespan_us
        with g.overlay() as working:
            working.tasks()[1].duration = 42.0  # journaled through the stamp
            in_flight = compiled_for(working)
            assert in_flight is not base_compiled
            assert in_flight.run().start_us == simulate(working).start_us
            assert in_flight.run().makespan_us != pristine
        assert compiled_for(g) is base_compiled
        assert compiled_for(g).run().makespan_us == pristine
        assert compiled_for(g).run().start_us == simulate(g).start_us

    def test_lazy_predecessor_csr_transposes_successors(self):
        g = small_graph()
        compiled = CompiledGraph.build(g)
        indptr, indices = compiled.pred_indptr, compiled.pred_indices
        ordinals = compiled.ordinal
        for task in g.tasks():
            i = ordinals[task]
            row = sorted(indices[indptr[i]:indptr[i + 1]])
            assert row == sorted(ordinals[p] for p in g.predecessors(task))


class TestSimulateMany:
    def test_cells_match_scratch_simulation(self):
        g = small_graph()
        tasks = g.tasks()
        cells = [
            CellDelta(label="faster-gpu",
                      durations={t: t.duration * 0.5 for t in tasks
                                 if t.is_gpu}),
            CellDelta(label="no-gaps", gaps={t: 0.0 for t in tasks}),
            CellDelta(label="mixed",
                      durations={tasks[0]: 0.0},
                      gaps={tasks[0]: 2.0}),
            CellDelta(label="identity"),
        ]
        results = simulate_many(compiled_for(g), cells)
        assert len(results) == len(cells)
        for cell, result in zip(cells, results):
            scratch = g.copy()
            scratch_ordinals = compiled_for(scratch).ordinal
            by_ordinal = {o: t for t, o in scratch_ordinals.items()}
            ordinals = compiled_for(g).ordinal
            for task, value in cell.durations.items():
                by_ordinal[ordinals[task]].duration = value
            for task, value in cell.gaps.items():
                by_ordinal[ordinals[task]].gap = value
            expected = simulate(scratch)
            assert result.makespan_us == expected.makespan_us
            starts_by_ordinal = {ordinals[t]: s
                                 for t, s in result.start_us.items()}
            expected_by_ordinal = {
                scratch_ordinals[t]: s
                for t, s in expected.start_us.items()}
            assert starts_by_ordinal == expected_by_ordinal

    def test_cells_share_one_lowering_and_mutate_nothing(self):
        g = small_graph()
        compiled = compiled_for(g)
        before = simulate(g).start_us
        simulate_many(compiled, [
            CellDelta(durations={g.tasks()[0]: 100.0})])
        assert compiled_for(g) is compiled  # grid ran on the cache
        assert simulate(g).start_us == before  # baseline untouched

    def test_priority_policy_applies_per_cell(self):
        g = small_graph()
        policy = make_priority_scheduler(lambda t: t.is_comm)
        (result,) = simulate_many(compiled_for(g), [CellDelta()], policy)
        assert result.start_us == simulate(g, policy).start_us

    def test_foreign_task_raises(self):
        g = small_graph()
        stranger = make_task("stranger", cpu_thread(0), 1.0)
        with pytest.raises(SimulationError, match="outside the compiled"):
            simulate_many(compiled_for(g),
                          [CellDelta(durations={stranger: 1.0})])

    def test_scale_durations_builder(self):
        g = small_graph()
        gpu = [t for t in g.tasks() if t.is_gpu]
        cell = CellDelta.scale_durations(gpu, 0.25, label="gpu/4")
        assert cell.label == "gpu/4"
        assert cell.durations == {t: t.duration * 0.25 for t in gpu}
        with pytest.raises(SimulationError):
            CellDelta.scale_durations(gpu, -1.0)

    @pytest.mark.parametrize("value", [float("nan"), -5.0, float("inf")])
    @pytest.mark.parametrize("which", ["durations", "gaps"])
    def test_cell_rejects_non_finite_or_negative_override(self, which,
                                                          value):
        # on a two-task chain a NaN or negative override used to drop the
        # task out of the makespan (1.0), and inf made it inf
        g = DependencyGraph()
        g.append(make_task("a", cpu_thread(0), 1.0))
        b = g.append(make_task("b", cpu_thread(0), 2.0))
        with pytest.raises(SimulationError,
                           match=r"cell 'bad' overrides .* task 'b'"):
            CellDelta(label="bad", **{which: {b: value}})
        # zero is a valid override
        (ok,) = simulate_many(compiled_for(g),
                              [CellDelta(**{which: {b: 0.0}})])
        assert ok.makespan_us == {"durations": 1.0, "gaps": 3.0}[which]

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), -0.5])
    def test_scale_durations_rejects_non_finite_factor(self, factor):
        g = small_graph()
        with pytest.raises(SimulationError, match="must be finite"):
            CellDelta.scale_durations(g.tasks(), factor)

    def test_runner_run_cells_labels_predictions(self):
        from repro.optimizations import FusedAdam
        from repro.scenarios.runner import ScenarioRunner
        from repro.scenarios.scenario import Scenario

        runner = ScenarioRunner()
        scenario = Scenario(model="resnet50")
        session = runner.session(scenario)
        cells = [CellDelta.scale_durations(session.graph.tasks(), f,
                                           label=f"x{f}")
                 for f in (0.5, 1.0, 2.0)] + [CellDelta()]
        predictions = runner.run_cells(scenario, cells)
        assert [p.optimization for p in predictions] == ["x0.5", "x1.0",
                                                         "x2.0", "delta"]
        assert predictions[1].predicted_us == session.baseline_us
        assert predictions[3].predicted_us == session.baseline_us
        assert (predictions[0].predicted_us < predictions[1].predicted_us
                < predictions[2].predicted_us)
        # an optimization question in between leaves the cells' answers
        # unchanged, and they agree with simulate_many directly
        session.predict(FusedAdam())
        again = runner.run_cells(scenario, cells)
        assert [p.predicted_us for p in again] == \
            [p.predicted_us for p in predictions]
        direct = session.simulate_many(cells)
        assert [p.predicted_us for p in predictions] == \
            [r.makespan_us for r in direct]


class TestSatelliteRegressions:
    def test_critical_tasks_breaks_duration_ties_by_ordinal(self):
        g = DependencyGraph()
        # same duration everywhere: the ranking must come out in ordinal
        # (thread-major) order, not dict insertion or allocation order
        gpu = [g.append(make_task(f"g{i}", gpu_stream(0), 5.0,
                                  kind=TaskKind.GPU_KERNEL))
               for i in range(3)]
        cpu = [g.append(make_task(f"c{i}", cpu_thread(0), 5.0))
               for i in range(3)]
        expected = [t.name for t in cpu + gpu]  # cpu threads sort first
        for engine_result in (simulate(g), CompiledGraph.build(g).run()):
            names = [t.name for t in engine_result.critical_tasks(top=6)]
            assert names == expected
        top2 = [t.name for t in simulate(g).critical_tasks(top=2)]
        assert top2 == expected[:2]
