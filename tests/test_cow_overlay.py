"""What-if transactions: the base graph is transformed in place, then rolled back.

``with graph.overlay() as g:`` opens a journaled transaction on the graph
itself (the file keeps its name from the copy-on-write overlay this
replaced).  These tests pin the contract the what-if session relies on
(paper Section 7.1: one profile, many questions):

* inside, ``simulate`` sees the transformed graph, bit-identical to
  transforming a deep copy, on the patched base lowering (field writes
  only), the base lowering spliced with new threads (insertions on new
  threads), or a fresh uncached lowering (other structural changes);
* ``remove_many`` gives the graph that removing its tasks one by one
  gives, and rolls back as one journal record;
* on exit — also when the body raises — thread order, edge sets, task
  fields, the mutation generation and the cached lowering are exactly the
  ones from before;
* sessions built on it do not leak, keep their task references valid, and
  stay independent across threads.
"""

import gc
import re
import threading
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from helpers import naive_simulate
from test_simulator_equivalence import random_graph

from repro.analysis.session import WhatIfSession
from repro.common.errors import GraphConsistencyError
from repro.core import compiled as compiled_module
from repro.core.compiled import CellDelta, CompiledGraph, compiled_for, simulate_many
from repro.core.graph import (
    _FIELD,
    _REMOVED_MANY,
    DependencyGraph,
    _StampedTask,
)
from repro.core.simulate import make_priority_scheduler, simulate
from repro.core.task import Task, TaskKind
from repro.framework.config import TrainingConfig
from repro.framework.engine import Engine
from repro.hw.device import GPU_2080TI
from repro.hw.network import NetworkSpec
from repro.hw.topology import ClusterSpec
from repro.optimizations import (
    AutomaticMixedPrecision,
    DistributedTraining,
    FusedAdam,
    PriorityParameterPropagation,
)
from repro.optimizations.base import OptimizationModel
from repro.tracing.records import comm_channel, cpu_thread, gpu_stream


def make_task(name, thread=None, duration=1.0):
    return Task(name=name, kind=TaskKind.CPU, thread=thread or cpu_thread(0),
                duration=duration)


@pytest.fixture
def tiny_graph(tiny_trace):
    from repro.core.construction import build_graph
    return build_graph(tiny_trace)


def snapshot(graph):
    """Everything a rollback must restore, compared by identity/value."""
    return {
        "order": {t: graph.tasks_on(t) for t in graph.threads()},
        "succ": {t: set(s) for t, s in graph._succ.items()},
        "pred": {t: set(p) for t, p in graph._pred.items()},
        "unordered": set(graph._unordered),
        "fields": {t: dict(t.__dict__) for t in graph.tasks()},
        "generation": graph._generation,
        "compiled": graph._compiled,
    }


def assert_restored(graph, before):
    after = snapshot(graph)
    for key in ("order", "succ", "pred", "unordered", "fields",
                "generation"):
        assert after[key] == before[key], key
    assert after["compiled"] is before["compiled"]
    graph.validate()


class TestOverlayIsolation:
    def test_structural_mutation_never_touches_base(self):
        g = DependencyGraph()
        a = g.append(make_task("a"))
        b = g.append(make_task("b", thread=gpu_stream(0)))
        g.add_dependency(a, b)
        with g.overlay() as working:
            assert working is g
            working.remove(b)
            working.insert_after(a, make_task("x"))
            working.add_dependency(working.tasks()[0], working.tasks()[1])
            working.validate()
        assert len(g) == 2
        assert b in g
        assert g.successors(a) == {b}
        assert g.tasks() == [a, b]
        g.validate()

    def test_base_resimulates_identically_after_heavy_overlay_mutation(
            self, tiny_graph):
        baseline = simulate(tiny_graph).makespan_us
        with tiny_graph.overlay() as working:
            for task in working.select(lambda t: t.is_gpu):
                task.scale_duration(0.25)
            for task in list(working.iter_tasks_on(cpu_thread(0)))[::3]:
                working.remove(task)
            assert simulate(working).makespan_us != baseline
        assert simulate(tiny_graph).makespan_us == baseline
        tiny_graph.validate()

    def test_retained_overlay_survives_new_overlay(self, tiny_trace):
        """A ``predict_simulation`` graph is the caller's own deep copy:
        later questions on the session never reach it."""
        session = WhatIfSession.from_trace(tiny_trace)
        graph, result = session.predict_simulation(AutomaticMixedPrecision())
        retained = simulate(graph).makespan_us
        assert retained == result.makespan_us
        assert not set(graph.tasks()) & set(session.graph.tasks())
        session.predict(FusedAdam())
        session.predict(AutomaticMixedPrecision())
        assert simulate(graph).makespan_us == retained
        graph.validate()
        session.graph.validate()


class TestJournal:
    def test_transaction_is_the_graph_and_does_not_nest(self, tiny_graph):
        with tiny_graph.overlay() as working:
            assert working is tiny_graph
            with pytest.raises(GraphConsistencyError):
                with tiny_graph.overlay():
                    pass
        with tiny_graph.overlay():  # closed: a new one opens
            pass

    def test_exit_restores_structure_fields_generation_and_lowering(
            self, tiny_graph):
        simulate(tiny_graph)
        before = snapshot(tiny_graph)
        kernel = next(t for t in tiny_graph.tasks() if t.is_gpu)
        with tiny_graph.overlay() as working:
            kernel.duration = 1.0
            kernel.duration = 2.0  # every write inside is journaled
            kernel.priority = 3
            working.remove(working.tasks()[0], rewire=False)
            working.mark_unordered(gpu_stream(0))
            working.append(make_task("late", thread=comm_channel(3)))
        assert_restored(tiny_graph, before)
        assert "_sim_stamp" in kernel.__dict__  # barrier re-armed
        assert type(kernel) is _StampedTask

    def test_rollback_on_exception(self, tiny_graph):
        simulate(tiny_graph)
        before = snapshot(tiny_graph)
        with pytest.raises(RuntimeError, match="boom"):
            with tiny_graph.overlay() as working:
                for task in working.select(lambda t: t.is_gpu):
                    task.duration = 0.0
                working.remove(working.tasks()[3])
                raise RuntimeError("boom")
        assert_restored(tiny_graph, before)

    def test_field_writes_patch_the_base_lowering(self, tiny_graph,
                                                 monkeypatch):
        base = compiled_for(tiny_graph)
        reference = tiny_graph.copy()
        for task in reference.select(lambda t: t.is_gpu):
            task.scale_duration(0.5)
        builds = []
        original = CompiledGraph.build.__func__
        monkeypatch.setattr(CompiledGraph, "build", classmethod(
            lambda cls, graph: builds.append(graph) or original(cls, graph)))
        with tiny_graph.overlay() as working:
            for task in working.select(lambda t: t.is_gpu):
                task.scale_duration(0.5)
            result = simulate(working)
        assert builds == []  # no lowering: the base columns were patched
        expected = simulate(reference)
        assert result.makespan_us == expected.makespan_us
        assert list(result.start_us.values()) == \
            list(expected.start_us.values())
        assert tiny_graph._compiled is base

    def test_write_to_a_detached_task_is_journaled_not_simulated(
            self, tiny_graph):
        compiled_for(tiny_graph)
        detached = tiny_graph.tasks()[-1]
        tiny_graph.remove(detached)  # keeps the old lowering's stamp
        expected = simulate(tiny_graph).makespan_us
        duration = detached.duration
        with tiny_graph.overlay():
            detached.duration = duration + 100.0
            assert simulate(tiny_graph).makespan_us == expected
        assert detached.duration == duration

    def test_structural_change_relowers_without_caching(self, tiny_graph):
        base = compiled_for(tiny_graph)
        with tiny_graph.overlay() as working:
            working.remove(working.tasks()[0])
            first = simulate(working)
            assert working._compiled is base  # nothing cached in flight
            assert compiled_for(working) is not base
            assert simulate(working).start_us == first.start_us
        assert tiny_graph._compiled is base
        assert compiled_for(tiny_graph) is base


THREADS = (cpu_thread(0), gpu_stream(0), gpu_stream(1), comm_channel(0),
           comm_channel(1))
#: positions in THREADS of threads ``random_graph`` never draws
NEW_THREADS = (2, 4)

_index = st.integers(min_value=0, max_value=10_000)
_value = st.floats(min_value=0.0, max_value=10.0)
_write = st.tuples(st.sampled_from(["duration", "gap", "priority"]), _index,
                   _value)
_append = st.tuples(st.just("append"), st.sampled_from(range(len(THREADS))),
                    _value)
_append_new = st.tuples(st.just("append"), st.sampled_from(NEW_THREADS),
                        _value)
_insert = st.tuples(st.sampled_from(["insert_after", "insert_before"]),
                    _index, _value)
_add_edge = st.tuples(st.just("add_edge"), _index, _index)
_op = st.one_of(
    _write,
    _append,
    _insert,
    st.tuples(st.just("remove"), _index, st.booleans()),
    st.tuples(st.just("remove_many"), st.lists(_index, max_size=4),
              st.booleans()),
    st.tuples(st.sampled_from(["add_edge", "remove_edge"]), _index, _index),
    st.tuples(st.just("unordered"), st.sampled_from(range(len(THREADS))),
              _value),
)
_unordered_new = st.tuples(st.just("unordered"), st.sampled_from(NEW_THREADS),
                           _value)
#: field writes, edges, and tasks appended on (or order dropped from) new
#: threads only: this takes the splice path
_splice_script = st.lists(
    st.one_of(_write, _append_new, _add_edge, _unordered_new),
    min_size=1, max_size=12)
#: a field-writes-only script takes the column-patch path, an insert-only
#: one the splice path when every insertion lands on a new thread;
#: anything else relowers
_script = st.one_of(
    st.lists(_write, max_size=12),
    _splice_script,
    st.lists(st.one_of(_write, _append_new, _append, _insert, _add_edge),
             min_size=1, max_size=12),
    st.lists(_op, max_size=12),
)


def _reaches(graph, src, dst):
    """Whether ``dst`` is reachable from ``src`` (edges + thread order)."""
    seen, stack = set(), [src]
    while stack:
        task = stack.pop()
        if task is dst:
            return True
        if task in seen:
            continue
        seen.add(task)
        stack.extend(graph.successors(task))
        if graph.is_ordered(task.thread):
            nxt = graph.thread_successor(task)
            if nxt is not None:
                stack.append(nxt)
    return False


def run_script(graph, script):
    """Apply a drawn mutation script; tasks are picked by position, so the
    same script does the same thing to a graph and to its deep copy."""
    for step, (op, a, b) in enumerate(script):
        tasks = graph.tasks()
        if op == "append":
            graph.append(Task(name=f"new{step}", kind=TaskKind.CPU,
                              thread=THREADS[a], duration=b))
            continue
        if op == "unordered":
            graph.mark_unordered(THREADS[a])
            continue
        if not tasks:
            continue
        if op == "remove_many":
            graph.remove_many([tasks[i % len(tasks)] for i in a], rewire=b)
            continue
        task = tasks[a % len(tasks)]
        if op in ("duration", "gap"):
            setattr(task, op, b)
        elif op == "priority":
            task.priority = int(b)
        elif op == "insert_after":
            graph.insert_after(task, Task(name=f"new{step}", kind=TaskKind.CPU,
                                          thread=task.thread, duration=b))
        elif op == "insert_before":
            graph.insert_before(task, Task(name=f"new{step}",
                                           kind=TaskKind.CPU,
                                           thread=task.thread, duration=b))
        elif op == "remove":
            graph.remove(task, rewire=b)
        else:
            other = tasks[b % len(tasks)]
            if op == "remove_edge":
                graph.remove_dependency(task, other)
            elif (task.thread != other.thread
                    and not _reaches(graph, other, task)):
                graph.add_dependency(task, other)


def _prioritized(task):
    return task.is_comm


def _assert_matches_reference(graph, reference):
    """``graph`` simulates like the naive engine on ``reference``, task for
    task by thread-major position, under both schedules."""
    ours, theirs = graph.tasks(), reference.tasks()
    assert len(ours) == len(theirs)
    for result, (ref_start, ref_makespan, _) in (
            (simulate(graph), naive_simulate(reference)),
            (simulate(graph, make_priority_scheduler(_prioritized)),
             naive_simulate(reference, key=lambda t: (
                 -float(t.priority) if _prioritized(t) else 0.0)))):
        assert result.makespan_us == ref_makespan
        assert [result.start_us[t] for t in ours] == \
            [ref_start[t] for t in theirs]


class Abort(Exception):
    pass


@settings(max_examples=120, deadline=None)
@given(random_graph(), _script, st.integers(min_value=0, max_value=12))
def test_transaction_matches_copy_and_rolls_back(g, script, abort_at):
    simulate(g)  # warm base lowering
    reference = g.copy()
    before = snapshot(g)
    with g.overlay() as working:
        run_script(working, script)
        run_script(reference, script)
        working.validate()
        _assert_matches_reference(working, reference)
    assert_restored(g, before)

    # the same holds when the script raises partway through
    with pytest.raises(Abort):
        with g.overlay() as working:
            run_script(working, script[:abort_at])
            raise Abort
    assert_restored(g, before)


def _structure(graph):
    """Thread order, edges, counts, heads and tails, by task name (the
    names ``random_graph`` draws are unique)."""
    return {
        "order": {th: [t.name for t in graph.iter_tasks_on(th)]
                  for th in graph.threads()},
        "edges": {(a.name, b.name) for a in graph.tasks()
                  for b in graph.successors(a)},
        "counts": dict(graph._counts),
        "heads": {th: t.name for th, t in graph._heads.items()},
        "tails": {th: t.name for th, t in graph._tails.items()},
    }


def _model_remove(model, name, rewire):
    """Remove one task from a ``_structure`` model, independently of the
    graph code: splice its thread list, rewire preds x succs."""
    for thread, names in list(model["order"].items()):
        if name in names:
            names.remove(name)
            if names:
                model["counts"][thread] = len(names)
                model["heads"][thread] = names[0]
                model["tails"][thread] = names[-1]
            else:
                for key in ("order", "counts", "heads", "tails"):
                    del model[key][thread]
    edges = model["edges"]
    preds = {a for a, b in edges if b == name}
    succs = {b for a, b in edges if a == name}
    edges -= {(a, b) for a, b in edges if name in (a, b)}
    if rewire:
        edges |= {(p, q) for p in preds for q in succs if p != q}


@settings(max_examples=150, deadline=None)
@given(random_graph(), st.lists(st.booleans(), min_size=1, max_size=30),
       st.booleans(), st.randoms(use_true_random=False))
def test_remove_many_matches_sequential_removes(g, picks, rewire, rnd):
    tasks = g.tasks()
    # a drawn subset, often large enough to hold explicit chains of
    # removed tasks; its first task listed twice
    doomed = [t for i, t in enumerate(tasks) if picks[i % len(picks)]]
    doomed += doomed[:1]
    simulate(g)
    before = snapshot(g)

    # rollback restores the graph exactly, also when the body raises
    with g.overlay() as working:
        working.remove_many(doomed, rewire)
        working.validate()
        assert sum(1 for k in working._journal if k == _REMOVED_MANY) == 1
    assert_restored(g, before)
    with pytest.raises(Abort):
        with g.overlay() as working:
            working.remove_many(doomed, rewire)
            raise Abort
    assert_restored(g, before)

    # the same graph as removing one at a time, in any order, on a copy
    # and in an independent model
    reference = g.copy()
    clone_of = {t.name: t for t in reference.tasks()}
    one_by_one = list(dict.fromkeys(doomed))
    rnd.shuffle(one_by_one)
    model = _structure(g)
    for task in one_by_one:
        reference.remove(clone_of[task.name], rewire)
        _model_remove(model, task.name, rewire)
    g.remove_many(doomed, rewire)
    g.validate()
    assert _structure(g) == _structure(reference) == model


def test_remove_many_rejects_unknown_and_removed_tasks_untouched():
    g = DependencyGraph()
    a = g.append(make_task("a"))
    b = g.append(make_task("b", thread=gpu_stream(0)))
    c = g.append(make_task("c"))
    g.add_dependency(a, b)
    g.remove(c)
    stranger = make_task("stranger")
    simulate(g)
    before = snapshot(g)
    for bad in ([a, stranger], [b, c]):
        with pytest.raises(GraphConsistencyError, match="not in graph"):
            g.remove_many(bad)
        assert_restored(g, before)
        with g.overlay() as working:
            with pytest.raises(GraphConsistencyError):
                working.remove_many(bad)
            assert working._journal == []
        assert_restored(g, before)


def _assert_same_run(result, ours, expected, theirs):
    """Two runs agree task for task by thread-major position: values,
    iteration order, ordinal ranks and the critical-task ranking."""
    pos_ours = {t: i for i, t in enumerate(ours)}
    pos_theirs = {t: i for i, t in enumerate(theirs)}
    assert result.makespan_us == expected.makespan_us
    assert [pos_ours[t] for t in result.start_us] == \
        [pos_theirs[t] for t in expected.start_us]
    assert list(result.start_us.values()) == list(expected.start_us.values())
    assert list(result.thread_busy.items()) == \
        list(expected.thread_busy.items())
    assert [result.ordinals[t] for t in ours] == \
        [expected.ordinals[t] for t in theirs]
    top = len(ours)
    assert [pos_ours[t] for t in result.critical_tasks(top)] == \
        [pos_theirs[t] for t in expected.critical_tasks(top)]


@settings(max_examples=120, deadline=None)
@given(random_graph(), _splice_script)
def test_splice_equals_a_fresh_lowering(g, script):
    simulate(g)  # warm base lowering
    spliced = []
    real_splice = compiled_module._splice

    def splice(*args):
        spliced.append(real_splice(*args))
        return spliced[-1]

    with g.overlay() as working:
        run_script(working, script)
        reference = working.copy()
        for policy in (None, make_priority_scheduler(_prioritized)):
            with mock.patch.object(CompiledGraph, "build", side_effect=
                                   AssertionError("relowered")), \
                    mock.patch.object(compiled_module, "_splice", splice):
                result = simulate(working, policy)
            expected = CompiledGraph.build(reference).run(policy)
            _assert_same_run(result, working.tasks(), expected,
                             reference.tasks())
    # the spliced successor CSR, and the array views derived from it,
    # equal a fresh lowering's
    fresh = CompiledGraph.build(reference)
    for ours in spliced:
        for name in ("_succ_indptr_l", "_succ_indices_l"):
            assert getattr(ours, name) == getattr(fresh, name)
        for name in ("succ_indptr", "succ_indices", "pred_indptr",
                     "pred_indices"):
            assert list(getattr(ours, name)) == list(getattr(fresh, name))


def _lowered_columns(compiled):
    return (list(compiled.duration), list(compiled.gap),
            list(compiled.indegree))


def _assert_lowering_fresh(graph):
    """The cached lowering equals a from-scratch one.  The reference
    lowers a deep copy (ordinals are thread-major by position, so columns
    line up), which leaves the graph's own write stamps untouched."""
    assert _lowered_columns(compiled_for(graph)) == \
        _lowered_columns(CompiledGraph.build(graph.copy()))


def _reachable_count(graph):
    """Tasks a Kahn pass over edges and ordered thread links can reach."""
    tasks = graph.tasks()
    indeg = {t: len(graph.predecessors(t)) for t in tasks}
    for t in tasks:
        nxt = graph.thread_successor(t)
        if nxt is not None and graph.is_ordered(t.thread):
            indeg[nxt] += 1
    ready = [t for t in tasks if indeg[t] == 0]
    seen = 0
    while ready:
        t = ready.pop()
        seen += 1
        children = list(graph.successors(t))
        nxt = graph.thread_successor(t)
        if nxt is not None and graph.is_ordered(t.thread):
            children.append(nxt)
        for c in children:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
    return seen


_step = st.one_of(
    st.tuples(st.just("lower"), st.just([]), st.just(False)),
    st.tuples(st.just("write"), st.lists(_write, max_size=6),
              st.just(False)),
    st.tuples(st.just("mutate"), st.lists(_op, max_size=6), st.just(False)),
    st.tuples(st.just("transaction"), _script, st.booleans()),
)


@settings(max_examples=150, deadline=None)
@given(random_graph(), st.lists(_step, min_size=1, max_size=8))
def test_cached_lowering_is_never_stale(g, steps):
    """Random interleavings of lowering, plain field writes, structural
    mutations and (sometimes aborted) transactions never leave
    ``compiled_for`` holding a stale lowering."""
    for kind, script, abort in steps:
        if kind == "lower":
            compiled_for(g)
        elif kind == "transaction":
            try:
                with g.overlay() as working:
                    run_script(working, script)
                    _assert_lowering_fresh(working)
                    if abort:
                        raise Abort
            except Abort:
                pass
        else:
            run_script(g, script)
        _assert_lowering_fresh(g)
    g.validate()

    # an injected cycle still fails validation, with the same message
    a = g.append(Task(name="a", kind=TaskKind.CPU, thread=cpu_thread(0),
                      duration=1.0))
    b = next((t for t in g.tasks() if t.thread != a.thread), None)
    if b is None:
        b = g.append(Task(name="b", kind=TaskKind.COMM,
                          thread=comm_channel(5), duration=1.0))
    g.add_dependency(a, b)
    g.add_dependency(b, a)
    expected = (f"dependency cycle: only {_reachable_count(g)} of {len(g)} "
                "tasks are reachable")
    with pytest.raises(GraphConsistencyError, match=re.escape(expected)):
        g.validate()


class TestCowSession:
    @pytest.fixture
    def session(self, tiny_model):
        trace = Engine(model=tiny_model,
                       config=TrainingConfig()).run_iteration()
        return WhatIfSession.from_trace(trace)

    def test_predictions_match_deep_copy_sessions(self, session):
        cluster = ClusterSpec(2, 2, GPU_2080TI, NetworkSpec(bandwidth_gbps=10))
        reference = WhatIfSession.from_trace(session.trace, session.config)
        for optimization, cl in [(FusedAdam(), None),
                                 (AutomaticMixedPrecision(), None),
                                 (DistributedTraining(), cluster)]:
            journaled = session.predict(optimization, cluster=cl)
            outcome = optimization.apply(reference.graph.copy(),
                                         reference.context(cl))
            deep = simulate(outcome.graph, outcome.scheduler)
            assert journaled.predicted_us == deep.makespan_us
            assert journaled.baseline_us == reference.baseline_us

    def test_baseline_and_breakdown_stable_across_questions(self, session):
        baseline = session.baseline_us
        breakdown = session.breakdown().as_row()
        session.predict(FusedAdam())
        session.predict(AutomaticMixedPrecision())
        assert session.baseline_us == baseline
        assert session.breakdown().as_row() == breakdown
        assert simulate(session.graph).makespan_us == baseline

    def test_warm_predicts_do_not_grow_the_heap(self, session):
        questions = [AutomaticMixedPrecision(), FusedAdam()]
        for question in questions:  # warm every lazily built cache
            session.predict(question)
        gc.collect()
        before = len(gc.get_objects())
        for i in range(30):
            session.predict(questions[i % 2])
        gc.collect()
        assert len(gc.get_objects()) - before <= 5

    def test_cell_delta_survives_predicts(self, session):
        gpu = [t for t in session.graph.tasks() if t.is_gpu]
        cell = CellDelta.scale_durations(gpu, 0.5, label="half")
        (expected,) = session.simulate_many([cell])
        for _ in range(3):
            session.predict(AutomaticMixedPrecision())
            session.predict(FusedAdam())
        (again,) = session.simulate_many([cell])
        (direct,) = simulate_many(session.compiled_baseline(), [cell])
        assert again.makespan_us == expected.makespan_us
        assert direct.makespan_us == expected.makespan_us

    def test_warm_insert_only_questions_do_not_relower(self, session,
                                                       monkeypatch):
        """DDP and AMP+DDP only add an all-reduce channel and its edges,
        P3 two unordered push/pull channels: they simulate on the spliced
        base lowering, and agree with a deep copy lowered from scratch."""
        from repro.scenarios.pipeline import OptimizationPipeline

        cluster = ClusterSpec(2, 2, GPU_2080TI, NetworkSpec(bandwidth_gbps=10))
        questions = [DistributedTraining(),
                     OptimizationPipeline([AutomaticMixedPrecision(),
                                           DistributedTraining()]),
                     PriorityParameterPropagation()]
        expected = []
        for question in questions:
            outcome = question.apply(session.graph.copy(),
                                     session.context(cluster))
            expected.append(simulate(outcome.graph,
                                     outcome.scheduler).makespan_us)
        session.baseline_result  # the warm base lowering
        builds = []
        original = CompiledGraph.build.__func__
        monkeypatch.setattr(CompiledGraph, "build", classmethod(
            lambda cls, graph: builds.append(graph) or original(cls, graph)))
        answers = [session.predict(q, cluster=cluster).predicted_us
                   for q in questions]
        assert builds == []
        assert answers == expected

    def test_fused_adam_removal_is_one_journal_record(self, session):
        graph = session.graph
        session.baseline_result
        with graph.overlay() as working:
            FusedAdam().apply(working, session.context())
            journal = working._journal
            kinds = []
            i = len(journal) - 1
            while i >= 0:
                kinds.append(journal[i])
                i -= 4 if journal[i] == _FIELD else 7
            assert i == -1
        assert kinds.count(_REMOVED_MANY) == 1
        assert set(kinds) == {_FIELD, _REMOVED_MANY}

    def test_raising_model_leaves_baseline_and_next_prediction(
            self, session):
        class Raising(OptimizationModel):
            name = "raising"

            def apply(self, graph, context):
                for task in graph.select(lambda t: t.is_gpu):
                    task.scale_duration(0.1)
                graph.remove(graph.tasks()[0])
                raise RuntimeError("model failed midway")

        baseline = session.baseline_us
        expected = session.predict(AutomaticMixedPrecision()).predicted_us
        with pytest.raises(RuntimeError, match="midway"):
            session.predict(Raising())
        assert session.baseline_us == baseline
        assert simulate(session.graph).makespan_us == baseline
        assert (session.predict(AutomaticMixedPrecision()).predicted_us
                == expected)
        session.graph.validate()


def test_concurrent_sessions_match_serial(tiny_trace):
    cluster = ClusterSpec(2, 2, GPU_2080TI, NetworkSpec(bandwidth_gbps=10))
    questions = [(AutomaticMixedPrecision(), None), (FusedAdam(), None),
                 (DistributedTraining(), cluster)]
    sessions = [WhatIfSession.from_trace(tiny_trace) for _ in range(2)]
    serial = [[s.predict(q, cluster=c).predicted_us for q, c in questions]
              for s in sessions]
    barrier = threading.Barrier(len(sessions))
    answers = [[] for _ in sessions]
    errors = []

    def worker(i):
        try:
            barrier.wait()
            for _ in range(10):
                answers[i].append([sessions[i].predict(q, cluster=c)
                                   .predicted_us for q, c in questions])
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(len(sessions))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    for i, session in enumerate(sessions):
        assert answers[i] == [serial[i]] * 10
        session.graph.validate()
