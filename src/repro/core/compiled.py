"""Compiled simulation core: struct-of-arrays lowering + array engine.

Walking the object graph per dispatched task means Python attribute
lookups and dict probes in the hot loop.  This module lowers a
:class:`~repro.core.graph.DependencyGraph` once into flat, densely indexed
arrays and runs Algorithm 1 over integers — the one engine behind every
``simulate()``:

* **stable ordinals** — every task gets a dense ordinal assigned
  thread-major (threads in sorted order, tasks in linked-list order
  within each thread).  Ordinals are a pure function of the graph *data*,
  never of allocation addresses, and the engine breaks feasible-start
  ties on them — which is what makes simulation results
  allocation-independent (the historical fig10 "last-ulp tie" drift came
  from ``id()``-ordered successor-set iteration);
* **struct-of-arrays** — per-ordinal ``duration`` / ``gap`` /
  ``thread_idx`` float/int columns plus a flat CSR successor table (one
  ``indptr`` and one ``indices`` list, no list per task), from which the
  predecessor CSR is derived.  Lowering builds plain lists, which the hot
  loop runs over (CPython indexes lists faster than it unboxes numpy
  scalars); the array views — numpy when available and stdlib
  ``array.array`` otherwise, so the dependency stays soft — are derived
  from them on first access;
* **the array engine** — a worklist when every thread is ordered, and
  otherwise exact per-thread dispatch: one global heap with at most one
  live ``(feasible_start, policy_key, ordinal)`` candidate per thread,
  each thread's own argmin (see :func:`_run_arrays` for the invariant and
  why it is exact), O((N + E) log N).  No Task object is touched and no
  per-task container allocated: the run yields a starts column and the
  makespan, and the ``SimulationResult`` reads them through lazy views
  (``start_us``, ``thread_busy``), so a warm query leaves the garbage
  collector almost nothing to count;
* **batched multi-simulate** — :func:`simulate_many` amortizes the
  lowering across every cell of a what-if grid that shares a baseline:
  each :class:`CellDelta` patches sparse per-task duration/gap overrides
  onto copies of the baseline arrays and re-runs only the engine loop.

Invalidation contract (see ``docs/perf.md``): a compiled graph is cached
on its ``DependencyGraph`` keyed by the graph's mutation generation.
Structural mutations (append/insert/remove/edges/``mark_unordered``) bump
the generation directly; in-place ``Task`` field writes bump it through
the write stamp the lowering pass leaves on each task.  Only lowered tasks
pay for that barrier: the pass turns each plain ``Task`` into the stamped
subclass ``repro.core.graph._StampedTask``, whose ``__setattr__`` consults
the stamp before the write lands; unlowered tasks write plainly.  A stale
cache is therefore impossible — at worst a conservative bump forces one
redundant relowering.  Inside an open what-if transaction
(``DependencyGraph.overlay``) nothing is cached, and closing the
transaction restores the base lowering together with the generation.
:func:`simulate_transacted` reads the transaction's journal and takes one
of three paths per run: it *patches* the base lowering's duration/gap
columns (field writes only), *splices* new threads' blocks into it (the
graph only gained threads, edges and field writes — DDP and P3
questions), or *relowers* the transacted graph (anything else: removals,
removed edges, a base thread given a task or marked unordered).
"""

import heapq
import os
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import SimulationError
from repro.core.graph import (
    _EDGE_ADDED,
    _FIELD,
    _LINKED,
    _UNORDERED,
    _StampedTask,
    _WriteStamp,
)
from repro.core.task import Task
from repro.tracing.records import ExecutionThread

if os.environ.get("REPRO_FORCE_NO_NUMPY"):  # the no-numpy CI matrix leg
    _np = None
else:
    try:
        import numpy as _np
    except ImportError:  # pragma: no cover - exercised via the env gate
        _np = None


def _float_array(values: Sequence[float]):
    """A float64 struct-of-arrays column (numpy, or ``array('d')``)."""
    if _np is not None:
        return _np.asarray(values, dtype=_np.float64)
    return array("d", values)


def _int_array(values: Sequence[int]):
    """A signed index column (numpy int64, or ``array('q')``)."""
    if _np is not None:
        return _np.asarray(values, dtype=_np.int64)
    return array("q", values)


_INF = float("inf")

def _succ_row(succs, ordinal: Dict[Task, int]) -> List[int]:
    """One CSR row: the ordinals of a task's explicit successors, sorted."""
    # non-empty adjacency rows are overwhelmingly single-element;
    # specializing that size skips most of the sort calls
    if len(succs) == 1:
        (s,) = succs
        return [ordinal[s]]
    return sorted([ordinal[s] for s in succs])


@dataclass
class CompiledGraph:
    """A dependency graph lowered to flat arrays, ready for the array engine.

    Attributes (all task columns are indexed by stable ordinal):
        tasks: ordinal → Task (for result assembly only).
        ordinal: Task → ordinal.
        threads / ordered: dense thread table and per-thread order flags.
        generation: the graph mutation generation this lowering captured.

    The engine reads plain-list columns (CPython list indexing beats both
    numpy scalar unboxing and ``array.array`` getitem); the array views
    are derived from them on first access, so lowering never pays for
    them:
        duration / gap: float64 columns.
        thread_idx / tnext: dense thread index of each task, and the
            ordinal of its thread successor (−1 when the thread is
            unordered or the task is last on its thread).
        indegree: explicit predecessors + 1 for a gated thread
            predecessor — the simulator's initial reference counts.
        succ_indptr / succ_indices: the CSR explicit-successor table
            (``indices[indptr[i]:indptr[i + 1]]`` are task ``i``'s
            successors, sorted by ordinal).
        pred_indptr / pred_indices: CSR explicit-predecessor lists.
    """

    tasks: List[Task]
    ordinal: Dict[Task, int]
    threads: List[ExecutionThread]
    ordered: List[bool]
    _duration_l: List[float] = field(repr=False)
    _gap_l: List[float] = field(repr=False)
    _thread_idx_l: List[int] = field(repr=False)
    _tnext_l: List[int] = field(repr=False)
    _indegree_l: List[int] = field(repr=False)
    _succ_indptr_l: List[int] = field(repr=False)
    _succ_indices_l: List[int] = field(repr=False)
    generation: int = 0

    def __len__(self) -> int:
        return len(self.tasks)

    @classmethod
    def build(cls, graph) -> "CompiledGraph":
        """Lower ``graph`` to struct-of-arrays form.  O(N + E)."""
        threads = graph.threads()
        ordered = [graph.is_ordered(t) for t in threads]

        # one linked-list walk per thread assigns ordinals, reads every
        # per-task field, and leaves the write stamp (turning each plain
        # Task into a _StampedTask); within a thread ordinals are
        # consecutive, so an ordered thread's successor link is simply
        # ``i + 1``.  A graph inside an open transaction is not
        # stamped: its base tasks still carry the stamp that journals their
        # writes, and the lowering is never cached
        stamp = _WriteStamp(graph) if graph._journal is None else None
        tasks: List[Task] = []
        ordinal: Dict[Task, int] = {}
        duration: List[float] = []
        gap: List[float] = []
        thread_idx: List[int] = []
        tnext: List[int] = []
        indegree: List[int] = []
        nxt_link = graph._next
        heads = graph._heads
        pred = graph._pred
        append = tasks.append
        for ti, thread in enumerate(threads):
            is_ordered = ordered[ti]
            task = heads.get(thread)
            first = True
            i = len(tasks)
            while task is not None:
                ordinal[task] = i
                append(task)
                d = task.__dict__
                if stamp is not None:
                    d["_sim_stamp"] = stamp
                    # assigning __class__ on an already stamped task
                    # would go through the barrier
                    if task.__class__ is Task:
                        task.__class__ = _StampedTask
                duration.append(d["duration"])
                gap.append(d["gap"])
                thread_idx.append(ti)
                deg = len(pred[task])
                if is_ordered and not first:
                    deg += 1
                indegree.append(deg)
                first = False
                i += 1
                task = nxt_link[task]
                tnext.append(i if is_ordered and task is not None else -1)
        # the successor CSR, once every ordinal is known
        succ = graph._succ
        indptr = [0]
        indices: List[int] = []
        mark = indptr.append
        for task in tasks:
            succs = succ[task]
            if succs:
                indices += _succ_row(succs, ordinal)
            mark(len(indices))
        return cls(tasks, ordinal, threads, ordered, duration, gap,
                   thread_idx, tnext, indegree, indptr, indices,
                   getattr(graph, "_generation", 0))

    # ------------------------------------------------------- derived columns

    # the array views (see the class docstring), each built once
    duration = cached_property(lambda self: _float_array(self._duration_l))
    gap = cached_property(lambda self: _float_array(self._gap_l))
    thread_idx = cached_property(lambda self: _int_array(self._thread_idx_l))
    tnext = cached_property(lambda self: _int_array(self._tnext_l))
    indegree = cached_property(lambda self: _int_array(self._indegree_l))

    succ_indptr = cached_property(lambda self: _int_array(self._succ_indptr_l))
    succ_indices = cached_property(
        lambda self: _int_array(self._succ_indices_l))
    pred_indptr = property(lambda self: self._pred_csr[0])
    pred_indices = property(lambda self: self._pred_csr[1])

    @cached_property
    def _pred_csr(self) -> Tuple[object, object]:
        """Transpose the successor CSR into the predecessor CSR.  O(N + E).

        Rows come out ordinal-sorted automatically because the outer loop
        visits sources in ordinal order.
        """
        n = len(self.tasks)
        sp = self._succ_indptr_l
        si = self._succ_indices_l
        counts = [0] * (n + 1)
        for c in si:
            counts[c + 1] += 1
        counts = list(accumulate(counts))
        indices = [0] * counts[n]
        cursor = counts[:]
        for i in range(n):
            for k in range(sp[i], sp[i + 1]):
                c = si[k]
                indices[cursor[c]] = i
                cursor[c] += 1
        return _int_array(counts), _int_array(indices)

    # ----------------------------------------------------------- simulation

    def policy_keys(self, policy) -> Optional[List[float]]:
        """Per-ordinal secondary sort keys for a ``SchedulePolicy``.

        ``None`` means every key is 0.0 (no policy, or the default one),
        letting the engine fill the column with zeros.

        Raises:
            TypeError: if ``policy`` is neither ``None`` nor a
                ``SchedulePolicy``, or if its ``key`` returns anything but
                an ``int`` or ``float`` (``bool`` counts as ``int``) or
                returns NaN — either would leave dispatch order undefined.
        """
        from repro.core.simulate import SchedulePolicy
        if policy is None or type(policy) is SchedulePolicy:
            return None
        if not isinstance(policy, SchedulePolicy):
            raise TypeError(
                f"scheduler must be a SchedulePolicy, got {policy!r}; "
                "subclass repro.core.simulate.SchedulePolicy and override "
                "key(task) to reorder dispatch")
        key = policy.key
        keys = [key(task) for task in self.tasks]
        # fast path: only plain numbers, and a NaN-free sum (any NaN makes
        # the sum NaN); anything else is checked key by key
        if set(map(type, keys)) <= {int, float, bool}:
            try:
                total = sum(keys)
            except OverflowError:  # a huge int beside floats
                total = None
            if total == total:
                return keys
        for task, k in zip(self.tasks, keys):
            if not isinstance(k, (int, float)) or k != k:
                raise TypeError(
                    f"{type(policy).__name__}.key returned {k!r} for task "
                    f"{task.name!r}; a schedule key must be an int or a "
                    "float, and not NaN")
        return keys

    def run(self, policy=None,
            duration: Optional[List[float]] = None,
            gap: Optional[List[float]] = None):
        """Run Algorithm 1 over the arrays; returns a SimulationResult.

        ``duration``/``gap`` override the baseline columns (plain lists,
        ordinal-indexed) — this is how :func:`simulate_many` re-runs the
        engine under a cell's sparse delta without re-lowering.  A
        ``policy`` that is not a ``SchedulePolicy`` raises ``TypeError``.
        """
        from repro.core.simulate import (
            SimulationResult,
            _StartTimes,
            _ThreadBusy,
        )
        pkeys = self.policy_keys(policy)
        duration = duration if duration is not None else self._duration_l
        starts, makespan = _run_arrays(
            len(self.tasks), duration,
            gap if gap is not None else self._gap_l,
            self._thread_idx_l, self._tnext_l, self._indegree_l,
            self._succ_indptr_l, self._succ_indices_l, len(self.threads),
            pkeys, self.ordered,
        )
        return SimulationResult(
            start_us=_StartTimes(self.tasks, self.ordinal, starts),
            makespan_us=makespan,
            ordinals=self.ordinal,
            thread_busy=_ThreadBusy(self.threads, self.ordered,
                                    self._thread_idx_l, starts, duration),
        )


def _run_arrays(n: int, dur: List[float], gap: List[float],
                thread_idx: List[int], tnext: List[int],
                indegree: List[int], sp: List[int], si: List[int],
                n_threads: int, pkeys: Optional[List[float]],
                ordered: Sequence[bool]) -> Tuple[List[float], float]:
    """The array engine inner loop: integer entries, no Task objects.

    Each step dispatches the argmin, over dispatchable tasks, of
    ``(max(thread progress, ready), policy key, ordinal)`` (keys are 0.0
    without a policy).  Ordinals are unique, so the order is total and a
    pure function of the graph data.  Returns the per-ordinal starts and
    the makespan; ``sp``/``si`` are the successor CSR's indptr/indices.
    The loop allocates no per-task container: a thread's busy intervals
    are derived from the starts afterwards (see ``SimulationResult``).

    When every thread is *ordered* (``ordered`` holds per-thread flags)
    there is no heap: a task's start is ``max(thread progress, ready)``
    and both are final by the time its last predecessor executes — the
    chain edge pins each thread's dispatch order, so a plain worklist
    computes the identical fixpoint (same starts and makespan).

    Otherwise one loop runs *per-thread dispatch*: a global heap holds
    ``(feasible, key, ordinal, version)`` entries, and each thread has at
    most one live candidate in it — its own argmin.

    * An ordered thread has at most one dispatchable task, and the
      thread's progress is final when that task is released, so its entry
      is pushed once and never goes stale.
    * An unordered thread keeps an *arrived* heap ``(key, ordinal)`` of
      tasks with ``ready <= progress`` and a *pending* heap
      ``(ready, key, ordinal)`` of the rest.  Every arrived task would
      start at ``progress`` and every pending one later, so the argmin is
      the arrived top, else the pending top.  After each dispatch, every
      thread it touched (ran on, or released a task to) is re-stamped:
      arrived tasks move over, the version is bumped and the one
      candidate pushed; a popped entry of an older version is skipped.

    The global top is therefore exactly the argmin above, ties included.
    A dispatch re-stamps at most one candidate per touched thread and each
    task changes heaps at most once, so a run is O((N + E) log N).
    """
    indeg = indegree[:]
    ready = [0.0] * n
    starts = [0.0] * n
    progress = [0.0] * n_threads
    executed = 0
    makespan = 0.0
    push = heapq.heappush
    pop = heapq.heappop

    if all(ordered):
        stack = [i for i in range(n) if indeg[i] == 0]
        append = stack.append
        while stack:
            i = stack.pop()
            ti = thread_idx[i]
            cur = progress[ti]
            rd = ready[i]
            feasible = cur if cur > rd else rd
            starts[i] = feasible
            d = dur[i]
            end = feasible + d
            if end > makespan:
                makespan = end
            progress[ti] = end + gap[i]
            executed += 1
            k = sp[i]
            q = sp[i + 1]
            while k < q:
                c = si[k]
                k += 1
                if ready[c] < end:
                    ready[c] = end
                r = indeg[c] - 1
                indeg[c] = r
                if r == 0:
                    append(c)
            c = tnext[i]
            if c >= 0:
                if ready[c] < end:
                    ready[c] = end
                r = indeg[c] - 1
                indeg[c] = r
                if r == 0:
                    append(c)
    else:
        keys = pkeys if pkeys is not None else [0.0] * n
        arrived: List[list] = [[] for _ in range(n_threads)]
        pending: List[list] = [[] for _ in range(n_threads)]
        version = [1] * n_threads  # ordered threads' entries carry 0
        heap = []
        for i in [i for i in range(n) if indeg[i] == 0]:
            ti = thread_idx[i]
            if ordered[ti]:
                heap.append((0.0, keys[i], i, 0))
            else:
                arrived[ti].append((keys[i], i))
        for lane in arrived:
            if lane:
                heapq.heapify(lane)
                heap.append((0.0, *lane[0], 1))
        heapq.heapify(heap)
        touched: List[int] = []
        while heap:
            feasible, _, i, v = pop(heap)
            ti = thread_idx[i]
            if v:
                if v != version[ti]:
                    continue
                if arrived[ti]:
                    pop(arrived[ti])
                else:
                    pop(pending[ti])
                touched.append(ti)
            starts[i] = feasible
            d = dur[i]
            end = feasible + d
            if end > makespan:
                makespan = end
            cur = end + gap[i]
            progress[ti] = cur
            k = sp[i]
            q = sp[i + 1]
            while k < q:
                c = si[k]
                k += 1
                rc = ready[c]
                if rc < end:
                    ready[c] = rc = end
                r = indeg[c] - 1
                indeg[c] = r
                if r == 0:
                    tc = thread_idx[c]
                    cf = progress[tc]
                    if ordered[tc]:
                        push(heap, (cf if cf > rc else rc, keys[c], c, 0))
                    else:
                        if rc <= cf:
                            push(arrived[tc], (keys[c], c))
                        else:
                            push(pending[tc], (rc, keys[c], c))
                        # a repeat that slips through only leaves one
                        # stale entry behind
                        if not touched or touched[-1] != tc:
                            touched.append(tc)
            c = tnext[i]  # only ordered threads chain
            if c >= 0:
                rc = ready[c]
                if rc < end:
                    ready[c] = rc = end
                r = indeg[c] - 1
                indeg[c] = r
                if r == 0:
                    push(heap, (cur if cur > rc else rc, keys[c], c, 0))
            if not touched:
                continue
            for t in touched:
                lane = arrived[t]
                waiting = pending[t]
                cur = progress[t]
                while waiting and waiting[0][0] <= cur:
                    push(lane, pop(waiting)[1:])
                v = version[t] + 1
                version[t] = v
                if lane:
                    push(heap, (cur, *lane[0], v))
                elif waiting:
                    push(heap, (*waiting[0], v))
            touched.clear()
        # every released task is dispatched once the heap drains, so the
        # tasks never reached are exactly those still holding references
        executed = indeg.count(0)

    if executed != n:
        raise SimulationError(
            f"deadlock: executed {executed} of {n} tasks (dependency cycle)"
        )
    return starts, makespan


def compiled_for(graph) -> CompiledGraph:
    """The cached :class:`CompiledGraph` of ``graph``, relowered when stale.

    Validity is keyed on the graph's mutation generation: structural
    mutations bump it directly, and in-place task field writes bump it
    through the write stamps :meth:`CompiledGraph.build` leaves behind.
    Inside an open what-if transaction a stale lowering is rebuilt but not
    cached (the transaction restores the base lowering on exit).
    """
    compiled = graph._compiled
    if compiled is not None and compiled.generation == graph._generation:
        return compiled
    compiled = CompiledGraph.build(graph)
    if graph._journal is None:
        graph._compiled = compiled
    return compiled


def simulate_transacted(graph, policy):
    """Simulate a graph inside its open what-if transaction.

    The journal decides how much of the base lowering the transaction
    opened on is reused.  There are three paths, each returning a
    ``SimulationResult`` bit-identical to lowering the graph from scratch:

    * **patch** — the journal holds only task field writes: the base
      duration/gap columns are copied and the written tasks patched in by
      ordinal (the :func:`simulate_many` path; the lowering reads no other
      task field, and policy keys are taken at run time);
    * **splice** — the journal holds only field writes, added edges, and
      tasks linked onto (or order flags dropped from) threads the base
      lacks — DDP's all-reduce channel, P3's push/pull channels:
      :func:`_splice` merges the new threads' blocks into the base
      lowering;
    * **relower** — anything else (a removal, a removed edge, a base
      thread marked unordered or given a new task) relowers the
      transacted graph once, without caching.
    """
    base = graph._compiled
    if base.generation == graph._generation:
        return base.run(policy)
    journal = graph._journal
    written = []
    touched = set()  # threads that gained a task or lost their order
    added = []  # src, dst pairs, flattened
    i = len(journal) - 1
    while i >= 0:
        kind = journal[i]
        if kind == _FIELD:
            written.append(journal[i - 3])
            i -= 4  # task, field name, prior value, kind
        elif kind == _EDGE_ADDED:
            added += (journal[i - 2], journal[i - 1])
            i -= 3  # src, dst, kind
        elif kind == _LINKED:
            touched.add(journal[i - 1])
            i -= 3  # task, thread, kind
        elif kind == _UNORDERED:
            touched.add(journal[i - 1])
            i -= 2  # thread, kind
        else:
            return CompiledGraph.build(graph).run(policy)
    if touched or added:
        if not touched.isdisjoint(base.threads):
            return CompiledGraph.build(graph).run(policy)
        return _splice(graph, base, written, added).run(policy)
    duration = base._duration_l[:]
    gap = base._gap_l[:]
    _patch(duration, gap, base.ordinal, written)
    return base.run(policy, duration=duration, gap=gap)


def _patch(duration: List[float], gap: List[float],
           ordinal: Dict[Task, int], written: List[Task]) -> None:
    """Write the written tasks' duration and gap into the columns."""
    for task in written:
        # a task removed before the transaction can still carry an old
        # stamp of this graph; it is not simulated, so it is not patched
        i = ordinal.get(task)
        if i is not None:
            duration[i] = task.duration
            gap[i] = task.gap


def _splice(graph, base: CompiledGraph, written: List[Task],
            added: List[Task]) -> CompiledGraph:
    """Lower a transacted graph that gained only new threads and edges.

    The base threads kept their tasks, order and order flags; every
    inserted task sits on a new thread.  A fresh lowering is then the
    base lowering's per-thread blocks, in order, merged with the new
    threads' blocks by sorted thread: each base ordinal shifts by the
    number of new tasks sorted before it (``remap``), the new blocks are
    lowered from the graph, and only the successor rows and in-degrees an
    added edge touched are recomputed.  The successor CSR is the base
    CSR copied by slice between those override rows (its indices
    remapped in one pass when ordinals shifted), so no per-row list is
    built.  The result equals ``CompiledGraph.build(graph)`` column for
    column — ordinals included, so even the per-thread dispatch heap
    breaks its ties identically.  O(N + E) list work, but no per-task
    linked-list walk or field reads.
    """
    threads = graph.threads()
    counts = graph._counts
    known = set(base.threads)
    remap: List[int] = []  # base ordinal -> fresh ordinal
    start = 0
    for thread in threads:
        if thread in known:
            remap += range(start, start + counts[thread])
        start += counts[thread]
    shifted = bool(remap) and remap[-1] != len(remap) - 1  # increasing
    ordered = [graph.is_ordered(t) for t in threads]
    tasks: List[Task] = []
    duration: List[float] = []
    gap: List[float] = []
    thread_idx: List[int] = []
    tnext: List[int] = []
    indegree: List[int] = []
    inserted: List[Task] = []
    lo = 0
    for ti, thread in enumerate(threads):
        start = len(tasks)
        count = counts[thread]
        if thread in known:
            hi = lo + count
            tasks += base.tasks[lo:hi]
            duration += base._duration_l[lo:hi]
            gap += base._gap_l[lo:hi]
            indegree += base._indegree_l[lo:hi]
            lo = hi
        else:
            block = graph.tasks_on(thread)
            tasks += block
            inserted += block
            duration += [t.__dict__["duration"] for t in block]
            gap += [t.__dict__["gap"] for t in block]
            indegree += [0] * count  # filled in below
        thread_idx += [ti] * count
        if ordered[ti]:
            tnext += range(start + 1, start + count)
            tnext.append(-1)
        else:
            tnext += [-1] * count
    n = len(tasks)
    ordinal = dict(zip(tasks, range(n)))
    succ = graph._succ
    pred = graph._pred
    prev = graph._prev
    # the successor CSR: rows recomputed from the graph (inserted tasks,
    # added edges' sources) in ordinal order, and between two of them a
    # run of base tasks with consecutive base ordinals, copied by slice
    base_ordinal = base.ordinal
    sp = base._succ_indptr_l
    si = base._succ_indices_l
    if shifted:
        si = [remap[c] for c in si]
    indptr = [0]
    indices: List[int] = []
    f = 0  # the next fresh ordinal to emit
    for o in sorted({ordinal[t] for t in chain(inserted, added[0::2])}) + [n]:
        if f < o:
            b = base_ordinal[tasks[f]]
            e = b + o - f
            off = len(indices) - sp[b]
            indptr += [p + off for p in sp[b + 1:e + 1]]
            indices += si[sp[b]:sp[e]]
        if o < n:
            succs = succ[tasks[o]]
            if succs:
                indices += _succ_row(succs, ordinal)
            indptr.append(len(indices))
        f = o + 1
    for task in set(inserted).union(added[1::2]):
        i = ordinal[task]
        # an ordered thread's predecessor gates all but the thread's head
        indegree[i] = len(pred[task]) + (ordered[thread_idx[i]]
                                         and prev[task] is not None)
    _patch(duration, gap, ordinal, written)
    return CompiledGraph(tasks, ordinal, threads, ordered, duration, gap,
                         thread_idx, tnext, indegree, indptr, indices,
                         graph._generation)


# -------------------------------------------------------- batched multi-sim


@dataclass(frozen=True)
class CellDelta:
    """One what-if cell as sparse overrides onto a shared baseline.

    ``durations``/``gaps`` map tasks of the *baseline* graph to their
    overridden values; everything unmentioned keeps the baseline value.
    Cells are cheap: :func:`simulate_many` patches them onto copies of
    the compiled baseline's columns without touching the graph.  Every
    override must be finite and ``>= 0``, like the task field it replaces
    (a NaN would silently drop its task out of the makespan); anything
    else raises ``SimulationError`` naming the cell and the task.
    """

    label: str = "delta"
    durations: Dict[Task, float] = field(default_factory=dict)
    gaps: Dict[Task, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for which, overrides in (("duration", self.durations),
                                 ("gap", self.gaps)):
            for task, value in overrides.items():
                # chained compares are False for NaN, so this rejects NaN
                if not 0.0 <= value < _INF:
                    raise SimulationError(
                        f"cell {self.label!r} overrides the {which} of task "
                        f"{task.name!r} with {value!r}; must be finite and "
                        ">= 0")

    @classmethod
    def scale_durations(cls, tasks: Iterable[Task], factor: float,
                        label: str = "scaled") -> "CellDelta":
        """Scale the duration of each task by ``factor`` (finite, ≥ 0)."""
        if not 0.0 <= factor < _INF:
            raise SimulationError(
                f"duration scale factor {factor!r} must be finite and >= 0")
        return cls(label=label,
                   durations={t: t.duration * factor for t in tasks})


def simulate_many(compiled: CompiledGraph, cells: Sequence[CellDelta],
                  policy=None) -> List[object]:
    """Simulate every cell of a shared-baseline grid on one lowering.

    The baseline columns are copied per cell (O(N) list copies — numpy
    bulk copies when available), each cell's sparse overrides are patched
    in by ordinal (O(|delta|)), and only the engine loop re-runs.  Cells
    referencing tasks outside the baseline raise ``SimulationError``.

    Returns one ``SimulationResult`` per cell, in cell order,
    bit-identical to lowering and simulating each patched graph from
    scratch.  A ``policy`` that is not a ``SchedulePolicy`` raises
    ``TypeError``.
    """
    ordinal = compiled.ordinal
    results = []
    for cell in cells:
        duration = gap = None
        if cell.durations:
            duration = compiled._duration_l[:]
            try:
                for task, value in cell.durations.items():
                    duration[ordinal[task]] = value
            except KeyError:
                raise SimulationError(
                    f"cell {cell.label!r} overrides a task outside the "
                    "compiled baseline") from None
        if cell.gaps:
            gap = compiled._gap_l[:]
            try:
                for task, value in cell.gaps.items():
                    gap[ordinal[task]] = value
            except KeyError:
                raise SimulationError(
                    f"cell {cell.label!r} overrides a task outside the "
                    "compiled baseline") from None
        results.append(compiled.run(policy, duration=duration, gap=gap))
    return results
