"""The kernel-level dependency graph.

Structure (paper Section 4.2):

* **threads** — per-execution-thread ordered task sequences.  The paper's
  dependency types 1 and 2 (sequential CPU order, sequential CUDA-stream
  order) are represented *implicitly* by this order: a task always depends
  on its thread predecessor.  Each thread's order is kept as a doubly-linked
  list (``_prev``/``_next`` maps plus per-thread head/tail), so the
  transformation primitives are O(1) pointer splices:

  =====================  ==========
  primitive              complexity
  =====================  ==========
  ``append``             O(1)
  ``insert_after``       O(1)
  ``insert_before``      O(1)
  ``remove``             O(1) + O(preds x succs) when rewiring
  ``remove_many``        O(removed + their edges) + O(rewired edges)
  ``thread_successor``   O(1)
  ``thread_predecessor`` O(1)
  ``add_dependency``     O(1)
  ``copy``               O(N + E)
  ``overlay``            O(1) to open (warm lowering), O(journal) to close
  =====================  ==========

* **explicit edges** — cross-thread dependencies: launch->kernel correlation,
  CUDA synchronization, and communication (dependency types 3-5), plus any
  edges optimization models add.

Mutating operations keep the graph consistent and are the substrate of the
transformation primitives in :mod:`repro.core.transform`.

Journaled what-if transactions
------------------------------

:meth:`DependencyGraph.overlay` opens a transaction for one what-if
question: ``with graph.overlay() as g:`` hands back the graph itself, to be
transformed and simulated in place.  While it is open, every structural
mutation records what it changed in the graph's undo journal, and every
field write to a task of the graph records the field's prior value
(through the write stamp of the lowered task's class — see
:class:`_WriteStamp`; opening a transaction lowers the graph, so every
task of it is stamped).  Closing the transaction, also when its body
raises, replays the journal in reverse: thread order, edge sets, unordered
flags, task fields, the mutation generation and the cached compiled
lowering come back exactly as they were.  Nothing is cloned, so a question
costs what its transform touches.

The journal is one flat list per graph.  Each record is its fields
followed by its kind, so the rollback pops records off the end without
allocating one tuple per record while the transaction is open.  The
records are: a linked task (``append``/``insert_*``), an added or removed
edge, a thread marked unordered, a task field's prior value, and one
record per :meth:`DependencyGraph.remove_many` call — however many tasks
it removes.  That record keeps the removed tasks' own adjacency sets as
dicts and each spliced run of consecutive removed tasks as a list, so its
rollback restores them in bulk (``dict.update``) and then fixes up only
the boundary: the survivors' cut edges, the links at each run's ends and
the edges rewiring added.
"""

import gc
import weakref
from collections import deque
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set

from repro.common.errors import GraphConsistencyError
from repro.core.task import Task
from repro.tracing.records import ExecutionThread

# undo-journal record kinds; a record is its fields, then its kind
_LINKED = 0        # task, thread: append / insert_*
_REMOVED_MANY = 1  # remove_many: the removed tasks' succ and pred sets
                   # (dicts), cut survivor edges in and out, thread runs,
                   # rewired edges
_EDGE_ADDED = 2    # src, dst
_EDGE_REMOVED = 3  # src, dst
_UNORDERED = 4     # thread
_FIELD = 5         # task, field name, prior value (or _MISSING)

#: prior value of a field the task did not have
_MISSING = object()


class _WriteStamp:
    """The write barrier a lowering pass leaves on each task of a graph.

    Lowering plants one shared stamp in every task's ``__dict__`` and
    turns each plain :class:`Task` into a :class:`_StampedTask`, whose
    ``__setattr__`` calls :meth:`written` before the write lands.  That
    bumps the owning graph's mutation generation, so its cached
    ``CompiledGraph`` is rebuilt.  Outside a transaction the stamp then
    comes off and the task turns back into a plain ``Task`` (later writes
    are plain stores until the next lowering); inside one it stays, and
    every write journals the field's prior value.  Unlowered tasks never
    pay for the barrier.
    """

    __slots__ = ("_graph_ref",)

    def __init__(self, graph: "DependencyGraph") -> None:
        self._graph_ref = weakref.ref(graph)

    def written(self, task: Task, name: str) -> None:
        fields = task.__dict__
        graph = self._graph_ref()
        journal = None if graph is None else graph._journal
        if journal is None:
            del fields["_sim_stamp"]
            object.__setattr__(task, "__class__", Task)
        else:
            journal.extend((task, name, fields.get(name, _MISSING), _FIELD))
        if graph is not None:
            graph._generation += 1


class _StampedTask(Task):
    """A lowered :class:`Task`: its field writes go through the stamp.

    Same layout as ``Task``, so a task switches class by assigning
    ``__class__``.  One without a stamp (``dataclasses.replace`` builds
    one) drops back to ``Task`` and writes plainly.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        stamp = self.__dict__.get("_sim_stamp")
        if stamp is None:
            object.__setattr__(self, "__class__", Task)
        else:
            stamp.written(self, name)
        object.__setattr__(self, name, value)


class DependencyGraph:
    """Mutable kernel-level dependency graph with per-thread task order."""

    def __init__(self) -> None:
        self._succ: Dict[Task, Set[Task]] = {}
        self._pred: Dict[Task, Set[Task]] = {}
        # intrusive per-thread doubly-linked order
        self._next: Dict[Task, Optional[Task]] = {}
        self._prev: Dict[Task, Optional[Task]] = {}
        self._heads: Dict[ExecutionThread, Task] = {}
        self._tails: Dict[ExecutionThread, Task] = {}
        self._counts: Dict[ExecutionThread, int] = {}
        self._unordered: Set[ExecutionThread] = set()
        # compiled-lowering cache (see repro.core.compiled): _generation
        # counts mutations; the cached CompiledGraph is valid only while
        # its captured generation matches
        self._generation: int = 0
        self._compiled = None
        # undo journal of the open what-if transaction (see overlay())
        self._journal: Optional[list] = None

    # -------------------------------------------------------------- ordering

    def mark_unordered(self, thread: ExecutionThread) -> None:
        """Drop the implicit sequential dependency on one thread.

        CPU threads and CUDA streams execute tasks in recorded program order
        (the paper's dependency types 1 and 2).  Communication channels have
        no such order: they serialize only through thread progress, and the
        *scheduler* decides ordering — which is exactly how P3's priority
        rescheduling works (paper Section 4.4, Schedule).
        """
        if self._journal is not None and thread not in self._unordered:
            self._journal.extend((thread, _UNORDERED))
        self._unordered.add(thread)
        self._generation += 1

    def is_ordered(self, thread: ExecutionThread) -> bool:
        """Whether the thread's task list implies sequential dependencies."""
        return thread not in self._unordered

    # ----------------------------------------------------------------- queries

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __contains__(self, task: Task) -> bool:
        return task in self._succ

    def threads(self) -> List[ExecutionThread]:
        """All execution threads, sorted."""
        return sorted(self._heads)

    def iter_tasks_on(self, thread: ExecutionThread) -> Iterator[Task]:
        """Tasks on one thread in execution order (zero-copy iterator).

        The iterator walks the live linked list; take a snapshot with
        :meth:`tasks_on` if the loop body splices this thread's order.
        """
        task = self._heads.get(thread)
        nxt = self._next
        while task is not None:
            yield task
            task = nxt[task]

    def tasks_on(self, thread: ExecutionThread) -> List[Task]:
        """Tasks on one thread in execution order (a snapshot list)."""
        return list(self.iter_tasks_on(thread))

    def iter_tasks(self) -> Iterator[Task]:
        """All tasks, grouped by thread, in thread order (zero-copy)."""
        for thread in self.threads():
            yield from self.iter_tasks_on(thread)

    def tasks(self) -> List[Task]:
        """All tasks, grouped by thread, in thread order."""
        return list(self.iter_tasks())

    def select(self, predicate: Callable[[Task], bool]) -> List[Task]:
        """The Select primitive: all tasks satisfying ``predicate``."""
        return [t for t in self.iter_tasks() if predicate(t)]

    def successors(self, task: Task) -> Set[Task]:
        """Explicit (cross-thread) successors of a task.

        Returns the graph's *live* adjacency set — do not mutate it, and
        snapshot it (``set(...)``) before loops that add or remove the
        same task's edges.  Zero-copy so the simulator's inner loop stays
        allocation-free.
        """
        self._require(task)
        return self._succ[task]

    def predecessors(self, task: Task) -> Set[Task]:
        """Explicit (cross-thread) predecessors of a task (live set — see
        :meth:`successors` for the aliasing caveat)."""
        self._require(task)
        return self._pred[task]

    def thread_predecessor(self, task: Task) -> Optional[Task]:
        """The task immediately before ``task`` on its thread, if any."""
        self._require(task)
        return self._prev[task]

    def thread_successor(self, task: Task) -> Optional[Task]:
        """The task immediately after ``task`` on its thread, if any."""
        self._require(task)
        return self._next[task]

    # ---------------------------------------------------------------- mutation

    def append(self, task: Task) -> Task:
        """Append a task at the end of its thread's order.  O(1)."""
        thread = task.thread
        self._insert(task, thread, self._tails.get(thread), None)
        return task

    def insert_after(self, anchor: Task, task: Task) -> Task:
        """Insert ``task`` right after ``anchor`` in ``anchor``'s thread order.

        ``task.thread`` is forced to ``anchor.thread`` (the paper's insert
        primitive inserts into an execution thread's linked list).  O(1).
        """
        self._require(anchor)
        thread = anchor.thread
        self._insert(task, thread, anchor, self._next[anchor])
        return task

    def insert_before(self, anchor: Task, task: Task) -> Task:
        """Insert ``task`` right before ``anchor`` in thread order.  O(1)."""
        self._require(anchor)
        thread = anchor.thread
        self._insert(task, thread, self._prev[anchor], anchor)
        return task

    def _insert(self, task: Task, thread: ExecutionThread,
                prv: Optional[Task], nxt: Optional[Task]) -> None:
        if task in self._succ:
            raise GraphConsistencyError(f"task already in graph: {task!r}")
        if task.thread != thread:
            task.thread = thread
        self._generation += 1
        self._link(task, thread, prv, nxt)
        self._succ[task] = set()
        self._pred[task] = set()
        if self._journal is not None:
            self._journal.extend((task, thread, _LINKED))

    def remove(self, task: Task, rewire: bool = True) -> None:
        """Remove one task: :meth:`remove_many` of a one-element set."""
        self.remove_many((task,), rewire)

    def remove_many(self, tasks: Iterable[Task], rewire: bool = True) -> None:
        """Remove a set of tasks at once.  O(removed + their edges + rewire).

        Every task is checked first: an unknown one raises
        :class:`GraphConsistencyError` and leaves the graph untouched
        (a task listed twice is removed once).  Each run of consecutive
        removed tasks is spliced out of its thread once, so thread order
        heals across the run.  With ``rewire=True`` (default) each
        surviving explicit predecessor is connected to each surviving
        explicit successor it reached through removed tasks only — the
        edge sets that removing the tasks one by one gives, in any order.
        Inside a transaction the whole removal is one journal record.
        """
        succ = self._succ
        doomed = dict.fromkeys(tasks)
        inside = doomed.keys()
        if not succ.keys() >= inside:
            task = next(t for t in doomed if t not in succ)
            raise GraphConsistencyError(f"task not in graph: {task!r}")
        self._generation += 1
        pred = self._pred
        prv = self._prev
        nxt = self._next
        # runs of consecutive removed tasks on a thread, in thread order:
        # (thread, survivor before, the run, survivor after)
        runs = []
        for task in [t for t in doomed if prv[t] not in doomed]:
            run = [task]
            after = nxt[task]
            while after in doomed:
                run.append(after)
                after = nxt[after]
            runs.append((task.thread, prv[task], run, after))
        heads = self._heads
        tails = self._tails
        counts = self._counts
        for thread, before, run, after in runs:
            if before is None and after is None:
                del heads[thread], tails[thread], counts[thread]
                continue
            if before is None:
                heads[thread] = after
            else:
                nxt[before] = after
            if after is None:
                tails[thread] = before
            else:
                prv[after] = before
            counts[thread] -= len(run)
        for links in (prv, nxt):
            deque(map(links.pop, doomed), 0)
        # the removed tasks' own edge sets, kept for the rollback; the
        # edges to survivors are cut and kept as flattened (survivor,
        # removed) and (removed, survivor) pairs, and entries pair each
        # removed task with its surviving predecessors, where rewiring
        # starts
        succs = dict(zip(doomed, map(succ.pop, doomed)))
        preds = dict(zip(doomed, map(pred.pop, doomed)))
        cut_in: list = []
        cut_out: list = []
        entries = []
        # one C-level union first: often no edge leaves the removed set
        if not inside >= set().union(*preds.values()):
            for task, ps in preds.items():
                outside = [p for p in ps if p not in doomed]
                if outside:
                    entries.append((task, outside))
                    for p in outside:
                        succ[p].discard(task)
                        cut_in += (p, task)
        if not inside >= set().union(*succs.values()):
            for task, ss in succs.items():
                for s in ss:
                    if s not in doomed:
                        pred[s].discard(task)
                        cut_out += (task, s)
        added: list = []
        for task, outside in entries if rewire else ():
            # the survivors this task's explicit successors reach through
            # removed tasks only
            exits = set()
            stack = [task]
            seen = {task}
            while stack:
                for c in succs[stack.pop()]:
                    if c not in doomed:
                        exits.add(c)
                    elif c not in seen:
                        seen.add(c)
                        stack.append(c)
            for p in outside:
                succ_p = succ[p]
                for s in exits:
                    if p is not s and s not in succ_p:
                        succ_p.add(s)
                        pred[s].add(p)
                        added += (p, s)
        if self._journal is not None:
            self._journal.extend((succs, preds, cut_in, cut_out, runs, added,
                                  _REMOVED_MANY))

    def _link(self, task: Task, thread: ExecutionThread,
              prv: Optional[Task], nxt: Optional[Task]) -> None:
        """Splice ``task`` between adjacent ``prv`` and ``nxt`` on a thread."""
        self._prev[task] = prv
        self._next[task] = nxt
        if prv is None:
            self._heads[thread] = task
        else:
            self._next[prv] = task
        if nxt is None:
            self._tails[thread] = task
        else:
            self._prev[nxt] = task
        self._counts[thread] = self._counts.get(thread, 0) + 1

    def _unlink(self, task: Task, thread: ExecutionThread) -> None:
        """Splice ``task`` out of its thread."""
        prv = self._prev.pop(task)
        nxt = self._next.pop(task)
        if prv is None and nxt is None:
            del self._heads[thread]
            del self._tails[thread]
            del self._counts[thread]
            return
        if prv is None:
            self._heads[thread] = nxt
        else:
            self._next[prv] = nxt
        if nxt is None:
            self._tails[thread] = prv
        else:
            self._prev[nxt] = prv
        self._counts[thread] -= 1

    def add_dependency(self, src: Task, dst: Task) -> None:
        """Add an explicit edge ``src -> dst``.  O(1)."""
        self._require(src)
        self._require(dst)
        if src is dst:
            raise GraphConsistencyError(f"self-dependency on {src!r}")
        self._generation += 1
        succ_src = self._succ[src]
        if self._journal is not None and dst not in succ_src:
            self._journal.extend((src, dst, _EDGE_ADDED))
        succ_src.add(dst)
        self._pred[dst].add(src)

    def remove_dependency(self, src: Task, dst: Task) -> None:
        """Remove an explicit edge if present.  O(1)."""
        self._require(src)
        self._require(dst)
        self._generation += 1
        succ_src = self._succ[src]
        if self._journal is not None and dst in succ_src:
            self._journal.extend((src, dst, _EDGE_REMOVED))
        succ_src.discard(dst)
        self._pred[dst].discard(src)

    # ------------------------------------------------------------- validation

    def validate(self) -> None:
        """Check graph invariants; raise :class:`GraphConsistencyError`.

        * linked-list order is internally consistent (counts, head/tail,
          prev/next symmetry);
        * no explicit edge points backwards within one thread's order;
        * the combined graph (explicit edges + thread order) is acyclic.

        One walk of the linked lists checks the order and seeds the
        in-degrees of the acyclicity check.
        """
        prev_link = self._prev
        next_link = self._next
        pred = self._pred
        position: Dict[Task, int] = {}
        indeg: Dict[Task, int] = {}
        for thread, head in self._heads.items():
            gate = 0 if thread in self._unordered else 1
            extra = 0
            prev = None
            count = 0
            task = head
            while task is not None:
                if prev_link[task] is not prev:
                    raise GraphConsistencyError(
                        f"broken prev link at {task!r} on {thread}"
                    )
                claimed = task.thread
                if claimed is not thread and claimed != thread:
                    raise GraphConsistencyError(
                        f"{task!r} linked on {thread} but claims {task.thread}"
                    )
                position[task] = count
                # explicit predecessors, plus the thread predecessor of
                # every task but the head on an ordered thread
                indeg[task] = len(pred[task]) + extra
                extra = gate
                count += 1
                prev = task
                task = next_link[task]
            if self._tails[thread] is not prev:
                raise GraphConsistencyError(f"broken tail link on {thread}")
            if self._counts[thread] != count:
                raise GraphConsistencyError(
                    f"count mismatch on {thread}: "
                    f"{self._counts[thread]} recorded, {count} linked"
                )
        if len(position) != len(self._succ):
            raise GraphConsistencyError(
                f"{len(self._succ)} tasks in adjacency but "
                f"{len(position)} linked in thread order"
            )
        for src, dsts in self._succ.items():
            for dst in dsts:
                if src.thread == dst.thread and self.is_ordered(src.thread):
                    if position[src] >= position[dst]:
                        raise GraphConsistencyError(
                            f"edge {src!r} -> {dst!r} contradicts thread order"
                        )
        # Kahn's algorithm over explicit edges and ordered thread links;
        # tasks on unordered threads do not gate their thread successor
        free = {t for thread in self._unordered
                for t in self.iter_tasks_on(thread)}
        ready = [t for t, d in indeg.items() if d == 0]
        reached = 0
        while ready:
            task = ready.pop()
            reached += 1
            for child in self._succ[task]:
                d = indeg[child] - 1
                indeg[child] = d
                if d == 0:
                    ready.append(child)
            child = next_link[task]
            if child is not None and task not in free:
                d = indeg[child] - 1
                indeg[child] = d
                if d == 0:
                    ready.append(child)
        if reached != len(self):
            raise GraphConsistencyError(
                f"dependency cycle: only {reached} of {len(self)} tasks "
                "are reachable"
            )

    # --------------------------------------------------------------- internals

    def _require(self, task: Task) -> None:
        if task not in self._succ:
            raise GraphConsistencyError(f"task not in graph: {task!r}")

    # ----------------------------------------------------------------- cloning

    def copy(self) -> "DependencyGraph":
        """Deep-copy the graph (tasks are cloned; safe to mutate the copy).

        Optimization models transform a copy so the baseline graph can be
        reused for many what-if questions (paper Section 7.1: profile once,
        ask many questions).  For the common transform-and-simulate path
        prefer :meth:`overlay`, which transforms in place and rolls back.
        """
        # everything allocated here stays live; pause the collector so the
        # allocation burst doesn't trigger full scans mid-copy
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._copy_impl()
        finally:
            if gc_was_enabled:
                gc.enable()

    def _copy_impl(self) -> "DependencyGraph":
        out = DependencyGraph()
        out._unordered = set(self._unordered)
        clone_of: Dict[Task, Task] = {}
        heads = out._heads
        tails = out._tails
        nxt_out = out._next
        prv_out = out._prev
        nxt_in = self._next
        new = object.__new__
        for thread, head in self._heads.items():
            prev_clone: Optional[Task] = None
            task: Optional[Task] = head
            while task is not None:
                # inlined Task.clone(): this loop dominates copy() cost
                clone = new(Task)
                cd = clone.__dict__
                cd.update(task.__dict__)
                cd.pop("_sim_stamp", None)
                cd["metadata"] = dict(cd["metadata"])
                clone_of[task] = clone
                prv_out[clone] = prev_clone
                if prev_clone is None:
                    heads[thread] = clone
                else:
                    nxt_out[prev_clone] = clone
                prev_clone = clone
                task = nxt_in[task]
            nxt_out[prev_clone] = None
            tails[thread] = prev_clone
        out._counts = dict(self._counts)
        succ_out = out._succ
        pred_out = out._pred
        for task, clone in clone_of.items():
            # adjacency sets are overwhelmingly empty or single-element;
            # specializing those sizes avoids set-comprehension frames
            succs = self._succ[task]
            n = len(succs)
            if n == 0:
                succ_out[clone] = set()
            elif n == 1:
                (s,) = succs
                succ_out[clone] = {clone_of[s]}
            else:
                succ_out[clone] = {clone_of[s] for s in succs}
            preds = self._pred[task]
            n = len(preds)
            if n == 0:
                pred_out[clone] = set()
            elif n == 1:
                (p,) = preds
                pred_out[clone] = {clone_of[p]}
            else:
                pred_out[clone] = {clone_of[p] for p in preds}
        # remap task-valued metadata (launch<->kernel links) onto the clones
        for clone in clone_of.values():
            metadata = clone.metadata
            stale = None
            for key, value in metadata.items():
                if isinstance(value, Task):
                    remapped = clone_of.get(value)
                    if remapped is not None:
                        metadata[key] = remapped
                    else:
                        stale = [key] if stale is None else stale + [key]
            if stale:
                for key in stale:
                    del metadata[key]
        return out

    # ---------------------------------------------------- what-if transactions

    @contextmanager
    def overlay(self) -> Iterator["DependencyGraph"]:
        """Open a journaled what-if transaction on this graph.

        Use as ``with graph.overlay() as g:`` — ``g`` is this graph, to be
        transformed and simulated in place.  On exit, also when the body
        raises, every mutation made inside is undone (see the module
        docstring).  Opening lowers the graph first when its cached
        lowering is stale, so every task carries the write stamp that
        journals its field writes; with a warm lowering it is O(1).

        Transactions do not nest: opening a second one on the same graph
        while the first is open raises :class:`GraphConsistencyError`.
        ``simulate`` inside a transaction never caches its lowering on the
        graph.
        """
        from repro.core.compiled import compiled_for

        if self._journal is not None:
            raise GraphConsistencyError(
                "a what-if transaction is already open on this graph")
        compiled = compiled_for(self)  # stamps every task
        generation = self._generation
        self._journal = journal = []
        try:
            yield self
        finally:
            self._journal = None
            self._rollback(journal)
            self._generation = generation
            self._compiled = compiled

    def _rollback(self, journal: list) -> None:
        """Undo ``journal``'s records, newest first, emptying it."""
        succ = self._succ
        pred = self._pred
        pop = journal.pop
        while journal:
            kind = pop()
            if kind == _FIELD:
                old = pop()
                name = pop()
                fields = pop().__dict__
                if old is _MISSING:
                    fields.pop(name, None)
                else:
                    fields[name] = old
            elif kind == _REMOVED_MANY:
                self._unremove(*[pop() for _ in range(6)])
            elif kind == _LINKED:
                thread = pop()
                task = pop()
                del succ[task]
                del pred[task]
                self._unlink(task, thread)
            elif kind == _EDGE_ADDED:
                dst = pop()
                src = pop()
                succ[src].discard(dst)
                pred[dst].discard(src)
            elif kind == _EDGE_REMOVED:
                dst = pop()
                src = pop()
                succ[src].add(dst)
                pred[dst].add(src)
            else:
                self._unordered.discard(pop())

    def _unremove(self, added, runs, cut_out, cut_in, preds, succs) -> None:
        """Undo one :meth:`remove_many` (its record's fields, popped)."""
        succ = self._succ
        pred = self._pred
        for i in range(0, len(added), 2):
            p, s = added[i], added[i + 1]
            succ[p].discard(s)
            pred[s].discard(p)
        succ.update(succs)
        pred.update(preds)
        for i in range(0, len(cut_in), 2):
            succ[cut_in[i]].add(cut_in[i + 1])
        for i in range(0, len(cut_out), 2):
            pred[cut_out[i + 1]].add(cut_out[i])
        prv = self._prev
        nxt = self._next
        heads = self._heads
        tails = self._tails
        counts = self._counts
        for thread, before, run, after in runs:
            prv.update(zip(run, [before, *run[:-1]]))
            nxt.update(zip(run, [*run[1:], after]))
            if before is None:
                heads[thread] = run[0]
            else:
                nxt[before] = run[0]
            if after is None:
                tails[thread] = run[-1]
            else:
                prv[after] = run[-1]
            counts[thread] = counts.get(thread, 0) + len(run)

