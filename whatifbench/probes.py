"""Runtime probes and latency statistics.

The GC probe and the RSS readings are the only things the untraced run
installs: one ``gc.callbacks`` entry and ``resource.getrusage`` calls
outside the ops.  The host-speed probe walks its table between
stretches of ops.
"""

import array
import gc
import resource
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter_ns


class GCProbe:
    """Total collector pause time and collection count, via ``gc.callbacks``."""

    def __init__(self):
        self.pause_ns = 0
        self.collections = 0
        self._started = None
        self._ignore = False

    def _callback(self, phase, info):
        if self._ignore:
            return
        if phase == "start":
            self._started = perf_counter_ns()
        elif self._started is not None:
            self.pause_ns += perf_counter_ns() - self._started
            self.collections += 1
            self._started = None

    @contextmanager
    def ignored(self):
        """Do not count collections the benchmark itself runs."""
        self._ignore = True
        try:
            yield
        finally:
            self._ignore = False

    def snapshot(self):
        """(pause_ns, collections) so far."""
        return self.pause_ns, self.collections

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info):
        gc.callbacks.remove(self._callback)


class HostSpeed:
    """How fast the shared host runs, from pointer chases between ops.

    The host's speed drifts by tens of percent over minutes, and each of
    its virtual CPUs at its own pace, with what else runs on it; that is
    far more than one run can average out.  Pointer chases slow down with
    it roughly in step with the program, as long as they run in the same
    thread, on the same CPU and caches (the same chase in a child process
    tracked no better than the raw times).  One walk follows ``STEPS``
    links through a table far larger than the caches (memory latency,
    which the program's collector and object graphs wait on) and
    ``STEPS`` through one that fits in them (the interpreter's own pace).
    Over separate runs of whatif-warm, mean op latency over walk time
    spread about half as much as the raw latency.

    :meth:`read` times ``WALKS`` walks (about 40 ms) and keeps them;
    :attr:`scale` turns times measured while the readings were taken into
    times on a host where a walk takes ``REFERENCE_MS``, using the median
    walk so that odd ones do not move it.

    The tables are flat arrays: the collector never sees them, and they
    stay resident from construction on, so they add exactly their size to
    the process's peak RSS (:attr:`table_kb`).
    """

    #: slots of the large and the small table (32 MiB and 256 KiB)
    LARGE_SLOTS = 1 << 22
    SMALL_SLOTS = 1 << 15

    #: links followed per table per walk, and walks per reading
    STEPS = 40_000
    WALKS = 3

    #: walk time, in ms, of the reference host the scaled times refer to
    REFERENCE_MS = 12.0

    def __init__(self):
        self._tables = [self._cycle(self.LARGE_SLOTS),
                        self._cycle(self.SMALL_SLOTS)]
        self._at = [0, 0]
        self.walks_ms = []

    @staticmethod
    def _cycle(slots):
        """Slot i holds (a*i + c) mod slots for a full-period LCG.

        With a % 4 == 1 and c odd that is one cycle through every slot,
        and each load's address is known only once the previous load
        returns.  Sized up front, so building it never holds two copies.
        """
        table = array.array("q", bytes(8 * slots))
        for i in range(slots):
            table[i] = (1664525 * i + 1013904223) & (slots - 1)
        return table

    def read(self):
        """Take one reading and keep its walk times."""
        for _ in range(self.WALKS):
            t0 = perf_counter_ns()
            for index, table in enumerate(self._tables):
                at = self._at[index]
                for _ in range(self.STEPS):
                    at = table[at]
                self._at[index] = at
            self.walks_ms.append((perf_counter_ns() - t0) / 1e6)

    @property
    def scale(self):
        """Factor from times measured during the readings to the reference."""
        return self.REFERENCE_MS / statistics.median(self.walks_ms)

    @property
    def table_kb(self):
        return sum(t.itemsize * len(t) for t in self._tables) / 1024.0


def peak_rss_kb():
    """Peak resident set size of this process, in KiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 1024.0 if sys.platform == "darwin" else float(peak)


def tail(latencies):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)`` using nearest rank: with
    ``n`` sorted samples the value is the ``n - 10``-th, so exactly ten
    samples lie above it.  Runs with ten samples or fewer fall back to
    the maximum.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n, n
