"""Content-addressed store of scenario sweep results, over pluggable tiers.

The paper's pitch only compounds when predictions are *reusable*: a
thousand-cell scenario catalog should pay for each cell once, ever, and a
re-run after a crash (or next week, or on a colleague's checkout) should
skip straight to the unexplored cells.  :class:`SweepStore` makes that
durable:

* **content-addressed** — an entry is keyed by a stable hash of the
  *canonical* scenario JSON (sorted keys, default fields omitted, numeric
  widening), so two declarations that mean the same thing share one entry
  no matter how they were formatted, and any semantic change misses;
* **salted** — the key folds in :data:`RESULT_SCHEMA_VERSION` and the
  :meth:`~repro.scenarios.registry.OptimizationRegistry.fingerprint`, so
  registry or result-format evolution invalidates stale rows instead of
  silently serving them;
* **atomic** — entries are written to a temp file and ``os.replace``-d
  into place; a crashed writer can never leave a half-entry where a
  reader would trust it;
* **corruption-safe** — reads verify the JSON parses, the embedded key
  and salt match, and a payload checksum holds; anything off is treated
  as a miss (re-simulated) *and the dead file is deleted* so it never
  needs a later GC scan to find;
* **tiered** — the byte I/O runs over pluggable
  :class:`~repro.scenarios.backends.StoreBackend` tiers: the local
  :class:`~repro.scenarios.backends.LocalBackend` directory is always the
  cache of record, and an optional ``remote``
  :class:`~repro.scenarios.backends.HTTPBackend` is consulted
  read-through on local misses (verified entries are written back
  locally; a corrupt, skewed or unreachable remote is a miss, never a
  crash).  :meth:`push` / :meth:`pull` move whole generations explicitly;
* **lease-coordinated** — per-key lease files serialize writers against
  GC, a store-wide GC lease serializes collection passes, and
  :meth:`gc` re-scans under that lease until the byte budget *holds*, so
  ``gc --max-bytes`` is exact even with a racing writer;
* **lifecycle-managed** — every served entry touches a ``last_served``
  sidecar, :meth:`gc` evicts least-recently-served entries down to a byte
  budget (and removes corrupt entries, stale salt generations, and
  abandoned temp files), :meth:`prune` drops rotated-out generations
  wholesale, :meth:`verify` audits without mutating, and a ``max_bytes``
  cap makes the store self-bounding under large catalogs.  The
  ``repro store`` CLI fronts all of it.

Entries carry a free-form ``values`` dict rather than a fixed row shape,
so prediction results (``kind="predict"``) and ground-truth engine
measurements (e.g. ``kind="groundtruth:ddp-sync"``) share one substrate.
The key/salt/eviction contract is documented in ``docs/sweeps.md``; the
backend and lease contracts in ``docs/store-backends.md``.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.common.errors import ConfigError
from repro.scenarios.backends import (
    LEASE_STEAL_SECONDS,
    NOT_MODIFIED,
    BackendError,
    ComputeLease,
    FileLease,
    HTTPBackend,
    LocalBackend,
    entry_etag,
)
from repro.scenarios.registry import DEFAULT_REGISTRY, OptimizationRegistry
from repro.scenarios.retry import RetryPolicy, sync_retry_policy
from repro.scenarios.scenario import Scenario

#: bump when the meaning of stored values changes (simulator semantics,
#: row derivation, entry layout) — every older entry then misses.
#: v2: simulate breaks feasible-start ties on stable task ordinals
#: (allocation-independent) instead of FIFO frontier-entry order
RESULT_SCHEMA_VERSION = 2

#: abandoned ``.tmp`` files younger than this survive :meth:`SweepStore.gc`
#: (a concurrent writer may still be about to ``os.replace`` them)
TMP_GRACE_SECONDS = 3600.0

#: how long a write waits for the per-key lease before writing anyway
#: (two writers of one key produce identical content-addressed bytes, so
#: proceeding is safe; the lease exists to coordinate with GC accounting)
PUT_LEASE_WAIT_SECONDS = 0.5

#: how long gc/prune wait for the store-wide GC lease before proceeding
#: without exclusivity (two budget passes over-evict at worst, and every
#: eviction victim is recomputable)
GC_LEASE_WAIT_SECONDS = 30.0

#: a capped store re-reads the true on-disk total every this many writes,
#: so another process's writes cannot drift the cap estimate forever
CAP_RESYNC_PUTS = 16

#: liveness backstop for the eviction rescan loop: a sustained writer
#: outpacing eviction for this many consecutive rounds ends the pass
#: (the writers' own capped puts then finish enforcing the budget)
MAX_EVICT_ROUNDS = 200


def _canonicalize(obj: object) -> object:
    """Normalize a scenario dict for hashing.

    Dict keys sort at dump time; here we widen non-bool ints to floats so
    ``"bandwidth_gbps": 10`` and ``10.0`` — equal in Python, different in
    JSON text — hash identically.
    """
    if isinstance(obj, dict):
        return {str(k): _canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonicalize(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return float(obj)
    return obj


def canonical_scenario_json(scenario: Scenario) -> str:
    """The canonical JSON text of a scenario (the content that is hashed).

    ``Scenario.to_dict`` already omits fields left at their defaults, so
    declaring a default explicitly does not change the canonical form.
    """
    return json.dumps(_canonicalize(scenario.to_dict()), sort_keys=True,
                      separators=(",", ":"))


def store_salt(registry: Optional[OptimizationRegistry] = None) -> str:
    """The version salt folded into every content key."""
    registry = registry or DEFAULT_REGISTRY
    return f"v{RESULT_SCHEMA_VERSION}:{registry.fingerprint()}"


def scenario_key(scenario: Scenario,
                 registry: Optional[OptimizationRegistry] = None,
                 kind: str = "predict") -> str:
    """Content address of one (scenario, result kind) pair: 32 hex chars."""
    material = "\n".join([store_salt(registry), kind,
                          canonical_scenario_json(scenario)])
    return hashlib.blake2b(material.encode("utf-8"),
                           digest_size=16).hexdigest()


def timings_ok(values: object, kind: str = "predict") -> bool:
    """Whether a stored entry of ``kind`` carries its timings as finite
    floats.

    The one trust check on a memoized result: the batch executor (for
    predictions and ground-truth measurements alike) and the prediction
    service apply it before serving a store hit, so an entry of the wrong
    shape — or holding ``NaN``/``Infinity``, which JSON round-trips — is
    recomputed, not served.  A ``predict`` entry carries ``baseline_us``
    and ``predicted_us``; every ``groundtruth:*`` kind one
    ``iteration_us``.
    """
    return isinstance(values, dict) and _bad_timing(values, kind) is None


def _bad_timing(values: Dict[str, object], kind: str) -> Optional[str]:
    """The first timing field of ``kind`` that ``values`` lacks or holds
    as anything but a finite float; ``None`` when every one is sound."""
    names = (("baseline_us", "predicted_us") if kind == "predict"
             else ("iteration_us",))
    for name in names:
        value = values.get(name)
        if not (isinstance(value, float) and math.isfinite(value)):
            return name
    return None


def _entry_checksum(payload: Dict[str, object]) -> str:
    """Checksum over the trusted portion of an entry."""
    material = json.dumps(
        {k: payload.get(k) for k in ("key", "kind", "salt", "scenario",
                                     "values")},
        sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(material.encode("utf-8"),
                           digest_size=8).hexdigest()


@dataclass
class StoreStats:
    """Running hit/miss/write counters of one :class:`SweepStore`."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    rejected: int = 0  # present on disk but unreadable/corrupt/stale
    evicted: int = 0   # removed by gc/prune (lifecycle, not correctness)
    remote_hits: int = 0      # served read-through from the remote tier
    remote_rejected: int = 0  # remote bytes that failed verification
    remote_faults: int = 0    # remote reads that raised (treated as misses)
    published: int = 0        # entries pushed to the hub at record time
    publish_failures: int = 0  # record-time publishes that failed (kept local)

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict form for JSON reporting."""
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "rejected": self.rejected,
                "evicted": self.evicted, "remote_hits": self.remote_hits,
                "remote_rejected": self.remote_rejected,
                "remote_faults": self.remote_faults,
                "published": self.published,
                "publish_failures": self.publish_failures}


@dataclass
class GCReport:
    """What one :meth:`SweepStore.gc` (or :meth:`prune`) pass did."""

    examined: int = 0         # entries scanned
    corrupt_removed: int = 0  # unreadable / checksum-failed entries deleted
    stale_removed: int = 0    # entries from rotated-out salt generations
    evicted: int = 0          # live entries dropped to meet the byte budget
    tmp_removed: int = 0      # abandoned writer temp files deleted
    bytes_before: int = 0
    bytes_after: int = 0

    @property
    def removed(self) -> int:
        """Total entries deleted by this pass."""
        return self.corrupt_removed + self.stale_removed + self.evicted

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict form for JSON reporting."""
        return {"examined": self.examined, "removed": self.removed,
                "corrupt_removed": self.corrupt_removed,
                "stale_removed": self.stale_removed,
                "evicted": self.evicted, "tmp_removed": self.tmp_removed,
                "bytes_before": self.bytes_before,
                "bytes_after": self.bytes_after}


@dataclass
class VerifyReport:
    """Audit of every entry currently on disk (read-only by default)."""

    live: List[str] = field(default_factory=list)     # trustworthy keys
    stale: List[str] = field(default_factory=list)    # other salt generation
    corrupt: List[str] = field(default_factory=list)  # unreadable/tampered

    @property
    def ok(self) -> bool:
        """Whether every entry on disk is live under the current salt."""
        return not self.stale and not self.corrupt

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON reporting (counts plus bad keys)."""
        return {"live": len(self.live), "stale": len(self.stale),
                "corrupt": len(self.corrupt),
                "stale_keys": list(self.stale),
                "corrupt_keys": list(self.corrupt)}


@dataclass
class SyncReport:
    """What one :meth:`SweepStore.push` or :meth:`SweepStore.pull` did."""

    examined: int = 0     # keys considered on the source tier
    transferred: int = 0  # entries actually moved
    skipped: int = 0      # push: key already listed by the target (its
                          # copy is NOT re-verified — push --force
                          # re-uploads); pull: local copy already live,
                          # or the remote entry vanished mid-transfer
    rejected: int = 0     # failed verification; never transferred

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict form for JSON reporting."""
        return {"examined": self.examined,
                "transferred": self.transferred,
                "skipped": self.skipped, "rejected": self.rejected}


@dataclass
class SweepStore:
    """A directory of content-addressed scenario results.

    Layout: ``<root>/objects/<key[:2]>/<key>.json``, one entry per file,
    plus a zero-byte ``<key>.last`` sidecar whose mtime records when the
    entry was last served (the LRU clock for :meth:`gc`) — the
    :class:`~repro.scenarios.backends.LocalBackend` layout.  Safe for
    concurrent readers plus any number of writers producing the same
    deterministic content (writes are atomic replaces, coordinated with
    GC through per-key lease files).

    With ``max_bytes`` set the store is self-bounding: :meth:`put` tracks
    an approximate on-disk total (re-read from disk every
    :data:`CAP_RESYNC_PUTS` writes, so other processes' writes cannot
    drift it forever) and triggers :meth:`gc` down to the cap whenever a
    write pushes past it.

    With ``remote`` set (an
    :class:`~repro.scenarios.backends.HTTPBackend` or its base URL) the
    store reads through to that tier on local misses: a remote entry is
    verified exactly like a local one — key, salt, checksum — and, when
    trustworthy, written back into the local cache; anything else
    (unreachable host, truncated body, version skew, tampering) is a
    plain miss.  Writes stay local (write-back); :meth:`push` publishes
    them explicitly.
    """

    root: str
    registry: OptimizationRegistry = field(default_factory=lambda: DEFAULT_REGISTRY)
    stats: StoreStats = field(default_factory=StoreStats)
    max_bytes: Optional[int] = None
    remote: Optional[Union[str, HTTPBackend]] = None

    def __post_init__(self) -> None:
        self.root = os.fspath(self.root)
        if os.path.exists(self.root) and not os.path.isdir(self.root):
            raise ConfigError(f"sweep store path {self.root!r} is not a "
                              "directory")
        if self.max_bytes is not None and self.max_bytes <= 0:
            raise ConfigError("max_bytes must be positive (or None for "
                              "an unbounded store)")
        if isinstance(self.remote, str):
            self.remote = HTTPBackend(self.remote)
        self._local = LocalBackend(self.root)
        #: lazily initialized running estimate of the on-disk total, kept
        #: fresh by put/gc so the cap check does not rescan per write
        self._approx_bytes: Optional[int] = None
        self._puts_since_resync = 0

    # ----------------------------------------------------------------- paths

    @property
    def local(self) -> LocalBackend:
        """The local (cache-of-record) backend tier."""
        return self._local

    def key(self, scenario: Scenario, kind: str = "predict") -> str:
        """Content address of one (scenario, kind) under this registry."""
        return scenario_key(scenario, self.registry, kind=kind)

    def lease(self, key: str,
              steal_after: float = LEASE_STEAL_SECONDS) -> FileLease:
        """The per-key lease of one content key (not yet acquired).

        Writers hold it across a :meth:`put`, the batch executor holds it
        while *computing* a cell (so two concurrent sweeps dedupe
        identical cells), and :meth:`gc` skips evicting entries whose
        lease is freshly held.  See ``docs/store-backends.md`` for the
        acquire / steal-after-stale / release lifecycle.
        """
        return self._local.lease(key, steal_after=steal_after)

    def compute_lease(self, key: str,
                      steal_after: float = LEASE_STEAL_SECONDS
                      ) -> ComputeLease:
        """The cross-tier compute claim of one key (not yet acquired).

        Always a :class:`~repro.scenarios.backends.ComputeLease` over the
        local :class:`~repro.scenarios.backends.FileLease`.  With an
        :class:`~repro.scenarios.backends.HTTPBackend` remote the claim
        escalates to the hub's lease plane, so sweeps on *different
        hosts* sharing one hub dedupe identical cells too.  Without a
        remote, or with a tier that has no lease plane (e.g. a
        fault-injection wrapper), its ``remote`` is ``None`` and it
        behaves exactly like the local lease.
        """
        local = self._local.lease(key, steal_after=steal_after)
        if isinstance(self.remote, HTTPBackend):
            return ComputeLease(local, self.remote.lease(key))
        return ComputeLease(local)

    # ----------------------------------------------------------------- reads

    def get(self, scenario: Scenario, kind: str = "predict", *,
            lease: Optional[FileLease] = None) -> Optional[Dict[str, object]]:
        """The stored ``values`` dict, or ``None`` on any doubt.

        A present-but-unreadable local entry (truncated write, bit rot,
        stale salt smuggled in by hand) counts as a miss — and is deleted
        on the spot, so the dead bytes never wait for a GC scan.  On a
        local miss with a ``remote`` tier configured, the remote is
        consulted read-through: its bytes face the same verification, a
        trustworthy entry is written back into the local cache, and
        anything else — unreachable server, truncated body, salt skew —
        stays a miss (the caller re-simulates; this path never raises).
        A caller already holding this entry's per-key lease passes it as
        ``lease`` so the write-back does not wait on its own lock (see
        :meth:`put`).
        """
        key = self.key(scenario, kind=kind)
        payload = self._parse(self._local.get(key), count=True)
        if payload is not None and self._trustworthy(payload, key, kind,
                                                     count=True):
            self.stats.hits += 1
            self._local.touch_served(key)
            return dict(payload["values"])
        if self._local.stat(key) is not None:
            # failed verification: remove the corrupt/stale entry now
            self._delete_entry(key)
        if self.remote is not None:
            values = self._read_through(key, kind, held=lease)
            if values is not None:
                return values
        self.stats.misses += 1
        return None

    def _read_through(self, key: str, kind: str,
                      held: Optional[FileLease] = None
                      ) -> Optional[Dict[str, object]]:
        """Fetch, verify and locally cache one remote entry (or miss).

        The stock :class:`~repro.scenarios.backends.HTTPBackend` already
        degrades transport trouble to ``None``, but the tier seam admits
        *any* backend — including fault-injected or third-party ones that
        raise — so a raising ``get`` is absorbed here too: read-through
        is a cache probe, and no tier misbehavior may crash a sweep.
        """
        try:
            data = self.remote.get(key)
        except Exception:
            self.stats.remote_faults += 1
            return None  # a raising tier is a miss, never a crash
        if data is None:
            return None  # absent or unreachable: both are a plain miss
        payload = self._parse(data, count=False)
        if payload is None or not self._trustworthy(payload, key, kind,
                                                    count=False):
            self.stats.remote_rejected += 1
            return None
        self._write_entry(key, data, held=held)  # write-back locally
        self.stats.remote_hits += 1
        self.stats.hits += 1
        return dict(payload["values"])

    def contains(self, scenario: Scenario, kind: str = "predict") -> bool:
        """Whether a *trustworthy* local entry exists (a pure probe).

        Mere file existence is not membership: an entry with a stale
        salt, a failed checksum, or unparseable bytes would miss on
        :meth:`get`, so it must not count here either.  Unlike
        :meth:`get`, this touches nothing — no counters, no sidecar, no
        corrupt-entry deletion, no remote traffic.
        """
        key = self.key(scenario, kind=kind)
        payload = self._parse(self._local.get(key), count=False)
        return payload is not None and self._trustworthy(payload, key, kind,
                                                         count=False)

    def _parse(self, data: Optional[bytes],
               count: bool) -> Optional[Dict[str, object]]:
        if data is None:
            return None
        try:
            payload = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            if count:
                self.stats.rejected += 1  # exists, but cannot be parsed
            return None
        if not isinstance(payload, dict):
            if count:
                self.stats.rejected += 1
            return None
        return payload

    def _trustworthy(self, payload: Dict[str, object], key: str,
                     kind: Optional[str], count: bool) -> bool:
        """Full verification of one parsed entry.

        ``kind=None`` accepts whatever kind the payload itself declares
        (the :meth:`pull` path, which replicates entries of every kind);
        the checksum still covers the declared kind, so it cannot be
        tampered with either way.
        """
        ok = (
            payload.get("format") == RESULT_SCHEMA_VERSION
            and payload.get("key") == key
            and (payload.get("kind") == kind if kind is not None
                 else isinstance(payload.get("kind"), str))
            and payload.get("salt") == store_salt(self.registry)
            and isinstance(payload.get("values"), dict)
            and payload.get("checksum") == _entry_checksum(payload)
        )
        if not ok and count:
            self.stats.rejected += 1
        return ok

    # ---------------------------------------------------------------- writes

    def put(self, scenario: Scenario, values: Dict[str, object],
            kind: str = "predict", *,
            lease: Optional[FileLease] = None) -> str:
        """Persist one result atomically; returns its content key.

        The write happens under the entry's per-key lease (best-effort:
        after :data:`PUT_LEASE_WAIT_SECONDS` it proceeds anyway, since
        two writers of one content key produce identical bytes).  A
        caller that *already holds* this entry's lease — the batch
        executor holds a compute lease from claim to publish — passes it
        as ``lease`` so the write neither waits on its own lock nor
        releases it (the caller still owns the release).  Writes always
        land on the *local* tier — the remote is published only by an
        explicit :meth:`push`.  With ``max_bytes`` set, a write that
        pushes the (approximate) on-disk total past the cap triggers
        :meth:`gc` down to it.

        Raises:
            ValueError: if a timing field of ``kind`` is missing or not a
                finite float (see :func:`timings_ok`) — such an entry
                would never be served — or another value is not
                JSON-finite.
        """
        values = dict(values)
        bad = _bad_timing(values, kind)
        if bad is not None:
            raise ValueError(
                f"refusing to store a {kind!r} entry whose {bad!r} is "
                f"{values.get(bad)!r}; a stored timing must be a finite "
                "float")
        key = self.key(scenario, kind=kind)
        payload: Dict[str, object] = {
            "format": RESULT_SCHEMA_VERSION,
            "key": key,
            "kind": kind,
            "salt": store_salt(self.registry),
            "scenario": scenario.to_dict(),
            "values": values,
        }
        payload["checksum"] = _entry_checksum(payload)
        data = (json.dumps(payload, indent=1, sort_keys=True,
                           allow_nan=False) + "\n")
        self._write_entry(key, data.encode("utf-8"), held=lease)
        return key

    def _write_entry(self, key: str, data: bytes,
                     held: Optional[FileLease] = None) -> None:
        """Locked local write + LRU touch + cap bookkeeping.

        ``held`` is a lease the caller already owns for this key: the
        write then skips acquisition entirely (waiting on one's own lock
        would stall every write by the full acquire timeout) and leaves
        the release to the caller.
        """
        owned = False
        if held is None or not held.owned:
            held = self._local.lease(key)
            owned = held.acquire(timeout=PUT_LEASE_WAIT_SECONDS,
                                 poll_s=0.005)
        try:
            # overwrites replace bytes rather than add them: snapshot the
            # old size so the running estimate tracks the true disk delta
            old_bytes = self._local.entry_bytes(key) \
                if self.max_bytes is not None else 0
            self._local.put(key, data)
            self.stats.writes += 1
            self._local.touch_served(key)
        finally:
            if owned:
                held.release()
        if self.max_bytes is not None:
            self._puts_since_resync += 1
            if (self._approx_bytes is None
                    or self._puts_since_resync >= CAP_RESYNC_PUTS):
                self._approx_bytes = self.total_bytes()
                self._puts_since_resync = 0
            else:
                self._approx_bytes += self._local.entry_bytes(key) - old_bytes
            if self._approx_bytes > self.max_bytes:
                self.gc(max_bytes=self.max_bytes)

    def _delete_entry(self, key: str) -> int:
        """Remove one entry and its sidecar; returns the bytes freed."""
        freed = self._local.delete(key)
        if self._approx_bytes is not None:
            self._approx_bytes = max(0, self._approx_bytes - freed)
        return freed

    def publish(self, key: str) -> bool:
        """Best-effort upload of one local entry to the ``remote`` tier.

        The record-time half of the cross-host exactly-once handshake:
        a batch worker that computed a cell under a *granted* remote
        claim publishes the entry before releasing the claim, so peers
        deferring on that claim find the bytes the moment it frees.
        Failure is counted (``stats.publish_failures``) but never raised
        — the entry is safely local and a later ``push`` replays it; the
        deferred peer's steal-after-stale path recomputes at worst.
        """
        if self.remote is None:
            return False
        data = self._local.get(key)
        if data is None:
            return False
        try:
            self.remote.put(key, data)
        except Exception:
            self.stats.publish_failures += 1
            return False
        self.stats.published += 1
        return True

    # --------------------------------------------------------------- queries

    def keys(self) -> Iterator[str]:
        """Every content key currently on disk (unvalidated)."""
        return self._local.iter_keys()

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __contains__(self, scenario: Scenario) -> bool:
        return self.contains(scenario)

    def total_bytes(self) -> int:
        """Bytes on disk under ``objects/`` (entries, sidecars, temp
        files; lease files are coordination state and never counted)."""
        return self._local.total_bytes()

    def _classify(self, key: str, keep_salt: Optional[str] = None) -> str:
        """Lifecycle class of one on-disk entry.

        ``"live"`` — trustworthy under the kept salt generation
        (``keep_salt``, defaulting to the store's current salt, in which
        case the schema version must match too); ``"stale"`` — internally
        consistent but from another generation; ``"corrupt"`` —
        unreadable, tampered, or mislabeled.
        """
        payload = self._parse(self._local.get(key), count=False)
        if payload is None:
            return "corrupt"
        if (payload.get("key") != key
                or not isinstance(payload.get("values"), dict)
                or payload.get("checksum") != _entry_checksum(payload)):
            return "corrupt"
        if payload.get("salt") != (keep_salt or store_salt(self.registry)):
            return "stale"
        if (keep_salt is None
                and payload.get("format") != RESULT_SCHEMA_VERSION):
            return "stale"
        return "live"

    # -------------------------------------------------------------- lifecycle

    def verify(self) -> VerifyReport:
        """Audit every entry without mutating anything.

        Classifies each on-disk entry as live (trustworthy under the
        current salt), stale (another salt generation / schema version),
        or corrupt (unreadable or tampered).  ``repro store verify``
        renders this; :meth:`gc` acts on it.
        """
        report = VerifyReport()
        for key in self.keys():
            getattr(report, self._classify(key)).append(key)
        return report

    def gc(self, max_bytes: Optional[int] = None) -> GCReport:
        """Delete dead weight, then evict LRU entries to a byte budget.

        The whole pass runs under the store-wide GC lease (acquired with
        steal-after-stale; after :data:`GC_LEASE_WAIT_SECONDS` it
        proceeds without exclusivity — two budget passes over-evict at
        worst, and every victim is recomputable).  Three phases:

        1. **corrupt** entries and **stale** salt generations are removed
           unconditionally (they can never be served again);
        2. abandoned writer temp files (and dead lease files) older than
           :data:`TMP_GRACE_SECONDS` are removed;
        3. if ``max_bytes`` is given (or the store has a ``max_bytes``
           cap), live entries are evicted least-recently-served first —
           the ``last_served`` sidecar is the clock — and the pass
           **re-scans until the budget holds**: entries landed by a
           racing writer mid-pass are seen by the next scan, so the
           reported ``bytes_after`` is a true ≤-budget total, not a
           snapshot a concurrent write already invalidated.  Entries
           whose per-key lease is freshly held (a writer mid-flight) are
           skipped for one round rather than evicted under the writer.

        Returns a :class:`GCReport`; ``repro store gc`` renders it.
        """
        return self._collect(keep_salt=None, max_bytes=(
            self.max_bytes if max_bytes is None else max_bytes))

    def _collect(self, keep_salt: Optional[str],
                 max_bytes: Optional[int]) -> GCReport:
        """One collection pass under the store-wide GC lease.

        Deletes every entry that is not live under ``keep_salt`` (corrupt
        and stale alike), removes abandoned temp and lease files, then —
        with a ``max_bytes`` budget — evicts LRU entries until it holds.
        :meth:`gc` and :meth:`prune` are both this pass.
        """
        lease = self._local.gc_lease()
        lease.acquire(timeout=GC_LEASE_WAIT_SECONDS)
        try:
            report = GCReport(bytes_before=self.total_bytes())
            for key in list(self.keys()):
                report.examined += 1
                status = self._classify(key, keep_salt=keep_salt)
                if status == "corrupt":
                    self._delete_entry(key)
                    report.corrupt_removed += 1
                elif status == "stale":
                    self._delete_entry(key)
                    report.stale_removed += 1
            report.tmp_removed = \
                self._local.remove_abandoned(TMP_GRACE_SECONDS)
            if max_bytes is not None:
                report.bytes_after = self._evict_to_budget(max_bytes,
                                                           report, lease)
            else:
                report.bytes_after = self.total_bytes()
        finally:
            lease.release()
        self.stats.evicted += report.removed
        self._approx_bytes = report.bytes_after
        self._puts_since_resync = 0
        return report

    def _evict_to_budget(self, max_bytes: int, report: GCReport,
                         lease: FileLease) -> int:
        """Evict LRU entries, re-scanning until the budget truly holds.

        Each round re-lists the store — catching entries a racing writer
        landed after the previous scan — and evicts oldest-served first
        until the scanned total fits.  A round that can evict nothing
        (everything left is lease-held or the store is empty) ends the
        loop, as does the :data:`MAX_EVICT_ROUNDS` liveness backstop;
        the returned total is the last full scan's, measured while the
        GC lease was still held.
        """
        for _round in range(MAX_EVICT_ROUNDS):
            lease.refresh()
            # the budget is defined over total_bytes() — entries,
            # sidecars *and* abandoned temp files — so the rescan must
            # measure the same thing, not just the entries it can evict
            total = self.total_bytes()
            if total <= max_bytes:
                return total
            survivors: List[Tuple[float, str]] = []
            for key in list(self._local.iter_keys()):
                survivors.append((self._local.last_served(key) or 0.0,
                                  key))
            survivors.sort()  # oldest served first; key breaks ties stably
            evicted_this_round = 0
            for _served, key in survivors:
                if total <= max_bytes:
                    break
                if self._local.lease_held(key):
                    continue  # a live writer owns it; next round decides
                total -= self._delete_entry(key)
                evicted_this_round += 1
                report.evicted += 1
            if evicted_this_round == 0:
                return total
        return total  # backstop hit: a sustained writer outpaced eviction

    def prune(self, keep_salt: Optional[str] = None) -> GCReport:
        """Drop every entry outside one salt generation.

        After a registry change or a :data:`RESULT_SCHEMA_VERSION` bump
        rotates the salt, old-generation entries are unreachable dead
        bytes; this removes them (corrupt entries go too — their
        generation cannot even be determined).  ``keep_salt`` defaults to
        the store's current salt; pass an explicit value to keep a
        different generation instead (``repro store prune --salt``).
        Runs under the store-wide GC lease, like :meth:`gc`.
        """
        return self._collect(keep_salt=keep_salt, max_bytes=None)

    # ------------------------------------------------------------ replication

    def _sync_state_path(self, base_url: str) -> str:
        """The per-remote sync journal file (keyed by hashed base URL)."""
        digest = hashlib.blake2b(base_url.encode("utf-8"),
                                 digest_size=8).hexdigest()
        return os.path.join(self.root, "sync", f"{digest}.json")

    def _load_sync_state(self, base_url: str) -> Dict[str, object]:
        """The saved delta-sync journal of one remote (empty = cold)."""
        try:
            with open(self._sync_state_path(base_url),
                      encoding="utf-8") as f:
                state = json.load(f)
        except (OSError, ValueError):
            return {"clock": 0.0, "keys": []}
        if (not isinstance(state, dict)
                or not isinstance(state.get("clock"), (int, float))
                or not isinstance(state.get("keys"), list)):
            return {"clock": 0.0, "keys": []}
        return state

    def _save_sync_state(self, base_url: str, clock: float,
                         keys: "set[str]") -> None:
        """Atomically journal one remote's sync clock + known key set.

        Saved only after a transfer fully succeeded — a sync that died
        mid-flight must never advance the clock past entries it did not
        actually move.
        """
        path = self._sync_state_path(base_url)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        body = json.dumps({"url": base_url, "clock": clock,
                           "keys": sorted(keys)})
        tmp = f"{path}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as f:
                f.write(body)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def _remote_or_error(self,
                         remote: Optional[Union[str, HTTPBackend]]
                         ) -> HTTPBackend:
        if isinstance(remote, str):
            remote = HTTPBackend(remote)
        remote = remote or self.remote
        if remote is None:
            raise BackendError("no remote tier configured; pass a URL "
                               "(repro store push/pull DIR --remote URL)")
        return remote

    @staticmethod
    def _sync_op(policy: RetryPolicy, describe: str, report: SyncReport,
                 fn):
        """One retried transfer op, failing loudly with partial progress.

        Transient :class:`~repro.scenarios.backends.BackendError` raises
        are retried under ``policy``; once the caps trip, the final error
        carries the :class:`SyncReport` accumulated *so far* — counters
        only ever advanced after an op fully succeeded, so nothing is
        misreported as landed.
        """
        try:
            return policy.call(fn, retry_on=(BackendError,))
        except BackendError as exc:
            raise BackendError(
                f"{describe} failed after {policy.max_attempts} "
                f"attempt(s): {exc}.  Partial progress before the "
                f"failure: {report.as_dict()}",
                partial=report,
            ) from None

    def push(self, remote: Optional[Union[str, HTTPBackend]] = None,
             force: bool = False,
             retry: Optional[RetryPolicy] = None,
             since: Optional[float] = None) -> SyncReport:
        """Publish every live local entry to the remote tier.

        Only entries that verify under the *current* salt travel — a
        stale generation or corrupt file is counted ``rejected`` and left
        for :meth:`gc`.  Keys the remote already *lists* are skipped —
        by presence, not by verifying the remote copy; if a previously
        interrupted transfer left a corrupt copy on the server (clients
        reject it on every read-through), ``force=True`` (``repro store
        push --force``) re-uploads everything and overwrites it.

        Against a delta-capable remote (``GET /keys?since=``) the
        "already listed" check scales: only keys changed since the
        journaled sync clock are listed, merged with the journal's known
        set (``<root>/sync/``, per remote URL), so re-pushing against a
        million-entry hub lists a handful of keys and moves zero bodies.
        ``since`` (``--since``) overrides the journaled clock — ``0``
        relists the hub in full and drops the journal's stale memory,
        the repair path when hub state was lost behind the journal's
        back.  The journal is saved only after the transfer fully
        succeeded.  Older servers without delta listings fall back to
        the full listing transparently.

        Unlike read-through, this is an explicit transfer: each
        listing/upload op is retried under ``retry`` (the unified
        :class:`~repro.scenarios.retry.RetryPolicy`; ``repro store push
        --retries``), and once the policy's caps trip it raises
        :class:`~repro.scenarios.backends.BackendError` whose
        ``partial`` attribute reports exactly what landed first.
        """
        remote = self._remote_or_error(remote)
        policy = retry or sync_retry_policy()
        report = SyncReport()
        lister = getattr(remote, "iter_keys_since", None)
        base_url = getattr(remote, "base_url", None)
        delta_capable = lister is not None and isinstance(base_url, str)
        state = self._load_sync_state(base_url) if delta_capable else None
        # the clock the trailing listing resumes from (force rebuilds the
        # journal from scratch; --since trusts the caller over the journal)
        resync_from = 0.0 if force else (
            float(since) if since is not None
            else float(state["clock"]) if state is not None else 0.0)
        known: "set[str]" = set()
        clock = resync_from
        if not force:
            if delta_capable:
                if since is None:
                    known.update(k for k in state["keys"]
                                 if isinstance(k, str))
                listing = self._sync_op(
                    policy, "listing the remote key delta for push", report,
                    lambda: lister(resync_from))
                if listing is None:  # a pre-delta server: list in full
                    delta_capable = False
                    known = set(self._sync_op(
                        policy, "listing remote keys for push", report,
                        lambda: list(remote.iter_keys())))
                else:
                    delta, clock = listing
                    known.update(delta)
            else:
                known = set(self._sync_op(
                    policy, "listing remote keys for push", report,
                    lambda: list(remote.iter_keys())))
        pushed: "set[str]" = set()
        for key in self.keys():
            report.examined += 1
            # one read serves both verification and upload (no re-read,
            # no vanished-between-check-and-read window)
            data = self._local.get(key)
            payload = self._parse(data, count=False)
            if payload is None or not self._trustworthy(payload, key,
                                                        kind=None,
                                                        count=False):
                report.rejected += 1
                continue
            if key in known:
                report.skipped += 1
                continue
            self._sync_op(policy, f"pushing entry {key}", report,
                          lambda key=key, data=data: remote.put(key, data))
            report.transferred += 1
            pushed.add(key)
        if delta_capable:
            # advance the journal clock past our own uploads (keys only;
            # best-effort — a failure here just re-lists them next time)
            try:
                trailing = lister(resync_from)
            except BackendError:
                trailing = None
            if trailing is not None:
                extra, clock = trailing
                known.update(extra)
            self._save_sync_state(base_url, clock, known | pushed)
        return report

    def pull(self,
             remote: Optional[Union[str, HTTPBackend]] = None,
             retry: Optional[RetryPolicy] = None,
             since: Optional[float] = None) -> SyncReport:
        """Replicate every trustworthy remote entry into the local tier.

        Each remote entry faces full verification — embedded key, current
        salt, checksum — before landing locally; failures count
        ``rejected`` and are never written.  Keys already trustworthy
        locally are skipped.

        Against a delta-capable remote only keys changed since the
        journaled sync clock are even listed (``GET /keys?since=``; the
        journal lives in ``<root>/sync/``, per remote URL, shared with
        :meth:`push`), and fetches of keys whose local copy exists but is
        not live go out conditionally (``If-None-Match`` with the
        content-checksum ETag) — so re-syncing an already-synced hub
        transfers *zero entry bodies*.  ``since`` (``--since``) overrides
        the journaled clock (``0`` = full relist); the journal is saved
        only after the transfer fully succeeded, so a mid-flight death
        never advances the clock past entries that did not land.  Older
        servers without delta listings fall back to the full listing.

        Listing or fetching ops are retried under ``retry`` (the unified
        :class:`~repro.scenarios.retry.RetryPolicy`; ``repro store pull
        --retries``); a server that stays dead mid-transfer then raises
        :class:`~repro.scenarios.backends.BackendError` whose ``partial``
        attribute accounts for every entry that actually landed before
        the death — an explicit transfer must neither silently replicate
        nothing nor misreport a dead server as a pile of rejections.
        """
        remote = self._remote_or_error(remote)
        policy = retry or sync_retry_policy()
        report = SyncReport()
        fetch = getattr(remote, "fetch", remote.get)
        lister = getattr(remote, "iter_keys_since", None)
        base_url = getattr(remote, "base_url", None)
        delta_capable = lister is not None and isinstance(base_url, str)
        state = self._load_sync_state(base_url) if delta_capable else None
        keys: Optional[List[str]] = None
        clock = 0.0
        known: "set[str]" = set()
        if delta_capable:
            start = float(since) if since is not None \
                else float(state["clock"])
            if since is None:
                known.update(k for k in state["keys"] if isinstance(k, str))
            listing = self._sync_op(
                policy, "listing the remote key delta for pull", report,
                lambda: lister(start))
            if listing is None:  # a pre-delta server: list in full
                delta_capable = False
            else:
                keys, clock = listing
        if keys is None:
            keys = self._sync_op(policy, "listing remote keys for pull",
                                 report,
                                 lambda: list(remote.iter_keys()))
        for key in keys:
            report.examined += 1
            if self._classify(key) == "live":
                report.skipped += 1
                continue
            # a non-live local copy still short-circuits identical bytes:
            # the conditional fetch costs headers, not a body (the remote
            # copy would fail the same verification that demoted ours)
            stale_local = self._local.get(key) if delta_capable else None
            if stale_local is not None:
                data = self._sync_op(
                    policy, f"fetching entry {key}", report,
                    lambda key=key, etag=entry_etag(stale_local):
                        fetch(key, etag=etag))
            else:
                data = self._sync_op(policy, f"fetching entry {key}",
                                     report, lambda key=key: fetch(key))
            if data is NOT_MODIFIED:
                self.stats.remote_rejected += 1
                report.rejected += 1  # same bytes we already reject locally
                continue
            if data is None:
                report.skipped += 1  # vanished between listing and fetch
                continue
            payload = self._parse(data, count=False)
            if payload is None or not self._trustworthy(payload, key,
                                                        kind=None,
                                                        count=False):
                self.stats.remote_rejected += 1
                report.rejected += 1
                continue
            self._write_entry(key, data)
            report.transferred += 1
        if delta_capable:
            self._save_sync_state(base_url, clock, known | set(keys))
        return report
