"""Pluggable storage tiers behind the sweep store.

:class:`~repro.scenarios.store.SweepStore` addresses entries by content,
verifies everything it reads, and never trusts a byte it did not checksum.
That discipline makes the *medium* interchangeable: any tier that can move
raw entry bytes by key can back a store, because trust is established by
the reader, not the transport.  This module defines that seam:

* :class:`StoreBackend` — the five-operation protocol every tier provides
  (``get`` / ``put`` / ``delete`` / ``iter_keys`` / ``stat``), moving
  opaque entry bytes by content key;
* :class:`LocalBackend` — the on-disk directory layout
  (``objects/<key[:2]>/<key>.json`` plus ``.last`` LRU sidecars), with
  atomic writes and the per-key / store-wide **lease files** that let
  concurrent writers, GC passes and cross-grid sweeps coordinate;
* :class:`HTTPBackend` — a remote tier over stdlib ``urllib``: reads
  degrade to ``None`` on *any* transport trouble (unreachable host,
  timeout, mid-body truncation), so a flaky remote can cost a cache miss
  but never a crash;
* :class:`HTTPHandlerBase` / :class:`HTTPServerBase` — the one stdlib
  ``http.server`` shell (response framing, body framing, ``Bearer``
  auth, bind / serve / shutdown) that both repro HTTP surfaces
  subclass;
* :class:`StoreServer` — the matching front end (``repro store serve``)
  publishing a local store to other hosts, now a *coordination plane*:
  server-held compute leases (``POST /leases/<key>``), delta key
  listings (``GET /keys?since=``),
  checksum-``ETag`` conditional GETs, a ``GET /stats`` operability
  probe, and an optional token-authenticated admin mode gating
  ``PUT``/``DELETE``;
* :class:`FileLease` — an advisory lock file with
  acquire / steal-after-stale / release semantics.  Theft favours
  liveness: because entries are content-addressed and recomputable, the
  worst case of a misjudged steal is duplicated work, never a wrong
  result;
* :class:`RemoteLease` / :class:`ComputeLease` — the cross-host mirror
  of :class:`FileLease`: a server-held per-key claim (token-checked,
  steal-after-stale) layered over the local lease so N hosts sharing one
  hub compute each identical cell exactly once anywhere.  The remote
  layer *fails open*: an unreachable or pre-lease hub degrades to
  local-only coordination, never to a stuck sweep.

The written contract — which operations each backend must make atomic,
the read-through/write-back order, the lease lifecycle — lives in
``docs/store-backends.md`` and is drift-checked by tests.
"""

import collections
import hashlib
import hmac
import json
import os
import re
import secrets
import tempfile
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass
from email.message import Message
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import (Dict, Iterator, List, Optional, Protocol, Tuple,
                    runtime_checkable)

from repro.common.errors import DaydreamError
from repro.common.prng import stable_hash
from repro.scenarios.retry import BackoffState, RetryPolicy

#: a lease file untouched for this long is presumed dead and may be stolen
LEASE_STEAL_SECONDS = 120.0

#: content keys are 32 lowercase hex chars (blake2b-128); both the server
#: and the backends refuse anything else before touching the filesystem
KEY_RE = re.compile(r"^[0-9a-f]{32}$")

#: the server refuses PUT bodies larger than this (64 MiB) outright — a
#: sweep entry is a few KiB of JSON, so anything near the cap is a broken
#: or hostile client, not a result
MAX_BODY_BYTES = 64 << 20


def _json_or_none(body: bytes) -> object:
    """A JSON answer body, or ``None`` when it does not parse."""
    try:
        return json.loads(body.decode("utf-8"))
    except ValueError:
        return None


class HTTPHandlerBase(BaseHTTPRequestHandler):
    """The request-handler base of every repro HTTP surface.

    :class:`StoreServer` and
    :class:`~repro.scenarios.service.PredictServer` handlers share one
    response shape (:meth:`_send` / :meth:`_send_json`), one body-framing
    check (:meth:`_read_body`), one auth check (:meth:`_authorized`) and
    silent per-request logging; each subclass adds only its routes and
    its ``server_version``.
    """

    # set by the server on the subclass it builds per server instance
    auth_token: Optional[str] = None

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        """Silence per-request stderr logging (the CLI prints a summary)."""

    def _send(self, code: int, body: bytes = b"",
              content_type: str = "application/json",
              etag: Optional[str] = None) -> None:
        """One framed response (no body bytes on a ``HEAD``)."""
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if etag is not None:
            self.send_header("ETag", f'"{etag}"')
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def _send_json(self, code: int, payload: object) -> None:
        """One JSON response."""
        self._send(code, json.dumps(payload).encode("utf-8"))

    def _read_body(self, cap: int = MAX_BODY_BYTES
                   ) -> Tuple[Optional[bytes], Optional[int]]:
        """Read the request body, validated against its declared length.

        Returns ``(data, None)`` on success.  On a framing problem the
        error response has *already been sent* and ``(None, status)``
        reports which: a missing/unparseable/negative ``Content-Length``
        is a 400, a declared length over ``cap`` is a 413 (refused before
        reading a byte), and a client that died mid-upload leaving fewer
        bytes than declared is a 400 — a short read must never be
        processed as a whole body.
        """
        raw = self.headers.get("Content-Length")
        try:
            length = int(raw) if raw is not None else -1
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            self._send(400, b'{"error": "bad content-length"}')
            return None, 400
        if length > cap:
            self.close_connection = True
            self._send(413, b'{"error": "body too large"}')
            return None, 413
        data = self.rfile.read(length)
        if len(data) != length:
            self.close_connection = True  # the stream is now unframed
            self._send(400, b'{"error": "body shorter than declared"}')
            return None, 400
        return data, None

    def _authorized(self) -> bool:
        """Whether the ``Authorization`` header satisfies ``auth_token``.

        The store server's admin mode and the prediction service's
        request gating: with no token configured every request passes;
        otherwise the header must carry the matching ``Bearer`` token,
        compared constant-time so a wrong token leaks nothing about the
        right one.
        """
        if not self.auth_token:
            return True
        header = self.headers.get("Authorization") or ""
        presented = header[len("Bearer "):] \
            if header.startswith("Bearer ") else ""
        return hmac.compare_digest(presented, self.auth_token)


class HTTPServerBase:
    """One :class:`http.server.ThreadingHTTPServer`, bound and served.

    The shell shared by :class:`StoreServer` and
    :class:`~repro.scenarios.service.PredictServer`: a subclass builds its
    bound handler class and passes it in with a bind address and a port
    (``0`` picks a free one).  Then either :meth:`serve` in the
    foreground — optionally for a bounded ``duration`` — or :meth:`start`
    a daemon thread and :meth:`shutdown` later (what the tests do).  A
    bind failure raises :class:`BackendError` naming the server's
    ``label``.
    """

    #: how a bind failure names this server
    label = "server"

    def __init__(self, handler: type, host: str, port: int) -> None:
        try:
            self._server = ThreadingHTTPServer((host, port), handler)
        except OSError as exc:
            raise BackendError(
                f"cannot bind {self.label} to {host}:{port}: {exc}"
            ) from None
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        """The bound host address."""
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        """The base URL clients talk to."""
        return f"http://{self.host}:{self.port}"

    def serve(self, duration_s: Optional[float] = None) -> None:
        """Serve in the foreground, forever or for ``duration_s`` seconds."""
        if duration_s is not None:
            timer = threading.Timer(duration_s, self._server.shutdown)
            timer.daemon = True
            timer.start()
        try:
            self._server.serve_forever(poll_interval=0.05)
        finally:
            self._server.server_close()

    def start(self) -> "HTTPServerBase":
        """Serve on a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.05},
                                        daemon=True)
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop a :meth:`start`-ed server and release its socket."""
        self._server.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "HTTPServerBase":
        """Start serving on entry to a ``with`` block."""
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        """Shut the server down on exit."""
        self.shutdown()


class _NotModified:
    """Singleton sentinel: a conditional fetch matched the caller's ETag."""

    def __repr__(self) -> str:
        return "NOT_MODIFIED"


#: returned by :meth:`HTTPBackend.fetch` when the server answered 304 —
#: the remote copy is byte-identical to the ETag the caller already holds
NOT_MODIFIED = _NotModified()


def entry_etag(data: bytes) -> str:
    """The ETag of one entry body: a short content checksum.

    Free with content addressing — identical bytes always hash identically
    — so conditional GETs (``If-None-Match``) can skip transferring bodies
    both sides already hold.
    """
    return hashlib.blake2b(data, digest_size=8).hexdigest()


class BackendError(DaydreamError):
    """An explicit backend transfer (push, pull, serve) failed.

    Read-through reads never raise this — a failing read is a miss — but
    commands that *must* move bytes (``repro store push``/``pull``) fail
    loudly instead of silently publishing nothing.  When the failure
    interrupted a multi-entry transfer, ``partial`` carries the
    :class:`~repro.scenarios.store.SyncReport` accumulated *before* the
    failure — an accurate account of what actually landed, so a dead
    server is never misreported as a pile of rejected entries.
    """

    def __init__(self, message: str, partial: object = None) -> None:
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class EntryStat:
    """What :meth:`StoreBackend.stat` reports about one stored entry.

    ``mtime`` is optional: remote tiers know an entry's size (from
    ``Content-Length``) but not its modification time, and fabricating
    ``0.0`` would poison any age-based decision downstream.
    """

    size: int
    mtime: Optional[float] = None


@runtime_checkable
class StoreBackend(Protocol):
    """The five operations a sweep-store tier must provide.

    Backends move *opaque bytes* by content key; all verification (key,
    salt, checksum) happens in :class:`~repro.scenarios.store.SweepStore`,
    so an untrusted or corrupt tier can cost a miss but never serve a
    wrong value.  ``docs/store-backends.md`` specifies which of these
    operations each backend must make atomic.
    """

    def get(self, key: str) -> Optional[bytes]:
        """Raw entry bytes for ``key``, or ``None`` if absent/unreadable."""
        ...

    def put(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key`` (atomically: all bytes or none)."""
        ...

    def delete(self, key: str) -> None:
        """Remove the entry for ``key`` (idempotent; absent is fine)."""
        ...

    def iter_keys(self) -> Iterator[str]:
        """Every content key this tier currently holds."""
        ...

    def stat(self, key: str) -> Optional[EntryStat]:
        """Size/mtime of the entry for ``key``, or ``None`` if absent."""
        ...


# --------------------------------------------------------------------- leases


class FileLease:
    """An advisory lock file with acquire / steal-after-stale / release.

    The lease file holds an owner token; creation with ``O_EXCL`` is the
    acquisition.  A lease whose mtime is older than ``steal_after``
    seconds is presumed abandoned (crashed holder) and may be stolen: the
    stealer atomically replaces the file with its own token and confirms
    ownership by reading it back.  Two simultaneous stealers can, in a
    narrow window, both believe they won — acceptable by design, because
    every lease in this package guards *recomputable, content-addressed*
    work: a misjudged steal duplicates effort, it never corrupts state.

    Live holders doing long work should :meth:`refresh` periodically so
    waiting peers do not steal a lease that is merely slow.
    """

    def __init__(self, path: str,
                 steal_after: float = LEASE_STEAL_SECONDS) -> None:
        self.path = os.fspath(path)
        self.steal_after = steal_after
        self.owned = False
        self._token = f"{os.getpid()}:{time.monotonic_ns()}"

    def try_acquire(self) -> bool:
        """One non-blocking acquisition attempt (stealing if stale)."""
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return self._steal_if_stale()
        except OSError:
            return False
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(self._token)
        self.owned = True
        return True

    def _steal_if_stale(self) -> bool:
        """Replace a stale lease with our token; confirm by read-back."""
        try:
            age = time.time() - os.stat(self.path).st_mtime
        except OSError:
            return False  # vanished mid-check; next try_acquire gets it
        if age <= self.steal_after:
            return False
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(self.path),
                                       suffix=".steal")
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.write(self._token)
            os.replace(tmp, self.path)
            tmp = None  # consumed by the replace
            with open(self.path, encoding="utf-8") as f:
                won = f.read() == self._token
        except OSError:
            return False
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        self.owned = won
        return won

    def acquire(self, timeout: float, poll_s: float = 0.02) -> bool:
        """Poll :meth:`try_acquire` for up to ``timeout`` seconds."""
        deadline = time.monotonic() + timeout
        while True:
            if self.try_acquire():
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(poll_s)

    def refresh(self) -> None:
        """Re-stamp the lease mtime so waiting peers do not steal it."""
        if self.owned:
            try:
                os.utime(self.path, None)
            except OSError:
                pass

    def release(self) -> None:
        """Give the lease up — only if we still own it (not stolen)."""
        if not self.owned:
            return
        self.owned = False
        try:
            with open(self.path, encoding="utf-8") as f:
                if f.read() != self._token:
                    return  # stolen from us; the new owner keeps the file
            os.unlink(self.path)
        except OSError:
            pass

    def held_by_other(self) -> bool:
        """Whether someone else currently holds a *fresh* lease here."""
        if self.owned:
            return False
        try:
            age = time.time() - os.stat(self.path).st_mtime
        except OSError:
            return False
        return age <= self.steal_after

    def __enter__(self) -> "FileLease":
        """Context-manager entry (the caller has already acquired)."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Release on context exit."""
        self.release()


# ----------------------------------------------------------------- local tier


class LocalBackend:
    """The on-disk tier: one JSON file per entry, sharded by key prefix.

    Layout under ``<root>/objects/``:

    * ``<key[:2]>/<key>.json`` — the entry (atomic ``os.replace`` writes);
    * ``<key[:2]>/<key>.last`` — zero-byte LRU sidecar (mtime = last serve);
    * ``<key[:2]>/<key>.lease`` — per-key write/compute lease;
    * ``<root>/gc.lease`` — the store-wide GC lease.

    ``put`` is atomic (temp file + ``os.replace``); ``delete`` and
    sidecar touches are idempotent and best-effort.  Lease and sidecar
    files are bookkeeping, not content: :meth:`total_bytes` counts
    entries, sidecars and abandoned temp files, but never lease files, so
    byte budgets are about results, not coordination overhead.
    """

    def __init__(self, root: str) -> None:
        self.root = os.fspath(root)

    @property
    def objects_dir(self) -> str:
        """The sharded entry directory under the store root."""
        return os.path.join(self.root, "objects")

    def path_for(self, key: str) -> str:
        """The entry file backing one content key."""
        return os.path.join(self.objects_dir, key[:2], f"{key}.json")

    def served_path_for(self, key: str) -> str:
        """The ``last_served`` LRU sidecar of one content key."""
        return os.path.join(self.objects_dir, key[:2], f"{key}.last")

    def lease_path_for(self, key: str) -> str:
        """The per-key lease file of one content key."""
        return os.path.join(self.objects_dir, key[:2], f"{key}.lease")

    # ------------------------------------------------------------- protocol

    def get(self, key: str) -> Optional[bytes]:
        """Raw entry bytes, or ``None`` if absent or unreadable."""
        try:
            with open(self.path_for(key), "rb") as f:
                return f.read()
        except OSError:
            return None

    def put(self, key: str, data: bytes) -> None:
        """Atomically write one entry (temp file + ``os.replace``)."""
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   prefix=f".{key[:8]}-", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def delete(self, key: str) -> int:
        """Remove one entry and its sidecar; returns the bytes freed."""
        freed = 0
        for path in (self.path_for(key), self.served_path_for(key)):
            try:
                freed += os.stat(path).st_size
                os.unlink(path)
            except OSError:
                pass
        return freed

    def delete_entry(self, key: str) -> bool:
        """Atomically remove one entry file; ``True`` iff *we* removed it.

        Unlike :meth:`delete` this reports whether the unlink actually
        happened here, so two racing deleters cannot both claim success
        (the ``do_DELETE`` handler's honesty guarantee).  The sidecar is
        cleaned up best-effort either way.
        """
        removed = False
        try:
            os.unlink(self.path_for(key))
            removed = True
        except OSError:
            pass
        try:
            os.unlink(self.served_path_for(key))
        except OSError:
            pass
        return removed

    def iter_keys(self) -> Iterator[str]:
        """Every content key currently on disk (unvalidated), sorted."""
        objects = self.objects_dir
        if not os.path.isdir(objects):
            return
        for shard in sorted(os.listdir(objects)):
            shard_dir = os.path.join(objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json"):
                    yield name[:-len(".json")]

    def stat(self, key: str) -> Optional[EntryStat]:
        """Size and mtime of one entry file, or ``None`` if absent."""
        try:
            st = os.stat(self.path_for(key))
        except OSError:
            return None
        return EntryStat(size=st.st_size, mtime=st.st_mtime)

    # ------------------------------------------------------------ lifecycle

    def touch_served(self, key: str) -> None:
        """Refresh the LRU clock of one entry (best-effort)."""
        sidecar = self.served_path_for(key)
        try:
            with open(sidecar, "a", encoding="utf-8"):
                pass
            os.utime(sidecar, None)
        except OSError:
            pass  # a read-only or racing store never fails a serve

    def last_served(self, key: str) -> Optional[float]:
        """When the entry was last served (sidecar mtime, else entry
        mtime, else ``None`` for a missing entry)."""
        for path in (self.served_path_for(key), self.path_for(key)):
            try:
                return os.stat(path).st_mtime
            except OSError:
                continue
        return None

    def entry_bytes(self, key: str) -> int:
        """On-disk size of one entry plus its sidecar."""
        size = 0
        for path in (self.path_for(key), self.served_path_for(key)):
            try:
                size += os.stat(path).st_size
            except OSError:
                pass
        return size

    def total_bytes(self) -> int:
        """Bytes under ``objects/``: entries, sidecars and temp files.

        Lease files are excluded — they are transient coordination state,
        and byte budgets (``gc --max-bytes``) are contracts about stored
        *results*, not about locks.
        """
        total = 0
        for dirpath, _dirnames, filenames in os.walk(self.objects_dir):
            for name in filenames:
                if name.endswith((".lease", ".steal")):
                    continue
                try:
                    total += os.stat(os.path.join(dirpath, name)).st_size
                except OSError:
                    pass
        return total

    def remove_abandoned(self, grace_s: float) -> int:
        """Delete temp and lease files untouched for ``grace_s`` seconds.

        Young ones are left alone: a concurrent writer may be about to
        ``os.replace`` a temp file into place, and a fresh lease has a
        live holder.
        """
        removed = 0
        cutoff = time.time() - grace_s
        for dirpath, _dirnames, filenames in os.walk(self.objects_dir):
            for name in filenames:
                if not name.endswith((".tmp", ".lease", ".steal")):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    if os.stat(path).st_mtime < cutoff:
                        os.unlink(path)
                        if name.endswith(".tmp"):
                            removed += 1
                except OSError:
                    pass
        return removed

    # --------------------------------------------------------------- leases

    def lease(self, key: str,
              steal_after: float = LEASE_STEAL_SECONDS) -> FileLease:
        """The per-key lease of one content key (not yet acquired)."""
        return FileLease(self.lease_path_for(key), steal_after=steal_after)

    def gc_lease(self,
                 steal_after: float = LEASE_STEAL_SECONDS) -> FileLease:
        """The store-wide lease serializing GC/prune passes."""
        return FileLease(os.path.join(self.root, "gc.lease"),
                         steal_after=steal_after)

    def lease_held(self, key: str,
                   steal_after: float = LEASE_STEAL_SECONDS) -> bool:
        """Whether a fresh per-key lease exists (a live writer/computer)."""
        try:
            age = time.time() - os.stat(self.lease_path_for(key)).st_mtime
        except OSError:
            return False
        return age <= steal_after


# ---------------------------------------------------------------- remote tier


class HTTPBackend:
    """A remote sweep-store tier spoken over plain HTTP (stdlib only).

    Endpoints (served by :class:`StoreServer`):

    * ``GET /objects/<key>.json`` — entry bytes (404 when absent);
    * ``HEAD /objects/<key>.json`` — existence/size probe;
    * ``PUT /objects/<key>.json`` — publish one entry (``repro store
      push``); the server sanity-checks that the body's embedded key
      matches the path;
    * ``DELETE /objects/<key>.json`` — drop one entry;
    * ``GET /keys`` — JSON list of every key the server holds.

    Every verb goes through one private exchange (:meth:`_exchange`),
    the only ``urlopen`` call site, so the down-window bookkeeping below
    holds for all of them alike.  :meth:`get` and :meth:`stat` are
    *read-through safe*: any transport trouble — connection refused, DNS
    failure, timeout, a response body shorter than its
    ``Content-Length`` — returns ``None``, so the calling store records a
    miss and re-simulates.  A transport-level failure of **any** verb
    also marks the remote *down*: reads within the down window
    return ``None`` immediately, so an unreachable server costs one
    timeout per window, not one per grid cell.  The window is governed by
    the unified :class:`~repro.scenarios.retry.RetryPolicy` (``retry``),
    not a flat constant: consecutive failures escalate it exponentially
    (with deterministic seeded jitter, keyed by the base URL so replicas
    de-synchronize), and any success resets the streak — a briefly-flaky
    remote recovers on the next read while a dead one is probed
    geometrically less often.  ``backoff_s`` seeds the policy's base
    delay for back-compatibility.  (An HTTP error status is a *reachable*
    server answering — 404 is an ordinary miss — and never arms the
    backoff.)  **Any** answered exchange — reads *and* explicit
    transfers — resets the streak and clears the down window, so a
    remote that answers a ``push`` is immediately readable again.
    Explicit transfers (:meth:`fetch`, :meth:`put`, :meth:`delete`,
    :meth:`iter_keys`, :meth:`iter_keys_since`, :meth:`stats`) raise
    :class:`BackendError` instead of degrading: ``push``/``pull`` must
    fail loudly, not publish silence.

    ``auth_token`` (``--auth-token``) is sent as a ``Bearer`` token on
    every request; servers run in admin mode require it on
    ``PUT``/``DELETE``.  ``journal`` counts every exchange by verb plus
    ``entry_bodies`` (bodies actually transferred) and
    ``fetch_not_modified`` (304s) — how the delta-sync tests prove an
    already-synced hub moves zero bytes.
    """

    def __init__(self, base_url: str, timeout_s: float = 5.0,
                 backoff_s: float = 30.0,
                 retry: Optional[RetryPolicy] = None,
                 auth_token: Optional[str] = None) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.backoff_s = backoff_s
        self.auth_token = auth_token
        if retry is None:
            retry = RetryPolicy(max_attempts=6, base_delay_s=backoff_s,
                                multiplier=2.0, max_delay_s=backoff_s * 16,
                                jitter=0.1,
                                seed=stable_hash(self.base_url))
        self.retry = retry
        self._backoff = BackoffState(policy=retry)
        self._down_until = 0.0
        #: per-verb exchange counters (see class docstring)
        self.journal: "collections.Counter[str]" = collections.Counter()

    def _reachable(self) -> bool:
        """Whether the down-backoff window allows a network attempt."""
        return time.time() >= self._down_until

    def _mark_down(self) -> None:
        """Escalate the down window along the retry policy's schedule."""
        self._backoff, window = self._backoff.after_failure()
        self._down_until = time.time() + window

    def _mark_up(self) -> None:
        """The remote answered: reset the streak AND clear the window.

        Clearing ``_down_until`` matters as much as resetting the streak —
        any answered exchange (an explicit ``put``/``delete``/``fetch``/
        ``iter_keys`` included) inside a down window proves the remote is
        back, and leaving the window armed would keep ``get``/``stat``
        blind for its remainder.
        """
        self._backoff = self._backoff.after_success()
        self._down_until = 0.0

    def _exchange(self, method: str, url: str, data: Optional[bytes] = None,
                  headers: Optional[Dict[str, str]] = None
                  ) -> Tuple[int, bytes, Message]:
        """One HTTP round trip — the only network call site of this tier.

        Attaches the ``Bearer`` token when one is set and returns
        ``(status, body, headers)``.  An error status is a *reachable*
        server answering (its body is dropped), so it resets the down
        window exactly like a success; every verb then maps the status to
        its own return value.  A transport failure — connection refused,
        DNS, timeout, a body shorter than its ``Content-Length`` — arms
        the down window and raises :class:`BackendError`.
        """
        req = urllib.request.Request(url, data=data, method=method)
        if self.auth_token:
            req.add_header("Authorization", f"Bearer {self.auth_token}")
        for name, value in (headers or {}).items():
            req.add_header(name, value)
        try:
            with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
                answer = (resp.status, resp.read(), resp.headers)
        except urllib.error.HTTPError as exc:
            answer = (exc.code, b"", exc.headers)
        except Exception as exc:
            self._mark_down()
            raise BackendError(str(exc)) from None
        self._mark_up()
        return answer

    def _transfer(self, what: str, method: str, url: str,
                  data: Optional[bytes] = None,
                  headers: Optional[Dict[str, str]] = None,
                  allow: Tuple[int, ...] = ()) -> Tuple[int, bytes]:
        """One explicit exchange: ``(status, body)`` or a loud failure.

        Raises :class:`BackendError` ``"cannot <what>: ..."`` on transport
        trouble and on any error status not listed in ``allow``.
        """
        try:
            status, body, _headers = self._exchange(method, url, data, headers)
        except BackendError as exc:
            raise BackendError(f"cannot {what}: {exc}") from None
        if status >= 300 and status not in allow:
            raise BackendError(f"cannot {what}: HTTP Error {status}")
        return status, body

    def url_for(self, key: str) -> str:
        """The entry URL of one content key."""
        if not KEY_RE.match(key):
            raise BackendError(f"malformed content key {key!r}")
        return f"{self.base_url}/objects/{key}.json"

    def get(self, key: str) -> Optional[bytes]:
        """Entry bytes from the remote, or ``None`` on any trouble."""
        if not self._reachable():
            return None
        self.journal["get"] += 1
        url = self.url_for(key)  # a malformed key is a caller bug: raises
        try:
            status, data, _headers = self._exchange("GET", url)
        except BackendError:
            return None  # unreachable/timeout/truncation: a miss, never a crash
        if status >= 300:
            return None  # a reachable server saying no: ordinary miss
        self.journal["entry_bodies"] += 1
        return data

    def fetch(self, key: str, etag: Optional[str] = None):
        """Entry bytes for an *explicit* transfer: loud, unlike :meth:`get`.

        Returns ``None`` only when a reachable server answers 404 (the
        entry vanished between listing and fetching); any transport
        trouble raises :class:`BackendError`, so ``repro store pull``
        cannot silently misreport a dead server as a pile of rejected
        entries.  With ``etag`` (from :func:`entry_etag` over bytes the
        caller already holds) the request is conditional: a 304 answer
        returns the :data:`NOT_MODIFIED` sentinel without moving a body.
        """
        self.journal["fetch"] += 1
        headers = {"If-None-Match": f'"{etag}"'} if etag else None
        status, data = self._transfer(f"fetch {key} from {self.base_url}",
                                      "GET", self.url_for(key),
                                      headers=headers, allow=(304, 404))
        if status == 304:
            self.journal["fetch_not_modified"] += 1
            return NOT_MODIFIED
        if status == 404:
            return None
        self.journal["entry_bodies"] += 1
        return data

    def put(self, key: str, data: bytes) -> None:
        """Publish one entry to the remote (raises on any failure)."""
        self.journal["put"] += 1
        self._transfer(f"publish {key} to {self.base_url}", "PUT",
                       self.url_for(key), data=data)
        self.journal["entry_bodies"] += 1

    def delete(self, key: str) -> None:
        """Drop one remote entry (raises on any failure but 404)."""
        self.journal["delete"] += 1
        self._transfer(f"delete {key} from {self.base_url}", "DELETE",
                       self.url_for(key), allow=(404,))

    def iter_keys(self) -> Iterator[str]:
        """Every key the remote holds (raises if it cannot be listed)."""
        self.journal["iter_keys"] += 1
        _status, body = self._transfer(f"list keys of {self.base_url}",
                                       "GET", f"{self.base_url}/keys")
        keys = _json_or_none(body)
        if not isinstance(keys, list):
            raise BackendError(f"{self.base_url}/keys did not return a list")
        return iter([k for k in keys if isinstance(k, str)
                     and KEY_RE.match(k)])

    def iter_keys_since(self, since: float
                        ) -> Optional[Tuple[List[str], float]]:
        """Delta key listing: keys changed at-or-after ``since``.

        Returns ``(keys, clock)`` where ``clock`` is the server's current
        sync clock (pass it back as the next ``since``), or ``None`` when
        the server predates delta listings (callers fall back to the full
        :meth:`iter_keys`).  Raises :class:`BackendError` on transport
        trouble or a malformed answer, like every explicit transfer.
        The boundary is inclusive — a key stamped exactly at ``since`` is
        re-listed — so the clock can never skip an entry written in the
        same instant the previous scan ended.
        """
        self.journal["iter_keys_since"] += 1
        url = (f"{self.base_url}/keys?"
               + urllib.parse.urlencode({"since": repr(float(since))}))
        status, body = self._transfer(f"list key delta of {self.base_url}",
                                      "GET", url, allow=(404,))
        if status == 404:
            return None  # a pre-delta server: callers list in full
        payload = _json_or_none(body)
        if (not isinstance(payload, dict)
                or not isinstance(payload.get("keys"), list)
                or not isinstance(payload.get("clock"), (int, float))):
            raise BackendError(
                f"{self.base_url}/keys?since= returned a malformed delta")
        keys = [k for k in payload["keys"]
                if isinstance(k, str) and KEY_RE.match(k)]
        return keys, float(payload["clock"])

    def stat(self, key: str) -> Optional[EntryStat]:
        """Remote entry size via ``HEAD``, or ``None`` on any trouble.

        A reachable server whose answer lacks a parseable non-negative
        ``Content-Length`` is treated as a miss — fabricating
        ``size=0`` would silently corrupt remote byte accounting — and
        ``mtime`` is left unset (HTTP does not report it).
        """
        if not self._reachable():
            return None
        self.journal["stat"] += 1
        url = self.url_for(key)
        try:
            status, _body, headers = self._exchange("HEAD", url)
        except BackendError:
            return None
        if status >= 300:
            return None
        raw = headers.get("Content-Length")
        try:
            size = int(raw) if raw is not None else -1
        except ValueError:
            return None
        if size < 0:
            return None
        return EntryStat(size=size)

    def stats(self) -> Dict[str, object]:
        """The server's ``GET /stats`` operability payload (loud)."""
        self.journal["stats"] += 1
        _status, body = self._transfer(f"read stats of {self.base_url}",
                                       "GET", f"{self.base_url}/stats")
        payload = _json_or_none(body)
        if not isinstance(payload, dict):
            raise BackendError(f"{self.base_url}/stats did not return a dict")
        return payload

    # ------------------------------------------------------ lease plane

    def lease_request(self, key: str, verb: str,
                      token: Optional[str] = None
                      ) -> Tuple[str, Optional[str]]:
        """One lease verb against the coordination plane.

        Returns ``(status, token)`` where status is one of ``"granted"``
        (claim won; token carried), ``"denied"`` (a live holder exists, or
        the token check failed), ``"ok"`` (refresh/release accepted) or
        ``"unavailable"`` (unreachable, read-only, or a server predating
        the lease endpoints).  Never raises: lease coordination is an
        optimization, and its failure mode is duplicated work, not a
        stuck sweep.
        """
        if not KEY_RE.match(key) or not self._reachable():
            return "unavailable", None
        self.journal[f"lease_{verb}"] += 1
        body = json.dumps({"verb": verb, "token": token}).encode("utf-8")
        try:
            status, answer, _headers = self._exchange(
                "POST", f"{self.base_url}/leases/{key}", data=body,
                headers={"Content-Type": "application/json"})
        except BackendError:
            return "unavailable", None
        if status == 409:
            return "denied", None
        payload = _json_or_none(answer)
        if status >= 300 or not isinstance(payload, dict):
            return "unavailable", None  # 404/403/501: no lease plane here
        if verb != "claim":
            return "ok", None
        token = payload.get("token")
        if payload.get("granted") and isinstance(token, str):
            return "granted", token
        return "denied", None

    def lease(self, key: str) -> "RemoteLease":
        """The server-held compute lease of one key (not yet claimed)."""
        return RemoteLease(self, key)


class RemoteLease:
    """A server-held per-key compute claim on the coordination plane.

    Mirrors :class:`FileLease` semantics over HTTP: ``claim`` is the
    O_EXCL-equivalent acquisition (the server grants exactly one token
    per key at a time), a claim untouched past the server's steal window
    may be stolen, ``refresh`` re-stamps it, and ``release`` is
    token-checked so a stolen claim cannot be released by its old owner.

    The remote layer **fails open**: when the hub is unreachable,
    read-only, or predates the lease endpoints, :meth:`try_acquire`
    reports failure with ``unavailable=True`` and callers (see
    :class:`ComputeLease`) degrade to local-only coordination — the
    worst case is duplicated work across hosts, never a stuck sweep.
    """

    def __init__(self, backend: HTTPBackend, key: str) -> None:
        self.backend = backend
        self.key = key
        self.owned = False
        #: the last acquisition attempt could not reach a lease plane
        self.unavailable = False
        self._token: Optional[str] = None

    def try_acquire(self) -> bool:
        """One non-blocking claim attempt against the server."""
        status, token = self.backend.lease_request(self.key, "claim")
        if status == "granted":
            self.owned = True
            self.unavailable = False
            self._token = token
            return True
        self.owned = False
        self.unavailable = status != "denied"
        return False

    def refresh(self) -> None:
        """Re-stamp the claim so waiting hosts do not steal it.

        A 409 means the claim was stolen (our token no longer matches);
        we drop ownership and keep computing — both holders will publish
        byte-identical, content-addressed results.  Transport trouble is
        ignored: refresh is best-effort liveness signalling.
        """
        if not self.owned:
            return
        status, _ = self.backend.lease_request(self.key, "refresh",
                                               self._token)
        if status == "denied":
            self.owned = False

    def release(self) -> None:
        """Give the claim up — token-checked, best-effort, idempotent."""
        if not self.owned:
            return
        self.owned = False
        self.backend.lease_request(self.key, "release", self._token)


class ComputeLease:
    """One cell's compute claim across tiers: local file + remote server.

    :meth:`~repro.scenarios.store.SweepStore.compute_lease` always hands
    out this type; ``remote`` is ``None`` when the store's remote tier
    has no lease plane (or there is no remote), and the claim is then
    exactly the local :class:`FileLease`.  Acquisition is local-first:
    the :class:`FileLease` dedupes sweeps sharing a filesystem exactly as
    before, and only a locally-won claim is escalated to the hub's lease
    plane.  A remote *denial* (another host is computing this cell)
    releases the local lease and reports failure, so the cell is deferred
    and later served from the hub; a remote that is merely *unavailable*
    keeps the locally-won claim — cross-host coordination fails open to
    single-host behaviour.  ``remote_owned`` tells
    :func:`~repro.scenarios.batch.run_batch` whether the computed entry
    should be published to the hub at record time (the exactly-once
    handshake: publish precedes release).
    """

    def __init__(self, local: FileLease,
                 remote: Optional[RemoteLease] = None) -> None:
        self.local = local
        self.remote = remote

    @property
    def owned(self) -> bool:
        """Whether the local tier's claim is held (gates store writes)."""
        return self.local.owned

    @property
    def remote_owned(self) -> bool:
        """Whether the hub granted this cell's cross-host claim."""
        return self.remote is not None and self.remote.owned

    def try_acquire(self) -> bool:
        """Claim locally, then escalate to the hub; fail open if it's gone."""
        if not self.local.try_acquire():
            return False
        if self.remote is not None:
            if not self.remote.try_acquire() and not self.remote.unavailable:
                self.local.release()  # another host is computing this cell
                return False
        return True

    def refresh(self) -> None:
        """Re-stamp both tiers' claims (best-effort)."""
        self.local.refresh()
        if self.remote is not None:
            self.remote.refresh()

    def release(self) -> None:
        """Release the remote claim first, then the local lease."""
        if self.remote is not None:
            self.remote.release()
        self.local.release()


class _LeaseTable:
    """Server-held per-key compute leases (the coordination plane).

    The in-memory mirror of :class:`FileLease`: claiming an unheld (or
    stale) key atomically installs a fresh random token under one lock —
    the O_EXCL equivalent — and refresh/release are token-checked with a
    constant-time compare.  State is deliberately ephemeral: a hub
    restart forgets every claim, which merely lets hosts re-claim work
    already in flight — duplicated effort, never a wrong result.
    """

    def __init__(self, steal_after: float = LEASE_STEAL_SECONDS) -> None:
        self.steal_after = steal_after
        self._lock = threading.Lock()
        #: key -> (token, last-refresh timestamp)
        self._held: Dict[str, Tuple[str, float]] = {}
        self.claims = 0
        self.steals = 0

    def _matches(self, current: Tuple[str, float],
                 token: Optional[str]) -> bool:
        return (isinstance(token, str)
                and hmac.compare_digest(current[0], token))

    def claim(self, key: str) -> Optional[str]:
        """Claim ``key``: a fresh token, or ``None`` if a live holder exists."""
        now = time.time()
        with self._lock:
            current = self._held.get(key)
            if current is not None and now - current[1] <= self.steal_after:
                return None
            token = secrets.token_hex(16)
            if current is not None:
                self.steals += 1  # stale holder: stolen, like FileLease
            self._held[key] = (token, now)
            self.claims += 1
            return token

    def refresh(self, key: str, token: Optional[str]) -> bool:
        """Re-stamp a held claim; ``False`` if it was stolen or released."""
        with self._lock:
            current = self._held.get(key)
            if current is None or not self._matches(current, token):
                return False
            self._held[key] = (current[0], time.time())
            return True

    def release(self, key: str, token: Optional[str]) -> bool:
        """Drop a held claim; ``False`` if it was stolen or already gone."""
        with self._lock:
            current = self._held.get(key)
            if current is None or not self._matches(current, token):
                return False
            del self._held[key]
            return True

    def backdate(self, key: str, age_s: float) -> None:
        """Age a claim's refresh stamp (test hook for steal-after-stale)."""
        with self._lock:
            current = self._held.get(key)
            if current is not None:
                self._held[key] = (current[0], time.time() - age_s)

    def __len__(self) -> int:
        """How many *live* (unexpired) claims are currently held."""
        now = time.time()
        with self._lock:
            return sum(1 for _token, stamp in self._held.values()
                       if now - stamp <= self.steal_after)


class _StoreHTTPHandler(HTTPHandlerBase):
    """Request handler bridging the HTTP surface onto a LocalBackend."""

    # set by StoreServer on the subclass it builds per server instance
    backend: LocalBackend
    read_only: bool = False
    leases: _LeaseTable
    started_at: float = 0.0
    server_version = "repro-store/1"

    def _key_from_path(self, path: Optional[str] = None) -> Optional[str]:
        match = re.match(r"^/objects/([0-9a-f]{32})\.json$",
                         self.path if path is None else path)
        return match.group(1) if match else None

    def _keys_since(self, since: float) -> Tuple[List[str], float]:
        """Keys stamped at-or-after ``since``, plus the new sync clock.

        The clock is the maximum entry mtime seen (never regressing below
        ``since``); the inclusive boundary over-reports ties rather than
        ever skipping an entry written in the scan's final instant.
        """
        keys: List[str] = []
        clock = since
        for key in self.backend.iter_keys():
            st = self.backend.stat(key)
            if st is None or st.mtime is None:
                continue
            clock = max(clock, st.mtime)
            if st.mtime >= since:
                keys.append(key)
        return keys, clock

    def do_GET(self) -> None:
        """Serve ``/keys[?since=]``, ``/stats`` or one entry; else 404."""
        parsed = urllib.parse.urlsplit(self.path)
        if parsed.path == "/keys":
            query = urllib.parse.parse_qs(parsed.query)
            if "since" in query:
                try:
                    since = float(query["since"][0])
                except ValueError:
                    self._send(400, b'{"error": "bad since clock"}')
                    return
                keys, clock = self._keys_since(since)
                self._send_json(200, {"keys": keys, "clock": clock})
                return
            self._send_json(200, sorted(self.backend.iter_keys()))
            return
        if parsed.path == "/stats":
            keys = list(self.backend.iter_keys())
            self._send_json(200, {
                "entries": len(keys),
                "bytes": self.backend.total_bytes(),
                "leases": len(self.leases),
                "lease_claims": self.leases.claims,
                "lease_steals": self.leases.steals,
                "uptime_s": max(0.0, time.time() - self.started_at),
                "read_only": self.read_only,
                "auth_required": bool(self.auth_token),
            })
            return
        key = self._key_from_path(parsed.path)
        data = self.backend.get(key) if key else None
        if data is None:
            self._send(404, b'{"error": "no such entry"}')
            return
        etag = entry_etag(data)
        wanted = (self.headers.get("If-None-Match") or "").strip().strip('"')
        if wanted and wanted == etag:
            self._send(304, etag=etag)
            return
        self._send(200, data, etag=etag)

    def do_HEAD(self) -> None:
        """Existence/size probe of one entry."""
        key = self._key_from_path()
        stat = self.backend.stat(key) if key else None
        if stat is None:
            self._send(404)
        else:
            self.send_response(200)
            self.send_header("Content-Length", str(stat.size))
            self.end_headers()

    def do_POST(self) -> None:
        """Lease verbs: claim / refresh / release one key's compute claim."""
        match = re.match(r"^/leases/([0-9a-f]{32})$", self.path)
        if not match:
            self._send(404, b'{"error": "no such endpoint"}')
            return
        if self.read_only:
            self._send(403, b'{"error": "read-only store"}')
            return
        data, _status = self._read_body(cap=4096)
        if data is None:
            return
        try:
            payload = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            payload = None
        if not isinstance(payload, dict):
            self._send(400, b'{"error": "lease body is not JSON"}')
            return
        key = match.group(1)
        verb = payload.get("verb")
        token = payload.get("token")
        if verb == "claim":
            granted = self.leases.claim(key)
            if granted is None:
                self._send(409, b'{"granted": false}')
            else:
                self._send_json(200, {"granted": True, "token": granted})
        elif verb == "refresh":
            if self.leases.refresh(key, token):
                self._send(200, b'{"refreshed": true}')
            else:
                self._send(409, b'{"refreshed": false}')
        elif verb == "release":
            if self.leases.release(key, token):
                self._send(200, b'{"released": true}')
            else:
                self._send(409, b'{"released": false}')
        else:
            self._send(400, b'{"error": "unknown lease verb"}')

    def do_PUT(self) -> None:
        """Accept one pushed entry after a minimal embedded-key check."""
        if self.read_only:
            self._send(403, b'{"error": "read-only store"}')
            return
        if not self._authorized():
            self._send(401, b'{"error": "missing or wrong auth token"}')
            return
        key = self._key_from_path()
        if key is None:
            self._send(404, b'{"error": "bad entry path"}')
            return
        data, _status = self._read_body()
        if data is None:
            return
        try:
            payload = json.loads(data.decode("utf-8"))
            embedded = payload.get("key") if isinstance(payload, dict) \
                else None
        except (ValueError, UnicodeDecodeError):
            self._send(400, b'{"error": "entry body is not JSON"}')
            return
        if embedded != key:
            self._send(400, b'{"error": "embedded key does not match path"}')
            return
        self.backend.put(key, data)
        self._send(201, b'{"stored": true}')

    def do_DELETE(self) -> None:
        """Drop one entry (404 when absent — honestly, under races).

        The unlink itself is the existence check: of two concurrent
        deletes, exactly one sees 200 and the other 404, with no
        stat-then-delete window in which both could claim success.
        """
        if self.read_only:
            self._send(403, b'{"error": "read-only store"}')
            return
        if not self._authorized():
            self._send(401, b'{"error": "missing or wrong auth token"}')
            return
        key = self._key_from_path()
        if key is None or not self.backend.delete_entry(key):
            self._send(404, b'{"error": "no such entry"}')
            return
        self._send(200, b'{"deleted": true}')


class StoreServer(HTTPServerBase):
    """Publish one local sweep store over HTTP (``repro store serve``).

    An :class:`HTTPServerBase` over the store handler.  The server
    performs only a minimal embedded-key sanity check on pushed entries;
    *clients* re-verify key/salt/checksum on every read, so a compromised
    or skewed server can cost misses, never wrong values.

    Beyond the byte surface the server is the cross-host coordination
    plane: :attr:`leases` holds the per-key compute claims behind ``POST
    /leases/<key>`` (steal window ``lease_steal_after``), ``GET /stats``
    reports entries/bytes/leases/uptime, and ``auth_token`` switches on
    admin mode — ``PUT``/``DELETE`` then require the matching ``Bearer``
    token (constant-time compare); reads and leases stay open.
    """

    label = "store server"

    def __init__(self, root: str, host: str = "127.0.0.1", port: int = 0,
                 read_only: bool = False,
                 auth_token: Optional[str] = None,
                 lease_steal_after: float = LEASE_STEAL_SECONDS) -> None:
        self.leases = _LeaseTable(steal_after=lease_steal_after)
        handler = type("_BoundStoreHTTPHandler", (_StoreHTTPHandler,),
                       {"backend": LocalBackend(root),
                        "read_only": read_only,
                        "auth_token": auth_token, "leases": self.leases,
                        "started_at": time.time()})
        super().__init__(handler, host, port)
