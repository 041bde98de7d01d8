"""Deterministic fault injection for the sweep fabric (a test harness).

A robustness contract that is never exercised is a wish, not a contract.
This module is the tooling that *produces* the faults hosts actually see,
on demand and reproducibly, so the chaos suite can pin the recovery paths
the way the determinism suite pins the rows.  Tests import it the way
they import ``helpers``:

* :class:`FaultPlan` — a seeded, JSON-describable script of faults: each
  :class:`FaultRule` targets the *nth* invocation of one backend
  operation (``get``/``put``/``delete``/``stat``/``iter_keys``/``fetch``)
  and applies one action — ``error`` (raise :class:`InjectedFault`),
  ``drop`` (pretend the entry is absent / swallow the write), ``corrupt``
  (flip bytes at seed-determined offsets), ``truncate`` (cut the payload
  short, a mid-transfer death), or ``delay`` (sleep ``delay_s`` first);
* :class:`FaultInjectingBackend` — a wrapper around any
  :class:`~repro.scenarios.backends.StoreBackend` that executes the plan
  while journalling every injected fault, so a test can assert both that
  the sweep survived *and* that the faults actually fired;
* :class:`KillPlan` — the JSON plan for the production worker hook
  :func:`repro.scenarios.batch.maybe_kill_worker` (carried in
  :data:`~repro.scenarios.batch.KILL_PLAN_ENV`): a batch worker about to
  run a planned cell hard-kills itself with ``SIGKILL``, at most
  ``times`` times across the whole sweep (a shared claim directory makes
  the budget exact across processes and pool rebuilds).  The parent's
  quarantine path never triggers it — only pool workers consult the
  hook.

Every fault is a pure function of the plan: the same plan against the
same operation sequence injects the same faults, which is what lets
``tests/test_sweep_determinism.py`` assert that a sweep under injected
worker kills and backend faults still produces rows bit-identical to a
serial run.
"""

import json
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.prng import stable_hash
from repro.scenarios.backends import BackendError, EntryStat, StoreBackend
from repro.scenarios.batch import _kill_plan

#: the operations a FaultRule may target (``fetch`` is the loud
#: pull-path read of :class:`~repro.scenarios.backends.HTTPBackend`)
FAULT_OPS = ("get", "put", "delete", "stat", "iter_keys", "fetch")

#: the actions a FaultRule may apply
FAULT_ACTIONS = ("error", "drop", "corrupt", "truncate", "delay")


class InjectedFault(BackendError):
    """The error a planned ``error`` fault raises.

    A :class:`~repro.scenarios.backends.BackendError` subclass, so an
    injected transport failure travels the same except-paths a real one
    would: read-through treats it as a miss, push/pull retry it under
    their :class:`~repro.scenarios.retry.RetryPolicy` and then fail
    loudly.
    """


@dataclass(frozen=True)
class FaultRule:
    """One scripted fault: *what* happens to *which* invocation.

    Attributes:
        op: the backend operation to target (one of :data:`FAULT_OPS`).
        nth: 1-based index among that operation's invocations at which
            the fault starts firing.
        action: one of :data:`FAULT_ACTIONS`.
        count: how many consecutive matching invocations the fault
            covers (default 1); ``0`` means "from ``nth`` onwards,
            forever" — how a test scripts a server that dies mid-transfer
            and stays dead.
        delay_s: sleep length for the ``delay`` action.
    """

    op: str
    nth: int
    action: str
    count: int = 1
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        """Reject rules the injector could not execute."""
        if self.op not in FAULT_OPS:
            raise ConfigError(f"unknown fault op {self.op!r}; "
                              f"choose from {list(FAULT_OPS)}")
        if self.action not in FAULT_ACTIONS:
            raise ConfigError(f"unknown fault action {self.action!r}; "
                              f"choose from {list(FAULT_ACTIONS)}")
        if self.nth < 1:
            raise ConfigError("fault rules are 1-based: nth must be >= 1")
        if self.count < 0:
            raise ConfigError("count must be >= 0 (0 = forever)")
        if self.delay_s < 0:
            raise ConfigError("delay_s cannot be negative")

    def covers(self, invocation: int) -> bool:
        """Whether this rule fires on the given 1-based invocation."""
        if invocation < self.nth:
            return False
        return self.count == 0 or invocation < self.nth + self.count

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (defaults omitted), the JSON wire shape."""
        data: Dict[str, object] = {"op": self.op, "nth": self.nth,
                                   "action": self.action}
        if self.count != 1:
            data["count"] = self.count
        if self.delay_s:
            data["delay_s"] = self.delay_s
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultRule":
        """Rebuild one rule, rejecting unknown fields loudly."""
        known = {"op", "nth", "action", "count", "delay_s"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown FaultRule field(s) "
                              f"{sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, JSON-round-tripping script of backend faults.

    The ``seed`` determines *how* a ``corrupt`` action mangles bytes
    (which offsets flip), so two runs of one plan corrupt identically —
    determinism all the way down into the failure modes.
    """

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        """Normalize the rules into a tuple (JSON hands us lists)."""
        object.__setattr__(self, "rules", tuple(self.rules))

    def action_for(self, op: str, invocation: int) -> Optional[FaultRule]:
        """The first rule covering this (op, 1-based invocation), if any."""
        for rule in self.rules:
            if rule.op == op and rule.covers(invocation):
                return rule
        return None

    def corrupt(self, data: bytes, op: str, invocation: int) -> bytes:
        """Deterministically mangle ``data`` for one corrupt fault.

        Flips one byte per 64 (at least one), at offsets derived from the
        plan seed and the invocation — a pure function, so the chaos
        suite replays the identical corruption every run.
        """
        if not data:
            return b"\x00"
        out = bytearray(data)
        flips = max(1, len(out) // 64)
        for i in range(flips):
            h = stable_hash(f"fault:{self.seed}:{op}:{invocation}:{i}")
            out[h % len(out)] ^= 0x80 | (h >> 8) % 0x7F | 0x01
        return bytes(out)

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form: ``{"seed": ..., "rules": [...]}``."""
        return {"seed": self.seed,
                "rules": [rule.to_dict() for rule in self.rules]}

    def to_json(self) -> str:
        """The JSON text a CLI flag or env var would carry."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output, loudly."""
        unknown = set(data) - {"rules", "seed"}
        if unknown:
            raise ConfigError(f"unknown FaultPlan field(s) "
                              f"{sorted(unknown)}")
        rules = tuple(FaultRule.from_dict(r)
                      for r in data.get("rules", ()))
        return cls(rules=rules, seed=int(data.get("seed", 0)))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse the JSON form (the inverse of :meth:`to_json`)."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"fault plan is not valid JSON: {exc}") \
                from None
        if not isinstance(data, dict):
            raise ConfigError("fault plan JSON must be an object")
        return cls.from_dict(data)


class FaultInjectingBackend:
    """Wrap any :class:`StoreBackend`, executing a :class:`FaultPlan`.

    Each operation is counted per name; when the count matches a rule,
    the scripted action fires *instead of* (``error``/``drop``) or *on
    the way through* (``corrupt``/``truncate``/``delay``) the wrapped
    backend's real operation.  Every injected fault is appended to
    :attr:`injected` as ``"op#n:action"``, so tests assert the plan
    actually executed and did not silently pass clean.

    The wrapper satisfies the five-op :class:`StoreBackend` protocol and
    additionally proxies ``fetch`` (the loud pull-path read), so it can
    stand in for a local tier, a remote tier, or a pull source alike.
    """

    def __init__(self, inner: StoreBackend, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self.counts: Dict[str, int] = {}
        self.injected: List[str] = []

    def _next(self, op: str) -> Optional[FaultRule]:
        """Advance the op counter; the rule to apply now, if any."""
        n = self.counts.get(op, 0) + 1
        self.counts[op] = n
        rule = self.plan.action_for(op, n)
        if rule is not None:
            self.injected.append(f"{op}#{n}:{rule.action}")
        return rule

    def _mangle(self, data: Optional[bytes], op: str,
                rule: FaultRule) -> Optional[bytes]:
        """Apply a pass-through action to read bytes."""
        if data is None:
            return None
        if rule.action == "corrupt":
            return self.plan.corrupt(data, op, self.counts[op])
        if rule.action == "truncate":
            return data[:len(data) // 2]
        return data

    def _gate(self, op: str) -> Optional[FaultRule]:
        """Shared entry: raise/delay now, hand back pass-through rules."""
        rule = self._next(op)
        if rule is None:
            return None
        if rule.action == "error":
            raise InjectedFault(
                f"injected fault: {op} invocation {self.counts[op]}")
        if rule.action == "delay":
            time.sleep(rule.delay_s)
            return None
        return rule

    # ------------------------------------------------------------- protocol

    def get(self, key: str) -> Optional[bytes]:
        """Read one entry, subject to the plan's ``get`` rules."""
        rule = self._gate("get")
        if rule is not None and rule.action == "drop":
            return None
        return self._mangle(self.inner.get(key), "get", rule) \
            if rule is not None else self.inner.get(key)

    def fetch(self, key: str) -> Optional[bytes]:
        """Loud pull-path read, subject to the plan's ``fetch`` rules."""
        rule = self._gate("fetch")
        if rule is not None and rule.action == "drop":
            return None
        fetch = getattr(self.inner, "fetch", self.inner.get)
        data = fetch(key)
        return self._mangle(data, "fetch", rule) if rule is not None \
            else data

    def put(self, key: str, data: bytes) -> None:
        """Write one entry, subject to the plan's ``put`` rules."""
        rule = self._gate("put")
        if rule is not None:
            if rule.action == "drop":
                return  # the write is silently lost, like a dying disk
            data = self._mangle(data, "put", rule)
        self.inner.put(key, data)

    def delete(self, key: str) -> None:
        """Delete one entry, subject to the plan's ``delete`` rules."""
        rule = self._gate("delete")
        if rule is not None and rule.action == "drop":
            return
        self.inner.delete(key)

    def iter_keys(self) -> Iterator[str]:
        """List keys, subject to the plan's ``iter_keys`` rules."""
        rule = self._gate("iter_keys")
        if rule is not None and rule.action == "drop":
            return iter(())
        return self.inner.iter_keys()

    def stat(self, key: str) -> Optional[EntryStat]:
        """Stat one entry, subject to the plan's ``stat`` rules."""
        rule = self._gate("stat")
        if rule is not None and rule.action in ("drop", "corrupt",
                                                "truncate"):
            return None
        return self.inner.stat(key)


# ------------------------------------------------------------- worker kills


@dataclass(frozen=True)
class KillPlan:
    """An env-carried plan to hard-kill a batch worker at one cell.

    Attributes:
        cell: the input-order index of the grid cell at which a worker
            kills itself.
        times: how many kills the plan budgets in total (across every
            worker process and pool rebuild); once spent, the cell runs
            normally — which is what lets a bounded retry budget finish
            the sweep.
        claim_dir: a directory where each kill claims one ``kill-N``
            file with ``O_EXCL`` before firing, making the budget exact
            even when several workers race to the same cell.
    """

    cell: int
    times: int
    claim_dir: str

    def to_json(self) -> str:
        """The JSON text to place in ``KILL_PLAN_ENV``."""
        return json.dumps({"cell": self.cell, "times": self.times,
                           "claim_dir": self.claim_dir})

    @classmethod
    def from_env(cls) -> Optional["KillPlan"]:
        """The active plan, parsed exactly as the worker hook parses it.

        ``None`` when the variable is unset; a malformed plan raises
        :class:`~repro.common.errors.ConfigError`.
        """
        plan = _kill_plan()
        return None if plan is None else cls(*plan)
