"""The fault-injection harness itself must be trustworthy and replayable.

Chaos results are only as meaningful as the faults are controlled: a rule
that fires on the wrong invocation, a corruption that differs between
runs, or a kill hook that fires in the parent would make the chaos suite
flaky instead of damning.  This file pins the injector: rules target the
exact nth invocation, corruption is a pure function of the plan seed,
plans survive the JSON round trip, the injected-fault journal records
exactly what fired, and the SIGKILL hook honors its cross-process budget
while staying inert without the env var.
"""

import json
import os
import subprocess
import sys

import pytest

from faults import (
    FaultInjectingBackend,
    FaultPlan,
    FaultRule,
    InjectedFault,
    KillPlan,
)
from repro.common.errors import ConfigError
from repro.scenarios import KILL_PLAN_ENV, LocalBackend, maybe_kill_worker

KEY_A = "aa" * 16
KEY_B = "bb" * 16


@pytest.fixture
def backend(tmp_path):
    inner = LocalBackend(str(tmp_path / "store"))
    inner.put(KEY_A, b"payload-a" * 16)
    inner.put(KEY_B, b"payload-b" * 16)
    return inner


# ----------------------------------------------------------------- targeting

def test_rules_fire_on_the_exact_nth_invocation(backend):
    plan = FaultPlan(rules=(FaultRule(op="get", nth=2, action="error"),))
    faulty = FaultInjectingBackend(backend, plan)
    assert faulty.get(KEY_A) is not None        # invocation 1: clean
    with pytest.raises(InjectedFault):
        faulty.get(KEY_A)                       # invocation 2: planned
    assert faulty.get(KEY_A) is not None        # invocation 3: clean again
    assert faulty.injected == ["get#2:error"]


def test_count_zero_means_forever(backend):
    plan = FaultPlan(rules=(
        FaultRule(op="get", nth=2, action="error", count=0),))
    faulty = FaultInjectingBackend(backend, plan)
    assert faulty.get(KEY_A) is not None
    for _ in range(3):  # the server died and stays dead
        with pytest.raises(InjectedFault):
            faulty.get(KEY_A)


def test_ops_are_counted_independently(backend):
    plan = FaultPlan(rules=(FaultRule(op="put", nth=1, action="drop"),))
    faulty = FaultInjectingBackend(backend, plan)
    assert faulty.get(KEY_A) is not None  # get is not put's counter
    faulty.put(KEY_A, b"lost")            # dropped silently
    assert backend.get(KEY_A) != b"lost"
    faulty.put(KEY_A, b"landed")          # put #2 is past the rule
    assert backend.get(KEY_A) == b"landed"
    assert faulty.injected == ["put#1:drop"]


# ------------------------------------------------------------------- actions

def test_drop_reads_as_absent_without_touching_the_entry(backend):
    plan = FaultPlan(rules=(FaultRule(op="get", nth=1, action="drop"),))
    faulty = FaultInjectingBackend(backend, plan)
    assert faulty.get(KEY_A) is None
    assert backend.get(KEY_A) is not None  # the entry itself is untouched


def test_corrupt_is_deterministic_per_plan_seed(backend):
    plan = FaultPlan(rules=(FaultRule(op="get", nth=1, action="corrupt"),),
                     seed=3)
    original = backend.get(KEY_A)
    first = FaultInjectingBackend(backend, plan).get(KEY_A)
    second = FaultInjectingBackend(backend, plan).get(KEY_A)
    assert first != original          # actually mangled
    assert first == second            # identically both times
    other_seed = FaultPlan(rules=plan.rules, seed=4)
    assert FaultInjectingBackend(backend, other_seed).get(KEY_A) != first


def test_truncate_halves_the_payload(backend):
    plan = FaultPlan(rules=(FaultRule(op="get", nth=1, action="truncate"),))
    data = FaultInjectingBackend(backend, plan).get(KEY_A)
    assert len(data) == len(backend.get(KEY_A)) // 2


def test_fetch_proxies_and_faults_separately_from_get(backend):
    plan = FaultPlan(rules=(FaultRule(op="fetch", nth=1, action="error"),))
    faulty = FaultInjectingBackend(backend, plan)
    assert faulty.get(KEY_A) is not None  # get untouched
    with pytest.raises(InjectedFault):
        faulty.fetch(KEY_A)
    assert faulty.fetch(KEY_A) == backend.get(KEY_A)


def test_injected_fault_is_a_backend_error(backend):
    from repro.scenarios import BackendError
    assert issubclass(InjectedFault, BackendError)


# ------------------------------------------------------------- serialization

def test_plan_round_trips_through_json():
    plan = FaultPlan(rules=(
        FaultRule(op="get", nth=3, action="corrupt"),
        FaultRule(op="fetch", nth=1, action="error", count=0),
        FaultRule(op="put", nth=2, action="delay", delay_s=0.5),
    ), seed=11)
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_malformed_plans_are_rejected_loudly():
    with pytest.raises(ConfigError):
        FaultPlan.from_json("not json at all")
    with pytest.raises(ConfigError):
        FaultPlan.from_json(json.dumps({"seed": 1, "surprise": True}))
    with pytest.raises(ConfigError):
        FaultRule(op="teleport", nth=1, action="error")
    with pytest.raises(ConfigError):
        FaultRule(op="get", nth=0, action="error")
    with pytest.raises(ConfigError):
        FaultRule(op="get", nth=1, action="explode")


# ------------------------------------------------------------------ the hook

def test_kill_hook_is_inert_without_the_env_var(monkeypatch):
    monkeypatch.delenv(KILL_PLAN_ENV, raising=False)
    maybe_kill_worker(0)  # must simply return


def test_kill_hook_ignores_other_cells(monkeypatch, tmp_path):
    plan = KillPlan(cell=3, times=1, claim_dir=str(tmp_path / "claims"))
    monkeypatch.setenv(KILL_PLAN_ENV, plan.to_json())
    maybe_kill_worker(0)  # not the planned cell: survives


def test_malformed_kill_plan_raises(monkeypatch):
    monkeypatch.setenv(KILL_PLAN_ENV, '{"cell": "nope"}')
    with pytest.raises(ConfigError):
        KillPlan.from_env()


def test_kill_hook_sigkills_within_budget_then_spares(tmp_path):
    """A subprocess on the planned cell dies by SIGKILL; once the claim
    slots are spent, the same call survives — the bounded-retry story."""
    claim_dir = str(tmp_path / "claims")
    plan = KillPlan(cell=5, times=1, claim_dir=claim_dir)
    env = dict(os.environ, REPRO_CHAOS_KILL_PLAN=plan.to_json(),
               PYTHONPATH="src")
    code = ("from repro.scenarios import maybe_kill_worker; "
            "maybe_kill_worker(5); print('alive')")
    first = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, cwd="/root/repo")
    assert first.returncode == -9  # SIGKILL, no Python teardown
    assert os.path.exists(os.path.join(claim_dir, "kill-0"))
    second = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, cwd="/root/repo")
    assert second.returncode == 0  # budget spent: the cell runs
    assert b"alive" in second.stdout
