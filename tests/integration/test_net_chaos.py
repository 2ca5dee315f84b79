"""Chaos lifecycle suite: the full insert -> repair -> reconstruct story
under seeded fault schedules.

Every scenario drives a real localhost cluster through the paper's life
cycle while a :class:`FaultPlan` injects crashes, corruption, stalls,
and cut frames.  The contract under test is the ISSUE's acceptance
criterion: each scenario ends in either a byte-identical round trip or
a documented typed ``repro.net`` error -- never a hang (every run is
bounded by a hard timeout) and never a raw traceback -- and running a
scenario twice with the same seed injects the identical fault set.
"""

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.core.params import RCParams
from repro.net import (
    Coordinator,
    FaultPlan,
    FaultRule,
    InsufficientPeersError,
    LocalCluster,
    NetError,
    RetryPolicy,
)

pytestmark = [pytest.mark.net, pytest.mark.chaos]

PARAMS = RCParams(4, 4, 5, 1)  # 8 pieces, d = 5 helpers per repair
PEERS = 8                      # one piece per peer at insert time
REPAIRED_PIECE = 7             # helpers are pieces 0..4, substitutes 5..6
HARD_TIMEOUT = 30.0            # no scenario may hang
DATA = bytes(np.random.default_rng(2024).integers(0, 256, 6_000, dtype=np.uint8))


@dataclasses.dataclass(frozen=True)
class Scenario:
    rules: tuple
    seed: int = 1234
    repair: bool = True
    #: "roundtrip": bytes must come back identical.
    #: "insufficient_peers": insert must raise the typed error.
    #: "any": round trip OR any typed NetError (combined storms may
    #: legitimately cross the durability boundary).
    expect: str = "roundtrip"


SCENARIOS = {
    # A helper daemon crashes between receiving REPAIR_READ and
    # answering: repair must substitute another piece holder, and the
    # file must survive with that peer gone for good.
    "helper_crash_during_repair": Scenario(
        rules=(FaultRule(kind="crash", operation="repair_read", key="f/1", times=1),),
    ),
    # Every download of piece 0's coefficients is corrupted in flight:
    # verification fails typed, and reconstruction must substitute
    # another piece instead of aborting.
    "corrupt_piece_during_reconstruction": Scenario(
        rules=(FaultRule(kind="corrupt", operation="get_piece", key="f/0"),),
        repair=False,
    ),
    # Piece 2's holder answers reads slower than the client's read
    # timeout, every time: the peer is effectively dead and must be
    # skipped after the retry budget.
    "slow_peer_hits_read_timeout": Scenario(
        rules=(FaultRule(kind="delay", operation="get_piece", key="f/2", delay=1.0),),
        repair=False,
    ),
    # One helper upload is cut mid-frame, once: the client's retry
    # absorbs it and the repair proceeds with the same helper.
    "truncated_frame_during_repair": Scenario(
        rules=(FaultRule(kind="truncate", operation="repair_read", key="f/3", times=1),),
    ),
    # Peer 0 is dead at insert time: round-robin placement must skip it
    # and the file must still round-trip from the remaining peers.
    "dead_peer_at_insert": Scenario(
        rules=(FaultRule(kind="drop", operation="store_piece", scope="peer00"),),
        repair=False,
    ),
    # Every peer refuses every upload: insertion must fail with the
    # typed InsufficientPeersError, not hang or stack-trace.
    "no_live_peers_at_insert": Scenario(
        rules=(FaultRule(kind="drop", operation="store_piece"),),
        expect="insufficient_peers",
    ),
    # Everything at once, probabilistically: a crash, pervasive
    # corruption of one piece, random stalls and cut frames.  The only
    # acceptable outcomes are a byte-identical file or a typed NetError.
    "combined": Scenario(
        rules=(
            FaultRule(kind="crash", operation="repair_read", key="f/1", times=1),
            FaultRule(kind="corrupt", operation="get_piece", key="f/0"),
            FaultRule(kind="delay", operation="get_rows", probability=0.3, delay=1.0),
            FaultRule(kind="truncate", operation="get_piece", probability=0.25, times=2),
        ),
        seed=99,
        expect="any",
    ),
}


async def run_lifecycle(root, plan: FaultPlan, scenario: Scenario):
    """One full life cycle under ``plan``; returns the restored bytes."""
    async with (
        LocalCluster(PEERS, root, seed=5, fault_plan=plan) as cluster,
        Coordinator(
            PARAMS,
            rng=np.random.default_rng(11),
            retry=RetryPolicy(retries=2, backoff=0.01, jitter=0.0),
            read_timeout=0.2,
            fault_plan=plan,
        ) as coordinator,
    ):
        stats = await coordinator.insert(DATA, cluster.addresses, "f")
        manifest = stats.manifest
        if scenario.repair:
            newcomer = await cluster.spawn()
            await coordinator.repair(manifest, REPAIRED_PIECE, newcomer)
        restored, _ = await coordinator.reconstruct(manifest)
        return restored


def run_scenario(tmp_path, name, run_number=0):
    """Execute a named scenario once; returns (outcome, fault history).

    ``outcome`` is the restored bytes or the typed exception instance.
    The hard timeout turns any hang into a test failure.
    """
    scenario = SCENARIOS[name]
    plan = FaultPlan(scenario.rules, seed=scenario.seed)
    root = tmp_path / f"run{run_number}"

    async def bounded():
        try:
            return await asyncio.wait_for(
                run_lifecycle(root, plan, scenario),
                timeout=HARD_TIMEOUT,
            )
        except NetError as exc:
            return exc

    return asyncio.run(bounded()), plan.history()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_ends_in_roundtrip_or_typed_error(tmp_path, name):
    outcome, history = run_scenario(tmp_path, name)
    assert history, "the fault plan never fired -- scenario tests nothing"
    expect = SCENARIOS[name].expect
    if expect == "roundtrip":
        assert outcome == DATA
    elif expect == "insufficient_peers":
        assert isinstance(outcome, InsufficientPeersError)
        assert outcome.unplaced  # the homeless pieces are reported
    else:
        assert outcome == DATA or isinstance(outcome, NetError)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_is_reproducible_from_its_seed(tmp_path, name):
    """Same seed, fresh cluster: the identical fault set fires and the
    outcome is identical -- the acceptance criterion of the fault layer."""
    first_outcome, first_history = run_scenario(tmp_path, name, run_number=0)
    second_outcome, second_history = run_scenario(tmp_path, name, run_number=1)
    assert first_history == second_history
    if isinstance(first_outcome, NetError):
        assert type(second_outcome) is type(first_outcome)
    else:
        assert second_outcome == first_outcome


def test_helper_crash_substitutes_and_records_failure(tmp_path):
    """White-box check of the crash scenario: the failed helper shows up
    in RepairStats and the substitute keeps d contributions."""

    async def scenario():
        plan = FaultPlan(
            [FaultRule(kind="crash", operation="repair_read", key="f/1", times=1)],
            seed=7,
        )
        async with LocalCluster(PEERS, tmp_path, seed=5, fault_plan=plan) as cluster:
            coordinator = Coordinator(
                PARAMS,
                rng=np.random.default_rng(11),
                retry=RetryPolicy(retries=1, backoff=0.01, jitter=0.0),
                read_timeout=0.2,
                fault_plan=plan,
            )
            stats = await coordinator.insert(DATA, cluster.addresses, "f")
            newcomer = await cluster.spawn()
            repair = await coordinator.repair(stats.manifest, REPAIRED_PIECE, newcomer)
            assert 1 in repair.helpers_failed
            assert 1 not in repair.helpers
            assert len(repair.helpers) == PARAMS.d
            assert cluster.daemons[1].running is False  # it really crashed
            restored, _ = await coordinator.reconstruct(stats.manifest)
            return restored

    assert asyncio.run(asyncio.wait_for(scenario(), timeout=HARD_TIMEOUT)) == DATA


def test_faults_show_up_in_the_metrics_snapshot(tmp_path):
    """Injected transport faults must leave an audit trail in obs: the
    per-peer ``client.failures_total`` counters and the legacy
    ``transport_stats()`` roll-up both read nonzero after a crash run."""
    from repro.obs import MetricsRegistry, validate_snapshot

    async def scenario():
        plan = FaultPlan(
            [FaultRule(kind="crash", operation="repair_read", key="f/1", times=1)],
            seed=7,
        )
        async with (
            LocalCluster(PEERS, tmp_path, seed=5, fault_plan=plan) as cluster,
            Coordinator(
                PARAMS,
                rng=np.random.default_rng(11),
                retry=RetryPolicy(retries=1, backoff=0.01, jitter=0.0),
                read_timeout=0.2,
                fault_plan=plan,
                registry=MetricsRegistry(enabled=True),
            ) as coordinator,
        ):
            stats = await coordinator.insert(DATA, cluster.addresses, "f")
            newcomer = await cluster.spawn()
            await coordinator.repair(stats.manifest, REPAIRED_PIECE, newcomer)
            return coordinator.metrics_snapshot(), coordinator.transport_stats()

    snapshot, transport = asyncio.run(
        asyncio.wait_for(scenario(), timeout=HARD_TIMEOUT)
    )
    validate_snapshot(snapshot)
    assert transport["transport_failures"] > 0
    failures = sum(
        entry["value"]
        for entry in snapshot["counters"]
        if entry["name"] == "client.failures_total"
    )
    assert failures == transport["transport_failures"]
    # The substitution the crash forced is counted too.
    substituted = [
        entry["value"]
        for entry in snapshot["counters"]
        if entry["name"] == "coordinator.helpers_substituted_total"
    ]
    assert substituted and substituted[0] >= 1


def test_corrupted_rows_reply_is_rejected_and_retried(tmp_path):
    """A GET_ROWS reply corrupted in flight must fail its CRC32 check and
    be fetched again, never decode into wrong bytes.  The rule fires once
    per key, so every split-piece candidate's first reply is corrupted:
    dropping the piece instead of retrying would run out of pieces."""
    params = RCParams(8, 8, 10, 1)  # n_file % n_piece != 0: one split piece
    data = bytes(np.random.default_rng(43).integers(0, 256, 10_000, dtype=np.uint8))

    async def scenario():
        plan = FaultPlan(
            [FaultRule(kind="corrupt", side="server", operation="get_rows", times=1)],
            seed=3,
        )
        async with (
            LocalCluster(16, tmp_path, seed=5, fault_plan=plan) as cluster,
            Coordinator(params, rng=np.random.default_rng(11)) as coordinator,
        ):
            stats = await coordinator.insert(data, cluster.addresses, "f")
            restored, _ = await coordinator.reconstruct(stats.manifest)
            return restored, plan.history()

    restored, history = asyncio.run(asyncio.wait_for(scenario(), timeout=HARD_TIMEOUT))
    assert history, "the corrupt rule never fired"
    assert restored == data
