"""FaultPlan: deterministic decisions, frame sabotage, daemon/client wiring."""

import asyncio

import pytest

from repro.core.serialization import SerializationError, piece_from_bytes
from repro.net.blockstore import BlockStore
from repro.net.client import PeerClient, RetryPolicy
from repro.net.errors import PeerUnavailableError
from repro.net.faults import FaultKind, FaultPlan, FaultRule
from repro.net.protocol import (
    FRAME_HEADER_SIZE,
    Ok,
    PieceData,
    Ping,
    StorePiece,
    decode_message,
    encode_message,
    operation_name,
)
from repro.net.server import PeerDaemon
from tests.net import counted


def run(coro):
    return asyncio.run(coro)


class TestRuleValidation:
    def test_kind_accepts_string_values(self):
        rule = FaultRule(kind="drop")
        assert rule.kind is FaultKind.DROP

    def test_crash_is_server_side_only(self):
        with pytest.raises(ValueError, match="server-side only"):
            FaultRule(kind="crash", side="client")

    def test_probability_range_checked(self):
        with pytest.raises(ValueError):
            FaultRule(kind="drop", probability=1.5)

    def test_times_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultRule(kind="drop", times=0)

    def test_truncate_fraction_must_cut_something(self):
        with pytest.raises(ValueError):
            FaultRule(kind="truncate", truncate_at=1.0)


class TestMatching:
    def test_operation_and_key_filters(self):
        rule = FaultRule(kind="drop", operation="get_piece", key="f/3")
        assert rule.matches("server", None, "get_piece", "f/3")
        assert not rule.matches("server", None, "get_piece", "f/4")
        assert not rule.matches("server", None, "store_piece", "f/3")
        assert not rule.matches("client", None, "get_piece", "f/3")

    def test_wildcards_match_everything(self):
        rule = FaultRule(kind="drop")
        assert rule.matches("server", "peer00", "ping", "")
        assert rule.matches("server", None, "repair_read", "f/9")

    def test_scope_filter(self):
        rule = FaultRule(kind="drop", scope="peer02")
        assert rule.matches("server", "peer02", "ping", "")
        assert not rule.matches("server", "peer03", "ping", "")


class TestDeterminism:
    def drive(self, plan):
        """A fixed probe sequence; returns the kinds fired (or None)."""
        outcomes = []
        for key in ("f/0", "f/1", "f/2"):
            for _ in range(5):
                event = plan.decide("get_piece", key)
                outcomes.append(None if event is None else event.as_tuple)
        return outcomes

    def test_same_seed_same_decisions(self):
        rules = [FaultRule(kind="drop", probability=0.5)]
        assert self.drive(FaultPlan(rules, seed=7)) == self.drive(
            FaultPlan(rules, seed=7)
        )

    def test_different_seed_different_decisions(self):
        rules = [FaultRule(kind="drop", probability=0.5)]
        assert self.drive(FaultPlan(rules, seed=7)) != self.drive(
            FaultPlan(rules, seed=8)
        )

    def test_decisions_independent_of_interleaving(self):
        """Per-key hit counters make the schedule immune to the order in
        which concurrent transfers reach the plan."""
        rules = [FaultRule(kind="drop", probability=0.4)]
        sequential = FaultPlan(rules, seed=3)
        for key in ("a", "b"):
            for _ in range(6):
                sequential.decide("get_piece", key)
        interleaved = FaultPlan(rules, seed=3)
        for _ in range(6):
            for key in ("b", "a"):
                interleaved.decide("get_piece", key)
        assert sequential.history() == interleaved.history()

    def test_probability_one_always_fires(self):
        plan = FaultPlan([FaultRule(kind="drop")], seed=0)
        assert all(
            plan.decide("ping", f"k{n}") is not None for n in range(20)
        )

    def test_probability_half_fires_sometimes(self):
        plan = FaultPlan([FaultRule(kind="drop", probability=0.5)], seed=1)
        fired = sum(
            plan.decide("ping", f"k{n}") is not None for n in range(200)
        )
        assert 60 < fired < 140  # loose two-sided bound

    def test_times_budget_is_per_key(self):
        plan = FaultPlan([FaultRule(kind="drop", times=2)], seed=0)
        for key in ("x", "y"):
            hits = [plan.decide("ping", key) is not None for _ in range(5)]
            assert hits == [True, True, False, False, False]

    def test_after_skips_early_hits(self):
        plan = FaultPlan([FaultRule(kind="drop", after=2)], seed=0)
        hits = [plan.decide("ping", "k") is not None for _ in range(4)]
        assert hits == [False, False, True, True]

    def test_first_matching_rule_wins(self):
        plan = FaultPlan(
            [
                FaultRule(kind="delay", operation="get_piece"),
                FaultRule(kind="drop"),
            ],
            seed=0,
        )
        assert plan.decide("get_piece", "k").kind is FaultKind.DELAY
        assert plan.decide("store_piece", "k").kind is FaultKind.DROP

    def test_reset_forgets_history_and_budgets(self):
        plan = FaultPlan([FaultRule(kind="drop", times=1)], seed=0)
        assert plan.decide("ping", "k") is not None
        assert plan.decide("ping", "k") is None
        plan.reset()
        assert plan.history() == ()
        assert plan.decide("ping", "k") is not None


class TestFrameSabotage:
    def test_header_size_is_a_header_only_frame(self):
        assert FRAME_HEADER_SIZE == len(encode_message(Ping()))

    def test_corrupt_touches_only_the_body(self):
        plan = FaultPlan([FaultRule(kind="corrupt", corrupt_bytes=4)], seed=5)
        event = plan.decide("get_piece", "k")
        frame = encode_message(StorePiece(key="k", blob=bytes(range(64))))
        mutated = plan.corrupt_frame(frame, event)
        assert len(mutated) == len(frame)
        assert mutated[:FRAME_HEADER_SIZE] == frame[:FRAME_HEADER_SIZE]
        assert mutated[FRAME_HEADER_SIZE:] != frame[FRAME_HEADER_SIZE:]
        # The mangled frame still parses as a frame (header intact).
        decoded, _ = decode_message(mutated)
        assert isinstance(decoded, StorePiece)

    def test_corrupt_is_deterministic_per_event(self):
        plan = FaultPlan([FaultRule(kind="corrupt")], seed=5)
        event = plan.decide("get_piece", "k")
        frame = encode_message(PieceData(blob=bytes(1000)))
        assert plan.corrupt_frame(frame, event) == plan.corrupt_frame(frame, event)

    def test_corrupt_leaves_empty_bodies_alone(self):
        plan = FaultPlan([FaultRule(kind="corrupt")], seed=5)
        event = plan.decide("ping", "")
        frame = encode_message(Ok())
        assert plan.corrupt_frame(frame, event) == frame

    def test_truncate_returns_strict_prefix(self):
        plan = FaultPlan([FaultRule(kind="truncate", truncate_at=0.5)], seed=5)
        event = plan.decide("get_piece", "k")
        frame = encode_message(PieceData(blob=bytes(100)))
        cut = plan.truncate_frame(frame, event)
        assert 0 < len(cut) < len(frame)
        assert frame.startswith(cut)


class TestOperationNames:
    def test_snake_case_names(self):
        assert operation_name(Ping()) == "ping"
        assert operation_name(StorePiece()) == "store_piece"
        assert operation_name(PieceData()) == "piece_data"


class TestDaemonWiring:
    """One daemon + one client under targeted plans, over real sockets."""

    @staticmethod
    async def serve(tmp_path, plan, scope="peer00"):
        daemon = PeerDaemon(
            BlockStore(tmp_path / "store"), fault_plan=plan, fault_scope=scope
        )
        await daemon.start()
        return daemon

    def client(self, daemon, retries=2, read_timeout=0.2):
        return PeerClient(
            daemon.host,
            daemon.port,
            read_timeout=read_timeout,
            retry=RetryPolicy(retries=retries, backoff=0.01, jitter=0.0),
        )

    def test_drop_exhausts_retries(self, tmp_path):
        async def scenario():
            plan = FaultPlan([FaultRule(kind="drop", operation="ping")], seed=0)
            daemon = await self.serve(tmp_path, plan)
            try:
                with pytest.raises(PeerUnavailableError):
                    await self.client(daemon).ping()
            finally:
                await daemon.stop()
            return plan.injected

        events = run(scenario())
        assert [event.kind for event in events] == [FaultKind.DROP] * 3

    def test_one_shot_drop_is_absorbed_by_retry(self, tmp_path):
        async def scenario():
            plan = FaultPlan(
                [FaultRule(kind="drop", operation="ping", times=1)], seed=0
            )
            daemon = await self.serve(tmp_path, plan)
            try:
                client = self.client(daemon)
                assert await client.ping() is True
                return (
                    counted(client, "client.failures_total"),
                    counted(daemon, "daemon.faults_total"),
                    counted(daemon, "daemon.faults_total", kind="drop"),
                )
            finally:
                await daemon.stop()

        failures, applied, dropped = run(scenario())
        assert failures == 1
        assert applied == dropped == 1

    def test_delay_trips_read_timeout(self, tmp_path):
        async def scenario():
            plan = FaultPlan(
                [FaultRule(kind="delay", operation="ping", delay=5.0)], seed=0
            )
            daemon = await self.serve(tmp_path, plan)
            try:
                with pytest.raises(PeerUnavailableError):
                    await self.client(daemon, retries=1).ping()
            finally:
                await daemon.stop()

        run(scenario())

    def test_truncate_is_retried_transparently(self, tmp_path):
        async def scenario():
            plan = FaultPlan(
                [FaultRule(kind="truncate", operation="ping", times=1)], seed=0
            )
            daemon = await self.serve(tmp_path, plan)
            try:
                client = self.client(daemon)
                assert await client.ping() is True
                return counted(client, "client.failures_total")
            finally:
                await daemon.stop()

        assert run(scenario()) == 1

    def test_corrupt_response_fails_piece_verification(self, tmp_path, sample_piece):
        blob, _ = sample_piece

        async def scenario():
            plan = FaultPlan(
                [FaultRule(kind="corrupt", operation="get_piece")], seed=0
            )
            daemon = await self.serve(tmp_path, plan)
            try:
                client = self.client(daemon)
                await client.store_piece("f/0", blob)
                fetched = await client.get_piece("f/0")
                # Flipped bytes land in the piece blob: header or CRC32
                # checks reject it either way, as a typed error.
                with pytest.raises(SerializationError):
                    piece_from_bytes(fetched)
            finally:
                await daemon.stop()

        run(scenario())

    def test_crash_kills_the_daemon_mid_request(self, tmp_path):
        async def scenario():
            plan = FaultPlan(
                [FaultRule(kind="crash", operation="ping")], seed=0
            )
            daemon = await self.serve(tmp_path, plan)
            with pytest.raises(PeerUnavailableError):
                await self.client(daemon).ping()
            return daemon

        daemon = run(scenario())
        assert daemon.running is False

    def test_scoped_rule_spares_other_daemons(self, tmp_path):
        async def scenario():
            plan = FaultPlan(
                [FaultRule(kind="drop", operation="ping", scope="peer01")], seed=0
            )
            healthy = await self.serve(tmp_path / "a", plan, scope="peer00")
            doomed = await self.serve(tmp_path / "b", plan, scope="peer01")
            try:
                assert await self.client(healthy).ping() is True
                with pytest.raises(PeerUnavailableError):
                    await self.client(doomed).ping()
            finally:
                await healthy.stop()
                await doomed.stop()

        run(scenario())


class TestClientWiring:
    def test_client_side_drop_counts_as_transport_failure(self, tmp_path):
        async def scenario():
            daemon = PeerDaemon(BlockStore(tmp_path / "store"))
            await daemon.start()
            try:
                plan = FaultPlan(
                    [FaultRule(kind="drop", side="client", times=1)], seed=0
                )
                client = PeerClient(
                    daemon.host,
                    daemon.port,
                    retry=RetryPolicy(retries=2, backoff=0.01, jitter=0.0),
                    fault_plan=plan,
                )
                assert await client.ping() is True
                return counted(client, "client.failures_total"), plan.history()
            finally:
                await daemon.stop()

        failures, history = run(scenario())
        assert failures == 1
        assert len(history) == 1


class TestRuntimeToggles:
    """Rules can be activated and deactivated while a plan is live --
    how the scenario engine turns a straggler window on and off."""

    RULES = [
        FaultRule(kind="drop", operation="ping"),
        FaultRule(kind="delay", operation="*", delay=0.01),
    ]

    def test_rules_start_active_by_default(self):
        plan = FaultPlan(self.RULES, seed=0)
        assert plan.rule_active(0) and plan.rule_active(1)

    def test_inactive_at_construction(self):
        plan = FaultPlan(self.RULES, seed=0, inactive=[0])
        assert not plan.rule_active(0)
        assert plan.rule_active(1)

    def test_inactive_rule_neither_fires_nor_observes(self):
        plan = FaultPlan(self.RULES, seed=0, inactive=[0, 1])
        assert plan.decide("ping", "k", scope="peer00") is None
        assert plan.history() == ()

    def test_toggle_changes_decisions_immediately(self):
        plan = FaultPlan(self.RULES, seed=0, inactive=[0, 1])
        assert plan.decide("ping", "k", scope="peer00") is None
        plan.set_rule_active(0)
        decision = plan.decide("ping", "k", scope="peer00")
        assert decision is not None and decision.kind is FaultKind.DROP
        plan.set_rule_active(0, False)
        assert plan.decide("ping", "k", scope="peer00") is None

    def test_history_records_only_active_windows(self):
        plan = FaultPlan(self.RULES, seed=0, inactive=[1])
        plan.decide("ping", "k", scope="peer00")       # rule 0 fires
        plan.decide("get_piece", "k", scope="peer00")  # rule 1 inactive: nothing
        plan.set_rule_active(1)
        plan.decide("get_piece", "k", scope="peer00")  # now the delay fires
        assert sorted(entry[1] for entry in plan.history()) == ["delay", "drop"]

    def test_out_of_range_indices_rejected(self):
        plan = FaultPlan(self.RULES, seed=0)
        with pytest.raises(IndexError):
            plan.set_rule_active(2)
        with pytest.raises(IndexError):
            plan.rule_active(-3)
        with pytest.raises(IndexError):
            FaultPlan(self.RULES, seed=0, inactive=[5])
