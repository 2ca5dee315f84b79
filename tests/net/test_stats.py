"""The STATS opcode and the obs counters that must survive teardown.

Three layers in one file because they share a story:

- wire format: GET_STATS / STATS frames and the JSON snapshot payload;
- daemon end-to-end: ``PeerClient.get_stats()`` against a live daemon
  returns per-opcode request counts and handler latency histograms;
- counter-continuity regressions: ``Coordinator.transport_stats()``
  after ``aclose()`` and ``PeerClient`` opened/reused totals across the
  per-event-loop pool rebuild, both of which used to silently reset.
"""

import asyncio

import numpy as np
import pytest

from repro.core.params import RCParams
from repro.net import Coordinator, LocalCluster, RetryPolicy
from repro.net.blockstore import BlockStore
from repro.net.client import PeerClient
from repro.net.errors import InsufficientPeersError, ProtocolError
from repro.net.protocol import (
    GetStats,
    StatsData,
    decode_message,
    encode_message,
    read_message,
)
from repro.net.server import PeerDaemon
from repro.obs import SNAPSHOT_FORMAT, MetricsRegistry, validate_snapshot
from tests.net import counted, with_daemon

PARAMS = RCParams(4, 4, 6, 2)


def payload(size, seed=0):
    return bytes(np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8))


# ---------------------------------------------------------------- wire format


class TestStatsWireFormat:
    def test_get_stats_roundtrip(self):
        decoded, consumed = decode_message(encode_message(GetStats()))
        assert decoded == GetStats()
        assert consumed == len(encode_message(GetStats()))

    def test_stats_data_carries_a_snapshot(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("daemon.requests_total", op="ping").inc(3)
        snapshot = registry.snapshot()
        message = StatsData.from_snapshot(snapshot)
        decoded, _ = decode_message(encode_message(message))
        assert decoded.to_snapshot() == snapshot

    def test_stats_payload_is_canonical_json(self):
        # sort_keys makes the frame deterministic: same snapshot, same
        # bytes, regardless of dict insertion order on the daemon.
        a = StatsData.from_snapshot({"b": 1, "a": 2})
        b = StatsData.from_snapshot({"a": 2, "b": 1})
        assert bytes(a.blob) == bytes(b.blob)

    def test_bad_json_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            StatsData(blob=b"{truncated").to_snapshot()

    def test_non_object_json_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            StatsData(blob=b"[1, 2, 3]").to_snapshot()


# ---------------------------------------------------------------- daemon e2e


class TestDaemonStats:
    def test_snapshot_reports_per_opcode_work(self, tmp_path, sample_piece):
        blob, _ = sample_piece

        async def scenario(daemon, client):
            for _ in range(3):
                await client.ping()
            await client.store_piece("f/0", blob)
            await client.get_piece("f/0")
            return await client.get_stats()

        snapshot = with_daemon(
            tmp_path, scenario, registry=MetricsRegistry(enabled=True)
        )
        validate_snapshot(snapshot)
        counters = {
            (entry["name"], entry["labels"].get("op")): entry["value"]
            for entry in snapshot["counters"]
        }
        assert counters[("daemon.requests_total", "ping")] == 3
        assert counters[("daemon.requests_total", "store_piece")] == 1
        assert counters[("daemon.requests_total", "get_piece")] == 1
        # get_stats itself is a request; it was counted before snapshot.
        assert counters[("daemon.requests_total", "get_stats")] == 1
        assert counters[("daemon.bytes_received_total", None)] > 0
        histograms = {
            (entry["name"], entry["labels"].get("op")): entry
            for entry in snapshot["histograms"]
        }
        ping_ns = histograms[("daemon.handler_ns", "ping")]
        assert ping_ns["count"] == 3
        assert ping_ns["p50"] is not None

    def test_disabled_daemon_still_answers_stats(self, tmp_path):
        async def scenario(daemon, client):
            await client.ping()
            return await client.get_stats()

        snapshot = with_daemon(
            tmp_path, scenario, registry=MetricsRegistry(enabled=False)
        )
        validate_snapshot(snapshot)
        assert snapshot["enabled"] is False
        assert snapshot["counters"] == []

    def test_client_rejects_foreign_snapshot_format(self):
        """A daemon speaking a future snapshot schema must fail loudly,
        not feed unparseable data to tooling."""

        async def handle(reader, writer):
            try:
                await read_message(reader)
                writer.write(
                    encode_message(
                        StatsData.from_snapshot({"format": "repro-obs-snapshot-v9"})
                    )
                )
                await writer.drain()
            finally:
                writer.close()

        async def scenario():
            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = PeerClient("127.0.0.1", port, retry=RetryPolicy(retries=0))
            try:
                with pytest.raises(ProtocolError, match="repro-obs-snapshot-v9"):
                    await client.get_stats()
            finally:
                await client.aclose()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())


# ------------------------------------------------- counter continuity (bugs)


class TestTransportStatsSurviveAclose:
    """Regression: ``aclose()`` used to drop the cached clients and with
    them every transport counter, so post-run reporting read all zeros."""

    def test_counters_identical_before_and_after_aclose(self, tmp_path):
        async def scenario():
            async with LocalCluster(4, tmp_path, seed=3) as cluster:
                coordinator = Coordinator(
                    PARAMS,
                    rng=np.random.default_rng(7),
                    retry=RetryPolicy(retries=1, backoff=0.01),
                )
                await coordinator.insert(
                    payload(6_000, seed=1), cluster.addresses, file_id="f"
                )
                before = coordinator.transport_stats()
                await coordinator.aclose()
                after = coordinator.transport_stats()
                # And an aclose on an already-closed coordinator must not
                # double-count the totals.
                await coordinator.aclose()
                return before, after, coordinator.transport_stats()

        before, after, again = asyncio.run(scenario())
        assert before["connections_opened"] > 0
        assert after == before
        assert again == before

    def test_obs_registry_outlives_the_clients(self, tmp_path):
        async def scenario():
            async with LocalCluster(4, tmp_path, seed=5) as cluster:
                coordinator = Coordinator(
                    PARAMS,
                    rng=np.random.default_rng(11),
                    retry=RetryPolicy(retries=1, backoff=0.01),
                    registry=MetricsRegistry(enabled=True),
                )
                await coordinator.insert(
                    payload(4_000, seed=2), cluster.addresses, file_id="f"
                )
                await coordinator.aclose()
                return coordinator.metrics_snapshot()

        snapshot = asyncio.run(scenario())
        validate_snapshot(snapshot)
        names = {entry["name"] for entry in snapshot["counters"]}
        assert "client.requests_total" in names
        assert "pool.connections_opened_total" in names


class TestPoolCountersSurviveRebuild:
    """Regression: the pool is rebuilt when the client is reused on a new
    event loop; opened/reused totals used to restart from zero."""

    def test_opened_accumulates_across_event_loops(self, tmp_path):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        client = PeerClient("127.0.0.1", port, retry=RetryPolicy(retries=0))

        async def one_session(number, close_client):
            daemon = PeerDaemon(
                BlockStore(tmp_path / f"store_{number}"),
                port=port,
                rng=np.random.default_rng(number),
            )
            await daemon.start()
            try:
                assert await client.ping() is True
                return counted(client, "pool.connections_opened_total")
            finally:
                if close_client:
                    await client.aclose()
                await daemon.stop()

        # Two asyncio.run calls: two loops, so the pool is rebuilt for
        # the second one and its fresh counter starts at zero -- the
        # client-level total must not.
        first = asyncio.run(one_session(1, close_client=False))
        assert first >= 1
        second = asyncio.run(one_session(2, close_client=True))
        assert second >= first + 1
        assert counted(client, "pool.connections_opened_total") == second

    def test_reused_survives_aclose(self, tmp_path):
        async def scenario(daemon, client):
            await client.ping()
            await client.ping()  # second ride on the pooled stream
            opened = counted(client, "pool.connections_opened_total")
            reused = counted(client, "pool.connections_reused_total")
            await client.aclose()
            return (
                opened,
                reused,
                counted(client, "pool.connections_opened_total"),
                counted(client, "pool.connections_reused_total"),
            )

        opened, reused, opened_after, reused_after = with_daemon(tmp_path, scenario)
        assert opened == opened_after == 1
        assert reused == reused_after == 1


# ----------------------------------------------------- coordinator op classes


class TestCoordinatorPercentiles:
    def test_op_classes_report_percentiles_after_a_busy_run(self, tmp_path):
        """The acceptance check: after a ~100-op run, the snapshot holds
        p50/p95/p99 per op class (coordinator.op_ns) and per RPC opcode
        (client.rpc_ns)."""

        async def scenario():
            async with LocalCluster(6, tmp_path, seed=9) as cluster:
                coordinator = Coordinator(
                    PARAMS,
                    rng=np.random.default_rng(13),
                    retry=RetryPolicy(retries=1, backoff=0.01),
                    registry=MetricsRegistry(enabled=True),
                )
                async with coordinator:
                    stats = await coordinator.insert(
                        payload(8_000, seed=3), cluster.addresses, file_id="f"
                    )
                    await coordinator.reconstruct(stats.manifest)
                    client = coordinator.client(cluster.addresses[0])
                    for _ in range(100):
                        await client.ping()
                    return coordinator.metrics_snapshot()

        snapshot = asyncio.run(scenario())
        validate_snapshot(snapshot)
        histograms = {
            (entry["name"], entry["labels"].get("op")): entry
            for entry in snapshot["histograms"]
        }
        for op in ("insert", "reconstruct"):
            entry = histograms[("coordinator.op_ns", op)]
            assert entry["count"] == 1
            assert entry["p50"] is not None
            assert entry["p50"] <= entry["p95"] <= entry["p99"]
        ping = next(
            entry
            for (name, op), entry in histograms.items()
            if name == "client.rpc_ns" and op == "ping"
        )
        assert ping["count"] == 100
        assert ping["p50"] <= ping["p95"] <= ping["p99"]
        # Span phases rode along: insert and reconstruct sub-steps.
        span_names = {name for (name, _) in histograms}
        assert {"span.insert.encode", "span.reconstruct.decode"} <= span_names


class TestCoordinatorOperations:
    def test_failed_op_counts_its_error_and_records_no_latency(self, tmp_path):
        async def scenario():
            async with LocalCluster(4, tmp_path, seed=4) as cluster:
                coordinator = Coordinator(
                    PARAMS,
                    rng=np.random.default_rng(17),
                    retry=RetryPolicy(retries=1, backoff=0.01),
                    registry=MetricsRegistry(enabled=True),
                )
                async with coordinator:
                    with pytest.raises(InsufficientPeersError):
                        await coordinator.insert(payload(2_000), [], file_id="f")
                    failed = coordinator.metrics_snapshot()
                    await coordinator.insert(
                        payload(2_000), cluster.addresses, file_id="f"
                    )
                    return failed, coordinator.metrics_snapshot()

        def op_samples(snapshot):
            return sum(
                entry["count"]
                for entry in snapshot["histograms"]
                if entry["name"] == "coordinator.op_ns"
            )

        failed, succeeded = asyncio.run(scenario())
        errors = [
            (entry["labels"], entry["value"])
            for entry in failed["counters"]
            if entry["name"] == "coordinator.errors_total"
        ]
        assert errors == [({"error": "InsufficientPeersError", "op": "insert"}, 1)]
        assert op_samples(failed) == 0
        assert op_samples(succeeded) == 1

    def test_transport_stats_read_zero_with_obs_off(self, tmp_path):
        """``REPRO_OBS=off`` records nothing, transport counts included:
        the four keys stay, at zero."""

        async def scenario():
            async with LocalCluster(4, tmp_path, seed=6) as cluster:
                coordinator = Coordinator(
                    PARAMS,
                    rng=np.random.default_rng(19),
                    retry=RetryPolicy(retries=1, backoff=0.01),
                    registry=MetricsRegistry(enabled=False),
                )
                async with coordinator:
                    await coordinator.insert(
                        payload(2_000), cluster.addresses, file_id="f"
                    )
                    return coordinator.transport_stats()

        assert asyncio.run(scenario()) == {
            "connections_opened": 0,
            "connections_reused": 0,
            "pool_reconnects": 0,
            "transport_failures": 0,
        }
