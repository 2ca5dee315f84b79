"""The daemon dispatch contract: one shared pool, serialized per daemon.

Every :class:`PeerDaemon` in a process dispatches on one pool of
``daemon-dispatch`` threads sized to the CPUs the process may run on.
Each daemon still runs one dispatch at a time -- its blockstore, rng and
per-opcode instruments rely on it -- through a lock held on the loop
until the dispatch has returned, even when the handler that started it
is cancelled, the daemon stops, or it crashes and restarts.
"""

import asyncio
import concurrent.futures
import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro.core.params import RCParams
from repro.net import Coordinator, LocalCluster, RetryPolicy
from repro.net import server
from repro.net.blockstore import BlockStore
from repro.net.client import PeerClient
from repro.net.protocol import Ping, write_message
from repro.net.server import PeerDaemon
from repro.obs import MetricsRegistry, now_ns
from tests.net import counted, with_daemon


@pytest.fixture()
def wide_pool(monkeypatch):
    """Four dispatch threads whatever the CPU count, so a dispatch that
    escaped its daemon's lock would find a free thread to overlap on."""
    pool = concurrent.futures.ThreadPoolExecutor(4, thread_name_prefix="daemon-dispatch")
    monkeypatch.setattr(server, "_DISPATCH_POOL", pool)
    yield pool
    pool.shutdown(wait=True)


class _Recorder:
    """Replaces a daemon's ``_dispatch``: records when each dispatch ran
    and how many of them overlapped.

    The first dispatch sleeps ``first`` seconds and then waits on
    ``gate`` (if given); every dispatch sleeps ``each`` seconds.
    """

    def __init__(self, daemon, first=0.0, each=0.0, gate=None):
        self._real = daemon._dispatch
        self._first, self._each, self._gate = first, each, gate
        self._guard = threading.Lock()
        self._active = 0
        self.calls = 0
        self.overlap = 0
        self.spans: list[tuple[int, int]] = []
        self.started = threading.Event()
        daemon._dispatch = self

    def __call__(self, request):
        with self._guard:
            self._active += 1
            self.overlap = max(self.overlap, self._active)
            first = self.calls == 0
            self.calls += 1
        start = now_ns()
        self.started.set()
        try:
            if first:
                time.sleep(self._first)
                if self._gate is not None:
                    self._gate.wait(5)
            time.sleep(self._each)
            return self._real(request)
        finally:
            end = now_ns()
            with self._guard:
                self._active -= 1
                self.spans.append((start, end))

    def ordered(self) -> bool:
        """Whether each dispatch started after the previous one returned."""
        spans = sorted(self.spans)
        return all(prev[1] <= nxt[0] for prev, nxt in zip(spans, spans[1:]))


def _daemon(tmp_path, name="store", **kwargs):
    return PeerDaemon(
        BlockStore(tmp_path / name), rng=np.random.default_rng(7), **kwargs
    )


def _client(daemon):
    return PeerClient(*daemon.address, retry=RetryPolicy(retries=0))


async def _send_ping(daemon):
    """Send one PING on a fresh connection and never read the answer."""
    _, writer = await asyncio.open_connection(*daemon.address)
    await write_message(writer, Ping())
    return writer


async def _started(recorder):
    assert await asyncio.to_thread(recorder.started.wait, 5)


def _run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60.0))


class TestSharedPool:
    def test_cluster_cycle_leaves_at_most_one_thread_per_cpu(self, tmp_path):
        """A paper-sized cluster no longer runs a thread per daemon."""
        data = bytes(np.random.default_rng(4).integers(0, 256, 40_000, dtype=np.uint8))

        async def scenario():
            async with (
                LocalCluster(65, tmp_path, seed=3) as cluster,
                Coordinator(
                    RCParams(32, 32, 40, 1),
                    rng=np.random.default_rng(5),
                    retry=RetryPolicy(retries=1, backoff=0.01),
                ) as coordinator,
            ):
                stats = await coordinator.insert(data, cluster.addresses[:64], "f")
                await coordinator.repair(stats.manifest, 0, cluster.address_of(64))
                restored, _ = await coordinator.reconstruct(stats.manifest)
                assert restored == data
                return [
                    thread.name
                    for thread in threading.enumerate()
                    if thread.name.startswith("daemon-dispatch")
                ]

        names = _run(scenario())
        assert 1 <= len(names) <= len(os.sched_getaffinity(0))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_can_serve(self, tmp_path):
        """A child inherits the pool object but none of its threads; its
        first dispatch must not wait forever on a dead thread."""

        async def ping(daemon, client):
            return await client.ping()

        assert with_daemon(tmp_path, ping) is True  # the parent's pool is live
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
            pid = os.fork()
        if pid == 0:  # pragma: no cover - the child reports through its exit code
            code = 1
            try:
                code = 0 if with_daemon(tmp_path / "child", ping) is True else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("a daemon in a forked child never answered")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(status) == 0


class TestSerializedDispatch:
    def test_concurrent_requests_never_overlap(self, tmp_path, wide_pool):
        async def scenario():
            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                return await contend()
            finally:
                sys.setswitchinterval(switch)

        async def contend():
            daemon = _daemon(tmp_path)
            await daemon.start()
            recorder = _Recorder(daemon, each=0.02)
            clients = [_client(daemon) for _ in range(6)]
            try:
                results = await asyncio.gather(*(client.ping() for client in clients))
            finally:
                for client in clients:
                    await client.aclose()
                await daemon.stop()
            return results, recorder

        results, recorder = _run(scenario())
        assert results == [True] * 6
        assert recorder.calls == 6
        assert recorder.overlap == 1

    def test_cancelled_handler_keeps_the_lock_until_its_dispatch_returns(
        self, tmp_path, wide_pool
    ):
        async def scenario():
            daemon = _daemon(tmp_path)
            await daemon.start()
            recorder = _Recorder(daemon, first=0.3)
            writer = await _send_ping(daemon)
            client = _client(daemon)
            try:
                await _started(recorder)
                for task in list(daemon._handlers):
                    task.cancel()
                assert await client.ping() is True
            finally:
                writer.close()
                await client.aclose()
                await daemon.stop()
            return recorder

        recorder = _run(scenario())
        assert recorder.calls == 2
        assert recorder.overlap == 1
        assert recorder.ordered()

    def test_stop_waits_for_an_abandoned_dispatch(self, tmp_path, wide_pool):
        async def scenario():
            daemon = _daemon(tmp_path)
            await daemon.start()
            recorder = _Recorder(daemon, first=0.3)
            writer = await _send_ping(daemon)
            try:
                await _started(recorder)
                for task in list(daemon._handlers):
                    task.cancel()
            finally:
                await daemon.stop()
                finished = len(recorder.spans)
                writer.close()
            return finished

        assert _run(scenario()) == 1

    def test_restart_after_crash_waits_for_the_orphaned_dispatch(
        self, tmp_path, wide_pool
    ):
        async def scenario():
            async with LocalCluster(1, tmp_path, seed=0) as cluster:
                daemon = cluster.daemons[0]
                recorder = _Recorder(daemon, first=0.3)
                writer = await _send_ping(daemon)
                await _started(recorder)
                daemon.crash()
                await cluster.restart(0)
                client = _client(daemon)
                try:
                    assert await client.ping() is True
                finally:
                    await client.aclose()
                    writer.close()
            return recorder

        recorder = _run(scenario())
        assert recorder.calls == 2
        assert recorder.overlap == 1
        assert recorder.ordered()

    def test_daemon_serves_again_under_a_second_event_loop(self, tmp_path, wide_pool):
        """The lock is per loop: contended under one ``asyncio.run``, it
        must not refuse the next one."""
        daemon = _daemon(tmp_path)

        async def contend():
            await daemon.start()
            recorder = _Recorder(daemon, first=0.1)
            clients = [_client(daemon) for _ in range(2)]
            try:
                results = await asyncio.gather(*(client.ping() for client in clients))
            finally:
                for client in clients:
                    await client.aclose()
                await daemon.stop()
            daemon._dispatch = recorder._real
            return results, recorder

        for _ in range(2):
            results, recorder = _run(contend())
            assert results == [True, True]
            assert recorder.overlap == 1


class TestQueueWait:
    def test_second_request_records_its_wait_for_the_first(self, tmp_path, wide_pool):
        """``daemon.queue_ns`` covers a request's wait for its daemon's
        lock; the request and handler counts are unchanged by it."""
        hold_ns = 200_000_000
        gate = threading.Event()

        async def scenario():
            daemon = _daemon(tmp_path, registry=MetricsRegistry(enabled=True))
            await daemon.start()
            recorder = _Recorder(daemon, gate=gate)
            first_client, second_client = _client(daemon), _client(daemon)
            try:
                first = asyncio.ensure_future(first_client.ping())
                await _started(recorder)
                received = counted(daemon, "daemon.bytes_received_total")
                second = asyncio.ensure_future(second_client.ping())
                # The loop counts a request's bytes just before it stamps
                # the parse, so once the count moves the wait has begun.
                while counted(daemon, "daemon.bytes_received_total") == received:
                    await asyncio.sleep(0.005)
                await asyncio.sleep(hold_ns / 1e9)
                gate.set()
                assert await first is True
                assert await second is True
                return daemon.snapshot()
            finally:
                gate.set()
                await first_client.aclose()
                await second_client.aclose()
                await daemon.stop()

        snapshot = _run(scenario())
        counters = {
            (entry["name"], entry["labels"].get("op")): entry["value"]
            for entry in snapshot["counters"]
        }
        histograms = {
            (entry["name"], entry["labels"].get("op")): entry
            for entry in snapshot["histograms"]
        }
        assert counters[("daemon.requests_total", "ping")] == 2
        assert histograms[("daemon.handler_ns", "ping")]["count"] == 2
        queue = histograms[("daemon.queue_ns", "ping")]
        assert queue["count"] == 2
        assert queue["max"] >= hold_ns
