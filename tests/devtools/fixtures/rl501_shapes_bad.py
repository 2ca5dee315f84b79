"""RL501 fixture: the torn windows seen in this project's history, and
the ones a branch, loop or handler opens."""

import asyncio


class Daemon:
    """A daemon's start/stop: the listener slot is read, awaited, written."""

    def __init__(self, host, port):
        self.host, self.port = host, port
        self._server = None

    async def start(self):
        if self._server is not None:
            raise RuntimeError("already started")
        self._server = await asyncio.start_server(  # line 17: `_server` torn
            self.handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]  # line 20: `port`

    async def stop(self):
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None  # line 27: `_server` torn

    async def handle(self, reader, writer):
        writer.close()


class Session:
    """A benchmark cycle: spares read before the awaited operation."""

    def __init__(self, coordinator, spares):
        self.coordinator = coordinator
        self._spares = spares

    async def cycle(self, client, manifest, lost):
        await self.coordinator.repair(manifest, lost, self._spares[client])
        old_holder = manifest.pieces[lost]
        self._spares[client] = old_holder  # line 43: `_spares` torn


class Tally:
    def __init__(self, session):
        self.session = session
        self._count = 0
        self._last = 0
        self._seen = 0

    async def non_lock_context(self):
        async with self.session:  # a session is no lock: nothing covered
            count = self._count
            await asyncio.sleep(0)
            self._count = count + 1  # line 57

    async def read_then_next_iteration(self, items):
        last = 0
        for item in items:
            await asyncio.sleep(0)  # the previous iteration's read tears here
            self._last = last + item  # line 63
            last = self._last

    async def read_then_handler(self):
        seen = self._seen
        try:
            await asyncio.sleep(0)
        except OSError:
            self._seen = seen + 1  # line 71: the handler runs after the await
