"""RL503 fixture: the leak paths seen in this project's history, and
the ones a typed handler or a loop exit opens."""

import asyncio


class Pool:
    """A pool's acquire: a call that can raise sits before the hand-off."""

    def __init__(self, host, port, timeout, metrics):
        self.host, self.port, self.timeout = host, port, timeout
        self._slots = asyncio.Semaphore(4)
        self._opened = metrics

    async def acquire(self):
        await self._slots.acquire()
        try:
            reader, writer = await asyncio.wait_for(  # line 18
                asyncio.open_connection(self.host, self.port),
                timeout=self.timeout,
            )
            self._opened.inc()  # may raise: the writer is not handed off yet
            return Connection(reader, writer)
        except BaseException:
            self._slots.release()
            raise


class Connection:
    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer


async def setup(make_session, times, repeats):
    """A setup loop: the session is closed if start fails, not after."""
    while True:
        session = make_session()
        try:
            await session.start()  # line 39
        except BaseException:
            await session.close()
            raise
        times.append(len(times))  # a raise here leaks the started session
        if len(times) >= repeats:
            return session
        await session.close()


async def typed_handler(pool, payload):
    conn = await pool.acquire()  # line 50
    try:
        await conn.send(payload)
    except ValueError:  # any other exception leaves with the connection
        conn.release()
        raise
    conn.release()


async def break_skips_release(pool, batches):
    conn = await pool.acquire()  # line 60
    for batch in batches:
        if not batch:
            break  # leaves the loop past the release below
        last = batch
    else:
        conn.release()
    return last
