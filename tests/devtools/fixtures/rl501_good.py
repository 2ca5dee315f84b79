"""RL501 fixture: covered windows, atomic updates, post-await reads."""

import asyncio


class Tally:
    def __init__(self, lock):
        self._lock = lock
        self._outer_lock = self._inner_lock = lock
        self._write_sem = lock
        self._count = 0
        self._flag = False

    async def covered_increment(self):
        async with self._lock:
            count = self._count
            await asyncio.sleep(0)  # suspension under the same lock
            self._count = count + 1  # no task can interleave: covered

    async def atomic_increment(self):
        self._count += 1  # read and write with no await between
        await asyncio.sleep(0)

    async def fresh_read_after_await(self):
        await asyncio.sleep(0)
        self._flag = not self._flag  # window opens after the suspension

    async def nested_locks_cover(self):
        async with self._outer_lock:
            count = self._count
            async with self._inner_lock:
                await asyncio.sleep(0)  # the outer lock is still held
            self._count = count + 1

    async def semaphore_covers(self):
        async with self._write_sem:
            count = self._count
            await asyncio.sleep(0)
            self._count = count + 1

    async def branches_rejoin(self, fast):
        if fast:
            count = self._count  # the read is on one branch ...
        else:
            await asyncio.sleep(0)  # ... the await on the other
            count = 0
        self._count = count + 1

    async def rereads_every_iteration(self, items):
        for item in items:
            await asyncio.sleep(0)
            self._count = self._count + item  # read after this iteration's await

    async def lambda_body_reads_later(self):
        current = lambda: self._count  # no read until it is called
        await asyncio.sleep(0)
        self._count = 0
        return current
