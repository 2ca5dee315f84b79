"""RL502 fixture: blocking work offloaded, or confined to sync context."""

import asyncio
import hashlib
import time


def sync_digest(blob):
    return hashlib.sha256(blob).hexdigest()  # sync helper: fine by itself


class Digester:
    async def offloads_hashing(self, blob):
        # The helper blocks, but the reference is handed to the offload
        # primitive, never called on the loop.
        return await asyncio.to_thread(sync_digest, blob)

    async def offloads_sleep(self, loop, executor):
        await loop.run_in_executor(executor, time.sleep, 0.1)

    def sync_method_may_block(self):
        time.sleep(0.1)  # not async and never called from async here

    async def sleeps_in_a_lambda_on_the_executor(self, loop, executor):
        job = lambda: time.sleep(0.1)  # the body runs on the executor
        await loop.run_in_executor(executor, job)
