"""RL503 fixture: every path releases, transfers, or scopes the resource."""

import asyncio


class Dialer:
    async def closes_in_finally(self, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            return await reader.read()
        finally:
            writer.close()  # exception and return paths both land here

    async def transfers_ownership(self, host, port, registry):
        reader, writer = await asyncio.open_connection(host, port)
        registry.adopt(writer)  # the registry owns the stream now
        return reader

    async def releases_in_finally(self, pool, payload):
        conn = await pool.acquire()
        try:
            await conn.send(payload)
        finally:
            conn.release()

    async def catch_all_releases_and_reraises(self, pool, payload):
        conn = await pool.acquire()
        try:
            await conn.send(payload)
        except BaseException:  # always matches: nothing propagates past it
            conn.release()
            raise
        conn.release()

    async def handler_raise_runs_finally(self, pool, payload, report):
        conn = await pool.acquire()
        try:
            await conn.send(payload)
        except ValueError:
            report()  # a raise here, or one no handler matches, runs the finally
        finally:
            conn.release()

    async def releases_every_iteration(self, pool, batches):
        for batch in batches:
            conn = await pool.acquire()
            try:
                await conn.send(batch)
            finally:
                conn.release()

    async def break_then_release(self, pool, batches):
        conn = await pool.acquire()
        for batch in batches:
            if not batch:
                break
            last = batch
        conn.release()
        return last
